//! Property tests for the obs primitives: histogram merge algebra,
//! quantile error bounds, lossless concurrent recording, and span-ring
//! wraparound.

use std::sync::Arc;

use milr_obs::{bucket_index, Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard histograms is associative and commutative, and
    /// equals recording every sample into a single histogram.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        xs in proptest::collection::vec(0u64..2_000_000, 0..120),
        ys in proptest::collection::vec(0u64..2_000_000, 0..120),
        zs in proptest::collection::vec(0u64..2_000_000, 0..120),
    ) {
        let (a, b, c) = (snapshot_of(&xs), snapshot_of(&ys), snapshot_of(&zs));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(merged(&merged(&a, &b), &c), snapshot_of(&all));
    }

    /// The quantile estimate lands in the same log-linear bucket as the
    /// exact order statistic and never under-reports it.
    #[test]
    fn quantile_within_one_bucket_of_exact(
        xs in proptest::collection::vec(0u64..50_000_000, 1..200),
        q1000 in 1u64..1001,
    ) {
        let q = q1000 as f64 / 1000.0;
        let snap = snapshot_of(&xs);
        let mut xs = xs;
        xs.sort_unstable();
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        let exact = xs[rank - 1];
        let est = snap.quantile_upper_bound(q);
        prop_assert!(est >= exact, "estimate {} under exact {}", est, exact);
        prop_assert_eq!(bucket_index(est), bucket_index(exact));
    }

    /// min/max/mean agree with the direct computation.
    #[test]
    fn summary_stats_are_exact(
        xs in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let snap = snapshot_of(&xs);
        prop_assert_eq!(snap.min(), *xs.iter().min().unwrap());
        prop_assert_eq!(snap.max(), *xs.iter().max().unwrap());
        let sum: u64 = xs.iter().sum();
        prop_assert_eq!(snap.sum(), sum);
        prop_assert!((snap.mean() - sum as f64 / xs.len() as f64).abs() < 1e-9);
    }
}

/// Eight threads hammering one histogram lose no samples: totals, the
/// bucket sum, and the value sum all account for every record.
#[test]
fn concurrent_recording_from_eight_threads_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread across many buckets, deterministic per thread.
                    h.record((i * 2654435761 + t) % 1_000_003);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (i * 2654435761 + t) % 1_000_003))
        .sum();
    assert_eq!(snap.sum(), expected_sum);
    let bucket_total: u64 = snap
        .cumulative_buckets()
        .last()
        .map(|&(_, c)| c)
        .unwrap_or(0);
    assert_eq!(bucket_total, THREADS * PER_THREAD);
}

/// Serialises the span-ring tests of this binary: exited threads hand
/// their rings on to the next recording thread, so a concurrently
/// running span test could overwrite the spans another one counts.
fn span_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Overfilling one thread's span ring keeps exactly the newest
/// `RING_CAPACITY` spans: every early span is overwritten, no late span
/// is lost, and the reader sees no torn records.
#[test]
fn span_ring_wraparound_keeps_newest_spans() {
    let _serial = span_test_lock();
    const EXTRA: usize = 10;
    std::thread::spawn(|| {
        for _ in 0..EXTRA {
            let _s = milr_obs::span!("wraptest.overwritten");
        }
        for _ in 0..milr_obs::RING_CAPACITY {
            let _s = milr_obs::span!("wraptest.kept");
        }
    })
    .join()
    .unwrap();
    let spans = milr_obs::recent_spans(usize::MAX);
    let kept = spans.iter().filter(|s| s.name == "wraptest.kept").count();
    let overwritten = spans
        .iter()
        .filter(|s| s.name == "wraptest.overwritten")
        .count();
    assert_eq!(kept, milr_obs::RING_CAPACITY);
    assert_eq!(overwritten, 0, "pre-wrap spans must have been overwritten");
}

/// `recent(limit)` truncates to the newest spans in start order.
#[test]
fn recent_respects_limit_and_order() {
    let _serial = span_test_lock();
    std::thread::spawn(|| {
        for _ in 0..50 {
            let _s = milr_obs::span!("limittest.span");
        }
    })
    .join()
    .unwrap();
    let spans = milr_obs::recent_spans(5);
    assert!(spans.len() <= 5);
    assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
}

/// Short-lived threads recycle span rings instead of leaking one each:
/// 200 sequential threads (peak concurrency one) leave the ring count at
/// most one above where it started, and every span they recorded is
/// still readable from the recycled ring.
#[test]
fn exited_threads_hand_their_span_rings_on() {
    let _serial = span_test_lock();
    const THREADS: usize = 200;
    let before = milr_obs::span::ring_count();
    for _ in 0..THREADS {
        std::thread::spawn(|| {
            let _s = milr_obs::span!("recycletest.span");
        })
        .join()
        .unwrap();
    }
    let after = milr_obs::span::ring_count();
    assert!(
        after <= before + 1,
        "{THREADS} sequential threads grew the rings from {before} to {after}"
    );
    let seen = milr_obs::recent_spans(usize::MAX)
        .iter()
        .filter(|s| s.name == "recycletest.span")
        .count();
    assert_eq!(seen, THREADS, "spans of exited threads must stay readable");
}
