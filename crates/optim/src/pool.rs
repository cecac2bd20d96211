//! Scoped worker pool with deterministic index-ordered results.
//!
//! One helper serves every parallel fan-out in the workspace: multi-start
//! solves here in `milr-optim`, and database ranking / preprocessing in
//! `milr-core`. Jobs are identified by index; workers pull indices from a
//! shared atomic counter (dynamic load balancing, which matters because
//! DD solves and image preprocessing have very uneven per-job cost) and
//! collect `(index, result)` pairs privately, so there is no lock on the
//! hot path. Results are scattered back into index order afterwards —
//! the output is identical for any thread count, including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Resolves a user-facing thread knob (`0` = available parallelism) to a
/// concrete worker count, clamped to the number of jobs.
///
/// The available parallelism is queried once per process: on Linux the
/// query reads cgroup files (tens of microseconds), which a per-request
/// ranking must not pay on every call.
pub fn resolve_threads(threads: usize, jobs: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let threads = if threads == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        threads
    };
    threads.min(jobs).max(1)
}

/// Runs `work(i)` for every `i in 0..jobs` across `threads` scoped
/// workers and returns the results in index order.
///
/// `threads = 0` selects the machine's available parallelism. The output
/// is byte-for-byte independent of the thread count: parallelism only
/// changes which worker computes a job, never the merged order.
///
/// # Panics
/// Propagates a panic if any worker job panics.
pub fn run_indexed<T, F>(jobs: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, jobs);
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(work).collect();
    }

    let next = AtomicUsize::new(0);
    let partials: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        out.push((i, work(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    for partial in partials {
        for (i, value) in partial {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_for_any_thread_count() {
        let reference = run_indexed(37, 1, |i| (i, i as f64 * 1.5));
        for threads in [0, 2, 3, 8, 64] {
            assert_eq!(run_indexed(37, threads, |i| (i, i as f64 * 1.5)), reference);
        }
    }

    #[test]
    fn zero_jobs_yields_empty() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(5, 0), 1);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panics_propagate() {
        let _ = run_indexed(8, 2, |i| {
            if i == 5 {
                panic!("job 5 exploded");
            }
            i
        });
    }
}
