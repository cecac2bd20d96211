//! Cross-request rank combining: a flat-combining dispatcher.
//!
//! Concurrent `/rank` requests are ranked by whichever thread first
//! takes the `executing` lock, so a solo request pays **zero** added
//! latency and concurrent ones never contend inside the engine:
//!
//! * every arrival enqueues its query, then takes (or waits for) the
//!   `executing` lock;
//! * the first thread through the lock drains *everything* queued behind
//!   it — including queries that piled up while a previous combiner was
//!   ranking — and runs one [`ShardedDatabase::rank_live`] per drained
//!   query, each on the store of the epoch it arrived against and under
//!   its own request (aggregator, page size);
//! * threads that find their slot already filled when they acquire the
//!   lock were combined by someone else and return immediately.
//!
//! Every query is ranked on its own, so each page is bit-identical to a
//! direct `rank_live` call by construction. Measured drains hold ~1
//! query on every served workload, so a multi-query store traversal
//! would buy nothing; one drain is recorded as one batch.

use std::sync::{Arc, Condvar, Mutex};

use milr_core::{CoreError, RankRequest, Ranking};
use milr_mil::Concept;
use milr_store::ShardedDatabase;

use crate::metrics::Metrics;

/// The rendezvous slot one waiting request parks on.
struct Slot {
    result: Mutex<Option<Result<Ranking, CoreError>>>,
    filled: Condvar,
}

/// One queued rank query: what to rank, where, how, and who is waiting.
struct PendingRank {
    store: Arc<ShardedDatabase>,
    concept: Arc<Concept>,
    request: RankRequest,
    slot: Arc<Slot>,
}

/// The daemon-wide rank combiner. See the module docs for the protocol.
#[derive(Default)]
pub struct RankBatcher {
    pending: Mutex<Vec<PendingRank>>,
    executing: Mutex<()>,
}

impl RankBatcher {
    /// Creates an empty batcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ranks `concept` over `store` under `request`, in the store's live
    /// index space, combining with any concurrent callers. Blocks until
    /// the result is available; bit-identical to
    /// `store.rank_live(&concept, &request)`.
    ///
    /// # Errors
    /// Whatever the underlying ranking call reports.
    pub fn rank(
        &self,
        store: Arc<ShardedDatabase>,
        concept: Arc<Concept>,
        request: RankRequest,
        metrics: &Metrics,
    ) -> Result<Ranking, CoreError> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            filled: Condvar::new(),
        });
        self.pending
            .lock()
            .expect("batch pending mutex")
            .push(PendingRank {
                store,
                concept,
                request,
                slot: Arc::clone(&slot),
            });
        {
            // Whoever holds this lock is the combiner; everyone else
            // queues behind it, and their queries are drained by it.
            let _combine = self.executing.lock().expect("batch executing mutex");
            let mut result = slot.result.lock().expect("batch slot mutex");
            if result.is_none() {
                // Not combined by a predecessor — this thread combines.
                drop(result);
                let drained =
                    std::mem::take(&mut *self.pending.lock().expect("batch pending mutex"));
                execute(drained, metrics);
                result = slot.result.lock().expect("batch slot mutex");
            }
            if let Some(outcome) = result.take() {
                return outcome;
            }
        }
        // Extremely defensive: the combiner that drained our entry fills
        // the slot before releasing `executing`, so reaching here means
        // a spurious wake pattern — wait on the condvar until filled.
        let mut result = slot.result.lock().expect("batch slot mutex");
        loop {
            if let Some(outcome) = result.take() {
                return outcome;
            }
            result = slot.filled.wait(result).expect("batch slot mutex");
        }
    }
}

/// Ranks the drained queries one by one, in arrival order, filling each
/// slot as its ranking lands.
fn execute(drained: Vec<PendingRank>, metrics: &Metrics) {
    if drained.is_empty() {
        return;
    }
    metrics.batch_formed_total.inc();
    metrics.batch_size.record(drained.len() as u64);
    for item in drained {
        let outcome = item.store.rank_live(&item.concept, &item.request);
        fill(&item.slot, outcome);
    }
}

fn fill(slot: &Slot, outcome: Result<Ranking, CoreError>) {
    *slot.result.lock().expect("batch slot mutex") = Some(outcome);
    slot.filled.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_core::RetrievalDatabase;
    use milr_mil::{Bag, BagAggregator};

    fn test_store() -> Arc<ShardedDatabase> {
        let bags: Vec<Bag> = (0..12)
            .map(|i| {
                Bag::new(vec![
                    vec![i as f32, (i * 3 % 7) as f32],
                    vec![(i % 5) as f32, (11 - i) as f32],
                ])
                .unwrap()
            })
            .collect();
        let labels = (0..12).map(|i| i % 3).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        Arc::new(ShardedDatabase::in_memory(&db).unwrap())
    }

    fn concept(point: Vec<f64>) -> Arc<Concept> {
        Arc::new(Concept::new(point, vec![1.0, 1.0]))
    }

    fn park(
        batcher: &RankBatcher,
        store: &Arc<ShardedDatabase>,
        request: RankRequest,
    ) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            filled: Condvar::new(),
        });
        batcher.pending.lock().unwrap().push(PendingRank {
            store: Arc::clone(store),
            concept: concept(vec![2.0, 3.0]),
            request,
            slot: Arc::clone(&slot),
        });
        slot
    }

    #[test]
    fn solo_rank_is_a_singleton_batch_with_exact_counters() {
        let store = test_store();
        let batcher = RankBatcher::new();
        let metrics = Metrics::default();
        let request = RankRequest::all().top(4).threads(1);
        let c = concept(vec![2.0, 3.0]);
        let expected = store.rank_live(&c, &request).unwrap();
        let got = batcher
            .rank(Arc::clone(&store), c, request, &metrics)
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(metrics.batch_formed_total.get(), 1);
        let sizes = metrics.batch_size.snapshot();
        assert_eq!(sizes.count(), 1);
        assert_eq!(sizes.max(), 1);
    }

    #[test]
    fn concurrent_ranks_match_sequential_and_batch_counters_balance() {
        let store = test_store();
        let batcher = Arc::new(RankBatcher::new());
        let metrics = Arc::new(Metrics::default());
        let clients = 8usize;
        let barrier = Arc::new(std::sync::Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let store = Arc::clone(&store);
                let batcher = Arc::clone(&batcher);
                let metrics = Arc::clone(&metrics);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let point = concept(vec![c as f64, (c * 2) as f64]);
                    let request = RankRequest::all().top(1 + c % 4).threads(1);
                    let expected = store.rank_live(&point, &request).unwrap();
                    let got = batcher.rank(store, point, request, &metrics).unwrap();
                    assert_eq!(got, expected, "client {c}");
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // However the threads interleaved, every query was ranked in
        // exactly one drain: the recorded sizes sum to the client count.
        let sizes = metrics.batch_size.snapshot();
        assert_eq!(sizes.count(), metrics.batch_formed_total.get());
        assert_eq!(sizes.sum(), clients as u64);
        assert!(metrics.batch_formed_total.get() >= 1);
        assert!(metrics.batch_formed_total.get() <= clients as u64);
    }

    #[test]
    fn one_drain_ranks_each_query_on_its_own_store_and_request() {
        // Queries drained together keep their own epoch (store) and fold:
        // a min-distance page must never be scored by a neighbour's
        // logsumexp, and a reload mid-drain must not mix stores.
        let store_a = test_store();
        let store_b = test_store();
        let batcher = RankBatcher::new();
        let metrics = Metrics::default();
        let mut parked = Vec::new();
        for (store, aggregator) in [
            (&store_a, BagAggregator::LogSumExp),
            (&store_b, BagAggregator::NoisyOr),
        ] {
            let request = RankRequest::all().top(5).threads(1).aggregator(aggregator);
            parked.push((park(&batcher, store, request.clone()), store, request));
        }
        let request = RankRequest::all().top(5).threads(1);
        let c = concept(vec![2.0, 3.0]);
        let min_page = batcher
            .rank(
                Arc::clone(&store_a),
                Arc::clone(&c),
                request.clone(),
                &metrics,
            )
            .unwrap();
        assert_eq!(min_page, store_a.rank_live(&c, &request).unwrap());
        assert_eq!(metrics.batch_formed_total.get(), 1, "one drain");
        assert_eq!(metrics.batch_size.snapshot().max(), 3);
        for (slot, store, request) in parked {
            let combined = slot.result.lock().unwrap().take().unwrap().unwrap();
            assert_eq!(combined, store.rank_live(&c, &request).unwrap());
            assert_ne!(
                combined
                    .iter()
                    .map(|&(_, d)| d.to_bits())
                    .collect::<Vec<_>>(),
                min_page
                    .iter()
                    .map(|&(_, d)| d.to_bits())
                    .collect::<Vec<_>>(),
                "folds must actually differ for the isolation to mean anything"
            );
        }
    }
}
