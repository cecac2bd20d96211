//! Workload definitions and their seeded inputs.
//!
//! The corpus seed fixes the images and the concept set a workload
//! serves; the request-stream seed (`--seed`) fixes the order of
//! requests and the feedback users' examples. The program sees only the
//! generated images and the requests.

use milr_imgproc::GrayImage;

use crate::stats::Rng;

/// Ranked page size of every request.
pub const PAGE: usize = 16;

/// Concepts warmed during set-up and rotated by the rank workloads.
pub const CONCEPTS: usize = 8;

/// Independently seeded halves of every corpus, generated in parallel.
/// Fixed, so the corpus does not depend on the machine's core count.
const CORPUS_PARTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /rank` over warmed concepts on a single-node daemon.
    Rank,
    /// Relevance-feedback sessions (§4.1 of the paper) on a single node.
    Feedback,
    /// `GET /cluster/rank` through a coordinator and two workers.
    Cluster,
}

/// Which of a rank workload's loops `latency_p50_ms` is taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// The open loop at the frozen rate, timed from each due time.
    Open,
    /// The closed loop. Sub-millisecond requests at a low fixed rate
    /// mostly time how fast the host wakes idle threads, which swings
    /// with the neighbours' load on a shared machine; back to back, the
    /// threads stay awake and the median stays put.
    Closed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Scene images per category (five categories).
    pub per_category: usize,
    /// Bags per snapshot shard.
    pub shard_capacity: usize,
    /// Open-loop arrival rate in requests/s, frozen at a seventh to a quarter
    /// of the closed-loop capacity measured on a 2-core x86-64 box, so a
    /// slow spell of a shared machine does not tip the queue over;
    /// unused by the closed-loop `feedback` workload.
    pub rate: f64,
    /// The loop the gated median latency comes from.
    pub latency_loop: Loop,
    /// Measurement windows of an untraced run. The run reports the
    /// median over the windows of each one's throughput and percentiles.
    pub windows: usize,
    /// The fixed tail percentile printed with every run, over all
    /// windows' samples: at least ten lie beyond it at the workload's rate.
    pub tail_q: f64,
    /// Keep-alive client threads, one connection each, at most `nproc`.
    pub clients: usize,
}

pub const WORKLOADS: &[Workload] = &[
    // Ranking dominates: ~100k instances, every request a cache hit.
    Workload {
        name: "rank-large",
        kind: Kind::Rank,
        per_category: 500,
        shard_capacity: 256,
        rate: 40.0,
        latency_loop: Loop::Open,
        windows: 5,
        tail_q: 0.95,
        clients: 2,
    },
    // DD training dominates: cold first rounds, warm refinements.
    Workload {
        name: "feedback",
        kind: Kind::Feedback,
        per_category: 100,
        shard_capacity: 256,
        rate: 0.0,
        latency_loop: Loop::Closed,
        windows: 1,
        tail_q: 0.80,
        clients: 2,
    },
    // The HTTP front end is a large share of each request: ranking
    // 100 images takes ~0.2 ms.
    Workload {
        name: "cached-small",
        kind: Kind::Rank,
        per_category: 20,
        shard_capacity: 256,
        rate: 600.0,
        latency_loop: Loop::Closed,
        windows: 5,
        tail_q: 0.99,
        // One client: each request uses both cores, so a second client
        // back to back would mostly wait for the cores the first holds.
        clients: 1,
    },
    // Scatter legs, the worker protocol codec and the gather dominate.
    Workload {
        name: "cluster",
        kind: Kind::Cluster,
        per_category: 100,
        shard_capacity: 125,
        rate: 200.0,
        latency_loop: Loop::Closed,
        windows: 5,
        tail_q: 0.99,
        // One client: each request uses both cores, so a second client
        // back to back would mostly wait for the cores the first holds.
        clients: 1,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The labelled gray images of a workload's scene corpus.
pub fn images(workload: &Workload, corpus_seed: u64) -> Vec<(GrayImage, usize)> {
    assert!(workload.per_category.is_multiple_of(CORPUS_PARTS));
    let per_part = workload.per_category / CORPUS_PARTS;
    std::thread::scope(|scope| {
        let parts: Vec<_> = (0..CORPUS_PARTS as u64)
            .map(|part| {
                scope.spawn(move || {
                    milr_synth::SceneDatabase::builder()
                        .images_per_category(per_part)
                        .seed(corpus_seed.wrapping_add(part))
                        .build()
                        .gray_images()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("corpus generator thread"))
            .collect()
    })
}

/// One example configuration: the target category, its positive
/// examples and the negatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Examples {
    pub target: usize,
    pub positives: Vec<usize>,
    pub negatives: Vec<usize>,
}

impl Examples {
    pub fn query(&self, route: &str) -> String {
        format!(
            "{route}?positives={}&negatives={}&k={PAGE}",
            join(&self.positives),
            join(&self.negatives)
        )
    }
}

pub fn join(indices: &[usize]) -> String {
    indices
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Two positives from the target category and one negative from
/// another, the shape of the daemon's cold `/rank` and session examples.
pub fn draw_examples(rng: &mut Rng, labels: &[usize], categories: usize) -> Examples {
    let target = rng.below(categories);
    let members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == target).collect();
    let others: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] != target).collect();
    let a = members[rng.below(members.len())];
    let mut b = a;
    while b == a {
        b = members[rng.below(members.len())];
    }
    let mut positives = vec![a, b];
    positives.sort_unstable();
    Examples {
        target,
        positives,
        negatives: vec![others[rng.below(others.len())]],
    }
}

/// The workload's fixed concept set: a function of the corpus alone,
/// one concept per category before any category repeats.
pub fn concept_set(labels: &[usize], categories: usize, corpus_seed: u64) -> Vec<Examples> {
    let mut rng = Rng::new(corpus_seed ^ 0xC0C0);
    let mut set: Vec<Examples> = Vec::new();
    while set.len() < CONCEPTS {
        let e = draw_examples(&mut rng, labels, categories);
        if e.target == set.len() % categories && !set.contains(&e) {
            set.push(e);
        }
    }
    set
}

/// Example sets for feedback sessions: `size` distinct positive pairs,
/// none shared with `reserved`.
pub fn session_pool(
    labels: &[usize],
    categories: usize,
    corpus_seed: u64,
    size: usize,
    reserved: &[Examples],
) -> Vec<Examples> {
    let mut rng = Rng::new(corpus_seed ^ 0x5E55);
    let mut pool: Vec<Examples> = Vec::new();
    while pool.len() < size {
        let e = draw_examples(&mut rng, labels, categories);
        if !pool
            .iter()
            .chain(reserved)
            .any(|p| p.positives == e.positives)
        {
            pool.push(e);
        }
    }
    pool
}
