//! The traced run: the layer ledger and the per-layer probes.
//!
//! The ledger replays sampled wire requests in-process, one at a time
//! and paced like the wire, through the public calls each layer
//! exposes, and charges each
//! request's client-measured time to the front end (a null request over
//! the same sockets), the replayed layers' busy time, and what is left
//! over: waiting, such as for a CPU another user holds, and work no
//! replayed call covers. Rank requests come from the open loop, which
//! meets little queueing.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Duration;

use milr_cluster::{NodeOptions, Worker, WorkerOptions};
use milr_core::{RetrievalConfig, RetrievalDatabase};
use milr_store::ShardedDatabase;

use crate::corpus::{Kind, Workload};
use crate::drive;
use crate::layers::{self, Leg, Reference, TrainStats};
use crate::phases::Phases;
use crate::setup::Stack;
use crate::stats::{mean, median, quantile, share, sorted};
use crate::trace::{self, Recorder, Span};

/// Wire requests of the traced open loop replayed through the layers.
const REPLAYED_REQUESTS: usize = 64;

/// Traced feedback sessions replayed.
const REPLAYED_SESSIONS: usize = 6;

pub type Metric = (&'static str, f64, &'static str);

/// The ledger's rows, reported as per-layer metrics on every workload
/// (0 where a workload's requests do not pass the layer).
const LEDGER_LAYERS: &[(&str, &str)] = &[
    ("ledger.frontend_us", "serve.frontend"),
    ("ledger.http_parse_us", "serve.http_parse"),
    ("ledger.cache_lookup_us", "serve.cache_lookup"),
    ("ledger.train_us", "optim.train"),
    ("ledger.rank_us", "core.rank"),
    ("ledger.scatter_us", "cluster.scatter"),
    ("ledger.leg_us", "cluster.leg"),
    ("ledger.codec_us", "cluster.codec"),
    ("ledger.gather_us", "cluster.gather"),
    ("ledger.json_encode_us", "serve.json_encode"),
    ("ledger.unattributed_us", "unattributed"),
];

/// Everything the traced run needs from the rest of the run.
pub struct Context<'a> {
    pub workload: &'a Workload,
    pub stack: &'a Stack,
    pub db: &'a RetrievalDatabase,
    pub snapshot: &'a Path,
    pub config: &'a RetrievalConfig,
    pub refs: &'a [Reference],
    pub clients: usize,
    pub seed: u64,
    /// The open-loop rate of the timed phases.
    pub rate: f64,
}

/// The per-layer metrics, the ledger table, and whether every replayed
/// and probed result matched.
pub fn layers(
    cx: &Context<'_>,
    ph: &Phases,
    rec: &Recorder,
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, bool), String> {
    let mut correct = true;
    let addr = cx.stack.addr();
    let kind = cx.workload.kind;

    // The front end's own cost: a null request (`GET /healthz`) through
    // the same accept, read, parse, route and write path, sent the way
    // the workload sends its requests (idle threads wake slower).
    let null_targets = ["/healthz".to_string()];
    let off = Recorder::new(false);
    let null_time = Duration::from_millis(1000);
    let null = if cx.workload.kind == Kind::Feedback {
        drive::closed_rank(
            addr,
            cx.clients,
            null_time,
            &null_targets,
            cx.seed,
            u64::MAX,
            &off,
        )
    } else {
        drive::open_rank(
            addr,
            cx.clients,
            cx.rate,
            null_time,
            &null_targets,
            cx.seed,
            u64::MAX,
            &off,
        )
    };

    eprintln!("perfbench: replaying traced requests ...");
    let legs = cluster_legs(cx.stack);
    let mut leg_us = Vec::new();
    let mut trains: Vec<TrainStats> = Vec::new();
    let replayed: HashSet<u64> = match kind {
        Kind::Rank | Kind::Cluster => {
            let sample: Vec<(u64, usize)> =
                ph.tagged.iter().copied().take(REPLAYED_REQUESTS).collect();
            let route = kind.route();
            let gap = Duration::from_secs_f64(1.0 / cx.rate);
            let r =
                layers::replay_rank(cx.db, cx.config, cx.refs, route, &legs, &sample, gap, rec)?;
            correct &= r.gathered_identical;
            leg_us.extend(r.leg_us);
            sample.iter().map(|&(id, _)| id).collect()
        }
        Kind::Feedback => {
            let logs = &ph.traced_sessions;
            let step = (logs.len() / REPLAYED_SESSIONS).max(1);
            let sample: Vec<&drive::SessionLog> =
                logs.iter().step_by(step).take(REPLAYED_SESSIONS).collect();
            for log in &sample {
                let r = layers::replay_session(cx.db, cx.config, log, rec)?;
                correct &= r.matches;
                trains.extend(r.trains);
            }
            if !correct {
                notes.push("MISMATCH: a traced session diverged from its replay".into());
            }
            sample
                .iter()
                .flat_map(|log| log.request_ids.iter().copied())
                .collect()
        }
    };
    if !correct && kind == Kind::Cluster {
        notes.push("MISMATCH: gathered worker legs differ from the single-node page".into());
    }

    let spans = rec.spans();
    let summary: fn(&[f64]) -> f64 = if kind == Kind::Feedback { mean } else { median };
    let (client_us, ledger) = ledger(&spans, &replayed, summary);
    let frontend_us = summary(&null.latencies_ms) * 1e3;
    let unattributed = client_us - frontend_us - ledger.values().sum::<f64>();
    let row = |name: &str, us: f64| {
        format!(
            "  {name:<22} {us:>12.1} us  {:>6.1}%",
            100.0 * share(us, client_us)
        )
    };
    notes.push(format!(
        "ledger: {} per request over {} replayed wire requests",
        if kind == Kind::Feedback {
            "mean"
        } else {
            "median"
        },
        replayed.len()
    ));
    notes.push(row("client total", client_us));
    notes.push(row("serve.frontend", frontend_us));
    for (name, us) in &ledger {
        notes.push(row(name, *us));
    }
    notes.push(row("unattributed", unattributed));

    let p50 = |v: &[f64]| quantile(&sorted(v.to_vec()), 0.5);
    let traced_mean = mean(&ph.traced_ms);
    let untraced_mean = mean(&ph.untraced_ms);
    let mut out: Vec<Metric> = vec![("ledger.client_us", client_us, "us")];
    for &(name, layer) in LEDGER_LAYERS {
        let us = match layer {
            "serve.frontend" => frontend_us,
            "unattributed" => unattributed,
            span => ledger.get(span).copied().unwrap_or(0.0),
        };
        out.push((name, us, "us"));
    }
    out.extend([
        ("serve.server_us_p50", ph.after.busiest_p50_us(), "us"),
        ("serve.frontend_us_p50", p50(&null.latencies_ms) * 1e3, "us"),
        (
            "serve.http_parse_us",
            span_us(&spans, "serve.http_parse"),
            "us",
        ),
        (
            "serve.json_encode_us",
            span_us(&spans, "serve.json_encode"),
            "us",
        ),
        (
            "serve.batch_size_mean",
            ph.after.get(&["batch", "size_mean"]),
            "count",
        ),
        (
            "serve.keepalive_reuse_share",
            share(
                ph.after.get(&["keepalive_reused_total"])
                    - ph.before.get(&["keepalive_reused_total"]),
                ph.after.get(&["requests_total"]) - ph.before.get(&["requests_total"]),
            ),
            "share",
        ),
        ("serve.queue_peak", ph.after.get(&["queue_peak"]), "count"),
        ("cluster.partial_pages", ph.outcome.partial as f64, "count"),
        (
            "ledger.unattributed_share",
            share(unattributed, client_us),
            "share",
        ),
        (
            "trace.overhead_share",
            share(traced_mean - untraced_mean, untraced_mean),
            "share",
        ),
        ("gen.late_ms_p99", ph.late_ms_p99, "ms"),
    ]);

    // The feedback workload looks concepts up by session example sets;
    // time the lookup of this workload's concept set all the same.
    let lookup_us = if kind == Kind::Feedback {
        let probe = Recorder::new(true);
        let requests: Vec<(u64, usize)> = (0..cx.refs.len()).map(|c| (c as u64 + 1, c)).collect();
        layers::replay_rank(
            cx.db,
            cx.config,
            cx.refs,
            "/rank",
            &[],
            &requests,
            Duration::ZERO,
            &probe,
        )?;
        span_us(&probe.spans(), "serve.cache_lookup")
    } else {
        span_us(&spans, "serve.cache_lookup")
    };
    out.push(("serve.cache_lookup_us", lookup_us, "us"));

    eprintln!("perfbench: ranking A/B ...");
    let (ab, ab_correct) = rank_ab(cx, notes)?;
    correct &= ab_correct;
    out.extend(ab);

    eprintln!("perfbench: scatter legs ...");
    let (cluster, cluster_correct) = cluster_layers(cx, &spans, leg_us, notes)?;
    correct &= cluster_correct;
    out.extend(cluster);

    eprintln!("perfbench: training ...");
    out.extend(training(cx, trains)?);
    Ok((out, correct))
}

/// The scatter legs of a cluster stack: every worker and its generation.
fn cluster_legs(stack: &Stack) -> Vec<Leg> {
    match stack {
        Stack::Cluster { workers, .. } => workers
            .iter()
            .map(|w| Leg {
                addr: w.addr(),
                generation: w.generation(),
            })
            .collect(),
        Stack::Single(_) => Vec::new(),
    }
}

/// The client time of the replayed requests and each layer's time per
/// request (microseconds), summarised by `summary`: the mean where the
/// requests are of unlike kinds (a session's create, cold and warm
/// rounds), the median where they are alike, which a few requests
/// delayed by a busy neighbour cannot move.
fn ledger(
    spans: &[Span],
    replayed: &HashSet<u64>,
    summary: fn(&[f64]) -> f64,
) -> (f64, BTreeMap<&'static str, f64>) {
    let client: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "client.request" && replayed.contains(&s.request))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let mut per_request: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (name, request, ns) in trace::self_times(spans) {
        if name != "replay" && name != "client.request" && replayed.contains(&request) {
            *per_request
                .entry(name)
                .or_default()
                .entry(request)
                .or_default() += ns / 1e3;
        }
    }
    let layers = per_request
        .into_iter()
        .map(|(name, by_request)| {
            // Requests that never reached the layer spent nothing in it.
            let times: Vec<f64> = replayed
                .iter()
                .map(|r| by_request.get(r).copied().unwrap_or(0.0))
                .collect();
            (name, summary(&times))
        })
        .collect();
    (summary(&client), layers)
}

/// Mean duration of one span of `name`, in microseconds.
fn span_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    mean(&d)
}

/// Every ranking path over the workload's concepts, all required to
/// return the reference page bit for bit.
fn rank_ab(cx: &Context<'_>, notes: &mut Vec<String>) -> Result<(Vec<Metric>, bool), String> {
    let store = ShardedDatabase::open(cx.snapshot).map_err(|e| e.to_string())?;
    // About the same probing time at every corpus size.
    let reps = (10_000 / cx.db.len()).clamp(3, 40);
    let ab = layers::rank_ab(cx.db, &store, cx.refs, reps)?;
    let q = |v: &[f64], p: f64| quantile(&sorted(v.to_vec()), p);
    notes.push(format!(
        "ranking A/B over {} concepts x {reps}, p50 us: core top-k {:.1}, core full {:.1}, \
         store {:.1}, store without index {:.1}, naive min-fold {:.1}; bit-identical: {}",
        cx.refs.len(),
        q(&ab.core_topk_us, 0.5),
        q(&ab.core_full_us, 0.5),
        q(&ab.store_us, 0.5),
        q(&ab.store_noindex_us, 0.5),
        q(&ab.naive_us, 0.5),
        ab.identical
    ));
    if !ab.identical {
        notes.push("MISMATCH: the ranking paths disagree".into());
    }
    Ok((
        vec![
            ("core.rank_us_p50", q(&ab.core_topk_us, 0.5), "us"),
            ("core.rank_us_p99", q(&ab.core_topk_us, 0.99), "us"),
            ("core.rank_full_us_p50", q(&ab.core_full_us, 0.5), "us"),
            ("store.rank_us_p50", q(&ab.store_us, 0.5), "us"),
            ("store.rank_us_p99", q(&ab.store_us, 0.99), "us"),
            (
                "store.rank_noindex_us_p50",
                q(&ab.store_noindex_us, 0.5),
                "us",
            ),
            ("naive.rank_us_p50", q(&ab.naive_us, 0.5), "us"),
            ("store.cells_skipped_share", ab.cells_skipped_share, "share"),
            ("core.prune_share", ab.prune_share, "share"),
            ("core.quant_rescore_share", ab.quant_rescore_share, "share"),
        ],
        ab.identical,
    ))
}

/// Leg, codec and gather times: from the ledger replay on the cluster
/// workload, otherwise from scattering to one worker started over this
/// workload's snapshot, outside the ledger.
fn cluster_layers(
    cx: &Context<'_>,
    spans: &[Span],
    mut leg_us: Vec<f64>,
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, bool), String> {
    let mut correct = true;
    let probe = Recorder::new(true);
    let spans: Vec<Span> = if cx.workload.kind == Kind::Cluster {
        spans.to_vec()
    } else {
        let worker = Worker::start(WorkerOptions {
            node: NodeOptions::default(),
            snapshot_dir: cx.snapshot.to_path_buf(),
            worker_index: 0,
            worker_count: 1,
            ..WorkerOptions::default()
        })
        .map_err(|e| e.to_string())?;
        let legs = [Leg {
            addr: worker.addr(),
            generation: worker.generation(),
        }];
        let requests: Vec<(u64, usize)> = (0..REPLAYED_REQUESTS / 2)
            .map(|j| (j as u64 + 1, j % cx.refs.len()))
            .collect();
        let result = layers::replay_rank(
            cx.db,
            cx.config,
            cx.refs,
            "/cluster/rank",
            &legs,
            &requests,
            Duration::ZERO,
            &probe,
        );
        worker.request_shutdown();
        worker.wait();
        let r = result?;
        if !r.gathered_identical {
            correct = false;
            notes.push("MISMATCH: a worker leg differs from the single-node page".into());
        }
        leg_us = r.leg_us;
        probe.spans()
    };
    let legs = spans
        .iter()
        .filter(|s| s.name == "cluster.leg")
        .count()
        .max(1) as f64;
    let codec_us: f64 = spans
        .iter()
        .filter(|s| s.name == "cluster.codec")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .sum();
    let q = |p: f64| quantile(&sorted(leg_us.clone()), p);
    Ok((
        vec![
            ("cluster.leg_us_p50", q(0.5), "us"),
            ("cluster.leg_us_p99", q(0.99), "us"),
            ("cluster.codec_us", codec_us / legs, "us"),
            ("cluster.gather_us", span_us(&spans, "cluster.gather"), "us"),
        ],
        correct,
    ))
}

fn counter(name: &str) -> f64 {
    milr_obs::global().counter(name).get() as f64
}

/// Training metrics over the references' cold and warm rounds plus the
/// replayed sessions' rounds, and one single-threaded cold training for
/// the cost of one objective evaluation.
fn training(cx: &Context<'_>, replayed: Vec<TrainStats>) -> Result<Vec<Metric>, String> {
    let mut all: Vec<TrainStats> = cx.refs.iter().map(|r| r.cold).collect();
    all.extend(cx.refs.iter().filter_map(|r| r.warm));
    all.extend(replayed);
    let cold: Vec<f64> = all.iter().filter(|t| !t.warm).map(|t| t.ms).collect();
    let warm: Vec<f64> = all.iter().filter(|t| t.warm).map(|t| t.ms).collect();
    let starts: f64 = all.iter().map(|t| t.starts as f64).sum();
    let evals: f64 = all.iter().map(|t| t.evaluations as f64).sum();
    let (hits, misses) = (
        counter("milr_dd_memo_hits_total"),
        counter("milr_dd_memo_misses_total"),
    );
    let eval_ns = layers::eval_ns(cx.db, cx.config, &cx.refs[0].examples)?;
    let hits = counter("milr_dd_memo_hits_total") - hits;
    let misses = counter("milr_dd_memo_misses_total") - misses;
    Ok(vec![
        ("optim.train_cold_ms_p50", median(&cold), "ms"),
        ("optim.train_warm_ms_p50", median(&warm), "ms"),
        (
            "optim.starts_per_train",
            share(starts, all.len() as f64),
            "count",
        ),
        ("mil.evals_per_start", share(evals, starts), "count"),
        ("mil.eval_ns", eval_ns, "ns"),
        ("mil.memo_hit_share", share(hits, hits + misses), "share"),
    ])
}
