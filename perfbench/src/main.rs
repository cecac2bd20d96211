//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank-large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates a seeded scene corpus, sets the serving stack up
//! several times (preprocess, sharded snapshot write, open, start on
//! real sockets, concept warm-up), drives it with at most `nproc`
//! keep-alive clients, checks sampled pages bit for bit against
//! in-process references, and prints every metric by name with its
//! unit. The last stdout line is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run (spans recorded from this benchmark's own code around the
//! layers' public calls) together with the layer ledger.

mod corpus;
mod drive;
mod layers;
mod phases;
mod setup;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::path::Path;

use corpus::{Kind, Workload};
use phases::{Phases, Target};
use setup::{SetupTimes, Stack};
use stats::{median, share};
use trace::Recorder;
use traced::Metric;

/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Example sets in the feedback workload's fixed session pool: more than
/// a run completes on a 2-core box.
const SESSION_POOL: usize = 64;

/// The corpus seed unless `--corpus-seed` names another: the images and
/// concept set stay fixed while `--seed` varies the request stream.
const DEFAULT_CORPUS_SEED: u64 = 2000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied();
    let num = |name: &str| -> Result<Option<f64>, String> {
        get(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("{name}: not a number: {v}"))
            })
            .transpose()
    };
    for flag in flags.keys() {
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--corpus-seed",
        ]
        .contains(flag)
        {
            return Err(format!("unknown flag {flag}"));
        }
    }
    let int = |name: &str, default: u64| -> Result<u64, String> {
        get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name}: not an integer: {v}"))
        })
    };
    let seconds = num("--seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: int("--seed", 1)?,
        seconds,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        corpus_seed: int("--corpus-seed", DEFAULT_CORPUS_SEED)?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 [--corpus-seed N]",
                corpus::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(args.trace);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("{note}");
        }
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for (name, value, unit) in metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        let body = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w =
        corpus::workload(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let run_dir = setup::scratch_dir(w.name, args.seed);
    std::fs::remove_dir_all(&run_dir).ok();
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = measure(args, &w, &run_dir);
    std::fs::remove_dir_all(&run_dir).ok();
    result
}

/// The host facts recorded with every run.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "host: nproc={nproc} avx2_dispatch={avx2} RUSTFLAGS={:?}",
        std::env::var("RUSTFLAGS").unwrap_or_default()
    )
}

fn measure(args: &Args, w: &Workload, run_dir: &Path) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = w.clients.min(nproc);
    let mut notes = vec![
        host_record(),
        format!(
            "run: workload={} seed={} corpus_seed={} seconds={} trace={} clients={clients}",
            w.name, args.seed, args.corpus_seed, args.seconds, args.trace as u8
        ),
    ];
    eprintln!("perfbench: generating the {} corpus ...", w.name);
    let mut images = Some(corpus::images(w, args.corpus_seed));
    let labels: Vec<usize> = images.iter().flatten().map(|(_, l)| *l).collect();
    let categories = labels.iter().copied().max().unwrap_or(0) + 1;
    let concepts = corpus::concept_set(&labels, categories, args.corpus_seed);
    let targets: Vec<String> = concepts.iter().map(|e| e.query(w.kind.route())).collect();
    let warm: &[String] = if w.kind == Kind::Feedback {
        &[]
    } else {
        &targets
    };

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut serving = None;
    for rep in 0..SETUP_REPS {
        eprintln!("perfbench: set-up {}/{SETUP_REPS} ...", rep + 1);
        let dir = run_dir.join(format!("setup-{rep}"));
        let last = rep + 1 == SETUP_REPS;
        let batch = if last { images.take() } else { images.clone() }.expect("corpus");
        let (stack, db, times) = setup::setup(w, batch, &dir, warm)?;
        setups.push(times);
        if last {
            serving = Some((stack, db, dir));
        } else {
            stack.stop();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let (stack, db, dir) = serving.expect("at least one set-up");
    let target = Target {
        workload: w,
        addr: stack.addr(),
        clients,
        seconds: args.seconds,
        seed: args.seed,
        rate: w.rate,
        targets: &targets,
    };
    let result = serve(
        args,
        w,
        &stack,
        &db,
        &dir.join("snapshot"),
        &concepts,
        &target,
    );
    stack.stop();
    let (ph, correct, per_layer) = result?;
    notes.extend(ph.notes.iter().cloned());

    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let setup_s = med(SetupTimes::total_s);
    notes.push(format!(
        "setup: {} set-ups of {:?} s, median {setup_s:.3} s (corpus generation excluded)",
        setups.len(),
        setups
            .iter()
            .map(|s| (s.total_s() * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    // The tail and the closed-loop throughput are printed, not gated: on
    // a shared 2-core machine they swing with the neighbours' load from
    // run to run (STEADINESS.md).
    let pooled = ph.windows.iter().map(Vec::len).sum::<usize>();
    let beyond = stats::beyond(pooled, w.tail_q);
    notes.push(format!(
        "latency ms: p50 {:.3} (median of {} windows); all windows pooled: p{} {:.3} \
         ({beyond} of {pooled} samples beyond), max {:.3}",
        ph.latency(0.5),
        ph.windows.len(),
        w.tail_q * 100.0,
        ph.latency_pooled(w.tail_q),
        ph.latency_pooled(1.0)
    ));
    notes.push(format!(
        "throughput_rps (not gated) {:.3}: closed loop, median of {} windows",
        ph.throughput,
        ph.windows.len()
    ));
    let o = &ph.outcome;
    notes.push(format!(
        "failed_share {:.6}: {} failed of {} attempted ({} degraded cluster pages)",
        share(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted,
        o.partial
    ));
    let instances: usize = (0..db.len())
        .map(|i| db.bag(i).map_or(0, |b| b.len()))
        .sum();
    let answered = (o.cache_hits + o.trained) as f64;
    let hit_share = share(o.cache_hits as f64, answered);
    let cold_share = share((o.trained - o.warm) as f64, o.trained as f64);
    notes.push(format!(
        "property: cache_hit_share {hit_share:.4}, cold_round_share {cold_share:.4} \
         ({} trained, {} warm-started), {instances} instances",
        o.trained, o.warm
    ));

    let end_to_end = vec![
        ("setup_s", setup_s, "s"),
        ("latency_p50_ms", ph.latency(0.5), "ms"),
        ("precision_at_16", ph.precision, "share"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let snapshot_bytes = setups.last().map_or(0.0, |s| s.snapshot_bytes as f64);
    let mut layers = vec![
        (
            "core.preprocess_ms_per_image",
            med(|s| s.preprocess_s) * 1e3 / db.len() as f64,
            "ms",
        ),
        ("store.write_s", med(|s| s.write_s), "s"),
        ("store.open_s", med(|s| s.open_s), "s"),
        (
            "store.bytes_per_instance",
            snapshot_bytes / instances.max(1) as f64,
            "B",
        ),
        ("serve.cache_hit_share", hit_share, "share"),
        ("optim.cold_round_share", cold_share, "share"),
    ];
    layers.extend(per_layer);
    Ok(Report {
        correct,
        attempted: o.attempted,
        failed: o.failed,
        end_to_end,
        per_layer: layers,
        notes,
    })
}

/// The timed phases, the correctness checks and, in a traced run, the
/// layer ledger and probes.
fn serve(
    args: &Args,
    w: &Workload,
    stack: &Stack,
    db: &milr_core::RetrievalDatabase,
    snapshot: &Path,
    concepts: &[corpus::Examples],
    target: &Target<'_>,
) -> Result<(Phases, bool, Vec<Metric>), String> {
    let config = setup::retrieval_config();
    let rec = Recorder::new(args.trace);
    // The traced run also trains each reference concept one warm round.
    let (mut ph, correct, refs) = match w.kind {
        Kind::Rank | Kind::Cluster => {
            let (mut ph, kept) = phases::rank(target, &rec);
            eprintln!("perfbench: checking sampled pages ...");
            let refs = phases::references(db, &config, concepts, args.trace)?;
            let correct = phases::check_pages(&kept, &refs, db.labels(), &mut ph)?;
            (ph, correct, Some(refs))
        }
        Kind::Feedback => {
            // The fixed concept set doubles as the quality sessions.
            let pool = corpus::session_pool(
                db.labels(),
                db.category_count(),
                args.corpus_seed,
                SESSION_POOL,
                concepts,
            );
            let mut ph = phases::feedback(
                target,
                db.labels(),
                db.category_count(),
                pool,
                concepts,
                &rec,
            );
            eprintln!("perfbench: quality sessions and replays ...");
            let correct = phases::check_sessions(target, db, &config, concepts, &mut ph)?;
            (ph, correct, None)
        }
    };
    if !args.trace {
        return Ok((ph, correct, Vec::new()));
    }
    let refs = match refs {
        Some(refs) => refs,
        None => phases::references(db, &config, concepts, true)?,
    };
    let cx = traced::Context {
        workload: w,
        stack,
        db,
        snapshot,
        config: &config,
        refs: &refs,
        clients: target.clients,
        seed: args.seed,
        rate: target.rate,
    };
    let mut notes = Vec::new();
    let (per_layer, layers_correct) = traced::layers(&cx, &ph, &rec, &mut notes)?;
    let path = Path::new(".bench_out").join(format!("trace-{}-seed{}.json", w.name, args.seed));
    rec.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "spans: {} written to {}",
        rec.spans().len(),
        path.display()
    ));
    ph.notes.append(&mut notes);
    Ok((ph, correct && layers_correct, per_layer))
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
