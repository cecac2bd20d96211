//! `milrd` — the retrieval daemon.
//!
//! ```text
//! milrd --snapshot db.milr [--addr 127.0.0.1:7878] [--workers N]
//!       [--queue-depth N] [--read-timeout-ms N] [--handle-deadline-ms N]
//!       [--max-body BYTES] [--cache-capacity N] [--session-ttl-s N]
//!       [--session-capacity N] [--page K] [--policy POLICY]
//!       [--watch-snapshot] [--watch-interval-ms N]
//!       [--debug-endpoints] [--drain-on-stdin-eof]
//! ```
//!
//! Loads a snapshot — a monolithic `.milr` file (see `milr preprocess`)
//! or a sharded v3 directory (see `milr shard`) — binds, prints one
//! `milrd listening on ADDR ...` line to stdout (port `0` resolves to
//! the ephemeral port — test harnesses parse this line), and serves
//! until `POST /admin/shutdown` or, with `--drain-on-stdin-eof`, until
//! stdin closes. `POST /snapshot/reload` (or `--watch-snapshot`) swaps
//! in a rewritten snapshot without dropping a single request.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use milr_serve::server::parse_policy;
use milr_serve::{ServeOptions, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         milrd --snapshot DB.milr|SHARD_DIR [--addr HOST:PORT] [--workers N]\n        \
         [--queue-depth N] [--read-timeout-ms N] [--handle-deadline-ms N]\n        \
         [--keepalive-requests N] [--keepalive-burst N] [--keepalive-turn-ms N]\n        \
         [--idle-timeout-ms N] [--priority-shed-fill F]\n        \
         [--warm-train true|false]\n        \
         [--max-body BYTES] [--cache-capacity N] [--session-ttl-s N]\n        \
         [--session-capacity N] [--page K] [--policy POLICY]\n        \
         [--backend gray-block|sbn] [--watch-snapshot] [--watch-interval-ms N]\n        \
         [--debug-endpoints] [--drain-on-stdin-eof]\n\n\
         POLICY: original | identical | alpha:A | constraint:B\n\
         --backend: refuse a snapshot preprocessed with any other feature backend"
    );
}

/// Minimal `--key value` argument scanner (the `milr` CLI idiom).
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(text) => text
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("invalid value {text:?} for {name}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let snapshot = flag(args, "--snapshot").ok_or("--snapshot is required")?;
    let mut options = ServeOptions::default();
    if let Some(addr) = flag(args, "--addr") {
        options.addr = addr;
    }
    if let Some(workers) = parse_flag(args, "--workers")? {
        options.workers = workers;
    }
    if let Some(depth) = parse_flag(args, "--queue-depth")? {
        options.queue_depth = depth;
    }
    if let Some(ms) = parse_flag(args, "--read-timeout-ms")? {
        options.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_flag(args, "--handle-deadline-ms")? {
        options.handle_deadline = Duration::from_millis(ms);
    }
    if let Some(n) = parse_flag(args, "--keepalive-requests")? {
        options.keepalive_requests = n;
    }
    if let Some(n) = parse_flag(args, "--keepalive-burst")? {
        options.keepalive_burst = n;
    }
    if let Some(ms) = parse_flag(args, "--keepalive-turn-ms")? {
        options.keepalive_turn = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_flag(args, "--idle-timeout-ms")? {
        options.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(fill) = parse_flag(args, "--priority-shed-fill")? {
        options.priority_shed_fill = fill;
    }
    if let Some(warm) = parse_flag(args, "--warm-train")? {
        options.warm_train = warm;
    }
    if let Some(bytes) = parse_flag(args, "--max-body")? {
        options.max_body = bytes;
    }
    if let Some(capacity) = parse_flag(args, "--cache-capacity")? {
        options.cache_capacity = capacity;
    }
    if let Some(secs) = parse_flag(args, "--session-ttl-s")? {
        options.session_ttl = Duration::from_secs(secs);
    }
    if let Some(capacity) = parse_flag(args, "--session-capacity")? {
        options.session_capacity = capacity;
    }
    if let Some(page) = parse_flag(args, "--page")? {
        options.default_page = page;
    }
    if let Some(spec) = flag(args, "--policy") {
        options.retrieval.policy = parse_policy(&spec)?;
    }
    options.backend = flag(args, "--backend");
    options.debug_endpoints = switch(args, "--debug-endpoints");
    options.watch_snapshot = switch(args, "--watch-snapshot");
    if let Some(ms) = parse_flag(args, "--watch-interval-ms")? {
        options.watch_interval = Duration::from_millis(ms);
    }

    // One solver/ranker thread per request: the daemon's parallelism is
    // across requests, not within them (results are identical either
    // way — a PR 1 invariant).
    options.retrieval.threads = 1;

    let loaded = match options.backend.as_deref() {
        Some(expected) => {
            milr_store::load_snapshot_expecting(&snapshot, expected).map_err(|e| e.to_string())?
        }
        None => milr_store::load_snapshot(&snapshot).map_err(|e| e.to_string())?,
    };
    options.snapshot_path = Some(snapshot.clone().into());
    let store = &loaded.store;
    let (images, categories, dim) = (
        store.live_len(),
        store.category_count(),
        store.feature_dim(),
    );
    let (generation, shards, backend_id) = (
        store.generation(),
        store.shard_count(),
        store.backend().id.clone(),
    );

    let server = Server::start_with_snapshot(loaded, options)?;
    println!(
        "milrd listening on {} ({images} images, {categories} categories, dim {dim}, generation {generation}, {shards} shard{}, backend {backend_id})",
        server.local_addr(),
        if shards == 1 { "" } else { "s" }
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    if switch(args, "--drain-on-stdin-eof") {
        // Detached on purpose: if shutdown arrives over HTTP instead,
        // this thread is still parked on stdin and process exit reaps it.
        let addr = server.local_addr();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
            // Stdin closed: drain via the admin endpoint so the acceptor
            // unblocks exactly like an HTTP-initiated shutdown.
            let _ = milr_serve::client::request(
                addr,
                "POST",
                "/admin/shutdown",
                None,
                Duration::from_secs(2),
            );
        });
    }
    server.wait();
    println!("milrd drained");
    Ok(())
}
