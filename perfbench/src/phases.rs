//! The timed phases of a run and the correctness checks on what they
//! returned.

use std::net::SocketAddr;
use std::time::Duration;

use milr_core::{RetrievalConfig, RetrievalDatabase};
use milr_serve::Json;

use crate::corpus::{Examples, Kind, Loop, Workload};
use crate::drive::{self, number, Outcome, SessionLog};
use crate::layers::{self, Reference};
use crate::stats::{median, quantile, share, sorted};
use crate::trace::Recorder;

/// Sampled wire pages checked per phase.
const CHECKED_PAGES: f64 = 32.0;

/// Timed feedback sessions replayed in-process.
const CHECKED_SESSIONS: usize = 2;

/// What the timed phases measured.
#[derive(Default)]
pub struct Phases {
    /// Every timed request.
    pub outcome: Outcome,
    /// Per measurement window, the latencies the end-to-end percentiles
    /// are taken over: requests of the workload's latency loop, or whole
    /// sessions for the feedback workload.
    pub windows: Vec<Vec<f64>>,
    /// Median over the windows of the closed-loop throughput.
    pub throughput: f64,
    pub precision: f64,
    /// Closed-loop latencies without and with tracing.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub late_ms_p99: f64,
    /// Traced open-loop requests and the concept each asked for.
    pub tagged: Vec<(u64, usize)>,
    pub timed_sessions: Vec<SessionLog>,
    pub traced_sessions: Vec<SessionLog>,
    /// `/metrics` before and after the closed-loop phases.
    pub before: Scrape,
    pub after: Scrape,
    pub notes: Vec<String>,
}

impl Phases {
    /// The median over the windows of each window's `q` quantile, so a
    /// slow spell of a shared machine spoils one window, not the run.
    pub fn latency(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| quantile(&sorted(w.clone()), q))
            .collect();
        median(&per_window)
    }

    /// The `q` quantile of all windows' latencies pooled, for tails a
    /// single window holds too few samples for.
    pub fn latency_pooled(&self, q: f64) -> f64 {
        quantile(&sorted(self.windows.concat()), q)
    }
}

/// A `/metrics` snapshot.
#[derive(Default)]
pub struct Scrape(pub Option<Json>);

impl Scrape {
    pub fn take(addr: SocketAddr) -> Self {
        Scrape(Some(drive::scrape(addr)))
    }

    pub fn get(&self, path: &[&str]) -> f64 {
        self.0.as_ref().map_or(0.0, |j| number(j, path))
    }

    /// The daemon's own median handling time of its busiest endpoint.
    /// The daemon starts that clock before reading the request, so on a
    /// keep-alive connection it includes the wait for the request.
    pub fn busiest_p50_us(&self) -> f64 {
        let Some(Json::Obj(endpoints)) = self.0.as_ref().and_then(|j| j.get("endpoints")) else {
            return 0.0;
        };
        endpoints
            .iter()
            .filter(|(name, _)| name != "/metrics")
            .max_by(|a, b| number(&a.1, &["requests"]).total_cmp(&number(&b.1, &["requests"])))
            .map_or(0.0, |(_, e)| number(e, &["latency", "p50_us"]))
    }
}

/// Everything a phase needs to reach the stack and build requests.
pub struct Target<'a> {
    pub workload: &'a Workload,
    pub addr: SocketAddr,
    pub clients: usize,
    pub seconds: f64,
    pub seed: u64,
    pub rate: f64,
    pub targets: &'a [String],
}

/// Rank workloads. An untraced run alternates closed loops (capacity)
/// and open loops at the frozen rate over the workload's windows, so a
/// slow spell of the machine spoils one window, not the run; the
/// workload's latency loop supplies the latency percentiles. A traced
/// run splits its time into an untraced closed loop, a traced closed
/// loop (their difference is the tracing overhead) and a traced open
/// loop.
pub fn rank(t: &Target<'_>, rec: &Recorder) -> (Phases, Vec<(usize, Vec<u8>)>) {
    let off = Recorder::new(false);
    let keep_every = ((t.rate * t.seconds / 2.0 / CHECKED_PAGES) as u64).max(1);
    let mut ph = Phases {
        before: Scrape::take(t.addr),
        ..Phases::default()
    };
    let mut throughputs = Vec::new();
    let mut late = Vec::new();
    let mut open_ms = Vec::new();
    if rec.enabled() {
        let part = Duration::from_secs_f64(t.seconds / 3.0);
        eprintln!("perfbench: closed loop, then traced closed and open loops ...");
        let closed =
            drive::closed_rank(t.addr, t.clients, part, t.targets, t.seed, keep_every, &off);
        let traced = drive::closed_rank(
            t.addr,
            t.clients,
            part,
            t.targets,
            t.seed ^ 1,
            keep_every,
            rec,
        );
        ph.after = Scrape::take(t.addr);
        let open = drive::open_rank(
            t.addr, t.clients, t.rate, part, t.targets, t.seed, keep_every, rec,
        );
        throughputs.push(share(closed.completed() as f64, closed.elapsed_s));
        late.extend(open.late_ms.iter().copied());
        ph.untraced_ms = closed.latencies_ms.clone();
        ph.traced_ms = traced.latencies_ms.clone();
        open_ms = open.latencies_ms.clone();
        ph.windows.push(open.latencies_ms.clone());
        // The ledger replays open-loop requests: at this rate they meet
        // little queueing, so their time is the layers' own.
        ph.tagged = open.tagged.clone();
        for part in [closed, traced, open] {
            ph.outcome.absorb(part);
        }
    } else {
        let windows = t.workload.windows;
        let part = Duration::from_secs_f64(t.seconds / 2.0 / windows as f64);
        for k in 0..windows as u64 {
            eprintln!(
                "perfbench: window {}/{windows}: closed loop, then open loop at {}/s ...",
                k + 1,
                t.rate
            );
            let seed = t.seed.wrapping_add(k * 7919);
            let closed =
                drive::closed_rank(t.addr, t.clients, part, t.targets, seed, keep_every, &off);
            let open = drive::open_rank(
                t.addr, t.clients, t.rate, part, t.targets, seed, keep_every, &off,
            );
            throughputs.push(share(closed.completed() as f64, closed.elapsed_s));
            late.extend(open.late_ms.iter().copied());
            ph.untraced_ms.extend(closed.latencies_ms.iter().copied());
            open_ms.extend(open.latencies_ms.iter().copied());
            ph.windows.push(match t.workload.latency_loop {
                Loop::Open => open.latencies_ms.clone(),
                Loop::Closed => closed.latencies_ms.clone(),
            });
            ph.outcome.absorb(closed);
            ph.outcome.absorb(open);
        }
        ph.after = Scrape::take(t.addr);
    }
    ph.throughput = median(&throughputs);
    ph.late_ms_p99 = quantile(&sorted(late), 0.99);
    ph.notes.push(format!(
        "phases: {} windows; closed loop: {:?} requests/s per window, p50 {:.3} ms; \
         open loop at {}/s: p50 {:.3} ms, {} of {} answered",
        throughputs.len(),
        throughputs.iter().map(|x| x.round()).collect::<Vec<_>>(),
        quantile(&sorted(ph.untraced_ms.clone()), 0.5),
        t.rate,
        quantile(&sorted(open_ms.clone()), 0.5),
        open_ms.len(),
        (t.rate * t.seconds / if rec.enabled() { 3.0 } else { 2.0 }).round()
    ));
    let kept = std::mem::take(&mut ph.outcome.kept);
    (ph, kept)
}

/// The feedback workload: closed-loop users, untraced and, in a traced
/// run, traced for half the time each. Timed sessions never use a
/// `quality` example set, which [`check_sessions`] runs afterwards.
pub fn feedback(
    t: &Target<'_>,
    labels: &[usize],
    categories: usize,
    pool: Vec<Examples>,
    quality: &[Examples],
    rec: &Recorder,
) -> Phases {
    let off = Recorder::new(false);
    let source = drive::SessionSource::new(pool, t.seed, labels, categories, quality);
    let part = Duration::from_secs_f64(t.seconds * if rec.enabled() { 0.5 } else { 1.0 });
    let mut ph = Phases {
        before: Scrape::take(t.addr),
        ..Phases::default()
    };
    eprintln!("perfbench: {} feedback users ...", t.clients);
    let (first, sessions) = drive::feedback(t.addr, t.clients, part, &source, &off);
    let traced = rec
        .enabled()
        .then(|| drive::feedback(t.addr, t.clients, part, &source, rec));
    ph.after = Scrape::take(t.addr);
    ph.throughput = share(first.completed() as f64, first.elapsed_s);
    // A feedback user waits for the refined page, not for one round:
    // the latency percentiles are over whole sessions, from create to
    // the last round's page.
    ph.windows = vec![sessions.iter().map(|s| s.wall_s * 1e3).collect()];
    ph.untraced_ms = first.latencies_ms.clone();
    ph.notes.push(format!(
        "phases: {} sessions, {} requests in {:.3} s",
        sessions.len(),
        first.completed(),
        first.elapsed_s
    ));
    ph.outcome.absorb(first);
    ph.timed_sessions = sessions;
    if let Some((o, s)) = traced {
        ph.traced_ms = o.latencies_ms.clone();
        ph.outcome.absorb(o);
        ph.traced_sessions = s;
    }
    ph
}

/// Sampled rank pages against the in-process reference of their
/// concept; cluster pages are compared with single-node pages. The
/// precision is that of the concept set's verified pages.
pub fn check_pages(
    kept: &[(usize, Vec<u8>)],
    refs: &[Reference],
    labels: &[usize],
    ph: &mut Phases,
) -> Result<bool, String> {
    let mut correct = !kept.is_empty();
    if kept.is_empty() {
        ph.notes
            .push("MISMATCH: no page was sampled, so none was checked".into());
    }
    let mut seen = vec![false; refs.len()];
    for (c, body) in kept {
        let page = drive::parse_page(body)?;
        seen[*c] = true;
        if !layers::same_page(&page, &refs[*c].page) {
            correct = false;
            ph.notes.push(format!(
                "MISMATCH: wire page for {:?} differs from the reference",
                refs[*c].examples
            ));
        }
    }
    let precisions: Vec<f64> = refs
        .iter()
        .map(|r| layers::precision(&r.page, labels, r.examples.target))
        .collect();
    ph.precision = crate::stats::mean(&precisions);
    ph.notes.push(format!(
        "correctness: {} sampled pages checked bit for bit, {} of {} concepts seen",
        kept.len(),
        seen.iter().filter(|&&s| s).count(),
        refs.len()
    ));
    Ok(correct)
}

/// Replays sampled timed sessions in-process, page by page, and runs
/// the fixed quality sessions over the wire: their mean final-page
/// precision is the workload's `precision_at_16`, and each must match
/// its in-process replay.
pub fn check_sessions(
    t: &Target<'_>,
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    quality: &[Examples],
    ph: &mut Phases,
) -> Result<bool, String> {
    let off = Recorder::new(false);
    let timed = &ph.timed_sessions;
    let mut correct = !timed.is_empty();
    if timed.is_empty() {
        ph.notes
            .push("MISMATCH: no session completed, so none was checked".into());
    }
    let step = (timed.len() / CHECKED_SESSIONS).max(1);
    let sampled: Vec<&SessionLog> = timed.iter().step_by(step).take(CHECKED_SESSIONS).collect();
    let quality_logs = drive::fixed_sessions(t.addr, t.clients, quality, db.labels());
    if quality_logs.len() != quality.len() {
        correct = false;
        ph.notes
            .push("MISMATCH: a quality session failed on the wire".into());
    }
    let mut notes = Vec::new();
    let replays = sampled.iter().copied().chain(&quality_logs);
    for log in replays {
        let replay = layers::replay_session(db, config, log, &off)?;
        if !replay.matches {
            correct = false;
            notes.push(format!(
                "MISMATCH: session {:?} diverged from its replay",
                log.examples
            ));
        }
    }
    ph.precision =
        crate::stats::mean(&quality_logs.iter().map(|s| s.precision).collect::<Vec<_>>());
    ph.notes.append(&mut notes);
    ph.notes.push(format!(
        "correctness: {} timed and {} quality sessions replayed page by page",
        sampled.len(),
        quality_logs.len()
    ));
    Ok(correct)
}

/// Concepts of the workload's set, trained in-process.
pub fn references(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    concepts: &[Examples],
    with_warm_round: bool,
) -> Result<Vec<Reference>, String> {
    concepts
        .iter()
        .map(|e| layers::reference(db, config, e, with_warm_round))
        .collect()
}

impl Kind {
    pub fn route(self) -> &'static str {
        match self {
            Kind::Cluster => "/cluster/rank",
            Kind::Rank | Kind::Feedback => "/rank",
        }
    }
}
