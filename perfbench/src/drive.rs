//! Client load over real sockets: closed-loop and open-loop drivers for
//! the rank workloads and closed-loop relevance-feedback users.
//!
//! Every client thread owns one keep-alive [`client::Connection`], and a
//! run uses at most `nproc` of them.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use milr_serve::{client, Json};

use crate::corpus::{draw_examples, Examples, PAGE};
use crate::stats::Rng;
use crate::trace::Recorder;

/// Client-side deadline for one exchange; a slower answer is a failure.
const TIMEOUT: Duration = Duration::from_secs(30);

/// What one phase of load brings home.
#[derive(Default)]
pub struct Outcome {
    /// Per-request latency of successful requests, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Errors, timeouts, non-2xx answers and degraded cluster pages.
    pub failed: u64,
    /// How late the generator sent requests it was free to send (ms).
    pub late_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Sampled successful response bodies, tagged with the concept.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Traced open loops only: the concept each request id asked for.
    pub tagged: Vec<(u64, usize)>,
    /// Degraded (`"partial":true`) cluster pages, also counted failed.
    pub partial: u64,
    /// Successful answers served from the concept cache.
    pub cache_hits: u64,
    /// Successful answers that trained a concept, and how many of those
    /// were warm-started from the session's previous round.
    pub trained: u64,
    pub warm: u64,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_ms.extend(other.late_ms);
        self.kept.extend(other.kept);
        self.tagged.extend(other.tagged);
        self.partial += other.partial;
        self.cache_hits += other.cache_hits;
        self.trained += other.trained;
        self.warm += other.warm;
    }

    /// Classifies one answer and returns whether it succeeded.
    fn tally(&mut self, result: &Result<Vec<u8>, Failure>) -> bool {
        self.attempted += 1;
        match result {
            Ok(body) => {
                if contains(body, b"\"cache_hit\":true") {
                    self.cache_hits += 1;
                } else if contains(body, b"\"cache_hit\":false") {
                    self.trained += 1;
                    if contains(body, b"\"warm\":true") {
                        self.warm += 1;
                    }
                }
                true
            }
            Err(failure) => {
                self.failed += 1;
                if *failure == Failure::Partial {
                    self.partial += 1;
                }
                false
            }
        }
    }

    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// An error, a timeout or a non-2xx status.
    Failed,
    /// A degraded cluster page: every worker is healthy, so it is wrong.
    Partial,
}

/// Sends one request; `Ok(body)` only for a 2xx answer that is not a
/// degraded (`"partial":true`) cluster page.
fn exchange(
    conn: &mut client::Connection,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> Result<Vec<u8>, Failure> {
    match conn.request(method, target, body) {
        Ok(response) if (200..300).contains(&response.status) => {
            if contains(&response.body, b"\"partial\":true") {
                Err(Failure::Partial)
            } else {
                Ok(response.body)
            }
        }
        Ok(_) => Err(Failure::Failed),
        Err(_) => {
            conn.reset();
            Err(Failure::Failed)
        }
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Request ids unique across the run's phases.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// Closed loop: each client sends its next request as soon as the
/// previous one answers, choosing a concept uniformly from `targets`.
pub fn closed_rank(
    addr: std::net::SocketAddr,
    clients: usize,
    duration: Duration,
    targets: &[String],
    seed: u64,
    keep_every: u64,
    rec: &Recorder,
) -> Outcome {
    let begin = Instant::now();
    let deadline = begin + duration;
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut conn = client::Connection::new(addr, TIMEOUT);
                    let mut out = Outcome::default();
                    while Instant::now() < deadline {
                        let concept = rng.below(targets.len());
                        let id = next_request_id();
                        let start = rec.now_ns();
                        let sent = Instant::now();
                        let result = exchange(&mut conn, "GET", &targets[concept], None);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        rec.record("client.request", id, start, rec.now_ns());
                        if out.tally(&result) {
                            out.latencies_ms.push(ms);
                            if out.attempted % keep_every == 0 {
                                out.kept.push((concept, result.expect("tallied a success")));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop client thread"));
        }
    });
    total.elapsed_s = begin.elapsed().as_secs_f64();
    total
}

/// Open loop at a fixed arrival rate: request `j` is due at
/// `start + j / rate` and goes to client `j mod clients`. Latency runs
/// from the due time, so a stall also charges the requests queued
/// behind it.
#[allow(clippy::too_many_arguments)]
pub fn open_rank(
    addr: std::net::SocketAddr,
    clients: usize,
    rate: f64,
    duration: Duration,
    targets: &[String],
    seed: u64,
    keep_every: u64,
    rec: &Recorder,
) -> Outcome {
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let mut rng = Rng::new(seed.wrapping_mul(37).wrapping_add(1));
    let stream: Vec<usize> = (0..count).map(|_| rng.below(targets.len())).collect();
    let stream = &stream;
    // A short lead so every client is ready before the first due time.
    let begin = Instant::now() + Duration::from_millis(20);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = client::Connection::new(addr, TIMEOUT);
                    let mut out = Outcome::default();
                    let mut free_at = begin;
                    for (j, &concept) in stream.iter().enumerate().skip(c).step_by(clients) {
                        let due = begin + Duration::from_secs_f64(j as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        out.late_ms.push(
                            sent.saturating_duration_since(due.max(free_at))
                                .as_secs_f64()
                                * 1e3,
                        );
                        let id = next_request_id();
                        let start = rec.now_ns();
                        let result = exchange(&mut conn, "GET", &targets[concept], None);
                        free_at = Instant::now();
                        rec.record("client.request", id, start, rec.now_ns());
                        if rec.enabled() {
                            out.tagged.push((id, concept));
                        }
                        if out.tally(&result) {
                            out.latencies_ms
                                .push(free_at.saturating_duration_since(due).as_secs_f64() * 1e3);
                            if out.attempted % keep_every == 0 {
                                out.kept.push((concept, result.expect("tallied a success")));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("open-loop client thread"));
        }
    });
    total.elapsed_s = begin.elapsed().as_secs_f64();
    total
}

/// Sleeps until shortly before `due`, then spins until it passes:
/// sleeping alone overshoots by tens of microseconds, a tenth of a
/// cached-small request.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One relevance-feedback session as the user ran it.
pub struct SessionLog {
    pub examples: Examples,
    /// Negatives promoted before each feedback round (empty for round 1).
    pub marks: Vec<Vec<usize>>,
    /// The page answered by each feedback round.
    pub pages: Vec<Vec<(usize, f64)>>,
    pub wall_s: f64,
    pub precision: f64,
    /// Wire request ids: create, each round, delete.
    pub request_ids: Vec<u64>,
}

/// Feedback rounds per session: one cold round, three warm ones.
pub const ROUNDS: usize = 4;

/// False positives promoted to negatives per round (§4.1).
const PROMOTE: usize = 5;

/// The example sets feedback users open sessions with: a fixed pool in
/// a seeded order, so runs of different seeds share most of their
/// sessions, then fresh seeded draws once the pool runs out. No
/// positive pair is used twice, so no session starts on a cached
/// concept.
pub struct SessionSource<'a> {
    state: Mutex<(Vec<Examples>, Rng, HashSet<Vec<usize>>)>,
    labels: &'a [usize],
    categories: usize,
}

impl<'a> SessionSource<'a> {
    /// `reserved` example sets (the quality sessions) are never handed out.
    pub fn new(
        mut pool: Vec<Examples>,
        seed: u64,
        labels: &'a [usize],
        categories: usize,
        reserved: &[Examples],
    ) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(41));
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.below(i + 1));
        }
        let used: HashSet<Vec<usize>> = reserved
            .iter()
            .chain(&pool)
            .map(|e| e.positives.clone())
            .collect();
        // Popped from the back.
        pool.reverse();
        Self {
            state: Mutex::new((pool, rng, used)),
            labels,
            categories,
        }
    }

    fn next(&self) -> Examples {
        let mut state = self.state.lock().expect("session source mutex");
        let (pool, rng, used) = &mut *state;
        if let Some(e) = pool.pop() {
            return e;
        }
        loop {
            let e = draw_examples(rng, self.labels, self.categories);
            if used.insert(e.positives.clone()) {
                return e;
            }
        }
    }
}

/// Closed-loop feedback users: each opens a session, runs [`ROUNDS`]
/// feedback rounds promoting the page's false positives, and deletes
/// the session, until `duration` has passed.
pub fn feedback(
    addr: std::net::SocketAddr,
    users: usize,
    duration: Duration,
    source: &SessionSource<'_>,
    rec: &Recorder,
) -> (Outcome, Vec<SessionLog>) {
    let begin = Instant::now();
    let deadline = begin + duration;
    let mut total = Outcome::default();
    let mut sessions = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..users)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = client::Connection::new(addr, TIMEOUT);
                    let mut out = Outcome::default();
                    let mut logs = Vec::new();
                    while Instant::now() < deadline {
                        let examples = source.next();
                        if let Some(log) =
                            run_session(&mut conn, &mut out, examples, source.labels, rec)
                        {
                            logs.push(log);
                        }
                    }
                    (out, logs)
                })
            })
            .collect();
        for h in handles {
            let (out, logs) = h.join().expect("feedback user thread");
            total.absorb(out);
            sessions.extend(logs);
        }
    });
    total.elapsed_s = begin.elapsed().as_secs_f64();
    (total, sessions)
}

/// Runs each of `list` once as a feedback session, shared among `users`
/// keep-alive clients; returns the completed sessions in list order.
pub fn fixed_sessions(
    addr: std::net::SocketAddr,
    users: usize,
    list: &[Examples],
    labels: &[usize],
) -> Vec<SessionLog> {
    let next = AtomicU64::new(0);
    let off = Recorder::new(false);
    let mut done: Vec<(usize, SessionLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..users)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = client::Connection::new(addr, TIMEOUT);
                    let mut out = Outcome::default();
                    let mut logs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(examples) = list.get(i) else { break };
                        if let Some(log) =
                            run_session(&mut conn, &mut out, examples.clone(), labels, &off)
                        {
                            logs.push((i, log));
                        }
                    }
                    logs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("quality session thread"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, log)| log).collect()
}

/// One timed request of a session; `None` after a failure.
fn timed(
    conn: &mut client::Connection,
    out: &mut Outcome,
    ids: &mut Vec<u64>,
    rec: &Recorder,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Option<Vec<u8>> {
    let id = next_request_id();
    ids.push(id);
    let start = rec.now_ns();
    let sent = Instant::now();
    let result = exchange(conn, method, target, body.map(str::as_bytes));
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    rec.record("client.request", id, start, rec.now_ns());
    if out.tally(&result) {
        out.latencies_ms.push(ms);
    }
    result.ok()
}

fn run_session(
    conn: &mut client::Connection,
    out: &mut Outcome,
    examples: Examples,
    labels: &[usize],
    rec: &Recorder,
) -> Option<SessionLog> {
    let started = Instant::now();
    let mut ids = Vec::with_capacity(ROUNDS + 2);
    let create = Json::Obj(vec![
        ("positives".into(), Json::indices(&examples.positives)),
        ("negatives".into(), Json::indices(&examples.negatives)),
    ])
    .dump();
    let body = timed(conn, out, &mut ids, rec, "POST", "/sessions", Some(&create))?;
    let id = Json::parse(std::str::from_utf8(&body).ok()?)
        .ok()?
        .get("id")
        .and_then(Json::as_u64)?;
    let target = format!("/sessions/{id}/feedback");
    let mut negatives = examples.negatives.clone();
    let mut marks: Vec<Vec<usize>> = Vec::new();
    let mut pages: Vec<Vec<(usize, f64)>> = Vec::new();
    for round in 0..ROUNDS {
        let promote: Vec<usize> = match pages.last() {
            None => Vec::new(),
            Some(page) => page
                .iter()
                .map(|&(i, _)| i)
                .filter(|&i| labels[i] != examples.target && !negatives.contains(&i))
                .take(PROMOTE)
                .collect(),
        };
        negatives.extend(&promote);
        let mut fields = vec![("k".to_string(), Json::num(PAGE as f64))];
        if round > 0 {
            fields.push(("negatives".into(), Json::indices(&promote)));
        }
        marks.push(promote);
        let body = timed(
            conn,
            out,
            &mut ids,
            rec,
            "POST",
            &target,
            Some(&Json::Obj(fields).dump()),
        )?;
        pages.push(parse_page(&body).ok()?);
    }
    let wall_s = started.elapsed().as_secs_f64();
    timed(
        conn,
        out,
        &mut ids,
        rec,
        "DELETE",
        &format!("/sessions/{id}"),
        None,
    )?;
    let last = pages.last().expect("at least one round");
    let relevant = last
        .iter()
        .filter(|&&(i, _)| labels[i] == examples.target)
        .count();
    Some(SessionLog {
        precision: relevant as f64 / PAGE as f64,
        examples,
        marks,
        pages,
        wall_s,
        request_ids: ids,
    })
}

/// The `ranking` array of a page, exactly as the wire carried it.
pub fn parse_page(body: &[u8]) -> Result<Vec<(usize, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let json = Json::parse(text)?;
    milr_cluster::protocol::ranking_from_json(json.get("ranking").ok_or("page has no ranking")?)
}

/// `GET /metrics` as JSON (an empty object on failure).
pub fn scrape(addr: std::net::SocketAddr) -> Json {
    client::get(addr, "/metrics", TIMEOUT)
        .ok()
        .and_then(|r| r.json().ok())
        .unwrap_or(Json::Obj(Vec::new()))
}

/// A number at `path` inside a JSON object, or 0.
pub fn number(json: &Json, path: &[&str]) -> f64 {
    let mut node = json;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_f64().unwrap_or(0.0)
}
