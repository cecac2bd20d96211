//! The retrieval daemon: routing and request handlers, served through
//! the shared connection front end of [`crate::node`] (bounded accept
//! queue, keep-alive loop, graceful drain).
//!
//! The daemon adds three things to the front end: a per-connection
//! request cap (`keepalive_requests`, 0 disables keep-alive) with its
//! own `idle_timeout`; priority shedding — under overload (the
//! `queue_depth` gauge past `priority_shed_fill`), uncached train-heavy
//! rank/feedback requests are shed with `503` first while cached ranks
//! keep flowing; and an idle tick that sweeps expired sessions.
//!
//! All request state lives in the private `Daemon` struct: the current
//! snapshot **epoch** (opened store + generation, swapped atomically by
//! `POST /snapshot/reload` or the snapshot watcher — in-flight requests
//! and live sessions keep serving the epoch they pinned via `Arc`), the
//! shared config, the concept cache (keyed by generation), the session
//! store and the metrics registry.
//!
//! Every ranking — `GET /rank` pages, region queries, session pools —
//! runs on the epoch's opened [`ShardedDatabase`]: a sharded snapshot as
//! opened, a monolithic one as a one-shard in-memory store. Clients
//! address the store's live (tombstone-compressed) index space.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use milr_baseline::feature_backend;
use milr_core::{
    CoreError, FeatureBackend, QuerySession, RankRequest, RetrievalConfig, RetrievalDatabase,
};
use milr_imgproc::{pnm, Rect};
use milr_mil::{Bag, BagAggregator, WeightPolicy};
use milr_store::ShardedDatabase;

use crate::base64;
use crate::batch::RankBatcher;
use crate::cache::{CachedConcept, ConceptCache, ConceptKey};
use crate::http::{self, Request};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::node::{Action, IdleTick, LoopConfig, Node, NodeOptions, Reply};
use crate::sessions::SessionStore;

/// Everything tunable about the daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:7878`; port `0` picks an ephemeral one).
    pub addr: String,
    /// Handler threads.
    pub workers: usize,
    /// Accepted connections allowed to wait; beyond this the acceptor
    /// sheds with `503`.
    pub queue_depth: usize,
    /// Socket read **and** write deadline.
    pub read_timeout: Duration,
    /// Longest a connection may wait in the queue and still be served;
    /// older ones are answered `503` instead of trained for.
    pub handle_deadline: Duration,
    /// Most requests served on one keep-alive connection before the
    /// daemon answers `Connection: close` (a per-connection cap so no
    /// client monopolises a worker forever); 0 disables keep-alive and
    /// restores the one-request-per-connection contract.
    pub keepalive_requests: usize,
    /// Read deadline while waiting for the *next* request on an
    /// already-served keep-alive connection.
    pub idle_timeout: Duration,
    /// Requests served per scheduling turn before a keep-alive worker
    /// checks the accept queue and yields (answers `Connection: close`)
    /// if other connections are waiting. Bounds head-of-line latency
    /// under saturation while still amortising connection setup
    /// `burst:1`; `0` checks after every request (maximally fair, one
    /// dial per request whenever the queue is non-empty).
    pub keepalive_burst: usize,
    /// Worker time a connection may consume before every further
    /// response also checks the queue. Requests are not uniform cost —
    /// a burst of 32 cached ranks is milliseconds, a single cold train
    /// is seconds — so the turn quantum, not the request count, is what
    /// actually bounds head-of-line latency for waiting connections.
    pub keepalive_turn: Duration,
    /// Accept-queue fill ratio at which priority shedding starts:
    /// uncached (train-heavy) rank/feedback requests are answered `503`
    /// while cached ranks and cheap endpoints keep flowing. Values
    /// above 1.0 can never trip (the queue sheds at the acceptor
    /// first), which disables the policy.
    pub priority_shed_fill: f64,
    /// Warm-started feedback training: retrains of a live session seed
    /// the DD multi-start from the session's previous winning solver
    /// vector, ascending fresh only from newly-marked positive bags.
    /// Warm concepts are session-history-dependent, so they never enter
    /// the shared concept cache (cold first rounds still do).
    pub warm_train: bool,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Concept-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Idle time after which a session expires.
    pub session_ttl: Duration,
    /// Most sessions kept live at once (0 disables sessions).
    pub session_capacity: usize,
    /// Ranking page size when a request names no `k`.
    pub default_page: usize,
    /// Training/ranking configuration shared by every request.
    pub retrieval: RetrievalConfig,
    /// Enables `GET /debug/sleep` — a worker-stalling endpoint the shed
    /// tests need; never enable in real service.
    pub debug_endpoints: bool,
    /// Snapshot the daemon serves — a monolithic `.milr` file or a
    /// sharded v3 directory. Required for `POST /snapshot/reload` and
    /// the snapshot watcher; [`None`] disables both.
    pub snapshot_path: Option<PathBuf>,
    /// Feature backend id the served snapshot must have been
    /// preprocessed with (`gray-block`, `sbn`, …). [`None`] accepts
    /// whatever backend the snapshot's manifest records. Either way,
    /// region/image uploads are featurised with the *snapshot's*
    /// backend, and a hot reload that would change the feature space is
    /// refused.
    pub backend: Option<String>,
    /// Polls `snapshot_path` for modification and hot-reloads
    /// automatically when it changes.
    pub watch_snapshot: bool,
    /// Poll interval of the snapshot watcher.
    pub watch_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            handle_deadline: Duration::from_secs(10),
            keepalive_requests: 128,
            idle_timeout: Duration::from_secs(5),
            keepalive_burst: 32,
            keepalive_turn: Duration::from_millis(50),
            priority_shed_fill: 0.75,
            warm_train: true,
            max_body: 8 * 1024 * 1024,
            cache_capacity: 128,
            session_ttl: Duration::from_secs(15 * 60),
            session_capacity: 256,
            default_page: 10,
            retrieval: RetrievalConfig::default(),
            debug_endpoints: false,
            snapshot_path: None,
            backend: None,
            watch_snapshot: false,
            watch_interval: Duration::from_secs(2),
        }
    }
}

impl From<&ServeOptions> for LoopConfig {
    fn from(options: &ServeOptions) -> Self {
        Self {
            node: NodeOptions {
                addr: options.addr.clone(),
                workers: options.workers,
                queue_depth: options.queue_depth,
                read_timeout: options.read_timeout,
                handle_deadline: options.handle_deadline,
                keepalive_burst: options.keepalive_burst,
                keepalive_turn: options.keepalive_turn,
                max_body: options.max_body,
            },
            keepalive_requests: options.keepalive_requests,
            idle_timeout: options.idle_timeout,
        }
    }
}

/// Parses a policy spec (`original | identical | alpha:A | constraint:B`
/// — the same grammar as the CLI).
///
/// # Errors
/// A description of the unrecognised spec.
pub fn parse_policy(spec: &str) -> Result<WeightPolicy, String> {
    if spec == "original" {
        return Ok(WeightPolicy::OriginalDd);
    }
    if spec == "identical" {
        return Ok(WeightPolicy::Identical);
    }
    if let Some(a) = spec.strip_prefix("alpha:") {
        let alpha: f64 = a.parse().map_err(|_| format!("bad alpha in {spec:?}"))?;
        return Ok(WeightPolicy::AlphaHack { alpha });
    }
    if let Some(b) = spec.strip_prefix("constraint:") {
        let beta: f64 = b.parse().map_err(|_| format!("bad beta in {spec:?}"))?;
        return Ok(WeightPolicy::SumConstraint { beta });
    }
    Err(format!("unknown policy {spec:?}"))
}

/// One immutable snapshot generation. Requests clone the `Arc` once up
/// front and serve entirely from that epoch; a concurrent reload swaps
/// the daemon's pointer without disturbing them, and live sessions pin
/// their epoch's store for as long as they exist.
struct Epoch {
    /// The opened store every ranking runs on. Its feature backend tag
    /// also featurises region and image uploads, so every query bag
    /// lives in the snapshot's feature space.
    store: Arc<ShardedDatabase>,
    /// Every live index — the ranking pool of new sessions.
    all_indices: Vec<usize>,
    /// Category count of the live bags (reported by `/healthz`).
    categories: usize,
    /// Monotonic across reloads (concept-cache key component).
    generation: u64,
}

impl Epoch {
    fn new(store: ShardedDatabase, generation: u64) -> Self {
        Self {
            all_indices: (0..store.live_len()).collect(),
            categories: store.category_count(),
            store: Arc::new(store),
            generation,
        }
    }

    /// The upload featuriser for this epoch's backend. Pre-tag
    /// snapshots carry the default gray-block tag, so this only fails
    /// for a manifest naming a backend this build does not know —
    /// which `open`-time checks normally reject first.
    fn feature_backend(&self) -> Result<std::sync::Arc<dyn FeatureBackend>, String> {
        let id = &self.store.backend().id;
        feature_backend(id).ok_or_else(|| format!("snapshot names unknown feature backend {id:?}"))
    }
}

/// Shared state behind every worker.
struct Daemon {
    epoch: Mutex<Arc<Epoch>>,
    config: Arc<RetrievalConfig>,
    options: ServeOptions,
    /// Stops the snapshot watcher; set when a drain begins.
    stop: AtomicBool,
    metrics: Arc<Metrics>,
    batcher: RankBatcher,
    cache: Mutex<ConceptCache>,
    sessions: SessionStore,
    started: Instant,
}

impl Daemon {
    /// The epoch currently serving. One pointer clone; the caller works
    /// against this epoch for its whole request, immune to concurrent
    /// swaps.
    fn epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.lock().expect("epoch mutex"))
    }

    /// Loads `snapshot_path` and swaps it in as the next epoch. The
    /// generation is forced monotonic (`max(manifest, current + 1)`), so
    /// even re-reading an unchanged v2 file — which carries no
    /// generation of its own — invalidates the concept cache. On error
    /// the old epoch keeps serving untouched.
    fn reload_snapshot(&self) -> Result<Arc<Epoch>, String> {
        let path = self
            .options
            .snapshot_path
            .as_ref()
            .ok_or("no snapshot path configured")?;
        let store = milr_store::load_snapshot(path)
            .map_err(|e| {
                self.metrics.snapshot_reload_failures_total.inc();
                e.to_string()
            })?
            .store;
        if let Err(msg) = require_backend(&store, self.options.backend.as_deref()) {
            self.metrics.snapshot_reload_failures_total.inc();
            return Err(msg);
        }
        let mut current = self.epoch.lock().expect("epoch mutex");
        // A reload must never change the feature space underneath live
        // concepts and sessions: same-backend snapshots only.
        let (fresh_backend, serving_backend) = (&store.backend().id, &current.store.backend().id);
        if fresh_backend != serving_backend {
            let msg = format!(
                "reload refused: snapshot backend {fresh_backend:?} differs from the serving backend {serving_backend:?}"
            );
            drop(current);
            self.metrics.snapshot_reload_failures_total.inc();
            return Err(msg);
        }
        let generation = store.generation().max(current.generation + 1);
        let fresh = Arc::new(Epoch::new(store, generation));
        *current = Arc::clone(&fresh);
        drop(current);
        self.metrics.snapshot_reloads_total.inc();
        self.metrics.snapshot_generation.set(generation as f64);
        self.metrics
            .snapshot_shards
            .set(fresh.store.shard_count() as f64);
        Ok(fresh)
    }
}

/// A running daemon: handle for address discovery and shutdown.
pub struct Server {
    node: Node,
    daemon: Arc<Daemon>,
    watcher: Option<JoinHandle<()>>,
}

/// Refuses a store whose recorded feature backend is not the one the
/// daemon requires (no requirement accepts any backend).
fn require_backend(store: &ShardedDatabase, required: Option<&str>) -> Result<(), String> {
    match required {
        Some(expected) if store.backend().id != expected => Err(format!(
            "snapshot was preprocessed with feature backend {:?} but the daemon requires {expected:?}",
            store.backend().id
        )),
        _ => Ok(()),
    }
}

impl Server {
    /// Binds, spawns the acceptor and worker threads, and returns
    /// immediately. The database is served as a one-shard in-memory
    /// store at generation 0 with the default gray-block backend tag.
    ///
    /// # Errors
    /// A description of a bind failure or invalid configuration.
    pub fn start(db: RetrievalDatabase, options: ServeOptions) -> Result<Server, String> {
        let store = ShardedDatabase::in_memory(&db).map_err(|e| e.to_string())?;
        drop(db);
        Self::start_with_store(store, options)
    }

    /// [`Self::start`] for a loaded [`milr_store::Snapshot`]: serves the
    /// opened store itself, carrying its generation, shard count, and
    /// feature-backend tag into the serving epoch, and — when
    /// `options.backend` names a required backend — refuses a snapshot
    /// preprocessed with any other one.
    ///
    /// # Errors
    /// A description of a bind failure, invalid configuration, or
    /// backend mismatch.
    pub fn start_with_snapshot(
        snapshot: milr_store::Snapshot,
        options: ServeOptions,
    ) -> Result<Server, String> {
        require_backend(&snapshot.store, options.backend.as_deref())?;
        Self::start_with_store(snapshot.store, options)
    }

    fn start_with_store(store: ShardedDatabase, options: ServeOptions) -> Result<Server, String> {
        if options.workers == 0 {
            return Err("at least one worker thread is required".into());
        }
        options.retrieval.validate()?;
        let metrics = Arc::new(Metrics::default());
        metrics.snapshot_generation.set(store.generation() as f64);
        metrics.snapshot_shards.set(store.shard_count() as f64);
        let generation = store.generation();
        let daemon = Arc::new(Daemon {
            epoch: Mutex::new(Arc::new(Epoch::new(store, generation))),
            config: Arc::new(options.retrieval.clone()),
            cache: Mutex::new(ConceptCache::new(options.cache_capacity)),
            sessions: SessionStore::new(options.session_ttl, options.session_capacity),
            stop: AtomicBool::new(false),
            metrics: Arc::clone(&metrics),
            batcher: RankBatcher::new(),
            started: Instant::now(),
            options,
        });
        let router = {
            let daemon = Arc::clone(&daemon);
            Box::new(move |req: &Request| route(&daemon, req))
        };
        let sweep: Box<IdleTick> = {
            let daemon = Arc::clone(&daemon);
            Box::new(move || {
                daemon.sessions.sweep();
            })
        };
        let node = Node::spawn((&daemon.options).into(), metrics, router, Some(sweep))
            .map_err(|e| format!("cannot bind {}: {e}", daemon.options.addr))?;
        let watcher = if daemon.options.watch_snapshot && daemon.options.snapshot_path.is_some() {
            let daemon = Arc::clone(&daemon);
            Some(
                std::thread::Builder::new()
                    .name("milrd-snapshot-watch".into())
                    .spawn(move || watch_loop(&daemon))
                    .map_err(|e| format!("cannot spawn snapshot watcher: {e}"))?,
            )
        } else {
            None
        };
        Ok(Server {
            node,
            daemon,
            watcher,
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// Begins a graceful drain: stop accepting, finish queued requests.
    /// Idempotent; also triggered by `POST /admin/shutdown`.
    pub fn shutdown(&self) {
        self.daemon.stop.store(true, Ordering::SeqCst);
        self.node.request_shutdown();
    }

    /// Blocks until the acceptor and every worker have exited (i.e.
    /// until someone calls [`Self::shutdown`] or posts
    /// `/admin/shutdown`, and the queue has drained).
    pub fn wait(mut self) {
        self.node.wait();
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
    }
}

/// The snapshot watcher: polls the snapshot path's modification time
/// and hot-reloads when it changes. A v3 directory is watched through
/// its manifest — shard files are written first, the manifest last, so
/// a manifest mtime bump means a complete snapshot.
fn watch_loop(daemon: &Daemon) {
    let Some(path) = daemon.options.snapshot_path.clone() else {
        return;
    };
    let watched = if path.is_dir() {
        path.join(milr_store::MANIFEST_FILE)
    } else {
        path
    };
    let mtime = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut last = mtime(&watched);
    while !daemon.stop.load(Ordering::SeqCst) {
        std::thread::sleep(daemon.options.watch_interval);
        let current = mtime(&watched);
        if current.is_some() && current != last {
            match daemon.reload_snapshot() {
                Ok(epoch) => {
                    last = current;
                    milr_obs::counter!("milrd_snapshot_watch_reloads_total").inc();
                    let _ = epoch;
                }
                // Mid-write races (manifest not yet flushed) resolve on
                // the next tick; `last` stays put so we retry.
                Err(_) => continue,
            }
        }
    }
}

/// Dispatches one parsed request. Returns the endpoint label — it keys
/// the metrics registry, so dynamic path segments collapse into
/// placeholders — and what the front end should do.
///
/// `GET /metrics?format=prometheus` is the one non-JSON route and
/// `POST /admin/shutdown` the one that drains; everything else
/// delegates to [`route_json`].
fn route(daemon: &Daemon, req: &Request) -> (&'static str, Action) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") if req.query_param("format") == Some("prometheus") => (
            "/metrics",
            Action::Reply(Reply::bytes(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_prometheus(daemon).into_bytes(),
            )),
        ),
        ("POST", "/admin/shutdown") => {
            daemon.stop.store(true, Ordering::SeqCst);
            (
                "/admin/shutdown",
                Action::Shutdown(Reply::json(
                    200,
                    Json::Obj(vec![("draining".into(), Json::Bool(true))]),
                )),
            )
        }
        _ => {
            let (endpoint, status, json) = route_json(daemon, req);
            (endpoint, Action::Reply(Reply::json(status, json)))
        }
    }
}

fn route_json(daemon: &Daemon, req: &Request) -> (&'static str, u16, Json) {
    let method = req.method.as_str();
    let path = req.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => ("/healthz", 200, healthz(daemon)),
        ("GET", "/metrics") => ("/metrics", 200, metrics_json(daemon)),
        ("GET", "/trace") => ("/trace", 200, trace_json(req)),
        ("GET", "/rank") => {
            let (status, body) = handle_rank(daemon, req);
            ("/rank", status, body)
        }
        ("POST", "/rank") => {
            let (status, body) = handle_rank_region(daemon, req);
            ("/rank (region)", status, body)
        }
        ("POST", "/sessions") => {
            let (status, body) = handle_create_session(daemon, req);
            ("/sessions", status, body)
        }
        ("POST", "/snapshot/reload") => {
            let (status, body) = handle_reload(daemon);
            ("/snapshot/reload", status, body)
        }
        ("GET", "/debug/sleep") if daemon.options.debug_endpoints => {
            let ms = req
                .query_param("ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(100)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            (
                "/debug/sleep",
                200,
                Json::Obj(vec![("slept_ms".into(), Json::num(ms as f64))]),
            )
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/sessions/") {
                return route_session(daemon, req, rest);
            }
            let known = matches!(
                path,
                "/healthz"
                    | "/metrics"
                    | "/trace"
                    | "/rank"
                    | "/sessions"
                    | "/snapshot/reload"
                    | "/admin/shutdown"
            );
            if known {
                (
                    "(method-mismatch)",
                    405,
                    http::error_body(format!("{method} not supported on {path}")),
                )
            } else {
                (
                    "(unmatched)",
                    404,
                    http::error_body(format!("no route for {path}")),
                )
            }
        }
    }
}

fn route_session(daemon: &Daemon, req: &Request, rest: &str) -> (&'static str, u16, Json) {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            "(unmatched)",
            404,
            http::error_body(format!("invalid session id {id_text:?}")),
        );
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => {
            let (status, body) = session_info(daemon, id);
            ("/sessions/{id}", status, body)
        }
        ("DELETE", None) => {
            if daemon.sessions.remove(id) {
                (
                    "/sessions/{id}",
                    200,
                    Json::Obj(vec![("deleted".into(), Json::Bool(true))]),
                )
            } else {
                ("/sessions/{id}", 404, http::error_body("no such session"))
            }
        }
        ("POST", Some("feedback")) => {
            let (status, body) = handle_feedback(daemon, req, id);
            ("/sessions/{id}/feedback", status, body)
        }
        (_, None) => (
            "(method-mismatch)",
            405,
            http::error_body("use GET or DELETE on a session"),
        ),
        (_, Some("feedback")) => (
            "(method-mismatch)",
            405,
            http::error_body("use POST on /sessions/{id}/feedback"),
        ),
        _ => ("(unmatched)", 404, http::error_body("no such route")),
    }
}

fn healthz(daemon: &Daemon) -> Json {
    let epoch = daemon.epoch();
    Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        ("images".into(), Json::num(epoch.all_indices.len() as f64)),
        ("categories".into(), Json::num(epoch.categories as f64)),
        (
            "feature_dim".into(),
            Json::num(epoch.store.feature_dim() as f64),
        ),
        ("generation".into(), Json::num(epoch.generation as f64)),
        ("shards".into(), Json::num(epoch.store.shard_count() as f64)),
        (
            "backend".into(),
            Json::str(epoch.store.backend().id.clone()),
        ),
        (
            "uptime_s".into(),
            Json::num(daemon.started.elapsed().as_secs_f64()),
        ),
    ])
}

/// Parses an optional aggregator label: absent means the paper's
/// min-distance fold, anything unrecognised is the caller's mistake.
fn parse_aggregator(label: Option<&str>) -> Result<BagAggregator, String> {
    match label {
        None => Ok(BagAggregator::MinDistance),
        Some(label) => {
            BagAggregator::parse(label).ok_or_else(|| format!("unknown aggregator {label:?}"))
        }
    }
}

/// Extracts the optional `"aggregator"` string field of a JSON body.
fn body_aggregator(body: &Json) -> Result<BagAggregator, String> {
    match body.get("aggregator") {
        None => Ok(BagAggregator::MinDistance),
        Some(value) => parse_aggregator(Some(value.as_str().ok_or("aggregator must be a string")?)),
    }
}

/// `POST /snapshot/reload` — loads the configured snapshot path and
/// swaps the serving epoch. `409` when the daemon was started without a
/// snapshot path; `500` (old epoch untouched) when the load fails.
fn handle_reload(daemon: &Daemon) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.snapshot_reload");
    if daemon.options.snapshot_path.is_none() {
        return (
            409,
            http::error_body("daemon was started without a snapshot path; reload is disabled"),
        );
    }
    match daemon.reload_snapshot() {
        Ok(epoch) => (
            200,
            Json::Obj(vec![
                ("generation".into(), Json::num(epoch.generation as f64)),
                ("shards".into(), Json::num(epoch.store.shard_count() as f64)),
                ("images".into(), Json::num(epoch.all_indices.len() as f64)),
            ]),
        ),
        Err(msg) => (500, http::error_body(format!("reload failed: {msg}"))),
    }
}

fn metrics_json(daemon: &Daemon) -> Json {
    let cache = daemon.cache.lock().expect("concept cache mutex");
    let cache_json = Json::Obj(vec![
        ("hits".into(), Json::num(cache.hits() as f64)),
        ("misses".into(), Json::num(cache.misses() as f64)),
        ("entries".into(), Json::num(cache.len() as f64)),
        ("capacity".into(), Json::num(cache.capacity() as f64)),
    ]);
    drop(cache);
    let sessions = daemon.sessions.stats();
    let sessions_json = Json::Obj(vec![
        ("active".into(), Json::num(sessions.active as f64)),
        (
            "created_total".into(),
            Json::num(sessions.created_total as f64),
        ),
        (
            "expired_total".into(),
            Json::num(sessions.expired_total as f64),
        ),
        (
            "evicted_total".into(),
            Json::num(sessions.evicted_total as f64),
        ),
    ]);
    let mut fields = vec![
        (
            "uptime_s".into(),
            Json::num(daemon.started.elapsed().as_secs_f64()),
        ),
        (
            "requests_total".into(),
            Json::num(daemon.metrics.total_requests() as f64),
        ),
    ];
    fields.extend(daemon.metrics.connection_fields());
    fields.extend([
        (
            "priority_shed_total".into(),
            Json::num(daemon.metrics.priority_shed_total.get() as f64),
        ),
        (
            "batch".into(),
            Json::Obj(vec![
                (
                    "formed_total".into(),
                    Json::num(daemon.metrics.batch_formed_total.get() as f64),
                ),
                (
                    "size_max".into(),
                    Json::num(daemon.metrics.batch_size.snapshot().max() as f64),
                ),
                (
                    "size_mean".into(),
                    Json::num(daemon.metrics.batch_size.snapshot().mean()),
                ),
            ]),
        ),
        (
            "queue_depth".into(),
            Json::num(daemon.metrics.queue_depth.get()),
        ),
        (
            "queue_peak".into(),
            Json::num(daemon.metrics.queue_peak.get()),
        ),
        ("concept_cache".into(), cache_json),
        ("sessions".into(), sessions_json),
        ("rank".into(), crate::metrics::rank_counters_json()),
        ("train".into(), crate::metrics::train_counters_json()),
        ("endpoints".into(), daemon.metrics.endpoints_json()),
    ]);
    Json::Obj(fields)
}

/// Prometheus text exposition: the daemon's own registry (connection
/// outcomes, per-endpoint series, queue gauges, cache/session state
/// mirrored into gauges just before rendering) followed by the
/// process-wide engine registry (solver, ranking, preprocessing).
fn metrics_prometheus(daemon: &Daemon) -> String {
    let registry = daemon.metrics.registry();
    registry
        .gauge("milrd_uptime_seconds")
        .set(daemon.started.elapsed().as_secs_f64());
    {
        let cache = daemon.cache.lock().expect("concept cache mutex");
        registry
            .gauge("milrd_concept_cache_hits")
            .set(cache.hits() as f64);
        registry
            .gauge("milrd_concept_cache_misses")
            .set(cache.misses() as f64);
        registry
            .gauge("milrd_concept_cache_entries")
            .set(cache.len() as f64);
        registry
            .gauge("milrd_concept_cache_capacity")
            .set(cache.capacity() as f64);
    }
    let sessions = daemon.sessions.stats();
    registry
        .gauge("milrd_sessions_active")
        .set(sessions.active as f64);
    registry
        .gauge("milrd_sessions_created")
        .set(sessions.created_total as f64);
    registry
        .gauge("milrd_sessions_expired")
        .set(sessions.expired_total as f64);
    registry
        .gauge("milrd_sessions_evicted")
        .set(sessions.evicted_total as f64);
    let mut out = registry.render_prometheus();
    out.push_str(&milr_obs::global().render_prometheus());
    out
}

/// `GET /trace` — the most recent spans (all threads, oldest first) as a
/// JSON array; `?n=` caps the count (default 256).
fn trace_json(req: &Request) -> Json {
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256);
    let spans = milr_obs::recent_spans(n);
    Json::Obj(vec![(
        "spans".into(),
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name)),
                        ("thread".into(), Json::num(s.thread as f64)),
                        ("start_us".into(), Json::num(s.start_us as f64)),
                        ("dur_ns".into(), Json::num(s.dur_ns as f64)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Maps a core failure to an HTTP status: caller mistakes are 4xx,
/// anything else is the daemon's fault.
fn core_error_status(err: &CoreError) -> u16 {
    match err {
        CoreError::IndexOutOfBounds { .. }
        | CoreError::NoExamples
        | CoreError::NotTrained
        | CoreError::UnknownCategory { .. }
        | CoreError::NoTargetCategory => 400,
        CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }) => 400,
        _ => 500,
    }
}

fn core_error_response(err: &CoreError) -> (u16, Json) {
    (core_error_status(err), http::error_body(err.to_string()))
}

fn ranking_json(ranking: &[(usize, f64)]) -> Json {
    Json::Arr(
        ranking
            .iter()
            .map(|&(index, distance)| {
                Json::Obj(vec![
                    ("index".into(), Json::num(index as f64)),
                    ("distance".into(), Json::Num(distance)),
                ])
            })
            .collect(),
    )
}

/// Parses a comma-separated index list (`"3,1,4"`).
fn parse_index_list(text: &str) -> Result<Vec<usize>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid index {part:?}"))
        })
        .collect()
}

/// Resolves the session config for an optional `policy` spec: the shared
/// default when absent, a copy with the policy swapped in when present.
fn config_for_policy(
    daemon: &Daemon,
    spec: Option<&str>,
) -> Result<(Arc<RetrievalConfig>, String), String> {
    match spec {
        None => Ok((Arc::clone(&daemon.config), daemon.config.policy.label())),
        Some(spec) => {
            let policy = parse_policy(spec)?;
            policy.validate()?;
            let label = policy.label();
            let mut config = (*daemon.config).clone();
            config.policy = policy;
            Ok((Arc::new(config), label))
        }
    }
}

/// Whether the accept queue is deep enough that train-heavy work should
/// be shed, read off the front end's `queue_depth` gauge. The threshold
/// is a fill ratio of `queue_depth`; anything above 1.0 can never trip
/// because the acceptor sheds at full depth.
fn priority_overloaded(daemon: &Daemon) -> bool {
    let threshold = (daemon.options.priority_shed_fill * daemon.options.queue_depth as f64).ceil();
    daemon.metrics.queue_depth.get() >= threshold.max(1.0)
}

/// The uniform `503` for a train-heavy request shed under overload.
fn priority_shed_response(daemon: &Daemon) -> (u16, Json) {
    daemon.metrics.priority_shed_total.inc();
    (
        503,
        http::error_body("overloaded; uncached training request shed — retry later"),
    )
}

/// Fetches a concept for an example configuration through the cache:
/// either a hit, or a fresh training run whose result is inserted.
fn concept_via_cache(
    daemon: &Daemon,
    key: ConceptKey,
    train: impl FnOnce() -> Result<CachedConcept, CoreError>,
) -> Result<(CachedConcept, bool), CoreError> {
    let cached = daemon.cache.lock().expect("concept cache mutex").get(&key);
    if let Some(hit) = cached {
        return Ok((hit, true));
    }
    // Train outside the cache lock — concurrent identical misses may
    // train twice, but they converge on the same deterministic concept,
    // and never serialise unrelated requests behind one training run.
    let fresh = train()?;
    daemon
        .cache
        .lock()
        .expect("concept cache mutex")
        .insert(key, fresh.clone());
    Ok((fresh, false))
}

/// `GET /rank` — the stateless one-shot: train (or fetch the cached
/// concept) for the query-string example sets and return the top-k page.
fn handle_rank(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.rank");
    let positives = match parse_index_list(req.query_param("positives").unwrap_or("")) {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match parse_index_list(req.query_param("negatives").unwrap_or("")) {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    if positives.is_empty() {
        return (
            400,
            http::error_body("at least one positive example index is required"),
        );
    }
    let k = match req.query_param("k") {
        None => daemon.options.default_page,
        Some(v) => match v.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return (400, http::error_body(format!("invalid k {v:?}"))),
        },
    };
    let (config, policy_label) = match config_for_policy(daemon, req.query_param("policy")) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let aggregator = match parse_aggregator(req.query_param("aggregator")) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    // The aggregator is deliberately absent from the cache key: it
    // shapes ranking, not training, so every fold shares one concept.
    let key = ConceptKey::new(&positives, &negatives, &policy_label, epoch.generation);
    // Priority shedding: under overload a cached rank is cheap (one
    // bounded scan), an uncached one buys a whole DD training run — shed
    // the expensive kind first so the cheap kind keeps flowing.
    if priority_overloaded(daemon)
        && !daemon
            .cache
            .lock()
            .expect("concept cache mutex")
            .contains(&key)
    {
        return priority_shed_response(daemon);
    }
    let trained = concept_via_cache(daemon, key, || {
        let mut session = QuerySession::builder(Arc::clone(&epoch.store))
            .config(config)
            .positives(positives.clone())
            .negatives(negatives.clone())
            .pool(Vec::new()) // the page is ranked directly below; no pool needed
            .build()?;
        session.train_round()?;
        Ok(CachedConcept {
            concept: session.shared_concept().expect("just trained"),
            nldd: session.nldd(),
        })
    });
    let (cached, cache_hit) = match trained {
        Ok(pair) => pair,
        Err(err) => return core_error_response(&err),
    };
    // Rank through the flat-combining batcher: one store ranking per
    // request, bit-identical to the direct `epoch.store.rank_live(...)`
    // call by construction.
    let request = RankRequest::all()
        .top(k)
        .threads(daemon.config.threads)
        .aggregator(aggregator);
    let ranking = match daemon.batcher.rank(
        Arc::clone(&epoch.store),
        Arc::clone(&cached.concept),
        request,
        &daemon.metrics,
    ) {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("nldd".into(), Json::Num(cached.nldd)),
            ("aggregator".into(), Json::str(aggregator.label())),
        ]),
    )
}

/// `POST /rank` — the stateless sub-image query of the Luo & Nascimento
/// relevance-feedback scenario: the client uploads a picture (base64
/// PGM) plus an optional region of interest, the daemon crops to the
/// ROI, featurises it with the snapshot's backend, trains one Diverse
/// Density concept against the optional negatives (database indices,
/// whole-image uploads, or further regions), and returns the top-k page
/// under the requested aggregator.
///
/// Body:
/// ```json
/// {
///   "image_pgm": "<base64 PGM>",
///   "roi": {"x": 8, "y": 8, "width": 48, "height": 48},
///   "negatives": [7, 12],
///   "negative_pgm": ["<base64 PGM>"],
///   "negative_regions": [{"image_pgm": "...", "roi": {...}}],
///   "k": 10,
///   "policy": "original",
///   "aggregator": "logsumexp"
/// }
/// ```
/// Everything but `image_pgm` is optional. For feedback rounds over the
/// wire, create a session with `positive_regions` instead — this
/// endpoint trains fresh every call (region queries have no index
/// identity, so there is nothing to cache).
fn handle_rank_region(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.rank_region");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    if body.get("image_pgm").is_none() {
        return (400, http::error_body("image_pgm is required"));
    }
    let k = match body.get("k") {
        None => daemon.options.default_page,
        Some(value) => match value.as_u64() {
            Some(k) => k as usize,
            None => return (400, http::error_body("k must be a non-negative integer")),
        },
    };
    let aggregator = match body_aggregator(&body) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let policy_spec = match body.get("policy") {
        None => None,
        Some(value) => match value.as_str() {
            Some(spec) => Some(spec),
            None => return (400, http::error_body("policy must be a string")),
        },
    };
    let (config, _policy_label) = match config_for_policy(daemon, policy_spec) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    // A region query always trains (no cacheable index identity), so
    // under overload it is shed unconditionally.
    if priority_overloaded(daemon) {
        return priority_shed_response(daemon);
    }
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    let query_bag = match region_bag(&body, &*backend, &config) {
        Ok(bag) => bag,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let mut negative_bags = match decode_uploads(&body, "negative_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    match decode_region_uploads(&body, "negative_regions", &*backend, &config) {
        Ok(bags) => negative_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    let mut session = match QuerySession::builder(Arc::clone(&epoch.store))
        .config(config)
        .positives(Vec::new())
        .negatives(negatives)
        .pool(epoch.all_indices.clone())
        .build()
    {
        Ok(session) => session,
        Err(err) => return core_error_response(&err),
    };
    if let Err(err) = session.add_positive_bag(query_bag) {
        return core_error_response(&err);
    }
    for bag in negative_bags {
        if let Err(err) = session.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    if let Err(err) = session.train_round() {
        return core_error_response(&err);
    }
    let ranking = match session.rank(&RankRequest::pool().top(k).aggregator(aggregator)) {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("nldd".into(), Json::Num(session.nldd())),
            ("aggregator".into(), Json::str(aggregator.label())),
            (
                "backend".into(),
                Json::str(epoch.store.backend().id.clone()),
            ),
        ]),
    )
}

/// Decodes one base64 PGM payload into a gray image.
fn decode_pgm(text: &str) -> Result<milr_imgproc::GrayImage, String> {
    let bytes = base64::decode(text)?;
    pnm::read_pgm(&bytes[..]).map_err(|e| e.to_string())
}

/// Parses a `{"x":..,"y":..,"width":..,"height":..}` region object.
fn parse_roi(value: &Json) -> Result<Rect, String> {
    let field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("roi.{name} must be a non-negative integer"))
    };
    Ok(Rect::new(
        field("x")?,
        field("y")?,
        field("width")?,
        field("height")?,
    ))
}

/// Decodes the `*_pgm` upload arrays of a session body into feature
/// bags through the serving epoch's feature backend.
fn decode_uploads(
    body: &Json,
    field: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of base64 strings"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let text = item
                .as_str()
                .ok_or_else(|| format!("{field}[{i}] must be a base64 string"))?;
            let image = decode_pgm(text).map_err(|e| format!("{field}[{i}]: {e}"))?;
            backend
                .gray_bag(&image, config)
                .map_err(|e| format!("{field}[{i}]: {e}"))
        })
        .collect()
}

/// Decodes the `*_regions` arrays of a body — objects of the form
/// `{"image_pgm": "<base64>", "roi": {"x":..,"y":..,"width":..,
/// "height":..}}`, `roi` optional (whole image) — into feature bags:
/// the sub-image query of Luo & Nascimento's relevance-feedback
/// scenario, where the user marks a region of a picture rather than a
/// whole picture.
fn decode_region_uploads(
    body: &Json,
    field: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of region objects"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            region_bag(item, backend, config).map_err(|e| format!("{field}[{i}]: {e}"))
        })
        .collect()
}

/// Featurises one region object: decode, crop to the ROI when present,
/// run the backend.
fn region_bag(
    item: &Json,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Bag, String> {
    let text = item
        .get("image_pgm")
        .and_then(Json::as_str)
        .ok_or("image_pgm must be a base64 string")?;
    let image = decode_pgm(text)?;
    let image = match item.get("roi") {
        None => image,
        Some(value) => {
            let roi = parse_roi(value)?;
            image.crop(roi).map_err(|e| e.to_string())?
        }
    };
    backend.gray_bag(&image, config).map_err(|e| e.to_string())
}

/// Extracts an index array field (`"positives": [3, 1]`) from a JSON
/// body.
fn body_indices(body: &Json, field: &str) -> Result<Vec<usize>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of image indices"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("{field}[{i}] must be a non-negative integer"))
        })
        .collect()
}

/// `POST /sessions` — creates a feedback session from explicit marks
/// and/or uploaded PGM images.
fn handle_create_session(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.session_create");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    let positives = match body_indices(&body, "positives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let policy_spec = match body.get("policy") {
        None => None,
        Some(value) => match value.as_str() {
            Some(spec) => Some(spec),
            None => return (400, http::error_body("policy must be a string")),
        },
    };
    let (config, policy_label) = match config_for_policy(daemon, policy_spec) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    let mut positive_bags = match decode_uploads(&body, "positive_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let mut negative_bags = match decode_uploads(&body, "negative_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    match decode_region_uploads(&body, "positive_regions", &*backend, &config) {
        Ok(bags) => positive_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    match decode_region_uploads(&body, "negative_regions", &*backend, &config) {
        Ok(bags) => negative_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    if positives.is_empty() && positive_bags.is_empty() {
        return (
            400,
            http::error_body(
                "at least one positive example (index, upload, or region) is required",
            ),
        );
    }
    let mut session = match QuerySession::builder(Arc::clone(&epoch.store))
        .config(config)
        .positives(positives)
        .negatives(negatives)
        .pool(epoch.all_indices.clone())
        .warm_start(daemon.options.warm_train)
        .build()
    {
        Ok(session) => session,
        Err(err) => return core_error_response(&err),
    };
    for bag in positive_bags {
        if let Err(err) = session.add_positive_bag(bag) {
            return core_error_response(&err);
        }
    }
    for bag in negative_bags {
        if let Err(err) = session.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    let (positive_count, negative_count) = (
        session.positives().len() + session.external_example_counts().0,
        session.negatives().len() + session.external_example_counts().1,
    );
    match daemon
        .sessions
        .create(session, policy_label, epoch.generation)
    {
        Some(id) => (
            201,
            Json::Obj(vec![
                ("id".into(), Json::num(id as f64)),
                ("positives".into(), Json::num(positive_count as f64)),
                ("negatives".into(), Json::num(negative_count as f64)),
            ]),
        ),
        None => (503, http::error_body("session store is full or disabled")),
    }
}

fn session_info(daemon: &Daemon, id: u64) -> (u16, Json) {
    let Some(handle) = daemon.sessions.get(id) else {
        return (404, http::error_body("no such session"));
    };
    let session = handle.lock().expect("session mutex");
    let (ext_pos, ext_neg) = session.query.external_example_counts();
    (
        200,
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("positives".into(), Json::indices(session.query.positives())),
            ("negatives".into(), Json::indices(session.query.negatives())),
            ("external_positives".into(), Json::num(ext_pos as f64)),
            ("external_negatives".into(), Json::num(ext_neg as f64)),
            (
                "rounds_run".into(),
                Json::num(session.query.rounds_run() as f64),
            ),
            ("policy".into(), Json::str(session.policy_label.clone())),
            ("generation".into(), Json::num(session.generation as f64)),
        ]),
    )
}

/// `POST /sessions/{id}/feedback` — applies new marks, retrains (or
/// installs a cached concept), and returns the next ranked page.
fn handle_feedback(daemon: &Daemon, req: &Request, id: u64) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.feedback");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(if text.trim().is_empty() { "{}" } else { text }) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    let positives = match body_indices(&body, "positives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let k = match body.get("k") {
        None => daemon.options.default_page,
        Some(value) => match value.as_u64() {
            Some(k) => k as usize,
            None => return (400, http::error_body("k must be a non-negative integer")),
        },
    };
    let aggregator = match body_aggregator(&body) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    // Featurise region marks before touching the session: a 400 here
    // must leave the session exactly as it was.
    let positive_region_bags =
        match decode_region_uploads(&body, "positive_regions", &*backend, &daemon.config) {
            Ok(bags) => bags,
            Err(msg) => return (400, http::error_body(msg)),
        };
    let negative_region_bags =
        match decode_region_uploads(&body, "negative_regions", &*backend, &daemon.config) {
            Ok(bags) => bags,
            Err(msg) => return (400, http::error_body(msg)),
        };
    let uploads_regions = !positive_region_bags.is_empty() || !negative_region_bags.is_empty();
    let Some(handle) = daemon.sessions.get(id) else {
        return (404, http::error_body("no such session"));
    };
    let mut session = handle.lock().expect("session mutex");
    // Priority shedding, checked *before* the marks mutate the session
    // so a shed request can be retried verbatim. Feedback is cheap only
    // when the prospective example set already has a cached concept —
    // region marks have no index identity, so they always retrain.
    if priority_overloaded(daemon) {
        let would_hit = !uploads_regions && session.query.external_example_counts() == (0, 0) && {
            let mut pos = session.query.positives().to_vec();
            pos.extend_from_slice(&positives);
            let mut neg = session.query.negatives().to_vec();
            neg.extend_from_slice(&negatives);
            let key = ConceptKey::new(&pos, &neg, &session.policy_label, session.generation);
            daemon
                .cache
                .lock()
                .expect("concept cache mutex")
                .contains(&key)
        };
        if !would_hit {
            return priority_shed_response(daemon);
        }
    }
    if let Err(err) = session.query.add_positives(&positives) {
        return core_error_response(&err);
    }
    if let Err(err) = session.query.add_negatives(&negatives) {
        return core_error_response(&err);
    }
    for bag in positive_region_bags {
        if let Err(err) = session.query.add_positive_bag(bag) {
            return core_error_response(&err);
        }
    }
    for bag in negative_region_bags {
        if let Err(err) = session.query.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    // Sessions whose examples are all database indices share concepts
    // through the cache; uploads have no index identity, so sessions
    // holding external bags always train for themselves.
    let cacheable = session.query.external_example_counts() == (0, 0);
    let mut cache_hit = false;
    let mut warm = false;
    if cacheable {
        let key = ConceptKey::new(
            session.query.positives(),
            session.query.negatives(),
            &session.policy_label,
            session.generation,
        );
        let cached = daemon.cache.lock().expect("concept cache mutex").get(&key);
        match cached {
            Some(hit) => {
                if let Err(err) = session.query.adopt_concept(hit.concept, hit.nldd) {
                    return core_error_response(&err);
                }
                cache_hit = true;
            }
            None => {
                warm = session.query.warm_ready();
                if let Err(err) = session.query.train_round() {
                    return core_error_response(&err);
                }
                // A warm concept depends on this session's training
                // history, not just the example sets — caching it would
                // let one session's trajectory leak into every other
                // request with the same marks. Only cold (history-free)
                // rounds feed the shared cache.
                if !warm {
                    daemon.cache.lock().expect("concept cache mutex").insert(
                        key,
                        CachedConcept {
                            concept: session.query.shared_concept().expect("just trained"),
                            nldd: session.query.nldd(),
                        },
                    );
                }
            }
        }
    } else {
        warm = session.query.warm_ready();
        if let Err(err) = session.query.train_round() {
            return core_error_response(&err);
        }
    }
    let ranking = match session
        .query
        .rank(&RankRequest::pool().top(k).aggregator(aggregator))
    {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("round".into(), Json::num(session.query.rounds_run() as f64)),
            ("nldd".into(), Json::Num(session.query.nldd())),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("warm".into(), Json::Bool(warm)),
            ("aggregator".into(), Json::str(aggregator.label())),
            ("ranking".into(), ranking_json(&ranking)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_parse_like_the_cli() {
        assert!(matches!(
            parse_policy("original"),
            Ok(WeightPolicy::OriginalDd)
        ));
        assert!(matches!(
            parse_policy("identical"),
            Ok(WeightPolicy::Identical)
        ));
        assert!(
            matches!(parse_policy("alpha:0.3"), Ok(WeightPolicy::AlphaHack { alpha }) if alpha == 0.3)
        );
        assert!(
            matches!(parse_policy("constraint:0.5"), Ok(WeightPolicy::SumConstraint { beta }) if beta == 0.5)
        );
        assert!(parse_policy("nonsense").is_err());
        assert!(parse_policy("alpha:x").is_err());
    }

    #[test]
    fn default_options_are_sane() {
        let options = ServeOptions::default();
        assert!(options.workers >= 1);
        assert!(options.queue_depth >= options.workers);
        assert!(options.max_body >= 1024 * 1024);
        assert!(!options.debug_endpoints);
    }
}
