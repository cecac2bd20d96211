//! The connection front end every milrd role serves through: the
//! single-node daemon, the cluster coordinator and the cluster workers.
//!
//! One acceptor thread and `workers` handler threads around a bounded
//! queue:
//!
//! * the acceptor pushes `(connection, enqueued_at)` and sheds with an
//!   immediate `503` once the queue is `queue_depth` deep;
//! * a handler pops, and first checks how long the connection waited —
//!   one that overstayed `handle_deadline` is answered `503` without
//!   being routed (the client has likely timed out already);
//! * the handler then serves the connection's whole keep-alive life,
//!   pipelined requests included, and routes each request through the
//!   role's [`Router`];
//! * at each burst boundary — every `keepalive_burst` requests, or any
//!   response once the connection has used a `keepalive_turn` of worker
//!   time — it answers `Connection: close` if other connections wait,
//!   so one chatty peer never starves the queue;
//! * every socket carries read/write deadlines, so a stalled peer costs
//!   a handler at most the timeout, never forever;
//! * a router that panics costs its request a `500` and its connection,
//!   never the handler thread;
//! * shutdown is graceful: the flag flips (by [`Node::request_shutdown`]
//!   or a router's [`Action::Shutdown`]), the acceptor is unblocked by a
//!   self-connection, and the handlers drain the queue and exit.
//!
//! Every admitted connection resolves exactly once, so at quiescence
//! `accepted == completed + closed + read_error + deadline_shed +
//! panicked` (see [`Metrics::connections_balanced`]):
//!
//! * `completed` — served at least one request and ended cleanly (peer
//!   EOF or idle expiry after a response, `Connection: close`, request
//!   cap, shutdown, or a failed response write);
//! * `closed` — the peer closed (or idled out) before sending a request;
//! * `read_error` — a request could not be read (answered `4xx`);
//! * `deadline_shed` — overstayed the queue (answered `503`);
//! * `panicked` — the router panicked (answered `500`).

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, ReadError, Request};
use crate::json::Json;
use crate::metrics::Metrics;

/// Everything tunable about a cluster node's front end.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Bind address (port `0` picks an ephemeral one).
    pub addr: String,
    /// Handler threads.
    pub workers: usize,
    /// Accepted connections allowed to wait; beyond this the acceptor
    /// sheds with `503`.
    pub queue_depth: usize,
    /// Socket read **and** write deadline — doubling as the keep-alive
    /// idle timeout between requests on one connection.
    pub read_timeout: Duration,
    /// Longest a connection may wait in the queue and still be served.
    pub handle_deadline: Duration,
    /// Requests served per scheduling turn before a keep-alive worker
    /// checks the accept queue and yields (`Connection: close`) if
    /// other connections wait — without it one chatty peer pins a
    /// handler thread forever and every other connection starves for
    /// the whole phase. `0` checks after every request.
    pub keepalive_burst: usize,
    /// Worker time a connection may consume before every further
    /// response also checks the queue — request counts don't bound
    /// latency when one coordinator train costs seconds while a shard
    /// rank costs microseconds.
    pub keepalive_turn: Duration,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
}

impl Default for NodeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            handle_deadline: Duration::from_secs(10),
            keepalive_burst: 32,
            keepalive_turn: Duration::from_millis(50),
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// The loop settings both option structs reduce to. A cluster node has
/// no request cap and idles out after its `read_timeout`; the daemon
/// sets both from its own options.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    pub(crate) node: NodeOptions,
    /// Most requests served on one connection (0 disables keep-alive).
    pub(crate) keepalive_requests: usize,
    /// Read deadline while waiting for the next request on an
    /// already-served connection.
    pub(crate) idle_timeout: Duration,
}

impl From<NodeOptions> for LoopConfig {
    fn from(node: NodeOptions) -> Self {
        Self {
            keepalive_requests: usize::MAX,
            idle_timeout: node.read_timeout,
            node,
        }
    }
}

/// A response body: JSON for the protocol proper, raw bytes for
/// everything else (Prometheus text, streamed shard files).
#[derive(Debug)]
pub enum Body {
    /// A JSON payload (`application/json`).
    Json(Json),
    /// A payload with an explicit content type.
    Bytes(&'static str, Vec<u8>),
}

/// One routed reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Body,
}

impl Reply {
    /// A JSON reply.
    pub fn json(status: u16, body: Json) -> Self {
        Self {
            status,
            body: Body::Json(body),
        }
    }

    /// A raw-bytes reply.
    pub fn bytes(status: u16, content_type: &'static str, data: Vec<u8>) -> Self {
        Self {
            status,
            body: Body::Bytes(content_type, data),
        }
    }

    /// The uniform `{"error": …}` reply.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(status, http::error_body(message))
    }
}

/// What the router wants done after a reply: keep serving, or drain the
/// node (the `/admin/shutdown` path — the reply is still delivered,
/// with `Connection: close`).
#[derive(Debug)]
pub enum Action {
    /// Send the reply and keep the node serving.
    Reply(Reply),
    /// Send the reply, then drain and stop the node.
    Shutdown(Reply),
}

/// The routing callback: label (for the per-endpoint metrics — dynamic
/// path segments must collapse into placeholders) plus the action.
pub type Router = dyn Fn(&Request) -> (&'static str, Action) + Send + Sync;

/// Work a handler does when it has waited 100 ms for a connection.
pub(crate) type IdleTick = dyn Fn() + Send + Sync;

struct Inner {
    config: LoopConfig,
    metrics: Arc<Metrics>,
    router: Box<Router>,
    idle_tick: Option<Box<IdleTick>>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running front end.
pub struct Node {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Node {
    /// Binds and starts the accept loop plus the handler pool.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start(
        options: NodeOptions,
        metrics: Arc<Metrics>,
        router: Box<Router>,
    ) -> std::io::Result<Self> {
        Self::spawn(options.into(), metrics, router, None)
    }

    /// [`Self::start`] with the full loop settings and an optional idle
    /// tick.
    pub(crate) fn spawn(
        config: LoopConfig,
        metrics: Arc<Metrics>,
        router: Box<Router>,
        idle_tick: Option<Box<IdleTick>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.node.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            config,
            metrics,
            router,
            idle_tick,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let workers = (0..inner.config.node.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("milrd-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<std::io::Result<_>>()?;
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("milrd-accept".into())
                .spawn(move || accept_loop(&listener, &inner))?
        };
        Ok(Self {
            inner,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Flips the shutdown flag and unblocks the acceptor. Idempotent.
    pub fn request_shutdown(&self) {
        request_shutdown(&self.inner);
    }

    /// Blocks until the acceptor and every handler thread has drained.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().ok();
        }
        for handle in self.workers.drain(..) {
            handle.join().ok();
        }
    }
}

fn request_shutdown(inner: &Inner) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the acceptor with a throwaway self-connection.
    TcpStream::connect(inner.addr).ok();
    inner.available.notify_all();
}

fn accept_loop(listener: &TcpListener, inner: &Inner) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return; // the unblocking self-connection, or a late client
        }
        let timeout = Some(inner.config.node.read_timeout);
        stream.set_read_timeout(timeout).ok();
        stream.set_write_timeout(timeout).ok();
        // Keep-alive turns this into a request/response ping-pong
        // socket; without NODELAY, Nagle + delayed ACK stalls every
        // small response ~40ms.
        stream.set_nodelay(true).ok();
        let mut queue = inner.queue.lock().expect("accept queue mutex");
        if queue.len() >= inner.config.node.queue_depth {
            drop(queue);
            inner.metrics.shed_total.inc();
            // Refuse on a throwaway thread so a slow peer cannot stall
            // the acceptor.
            std::thread::spawn(move || refuse(stream, 503, "server saturated; request shed"));
            continue;
        }
        inner.metrics.accepted_total.inc();
        queue.push_back((stream, Instant::now()));
        inner.metrics.set_queue_depth(queue.len());
        drop(queue);
        inner.available.notify_one();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let popped = {
            let mut queue = inner.queue.lock().expect("accept queue mutex");
            loop {
                if let Some(item) = queue.pop_front() {
                    inner.metrics.set_queue_depth(queue.len());
                    break Some(item);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, wait) = inner
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("accept queue mutex");
                queue = guard;
                if let (true, Some(tick)) = (wait.timed_out(), &inner.idle_tick) {
                    drop(queue);
                    tick();
                    queue = inner.queue.lock().expect("accept queue mutex");
                }
            }
        };
        let Some((stream, enqueued)) = popped else {
            return;
        };
        handle_connection(inner, stream, enqueued);
    }
}

/// Serves one connection to completion, counting exactly one outcome.
fn handle_connection(inner: &Inner, mut stream: TcpStream, enqueued: Instant) {
    let config = &inner.config;
    if enqueued.elapsed() > config.node.handle_deadline {
        inner.metrics.deadline_shed_total.inc();
        refuse(stream, 503, "request overstayed the queue deadline");
        return;
    }
    let mut pending = Vec::new();
    let mut served = 0usize;
    let turn_started = Instant::now();
    loop {
        let read_started = Instant::now();
        let request =
            match http::read_request_buffered(&mut stream, &mut pending, config.node.max_body) {
                Ok(request) => request,
                Err(ReadError::Closed) => {
                    // Peer EOF at a request boundary: a completed
                    // keep-alive exchange if anything was served, a
                    // prober otherwise.
                    if served > 0 {
                        inner.metrics.completed_total.inc();
                    } else {
                        inner.metrics.closed_total.inc();
                    }
                    return;
                }
                Err(ReadError::Timeout) if served > 0 => {
                    // Idle expiry after a response is the normal end of
                    // a keep-alive connection, not an error.
                    inner.metrics.completed_total.inc();
                    drain_before_close(&mut stream);
                    return;
                }
                Err(err) => {
                    let (status, message) = match err {
                        ReadError::Timeout => (408, "timed out reading the request".to_string()),
                        ReadError::HeadTooLarge => (431, "request head too large".to_string()),
                        ReadError::BodyTooLarge => (413, "request body too large".to_string()),
                        ReadError::Malformed(m) => (400, m),
                        ReadError::Closed => unreachable!("handled above"),
                    };
                    inner
                        .metrics
                        .record("(unreadable)", status, micros(read_started));
                    inner.metrics.read_error_total.inc();
                    refuse(stream, status, message);
                    return;
                }
            };
        // The endpoint clock starts once the request is read, so a
        // keep-alive peer's idle time never counts as latency.
        let started = Instant::now();
        if served > 0 {
            inner.metrics.keepalive_reused_total.inc();
        }
        let routed = {
            let _span = milr_obs::span::enter("serve.request");
            catch_unwind(AssertUnwindSafe(|| (inner.router)(&request)))
        };
        let Ok((endpoint, action)) = routed else {
            // The panic stays in this request: answer it, close the
            // connection, and keep the handler thread serving.
            inner.metrics.record("(panicked)", 500, micros(started));
            inner.metrics.panicked_total.inc();
            refuse(stream, 500, "request handler panicked");
            return;
        };
        let (reply, wants_drain) = match action {
            Action::Reply(reply) => (reply, false),
            Action::Shutdown(reply) => (reply, true),
        };
        served += 1;
        // Pipelined bytes are always finished first; at a burst
        // boundary the worker closes if other connections wait. Both a
        // request-count and a worker-time boundary, because request
        // costs span microseconds to seconds.
        let at_burst_boundary = served.is_multiple_of(config.node.keepalive_burst.max(1))
            || turn_started.elapsed() >= config.node.keepalive_turn;
        let keep = !wants_drain
            && served < config.keepalive_requests
            && !request.wants_close()
            && !inner.shutdown.load(Ordering::SeqCst)
            && (!pending.is_empty()
                || !at_burst_boundary
                || inner.queue.lock().expect("accept queue mutex").is_empty());
        inner
            .metrics
            .record(endpoint, reply.status, micros(started));
        let io = respond(&mut stream, &reply, keep);
        if wants_drain {
            request_shutdown(inner);
        }
        if io.is_err() || !keep {
            inner.metrics.completed_total.inc();
            drain_before_close(&mut stream);
            return;
        }
        if served == 1 {
            stream.set_read_timeout(Some(config.idle_timeout)).ok();
        }
    }
}

fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// Writes one reply with the given `Connection` disposition.
fn respond(stream: &mut TcpStream, reply: &Reply, keep_alive: bool) -> std::io::Result<()> {
    match &reply.body {
        Body::Json(json) => http::respond_bytes(
            stream,
            reply.status,
            "application/json",
            json.dump().as_bytes(),
            keep_alive,
        ),
        Body::Bytes(content_type, data) => {
            http::respond_bytes(stream, reply.status, content_type, data, keep_alive)
        }
    }
}

/// Answers an error and closes the connection.
fn refuse(mut stream: TcpStream, status: u16, message: impl Into<String>) {
    respond(&mut stream, &Reply::error(status, message), false).ok();
    drain_before_close(&mut stream);
}

/// Consumes (bounded) whatever the peer already sent before the socket
/// closes. Required on every path that responds without reading the
/// full request: closing with unread bytes in the receive buffer makes
/// the kernel send an RST, which can discard the in-flight response
/// before the client reads it — a shed would then look like a
/// connection reset instead of a clean `503`.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::Write;

    fn start_echo_node(workers: usize) -> (Node, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::default());
        let node = Node::start(
            NodeOptions {
                workers,
                read_timeout: Duration::from_millis(400),
                ..NodeOptions::default()
            },
            Arc::clone(&metrics),
            Box::new(|req: &Request| match req.path.as_str() {
                "/echo" => (
                    "/echo",
                    Action::Reply(Reply::json(
                        200,
                        Json::Obj(vec![("len".into(), Json::num(req.body.len() as f64))]),
                    )),
                ),
                "/thread" => (
                    "/thread",
                    Action::Reply(Reply::json(
                        200,
                        Json::str(format!("{:?}", std::thread::current().id())),
                    )),
                ),
                "/panic" => panic!("handler fault injected by the test router"),
                "/admin/shutdown" => (
                    "/admin/shutdown",
                    Action::Shutdown(Reply::json(200, Json::Obj(vec![]))),
                ),
                _ => ("other", Action::Reply(Reply::error(404, "no such route"))),
            }),
        )
        .expect("node starts");
        (node, metrics)
    }

    fn await_quiescence(metrics: &Metrics, accepted: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !(metrics.connections_balanced() && metrics.accepted_total.get() == accepted) {
            assert!(Instant::now() < deadline, "node never quiesced");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        let (node, metrics) = start_echo_node(4);
        let mut conn = client::Connection::new(node.addr(), Duration::from_secs(2));
        for i in 0..16 {
            let response = conn
                .post_json("/echo", &Json::Obj(vec![("i".into(), Json::num(i as f64))]))
                .expect("keep-alive request");
            assert_eq!(response.status, 200);
        }
        assert_eq!(conn.dials(), 1, "all 16 requests reuse one socket");
        assert_eq!(metrics.accepted_total.get(), 1);
        assert_eq!(metrics.keepalive_reused_total.get(), 15);
        // Idle past the read timeout: the node counts the connection
        // completed and the law balances at quiescence.
        std::thread::sleep(Duration::from_millis(600));
        assert!(metrics.connections_balanced());
        assert_eq!(metrics.completed_total.get(), 1);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn connection_close_and_probes_resolve_distinctly() {
        let (node, metrics) = start_echo_node(4);
        // One-shot client sends Connection: close → completed.
        let response = client::get(node.addr(), "/echo", Duration::from_secs(2)).expect("one-shot");
        assert_eq!(response.status, 200);
        // A probe that connects and closes without a byte → closed.
        drop(TcpStream::connect(node.addr()).expect("probe connects"));
        // Garbage → read_error (and a 400).
        let mut garbage = TcpStream::connect(node.addr()).expect("garbage connects");
        garbage.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        garbage.read_to_end(&mut raw).ok();
        assert!(String::from_utf8_lossy(&raw).contains("400"), "{raw:?}");
        drop(garbage);
        await_quiescence(&metrics, 3);
        assert_eq!(metrics.completed_total.get(), 1);
        assert_eq!(metrics.closed_total.get(), 1);
        assert_eq!(metrics.read_error_total.get(), 1);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn a_panicking_handler_costs_one_request_not_the_worker() {
        // One handler thread: if the panic took it down, nothing after
        // the 500 would ever be served.
        let (node, metrics) = start_echo_node(1);
        let thread_of = || {
            let response =
                client::get(node.addr(), "/thread", Duration::from_secs(2)).expect("thread route");
            assert_eq!(response.status, 200);
            response.json().unwrap().as_str().unwrap().to_string()
        };
        let before = thread_of();

        let mut raw = TcpStream::connect(node.addr()).expect("connects");
        raw.write_all(b"GET /panic HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply)
            .expect("the 500 arrives before the close");
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 500 "), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");

        assert_eq!(thread_of(), before, "the same worker serves on");
        await_quiescence(&metrics, 3);
        assert_eq!(metrics.panicked_total.get(), 1);
        assert_eq!(metrics.completed_total.get(), 2);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn shutdown_endpoint_drains_the_node() {
        let (node, _) = start_echo_node(4);
        let addr = node.addr();
        let response = client::post_json(
            addr,
            "/admin/shutdown",
            &Json::Obj(vec![]),
            Duration::from_secs(2),
        )
        .expect("shutdown accepted");
        assert_eq!(response.status, 200);
        node.wait();
        assert!(
            client::get(addr, "/echo", Duration::from_millis(300)).is_err(),
            "drained node no longer serves"
        );
    }
}
