//! The one TCP front end — accept loop, bounded worker pool, first-frame
//! routing, the session loop — generic over the [`Backend`] that answers
//! requests, plus a node's background maintenance thread.
//!
//! Both linkage-unit roles serve through it: a node's tenant set
//! ([`ServerBackend`], see [`serve_auth`]) and the cluster coordinator
//! (`pprl-cluster`'s `serve_cluster_auth`). [`serve_backend`] is
//! monomorphised per backend, so the seam costs no dynamic dispatch.
//! Everything above it is shared: the wire v4 handshake against an
//! [`AuthRegistry`], tenant resolution once per connection, `Shutdown`,
//! and the `Busy` count. A backend only names its tenants and answers
//! requests.
//!
//! One connection is one job. The acceptor never blocks the world: the
//! listener is non-blocking and polls the shutdown flag; a connection
//! that does not fit in the bounded queue is answered immediately with
//! `Busy {retry_after}` and closed — the front end's memory use is
//! bounded by `workers + queue_capacity` sessions no matter the offered
//! load. Workers poll the queue with a short timeout, and session
//! sockets carry a short read timeout, so every thread observes a
//! shutdown request within ~100 ms without any platform-specific socket
//! tricks. Sockets also carry a write timeout, and a connection idle for
//! longer than [`ServerConfig::idle_timeout`] is closed — a stalled or
//! half-closed client can delay a worker, never pin it indefinitely.
//! The maintenance thread flushes acked inserts into segments and runs
//! compaction on each tick. It treats a failed step as transient: it
//! backs off exponentially (capped) and retries rather than dying.

use crate::pool::BoundedQueue;
use crate::service::LinkageService;
use crate::wire::{write_payload, Request, Response};
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge::foreground;
use pprl_session::channel::{IncomingRef, SecureChannel, SESSION_WIRE_VERSION};
use pprl_session::frame::{read_payload_into, IncomingLen};
use pprl_session::handshake::server_handshake;
use pprl_session::keys::entropy_rng;
use pprl_session::registry::AuthRegistry;
use pprl_session::suite::SuiteOffer;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocked reads/pops wait before re-checking the shutdown
/// flag. Bounds shutdown latency; invisible to throughput.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Tunables for [`serve_auth`] and every other front end. `cache_capacity`
/// and `compact_interval` configure a node's index and are ignored by
/// other backends.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads serving sessions.
    pub workers: usize,
    /// Bounded connection-queue capacity; overflow is rejected with
    /// `Busy` rather than buffered.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables).
    pub cache_capacity: usize,
    /// Back-off hint sent with `Busy` rejections, in milliseconds.
    pub retry_after_ms: u32,
    /// Interval between background flush-and-compaction steps; `None`
    /// disables the maintenance thread entirely (inserts then flush
    /// inline once enough rows are pending).
    pub compact_interval: Option<Duration>,
    /// Write timeout on accepted sockets: a client that stops draining
    /// responses is disconnected instead of pinning a worker.
    pub write_timeout: Duration,
    /// An established session that completes no frame for this long is
    /// closed (the read side of the anti-pinning guarantee).
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            retry_after_ms: 50,
            compact_interval: Some(Duration::from_millis(500)),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServerConfig {
    /// Rejects a config no front end can run, and an empty registry
    /// (every client would be refused).
    fn preflight(&self, registry: &AuthRegistry) -> Result<()> {
        if self.workers == 0 {
            return Err(PprlError::invalid("workers", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(PprlError::invalid("queue_capacity", "must be at least 1"));
        }
        if self.write_timeout.is_zero() {
            return Err(PprlError::invalid("write_timeout", "must be non-zero"));
        }
        if self.idle_timeout.is_zero() {
            return Err(PprlError::invalid("idle_timeout", "must be non-zero"));
        }
        if registry.is_empty() {
            return Err(PprlError::Auth(
                "auth registry is empty: no identities would be able to connect".into(),
            ));
        }
        Ok(())
    }
}

/// What a front end serves: the seam between the shared accept, worker
/// and session loops and the code that answers requests.
///
/// The front end resolves each connection's tenant once, from its
/// handshake, and hands every request except `Shutdown` to
/// [`Backend::dispatch`]. It fills
/// `workers` and `queue_capacity` into a `Stats` reply and adds its own
/// `busy_rejected` count, since a `Busy` rejection happens before any
/// tenant is known.
pub trait Backend: Send + Sync + 'static {
    /// What a connection's tenant resolves to.
    type Tenant;
    /// How refusals name this front end (`server`, `cluster front end`).
    const NAME: &'static str;

    /// Resolves a tenant name. `Err` carries the refusal sent in reply
    /// to the connection's first request, after which it is closed.
    fn tenant(&self, name: &str) -> std::result::Result<Self::Tenant, String>;

    /// Answers one request other than `Shutdown`.
    fn dispatch(&self, tenant: &Self::Tenant, request: Request) -> Result<Response>;
}

/// The set of tenant namespaces one server process hosts: each tenant
/// name maps to its own [`LinkageService`] over its own index directory
/// — disjoint stores, snapshots, caches, and metrics, so per-tenant
/// `STATS` are exactly what a dedicated single-tenant server would
/// report.
pub struct ServerBackend {
    entries: Vec<(String, Arc<LinkageService>)>,
}

impl ServerBackend {
    /// The service for `tenant`, if this server hosts it.
    pub fn service(&self, tenant: &str) -> Option<&Arc<LinkageService>> {
        self.entries
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, svc)| svc)
    }

    /// The first (default) tenant's service.
    pub fn default_service(&self) -> &Arc<LinkageService> {
        &self.entries[0].1
    }
}

impl Backend for ServerBackend {
    type Tenant = Arc<LinkageService>;
    const NAME: &'static str = "server";

    fn tenant(&self, name: &str) -> std::result::Result<Arc<LinkageService>, String> {
        // A privileged identity may name any tenant at handshake; only
        // some tenants have an index on this node.
        self.service(name)
            .cloned()
            .ok_or_else(|| format!("tenant `{name}` has no index namespace on this server"))
    }

    fn dispatch(&self, service: &Arc<LinkageService>, request: Request) -> Result<Response> {
        // A core serving a request is not idle: scan helpers yield to it.
        let _busy = foreground();
        match request {
            Request::Query { filter, k } => service.query(&filter, k as usize).map(Response::Hits),
            Request::Link {
                probes,
                k,
                min_score,
            } => service
                .link(&probes, k as usize, min_score)
                .map(Response::LinkHits),
            Request::Insert { records } => {
                service
                    .insert(&records)
                    .map(|generation| Response::Inserted {
                        count: records.len() as u32,
                        generation,
                    })
            }
            // The front end fills in its own pool size.
            Request::Stats => Ok(Response::Stats(service.stats_report(0, 0))),
            Request::Shutdown => unreachable!("handled by the front end"),
        }
    }
}

/// Everything the front end's threads share.
struct FrontEnd<B> {
    backend: Arc<B>,
    registry: AuthRegistry,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Connections rejected with `Busy`.
    busy_rejected: AtomicU64,
}

impl<B: Backend> FrontEnd<B> {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Counts one timed-out read — one `POLL_INTERVAL` of silence —
    /// against a session's idle cap; true once the session should close.
    fn idle_out(&self, idle: &mut Duration) -> bool {
        *idle += POLL_INTERVAL;
        *idle >= self.config.idle_timeout
    }

    fn dispatch(&self, tenant: &B::Tenant, request: Request) -> Response {
        match self.backend.dispatch(tenant, request) {
            Ok(Response::Stats(mut report)) => {
                report.workers = self.config.workers as u32;
                report.queue_capacity = self.config.queue_capacity as u32;
                report.busy_rejected += self.busy_rejected.load(Ordering::Relaxed);
                Ok(Response::Stats(report))
            }
            other => other,
        }
        .unwrap_or_else(|e| server_error(&e))
    }
}

/// A running front end; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown_now`] or send a `Shutdown` request.
pub struct ServerHandle<B = ServerBackend> {
    addr: SocketAddr,
    front: Arc<FrontEnd<B>>,
    threads: Vec<JoinHandle<()>>,
}

impl<B: Backend> ServerHandle<B> {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend being served (for in-process inspection and tests).
    pub fn backend(&self) -> &Arc<B> {
        &self.front.backend
    }

    /// Waits for every front-end thread to exit. Returns the backend so
    /// callers can read final stats.
    pub fn join(self) -> Arc<B> {
        for t in self.threads {
            let _ = t.join();
        }
        Arc::clone(&self.front.backend)
    }

    /// Requests shutdown and waits for it to complete.
    pub fn shutdown_now(self) -> Arc<B> {
        self.front.shutdown.store(true, Ordering::SeqCst);
        self.join()
    }
}

impl ServerHandle<ServerBackend> {
    /// The default tenant's service (for in-process inspection and tests).
    pub fn service(&self) -> &Arc<LinkageService> {
        self.front.backend.default_service()
    }
}

/// Serves the index namespaces under `root` on `addr` (e.g.
/// `"127.0.0.1:0"` to bind an ephemeral port). Returns immediately;
/// the returned handle owns the acceptor, worker, and maintenance
/// threads.
///
/// Every connection must complete the wire v4 handshake against
/// `registry`. The directory layout under `root` follows a simple rule:
/// if `root` itself contains a `MANIFEST` it is served as the single
/// tenant `default`; otherwise each tenant named by the registry's
/// grants is served from `root/<tenant>`, which must already hold an
/// index.
pub fn serve_auth(
    root: &Path,
    addr: &str,
    config: ServerConfig,
    registry: AuthRegistry,
) -> Result<ServerHandle> {
    config.preflight(&registry)?;
    let mut entries = Vec::new();
    if root.join("MANIFEST").exists() {
        let service = LinkageService::open(root, config.cache_capacity)?;
        entries.push(("default".to_string(), Arc::new(service)));
    } else {
        for tenant in registry.tenants() {
            let dir = root.join(&tenant);
            if !dir.join("MANIFEST").exists() {
                return Err(PprlError::Storage(format!(
                    "tenant `{tenant}` has no index at {} (expected a MANIFEST)",
                    dir.display()
                )));
            }
            let service = LinkageService::open(&dir, config.cache_capacity)?;
            entries.push((tenant, Arc::new(service)));
        }
    }
    if entries.is_empty() {
        return Err(PprlError::Auth(
            "no tenant namespaces to serve: grant at least one identity a named tenant".into(),
        ));
    }
    let mut handle = serve_backend(Arc::new(ServerBackend { entries }), addr, config, registry)?;
    if let Some(interval) = config.compact_interval {
        let front = Arc::clone(&handle.front);
        handle.threads.push(std::thread::spawn(move || {
            maintenance_loop(&front.backend, &front.shutdown, interval);
        }));
    }
    Ok(handle)
}

/// Serves `backend` on `addr` through the shared front end, to wire v4
/// sessions authenticated against `registry` only. Returns
/// immediately; the handle owns the acceptor and worker threads.
pub fn serve_backend<B: Backend>(
    backend: Arc<B>,
    addr: &str,
    config: ServerConfig,
    registry: AuthRegistry,
) -> Result<ServerHandle<B>> {
    config.preflight(&registry)?;
    let listener = TcpListener::bind(addr)
        .map_err(|e| PprlError::Transport(format!("binding {addr}: {e}")))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| PprlError::Transport(format!("resolving bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| PprlError::Transport(format!("setting listener non-blocking: {e}")))?;

    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let front = Arc::new(FrontEnd {
        backend,
        registry,
        config,
        shutdown: AtomicBool::new(false),
        busy_rejected: AtomicU64::new(0),
    });

    let mut threads = Vec::with_capacity(config.workers + 2);
    for _ in 0..config.workers {
        let queue = Arc::clone(&queue);
        let front = Arc::clone(&front);
        threads.push(std::thread::spawn(move || worker_loop(&queue, &front)));
    }
    {
        let front = Arc::clone(&front);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &queue, &front);
        }));
    }

    Ok(ServerHandle {
        addr: local_addr,
        front,
        threads,
    })
}

fn accept_loop<B: Backend>(
    listener: &TcpListener,
    queue: &BoundedQueue<TcpStream>,
    front: &FrontEnd<B>,
) {
    while !front.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_write_timeout(Some(front.config.write_timeout));
                if let Err(mut rejected) = queue.try_push(stream) {
                    front.busy_rejected.fetch_add(1, Ordering::Relaxed);
                    let busy = Response::Busy {
                        retry_after_ms: front.config.retry_after_ms,
                    };
                    let _ = write_payload(&mut rejected, &busy.encode());
                    // Dropping the stream closes the rejected connection.
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Stop producers; workers drain what's queued, then exit.
    queue.close();
}

fn worker_loop<B: Backend>(queue: &BoundedQueue<TcpStream>, front: &FrontEnd<B>) {
    loop {
        match queue.pop_timeout(POLL_INTERVAL) {
            Some(stream) => handle_session(stream, front),
            None => {
                if front.stopping() {
                    return;
                }
            }
        }
    }
}

fn maintenance_loop(backend: &ServerBackend, shutdown: &AtomicBool, interval: Duration) {
    let services = || backend.entries.iter().map(|(_, service)| service);
    let slice = Duration::from_millis(20);
    let mut failures: u32 = 0;
    'outer: loop {
        // Exponential backoff after failed steps (2x per consecutive
        // failure, capped at 32x the base interval) so a disk that is
        // briefly unwritable is not hammered every tick.
        let wait = interval.saturating_mul(1 << failures.min(5));
        let mut slept = Duration::ZERO;
        while slept < wait {
            if shutdown.load(Ordering::SeqCst) {
                break 'outer;
            }
            std::thread::sleep(slice);
            slept += slice;
        }
        // Compaction is best-effort maintenance: a failed step (e.g. a
        // transient I/O error) must not kill the serving path; a later
        // tick retries. One thread round-robins every tenant's store.
        let mut any_failed = false;
        for service in services() {
            if service.compact_step().is_err() {
                any_failed = true;
            }
        }
        failures = if any_failed {
            failures.saturating_add(1)
        } else {
            0
        };
    }
    // Acked rows are already in the WAL; flushing them on the way out
    // only spares the next open its replay.
    for service in services() {
        let _ = service.flush();
    }
}

fn server_error(e: &PprlError) -> Response {
    Response::ServerError {
        message: e.to_string(),
    }
}

/// Answers a connection that has no session (yet) with a plaintext
/// `ServerError`, best-effort; the caller then closes it.
fn refuse(stream: &mut TcpStream, message: String) {
    let _ = write_payload(stream, &Response::ServerError { message }.encode());
}

/// Who is on the other end of a session, fixed by its handshake.
struct Peer<T> {
    /// The authenticated identity.
    identity: String,
    /// May send `Shutdown` (the any-tenant grant).
    privileged: bool,
    /// The connection's tenant, resolved once.
    tenant: std::result::Result<T, String>,
}

/// Routes one connection on its first frame, then serves it until EOF,
/// shutdown, or a broken frame.
///
/// A payload leading with the session version byte enters the wire v4
/// handshake; anything else — a plaintext wire v3 request among them —
/// is refused with a plaintext `ServerError` naming the problem, since
/// no session keys exist yet to say it authenticated.
fn handle_session<B: Backend>(mut stream: TcpStream, front: &FrontEnd<B>) {
    let mut buf = Vec::new();
    let mut idle = Duration::ZERO;
    let first = loop {
        if front.stopping() {
            return;
        }
        match read_payload_into(&mut stream, &mut buf) {
            Ok(IncomingLen::Payload(len)) => break len,
            Ok(IncomingLen::TimedOut) if !front.idle_out(&mut idle) => {}
            Ok(_) => return, // EOF, or silent past the idle cap
            Err(e) => return refuse(&mut stream, e.to_string()),
        }
    };
    if buf[0] != SESSION_WIRE_VERSION {
        return refuse(
            &mut stream,
            format!(
                "authentication required: this {} only accepts wire v4 sessions \
                 (connect with an identity and key)",
                B::NAME
            ),
        );
    }
    let mut rng = entropy_rng();
    // On failure the handshake has already sent the typed AUTH_ERROR
    // where one is safe to send; just close.
    if let Ok(session) = server_handshake(
        &mut stream,
        &buf[..first],
        &front.registry,
        &mut rng,
        SuiteOffer::all(),
    ) {
        let peer = Peer {
            tenant: front.backend.tenant(&session.tenant),
            identity: session.identity,
            privileged: session.privileged,
        };
        serve_session(stream, session.channel, &peer, front);
    }
}

/// The session loop.
///
/// A frame that fails its MAC or sequence check closes the connection
/// without a reply — a forger gets no feedback beyond the drop. A frame
/// that arrives intact but does not decode is answered with a
/// `ServerError` and the session keeps serving.
///
/// Requests decode straight out of the channel's receive buffer, which
/// it reuses, so a steady-state request reads without heap allocation
/// inside the record layer.
fn serve_session<B: Backend>(
    mut stream: TcpStream,
    mut channel: SecureChannel,
    peer: &Peer<B::Tenant>,
    front: &FrontEnd<B>,
) {
    let mut idle = Duration::ZERO;
    loop {
        if front.stopping() {
            return;
        }
        // `Request` owns its fields, so the borrow of the receive buffer
        // ends here and the channel is free to send the response.
        let decoded = match channel.recv_ref(&mut stream) {
            Ok(IncomingRef::Payload(payload)) => Request::decode(payload),
            Ok(IncomingRef::TimedOut) if !front.idle_out(&mut idle) => continue,
            // EOF, silent past the idle cap, or a broken frame
            _ => return,
        };
        idle = Duration::ZERO;
        let tenant = match &peer.tenant {
            Ok(tenant) => tenant,
            Err(message) => {
                let refusal = Response::ServerError {
                    message: message.clone(),
                };
                let _ = channel.send(&mut stream, &refusal.encode());
                return;
            }
        };
        let response = match decoded {
            Ok(Request::Shutdown) if peer.privileged => {
                let _ = channel.send(&mut stream, &Response::Bye.encode());
                front.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Ok(Request::Shutdown) => server_error(&PprlError::Auth(format!(
                "identity `{}` is not privileged to shut down the {}",
                peer.identity,
                B::NAME
            ))),
            Err(e) => server_error(&e),
            Ok(request) => front.dispatch(tenant, request),
        };
        if channel.send(&mut stream, &response.encode()).is_err() {
            return; // peer went away mid-response
        }
    }
}
