//! The TCP front end: accept loop, bounded worker pool, sessions, and
//! the background maintenance thread.
//!
//! One connection is one job. The acceptor never blocks the world: the
//! listener is non-blocking and polls the shutdown flag; a connection
//! that does not fit in the bounded queue is answered immediately with
//! `Busy {retry_after}` and closed — the server's memory use is bounded
//! by `workers + queue_capacity` sessions no matter the offered load.
//! Workers poll the queue with a short timeout, and session sockets
//! carry a short read timeout, so every thread observes a shutdown
//! request within ~100 ms without any platform-specific socket tricks.
//! Sockets also carry a write timeout, and a connection idle for longer
//! than [`ServerConfig::idle_timeout`] is closed — a stalled or
//! half-closed client can delay a worker, never pin it indefinitely.
//! The maintenance thread treats a failed compaction step as transient:
//! it backs off exponentially (capped) and retries rather than dying.

use crate::pool::BoundedQueue;
use crate::service::{LinkageService, ServiceConfig};
use crate::wire::{read_payload, write_payload, Incoming, Request, Response};
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge::foreground;
use pprl_index::store::TieredPolicy;
use pprl_session::channel::{IncomingRef, SESSION_WIRE_VERSION};
use pprl_session::handshake::{server_handshake, ServerSession};
use pprl_session::keys::entropy_rng;
use pprl_session::registry::AuthRegistry;
use pprl_session::suite::SuiteOffer;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocked reads/pops wait before re-checking the shutdown
/// flag. Bounds shutdown latency; invisible to throughput.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Tunables for [`serve`].
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
    /// Interval between background compaction steps; `None` disables
    /// the maintenance thread entirely.
    pub compact_interval: Option<Duration>,
    /// Size-tiered compaction policy for the maintenance thread.
    pub tiered: TieredPolicy,
    /// Write timeout on accepted sockets: a client that stops draining
    /// responses is disconnected instead of pinning a worker.
    pub write_timeout: Duration,
    /// An established session that completes no frame for this long is
    /// closed (the read side of the anti-pinning guarantee).
    pub idle_timeout: Duration,
    /// Record-layer cipher suites this server will negotiate. Defaults
    /// to all; pin with [`SuiteOffer::only`] to enforce a policy (a
    /// disjoint client is refused before any key material is spent).
    pub suites: SuiteOffer,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            retry_after_ms: 50,
            compact_interval: Some(Duration::from_millis(500)),
            tiered: TieredPolicy::default(),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            suites: SuiteOffer::all(),
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<()> {
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
        if self.suites.is_empty() {
            return Err(PprlError::invalid(
                "suites",
                "must allow at least one cipher suite",
            ));
        }
        Ok(())
    }
}

/// The set of tenant namespaces one server process hosts, plus (when
/// authentication is on) the identity registry gating access to them.
///
/// A plaintext server is the degenerate case: one tenant named
/// `default`, no registry. An authenticated server maps each tenant
/// name to its own [`LinkageService`] over its own index directory —
/// disjoint stores, snapshots, caches, and metrics, so per-tenant
/// `STATS` are exactly what a dedicated single-tenant server would
/// report.
pub struct ServerBackend {
    entries: Vec<(String, Arc<LinkageService>)>,
    registry: Option<AuthRegistry>,
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

    /// Tenant names hosted by this server, in load order.
    pub fn tenants(&self) -> Vec<&str> {
        self.entries.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// The identity registry, when authentication is enabled.
    pub fn registry(&self) -> Option<&AuthRegistry> {
        self.registry.as_ref()
    }
}

/// Everything a session needs, shared across threads.
struct ServerContext {
    backend: Arc<ServerBackend>,
    shutdown: Arc<AtomicBool>,
    workers: u32,
    queue_capacity: u32,
    retry_after_ms: u32,
    write_timeout: Duration,
    idle_timeout: Duration,
    suites: SuiteOffer,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown_now`] or send a `Shutdown` request.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    backend: Arc<ServerBackend>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The default tenant's service (for in-process inspection and tests).
    pub fn service(&self) -> &Arc<LinkageService> {
        self.backend.default_service()
    }

    /// The full tenant backend.
    pub fn backend(&self) -> &Arc<ServerBackend> {
        &self.backend
    }

    /// True once a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests an orderly shutdown without waiting for it.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for every server thread to exit. Returns the default
    /// tenant's service so callers can read final stats.
    pub fn join(self) -> Arc<LinkageService> {
        for t in self.threads {
            let _ = t.join();
        }
        Arc::clone(self.backend.default_service())
    }

    /// Requests shutdown and waits for it to complete.
    pub fn shutdown_now(self) -> Arc<LinkageService> {
        self.request_shutdown();
        self.join()
    }
}

/// Opens the index at `dir` and serves it on `addr` (e.g.
/// `"127.0.0.1:0"` to bind an ephemeral port). Returns immediately;
/// the returned handle owns the acceptor, worker, and maintenance
/// threads.
pub fn serve(dir: &Path, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
    config.validate()?;
    let service = open_service(dir, &config)?;
    let backend = ServerBackend {
        entries: vec![("default".to_string(), service)],
        registry: None,
    };
    serve_backend(backend, addr, config)
}

/// Serves with authentication and multi-tenant namespaces enabled.
///
/// Every connection must complete the wire v4 handshake against
/// `registry`; plaintext v3 requests are rejected. The directory layout
/// under `root` follows a simple rule: if `root` itself contains a
/// `MANIFEST` it is served as the single tenant `default`; otherwise
/// each tenant named by the registry's grants is served from
/// `root/<tenant>`, which must already hold an index.
pub fn serve_auth(
    root: &Path,
    addr: &str,
    config: ServerConfig,
    registry: AuthRegistry,
) -> Result<ServerHandle> {
    config.validate()?;
    if registry.is_empty() {
        return Err(PprlError::Auth(
            "auth registry is empty: no identities would be able to connect".into(),
        ));
    }
    let mut entries = Vec::new();
    if root.join("MANIFEST").exists() {
        entries.push(("default".to_string(), open_service(root, &config)?));
    } else {
        for tenant in registry.tenants() {
            let dir = root.join(&tenant);
            if !dir.join("MANIFEST").exists() {
                return Err(PprlError::Storage(format!(
                    "tenant `{tenant}` has no index at {} (expected a MANIFEST)",
                    dir.display()
                )));
            }
            let service = open_service(&dir, &config)?;
            entries.push((tenant, service));
        }
    }
    if entries.is_empty() {
        return Err(PprlError::Auth(
            "no tenant namespaces to serve: grant at least one identity a named tenant".into(),
        ));
    }
    let backend = ServerBackend {
        entries,
        registry: Some(registry),
    };
    serve_backend(backend, addr, config)
}

fn open_service(dir: &Path, config: &ServerConfig) -> Result<Arc<LinkageService>> {
    Ok(Arc::new(LinkageService::open(
        dir,
        ServiceConfig {
            cache_capacity: config.cache_capacity,
            tiered: config.tiered,
        },
    )?))
}

fn serve_backend(backend: ServerBackend, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
    let backend = Arc::new(backend);
    let listener = TcpListener::bind(addr)
        .map_err(|e| PprlError::Transport(format!("binding {addr}: {e}")))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| PprlError::Transport(format!("resolving bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| PprlError::Transport(format!("setting listener non-blocking: {e}")))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let context = Arc::new(ServerContext {
        backend: Arc::clone(&backend),
        shutdown: Arc::clone(&shutdown),
        workers: config.workers as u32,
        queue_capacity: config.queue_capacity as u32,
        retry_after_ms: config.retry_after_ms,
        write_timeout: config.write_timeout,
        idle_timeout: config.idle_timeout,
        suites: config.suites,
    });

    let mut threads = Vec::with_capacity(config.workers + 2);
    for _ in 0..config.workers {
        let queue = Arc::clone(&queue);
        let context = Arc::clone(&context);
        threads.push(std::thread::spawn(move || worker_loop(&queue, &context)));
    }
    {
        let queue = Arc::clone(&queue);
        let context = Arc::clone(&context);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &queue, &context);
        }));
    }
    if let Some(interval) = config.compact_interval {
        let services: Vec<Arc<LinkageService>> = backend
            .entries
            .iter()
            .map(|(_, svc)| Arc::clone(svc))
            .collect();
        let shutdown = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            maintenance_loop(&services, &shutdown, interval);
        }));
    }

    Ok(ServerHandle {
        addr: local_addr,
        shutdown,
        backend,
        threads,
    })
}

fn accept_loop(listener: &TcpListener, queue: &BoundedQueue<TcpStream>, context: &ServerContext) {
    while !context.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_write_timeout(Some(context.write_timeout));
                if let Err(mut rejected) = queue.try_push(stream) {
                    crate::metrics::Metrics::add(
                        &context.backend.default_service().metrics.busy_rejected,
                        1,
                    );
                    let busy = Response::Busy {
                        retry_after_ms: context.retry_after_ms,
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

fn worker_loop(queue: &BoundedQueue<TcpStream>, context: &ServerContext) {
    loop {
        match queue.pop_timeout(POLL_INTERVAL) {
            Some(stream) => handle_session(stream, context),
            None => {
                if context.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn maintenance_loop(services: &[Arc<LinkageService>], shutdown: &AtomicBool, interval: Duration) {
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
        // tick retries. reclaim_drained runs inside compact_step. One
        // thread round-robins every tenant's store.
        let mut any_failed = false;
        for service in services {
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
    for service in services {
        let _ = service.reclaim_drained();
    }
}

/// Serves one connection until EOF, shutdown, or a framing error.
///
/// The first frame routes the connection: a payload leading with the
/// session version byte enters the wire v4 handshake (when the server
/// has a registry), anything else is a plaintext wire v3 request (only
/// accepted when it does not). The mismatched combinations are both
/// rejected with a plaintext `ServerError` naming the problem, since
/// no session keys exist yet to say it authenticated.
fn handle_session(mut stream: TcpStream, context: &ServerContext) {
    let mut idle = Duration::ZERO;
    let first = loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_payload(&mut stream) {
            Ok(Incoming::TimedOut) => {
                idle += POLL_INTERVAL;
                if idle >= context.idle_timeout {
                    return;
                }
            }
            Ok(Incoming::Eof) => return,
            Ok(Incoming::Payload(payload)) => break payload,
            Err(e) => {
                let err = Response::ServerError {
                    message: e.to_string(),
                };
                let _ = write_payload(&mut stream, &err.encode());
                return;
            }
        }
    };

    match (context.backend.registry(), first.first()) {
        (Some(registry), Some(&SESSION_WIRE_VERSION)) => {
            let mut rng = entropy_rng();
            // On failure the handshake has already sent the typed
            // AUTH_ERROR where one is safe to send; just close.
            if let Ok(session) =
                server_handshake(&mut stream, &first, registry, &mut rng, context.suites)
            {
                serve_authenticated(stream, session, context);
            }
        }
        (Some(_), _) => {
            // Auth is on but the peer spoke plaintext v3: refuse before
            // interpreting anything.
            let err = Response::ServerError {
                message: "authentication required: this server only accepts \
                          wire v4 sessions (connect with an identity and key)"
                    .into(),
            };
            let _ = write_payload(&mut stream, &err.encode());
        }
        (None, Some(&SESSION_WIRE_VERSION)) => {
            let err = Response::ServerError {
                message: "this server is not configured for authenticated \
                          sessions (start it with an auth directory)"
                    .into(),
            };
            let _ = write_payload(&mut stream, &err.encode());
        }
        (None, _) => serve_plain(stream, first, context, idle),
    }
}

/// The plaintext wire v3 session loop, starting from an already-read
/// first payload.
fn serve_plain(mut stream: TcpStream, first: Vec<u8>, context: &ServerContext, mut idle: Duration) {
    let service = Arc::clone(context.backend.default_service());
    let mut pending = Some(first);
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match pending.take() {
            Some(p) => p,
            None => match read_payload(&mut stream) {
                Ok(Incoming::TimedOut) => {
                    // Each timed-out read is one POLL_INTERVAL of
                    // silence; a session idle past the cap is closed so
                    // it cannot pin its worker forever.
                    idle += POLL_INTERVAL;
                    if idle >= context.idle_timeout {
                        return;
                    }
                    continue;
                }
                Ok(Incoming::Eof) => return,
                Ok(Incoming::Payload(p)) => p,
                Err(e) => {
                    // Framing is broken (bad checksum / truncation): the
                    // byte stream can no longer be trusted, so answer
                    // best-effort and drop the connection.
                    let err = Response::ServerError {
                        message: e.to_string(),
                    };
                    let _ = write_payload(&mut stream, &err.encode());
                    return;
                }
            },
        };
        idle = Duration::ZERO;
        let response = match Request::decode(&payload) {
            Ok(Request::Shutdown) => {
                let _ = write_payload(&mut stream, &Response::Bye.encode());
                context.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            // The frame was checksum-intact, so the stream is
            // still in sync: report the bad body, keep serving.
            Err(e) => Response::ServerError {
                message: e.to_string(),
            },
            Ok(request) => dispatch(request, &service, context),
        };
        if write_payload(&mut stream, &response.encode()).is_err() {
            return; // peer went away mid-response
        }
    }
}

/// The authenticated session loop: every frame must open under the
/// session's keys before its inner opcode is even looked at. A frame
/// that fails its MAC or sequence check closes the connection without a
/// reply — a forger gets no feedback beyond the drop.
///
/// Frames are received with [`SecureChannel::recv_ref`] and decoded
/// in place: the channel's reusable buffers mean a steady-state
/// request/response cycle performs no heap allocation inside the
/// record layer.
fn serve_authenticated(mut stream: TcpStream, mut session: ServerSession, context: &ServerContext) {
    let service = context.backend.service(&session.tenant).cloned();
    let mut idle = Duration::ZERO;
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Decode while the frame is still borrowed from the channel's
        // receive buffer; `Request` owns its fields, so the borrow ends
        // here and the channel is free to send the response.
        let decoded = match session.channel.recv_ref(&mut stream) {
            Ok(IncomingRef::TimedOut) => {
                idle += POLL_INTERVAL;
                if idle >= context.idle_timeout {
                    return;
                }
                continue;
            }
            Ok(IncomingRef::Eof) => return,
            Ok(IncomingRef::Payload(inner)) => Request::decode(inner),
            Err(_) => return,
        };
        idle = Duration::ZERO;
        let Some(service) = service.as_ref() else {
            // A privileged identity may name any tenant at handshake;
            // only some tenants have an index on this node.
            let err = Response::ServerError {
                message: format!(
                    "tenant `{}` has no index namespace on this server",
                    session.tenant
                ),
            };
            let _ = session.channel.send(&mut stream, &err.encode());
            return;
        };
        let response = match decoded {
            Ok(Request::Shutdown) => {
                if session.privileged {
                    let _ = session.channel.send(&mut stream, &Response::Bye.encode());
                    context.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                Response::ServerError {
                    message: PprlError::Auth(format!(
                        "identity `{}` is not privileged to shut down the server",
                        session.identity
                    ))
                    .to_string(),
                }
            }
            Err(e) => Response::ServerError {
                message: e.to_string(),
            },
            Ok(request) => dispatch(request, service, context),
        };
        if session
            .channel
            .send(&mut stream, &response.encode())
            .is_err()
        {
            return;
        }
    }
}

fn dispatch(request: Request, service: &LinkageService, context: &ServerContext) -> Response {
    // A core serving a request is not idle: scan helpers yield to it.
    let _busy = foreground();
    let result = match request {
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
        Request::Stats => Ok(Response::Stats(
            service.stats_report(context.workers, context.queue_capacity),
        )),
        Request::Shutdown => unreachable!("handled by the session loop"),
    };
    result.unwrap_or_else(|e| Response::ServerError {
        message: e.to_string(),
    })
}
