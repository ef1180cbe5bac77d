//! A blocking client for the `pprl-server` wire protocol over an
//! authenticated wire v4 session.

use crate::wire::{Request, Response, StatsReport};
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::hash::fnv1a;
use pprl_core::rng::SplitMix64;
use pprl_index::query::Hit;
use pprl_session::channel::{IncomingRef, SecureChannel};
use pprl_session::handshake::{client_handshake, ClientAuth, HandshakeOutcome};
use pprl_session::keys::entropy_rng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Ceiling on one `Busy` backoff sleep, in milliseconds.
const MAX_BACKOFF_MS: u64 = 2000;

/// Call deadline of a client that was not given one (see
/// [`Client::set_deadline`]).
const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// Ceiling on one blocking socket read or write. A call deadline
/// shorter than this lowers it further (see [`Client::set_deadline`]).
const MAX_IO_WAIT: Duration = Duration::from_secs(30);

/// Sets the socket's read and write timeouts to `min(deadline, 30 s)`.
/// Blocking I/O can only notice the call deadline when it wakes, so the
/// wake-up interval must not exceed the deadline: a peer that accepts
/// and goes silent then costs at most one timeout past the deadline
/// (a typed `Timeout` within 2 × deadline), and one that stops draining
/// fails the write instead of pinning the caller in `write_all`.
fn set_io_timeouts(stream: &TcpStream, deadline: Duration) -> std::io::Result<()> {
    let wait = Some(deadline.min(MAX_IO_WAIT));
    stream.set_read_timeout(wait)?;
    stream.set_write_timeout(wait)
}

/// Seeds the backoff jitter so concurrent clients rejected by the same
/// burst do not retry in lockstep: a hash of the address mixed with
/// sub-second wall-clock nanoseconds.
fn jitter_seed(addr: &str) -> u64 {
    let h = fnv1a(addr.as_bytes());
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    h ^ nanos
}

/// Sleeps out the backoff after the `attempt`-th `Busy` (from 1) with
/// hint `retry_after_ms`: `base = retry_after·2^min(attempt−1, 6)`,
/// capped at [`MAX_BACKOFF_MS`], slept for a random `[base/2, base]` so
/// a burst of rejected clients does not retry in phase. A sleep that
/// would reach `deadline` (the end of a `budget` started earlier) is a
/// busy `Timeout` instead.
fn back_off(
    rng: &mut SplitMix64,
    retry_after_ms: u32,
    attempt: u32,
    deadline: Instant,
    budget: Duration,
) -> Result<()> {
    let base = u64::from(retry_after_ms.max(1))
        .saturating_mul(1 << (attempt - 1).min(6))
        .min(MAX_BACKOFF_MS);
    let wait = Duration::from_millis(base / 2 + rng.next_below(base / 2 + 1));
    if Instant::now() + wait >= deadline {
        return Err(PprlError::Timeout(format!(
            "server still busy after {attempt} attempts within the {} ms deadline",
            budget.as_millis()
        )));
    }
    std::thread::sleep(wait);
    Ok(())
}

/// Opens a TCP connection to `addr`.
fn open_stream(addr: &str) -> Result<TcpStream> {
    TcpStream::connect(addr).map_err(|e| PprlError::Transport(format!("connecting to {addr}: {e}")))
}

/// A connected client. One request is in flight at a time; the
/// connection persists across requests.
///
/// Every connection (including reconnects after `Busy` rejections) runs
/// the wire v4 handshake with the client's [`ClientAuth`], and all
/// traffic travels in authenticated — optionally encrypted — session
/// frames.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    channel: SecureChannel,
    auth: ClientAuth,
    addr: String,
    deadline: Duration,
    rng: SplitMix64,
    /// Retry hint of a `Busy` reply [`recv`](Client::recv) surfaced and
    /// no [`call`](Client::call) has absorbed yet. The server closed
    /// that connection before dispatch, so the next `call` backs off
    /// and reconnects before it sends.
    rejected: Option<u32>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) and authenticates
    /// with `auth`, under the default 60 s call deadline (see
    /// [`Client::connect_within`]).
    pub fn connect_with(addr: &str, auth: ClientAuth) -> Result<Client> {
        Self::connect_within(addr, auth, DEFAULT_DEADLINE)
    }

    /// [`Client::connect_with`] under the call deadline `deadline` (see
    /// [`Client::set_deadline`]), which also bounds the handshake: it
    /// absorbs pre-handshake `Busy` rejections with bounded backoff,
    /// like requests do, until `deadline` is spent, and its socket
    /// reads and writes time out as a call's do.
    pub fn connect_within(addr: &str, auth: ClientAuth, deadline: Duration) -> Result<Client> {
        Self::start(open_stream(addr)?, addr, auth, deadline)
    }

    /// Completes the handshake on a freshly connected `stream` and
    /// wraps it in a client with call deadline `deadline`.
    fn start(
        stream: TcpStream,
        addr: &str,
        auth: ClientAuth,
        deadline: Duration,
    ) -> Result<Client> {
        let deadline = deadline.max(Duration::from_millis(1));
        let mut rng = SplitMix64::new(jitter_seed(addr));
        let until = Instant::now() + deadline;
        let (stream, channel) = Self::establish(stream, addr, &auth, &mut rng, until, deadline)?;
        Ok(Client {
            stream,
            channel,
            auth,
            addr: addr.to_string(),
            deadline,
            rng,
            rejected: None,
        })
    }

    /// Completes the handshake on `stream`, reconnecting to `addr`
    /// through pre-handshake `Busy` rejections with backoff until
    /// `until`. Every socket's I/O timeouts follow `io_wait`, the call
    /// deadline.
    fn establish(
        mut stream: TcpStream,
        addr: &str,
        auth: &ClientAuth,
        rng: &mut SplitMix64,
        until: Instant,
        io_wait: Duration,
    ) -> Result<(TcpStream, SecureChannel)> {
        let mut attempt: u32 = 0;
        loop {
            stream
                .set_nodelay(true)
                .and_then(|()| set_io_timeouts(&stream, io_wait))
                .map_err(|e| PprlError::Transport(format!("configuring socket: {e}")))?;
            match client_handshake(&mut stream, auth, &mut entropy_rng())? {
                HandshakeOutcome::Established(channel) => return Ok((stream, *channel)),
                HandshakeOutcome::Busy { retry_after_ms } => {
                    attempt += 1;
                    back_off(rng, retry_after_ms, attempt, until, io_wait)?;
                    stream = open_stream(addr)?;
                }
            }
        }
    }

    /// Sets the overall per-call deadline (default 60 s): the budget one
    /// [`call`] may spend on the request, server think time, and any
    /// `Busy` backoff-and-retry cycles combined. Also lowers the
    /// socket's read and write timeouts to `min(deadline, 30 s)` — here,
    /// once, not per request — so a silent or stalled peer is noticed
    /// within 2 × `deadline`.
    ///
    /// [`call`]: Client::call
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline.max(Duration::from_millis(1));
        // Cannot fail on a live socket with a non-zero duration; if it
        // did, the previous (coarser) timeouts stay in force.
        let _ = set_io_timeouts(&self.stream, self.deadline);
    }

    /// [`Client::connect_retry_within`] under the default 60 s call
    /// deadline.
    pub fn connect_retry_with(
        addr: &str,
        auth: Option<ClientAuth>,
        attempts: u32,
        delay: Duration,
    ) -> Result<Client> {
        Self::connect_retry_within(addr, auth, attempts, delay, DEFAULT_DEADLINE)
    }

    /// [`Client::connect_within`], retrying the TCP connect up to
    /// `attempts` times with `delay` between tries — for racing a
    /// server that is still binding its port. Missing credentials are a
    /// typed `Auth` error before any socket is opened. Only a connect
    /// that fails (refused, unreachable) is retried: once a peer has
    /// accepted, whatever the handshake returns — an auth rejection, a
    /// close, a stall past `deadline` — is returned at once, since a
    /// retry would meet the same peer.
    pub fn connect_retry_within(
        addr: &str,
        auth: Option<ClientAuth>,
        attempts: u32,
        delay: Duration,
        deadline: Duration,
    ) -> Result<Client> {
        let auth = auth.ok_or_else(|| {
            PprlError::Auth(format!(
                "connecting to {addr} needs credentials: every session is authenticated"
            ))
        })?;
        let mut tries = 1;
        let stream = loop {
            match open_stream(addr) {
                Ok(stream) => break stream,
                Err(e) if tries >= attempts => return Err(e),
                Err(_) => {
                    tries += 1;
                    std::thread::sleep(delay);
                }
            }
        };
        Self::start(stream, addr, auth, deadline)
    }

    /// Sends one request and reads one response, absorbing `Busy`
    /// rejections with bounded exponential backoff plus jitter until
    /// the call deadline (see [`set_deadline`]) runs out. A rejected
    /// connection was closed server-side *before* dispatch, so the
    /// request was never processed and resending after a reconnect is
    /// safe. `ServerError` replies are surfaced as typed errors (by
    /// [`recv`]) so the typed helpers below only see their success
    /// shape.
    ///
    /// A call is [`send`] then [`recv`]; the backoff step runs only
    /// after a `Busy` — including one that an earlier bare `recv`
    /// handed to its caller.
    ///
    /// [`set_deadline`]: Client::set_deadline
    /// [`send`]: Client::send
    /// [`recv`]: Client::recv
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        let deadline = Instant::now() + self.deadline;
        let encoded = request.encode();
        let mut attempt: u32 = 0;
        loop {
            if let Some(retry_after_ms) = self.rejected.take() {
                attempt += 1;
                back_off(
                    &mut self.rng,
                    retry_after_ms,
                    attempt,
                    deadline,
                    self.deadline,
                )?;
                // The server closed the rejected connection; the
                // client re-handshakes on a new one.
                let (stream, channel) = Self::establish(
                    open_stream(&self.addr)?,
                    &self.addr,
                    &self.auth,
                    &mut self.rng,
                    deadline,
                    self.deadline,
                )?;
                self.stream = stream;
                self.channel = channel;
            }
            self.send(&encoded)?;
            match self.recv(deadline)? {
                Response::Busy { .. } => {} // `recv` kept the retry hint
                other => return Ok(other),
            }
        }
    }

    /// First half of a [`call`](Client::call): writes one
    /// already-encoded request payload (the bytes of
    /// [`Request::encode`]) as one sealed frame. One request is in
    /// flight per connection: every `send` is followed by exactly one
    /// [`recv`](Client::recv).
    pub fn send(&mut self, encoded: &[u8]) -> Result<()> {
        self.channel.send(&mut self.stream, encoded)
    }

    /// Second half of a [`call`](Client::call): reads the one response
    /// owed for the last [`send`](Client::send). Gives up with a typed
    /// `Timeout` when a blocking read wakes past the absolute
    /// `deadline`; a reply that is already buffered is still read,
    /// however late the caller comes for it. `ServerError` becomes a
    /// typed error. `Busy` is returned as it is: the server closed this
    /// connection before dispatch, so the request is unprocessed, and
    /// the next `call` backs off and reconnects before it sends.
    pub fn recv(&mut self, deadline: Instant) -> Result<Response> {
        let closed =
            || PprlError::Transport("server closed the connection before responding".into());
        loop {
            // Decodes straight out of the channel's receive buffer (no
            // per-response copy).
            let response = match self.channel.recv_ref(&mut self.stream)? {
                IncomingRef::Payload(p) => Some(Response::decode(p)?),
                IncomingRef::TimedOut => None,
                IncomingRef::Eof => return Err(closed()),
            };
            match response {
                Some(Response::ServerError { message }) => {
                    return Err(PprlError::ProtocolError(format!(
                        "server rejected request: {message}"
                    )))
                }
                Some(other) => {
                    if let Response::Busy { retry_after_ms } = other {
                        self.rejected = Some(retry_after_ms);
                    }
                    return Ok(other);
                }
                // Server still working.
                None if Instant::now() < deadline => {}
                None => {
                    return Err(PprlError::Timeout(format!(
                        "no response from server within {} ms",
                        self.deadline.as_millis()
                    )))
                }
            }
        }
    }

    fn unexpected(got: &Response) -> PprlError {
        PprlError::Transport(format!("unexpected response type: {got:?}"))
    }

    /// Top-k Dice query for one filter.
    pub fn query(&mut self, filter: &BitVec, k: usize) -> Result<Vec<Hit>> {
        let resp = self.call(&Request::Query {
            filter: filter.clone(),
            k: k as u32,
        })?;
        match resp {
            Response::Hits(hits) => Ok(hits),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Batch link: per-probe top-k hits at or above `min_score`.
    pub fn link(&mut self, probes: &[BitVec], k: usize, min_score: f64) -> Result<Vec<Vec<Hit>>> {
        let resp = self.call(&Request::Link {
            probes: probes.to_vec(),
            k: k as u32,
            min_score,
        })?;
        match resp {
            Response::LinkHits(hits) => Ok(hits),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Appends records; returns `(count, new generation)`.
    pub fn insert(&mut self, records: &[(u64, BitVec)]) -> Result<(u32, u64)> {
        let resp = self.call(&Request::Insert {
            records: records.to_vec(),
        })?;
        match resp {
            Response::Inserted { count, generation } => Ok((count, generation)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetches the server's stats surface.
    pub fn stats(&mut self) -> Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks the server to shut down; resolves once `Bye` arrives.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }
}
