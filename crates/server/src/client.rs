//! A blocking client for the `pprl-server` wire protocol, speaking
//! either plaintext wire v3 or an authenticated wire v4 session.

use crate::wire::{read_payload, write_payload, Incoming, Request, Response, StatsReport};
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::rng::SplitMix64;
use pprl_index::query::Hit;
use pprl_session::channel::{IncomingRef, SecureChannel};
use pprl_session::handshake::{client_handshake, ClientAuth, HandshakeOutcome};
use pprl_session::keys::entropy_rng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Ceiling on one `Busy` backoff sleep, in milliseconds.
const MAX_BACKOFF_MS: u64 = 2000;

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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    h ^ nanos
}

/// A connected client. One request is in flight at a time; the
/// connection persists across requests.
///
/// With [`Client::connect_with`] and a [`ClientAuth`], every connection
/// (including reconnects after `Busy` rejections) runs the wire v4
/// handshake and all traffic travels in authenticated — optionally
/// encrypted — session frames. Without one, the client speaks plaintext
/// wire v3 exactly as before.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    channel: Option<SecureChannel>,
    auth: Option<ClientAuth>,
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
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) in plaintext mode.
    pub fn connect(addr: &str) -> Result<Client> {
        Client::connect_with(addr, None)
    }

    /// Connects to `addr`, authenticating with `auth` when given. The
    /// handshake absorbs pre-handshake `Busy` rejections with bounded
    /// backoff, like requests do.
    pub fn connect_with(addr: &str, auth: Option<ClientAuth>) -> Result<Client> {
        let mut rng = SplitMix64::new(jitter_seed(addr));
        let call_deadline = Duration::from_secs(60);
        let deadline = Instant::now() + Duration::from_secs(30);
        let (stream, channel) =
            Self::establish(addr, auth.as_ref(), &mut rng, deadline, call_deadline)?;
        Ok(Client {
            stream,
            channel,
            auth,
            addr: addr.to_string(),
            deadline: call_deadline,
            rng,
            rejected: None,
        })
    }

    fn open_stream(addr: &str, call_deadline: Duration) -> Result<TcpStream> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| PprlError::Transport(format!("connecting to {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .and_then(|()| set_io_timeouts(&stream, call_deadline))
            .map_err(|e| PprlError::Transport(format!("configuring socket: {e}")))?;
        Ok(stream)
    }

    /// Opens a socket and, when authenticating, completes the handshake,
    /// backing off through pre-handshake `Busy` rejections until
    /// `deadline`. The socket's I/O timeouts follow `call_deadline`.
    fn establish(
        addr: &str,
        auth: Option<&ClientAuth>,
        rng: &mut SplitMix64,
        deadline: Instant,
        call_deadline: Duration,
    ) -> Result<(TcpStream, Option<SecureChannel>)> {
        let mut attempt: u32 = 0;
        loop {
            let mut stream = Self::open_stream(addr, call_deadline)?;
            let Some(auth) = auth else {
                return Ok((stream, None));
            };
            let mut hs_rng = entropy_rng();
            match client_handshake(&mut stream, auth, &mut hs_rng)? {
                HandshakeOutcome::Established(channel) => return Ok((stream, Some(*channel))),
                HandshakeOutcome::Busy { retry_after_ms } => {
                    attempt += 1;
                    let base = u64::from(retry_after_ms.max(1))
                        .saturating_mul(1 << (attempt - 1).min(6))
                        .min(MAX_BACKOFF_MS);
                    let wait = Duration::from_millis(base / 2 + rng.next_below(base / 2 + 1));
                    if Instant::now() + wait >= deadline {
                        return Err(PprlError::Timeout(format!(
                            "server still busy after {attempt} handshake attempts"
                        )));
                    }
                    std::thread::sleep(wait);
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

    /// Connects, retrying up to `attempts` times with `delay` between
    /// tries — for racing a server that is still binding its port.
    pub fn connect_retry(addr: &str, attempts: u32, delay: Duration) -> Result<Client> {
        Client::connect_retry_with(addr, None, attempts, delay)
    }

    /// [`Client::connect_retry`] with optional authentication. Auth
    /// rejections (wrong key, unknown identity, tenant mismatch) are
    /// returned immediately — retrying the same credentials cannot
    /// succeed, and hammering the handshake would only mask the real
    /// error behind a timeout.
    pub fn connect_retry_with(
        addr: &str,
        auth: Option<ClientAuth>,
        attempts: u32,
        delay: Duration,
    ) -> Result<Client> {
        let mut last = PprlError::Transport(format!("no attempt made connecting to {addr}"));
        for _ in 0..attempts.max(1) {
            match Client::connect_with(addr, auth.clone()) {
                Ok(c) => return Ok(c),
                Err(e @ (PprlError::Auth(_) | PprlError::CrossTenant { .. })) => return Err(e),
                Err(e) => last = e,
            }
            std::thread::sleep(delay);
        }
        Err(last)
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
                let base = u64::from(retry_after_ms.max(1))
                    .saturating_mul(1 << (attempt - 1).min(6))
                    .min(MAX_BACKOFF_MS);
                // Sleep in [base/2, base]: the random half keeps a
                // burst of rejected clients from retrying in phase.
                let wait = Duration::from_millis(base / 2 + self.rng.next_below(base / 2 + 1));
                if Instant::now() + wait >= deadline {
                    return Err(PprlError::Timeout(format!(
                        "server still busy after {attempt} attempts within the \
                         {} ms deadline",
                        self.deadline.as_millis()
                    )));
                }
                std::thread::sleep(wait);
                // The server closed the rejected connection; an
                // authenticated client re-handshakes on the new one.
                let (stream, channel) = Self::establish(
                    &self.addr,
                    self.auth.as_ref(),
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
    /// [`Request::encode`]) as one frame, sealed first on an
    /// authenticated session. One request is in flight per connection:
    /// every `send` is followed by exactly one [`recv`](Client::recv).
    pub fn send(&mut self, encoded: &[u8]) -> Result<()> {
        match &mut self.channel {
            Some(ch) => ch.send(&mut self.stream, encoded),
            None => write_payload(&mut self.stream, encoded),
        }
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
            // The authenticated path decodes straight out of the
            // channel's receive buffer (no per-response copy); the
            // plaintext path keeps its owned payload.
            let response = match &mut self.channel {
                Some(ch) => match ch.recv_ref(&mut self.stream)? {
                    IncomingRef::Payload(p) => Some(Response::decode(p)?),
                    IncomingRef::TimedOut => None,
                    IncomingRef::Eof => return Err(closed()),
                },
                None => match read_payload(&mut self.stream)? {
                    Incoming::Payload(p) => Some(Response::decode(&p)?),
                    Incoming::TimedOut => None,
                    Incoming::Eof => return Err(closed()),
                },
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
