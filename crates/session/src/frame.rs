//! The byte-level framing shared by every TCP peer in the workspace:
//! length prefix, payload, checksum.
//!
//! ```text
//! plen    u32 LE   payload length in bytes
//! payload          (wire v3 request/response, or a v4 session frame)
//! fnv1a   u64 LE   checksum of the length prefix + payload
//! ```
//!
//! The authenticated record layer and the plaintext protocol share
//! exactly this frame format — a v4 `HELLO` travels in the same
//! envelope as a v3 `STATS` — and `pprl-server::wire` re-exports this
//! module. The trailer is `pprl_core::codec`'s checksum trailer over
//! `plen ‖ payload`, verified with its single word compare; the
//! explicit length prefix turns every truncation into a detectable
//! short read. Every malformed frame is a typed [`PprlError::Transport`]
//! error. The checksum detects *accidents* only — an adversary can
//! recompute it; tamper resistance is the session layer's per-frame MAC
//! (see [`crate::channel::SecureChannel`]).
//!
//! A write that stalls past the socket's write timeout is a
//! [`PprlError::Timeout`], like a read that does; every other write
//! failure is `Transport`.

use pprl_core::codec::{append_checksum, checked_body};
use pprl_core::error::{PprlError, Result};
use std::io::{ErrorKind, Read, Write};

/// Hard cap on a frame payload (64 MiB): a garbled or hostile length
/// prefix must never make a peer allocate unbounded memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

fn transport_err(msg: impl Into<String>) -> PprlError {
    PprlError::Transport(msg.into())
}

/// What one blocking read attempt on a session socket produced.
#[derive(Debug)]
pub enum Incoming {
    /// A complete, checksum-verified frame payload.
    Payload(Vec<u8>),
    /// The peer closed the connection before a new frame started.
    Eof,
    /// The socket read timed out between frames (the caller should check
    /// its shutdown flag and try again).
    TimedOut,
}

/// [`Incoming`] for the buffer-reusing read path: the payload stays in
/// the caller's buffer, so only its length travels here.
#[derive(Debug, Clone, Copy)]
pub enum IncomingLen {
    /// A checksum-verified payload of this many bytes now fills the
    /// front of the caller's buffer.
    Payload(usize),
    /// The peer closed the connection before a new frame started.
    Eof,
    /// The socket read timed out between frames.
    TimedOut,
}

/// Reads one frame payload from `r`, verifying length and checksum.
///
/// Timeouts and EOF *before the first byte of a frame* are session
/// conditions ([`Incoming::TimedOut`] / [`Incoming::Eof`]); anything that
/// cuts a frame in half — EOF mid-frame, a timeout after part of the
/// length prefix arrived, a bad checksum, an oversized length prefix —
/// is a typed [`PprlError::Transport`] error. The prefix is read with a
/// manual loop because `read_exact` discards how much it consumed: a
/// socket timeout that fires after 1–3 prefix bytes must NOT be
/// reported as retryable idle — the retry would start mid-prefix and
/// permanently desynchronize the stream.
pub fn read_payload(r: &mut impl Read) -> Result<Incoming> {
    let mut buf = Vec::new();
    match read_payload_into(r, &mut buf)? {
        IncomingLen::Payload(plen) => {
            buf.truncate(plen);
            Ok(Incoming::Payload(buf))
        }
        IncomingLen::Eof => Ok(Incoming::Eof),
        IncomingLen::TimedOut => Ok(Incoming::TimedOut),
    }
}

/// [`read_payload`] into a caller-owned buffer: after
/// `IncomingLen::Payload(plen)`, `buf[..plen]` holds the verified
/// payload. The buffer is resized but its capacity is retained across
/// calls, so a session loop that reuses one buffer reads frames without
/// allocating once the buffer has grown to the session's largest frame.
pub fn read_payload_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<IncomingLen> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < len_bytes.len() {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(IncomingLen::Eof),
            Ok(0) => {
                return Err(transport_err(format!(
                    "connection closed after {got} of 4 frame-length bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if stalled(&e) => {
                if got == 0 {
                    return Ok(IncomingLen::TimedOut);
                }
                return Err(transport_err(format!(
                    "timed out after {got} of 4 frame-length bytes (peer stalled mid-frame)"
                )));
            }
            Err(e) => return Err(transport_err(format!("reading frame length: {e}"))),
        }
    }
    let plen = u32::from_le_bytes(len_bytes) as usize;
    if plen == 0 || plen > MAX_PAYLOAD {
        return Err(transport_err(format!(
            "frame length {plen} outside (0, {MAX_PAYLOAD}]"
        )));
    }
    // The checksum covers prefix ‖ payload: read the frame whole behind
    // its prefix, verify it, then move the payload to the front.
    buf.resize(4 + plen + 8, 0);
    buf[..4].copy_from_slice(&len_bytes);
    r.read_exact(&mut buf[4..])
        .map_err(|e| transport_err(format!("reading {plen}-byte frame: {e}")))?;
    checked_body(buf, PprlError::Transport)?;
    buf.copy_within(4..4 + plen, 0);
    Ok(IncomingLen::Payload(plen))
}

/// Writes one frame carrying `payload` to `w` and flushes.
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame_begin(&mut frame);
    frame.extend_from_slice(payload);
    frame_finish(&mut frame)?;
    frame_send(w, &frame)
}

/// Starts building a frame in `buf` (clearing it): writes a placeholder
/// length prefix, after which the caller appends the payload bytes
/// directly. Together with [`frame_finish`] and [`frame_send`] this
/// lets a session loop assemble and send frames in one reused buffer —
/// no per-frame allocation, no payload copy.
pub fn frame_begin(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
}

/// Completes a frame started with [`frame_begin`]: patches the length
/// prefix over the payload appended since, validates its size, and
/// appends the checksum. `buf` then holds exactly one wire frame.
pub fn frame_finish(buf: &mut Vec<u8>) -> Result<()> {
    let plen = buf.len().saturating_sub(4);
    if plen == 0 || plen > MAX_PAYLOAD {
        return Err(transport_err(format!(
            "refusing to send frame of {plen} bytes"
        )));
    }
    buf[..4].copy_from_slice(&(plen as u32).to_le_bytes());
    append_checksum(buf);
    Ok(())
}

/// True for the error a socket read or write returns when its timeout
/// fires (`WouldBlock` on Unix, `TimedOut` on Windows).
fn stalled(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Writes a finished frame to `w` and flushes. A peer that stops
/// draining until the write timeout fires is a [`PprlError::Timeout`];
/// any other failure is [`PprlError::Transport`].
pub fn frame_send(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    let fail = |op: &str, e: std::io::Error| {
        let msg = format!("{op} frame: {e}");
        if stalled(&e) {
            PprlError::Timeout(msg)
        } else {
            transport_err(msg)
        }
    };
    w.write_all(frame).map_err(|e| fail("writing", e))?;
    w.flush().map_err(|e| fail("flushing", e))
}

/// Wire version of the *plaintext* request/response protocol carried
/// inside session frames (and spoken bare by unauthenticated peers).
/// `pprl-server::wire` asserts its own constant equals this one.
pub const INNER_WIRE_VERSION: u8 = 3;

/// Opcode of the plaintext `Busy` response (`pprl-server::wire`). The
/// accept loop rejects overflow connections *before* any handshake, so
/// an authenticating client must recognise this one plaintext reply.
pub const INNER_OP_BUSY: u8 = 0x85;

/// Recognises a plaintext v3 `Busy {retry_after_ms}` payload without
/// depending on the server crate's decoder. Returns the retry hint.
pub fn parse_plain_busy(payload: &[u8]) -> Option<u32> {
    if payload.len() == 6 && payload[0] == INNER_WIRE_VERSION && payload[1] == INNER_OP_BUSY {
        Some(u32::from_le_bytes(payload[2..6].try_into().ok()?))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_payload(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let Incoming::Payload(p) = read_payload(&mut cursor).unwrap() else {
            panic!("expected a payload");
        };
        assert_eq!(p, b"hello");
    }

    /// Yields its bytes, then one `WouldBlock` (a socket read timeout),
    /// then EOF — the shape of a peer that stalls mid-write.
    struct TimeoutThen {
        data: Vec<u8>,
        pos: usize,
        fired: bool,
    }

    impl Read for TimeoutThen {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = (self.data.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            if !self.fired {
                self.fired = true;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            Ok(0)
        }
    }

    #[test]
    fn timeout_between_frames_idle_but_mid_prefix_is_error() {
        // No bytes yet: the timeout is an idle poll, retryable.
        let mut idle = TimeoutThen {
            data: Vec::new(),
            pos: 0,
            fired: false,
        };
        assert!(matches!(
            read_payload(&mut idle).unwrap(),
            Incoming::TimedOut
        ));
        // 2 of 4 length bytes consumed when the timeout fires: reporting
        // idle here would make the retry resume mid-prefix and
        // permanently desynchronize the stream, so it must be an error.
        let mut frame = Vec::new();
        write_payload(&mut frame, b"abc").unwrap();
        let mut stalled = TimeoutThen {
            data: frame[..2].to_vec(),
            pos: 0,
            fired: false,
        };
        match read_payload(&mut stalled) {
            Err(PprlError::Transport(msg)) => {
                assert!(msg.contains("2 of 4"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// A writer whose every write and flush fails with `kind`.
    struct FailingWriter(std::io::ErrorKind);

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(self.0))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::from(self.0))
        }
    }

    #[test]
    fn a_stalled_write_is_a_timeout_and_any_other_failure_transport() {
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            let err = frame_send(&mut FailingWriter(kind), b"frame").unwrap_err();
            assert!(matches!(err, PprlError::Timeout(_)), "{kind:?}: {err}");
        }
        for kind in [ErrorKind::BrokenPipe, ErrorKind::ConnectionReset] {
            let err = frame_send(&mut FailingWriter(kind), b"frame").unwrap_err();
            assert!(matches!(err, PprlError::Transport(_)), "{kind:?}: {err}");
        }
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut zero = std::io::Cursor::new(vec![0u8; 12]);
        assert!(matches!(
            read_payload(&mut zero),
            Err(PprlError::Transport(_))
        ));
        let mut w = Vec::new();
        assert!(write_payload(&mut w, &[]).is_err());
    }

    #[test]
    fn plain_busy_recognised() {
        let mut payload = vec![INNER_WIRE_VERSION, INNER_OP_BUSY];
        payload.extend_from_slice(&75u32.to_le_bytes());
        assert_eq!(parse_plain_busy(&payload), Some(75));
        assert_eq!(parse_plain_busy(&[4, 0x41]), None);
        assert_eq!(parse_plain_busy(&payload[..5]), None);
    }
}
