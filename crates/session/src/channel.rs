//! The authenticated record layer: wire v4 `DATA` frames.
//!
//! After the handshake (see [`crate::handshake`]) both peers hold an
//! established [`SecureChannel`]. Every application payload — a
//! version-3 request or response of `pprl-server::wire` — is wrapped as
//!
//! ```text
//! version u8      = 4
//! opcode  u8      = OP_DATA
//! flags   u8      bit 0: body is encrypted
//! seq     u64 LE  per-direction monotonic sequence number
//! body    ...     the inner wire-v3 payload (possibly encrypted)
//! tag     [16]    Poly1305 tag over everything before it
//! ```
//!
//! The MAC covers the version byte, opcode, flags, sequence number,
//! and body, so nothing in the frame can be flipped, and a frame can
//! never be replayed into the other direction (directional keys) or
//! re-ordered/replayed within a direction (the receiver requires
//! `seq` to equal exactly the next expected value). Verification
//! order on receive is deliberate: MAC first (constant-time), then
//! sequence number, and only then is the inner payload surfaced —
//! the inner opcode of a forged frame is never interpreted.
//!
//! The negotiated suite is
//! [`CipherSuite::ChaCha20`](crate::suite::CipherSuite::ChaCha20) (RFC 8439): the
//! tag is 16-byte Poly1305 under a one-time key — the first 32 bytes
//! of ChaCha20 block 0 for nonce `0⁴ ‖ seq LE` under the directional
//! MAC key, the RFC 8439 AEAD key schedule; the body XORs against the
//! keystream for the same nonce under the *separate* directional
//! encryption key, starting at block counter 0, 64 bytes per
//! block-function call.
//!
//! The (key, nonce) input never repeats within a session — `seq` is
//! strictly monotonic, the send/recv keys differ, and MAC and
//! encryption keys are derived independently — so neither keystream
//! nor one-time MAC key ever repeats. Encrypt-then-MAC throughout.
//!
//! This layer is also the serving hot path, so it is built to do
//! *zero heap allocations per frame* at steady state: the one-time key
//! and the tag are computed entirely in stack scratch, the keystream
//! XORs in place, and [`send`](SecureChannel::send) /
//! [`recv_ref`](SecureChannel::recv_ref) assemble and parse frames in
//! two buffers owned by the channel that stop growing once they reach
//! the session's largest frame (verified with a counting global
//! allocator in `tests/alloc.rs`).

use crate::frame::{
    frame_begin, frame_finish, frame_send, read_payload_into, Incoming, IncomingLen, MAX_PAYLOAD,
};
use pprl_core::error::{PprlError, Result};
use pprl_crypto::chacha;
use pprl_crypto::poly1305::poly1305;
use pprl_crypto::sha::{ct_eq, hmac_sha256};
use std::io::{Read, Write};

/// Wire version of the session (outer) protocol.
pub const SESSION_WIRE_VERSION: u8 = 4;

/// Session-layer opcodes. `HELLO..ACCEPT` appear only during the
/// handshake; `DATA` carries everything after it.
pub const OP_HELLO: u8 = 0x41;
/// Server handshake reply carrying its key share and confirmation MAC.
pub const OP_WELCOME: u8 = 0x42;
/// Client key-confirmation message.
pub const OP_CONFIRM: u8 = 0x43;
/// An authenticated (optionally encrypted) application frame.
pub const OP_DATA: u8 = 0x44;
/// Typed handshake rejection (see [`crate::handshake`] for codes).
pub const OP_AUTH_ERROR: u8 = 0x45;
/// Handshake completion: the server accepted the session.
pub const OP_ACCEPT: u8 = 0x46;

/// `flags` bit marking an encrypted `DATA` body.
pub const FLAG_ENCRYPTED: u8 = 0x01;

const HEADER_LEN: usize = 1 + 1 + 1 + 8;
/// Bytes of the Poly1305 frame tag.
const TAG_LEN: usize = 16;

fn auth_err(msg: impl Into<String>) -> PprlError {
    PprlError::Auth(msg.into())
}

/// The ChaCha20 nonce of frame `seq`: `0⁴ ‖ seq LE`.
fn frame_nonce(seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&seq.to_le_bytes());
    nonce
}

/// Key material and state for one direction of a session.
#[derive(Debug)]
struct Direction {
    /// Poly1305 one-time keys for frame `seq` are the first 32 bytes of
    /// ChaCha20 block 0 under this key (RFC 8439 §2.6). `seq` never
    /// repeats within a direction, so no one-time key signs twice.
    mac_key: [u8; 32],
    /// ChaCha20 body keystream key.
    enc_key: [u8; 32],
    /// Next sequence number (sender: to stamp; receiver: to require).
    seq: u64,
}

impl Direction {
    /// The tag of frame `seq` over `signed`. Allocation-free.
    fn tag(&self, seq: u64, signed: &[u8]) -> [u8; TAG_LEN] {
        let block = chacha::chacha20_block(&self.mac_key, 0, &frame_nonce(seq));
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block[..32]);
        poly1305(&otk, signed)
    }

    /// XORs frame `seq`'s keystream into `body` in place. Symmetric:
    /// applying it twice restores the plaintext. Allocation-free.
    fn apply_keystream(&self, seq: u64, body: &mut [u8]) {
        chacha::apply_keystream(&self.enc_key, &frame_nonce(seq), 0, body);
    }
}

/// An established authenticated session over which [`seal`]ed frames
/// travel. Created by the handshake; not constructible from raw keys by
/// application code.
///
/// [`seal`]: SecureChannel::seal
#[derive(Debug)]
pub struct SecureChannel {
    send: Direction,
    recv: Direction,
    encrypt: bool,
    /// Reused outgoing frame buffer: `[len | payload | checksum]`.
    sbuf: Vec<u8>,
    /// Reused incoming payload buffer.
    rbuf: Vec<u8>,
}

fn derive(master: &[u8; 32], label: &str) -> [u8; 32] {
    hmac_sha256(master, label.as_bytes())
}

impl SecureChannel {
    fn new(master: &[u8; 32], is_client: bool, encrypt: bool) -> SecureChannel {
        let direction = |prefix: &str| Direction {
            mac_key: derive(master, &format!("{prefix}-mac")),
            enc_key: derive(master, &format!("{prefix}-enc")),
            seq: 0,
        };
        let c2s = direction("c2s");
        let s2c = direction("s2c");
        let (send, recv) = if is_client { (c2s, s2c) } else { (s2c, c2s) };
        SecureChannel {
            send,
            recv,
            encrypt,
            sbuf: Vec::new(),
            rbuf: Vec::new(),
        }
    }

    /// Builds the client end from the agreed master secret.
    pub(crate) fn client(master: &[u8; 32], encrypt: bool) -> SecureChannel {
        SecureChannel::new(master, true, encrypt)
    }

    /// Builds the server end from the agreed master secret.
    pub(crate) fn server(master: &[u8; 32], encrypt: bool) -> SecureChannel {
        SecureChannel::new(master, false, encrypt)
    }

    /// Whether `DATA` bodies on this channel are encrypted.
    pub fn encrypted(&self) -> bool {
        self.encrypt
    }

    /// Builds the next outgoing frame — length prefix, sealed payload,
    /// checksum — into `sbuf`, consuming a send sequence number.
    fn seal_frame(&mut self, inner: &[u8]) -> Result<()> {
        if inner.len() + HEADER_LEN + TAG_LEN > MAX_PAYLOAD {
            return Err(PprlError::Transport(format!(
                "inner payload of {} bytes does not fit an authenticated frame",
                inner.len()
            )));
        }
        let seq = self.send.seq;
        self.send.seq = seq
            .checked_add(1)
            .ok_or_else(|| auth_err("session sequence number exhausted; reconnect"))?;
        let flags = if self.encrypt { FLAG_ENCRYPTED } else { 0 };
        frame_begin(&mut self.sbuf);
        self.sbuf.push(SESSION_WIRE_VERSION);
        self.sbuf.push(OP_DATA);
        self.sbuf.push(flags);
        self.sbuf.extend_from_slice(&seq.to_le_bytes());
        self.sbuf.extend_from_slice(inner);
        if self.encrypt {
            let body_start = 4 + HEADER_LEN;
            self.send.apply_keystream(seq, &mut self.sbuf[body_start..]);
        }
        let tag = self.send.tag(seq, &self.sbuf[4..]);
        self.sbuf.extend_from_slice(&tag);
        frame_finish(&mut self.sbuf)
    }

    /// Wraps an inner wire-v3 payload into an authenticated `DATA` frame
    /// payload, consuming the next send sequence number.
    pub fn seal(&mut self, inner: &[u8]) -> Result<Vec<u8>> {
        self.seal_frame(inner)?;
        // The frame buffer holds [len(4) | payload | checksum(8)];
        // callers of `seal` want the bare payload.
        Ok(self.sbuf[4..self.sbuf.len() - 8].to_vec())
    }

    /// Verifies a received `DATA` frame payload in place, decrypting the
    /// body within `payload` and returning its range. MAC is checked (in
    /// constant time) before the sequence number, and both before any
    /// byte of the inner payload is surfaced.
    fn open_in_place(&mut self, payload: &mut [u8]) -> Result<std::ops::Range<usize>> {
        if payload.len() < HEADER_LEN + TAG_LEN {
            return Err(auth_err(format!(
                "authenticated frame too short ({} bytes)",
                payload.len()
            )));
        }
        let body_end = payload.len() - TAG_LEN;
        let (signed, tag) = payload.split_at_mut(body_end);
        // The Poly1305 one-time key derives from the frame's *claimed*
        // sequence number — safe, because the tag covers those header
        // bytes: altering them changes the derived key and the tag
        // check fails. The real ordering guarantee (`seq == expected`)
        // is still enforced below, after authentication.
        let claimed_seq = u64::from_le_bytes(signed[3..11].try_into().expect("header"));
        if !ct_eq(&self.recv.tag(claimed_seq, signed), tag) {
            return Err(auth_err("frame MAC verification failed"));
        }
        // Past this point the frame provably came from the peer, this
        // direction, with these exact header bytes; now enforce ordering.
        if signed[0] != SESSION_WIRE_VERSION {
            return Err(auth_err(format!(
                "unexpected session version {} in authenticated frame",
                signed[0]
            )));
        }
        if signed[1] != OP_DATA {
            return Err(auth_err(format!(
                "unexpected session opcode {:#x} in authenticated frame",
                signed[1]
            )));
        }
        let flags = signed[2];
        let seq = u64::from_le_bytes(signed[3..11].try_into().unwrap());
        if seq != self.recv.seq {
            return Err(auth_err(format!(
                "replayed or out-of-order frame: sequence {seq}, expected {}",
                self.recv.seq
            )));
        }
        self.recv.seq += 1;
        if flags & FLAG_ENCRYPTED != 0 {
            self.recv.apply_keystream(seq, &mut signed[HEADER_LEN..]);
        } else if self.encrypt {
            // An authenticated-but-plaintext frame on an encrypted channel
            // means the peer disagrees about the session mode; refuse it
            // rather than silently downgrade.
            return Err(auth_err("plaintext frame on an encrypted session"));
        }
        Ok(HEADER_LEN..body_end)
    }

    /// Verifies and unwraps a received `DATA` frame payload, returning the
    /// inner wire-v3 payload.
    pub fn open(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut scratch = payload.to_vec();
        let range = self.open_in_place(&mut scratch)?;
        scratch.truncate(range.end);
        scratch.drain(..range.start);
        Ok(scratch)
    }

    /// Seals `inner` and writes it as one frame, reusing the channel's
    /// send buffer (no per-frame allocation at steady state).
    pub fn send(&mut self, w: &mut impl Write, inner: &[u8]) -> Result<()> {
        self.seal_frame(inner)?;
        frame_send(w, &self.sbuf)
    }

    /// Reads one frame and opens it. [`Incoming::Eof`] / [`Incoming::TimedOut`]
    /// pass through untouched. Allocates the returned payload; session
    /// loops should prefer [`recv_ref`](SecureChannel::recv_ref).
    pub fn recv(&mut self, r: &mut impl Read) -> Result<Incoming> {
        match self.recv_ref(r)? {
            IncomingRef::Payload(inner) => Ok(Incoming::Payload(inner.to_vec())),
            IncomingRef::Eof => Ok(Incoming::Eof),
            IncomingRef::TimedOut => Ok(Incoming::TimedOut),
        }
    }

    /// Reads one frame into the channel's receive buffer, opens it in
    /// place, and returns the inner payload as a borrow — the zero-copy,
    /// zero-allocation receive path. The borrow ends at the next channel
    /// call, which is exactly when the buffer is reused.
    pub fn recv_ref(&mut self, r: &mut impl Read) -> Result<IncomingRef<'_>> {
        // Move the buffer out so the frame read and the in-place open
        // (which needs `&mut self`) cannot alias; moving a Vec moves
        // only its header, not its bytes.
        let mut buf = std::mem::take(&mut self.rbuf);
        let status = read_payload_into(r, &mut buf);
        let opened = match &status {
            Ok(IncomingLen::Payload(plen)) => {
                let plen = *plen;
                Some(self.open_in_place(&mut buf[..plen]))
            }
            _ => None,
        };
        self.rbuf = buf;
        match (status?, opened) {
            (IncomingLen::Payload(_), Some(range)) => Ok(IncomingRef::Payload(&self.rbuf[range?])),
            (IncomingLen::Eof, _) => Ok(IncomingRef::Eof),
            (IncomingLen::TimedOut, _) => Ok(IncomingRef::TimedOut),
            (IncomingLen::Payload(_), None) => unreachable!("payload always opened"),
        }
    }
}

/// [`Incoming`] for the zero-copy receive path: the payload borrows the
/// channel's receive buffer.
#[derive(Debug)]
pub enum IncomingRef<'a> {
    /// The verified (and, if applicable, decrypted) inner payload.
    Payload(&'a [u8]),
    /// The peer closed the connection before a new frame started.
    Eof,
    /// The socket read timed out between frames.
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(encrypt: bool) -> (SecureChannel, SecureChannel) {
        let master = [7u8; 32];
        (
            SecureChannel::client(&master, encrypt),
            SecureChannel::server(&master, encrypt),
        )
    }

    /// The (possibly encrypted) body bytes of a sealed frame.
    fn body(sealed: &[u8]) -> &[u8] {
        &sealed[HEADER_LEN..sealed.len() - TAG_LEN]
    }

    #[test]
    fn round_trip_plain_and_encrypted() {
        for encrypt in [false, true] {
            let (mut c, mut s) = pair(encrypt);
            for msg in [&b"hello"[..], b"", b"a much longer payload spanning blocks"] {
                let sealed = c.seal(msg).unwrap();
                assert_eq!(s.open(&sealed).unwrap(), msg, "encrypt={encrypt}");
                let reply = s.seal(msg).unwrap();
                assert_eq!(c.open(&reply).unwrap(), msg, "encrypt={encrypt}");
            }
        }
    }

    #[test]
    fn encrypted_body_is_not_plaintext() {
        let (mut c, _) = pair(true);
        let msg = b"social security numbers";
        let sealed = c.seal(msg).unwrap();
        assert_eq!(body(&sealed).len(), msg.len());
        assert_ne!(body(&sealed), msg);
    }

    #[test]
    fn every_byte_flip_rejected() {
        let (mut c, mut s) = pair(false);
        let sealed = c.seal(b"payload under test").unwrap();
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x01;
            let mut fresh = SecureChannel::server(&[7u8; 32], false);
            assert!(fresh.open(&bad).is_err(), "flip at byte {pos} was accepted");
        }
        // The untampered frame still opens.
        assert_eq!(s.open(&sealed).unwrap(), b"payload under test");
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = pair(false);
        let sealed = c.seal(b"once").unwrap();
        assert!(s.open(&sealed).is_ok());
        let err = s.open(&sealed).unwrap_err();
        assert!(matches!(err, PprlError::Auth(_)), "{err}");
        assert!(err.to_string().contains("sequence"), "{err}");
    }

    #[test]
    fn cross_direction_replay_rejected() {
        let (mut c, mut s) = pair(false);
        let sealed = c.seal(b"client to server").unwrap();
        // Reflecting the client's own frame back at it must fail: the
        // directions use different MAC keys.
        assert!(c.open(&sealed).is_err());
        assert!(s.open(&sealed).is_ok());
    }

    #[test]
    fn truncations_rejected() {
        let (mut c, _) = pair(true);
        let sealed = c.seal(b"truncate me").unwrap();
        for cut in 0..sealed.len() {
            let mut fresh = SecureChannel::server(&[7u8; 32], true);
            assert!(fresh.open(&sealed[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn plaintext_on_encrypted_channel_rejected() {
        let master = [9u8; 32];
        let mut plain_client = SecureChannel::client(&master, false);
        let mut enc_server = SecureChannel::server(&master, true);
        let sealed = plain_client.seal(b"downgrade?").unwrap();
        let err = enc_server.open(&sealed).unwrap_err();
        assert!(err.to_string().contains("plaintext frame"), "{err}");
    }

    #[test]
    fn send_recv_over_buffer() {
        let (mut c, mut s) = pair(true);
        let mut wire = Vec::new();
        c.send(&mut wire, b"request").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let Incoming::Payload(inner) = s.recv(&mut cursor).unwrap() else {
            panic!("expected payload");
        };
        assert_eq!(inner, b"request");
    }

    #[test]
    fn recv_ref_matches_recv() {
        let (mut c, mut s) = pair(true);
        let mut wire = Vec::new();
        c.send(&mut wire, b"first").unwrap();
        c.send(&mut wire, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let IncomingRef::Payload(p) = s.recv_ref(&mut cursor).unwrap() else {
            panic!("expected payload");
        };
        assert_eq!(p, b"first");
        let IncomingRef::Payload(p) = s.recv_ref(&mut cursor).unwrap() else {
            panic!("expected payload");
        };
        assert_eq!(p, b"second");
        assert!(matches!(s.recv_ref(&mut cursor).unwrap(), IncomingRef::Eof));
    }

    #[test]
    fn keystream_differs_per_seq() {
        let mut a = SecureChannel::client(&[3u8; 32], true);
        let zeros = vec![0u8; 64];
        let f0 = a.seal(&zeros).unwrap();
        let f1 = a.seal(&zeros).unwrap();
        // Same plaintext, consecutive sequence numbers: bodies differ.
        assert_ne!(body(&f0), body(&f1));
    }
}
