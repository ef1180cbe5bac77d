//! # pprl-session — authenticated, encrypted sessions (wire v4)
//!
//! The serving stack's trust layer, and the only way to hold a session
//! with a server, a cluster front end or a shard. The survey's
//! linkage-unit deployment model assumes honest-but-curious
//! organisations talking over networks they do not trust: a frame
//! checksum catches accidents, not a peer that queries, inserts, or
//! shuts a server down, nor one that reads encoded Bloom filters off
//! the wire. This crate supplies what that model needs:
//!
//! * **[`frame`]** — the length-prefix + checksum envelope every frame
//!   travels in (`pprl-server::wire` re-exports its read and write
//!   halves).
//! * **[`keys`]** — 32-byte per-party pre-shared keys with `0600` file
//!   storage and typed load errors.
//! * **[`registry`]** — the server's identity → (key, tenant grant) map,
//!   loaded from an auth directory of `.psk` files plus `tenants.map`.
//! * **[`handshake`]** — wire v4 `HELLO`/`WELCOME`/`CONFIRM`/`ACCEPT`:
//!   SRA-commutative-cipher key agreement mixed with the PSK via
//!   HMAC-SHA256, mutual key confirmation over a transcript hash, and
//!   typed rejections (`Auth`, `CrossTenant`).
//! * **[`suite`]** — the negotiated record-layer cipher suite
//!   (ChaCha20/Poly1305): the client offers a set in `HELLO`, the
//!   server selects one in `WELCOME`, and both bytes are
//!   transcript-bound so a rewrite is caught by key confirmation.
//! * **[`channel`]** — the record layer: a per-frame Poly1305 tag over
//!   sequence number and payload (verified in constant time, before the
//!   inner opcode is ever interpreted), strict monotonic sequence
//!   numbers for replay rejection, and optional ChaCha20 body
//!   encryption, with reusable frame buffers so steady-state `DATA`
//!   frames allocate nothing.
//!
//! The layering is deliberate: a wire v4 `DATA` frame *wraps* a
//! versioned request/response payload (`pprl-server::wire`), so the
//! request/response protocol, its encoders, and its property tests know
//! nothing of keys — the session layer is a transport detail to
//! everything above it. A MAC-only session (`ClientAuth { encrypt:
//! false }`) is the cheap mode: every frame authenticated, bodies in
//! the clear.

#![forbid(unsafe_code)]

pub mod channel;
pub mod frame;
pub mod handshake;
pub mod keys;
pub mod registry;
pub mod suite;

pub use channel::{IncomingRef, SecureChannel, SESSION_WIRE_VERSION};
pub use handshake::{
    client_handshake, client_handshake_established, server_handshake, ClientAuth, HandshakeOutcome,
    ServerSession,
};
pub use keys::{entropy_rng, PartyKey, SecretRng};
pub use registry::{AuthRegistry, TenantGrant};
pub use suite::{select_suite, CipherSuite, SuiteOffer};
