//! Tier-1 copy of the session suite: `cargo test -q` at the workspace
//! root only runs the umbrella package's tests, so the record layer's
//! properties — every single-byte flip and every truncation of a
//! sealed frame rejected before the inner opcode, replays and reflected
//! frames refused, typed cross-tenant and wrong-key errors — are
//! included here verbatim, over real loopback handshakes.

#[path = "../crates/session/tests/session.rs"]
mod session;
