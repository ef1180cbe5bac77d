//! The credentials the node and cluster suites run under — one registry
//! holding a privileged identity, the client auth that presents it, and
//! the servers and sessions built from them — plus the raw probe that
//! checks a front end refuses anything but a wire v4 handshake.
//! Included by path from `serve.rs` and the cluster's `cluster.rs`;
//! `auth.rs` keeps its own multi-identity registry, since the tier-1
//! `tests/serving.rs` loads it and `serve.rs` into one crate, where a
//! second `mod` of this file would load it twice.

#![allow(dead_code)]

use pprl_server::client::Client;
use pprl_server::server::{serve_auth, ServerConfig, ServerHandle};
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response};
use pprl_session::channel::SecureChannel;
use pprl_session::handshake::{server_handshake, ClientAuth};
use pprl_session::keys::{entropy_rng, PartyKey};
use pprl_session::registry::{AuthRegistry, TenantGrant};
use pprl_session::suite::SuiteOffer;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// The one identity of [`registry`], granted every tenant.
pub const IDENTITY: &str = "ops";
const KEY: [u8; 32] = [0x0a; 32];

/// A registry holding [`IDENTITY`] with the `*` grant, so its sessions
/// may name any tenant and send `Shutdown`.
pub fn registry() -> AuthRegistry {
    let mut registry = AuthRegistry::new();
    registry
        .insert(IDENTITY, PartyKey::from_bytes(KEY), TenantGrant::Any)
        .unwrap();
    registry
}

/// [`IDENTITY`]'s credentials for the `default` tenant: a MAC-only
/// session, or MAC plus encryption.
pub fn auth(encrypt: bool) -> ClientAuth {
    ClientAuth {
        identity: IDENTITY.into(),
        key: PartyKey::from_bytes(KEY),
        tenant: "default".into(),
        encrypt,
        suites: SuiteOffer::default(),
    }
}

/// Serves the index at `dir` on an ephemeral port to [`registry`].
pub fn serve(dir: &Path, config: ServerConfig) -> ServerHandle {
    serve_auth(dir, "127.0.0.1:0", config, registry()).unwrap()
}

/// An encrypted [`IDENTITY`] session to `addr`, retrying while the
/// server binds its port.
pub fn connect(addr: &str) -> Client {
    Client::connect_retry_with(addr, Some(auth(true)), 20, Duration::from_millis(10)).unwrap()
}

/// Accepts one connection and completes the server side of the
/// handshake against [`registry`]: a scripted peer's end of a session.
pub fn accept_session(listener: &TcpListener) -> (TcpStream, SecureChannel) {
    let (mut stream, _) = listener.accept().unwrap();
    let Incoming::Payload(hello) = read_payload(&mut stream).unwrap() else {
        panic!("peer hung up before HELLO");
    };
    let session = server_handshake(
        &mut stream,
        &hello,
        &registry(),
        &mut entropy_rng(),
        SuiteOffer::default(),
    )
    .unwrap();
    (stream, session.channel)
}

/// Sends `request` to `addr` as a bare wire v3 payload — no handshake —
/// and returns the refusal the front end answers with, after checking
/// that it then closed the connection.
pub fn refusal_of_bare_request(addr: &str, request: &Request) -> String {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_payload(&mut raw, &request.encode()).unwrap();
    let Incoming::Payload(reply) = read_payload(&mut raw).unwrap() else {
        panic!("the front end sent no refusal");
    };
    let Response::ServerError { message } = Response::decode(&reply).unwrap() else {
        panic!("expected a ServerError refusal");
    };
    match read_payload(&mut raw).unwrap() {
        Incoming::Eof => message,
        other => panic!("expected the refused connection closed, got {other:?}"),
    }
}
