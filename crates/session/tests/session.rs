//! Integration and property tests for the wire v4 session layer: a
//! real TCP handshake establishes the channels, then every single-byte
//! corruption and truncation of an authenticated frame must be
//! rejected before the inner opcode could be interpreted, replays must
//! be rejected without poisoning the session, and tenant mismatches
//! must surface as the typed cross-tenant error on both ends.

use pprl_core::error::PprlError;
use pprl_session::frame::{read_payload, Incoming};
use pprl_session::handshake::{
    client_handshake_established, server_handshake, ClientAuth, ServerSession,
};
use pprl_session::keys::{entropy_rng, PartyKey};
use pprl_session::registry::{AuthRegistry, TenantGrant};
use pprl_session::{SecureChannel, SuiteOffer};
use std::net::{TcpListener, TcpStream};

const ORG_A_KEY: [u8; 32] = [0xA7; 32];

fn registry() -> AuthRegistry {
    let mut reg = AuthRegistry::new();
    reg.insert(
        "org-a",
        PartyKey::from_bytes(ORG_A_KEY),
        TenantGrant::One("org-a".into()),
    )
    .unwrap();
    reg
}

/// Runs the full wire v4 handshake over a loopback socket and returns
/// both ends' outcomes, so tests hold the client channel and the
/// server session in one process.
fn handshake(
    auth: &ClientAuth,
) -> (
    Result<SecureChannel, PprlError>,
    Result<ServerSession, PprlError>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = loop {
            match read_payload(&mut stream).unwrap() {
                Incoming::Payload(p) => break p,
                Incoming::TimedOut => continue,
                Incoming::Eof => panic!("client hung up before HELLO"),
            }
        };
        let mut rng = entropy_rng();
        server_handshake(
            &mut stream,
            &hello,
            &registry(),
            &mut rng,
            SuiteOffer::all(),
        )
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    let client = client_handshake_established(&mut stream, auth);
    // Drop before joining: after a failed handshake the server side is
    // still waiting for a CONFIRM that will never come, and only the
    // EOF from the closed socket releases it.
    drop(stream);
    let session = server.join().unwrap();
    (client, session)
}

/// A mutually authenticated channel pair for tenant `org-a`.
fn session_pair(encrypt: bool) -> (SecureChannel, SecureChannel) {
    let auth = ClientAuth {
        identity: "org-a".into(),
        key: PartyKey::from_bytes(ORG_A_KEY),
        tenant: "org-a".into(),
        encrypt,
        suites: SuiteOffer::default(),
    };
    let (client, session) = handshake(&auth);
    (client.unwrap(), session.unwrap().channel)
}

/// An inner payload that would be catastrophic if it were ever acted
/// on without authentication — the point of the flip/truncation tests
/// is that the receiver rejects the frame before this opcode byte is
/// even looked at.
fn poison_inner() -> Vec<u8> {
    let mut inner = vec![3u8, 0x7F];
    inner.extend_from_slice(b"shutdown-everything");
    inner
}

#[test]
fn every_single_byte_flip_is_rejected_before_the_opcode() {
    for encrypt in [false, true] {
        let (mut client, mut server) = session_pair(encrypt);
        let inner = poison_inner();
        let sealed = client.seal(&inner).unwrap();
        // Every byte, under several bit patterns: header, sequence
        // number, body, and MAC corruption are all covered.
        for i in 0..sealed.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut tampered = sealed.clone();
                tampered[i] ^= mask;
                assert!(
                    server.open(&tampered).is_err(),
                    "encrypt={encrypt}: flipping byte {i} with {mask:#04x} was accepted"
                );
            }
        }
        // The rejections consumed no session state: the pristine frame
        // still opens to exactly the original inner payload, proving the
        // tampered copies died at the MAC check — before the inner
        // opcode existed as far as the receiver is concerned.
        assert_eq!(server.open(&sealed).unwrap(), inner);
    }
}

#[test]
fn every_truncation_is_rejected() {
    for encrypt in [false, true] {
        let (mut client, mut server) = session_pair(encrypt);
        let inner = poison_inner();
        let sealed = client.seal(&inner).unwrap();
        for len in 0..sealed.len() {
            assert!(
                server.open(&sealed[..len]).is_err(),
                "encrypt={encrypt}: truncation to {len} bytes was accepted"
            );
        }
        assert_eq!(server.open(&sealed).unwrap(), inner);
    }
}

#[test]
fn replay_is_rejected_without_poisoning_the_session() {
    for encrypt in [false, true] {
        let (mut client, mut server) = session_pair(encrypt);
        let first = client.seal(b"first").unwrap();
        let second = client.seal(b"second").unwrap();
        assert_eq!(server.open(&first).unwrap(), b"first");
        // Replaying the already-consumed frame fails its sequence check
        // even though its MAC is genuine...
        assert!(
            server.open(&first).is_err(),
            "encrypt={encrypt}: replay was accepted"
        );
        // ...and the legitimate stream continues undisturbed.
        assert_eq!(server.open(&second).unwrap(), b"second");
    }
}

#[test]
fn frames_from_the_opposite_direction_are_rejected() {
    let (mut client, mut server) = session_pair(true);
    // A server-sealed frame reflected back at the server must fail:
    // direction keys differ, so a man-in-the-middle cannot bounce
    // traffic back to its author.
    let reflected = server.seal(b"reflect-me").unwrap();
    assert!(server.open(&reflected).is_err());
    // The client, the intended recipient, opens it fine.
    assert_eq!(client.open(&reflected).unwrap(), b"reflect-me");
}

#[test]
fn encrypted_frames_do_not_leak_the_plaintext() {
    let secret = b"highly-identifying-bloom-filter-bits";
    let (mut client, _server) = session_pair(true);
    let sealed = client.seal(secret).unwrap();
    let visible = sealed.windows(secret.len()).any(|w| w == secret.as_slice());
    assert!(!visible, "encrypted frame carries the plaintext verbatim");

    // Plaintext (MAC-only) mode genuinely is plaintext — the flag does
    // what it says in both directions.
    let (mut client, _server) = session_pair(false);
    let sealed = client.seal(secret).unwrap();
    let visible = sealed.windows(secret.len()).any(|w| w == secret.as_slice());
    assert!(visible, "unencrypted frame unexpectedly hides its body");
}

#[test]
fn wrong_tenant_is_a_typed_error_on_both_ends() {
    let auth = ClientAuth {
        identity: "org-a".into(),
        key: PartyKey::from_bytes(ORG_A_KEY),
        tenant: "org-b".into(),
        encrypt: false,
        suites: SuiteOffer::default(),
    };
    let (client, session) = handshake(&auth);
    match client {
        Err(PprlError::CrossTenant {
            identity,
            requested,
        }) => {
            assert_eq!(identity, "org-a");
            assert_eq!(requested, "org-b");
        }
        other => panic!("client: expected CrossTenant, got {:?}", other.map(|_| ())),
    }
    match session {
        Err(PprlError::CrossTenant { .. }) => {}
        other => panic!("server: expected CrossTenant, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn wrong_key_is_a_typed_auth_error() {
    let auth = ClientAuth {
        identity: "org-a".into(),
        key: PartyKey::from_bytes([0x13; 32]),
        tenant: "org-a".into(),
        encrypt: false,
        suites: SuiteOffer::default(),
    };
    let (client, session) = handshake(&auth);
    assert!(matches!(client, Err(PprlError::Auth(_))), "client end");
    assert!(matches!(session, Err(PprlError::Auth(_))), "server end");
}

#[test]
fn unknown_identity_is_indistinguishable_from_wrong_key() {
    let auth = ClientAuth {
        identity: "nobody".into(),
        key: PartyKey::from_bytes([0x13; 32]),
        tenant: "org-a".into(),
        encrypt: false,
        suites: SuiteOffer::default(),
    };
    let (client, _session) = handshake(&auth);
    // The client-visible error for an unknown identity must be the
    // same typed Auth rejection a wrong key produces — no account
    // enumeration oracle.
    assert!(matches!(client, Err(PprlError::Auth(_))));
}
