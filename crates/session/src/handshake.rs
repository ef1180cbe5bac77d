//! The wire v4 handshake: binds a client identity to a session.
//!
//! Both peers hold a pre-shared [`PartyKey`] for the client's identity
//! (the server holds every registered identity's key in its
//! [`AuthRegistry`]). The handshake combines a DH-style key agreement
//! over the existing SRA/Pohlig–Hellman commutative cipher
//! (`pprl-crypto::commutative`: `E_k(x) = x^k mod p`, which commutes,
//! so `x^(ab)` is computable by both sides and by nobody watching)
//! with mutual key confirmation under the PSK:
//!
//! ```text
//! client                                   server
//! ------                                   ------
//! g  = hash_to_group(domain‖":generator")  (fixed; table-accelerated)
//! A  = g^a                                 B = g^b
//!        HELLO(flags, suites, nonce_c, identity, tenant, A)
//!   ─────────────────────────────────────────────▶
//!        WELCOME(suite, nonce_s, B, mac_s)
//!   ◀─────────────────────────────────────────────
//! S  = B^a = g^ab                          S = A^b = g^ab
//! K  = HMAC(psk, S‖nonce_c‖nonce_s‖identity‖0‖tenant)
//! T  = sha256(hello_payload ‖ nonce_s ‖ suite ‖ B)
//! verify mac_s = HMAC(K, "server-confirm"‖T)
//!        CONFIRM(mac_c = HMAC(K, "client-confirm"‖T))
//!   ─────────────────────────────────────────────▶
//!                                          verify mac_c
//!                                          authorise tenant
//!        ACCEPT   (or AUTH_ERROR code)
//!   ◀─────────────────────────────────────────────
//! ```
//!
//! The base is a *fixed* generator of the quadratic-residue subgroup
//! (earlier revisions hashed `nonce_c‖identity‖tenant` into a fresh
//! base per handshake). A fixed base lets both sides compute their key
//! share from a precomputed windowed-exponentiation table
//! (`pprl-crypto::commutative::FixedBaseTable`, built once per
//! process), cutting one of a handshake's two modexps to ~⅙ of its
//! multiplications. Nothing binding is lost: identity, tenant, and
//! both nonces are still mixed into the master secret `K`, and the
//! full HELLO — nonce and identity included — is still signed by both
//! confirmation MACs via the transcript `T`.
//!
//! Suite negotiation rides the same transcript: the client's offered
//! suite set is a byte inside `hello_payload`, and the server's
//! selection byte is hashed into `T` directly, so neither can be
//! rewritten by a man-in-the-middle without failing key confirmation —
//! a downgrade attempt dies exactly like a flipped encryption flag.
//!
//! Because `K` mixes the PSK with the agreed secret `S` and both
//! nonces, a passive observer learns nothing about the session keys
//! even knowing the group, and neither side accepts a peer that does
//! not hold the PSK. That claim leans on the randomness source: nonces
//! are wire-visible and exponents are secret, so both must come from a
//! generator whose state is not recoverable from its outputs. Every
//! entry point therefore takes a [`SecretRng`] (OS entropy pool, or a
//! one-way hash ratchet where no pool exists) — never the workspace's
//! deterministic `SplitMix64`, whose 64-bit state any single raw
//! output reveals. The confirmation MACs bind the full HELLO
//! payload (identity, tenant, flags, `A`) into the transcript, so a
//! man-in-the-middle cannot splice identities, downgrade the
//! encryption flag, or substitute key shares without being caught by
//! one of the two confirmation checks.
//!
//! Tenant authorisation deliberately happens *after* the client's key
//! confirmation: a typed [`PprlError::CrossTenant`] rejection is only
//! ever revealed to a client that proved it holds a registered key.
//! An unknown identity is indistinguishable on the wire from a wrong
//! key — the server runs the same flow with a dummy key and lets
//! confirmation fail — so the handshake is not an account oracle.

use crate::channel::{
    SecureChannel, OP_ACCEPT, OP_AUTH_ERROR, OP_CONFIRM, OP_HELLO, OP_WELCOME, SESSION_WIRE_VERSION,
};
use crate::frame::{parse_plain_busy, read_payload, write_payload, Incoming};
use crate::keys::{entropy_rng, PartyKey, SecretRng};
use crate::registry::{valid_name, AuthRegistry};
use crate::suite::{select_suite, CipherSuite, SuiteOffer};
use pprl_core::codec::Reader;
use pprl_core::error::{PprlError, Result};
use pprl_crypto::bigint::BigUint;
use pprl_crypto::commutative::{CommutativeKey, FixedBaseTable, Group};
use pprl_crypto::sha::{ct_eq, hmac_sha256, sha256};
use std::io::{Read, Write};
use std::sync::OnceLock;

/// The fixed 256-bit safe prime every deployment shares. Generated with
/// this workspace's own `generate_safe_prime(256, SplitMix64::new(0x5e55_10_2026))`
/// and re-verified by a test below. The group is public by design —
/// security rests on the exponents and the PSK, not on `p`.
pub const GROUP_PRIME_HEX: &str =
    "803f1dd695c119f219a6c61ac1185ffa1aa7aa35d9fe6561e8d59b1def7dd733";

/// Domain-separation prefix for hashing handshake inputs into the group.
const HS_DOMAIN: &[u8] = b"pprl-session-v4";

/// `AUTH_ERROR` code: unknown identity, wrong key, or failed confirmation.
pub const AUTH_ERR_UNAUTHORIZED: u8 = 1;
/// `AUTH_ERROR` code: valid key, but the requested tenant is not granted.
pub const AUTH_ERR_CROSS_TENANT: u8 = 2;

/// HELLO `flags` bit: client requests body encryption for the session.
pub const HELLO_FLAG_ENCRYPT: u8 = 0x01;

/// The shared handshake group (fixed safe prime).
pub fn session_group() -> Group {
    Group {
        p: BigUint::from_hex(GROUP_PRIME_HEX).expect("GROUP_PRIME_HEX is valid hex"),
    }
}

/// The fixed generator both key shares exponentiate: a domain-separated
/// hash into the quadratic-residue subgroup.
pub fn session_generator(group: &Group) -> BigUint {
    let mut input = HS_DOMAIN.to_vec();
    input.extend_from_slice(b":generator");
    group.hash_to_group(&input)
}

/// The process-wide windowed-exponentiation table for
/// [`session_generator`], built on first use. Exponents are drawn below
/// q < 2^255, so a 256-bit table covers every key.
fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let group = session_group();
        let g = session_generator(&group);
        FixedBaseTable::new(&g, &group.p, 256).expect("generator and prime are a valid base pair")
    })
}

/// Client-side credentials and session options.
#[derive(Debug, Clone)]
pub struct ClientAuth {
    /// The identity to authenticate as (matches a server-side `.psk`).
    pub identity: String,
    /// The identity's party key.
    pub key: PartyKey,
    /// The tenant namespace to open.
    pub tenant: String,
    /// Whether to encrypt frame bodies for this session.
    pub encrypt: bool,
    /// Record-layer suites to offer; the server picks the fastest
    /// common one. Default offers everything.
    pub suites: SuiteOffer,
}

/// Result of a client handshake attempt.
#[derive(Debug)]
pub enum HandshakeOutcome {
    /// Mutual authentication succeeded; the channel is ready for `DATA`.
    Established(Box<SecureChannel>),
    /// The server's accept queue was full; retry after the hinted delay.
    Busy {
        /// Server-suggested retry delay in milliseconds.
        retry_after_ms: u32,
    },
}

/// An authenticated server-side session.
#[derive(Debug)]
pub struct ServerSession {
    /// The established record-layer channel.
    pub channel: SecureChannel,
    /// The authenticated client identity.
    pub identity: String,
    /// The tenant namespace this session is bound to.
    pub tenant: String,
    /// Whether the identity holds the any-tenant (administrative) grant.
    pub privileged: bool,
}

fn auth_err(msg: impl Into<String>) -> PprlError {
    PprlError::Auth(msg.into())
}

/// Reads the next frame, treating EOF/timeout mid-handshake as failures.
fn expect_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    match read_payload(r)? {
        Incoming::Payload(p) => Ok(p),
        Incoming::Eof => Err(auth_err("peer closed the connection mid-handshake")),
        Incoming::TimedOut => Err(auth_err("handshake timed out")),
    }
}

fn rand_nonce(rng: &mut SecretRng) -> [u8; 16] {
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce);
    nonce
}

/// Derives the session master secret from PSK, agreed secret, and nonces.
fn master_secret(
    psk: &PartyKey,
    shared: &BigUint,
    nonce_c: &[u8; 16],
    nonce_s: &[u8; 16],
    identity: &str,
    tenant: &str,
) -> [u8; 32] {
    let mut input = Vec::new();
    input.extend_from_slice(&shared.to_bytes_be());
    input.extend_from_slice(nonce_c);
    input.extend_from_slice(nonce_s);
    input.extend_from_slice(identity.as_bytes());
    input.push(0);
    input.extend_from_slice(tenant.as_bytes());
    hmac_sha256(psk.as_bytes(), &input)
}

/// The transcript hash both confirmation MACs sign. The client's suite
/// offer is inside `hello_payload`; the server's `suite` selection is
/// spliced in here, so a rewritten selection byte fails confirmation.
fn transcript(
    hello_payload: &[u8],
    nonce_s: &[u8; 16],
    suite: CipherSuite,
    b_share: &BigUint,
) -> [u8; 32] {
    let mut input = Vec::with_capacity(hello_payload.len() + 16 + 1 + 32);
    input.extend_from_slice(hello_payload);
    input.extend_from_slice(nonce_s);
    input.push(suite.code());
    input.extend_from_slice(&b_share.to_bytes_be());
    sha256(&input)
}

fn confirm_mac(master: &[u8; 32], label: &str, transcript: &[u8; 32]) -> [u8; 32] {
    let mut input = Vec::with_capacity(label.len() + 32);
    input.extend_from_slice(label.as_bytes());
    input.extend_from_slice(transcript);
    hmac_sha256(master, &input)
}

// ---------------------------------------------------------------- encoding

fn push_str_u8(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.len() > u8::MAX as usize {
        return Err(auth_err("handshake string longer than 255 bytes"));
    }
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn push_bytes_u16(out: &mut Vec<u8>, bytes: &[u8]) -> Result<()> {
    if bytes.len() > u16::MAX as usize {
        return Err(auth_err("handshake field longer than 65535 bytes"));
    }
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

fn encode_hello(auth: &ClientAuth, nonce_c: &[u8; 16], a_share: &BigUint) -> Result<Vec<u8>> {
    let mut out = vec![SESSION_WIRE_VERSION, OP_HELLO];
    out.push(if auth.encrypt { HELLO_FLAG_ENCRYPT } else { 0 });
    out.push(auth.suites.bits());
    out.extend_from_slice(nonce_c);
    push_str_u8(&mut out, &auth.identity)?;
    push_str_u8(&mut out, &auth.tenant)?;
    push_bytes_u16(&mut out, &a_share.to_bytes_be())?;
    Ok(out)
}

struct Hello<'a> {
    flags: u8,
    suites: SuiteOffer,
    nonce_c: [u8; 16],
    identity: &'a str,
    tenant: &'a str,
    a_share: BigUint,
}

fn decode_hello(payload: &[u8]) -> Result<Hello<'_>> {
    let mut r = Reader::new(payload, PprlError::Auth);
    if r.u8()? != SESSION_WIRE_VERSION || r.u8()? != OP_HELLO {
        return Err(auth_err("not a session HELLO frame"));
    }
    let flags = r.u8()?;
    let suites = SuiteOffer::from_bits(r.u8()?);
    let nonce_c: [u8; 16] = r.take(16)?.try_into().unwrap();
    let identity_len = r.u8()?;
    let identity = r.str(identity_len.into())?;
    let tenant_len = r.u8()?;
    let tenant = r.str(tenant_len.into())?;
    let a_len = r.u16()? as usize;
    let a_share = BigUint::from_bytes_be(r.take(a_len)?);
    r.finish()?;
    if !valid_name(identity) || !valid_name(tenant) {
        return Err(auth_err("invalid identity or tenant name in HELLO"));
    }
    Ok(Hello {
        flags,
        suites,
        nonce_c,
        identity,
        tenant,
        a_share,
    })
}

fn encode_welcome(
    suite: CipherSuite,
    nonce_s: &[u8; 16],
    b_share: &BigUint,
    mac_s: &[u8; 32],
) -> Result<Vec<u8>> {
    let mut out = vec![SESSION_WIRE_VERSION, OP_WELCOME, suite.code()];
    out.extend_from_slice(nonce_s);
    push_bytes_u16(&mut out, &b_share.to_bytes_be())?;
    out.extend_from_slice(mac_s);
    Ok(out)
}

fn encode_auth_error(code: u8, detail_a: &str, detail_b: &str) -> Vec<u8> {
    let mut out = vec![SESSION_WIRE_VERSION, OP_AUTH_ERROR, code];
    // Two u16-length-prefixed strings: (message, "") for UNAUTHORIZED,
    // (identity, tenant) for CROSS_TENANT. Truncation must land on a
    // char boundary: a split multi-byte character would make the
    // client's UTF-8 validation reject the frame and mask the reason.
    for s in [detail_a, detail_b] {
        let mut end = s.len().min(512);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let bytes = &s.as_bytes()[..end];
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

fn decode_auth_error(payload: &[u8]) -> Result<PprlError> {
    let mut r = Reader::new(payload, PprlError::Auth);
    if r.u8()? != SESSION_WIRE_VERSION || r.u8()? != OP_AUTH_ERROR {
        return Err(auth_err("not an AUTH_ERROR frame"));
    }
    let code = r.u8()?;
    let a_len = r.u16()?;
    let a = r.str(a_len.into())?.to_string();
    let b_len = r.u16()?;
    let b = r.str(b_len.into())?.to_string();
    r.finish()?;
    Ok(match code {
        AUTH_ERR_CROSS_TENANT => PprlError::CrossTenant {
            identity: a,
            requested: b,
        },
        _ => PprlError::Auth(if a.is_empty() {
            "server rejected the handshake".into()
        } else {
            format!("server rejected the handshake: {a}")
        }),
    })
}

// --------------------------------------------------------------- client

/// Runs the client side of the handshake on a fresh connection.
///
/// `rng` supplies the nonce and ephemeral exponent; production callers
/// should pass [`entropy_rng()`](crate::keys::entropy_rng). Tests may
/// use [`SecretRng::seeded`] for reproducibility — even seeded, the
/// wire-visible nonce reveals nothing about the exponent.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    auth: &ClientAuth,
    rng: &mut SecretRng,
) -> Result<HandshakeOutcome> {
    if !valid_name(&auth.identity) || !valid_name(&auth.tenant) {
        return Err(auth_err(format!(
            "invalid identity `{}` or tenant `{}` (want 1-64 chars of [A-Za-z0-9_-])",
            auth.identity, auth.tenant
        )));
    }
    if auth.suites.is_empty() {
        return Err(auth_err("no cipher suites offered"));
    }
    let group = session_group();
    let nonce_c = rand_nonce(rng);
    let eph = CommutativeKey::generate_secret(&group, rng)?;
    let a_share = eph.encrypt_with(generator_table())?;
    let hello = encode_hello(auth, &nonce_c, &a_share)?;
    write_payload(stream, &hello)?;

    let reply = expect_frame(stream)?;
    // The accept loop sheds load with a *plaintext* v3 Busy before any
    // handshake state exists; recognise it and let the caller back off.
    if let Some(retry_after_ms) = parse_plain_busy(&reply) {
        return Ok(HandshakeOutcome::Busy { retry_after_ms });
    }
    if reply.len() >= 2 && reply[0] == SESSION_WIRE_VERSION && reply[1] == OP_AUTH_ERROR {
        return Err(decode_auth_error(&reply)?);
    }
    let mut r = Reader::new(&reply, PprlError::Auth);
    if r.u8()? != SESSION_WIRE_VERSION || r.u8()? != OP_WELCOME {
        return Err(auth_err(
            "expected WELCOME from server (is the server running with --auth-dir?)",
        ));
    }
    let suite = CipherSuite::from_code(r.u8()?)?;
    let nonce_s: [u8; 16] = r.take(16)?.try_into().unwrap();
    let b_len = r.u16()? as usize;
    let b_share = BigUint::from_bytes_be(r.take(b_len)?);
    let mac_s: [u8; 32] = r.take(32)?.try_into().unwrap();
    r.finish()?;
    // A selection outside the offer is refused immediately; a selection
    // *inside* the offer is still only trusted once mac_s verifies —
    // the transcript binds it, so a rewritten byte fails there.
    if !auth.suites.contains(suite) {
        return Err(auth_err(format!(
            "server selected cipher suite `{suite}` that was not offered"
        )));
    }

    let shared = eph
        .encrypt(&b_share)
        .map_err(|_| auth_err("server key share outside the group; refusing to continue"))?;
    let master = master_secret(
        &auth.key,
        &shared,
        &nonce_c,
        &nonce_s,
        &auth.identity,
        &auth.tenant,
    );
    let t = transcript(&hello, &nonce_s, suite, &b_share);
    let expected_mac_s = confirm_mac(&master, "server-confirm", &t);
    if !ct_eq(&expected_mac_s, &mac_s) {
        return Err(auth_err(
            "server failed key confirmation (wrong key for this identity, or an impostor server)",
        ));
    }
    let mac_c = confirm_mac(&master, "client-confirm", &t);
    let mut confirm = vec![SESSION_WIRE_VERSION, OP_CONFIRM];
    confirm.extend_from_slice(&mac_c);
    write_payload(stream, &confirm)?;

    let verdict = expect_frame(stream)?;
    let mut r = Reader::new(&verdict, PprlError::Auth);
    match (r.u8()?, r.u8()?) {
        (SESSION_WIRE_VERSION, OP_ACCEPT) => {
            r.finish()?;
            Ok(HandshakeOutcome::Established(Box::new(
                SecureChannel::client(&master, auth.encrypt, suite),
            )))
        }
        (SESSION_WIRE_VERSION, OP_AUTH_ERROR) => Err(decode_auth_error(&verdict)?),
        _ => Err(auth_err("unexpected frame instead of ACCEPT")),
    }
}

// --------------------------------------------------------------- server

/// Runs the server side of the handshake.
///
/// `hello_payload` is the first frame the connection produced (already
/// read by the caller, which used its leading byte to route the
/// connection to the session path). `allowed` is the server's suite
/// policy; the fastest suite in both it and the client's offer wins.
/// On any authentication failure this sends a typed `AUTH_ERROR` to
/// the peer before returning the error.
pub fn server_handshake<S: Read + Write>(
    stream: &mut S,
    hello_payload: &[u8],
    registry: &AuthRegistry,
    rng: &mut SecretRng,
    allowed: SuiteOffer,
) -> Result<ServerSession> {
    let hello = decode_hello(hello_payload)?;
    let encrypt = hello.flags & HELLO_FLAG_ENCRYPT != 0;
    let identity = hello.identity.to_string();
    let tenant = hello.tenant.to_string();
    // Suite mismatch is a protocol-compatibility condition, not an
    // authentication secret: reject before any key material is spent.
    let Some(suite) = select_suite(hello.suites, allowed) else {
        let payload = encode_auth_error(
            AUTH_ERR_UNAUTHORIZED,
            "no common cipher suite between client offer and server policy",
            "",
        );
        write_payload(stream, &payload)?;
        return Err(auth_err(format!(
            "no common cipher suite for identity `{identity}` (offer {:#04x}, policy {:#04x})",
            hello.suites.bits(),
            allowed.bits()
        )));
    };

    // Unknown identity? Run the whole flow with a dummy key derived from
    // the claimed name so the wire behaviour (timing aside) is identical
    // to a wrong key: confirmation simply fails. No account oracle.
    let (psk, known) = match registry.get(&identity) {
        Some(entry) => (entry.key.clone(), true),
        None => {
            let mut input = b"pprl-session-dummy:".to_vec();
            input.extend_from_slice(identity.as_bytes());
            (PartyKey::from_bytes(sha256(&input)), false)
        }
    };

    let group = session_group();
    let eph = CommutativeKey::generate_secret(&group, rng)?;
    let b_share = eph.encrypt_with(generator_table())?;
    let shared = match eph.encrypt(&hello.a_share) {
        Ok(s) => s,
        Err(_) => {
            let payload = encode_auth_error(
                AUTH_ERR_UNAUTHORIZED,
                "client key share outside the group",
                "",
            );
            write_payload(stream, &payload)?;
            return Err(auth_err("client key share outside the group"));
        }
    };
    let nonce_s = rand_nonce(rng);
    let master = master_secret(&psk, &shared, &hello.nonce_c, &nonce_s, &identity, &tenant);
    let t = transcript(hello_payload, &nonce_s, suite, &b_share);
    let mac_s = confirm_mac(&master, "server-confirm", &t);
    write_payload(stream, &encode_welcome(suite, &nonce_s, &b_share, &mac_s)?)?;

    let confirm = expect_frame(stream)?;
    let mut r = Reader::new(&confirm, PprlError::Auth);
    let ok = r.u8()? == SESSION_WIRE_VERSION && r.u8()? == OP_CONFIRM && {
        let mac_c: [u8; 32] = r.take(32)?.try_into().unwrap();
        r.finish()?;
        let expected = confirm_mac(&master, "client-confirm", &t);
        ct_eq(&expected, &mac_c)
    };
    if !ok || !known {
        let payload = encode_auth_error(AUTH_ERR_UNAUTHORIZED, "unknown identity or wrong key", "");
        write_payload(stream, &payload)?;
        return Err(auth_err(format!(
            "key confirmation failed for identity `{identity}`"
        )));
    }

    // The client has proven possession of a registered key; only now is
    // the tenant grant consulted, so CrossTenant is never an
    // unauthenticated probe's answer.
    if let Err(e) = registry.authorize(&identity, &tenant) {
        let payload = match &e {
            PprlError::CrossTenant {
                identity,
                requested,
            } => encode_auth_error(AUTH_ERR_CROSS_TENANT, identity, requested),
            other => encode_auth_error(AUTH_ERR_UNAUTHORIZED, &other.to_string(), ""),
        };
        write_payload(stream, &payload)?;
        return Err(e);
    }

    write_payload(stream, &[SESSION_WIRE_VERSION, OP_ACCEPT])?;
    Ok(ServerSession {
        channel: SecureChannel::server(&master, encrypt, suite),
        privileged: registry.is_privileged(&identity),
        identity,
        tenant,
    })
}

/// Convenience wrapper: a full client handshake that retries through
/// `Busy` responses would live in the caller; this just maps the
/// established case, erroring on `Busy`.
pub fn client_handshake_established<S: Read + Write>(
    stream: &mut S,
    auth: &ClientAuth,
) -> Result<SecureChannel> {
    let mut rng = entropy_rng();
    match client_handshake(stream, auth, &mut rng)? {
        HandshakeOutcome::Established(ch) => Ok(*ch),
        HandshakeOutcome::Busy { retry_after_ms } => Err(PprlError::Timeout(format!(
            "server busy during handshake (retry after {retry_after_ms} ms)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TenantGrant;
    use pprl_core::rng::SplitMix64;
    use std::net::{TcpListener, TcpStream};

    fn test_registry() -> (AuthRegistry, PartyKey, PartyKey) {
        let alice = PartyKey::from_bytes([0x11; 32]);
        let admin = PartyKey::from_bytes([0x22; 32]);
        let mut reg = AuthRegistry::new();
        reg.insert("alice", alice.clone(), TenantGrant::One("alice".into()))
            .unwrap();
        reg.insert("admin", admin.clone(), TenantGrant::Any)
            .unwrap();
        (reg, alice, admin)
    }

    /// Runs one client attempt against one server-side handshake over a
    /// real socket pair; returns both outcomes.
    fn run_handshake(
        auth: ClientAuth,
        reg: AuthRegistry,
    ) -> (Result<HandshakeOutcome>, Result<ServerSession>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = match read_payload(&mut stream).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("server expected HELLO, got {other:?}"),
            };
            let mut rng = SecretRng::seeded([42u8; 32]);
            server_handshake(&mut stream, &hello, &reg, &mut rng, SuiteOffer::all())
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut rng = SecretRng::seeded([7u8; 32]);
        let client_result = client_handshake(&mut stream, &auth, &mut rng);
        // Close the client socket before joining: on client-side failure
        // the server is still blocked waiting for CONFIRM.
        drop(stream);
        let server_result = server.join().unwrap();
        (client_result, server_result)
    }

    #[test]
    fn group_prime_is_safe() {
        let p = BigUint::from_hex(GROUP_PRIME_HEX).unwrap();
        assert_eq!(p.bits(), 256);
        let q = p.sub(&BigUint::one()).unwrap().shr(1);
        let mut rng = SplitMix64::new(1);
        assert!(pprl_crypto::prime::is_probable_prime(&p, 32, &mut rng));
        assert!(pprl_crypto::prime::is_probable_prime(&q, 32, &mut rng));
    }

    #[test]
    fn auth_error_detail_truncates_on_char_boundary() {
        // 600 bytes of 2-byte chars: byte 512 is mid-character, so a
        // raw byte-slice truncation would produce invalid UTF-8 and the
        // decoder would mask the real reason behind a parse error.
        let detail = "é".repeat(300);
        let payload = encode_auth_error(AUTH_ERR_UNAUTHORIZED, &detail, "");
        let err = decode_auth_error(&payload).unwrap();
        let msg = err.to_string();
        assert!(
            msg.contains('é'),
            "decoded detail survives truncation: {msg}"
        );
    }

    #[test]
    fn successful_handshake_both_modes() {
        for encrypt in [false, true] {
            let (reg, alice, _) = test_registry();
            let auth = ClientAuth {
                identity: "alice".into(),
                key: alice,
                tenant: "alice".into(),
                encrypt,
                suites: SuiteOffer::default(),
            };
            let (c, s) = run_handshake(auth, reg);
            let HandshakeOutcome::Established(mut cch) = c.unwrap() else {
                panic!("client not established");
            };
            let mut sess = s.unwrap();
            assert_eq!(sess.identity, "alice");
            assert_eq!(sess.tenant, "alice");
            assert!(!sess.privileged);
            assert_eq!(cch.encrypted(), encrypt);
            assert_eq!(sess.channel.encrypted(), encrypt);
            // The two ends agree on keys: frames seal/open across them.
            let sealed = cch.seal(b"ping").unwrap();
            assert_eq!(sess.channel.open(&sealed).unwrap(), b"ping");
            let reply = sess.channel.seal(b"pong").unwrap();
            assert_eq!(cch.open(&reply).unwrap(), b"pong");
        }
    }

    #[test]
    fn wrong_key_rejected_at_handshake() {
        let (reg, _, _) = test_registry();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: PartyKey::from_bytes([0xEE; 32]),
            tenant: "alice".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let (c, s) = run_handshake(auth, reg);
        // The client detects the mismatch first (server's mac_s fails).
        let err = c.unwrap_err();
        assert!(matches!(err, PprlError::Auth(_)), "{err}");
        assert!(s.is_err());
    }

    #[test]
    fn unknown_identity_rejected_like_wrong_key() {
        let (reg, _, _) = test_registry();
        let auth = ClientAuth {
            identity: "mallory".into(),
            key: PartyKey::from_bytes([0xEE; 32]),
            tenant: "mallory".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let (c, s) = run_handshake(auth, reg);
        let err = c.unwrap_err();
        assert!(matches!(err, PprlError::Auth(_)), "{err}");
        assert!(s.is_err());
    }

    #[test]
    fn cross_tenant_typed_error() {
        let (reg, alice, _) = test_registry();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: alice,
            tenant: "org-b".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let (c, s) = run_handshake(auth, reg);
        let expected = PprlError::CrossTenant {
            identity: "alice".into(),
            requested: "org-b".into(),
        };
        assert_eq!(c.unwrap_err(), expected);
        assert_eq!(s.unwrap_err(), expected);
    }

    #[test]
    fn privileged_identity_opens_any_tenant() {
        let (reg, _, admin) = test_registry();
        let auth = ClientAuth {
            identity: "admin".into(),
            key: admin,
            tenant: "org-b".into(),
            encrypt: true,
            suites: SuiteOffer::default(),
        };
        let (c, s) = run_handshake(auth, reg);
        assert!(matches!(c.unwrap(), HandshakeOutcome::Established(_)));
        let sess = s.unwrap();
        assert!(sess.privileged);
        assert_eq!(sess.tenant, "org-b");
    }

    #[test]
    fn plain_busy_reply_surfaces_as_busy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the HELLO, then answer with a plaintext v3 Busy frame
            // exactly as the accept loop does under overflow.
            let _ = read_payload(&mut stream).unwrap();
            let mut busy = vec![
                crate::frame::INNER_WIRE_VERSION,
                crate::frame::INNER_OP_BUSY,
            ];
            busy.extend_from_slice(&120u32.to_le_bytes());
            write_payload(&mut stream, &busy).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: PartyKey::from_bytes([0x11; 32]),
            tenant: "alice".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let mut rng = SecretRng::seeded([9u8; 32]);
        let outcome = client_handshake(&mut stream, &auth, &mut rng).unwrap();
        assert!(matches!(
            outcome,
            HandshakeOutcome::Busy {
                retry_after_ms: 120
            }
        ));
        server.join().unwrap();
    }

    #[test]
    fn tampered_welcome_rejected() {
        let (_, alice, _) = test_registry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = match read_payload(&mut stream).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("{other:?}"),
            };
            let (mut reg, key) = (AuthRegistry::new(), PartyKey::from_bytes([0x11; 32]));
            reg.insert("alice", key, TenantGrant::One("alice".into()))
                .unwrap();
            // A MITM that relays the handshake but flips the encryption
            // flag in HELLO changes the transcript, so confirmation fails.
            let mut tampered = hello.clone();
            tampered[2] ^= HELLO_FLAG_ENCRYPT;
            let mut rng = SecretRng::seeded([4u8; 32]);
            server_handshake(&mut stream, &tampered, &reg, &mut rng, SuiteOffer::all())
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: alice,
            tenant: "alice".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let mut rng = SecretRng::seeded([5u8; 32]);
        let c = client_handshake(&mut stream, &auth, &mut rng);
        assert!(c.is_err(), "client accepted a tampered transcript");
        drop(stream);
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn tampered_suite_offer_rejected() {
        // Downgrade attempt #1: a MITM strips the ChaCha20 bit from the
        // client's offer so the server picks the legacy suite. The offer
        // byte is inside the HELLO payload the transcript signs, so the
        // client's mac_s check fails.
        let (_, alice, _) = test_registry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = match read_payload(&mut stream).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("{other:?}"),
            };
            let (mut reg, key) = (AuthRegistry::new(), PartyKey::from_bytes([0x11; 32]));
            reg.insert("alice", key, TenantGrant::One("alice".into()))
                .unwrap();
            // Byte 3 is the suites-offer bitmask; strip ChaCha20.
            let mut tampered = hello.clone();
            assert_eq!(tampered[3], SuiteOffer::all().bits());
            tampered[3] &= !CipherSuite::ChaCha20.code();
            let mut rng = SecretRng::seeded([4u8; 32]);
            server_handshake(&mut stream, &tampered, &reg, &mut rng, SuiteOffer::all())
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: alice,
            tenant: "alice".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let mut rng = SecretRng::seeded([5u8; 32]);
        let c = client_handshake(&mut stream, &auth, &mut rng);
        assert!(c.is_err(), "client accepted a stripped suite offer");
        drop(stream);
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn rewritten_suite_selection_rejected() {
        // Downgrade attempt #2: a full MITM relays the handshake but
        // rewrites the server's WELCOME selection byte from ChaCha20 to
        // the legacy suite (recomputing the frame checksum, as a real
        // MITM would). The selection is hashed into the transcript on
        // the server side, so mac_s no longer verifies at the client.
        let (reg, alice, _) = test_registry();
        let back = TcpListener::bind("127.0.0.1:0").unwrap();
        let back_addr = back.local_addr().unwrap();
        let front = TcpListener::bind("127.0.0.1:0").unwrap();
        let front_addr = front.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = back.accept().unwrap();
            let hello = match read_payload(&mut stream).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("{other:?}"),
            };
            let mut rng = SecretRng::seeded([4u8; 32]);
            server_handshake(&mut stream, &hello, &reg, &mut rng, SuiteOffer::all())
        });
        let mitm = std::thread::spawn(move || {
            let (mut client_side, _) = front.accept().unwrap();
            let mut server_side = TcpStream::connect(back_addr).unwrap();
            // Relay HELLO untouched.
            let hello = match read_payload(&mut client_side).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("{other:?}"),
            };
            write_payload(&mut server_side, &hello).unwrap();
            // Rewrite WELCOME's suite byte (payload index 2) and re-frame.
            let mut welcome = match read_payload(&mut server_side).unwrap() {
                Incoming::Payload(p) => p,
                other => panic!("{other:?}"),
            };
            assert_eq!(welcome[1], OP_WELCOME);
            assert_eq!(welcome[2], CipherSuite::ChaCha20.code());
            welcome[2] = CipherSuite::HmacCtr.code();
            write_payload(&mut client_side, &welcome).unwrap();
        });
        let mut stream = TcpStream::connect(front_addr).unwrap();
        let auth = ClientAuth {
            identity: "alice".into(),
            key: alice,
            tenant: "alice".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        };
        let mut rng = SecretRng::seeded([5u8; 32]);
        let c = client_handshake(&mut stream, &auth, &mut rng);
        let err = c.unwrap_err();
        assert!(
            err.to_string().contains("confirmation"),
            "downgrade must die at key confirmation, got: {err}"
        );
        drop(stream);
        mitm.join().unwrap();
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn pinned_suites_negotiate_and_disjoint_policy_rejects() {
        for suite in CipherSuite::ALL {
            let (reg, alice, _) = test_registry();
            let auth = ClientAuth {
                identity: "alice".into(),
                key: alice,
                tenant: "alice".into(),
                encrypt: true,
                suites: SuiteOffer::only(suite),
            };
            let (c, s) = run_handshake(auth, reg);
            let HandshakeOutcome::Established(cch) = c.unwrap() else {
                panic!("client not established on pinned {suite}");
            };
            assert_eq!(cch.suite(), suite);
            assert_eq!(s.unwrap().channel.suite(), suite);
        }
    }
}
