//! Steady-state allocation audit for the secure channel: after the
//! handshake and one warm-up exchange, sealing, sending, receiving,
//! and opening a `DATA` frame must not touch the heap at all, for
//! either cipher suite, with and without body encryption. The frame
//! buffers are owned by the channel and reused; MACs run from cached
//! HMAC midstates into stack arrays; keystreams are applied in place.
//!
//! Uses the same counting-global-allocator shim as the E19 compaction
//! bench: an integration test binary gets its own `#[global_allocator]`.
//! The counter is per thread, so the handshake another test runs at the
//! same time is not charged to the frames measured here.

use pprl_session::handshake::{client_handshake_established, server_handshake, ClientAuth};
use pprl_session::keys::{entropy_rng, PartyKey};
use pprl_session::registry::{AuthRegistry, TenantGrant};
use pprl_session::{CipherSuite, IncomingRef, SecureChannel, SuiteOffer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter is a thread-local
// `Cell<u64>` (no destructor, no allocation) and never touches the
// allocator's invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn alloc_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let calls0 = ALLOC_CALLS.with(Cell::get);
    let out = f();
    (out, ALLOC_CALLS.with(Cell::get) - calls0)
}

/// Establishes a real wire v4 session over loopback and hands both
/// channel ends to the calling thread.
fn channel_pair(suite: CipherSuite, encrypt: bool) -> (SecureChannel, SecureChannel) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = match pprl_session::frame::read_payload(&mut stream).unwrap() {
            pprl_session::frame::Incoming::Payload(p) => p,
            other => panic!("expected HELLO, got {other:?}"),
        };
        let mut reg = AuthRegistry::new();
        reg.insert(
            "org-a",
            PartyKey::from_bytes([0xA7; 32]),
            TenantGrant::One("org-a".into()),
        )
        .unwrap();
        let mut rng = entropy_rng();
        server_handshake(&mut stream, &hello, &reg, &mut rng, SuiteOffer::all()).unwrap()
    });
    let auth = ClientAuth {
        identity: "org-a".into(),
        key: PartyKey::from_bytes([0xA7; 32]),
        tenant: "org-a".into(),
        encrypt,
        suites: SuiteOffer::only(suite),
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    let client = client_handshake_established(&mut stream, &auth).unwrap();
    let session = server.join().unwrap();
    (client, session.channel)
}

/// One full application exchange over in-memory transports: client
/// seals + writes a frame, server reads + opens it and checks the
/// payload. Returns the number of wire bytes produced.
fn exchange(
    client: &mut SecureChannel,
    server: &mut SecureChannel,
    wire: &mut [u8],
    payload: &[u8],
) -> usize {
    let mut w = Cursor::new(&mut *wire);
    client.send(&mut w, payload).unwrap();
    let len = w.position() as usize;
    let mut r = Cursor::new(&wire[..len]);
    match server.recv_ref(&mut r).unwrap() {
        IncomingRef::Payload(inner) => assert_eq!(inner, payload),
        other => panic!("expected payload, got {:?}", std::mem::discriminant(&other)),
    }
    len
}

#[test]
fn steady_state_data_frames_do_not_allocate() {
    // A 256-byte body: the size E22's probe answers actually are.
    let payload: Vec<u8> = (0..256u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut wire = vec![0u8; 4096];
    for suite in CipherSuite::ALL {
        for encrypt in [false, true] {
            let (mut client, mut server) = channel_pair(suite, encrypt);
            assert_eq!(client.suite(), suite);
            // Warm-up: first exchange sizes the channel-owned buffers.
            exchange(&mut client, &mut server, &mut wire, &payload);
            // Steady state: every subsequent frame must be heap-silent.
            let (_, calls) = alloc_calls(|| {
                for _ in 0..64 {
                    exchange(&mut client, &mut server, &mut wire, &payload);
                }
            });
            assert_eq!(
                calls, 0,
                "{suite}/encrypt={encrypt}: {calls} allocator calls across 64 steady-state frames"
            );
        }
    }
}

#[test]
fn varying_payload_sizes_allocate_at_most_on_growth() {
    // Shrinking payloads must never allocate; only growth past the
    // high-water mark may touch the allocator (Vec::resize).
    let (mut client, mut server) = channel_pair(CipherSuite::ChaCha20, true);
    let mut wire = vec![0u8; 65536];
    let big: Vec<u8> = vec![0xAB; 8192];
    exchange(&mut client, &mut server, &mut wire, &big);
    let (_, calls) = alloc_calls(|| {
        for len in [8192usize, 4096, 1024, 64, 1, 3000, 8192] {
            exchange(&mut client, &mut server, &mut wire, &big[..len]);
        }
    });
    assert_eq!(calls, 0, "sub-high-water-mark frames allocated");
}
