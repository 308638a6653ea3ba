//! A served request allocates nothing once the server is warm.
//!
//! This binary installs a counting global allocator and holds one test,
//! so nothing else runs while it counts.  It checks two levels:
//!
//! * the core: a [`ServeCore`] with telemetry attached answers arrivals
//!   (auto-rebalance rings and an explicit ring count), departures and
//!   rings, and each reply is encoded into a reused buffer, with zero
//!   allocations;
//! * the server: pipelined bursts of bodiless `POST /v1/arrive`,
//!   `/v1/depart` and `/v1/ring` requests go through framing, routing,
//!   the core, the reply encoder, the per-batch telemetry publish and the
//!   socket write, again with zero allocations in the whole process.
//!
//! A request body is still parsed into a JSON tree (`{"rings": 3}` over
//! HTTP allocates), which is why the server level sends none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::{
    serve, ArriveRequest, DepartRequest, HttpClient, RingRequest, ServeCore, ServePolicy,
    ServerConfig,
};
use rls_workloads::ArrivalProcess;
use serde::Serialize;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// Allocations and reallocations since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation or reallocation.
fn tally() {
    // ORDERING: relaxed — the count is read on the thread that ran the
    // counted code, after the server's replies to it were read.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

// Every method forwards to `System` with the caller's arguments
// unchanged; the only addition is `tally`, which neither allocates nor
// touches the memory handed out.
// SAFETY: so `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: `layout` is the caller's, non-zero-sized as required.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: `layout` is the caller's, non-zero-sized as required.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `realloc` contract is passed on unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from `System` (through us) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `dealloc` contract is passed on unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (through us) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    // ORDERING: relaxed — see `tally`.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations `run` makes.
fn count(run: impl FnOnce()) -> u64 {
    let before = allocations();
    run();
    allocations() - before
}

/// The serving core `serve run` boots by default (rls on the complete
/// graph, Poisson(8) rings per arrival), at a small size, with telemetry.
fn core() -> ServeCore {
    let (n, m) = (256usize, 4096u64);
    let params = LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, n, m).unwrap();
    let initial = Config::uniform(n, m / n as u64).unwrap();
    let engine = LiveEngine::with_policy(
        initial,
        params,
        RebalancePolicy::rls(),
        Topology::Complete,
        11,
    )
    .unwrap();
    let mut core = ServeCore::new(
        engine,
        7,
        0.0,
        ServePolicy {
            rings_per_arrival: 8.0,
        },
    );
    core.attach_metrics(&Registry::new());
    core
}

/// One round of the core's hot requests, each reply encoded into
/// `body` the way the server encodes it.
fn core_round(core: &mut ServeCore, body: &mut String) {
    let auto = ArriveRequest::default();
    let explicit = ArriveRequest {
        rings: Some(3),
        ..ArriveRequest::default()
    };
    let (depart, ring) = (DepartRequest::default(), RingRequest::default());
    for _ in 0..4 {
        body.clear();
        core.arrive(&auto).unwrap().write_json(body);
        body.clear();
        core.arrive(&explicit).unwrap().write_json(body);
        body.clear();
        core.depart(&depart).unwrap().write_json(body);
        body.clear();
        core.depart(&depart).unwrap().write_json(body);
        body.clear();
        core.ring(&ring).unwrap().write_json(body);
    }
}

/// Pipeline depth of a server burst.
const BURST: usize = 16;

/// One pipelined burst: arrivals, departures and rings, bodiless, in a
/// population-neutral mix; every response must be a 200.
fn server_burst(client: &mut HttpClient) {
    for i in 0..BURST {
        let path = match i % 4 {
            0 | 2 => "/v1/arrive",
            1 => "/v1/depart",
            _ => "/v1/ring",
        };
        client.queue("POST", path, b"");
    }
    // The burst above adds one ball per four requests; take it back.
    for _ in 0..BURST / 4 {
        client.queue("POST", "/v1/depart", b"");
    }
    client.flush().unwrap();
    for _ in 0..BURST + BURST / 4 {
        assert_eq!(client.recv_status().unwrap(), 200);
    }
}

#[test]
fn a_warm_server_serves_requests_without_allocating() {
    // The core, with replies encoded into a reused buffer.
    let mut core = core();
    let mut body = String::new();
    for _ in 0..200 {
        core_round(&mut core, &mut body);
    }
    let core_allocations = count(|| {
        for _ in 0..200 {
            core_round(&mut core, &mut body);
        }
    });
    assert_eq!(core_allocations, 0, "allocations in 4,000 core requests");

    // The whole server, over a real socket.
    let server = serve(core, &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..200 {
        server_burst(&mut client);
    }
    let server_allocations = count(|| {
        for _ in 0..200 {
            server_burst(&mut client);
        }
    });
    assert_eq!(
        server_allocations, 0,
        "allocations in 4,000 served requests"
    );
    drop(client);
    server.shutdown();
}
