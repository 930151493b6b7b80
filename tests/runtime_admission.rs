//! Admission control and backpressure for the event-driven runtime:
//! the in-flight budget is enforced, sheds are always typed `Overloaded`
//! replies (never silent drops), the shed counters match what clients
//! saw, and no client starves on a hot page. Runs under the deadlock
//! watchdog in `scripts/verify.sh`.

use qs_repro::esm::{
    LockMode, Reactor, RecoveryFlavor, Request, Response, RuntimeConfig, Server, ServerConfig,
    StableParts,
};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, Volume};
use qs_repro::trace::Tracer;
use qs_repro::types::{ClientId, Lsn, Oid, PageId, QsError, TxnId};
use qs_repro::wal::{LogManager, RecordWriter};
use std::sync::Arc;
use std::time::Duration;

/// A small loaded server with the given runtime knobs and (optionally) a
/// real per-sync log-disk latency to hold commits in flight.
fn make_server(
    runtime: RuntimeConfig,
    sync_latency: Option<Duration>,
    pages: usize,
) -> (Arc<Server>, Vec<Oid>) {
    let cfg = ServerConfig::new(RecoveryFlavor::EsmAries)
        .with_pool_mb(2.0)
        .with_volume_pages(1024)
        .with_log_mb(32.0)
        .with_runtime(runtime);
    let parts = StableParts {
        data_media: Arc::new(MemDisk::new(Volume::required_bytes(cfg.volume_pages))),
        log_media: Arc::new(match sync_latency {
            Some(lat) => MemDisk::with_sync_latency(LogManager::required_bytes(cfg.log_bytes), lat),
            None => MemDisk::new(LogManager::required_bytes(cfg.log_bytes)),
        }),
        flight: None,
    };
    let server =
        Arc::new(Server::format_on_traced(parts, cfg, Meter::new(), Tracer::disabled()).unwrap());
    let pids = server.bulk_allocate(pages).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..4 {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 80]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    (server, oids)
}

fn update_frame(txn: TxnId, pid: PageId, slot: u16, before: u64, after: u64) -> Vec<u8> {
    let mut enc = Vec::new();
    RecordWriter::new(&mut enc).update(
        txn,
        Lsn::NULL,
        pid,
        slot,
        0,
        &before.to_le_bytes(),
        &after.to_le_bytes(),
    );
    enc
}

fn expect_began(resp: Response) -> TxnId {
    match resp {
        Response::Began(t) => t,
        other => panic!("expected Began, got {}", other.kind()),
    }
}

fn expect_page(resp: Response) -> Box<Page> {
    match resp {
        Response::Page(p) => p,
        other => panic!("expected Page, got {}", other.kind()),
    }
}

fn expect_ok(resp: Response) {
    match resp {
        Response::Ok => {}
        other => panic!("expected Ok, got {}", other.kind()),
    }
}

fn expect_committed(resp: Response) {
    match resp {
        Response::Committed(_) => {}
        other => panic!("expected Committed, got {}", other.kind()),
    }
}

/// Budget of 1: while one commit is being forced (the log disk carries a
/// real 400 ms sync), a second client's submission is deterministically
/// shed with `Overloaded` — and succeeds once the commit drains. The
/// sync is deliberately long: the shed is guaranteed unless this thread
/// is preempted for the whole sync between the two `submit` calls, and
/// 400 ms keeps that window comfortably beyond scheduler jitter when the
/// suite's tests run on oversubscribed cores.
#[test]
fn inflight_budget_sheds_with_typed_reply() {
    let runtime = RuntimeConfig { workers: 1, inflight_budget: 1, ..RuntimeConfig::default() };
    let (server, oids) = make_server(runtime, Some(Duration::from_millis(400)), 2);
    let reactor = Reactor::start(&server);
    let a = reactor.connect(ClientId(0));
    let b = reactor.connect(ClientId(1));

    // Client A builds up log work directly (setup, not under test), then
    // submits its commit through the runtime: the force holds A's
    // admission slot for >= 100 ms.
    let pid = oids[0].page;
    let txn_a = expect_began(a.call(Request::Begin));
    server.lock_page(txn_a, pid, LockMode::X).unwrap();
    server.receive_log_bytes(txn_a, &update_frame(txn_a, pid, 0, 0, 7)).unwrap();
    a.submit(Request::Commit { txn: txn_a });

    // The slot was taken synchronously at submit, so B's very next
    // submission must shed — a typed reply, not silence.
    b.submit(Request::Begin);
    match b.recv() {
        Response::Overloaded => {}
        other => panic!("expected Overloaded while the budget is full, got {}", other.kind()),
    }
    assert_eq!(reactor.stats().shed_budget, 1, "the shed was counted");

    // A's commit completes; the slot frees; B gets through.
    expect_committed(a.recv());
    let txn_b = expect_began(b.call(Request::Begin));
    expect_ok(b.call(Request::Abort { txn: txn_b }));
    assert_eq!(reactor.stats().admitted, 4, "begin-A, commit-A, begin-B, abort-B admitted");

    reactor.stop();
}

/// A closed-loop client — it submits its next request only after the
/// previous reply arrived — never competes with itself for admission:
/// its slot is free again before its reply is posted, so with a budget
/// of 1 and no other client, thousands of round trips shed nothing.
#[test]
fn closed_loop_client_is_never_shed_by_its_own_slot() {
    let runtime = RuntimeConfig { workers: 1, inflight_budget: 1, ..RuntimeConfig::default() };
    let (server, _) = make_server(runtime, None, 1);
    let reactor = Reactor::start(&server);
    let port = reactor.connect(ClientId(0));
    for _ in 0..5_000 {
        let txn = expect_began(port.call(Request::Begin));
        expect_ok(port.call(Request::Abort { txn }));
    }
    assert_eq!(port.sheds_seen(), 0, "the client saw Overloaded replies");
    let stats = reactor.stats();
    assert_eq!(stats.shed_budget, 0, "budget sheds of a lone closed-loop client");
    assert_eq!(stats.admitted, 10_000);
    reactor.stop();
}

/// `queue_depth_max = 0` sheds every submission with `Overloaded` and
/// counts each one — proof that queue-depth shedding replies rather than
/// dropping.
#[test]
fn queue_depth_sheds_are_counted_and_replied() {
    let runtime = RuntimeConfig { workers: 2, queue_depth_max: 0, ..RuntimeConfig::default() };
    let (server, _) = make_server(runtime, None, 2);
    let reactor = Reactor::start(&server);
    let port = reactor.connect(ClientId(0));

    for i in 0..10 {
        port.submit(Request::Begin);
        match port.recv() {
            Response::Overloaded => {}
            other => panic!("submission {i}: expected Overloaded, got {}", other.kind()),
        }
    }
    let stats = reactor.stats();
    assert_eq!(stats.shed_queue, 10, "every shed counted");
    assert_eq!(stats.admitted, 0, "nothing slipped past the depth gate");
    reactor.stop();
}

/// Eight clients hammer one page with X locks through a tiny admission
/// budget: strict 2PL serializes them through the park/resume path, no
/// update is lost, no client starves, and the shed counters agree with
/// what the clients observed.
#[test]
fn hot_page_no_starvation_under_tiny_budget() {
    let runtime = RuntimeConfig {
        workers: 2,
        inflight_budget: 3,
        queue_depth_max: 64,
        ..RuntimeConfig::default()
    };
    let (server, oids) = make_server(runtime, None, 2);
    let reactor = Arc::new(Reactor::start(&server));
    let target = oids[0];

    const THREADS: usize = 8;
    const TXNS: usize = 25;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let port = reactor.connect(ClientId(t as u16));
        handles.push(std::thread::spawn(move || {
            for _ in 0..TXNS {
                let txn = expect_began(port.call(Request::Begin));
                let mut page = expect_page(port.call(Request::FetchLocked {
                    txn,
                    pid: target.page,
                    mode: LockMode::X,
                }));
                let obj = page.object_mut(target.page, target.slot).unwrap();
                let old = u64::from_le_bytes(obj[0..8].try_into().unwrap());
                let newv = old + 1;
                obj[0..8].copy_from_slice(&newv.to_le_bytes());
                expect_ok(port.call(Request::NoteLogged { txn, pid: target.page }));
                expect_ok(port.call(Request::LogBytes {
                    txn,
                    bytes: update_frame(txn, target.page, target.slot, old, newv),
                }));
                expect_ok(port.call(Request::DirtyPage { txn, pid: target.page, page }));
                expect_committed(port.call(Request::Commit { txn }));
            }
            port.sheds_seen()
        }));
    }
    let client_sheds: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let page = server.read_page_for_test(target.page).unwrap();
    let v = u64::from_le_bytes(
        page.object(target.page, target.slot).unwrap()[0..8].try_into().unwrap(),
    );
    assert_eq!(v, (THREADS * TXNS) as u64, "every increment survived serialization");

    let stats = reactor.stats();
    assert_eq!(
        client_sheds,
        stats.shed_budget + stats.shed_queue,
        "every shed the runtime counted was a typed reply some client absorbed"
    );
    assert_eq!(stats.commit_calls, (THREADS * TXNS) as u64);
    assert_eq!(reactor.parked_waiters(), 0, "no request left parked");
    reactor.stop();
}

/// A deadlock between two reactor clients is detected at queue time: the
/// request that would close the cycle gets a typed `LockConflict` reply,
/// the victim aborts, and the parked survivor is granted and completes.
#[test]
fn queue_time_deadlock_denies_the_closer_and_resumes_the_survivor() {
    let runtime = RuntimeConfig { workers: 2, ..RuntimeConfig::default() };
    let (server, oids) = make_server(runtime, None, 2);
    let reactor = Reactor::start(&server);
    let a = reactor.connect(ClientId(0));
    let b = reactor.connect(ClientId(1));
    let (p1, p2) = (oids[0].page, oids[4].page);
    assert_ne!(p1, p2);

    let txn_a = expect_began(a.call(Request::Begin));
    let txn_b = expect_began(b.call(Request::Begin));
    expect_page(a.call(Request::FetchLocked { txn: txn_a, pid: p1, mode: LockMode::X }));
    expect_page(b.call(Request::FetchLocked { txn: txn_b, pid: p2, mode: LockMode::X }));

    // A asks for B's page and parks (no reply yet, no worker blocked).
    a.submit(Request::FetchLocked { txn: txn_a, pid: p2, mode: LockMode::X });
    while reactor.parked_waiters() != 1 {
        std::thread::yield_now();
    }

    // B asking for A's page would close the cycle: denied at queue time
    // with a typed conflict, not a hang.
    match b.call(Request::FetchLocked { txn: txn_b, pid: p1, mode: LockMode::X }) {
        Response::Err(QsError::LockConflict { .. }) => {}
        other => panic!("expected LockConflict for the cycle closer, got {}", other.kind()),
    }

    // The victim aborts; the survivor's parked request is granted.
    expect_ok(b.call(Request::Abort { txn: txn_b }));
    expect_page(a.recv());
    expect_committed(a.call(Request::Commit { txn: txn_a }));

    let stats = reactor.stats();
    assert!(stats.lock_parks >= 1, "A's second fetch parked");
    assert!(stats.lock_resumes >= 1, "A's parked fetch was resumed");
    assert_eq!(reactor.parked_waiters(), 0);
    reactor.stop();
}
