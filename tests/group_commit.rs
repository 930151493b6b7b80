//! Group commit under concurrency: K clients committing at once must
//! produce at least one and at most K real log forces (the group committer
//! batches them), and every commit must be durable across a crash — for
//! every recovery flavor.

use qs_repro::esm::{LockMode, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, Volume};
use qs_repro::types::{Lsn, QsResult};
use qs_repro::wal::{LogManager, RecordWriter};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent committers.
const K: usize = 6;

fn cfg(flavor: RecoveryFlavor) -> ServerConfig {
    ServerConfig::new(flavor)
        .with_pool_mb(1.0)
        .with_volume_pages(256)
        .with_log_mb(8.0)
        .with_pool_shards(4)
        .with_group_commit(true)
}

/// Media where a log sync costs real wall time, so concurrent commits pile
/// up behind the leader's sync and the batching is observable.
fn parts_with_slow_log(c: &ServerConfig) -> StableParts {
    StableParts {
        data_media: Arc::new(MemDisk::new(Volume::required_bytes(c.volume_pages))),
        log_media: Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(c.log_bytes),
            Duration::from_micros(500),
        )),
        flight: None,
    }
}

fn commit_one(
    server: &Server,
    flavor: RecoveryFlavor,
    pid: qs_repro::types::PageId,
    val: u8,
) -> QsResult<()> {
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X)?;
    let mut page = server.fetch_page(txn, pid)?;
    page.object_mut(pid, 0)?.fill(val);
    match flavor {
        RecoveryFlavor::Wpl => server.receive_dirty_page(txn, pid, page)?,
        _ => {
            let mut enc = Vec::new();
            RecordWriter::new(&mut enc).update(txn, Lsn::NULL, pid, 0, 0, &[0u8; 64], &[val; 64]);
            server.receive_log_bytes(txn, &enc)?;
            if flavor == RecoveryFlavor::EsmAries {
                server.receive_dirty_page(txn, pid, page)?;
            }
        }
    }
    server.commit(txn).map(|_| ())
}

fn run_flavor(flavor: RecoveryFlavor) {
    let c = cfg(flavor);
    let meter = Meter::new();
    let server = Arc::new(
        Server::format_on(parts_with_slow_log(&c), c.clone(), Arc::clone(&meter)).unwrap(),
    );
    let pids = server.bulk_allocate(K).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();

    let before = meter.snapshot();
    std::thread::scope(|s| {
        for (i, &pid) in pids.iter().enumerate() {
            let server = Arc::clone(&server);
            s.spawn(move || commit_one(&server, flavor, pid, (i + 1) as u8).unwrap());
        }
    });

    // Nothing else forces in this workload (pool big enough that no
    // eviction steals, log far below the maintenance watermark), so the
    // force counters are exactly the commit path's.
    let d = meter.snapshot().since(&before);
    assert_eq!(d.commits, K as u64);
    assert!(d.log_forces >= 1, "the last committer cannot be absorbed");
    assert!(d.log_forces <= K as u64, "never more forces than commits");
    assert_eq!(
        d.log_forces + d.log_forces_noop,
        K as u64,
        "every commit meters exactly one force outcome (real or absorbed)"
    );
    let (calls, forces) = server.group_commit_stats();
    assert_eq!(calls, K as u64, "every commit went through the group committer");
    assert_eq!(forces, d.log_forces, "group committer and meter agree on real forces");

    // Crash; every committed value must survive restart.
    let parts = Arc::try_unwrap(server).ok().expect("threads joined; sole owner").crash();
    let s2 = Server::restart(parts, c, Meter::new()).unwrap();
    assert_eq!(s2.active_txns(), 0, "restart left no loser transactions");
    for (i, &pid) in pids.iter().enumerate() {
        let page = s2.read_page_for_test(pid).unwrap();
        assert_eq!(
            page.object(pid, 0).unwrap(),
            &[(i + 1) as u8; 64][..],
            "commit by thread {i} survived the crash under {flavor:?}"
        );
    }
}

#[test]
fn concurrent_commits_are_batched_and_durable_esm() {
    run_flavor(RecoveryFlavor::EsmAries);
}

#[test]
fn concurrent_commits_are_batched_and_durable_redo() {
    run_flavor(RecoveryFlavor::RedoAtServer);
}

#[test]
fn concurrent_commits_are_batched_and_durable_wpl() {
    run_flavor(RecoveryFlavor::Wpl);
}
