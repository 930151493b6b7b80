//! Log corruption is detected loudly, never silently recovered around.
//! Restart verifies every log frame's checksum before it trusts any of
//! the frame's fields, at every worker count: a damaged frame makes
//! restart return `QsError::LogCorrupt`, or (when restart never needs the
//! frame) recover exactly what the clean log recovers. Runs under the
//! deadlock watchdog in `scripts/verify.sh`.

mod common;

use common::{crashed_images, crashed_images_model, disk_from, image, value_at};
use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{
    ClientConn, LockMode, Reactor, RecoveryFlavor, Request, Response, Server, ServerConfig,
    StableParts,
};
use qs_repro::prng::Prng;
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Lsn, Oid, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_repro::wal::{LogManager, LogRecord, RecordWriter};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

fn server_cfg(flavor: RecoveryFlavor) -> ServerConfig {
    ServerConfig::new(flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0)
}

/// Every record of a crashed log image: its LSN, encoded length, and
/// decoded form, found by walking the next-LSN each read returns.
fn frames(log: &[u8]) -> (usize, Vec<(Lsn, usize, LogRecord)>) {
    let lm = LogManager::open(disk_from(log)).unwrap();
    let mut out = Vec::new();
    let mut at = lm.start_lsn();
    while at < lm.tail_lsn() {
        let (rec, next) = lm.read_record(at).unwrap();
        out.push((at, (next.0 - at.0) as usize, rec));
        at = next;
    }
    (lm.body_capacity(), out)
}

/// Byte offset on the log medium of LSN `lsn` (one header page, then the
/// circular body).
fn media_offset(capacity: usize, lsn: u64) -> usize {
    PAGE_SIZE + (lsn % capacity as u64) as usize
}

/// What a restart of the given media recovered: the object values and
/// the number of transactions left active.
type Recovered = (Vec<Vec<u8>>, usize);

/// Restart the media at `workers` and read every object back. A read
/// that fails after restart counts as a restart failure: the damage was
/// still reported, just later.
fn restart(data: &[u8], log: &[u8], oids: &[Oid], scfg: ServerConfig) -> QsResult<Recovered> {
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new())?;
    let mut values = Vec::with_capacity(oids.len());
    for oid in oids {
        values.push(server.read_page_for_test(oid.page)?.object(oid.page, oid.slot)?.to_vec());
    }
    Ok((values, server.active_txns()))
}

/// A WPL server commits two images of one page, then one bit of the
/// newest image frame's txn field flips. Trusting that field would drop
/// the image as uncommitted and silently recover the older one; restart
/// must instead report the corruption, inline and with worker threads.
#[test]
fn wpl_image_txn_flip_is_log_corrupt_at_every_worker_count() {
    let scfg = server_cfg(RecoveryFlavor::Wpl);
    let server = Server::format(scfg.clone(), Meter::new()).unwrap();
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut p = Page::new();
    let oid = Oid::new(pid, p.insert(pid, &[0u8; 64]).unwrap());
    server.bulk_write(pid, &p).unwrap();
    server.bulk_sync().unwrap();
    for v in [1u8, 2] {
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let mut p = server.read_page_for_test(pid).unwrap();
        p.object_mut(pid, oid.slot).unwrap()[..16].copy_from_slice(&[v; 16]);
        server.receive_dirty_page(txn, pid, p).unwrap();
        server.commit(txn).unwrap();
    }
    assert_eq!(value_at(&server, oid)[..16], [2u8; 16]);
    let parts = server.crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));

    // The clean log recovers v2.
    let (values, _) = restart(&data, &log, &[oid], scfg.clone()).unwrap();
    assert_eq!(values[0][..16], [2u8; 16], "clean restart lost v2");

    // Flip the top bit of the newest image frame's txn field (bytes 9..17).
    let (capacity, frames) = frames(&log);
    let (lsn, _, _) = frames
        .iter()
        .rev()
        .find(|(_, _, rec)| matches!(rec, LogRecord::WholePage { .. }))
        .expect("WPL log holds the committed images");
    let mut bad = log.clone();
    bad[media_offset(capacity, lsn.0 + 16)] ^= 0x80;

    for workers in [1, 2] {
        match restart(&data, &bad, &[oid], scfg.clone().with_redo_workers(workers)) {
            Err(QsError::LogCorrupt { .. }) => {}
            Err(e) => panic!("workers={workers}: expected LogCorrupt, got {e}"),
            Ok((values, _)) => panic!(
                "workers={workers}: corrupt image accepted, recovered {:?}",
                &values[0][..16]
            ),
        }
    }
}

/// ESM logs each freshly allocated page as a whole-page image, and redo
/// installs those images. Analysis verifies them like every other frame,
/// so a flipped byte in the newest image's page id or body is reported,
/// never installed (or redone onto another page).
#[test]
fn aries_whole_page_flip_is_log_corrupt_at_every_worker_count() {
    let cfg = SystemConfig::pd_esm().with_memory(1.0, 0.25);
    let scfg = server_cfg(cfg.flavor);
    let meter = Meter::new();
    let server = Arc::new(Server::format(scfg.clone(), Arc::clone(&meter)).unwrap());
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    let mut oids = Vec::new();
    for round in 1..=4u8 {
        store.begin().unwrap();
        oids.push(store.allocate(&[round; 64]).unwrap());
        store.commit().unwrap();
    }
    drop(store);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));
    let clean = restart(&data, &log, &oids, scfg.clone()).unwrap();
    assert_eq!(clean.0, (1..=4u8).map(|r| vec![r; 64]).collect::<Vec<_>>());

    let (capacity, frames) = frames(&log);
    let (lsn, len, _) = frames
        .iter()
        .rev()
        .find(|(_, _, rec)| matches!(rec, LogRecord::WholePage { .. }))
        .expect("ESM logs new pages as whole-page images");
    // The page id follows the 25-byte fixed prefix (length, checksum,
    // tag, txn, prev); the image body fills the middle of the frame.
    for at in [25, len / 2] {
        let mut bad = log.clone();
        bad[media_offset(capacity, lsn.0 + at as u64)] ^= 0x01;
        for workers in [1, 2] {
            match restart(&data, &bad, &oids, scfg.clone().with_redo_workers(workers)) {
                Err(QsError::LogCorrupt { .. }) => {}
                Err(e) => panic!("byte {at}, workers={workers}: expected LogCorrupt, got {e}"),
                Ok(got) => panic!("byte {at}, workers={workers}: corrupt image accepted: {got:?}"),
            }
        }
    }
}

/// Seeded sweep over the restart-equivalence crash image of every
/// scheme, under sharp and two-phase fuzzy checkpoints (fuzzy ones leave
/// redo work below the analysis window): flip one byte inside each of
/// `K` seeded frames (one frame per trial, anywhere in the frame, length
/// prefix and trailer included) and restart inline and with two workers.
/// Each trial must end in `LogCorrupt` or in exactly the clean restart's
/// recovered state — silent divergence fails.
#[test]
fn seeded_frame_flips_are_detected_or_harmless() {
    const K: usize = 24;
    let schemes = SystemConfig::all_schemes().into_iter().map(|(cfg, _)| cfg);
    for (i, (cfg, fuzzy)) in schemes.flat_map(|c| [(c.clone(), false), (c, true)]).enumerate() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = format!("{}{}", cfg.name(), if fuzzy { "/fuzzy" } else { "" });
        let scfg = server_cfg(cfg.flavor).with_background_flusher(fuzzy);
        let (data, log, oids) = crashed_images(&cfg, scfg.clone());
        let clean = restart(&data, &log, &oids, scfg.clone()).unwrap();
        assert_eq!(clean.0, crashed_images_model(), "{name}: clean restart diverged from model");

        let (capacity, frames) = frames(&log);
        let mut rng = Prng::seed_from_u64(0xC0_22_u64 + i as u64);
        let (mut detected, mut harmless) = (0, 0);
        for _ in 0..K {
            let (lsn, len, _) = &frames[rng.gen_range(0..frames.len())];
            let at = rng.gen_range(0..*len);
            let flip = 1 + rng.gen_below(255) as u8;
            let mut bad = log.clone();
            bad[media_offset(capacity, lsn.0 + at as u64)] ^= flip;
            for workers in [1, 2] {
                match restart(&data, &bad, &oids, scfg.clone().with_redo_workers(workers)) {
                    Err(QsError::LogCorrupt { .. }) => detected += 1,
                    Err(e) => panic!("{name}: {lsn} byte {at} ^ {flip:#x}, workers={workers}: {e}"),
                    Ok(got) => {
                        assert_eq!(
                            got, clean,
                            "{name}: {lsn} byte {at} ^ {flip:#x}, workers={workers}: \
                             silent divergence from the clean restart"
                        );
                        harmless += 1;
                    }
                }
            }
        }
        assert!(detected > 0, "{name}: no flip reached a frame restart reads");
        assert_eq!(detected + harmless, 2 * K);
    }
}

/// One page holding one object of `len` zero bytes, on a fresh server.
fn one_object_server(scfg: ServerConfig, len: usize) -> (Arc<Server>, Oid) {
    let server = Arc::new(Server::format(scfg, Meter::new()).unwrap());
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut p = Page::new();
    let oid = Oid::new(pid, p.insert(pid, &vec![0u8; len]).unwrap());
    server.bulk_write(pid, &p).unwrap();
    server.bulk_sync().unwrap();
    (server, oid)
}

/// The update frame a client ships for `oid`: bytes `offset..` go from
/// `before` to `after`.
fn update_frame(txn: TxnId, oid: Oid, offset: u16, before: &[u8], after: &[u8]) -> Vec<u8> {
    let mut enc = Vec::new();
    RecordWriter::new(&mut enc).update(txn, Lsn::NULL, oid.page, oid.slot, offset, before, after);
    enc
}

/// A byte flipped in a shipped frame is caught when the server receives
/// it, before the server patches the frame's `prev` and re-checksums it:
/// shipped directly or through the reactor, the flipped frame is
/// `LogCorrupt` and nothing of it reaches the log. The same frame unflipped
/// commits and recovers.
#[test]
fn flipped_shipped_frame_is_refused_directly_and_through_the_reactor() {
    let scfg = server_cfg(RecoveryFlavor::EsmAries);
    let (server, oid) = one_object_server(scfg.clone(), 64);
    let reactor = Reactor::start(&server);
    let port = reactor.connect(ClientId(0));
    let txn = match port.call(Request::Begin) {
        Response::Began(t) => t,
        other => panic!("expected Began, got {}", other.kind()),
    };
    server.lock_page(txn, oid.page, LockMode::X).unwrap();
    let good = update_frame(txn, oid, 0, &[0u8; 16], &[0x07; 16]);
    let mut bad = good.clone();
    bad[25 + 12 + 16] ^= 0xFF; // first after-image byte: 0x07 -> 0xF8
    let tail = server.log_used_bytes();

    match server.receive_log_bytes(txn, &bad) {
        Err(QsError::LogCorrupt { .. }) => {}
        other => panic!("direct ship of a flipped frame: expected LogCorrupt, got {other:?}"),
    }
    match port.call(Request::LogBytes { txn, bytes: bad }) {
        Response::Err(QsError::LogCorrupt { .. }) => {}
        Response::Err(e) => panic!("reactor ship of a flipped frame: expected LogCorrupt, got {e}"),
        other => panic!("reactor ship of a flipped frame: expected an error, got {}", other.kind()),
    }
    assert_eq!(server.log_used_bytes(), tail, "a refused frame reached the log");

    match port.call(Request::LogBytes { txn, bytes: good }) {
        Response::Ok => {}
        other => panic!("expected Ok for the intact frame, got {}", other.kind()),
    }
    match port.call(Request::Commit { txn }) {
        Response::Committed(_) => {}
        other => panic!("expected Committed, got {}", other.kind()),
    }
    reactor.stop();
    drop(port);
    drop(reactor);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));
    for workers in [1, 2] {
        let (values, active) =
            restart(&data, &log, &[oid], scfg.clone().with_redo_workers(workers)).unwrap();
        assert_eq!(values[0][..16], [0x07; 16], "workers={workers}");
        assert_eq!(active, 0);
    }
}

/// Panics seen by the hook [`count_panics`] installs, on any thread.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Count every panic in this process from now on, then report it as the
/// default hook would.
fn count_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            report(info);
        }));
    });
}

/// A well-formed update whose byte range runs past the end of its object
/// (bytes 8..20 of a 16-byte object) passes ingestion under ESM, which
/// applies nothing at the server. Copying it into the object is an error
/// wherever it happens: restart redo (inline and on worker threads),
/// rollback, and REDO's apply on receipt — never a panic on any thread.
#[test]
fn update_range_past_the_object_is_an_error_not_a_panic() {
    count_panics();
    let scfg = server_cfg(RecoveryFlavor::EsmAries);
    let ship_overlong = |server: &Server, oid: Oid| {
        let txn = server.begin();
        server.lock_page(txn, oid.page, LockMode::X).unwrap();
        let frame = update_frame(txn, oid, 8, &[0u8; 12], &[7u8; 12]);
        (txn, server.receive_log_bytes(txn, &frame))
    };

    let (server, oid) = one_object_server(scfg.clone(), 16);
    let (txn, shipped) = ship_overlong(&server, oid);
    shipped.unwrap();
    server.commit(txn).unwrap();
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));
    for workers in [1, 2] {
        let got = restart(&data, &log, &[oid], scfg.clone().with_redo_workers(workers));
        assert!(got.is_err(), "workers={workers}: restart redid an overlong update");
    }

    let (server, oid) = one_object_server(scfg.clone(), 16);
    let (txn, shipped) = ship_overlong(&server, oid);
    shipped.unwrap();
    assert!(server.abort(txn).is_err(), "rollback undid an overlong update");

    let (server, oid) = one_object_server(server_cfg(RecoveryFlavor::RedoAtServer), 16);
    assert!(ship_overlong(&server, oid).1.is_err(), "REDO applied an overlong update");

    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
}
