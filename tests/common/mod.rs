//! The crash scenario and helpers shared by the restart suites
//! (`restart_equivalence`, `ckpt_fuzzy`, `restart_corruption`). Each
//! suite uses a subset.
#![allow(dead_code)]

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, StableMedia};
use qs_repro::types::{ClientId, Lsn, Oid};
use qs_repro::wal::RecordWriter;
use std::sync::Arc;

/// Byte image of a stable medium.
pub fn image(media: &Arc<dyn StableMedia>) -> Vec<u8> {
    let mut buf = vec![0u8; media.len()];
    media.read_at(0, &mut buf).unwrap();
    buf
}

/// A fresh medium holding the given image.
pub fn disk_from(bytes: &[u8]) -> Arc<dyn StableMedia> {
    let d = MemDisk::new(bytes.len());
    d.write_at(0, bytes).unwrap();
    Arc::new(d)
}

pub fn value_at(server: &Server, oid: Oid) -> Vec<u8> {
    server.read_page_for_test(oid.page).unwrap().object(oid.page, oid.slot).unwrap().to_vec()
}

/// Build a server on `scfg` with 10 pages × 4 objects and run a crash
/// scenario with work in every restart phase: a committed burst, an
/// *uncommitted* loser made durable by a checkpoint taken while it is
/// active (sharp, or two-phase fuzzy when `scfg` turns the flusher on), a
/// second committed burst after the checkpoint (analysis + redo work),
/// and an in-flight transaction at crash time. Returns the crashed media
/// images and all object ids.
pub fn crashed_images(cfg: &SystemConfig, scfg: ServerConfig) -> (Vec<u8>, Vec<u8>, Vec<Oid>) {
    let meter = Meter::new();
    let server = Arc::new(Server::format(scfg, Arc::clone(&meter)).unwrap());
    let pids = server.bulk_allocate(10).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..4 {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();

    // Burst A: committed work before the checkpoint.
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 1..=6u8 {
        store.begin().unwrap();
        store.modify(oids[round as usize], 0, &[round; 32]).unwrap();
        store.modify(oids[0], 40, &[round; 32]).unwrap();
        store.commit().unwrap();
    }
    drop(store);

    // The loser: an uncommitted transaction on pages the bursts avoid
    // (pages 6..9 — bursts touch only oids on pages 0..5), shipped to the
    // server and made durable by the checkpoint below. Restart must undo
    // it (ARIES) or skip its uncommitted images (WPL).
    let loser = server.begin();
    for &pid in &pids[6..9] {
        server.lock_page(loser, pid, qs_repro::esm::LockMode::X).unwrap();
    }
    match cfg.flavor {
        RecoveryFlavor::Wpl => {
            for &pid in &pids[6..9] {
                let mut p = server.read_page_for_test(pid).unwrap();
                p.object_mut(pid, 0).unwrap()[..16].copy_from_slice(&[0xEE; 16]);
                server.receive_dirty_page(loser, pid, p).unwrap();
            }
        }
        RecoveryFlavor::RedoLogical => {
            // RLOG losers ship logical (after-only) records; restart must
            // drop them in analysis rather than undo them.
            let mut enc = Vec::new();
            let mut w = RecordWriter::new(&mut enc);
            for &pid in &pids[6..9] {
                for i in 0..10u8 {
                    let (slot, offset) = ((i % 4) as u16, (i as u16 % 3) * 20);
                    w.update_logical(loser, Lsn::NULL, pid, slot, offset, &[0xE0 + i; 20]);
                }
            }
            server.receive_log_bytes(loser, &enc).unwrap();
        }
        _ => {
            let mut enc = Vec::new();
            let mut w = RecordWriter::new(&mut enc);
            for &pid in &pids[6..9] {
                for i in 0..10u8 {
                    let (slot, offset) = ((i % 4) as u16, (i as u16 % 3) * 20);
                    w.update(loser, Lsn::NULL, pid, slot, offset, &[0u8; 20], &[0xE0 + i; 20]);
                }
            }
            server.receive_log_bytes(loser, &enc).unwrap();
        }
    }
    // Checkpoint: forces the loser's records durable and seeds the
    // checkpoint's transaction table / WPL table snapshot with them.
    server.checkpoint().unwrap();

    // Burst B: committed work *after* the checkpoint — this is what
    // analysis scans and redo repeats.
    let client =
        ClientConn::new(ClientId(1), Arc::clone(&server), cfg.client_pool_pages(), Meter::new());
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 7..=12u8 {
        store.begin().unwrap();
        store.modify(oids[(round as usize) % 20], 0, &[round; 32]).unwrap();
        store.modify(oids[(round as usize) % 20 + 1], 36, &[round; 24]).unwrap();
        store.commit().unwrap();
    }
    // In flight at crash time (its unforced tail is lost with the crash).
    store.begin().unwrap();
    store.modify(oids[2], 0, &[0xDD; 16]).unwrap();

    drop(store);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids)
}

/// The recovered object values a correct restart must produce, computed
/// without running either restart engine: `objects` objects of 100 zero
/// bytes, then each committed write `(object index, offset, bytes)`
/// applied in commit order.
pub fn model(objects: usize, writes: &[(usize, usize, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut values = vec![vec![0u8; 100]; objects];
    for (i, off, bytes) in writes {
        values[*i][*off..*off + bytes.len()].copy_from_slice(bytes);
    }
    values
}

/// [`model`] of the [`crashed_images`] scenario: bursts A and B applied;
/// the loser and the in-flight transaction leave no trace.
pub fn crashed_images_model() -> Vec<Vec<u8>> {
    let mut writes = Vec::new();
    for round in 1..=6u8 {
        writes.push((round as usize, 0, vec![round; 32]));
        writes.push((0, 40, vec![round; 32]));
    }
    for round in 7..=12u8 {
        writes.push(((round as usize) % 20, 0, vec![round; 32]));
        writes.push(((round as usize) % 20 + 1, 36, vec![round; 24]));
    }
    model(40, &writes)
}
