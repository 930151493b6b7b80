//! Restart equivalence across worker counts: for every recovery scheme,
//! crash the same server mid-burst, then restart the same media image
//! with `redo_workers` ∈ {1, 2, 4, 8} (and pathological chunk sizes).
//! Every run's recovered values must equal an in-test model of the
//! committed writes — a reference that runs no restart code — and the
//! recovered volume, the log, the restart report's phase counts, and
//! every post-restart read must be byte-identical to the inline
//! (`redo_workers = 1`) baseline: worker threads are an optimization,
//! never an observable behavior change.

mod common;

use common::{crashed_images, crashed_images_model, disk_from, image, model, value_at};
use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Oid};
use std::sync::Arc;

fn server_cfg(cfg: &SystemConfig) -> ServerConfig {
    ServerConfig::new(cfg.flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0)
}

/// Everything observable about one restart, for comparison across
/// worker counts.
#[derive(PartialEq, Debug)]
struct Observed {
    phases: Vec<(&'static str, u64, u64, u64, u64)>,
    values: Vec<Vec<u8>>,
    active_txns: usize,
    wpl_entries: usize,
    data_image: Vec<u8>,
    log_image: Vec<u8>,
}

fn restart_observed(
    data: &[u8],
    log: &[u8],
    oids: &[Oid],
    mut scfg: ServerConfig,
    workers: usize,
    chunk_bytes: Option<usize>,
) -> Observed {
    scfg = scfg.with_redo_workers(workers);
    if let Some(cb) = chunk_bytes {
        scfg.restart.chunk_bytes = cb;
    }
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let report = server.restart_report().unwrap();
    let phases = report
        .phases
        .iter()
        .map(|p| (p.name, p.records, p.pages_read, p.data_reads, p.data_writes))
        .collect();
    let values = oids.iter().map(|&o| value_at(&server, o)).collect();
    let active_txns = server.active_txns();
    let wpl_entries = server.wpl_table_len();
    // Quiesce drains the WPL table to permanent locations (and flushes
    // ARIES dirty pages), so the media comparison covers the restored
    // table state too.
    server.quiesce().unwrap();
    let parts = server.crash();
    Observed {
        phases,
        values,
        active_txns,
        wpl_entries,
        data_image: image(&parts.data_media),
        log_image: image(&parts.log_media),
    }
}

#[test]
fn parallel_restart_is_bit_equivalent_to_serial() {
    for cfg in [
        SystemConfig::pd_esm().with_memory(1.0, 0.25),
        SystemConfig::pd_redo().with_memory(1.0, 0.25),
        SystemConfig::pd_rlog().with_memory(1.0, 0.25),
        SystemConfig::wpl().with_memory(1.0, 0.25),
    ] {
        let name = cfg.name();
        let (data, log, oids) = crashed_images(&cfg, server_cfg(&cfg));
        let scfg = server_cfg(&cfg);
        let baseline = restart_observed(&data, &log, &oids, scfg.clone(), 1, None);
        let expected = crashed_images_model();
        assert_eq!(baseline.values, expected, "{name}: workers=1 diverged from the model");

        // The scenario must exercise the engine: scan/analysis work
        // always, undo work for the ARIES flavors.
        assert!(baseline.phases[0].1 > 0, "{name}: no scan work");
        match cfg.flavor {
            RecoveryFlavor::Wpl => {
                assert!(baseline.wpl_entries > 0, "{name}: no WPL entries restored");
            }
            RecoveryFlavor::RedoLogical => {
                assert_eq!(baseline.phases.len(), 2, "{name}: REDO-only restart has no undo");
                assert!(baseline.phases.iter().all(|p| p.0 != "undo"), "{name}: undo phase ran");
                assert!(baseline.phases[1].1 > 0, "{name}: no redo work");
                // The loser's after-images (0xE0..) were dropped in
                // analysis, never applied: its target objects stay zero.
                for oid in &oids[24..36] {
                    let v = &baseline.values[oids.iter().position(|o| o == oid).unwrap()];
                    assert!(v.iter().all(|&b| b == 0), "{name}: loser bytes leaked into {oid:?}");
                }
            }
            _ => {
                assert_eq!(
                    baseline.phases[2].1, 30,
                    "{name}: the loser's 30 updates must be undone"
                );
                assert!(baseline.phases[1].1 > 0, "{name}: no redo work");
            }
        }
        assert_eq!(baseline.active_txns, 0, "{name}: loser still active");

        for (workers, chunk) in [(2, None), (4, None), (8, None), (4, Some(8192)), (3, Some(29))] {
            let got = restart_observed(&data, &log, &oids, scfg.clone(), workers, chunk);
            assert_eq!(
                got.values, expected,
                "{name}: workers={workers} chunk={chunk:?} diverged from the model"
            );
            assert_eq!(
                got, baseline,
                "{name}: workers={workers} chunk={chunk:?} diverged from serial"
            );
        }
    }
}

/// Crash injected *between* a begin-checkpoint and its end record, for
/// all six schemes: the header checkpoint only advances once the end
/// record is durable, so restart must anchor on the previous *complete*
/// checkpoint and recover exactly what a run without the orphaned begin
/// recovers — inline and with worker threads alike.
#[test]
fn crash_between_begin_and_end_checkpoint_falls_back() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();

        // Two runs of the same committed workload under the fuzzy
        // protocol; `orphan` leaves a begin-checkpoint record with no end
        // just before the crash.
        let run = |orphan: bool| -> (Vec<u8>, Vec<u8>, Vec<Oid>) {
            let meter = Meter::new();
            let scfg = server_cfg(&cfg).with_background_flusher(true);
            let server = Arc::new(Server::format(scfg, Arc::clone(&meter)).unwrap());
            let pids = server.bulk_allocate(8).unwrap();
            let mut oids = Vec::new();
            for &pid in &pids {
                let mut p = Page::new();
                for _ in 0..2 {
                    oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
                }
                server.bulk_write(pid, &p).unwrap();
            }
            server.bulk_sync().unwrap();
            let client =
                ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
            let mut store = Store::new(client, cfg.clone()).unwrap();
            for round in 1..=4u8 {
                store.begin().unwrap();
                store.modify(oids[round as usize], 0, &[round; 32]).unwrap();
                store.commit().unwrap();
            }
            drop(store);
            // The previous complete (fuzzy) checkpoint — the anchor
            // restart must fall back to.
            server.checkpoint().unwrap();
            let client = ClientConn::new(
                ClientId(1),
                Arc::clone(&server),
                cfg.client_pool_pages(),
                Meter::new(),
            );
            let mut store = Store::new(client, cfg.clone()).unwrap();
            for round in 5..=9u8 {
                store.begin().unwrap();
                store.modify(oids[round as usize], 0, &[round; 32]).unwrap();
                store.commit().unwrap();
            }
            drop(store);
            if orphan {
                // Begin record appended and forced; no drain, no end
                // record, header still on the previous checkpoint.
                server.begin_checkpoint_for_test().unwrap();
            }
            let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
            (image(&parts.data_media), image(&parts.log_media), oids)
        };

        let (bdata, blog, boids) = run(false);
        let scfg = server_cfg(&cfg).with_background_flusher(true);
        let baseline = restart_observed(&bdata, &blog, &boids, scfg.clone(), 1, None);
        let writes: Vec<_> = (1..=9u8).map(|round| (round as usize, 0, vec![round; 32])).collect();
        let expected = model(16, &writes);
        assert_eq!(baseline.values, expected, "{name}: workers=1 diverged from the model");

        let (odata, olog, ooids) = run(true);
        assert_eq!(boids, ooids, "{name}: scenario divergence");
        let orphaned = restart_observed(&odata, &olog, &ooids, scfg.clone(), 1, None);
        assert_eq!(orphaned.values, expected, "{name}: orphaned media diverged from the model");

        // Same recovered state as the run without the orphan: every
        // committed value intact, nothing left active.
        assert_eq!(
            orphaned.values, baseline.values,
            "{name}: orphaned begin-checkpoint changed recovered values"
        );
        assert_eq!(orphaned.active_txns, 0, "{name}: phantom txn after fallback");

        // And the orphaned media itself restarts bit-identically with
        // worker threads (anchor selection must agree).
        for workers in [2, 4] {
            let got = restart_observed(&odata, &olog, &ooids, scfg.clone(), workers, None);
            assert_eq!(
                got.values, expected,
                "{name}: workers={workers} diverged from the model on orphaned media"
            );
            assert_eq!(got, orphaned, "{name}: workers={workers} diverged on orphaned media");
        }
    }
}

/// Same comparison for a crash with *no* checkpoint and with whole-page
/// records in the ARIES log (freshly allocated pages), covering the
/// null-checkpoint scan window and whole-page redo routing.
#[test]
fn parallel_restart_equivalence_without_checkpoint() {
    for cfg in [
        SystemConfig::pd_esm().with_memory(1.0, 0.25),
        SystemConfig::pd_rlog().with_memory(1.0, 0.25),
        SystemConfig::wpl().with_memory(1.0, 0.25),
    ] {
        let name = cfg.name();
        let meter = Meter::new();
        let server = Arc::new(Server::format(server_cfg(&cfg), Arc::clone(&meter)).unwrap());
        let pids = server.bulk_allocate(4).unwrap();
        let mut oids = Vec::new();
        for &pid in &pids {
            let mut p = Page::new();
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        let client =
            ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
        let mut store = Store::new(client, cfg.clone()).unwrap();
        for round in 1..=8u8 {
            store.begin().unwrap();
            for &oid in &oids {
                store.modify(oid, 0, &[round; 48]).unwrap();
            }
            // Allocating objects touches fresh pages → whole-page /
            // page-alloc records in the log.
            store.allocate(&[round; 64]).unwrap();
            store.commit().unwrap();
        }
        drop(store);
        let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
        let (data, log) = (image(&parts.data_media), image(&parts.log_media));

        let scfg = server_cfg(&cfg);
        let baseline = restart_observed(&data, &log, &oids, scfg.clone(), 1, None);
        let writes: Vec<_> = (0..oids.len()).map(|i| (i, 0, vec![8u8; 48])).collect();
        let expected = model(oids.len(), &writes);
        assert_eq!(baseline.values, expected, "{name}: workers=1 diverged from the model");
        for workers in [2, 4, 8] {
            let got = restart_observed(&data, &log, &oids, scfg.clone(), workers, None);
            assert_eq!(got.values, expected, "{name}: workers={workers} diverged from the model");
            assert_eq!(got, baseline, "{name}: workers={workers} diverged from serial");
        }
    }
}
