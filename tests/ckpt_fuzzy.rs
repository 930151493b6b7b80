//! Two-phase fuzzy checkpoint equivalence: with the background-flusher
//! knob on, `checkpoint()` becomes begin record → incremental drain →
//! end record, taken *without* quiescing — including mid-transaction,
//! with an uncommitted loser active and shipped. For every one of the
//! six schemes, a crash after fuzzy checkpoints must recover exactly
//! the state the quiesced-checkpoint oracle recovers: same committed
//! values (the in-test model of the committed writes), same
//! undone/skipped losers, and the fuzzy media must restart
//! bit-identically at every worker count.

mod common;

use common::{crashed_images, crashed_images_model, disk_from, image, value_at};
use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Oid};
use std::sync::Arc;

fn server_cfg(cfg: &SystemConfig, fuzzy: bool) -> ServerConfig {
    ServerConfig::new(cfg.flavor)
        .with_pool_mb(1.0)
        .with_volume_pages(256)
        .with_log_mb(8.0)
        .with_background_flusher(fuzzy)
}

/// Everything observable about one restart.
#[derive(PartialEq, Debug)]
struct Observed {
    values: Vec<Vec<u8>>,
    active_txns: usize,
    data_image: Vec<u8>,
    log_image: Vec<u8>,
}

fn restart_observed(
    data: &[u8],
    log: &[u8],
    oids: &[Oid],
    scfg: ServerConfig,
    workers: usize,
) -> Observed {
    let scfg = scfg.with_redo_workers(workers);
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let values = oids.iter().map(|&o| value_at(&server, o)).collect();
    let active_txns = server.active_txns();
    server.quiesce().unwrap();
    let parts = server.crash();
    Observed {
        values,
        active_txns,
        data_image: image(&parts.data_media),
        log_image: image(&parts.log_media),
    }
}

/// For every scheme: the fuzzy-checkpoint crash recovers the same logical
/// state as the quiesced-checkpoint oracle (committed values identical,
/// loser gone, both equal to the model), and the fuzzy media restart
/// identically at every worker count. The media images themselves differ between the two
/// protocols (different checkpoint records), so the comparison is on
/// recovered state, not raw bytes.
#[test]
fn fuzzy_checkpoint_recovers_like_the_quiesced_oracle() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();

        let (odata, olog, oids) = crashed_images(&cfg, server_cfg(&cfg, false));
        let oracle = restart_observed(&odata, &olog, &oids, server_cfg(&cfg, false), 1);
        let expected = crashed_images_model();
        assert_eq!(oracle.values, expected, "{name}: quiesced oracle diverged from the model");

        let (fdata, flog, foids) = crashed_images(&cfg, server_cfg(&cfg, true));
        assert_eq!(oids, foids, "{name}: scenario divergence");
        let fuzzy = restart_observed(&fdata, &flog, &foids, server_cfg(&cfg, true), 1);
        assert_eq!(fuzzy.values, expected, "{name}: workers=1 diverged from the model");

        assert_eq!(
            fuzzy.values, oracle.values,
            "{name}: fuzzy-checkpoint recovery diverged from the quiesced oracle"
        );
        assert_eq!(fuzzy.active_txns, 0, "{name}: loser survived fuzzy recovery");

        // Inline vs threaded restart of the *same* fuzzy media must be
        // bit-identical, begin/end anchoring included.
        for workers in [2, 4, 8] {
            let got = restart_observed(&fdata, &flog, &foids, server_cfg(&cfg, true), workers);
            assert_eq!(got.values, expected, "{name}: workers={workers} diverged from the model");
            assert_eq!(got, fuzzy, "{name}: workers={workers} diverged on fuzzy media");
        }
    }
}

/// The fuzzy drain must actually write data pages outside any quiesce:
/// dirty pages claimed at begin are on disk before the end record, so a
/// crash *immediately* after a fuzzy checkpoint replays only the log
/// tail. Sanity-checks the elevator batches really ran for the
/// page-shipping schemes (WPL drains via reclaim, not the checkpoint).
#[test]
fn fuzzy_drain_flushes_claimed_pages() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        if cfg.flavor == RecoveryFlavor::Wpl || cfg.flavor == RecoveryFlavor::RedoLogical {
            // WPL claims nothing; RLOG's aged claim is empty on the first
            // checkpoint (nothing predates a null previous checkpoint).
            continue;
        }
        let name = cfg.name();
        let meter = Meter::new();
        let server = Arc::new(Server::format(server_cfg(&cfg, true), Arc::clone(&meter)).unwrap());
        let pids = server.bulk_allocate(8).unwrap();
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
        for (i, &oid) in oids.iter().enumerate() {
            store.begin().unwrap();
            store.modify(oid, 0, &[i as u8 + 1; 32]).unwrap();
            store.commit().unwrap();
        }
        drop(store);
        server.checkpoint().unwrap();
        let (batches, pages) = server.flusher_stats();
        assert!(batches > 0, "{name}: fuzzy checkpoint drained no batches");
        assert!(pages >= 8, "{name}: fuzzy checkpoint drained {pages} pages, expected >= 8");
        drop(Arc::try_unwrap(server).ok().expect("sole owner").crash());
    }
}
