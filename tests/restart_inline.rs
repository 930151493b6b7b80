//! At `redo_workers = 1` restart runs inline on the calling thread and
//! spawns no threads. A poller thread watches the process's thread count
//! (`/proc/self/task`) while restarts run; this suite holds one test, so
//! no other test's threads come and go meanwhile.
#![cfg(target_os = "linux")]

mod common;

use common::{crashed_images, disk_from};
use qs_repro::core::SystemConfig;
use qs_repro::esm::{Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// Run up to `restarts` restarts of the crash image at `workers` while
/// polling the thread count; returns the most threads seen beyond the
/// caller and the poller. Threaded runs stop once a thread was seen.
fn extra_threads_during(
    restarts: usize,
    workers: usize,
    scfg: &ServerConfig,
    (data, log): (&[u8], &[u8]),
) -> usize {
    let scfg = scfg.clone().with_redo_workers(workers);
    let base = threads();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let poller = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
            }
        })
    };
    for _ in 0..restarts {
        let parts =
            StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
        Server::restart(parts, scfg.clone(), Meter::new()).unwrap();
        if workers > 1 && peak.load(Ordering::Relaxed) > base + 1 {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    poller.join().unwrap();
    peak.load(Ordering::Relaxed).saturating_sub(base + 1)
}

#[test]
fn one_worker_restart_spawns_no_threads() {
    let cfg = SystemConfig::pd_esm().with_memory(1.0, 0.25);
    let scfg =
        ServerConfig::new(cfg.flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0);
    let (data, log, _) = crashed_images(&cfg, scfg.clone());
    let images = (data.as_slice(), log.as_slice());
    // The probe works: threaded restarts are seen.
    assert!(extra_threads_during(500, 2, &scfg, images) > 0, "poller never saw a restart thread");
    assert_eq!(extra_threads_during(20, 1, &scfg, images), 0, "one-worker restart spawned threads");
}
