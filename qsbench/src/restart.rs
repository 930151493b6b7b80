//! `crash-restart`: repeated `Server::restart` from one frozen PD-ESM
//! crash image, at the default restart settings.
//!
//! The image comes from committed OO7 T2A/T2B traversals under the
//! default log watermarks, so it holds at least one checkpoint. It also
//! holds a loser: a T2B left open whose client shipped records and pages
//! mid-traversal (client paging and recovery-buffer overflow), made
//! durable by a second client's commit force. Analysis, redo and undo
//! all have work to do.

use crate::media::{self, Dev, Latency, DATA_DEV, LOG_DEV};
use crate::{oo7mix, quantile, span, Metrics, Op, Phase, Totals, Workload};
use qs_repro::esm::{ClientConn, LockMode, Server, ServerConfig, StableParts};
use qs_repro::oo7::{t1, t2, T2Mode};
use qs_repro::prng::Prng;
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{ClientId, Lsn, PageId, QsError, QsResult};
use qs_repro::wal::RecordWriter;
use std::sync::Arc;
use std::time::Instant;

/// Log bytes written after the last checkpoint before the loser starts.
const TAIL_LOG_BYTES: usize = 5 << 20;

/// Same module, pool and volume as `oo7-mix`; 12 MB of log, so the
/// first checkpoint fires at 7.2 MB and the tail after it reaches 5 MB.
fn server_cfg() -> ServerConfig {
    ServerConfig::new(oo7mix::client_cfg().flavor)
        .with_pool_mb(4.0)
        .with_volume_pages(oo7mix::VOLUME_PAGES)
        .with_log_mb(12.0)
}

/// The live objects of one page, by slot: what a reader can observe.
type PageState = Vec<(u16, Vec<u8>)>;

fn page_state(server: &Server, pid: PageId) -> QsResult<PageState> {
    let page = server.read_page_for_test(pid)?;
    let bytes = page.bytes();
    Ok(page.live_objects().map(|(slot, off, len)| (slot, bytes[off..off + len].to_vec())).collect())
}

/// The winner's one update: a raw ESM client on a page outside the
/// module ships a byte-frame log record and the page, then commits.
fn winner_commit(
    server: &Arc<Server>,
    meter: &Arc<Meter>,
    pid: PageId,
    val: &[u8],
) -> QsResult<()> {
    let mut conn = ClientConn::new(ClientId(1), Arc::clone(server), 4, Arc::clone(meter));
    let txn = conn.begin()?;
    conn.fetch_page(pid, LockMode::X)?;
    let page = conn
        .page_mut(pid)
        .ok_or(QsError::Protocol { detail: format!("page {pid} not cached after fetch") })?;
    let obj = page.object_mut(pid, 0)?;
    let mut enc = Vec::new();
    RecordWriter::new(&mut enc).update(txn, Lsn::NULL, pid, 0, 0, obj, val);
    obj.copy_from_slice(val);
    conn.mark_dirty(pid);
    conn.add_encoded_records(pid, &enc)?;
    conn.ship_cached_dirty_page(pid)?;
    conn.finish_commit()
}

/// (name, records, log pages read, data reads) per restart phase.
type PhaseCounts = Vec<(&'static str, u64, u64, u64)>;

pub struct CrashRestart {
    /// Frozen media of the crashed server.
    data: Vec<u8>,
    log: Vec<u8>,
    log_durable: u64,
    /// Every page's state as restart must recover it.
    expected: Vec<PageState>,
    dev: Option<Dev>,
    /// Shared by every restarted server.
    meter: Arc<Meter>,
    /// The first restart's phase counts; every later one must match.
    counts: Option<PhaseCounts>,
    log_bytes: u64,
    checkpoints: u64,
}

fn build_image(seed: u64, dev: Option<&Dev>) -> QsResult<CrashRestart> {
    let oo7mix::Env { server, mut store, db, meter, log_disk } = oo7mix::build(server_cfg(), None)?;
    let winner = server.bulk_allocate(1)?[0];
    let mut page = Page::new();
    page.insert(winner, &[0u8; 64])?;
    server.bulk_write(winner, &page)?;
    server.bulk_sync()?;

    let module = &db.modules[0];
    let mut rng = Prng::seed_from_u64(seed ^ 0x7e57_a27e_57a2_7e57);
    let mut rounds = 0;
    while server.checkpoints_taken() == 0 || server.log_used_bytes() < TAIL_LOG_BYTES {
        if rounds == 1000 {
            return Err(QsError::Config {
                detail: "crash image never reached its log target".into(),
            });
        }
        let mode = if rng.gen_bool(0.5) { T2Mode::A } else { T2Mode::B };
        store.begin()?;
        t2(&mut store, module, mode)?;
        store.commit()?;
        rounds += 1;
    }
    let pages = server.allocated_pages() as u32;
    let mut expected =
        (0..pages).map(|p| page_state(&server, PageId(p))).collect::<QsResult<Vec<_>>>()?;

    // A read-only T1 leaves the client pool in the same state whatever
    // the seeded sequence before it, so the loser's work does not vary
    // from seed to seed.
    store.begin()?;
    t1(&mut store, module)?;
    store.commit()?;
    // The loser: a T2B that never commits. Its pool and recovery buffer
    // overflow mid-traversal, so records and stolen pages reach the server.
    store.begin()?;
    t2(&mut store, module, T2Mode::B)?;
    let mut val = [0u8; 64];
    rng.fill_bytes(&mut val);
    winner_commit(&server, &meter, winner, &val)?;
    expected[winner.0 as usize] = vec![(0, val.to_vec())];

    drop(store);
    let log_durable = media::durable_lsn(&log_disk);
    let parts = Arc::try_unwrap(server)
        .map_err(|_| QsError::Protocol { detail: "server still shared at crash".into() })?
        .crash();
    Ok(CrashRestart {
        data: media::image(&parts.data_media),
        log: media::image(&parts.log_media),
        log_durable,
        expected,
        dev: dev.cloned(),
        meter: Meter::new(),
        counts: None,
        log_bytes: 0,
        checkpoints: 0,
    })
}

impl CrashRestart {
    /// One timed restart from fresh copies of the image, then its checks:
    /// phase counts equal to the first restart's, analysis, redo and undo
    /// all at work, and every page equal to the committed snapshot (the
    /// loser invisible). Returns the restart's wall time.
    fn restart_once(&mut self, op: u64) -> Result<u64, String> {
        let dev = self.dev.as_ref();
        let none = Latency::default();
        let (log_media, log_disk) =
            media::medium(self.log.len(), none, Some(&self.log), dev.map(|d| (LOG_DEV, &d.0)));
        let (data_media, _) =
            media::medium(self.data.len(), none, Some(&self.data), dev.map(|d| (DATA_DEV, &d.1)));
        let parts = StableParts { data_media, log_media, flight: None };
        let meter = Arc::clone(&self.meter);
        let t0 = Instant::now();
        let server = span::run("restart", op, || Server::restart(parts, server_cfg(), meter))
            .map_err(|e| format!("restart failed: {e}"))?;
        let lat_ns = t0.elapsed().as_nanos() as u64;
        self.log_bytes += media::durable_lsn(&log_disk) - self.log_durable;
        self.checkpoints += server.checkpoints_taken();

        let report = server.restart_report().ok_or("restart left no report")?;
        let counts: PhaseCounts =
            report.phases.iter().map(|p| (p.name, p.records, p.pages_read, p.data_reads)).collect();
        match &self.counts {
            Some(first) if *first != counts => {
                return Err(format!("phase counts changed: {counts:?} vs {first:?}"));
            }
            Some(_) => {}
            None if counts.len() != 3 || counts.iter().any(|c| c.1 == 0) => {
                return Err(format!("analysis, redo and undo must all do work: {counts:?}"));
            }
            None => self.counts = Some(counts),
        }
        for (p, want) in self.expected.iter().enumerate() {
            let got =
                page_state(&server, PageId(p as u32)).map_err(|e| format!("read-back: {e}"))?;
            if &got != want {
                return Err(format!("page {p} differs from the committed snapshot"));
            }
        }
        Ok(lat_ns)
    }
}

impl Workload for CrashRestart {
    const TAIL_Q: f64 = 0.90;
    const CPU_BOUND: bool = true;

    fn setup(seed: u64, dev: Option<&Dev>) -> Result<Self, String> {
        build_image(seed, dev).map_err(|e| e.to_string())
    }

    fn mark(&mut self) {
        self.meter = Meter::new();
        self.log_bytes = 0;
        self.checkpoints = 0;
    }

    fn measure(&mut self, phase: &mut Phase, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            phase.attempted += 1;
            let lat_ns = self.restart_once(phase.attempted)?;
            phase.ops.push(Op { class: 0, lat_ns });
        }
        phase.wall_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn totals(&self) -> Totals {
        Totals {
            log_bytes: self.log_bytes,
            checkpoints: self.checkpoints,
            meter: self.meter.snapshot(),
            restart: self.counts.clone().unwrap_or_default(),
        }
    }

    /// Every restart was checked as it ran.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn detail(phase: &Phase, _: &Totals) -> Metrics {
        let lat = phase.lat_ms(None);
        vec![
            ("restart_p50_ms".into(), quantile(&lat, 0.5), "ms"),
            ("restart_p90_ms".into(), quantile(&lat, 0.9), "ms"),
        ]
    }
}
