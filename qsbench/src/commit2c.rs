//! `commit-2c`: two ESM client connections (`ClientConn` plus
//! `RecordWriter` byte frames, the production path) run short update
//! transactions on disjoint page sets, each client on its own thread in
//! a closed loop.
//!
//! Each set fits in both the client and the server pool. The log device
//! pays a modeled 1 ms per sync, above a transaction's client CPU, and
//! the data device 1 ms per page write. The log is small, so the server's
//! own watermark maintenance checkpoints many times per run.

use crate::media::{self, Dev, Latency, DATA_DEV, LOG_DEV};
use crate::{quantile, span, Metrics, Op, Phase, Totals, Workload};
use qs_repro::esm::{ClientConn, LockMode, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::prng::Prng;
use qs_repro::sim::{Meter, MeterSnapshot};
use qs_repro::storage::{MemDisk, Page, Volume};
use qs_repro::types::{ClientId, Lsn, PageId, QsError, QsResult};
use qs_repro::wal::{LogManager, RecordWriter};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const PAGES_PER_CLIENT: usize = 24;
/// Pages per transaction, drawn uniformly from this range. With only a
/// few pages, a client's work between two commits is shorter than the
/// other client's thread takes to wake, so which of the two takes the
/// next log force depends on scheduler timing and whole runs flip between
/// regimes. From about 8 pages up, the share of commits that ride the
/// other client's force holds steady from run to run.
const PAGES_PER_TXN: std::ops::RangeInclusive<usize> = 8..=24;
const OBJECT_BYTES: usize = 64;
/// Each client's whole set fits.
const CLIENT_POOL_PAGES: usize = 64;
const LOG_SYNC: Duration = Duration::from_millis(1);
/// A checkpoint stalls commits for its 48 page writes. At 1 ms a write
/// the stall is about 50 ms, and the few tens of microseconds a sleep
/// overshoots on a busy host stay a small part of it.
const DATA_WRITE: Duration = Duration::from_millis(1);

/// A 256-page server pool holds both sets. 5 MB of log reaches the
/// default high watermark about every 1,000 commits, so a checkpoint
/// stalls about 0.2% of commits: the victim and the other client's.
fn server_cfg() -> ServerConfig {
    ServerConfig::new(RecoveryFlavor::EsmAries)
        .with_pool_mb(2.0)
        .with_volume_pages(256)
        .with_log_mb(5.0)
}

/// One client connection and its closed-loop state.
struct Client {
    idx: usize,
    conn: ClientConn,
    set: Vec<PageId>,
    rng: Prng,
    seq: u64,
    /// Last committed object value per page of the set.
    committed: Vec<[u8; OBJECT_BYTES]>,
    /// Page indices, partly shuffled to draw each transaction's pages.
    order: Vec<usize>,
    /// Encoded log record per page of the running transaction.
    enc: Vec<Vec<u8>>,
}

impl Client {
    /// One update transaction over `picks` (indices into the set), one
    /// layer call at a time: lock (and fetch) every page, ship every
    /// page's log record, ship every page, commit.
    fn txn(
        &mut self,
        picks: &[usize],
        val: &[u8; OBJECT_BYTES],
        op: u64,
        victim_ns: &mut u64,
    ) -> QsResult<()> {
        let Client { conn, set, enc, .. } = self;
        let txn = span::run("esm_client.begin", op, || conn.begin())?;
        span::run("esm_client.fetch", op, || {
            picks.iter().try_for_each(|&i| {
                if conn.cached(set[i]) {
                    conn.x_lock(set[i])
                } else {
                    conn.fetch_page(set[i], LockMode::X)
                }
            })
        })?;
        enc.resize_with(picks.len(), Vec::new);
        for (&i, rec) in picks.iter().zip(enc.iter_mut()) {
            let pid = set[i];
            let page = conn.page_mut(pid).ok_or(QsError::Protocol {
                detail: format!("page {pid} not cached after fetch"),
            })?;
            let obj = page.object_mut(pid, 0)?;
            rec.clear();
            RecordWriter::new(rec).update(txn, Lsn::NULL, pid, 0, 0, obj, val);
            obj.copy_from_slice(val);
            conn.mark_dirty(pid);
        }
        span::run("esm_client.log_ship", op, || {
            picks
                .iter()
                .zip(enc.iter())
                .try_for_each(|(&i, rec)| conn.add_encoded_records(set[i], rec))
        })?;
        span::run("esm_client.page_ship", op, || {
            picks.iter().try_for_each(|&i| conn.ship_cached_dirty_page(set[i]))
        })?;
        let ck = conn.server().checkpoints_taken();
        let t0 = Instant::now();
        span::run("esm_client.finish_commit", op, || conn.finish_commit())?;
        if conn.server().checkpoints_taken() > ck {
            *victim_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// The closed loop for `seconds`; returns what it measured.
    fn run(&mut self, seconds: f64) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.seq += 1;
            // A seeded choice of distinct pages, in ascending order.
            let n = self.rng.gen_range(*PAGES_PER_TXN.start()..PAGES_PER_TXN.end() + 1);
            for k in 0..n {
                let j = k + self.rng.gen_range(0..self.order.len() - k);
                self.order.swap(k, j);
            }
            let mut picks = self.order[..n].to_vec();
            picks.sort_unstable();
            let mut val = [0u8; OBJECT_BYTES];
            for (w, chunk) in val.chunks_mut(8).enumerate() {
                let word = (self.idx as u64) << 56 | self.seq << 3 | w as u64;
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            let op = (self.idx as u64 + 1) << 48 | self.seq;
            let t0 = Instant::now();
            let res = span::run("txn", op, || self.txn(&picks, &val, op, &mut phase.victim_ns));
            let lat_ns = t0.elapsed().as_nanos() as u64;
            phase.attempted += 1;
            match res {
                Ok(()) => {
                    phase.ops.push(Op { class: 0, lat_ns });
                    for &i in &picks {
                        self.committed[i] = val;
                    }
                }
                Err(_) => {
                    phase.failed += 1;
                    if self.conn.in_txn() && self.conn.abort().is_err() {
                        return Err("abort after a failed transaction failed".into());
                    }
                }
            }
        }
        Ok(phase)
    }
}

pub struct Commit2c {
    server: Arc<Server>,
    log_disk: Arc<MemDisk>,
    meter: Arc<Meter>,
    clients: Vec<Client>,
    /// Meter, durable log end and checkpoint count at `mark`.
    start: Option<(MeterSnapshot, u64, u64)>,
}

fn build(seed: u64, dev: Option<&Dev>) -> QsResult<Commit2c> {
    let cfg = server_cfg();
    let (log_media, log_disk) = media::medium(
        LogManager::required_bytes(cfg.log_bytes),
        Latency { sync: LOG_SYNC, write: Duration::ZERO },
        None,
        dev.map(|d| (LOG_DEV, &d.0)),
    );
    let (data_media, _) = media::medium(
        Volume::required_bytes(cfg.volume_pages),
        Latency { sync: Duration::ZERO, write: DATA_WRITE },
        None,
        dev.map(|d| (DATA_DEV, &d.1)),
    );
    let meter = Meter::new();
    let parts = StableParts { data_media, log_media, flight: None };
    let server = Arc::new(Server::format_on(parts, cfg, Arc::clone(&meter))?);
    let pids = server.bulk_allocate(CLIENTS * PAGES_PER_CLIENT)?;
    for &pid in &pids {
        let mut page = Page::new();
        page.insert(pid, &[0u8; OBJECT_BYTES])?;
        server.bulk_write(pid, &page)?;
    }
    server.bulk_sync()?;
    let mut clients = Vec::new();
    for (idx, set) in pids.chunks(PAGES_PER_CLIENT).enumerate() {
        let mut conn = ClientConn::new(
            ClientId(idx as u16 + 1),
            Arc::clone(&server),
            CLIENT_POOL_PAGES,
            Arc::clone(&meter),
        );
        // Warm-up: one read transaction caches the whole set.
        conn.begin()?;
        for &pid in set {
            conn.fetch_page(pid, LockMode::S)?;
        }
        conn.finish_commit()?;
        clients.push(Client {
            idx,
            conn,
            set: set.to_vec(),
            rng: Prng::seed_from_u64(seed ^ (0xc0_4417 + idx as u64)),
            seq: 0,
            committed: vec![[0u8; OBJECT_BYTES]; set.len()],
            order: (0..set.len()).collect(),
            enc: Vec::new(),
        });
    }
    Ok(Commit2c { server, log_disk, meter, clients, start: None })
}

impl Workload for Commit2c {
    const TAIL_Q: f64 = 0.999;
    const CPU_BOUND: bool = false;

    fn setup(seed: u64, dev: Option<&Dev>) -> Result<Self, String> {
        build(seed, dev).map_err(|e| e.to_string())
    }

    fn mark(&mut self) {
        self.start = Some((
            self.meter.snapshot(),
            media::durable_lsn(&self.log_disk),
            self.server.checkpoints_taken(),
        ));
    }

    fn measure(&mut self, phase: &mut Phase, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        let runs: Vec<Result<Phase, String>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                self.clients.iter_mut().map(|c| s.spawn(move || c.run(seconds))).collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        phase.wall_s += start.elapsed().as_secs_f64();
        for run in runs {
            let run = run?;
            phase.attempted += run.attempted;
            phase.failed += run.failed;
            phase.victim_ns += run.victim_ns;
            phase.ops.extend(run.ops);
        }
        Ok(())
    }

    fn totals(&self) -> Totals {
        let (meter0, log0, ckpt0) = self.start.unwrap_or_default();
        Totals {
            log_bytes: media::durable_lsn(&self.log_disk) - log0,
            checkpoints: self.server.checkpoints_taken() - ckpt0,
            meter: self.meter.snapshot().since(&meter0),
            restart: Vec::new(),
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        for c in &self.clients {
            for (want, &pid) in c.committed.iter().zip(&c.set) {
                let page = self.server.read_page_for_test(pid).map_err(|e| e.to_string())?;
                let got = page.object(pid, 0).map_err(|e| e.to_string())?;
                if got != want {
                    return Err(format!("page {pid} lost client {}'s last committed value", c.idx));
                }
            }
        }
        Ok(())
    }

    fn detail(phase: &Phase, totals: &Totals) -> Metrics {
        let lat = phase.lat_ms(None);
        vec![
            ("commit_tps".into(), phase.ops.len() as f64 / phase.wall_s, "1/s"),
            ("commit_p50_us".into(), quantile(&lat, 0.5) * 1e3, "us"),
            ("commit_p999_us".into(), quantile(&lat, 0.999) * 1e3, "us"),
            ("log_bytes_per_commit".into(), phase.per_op(totals.log_bytes), "B"),
        ]
    }
}
