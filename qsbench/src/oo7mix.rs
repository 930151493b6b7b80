//! `oo7-mix`: one QuickStore PD-ESM client runs a seeded, interleaved mix
//! of OO7 T1 / T2A / T2B transactions against a module about 1.8x its
//! buffer pool, with a recovery buffer smaller than a T2B write set.

use crate::media::{self, Dev, Latency, DATA_DEV, LOG_DEV};
use crate::{quantile, span, Metrics, Op, Phase, Totals, Workload};
use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, Server, ServerConfig, StableParts};
use qs_repro::oo7::schema::{atomic, composite, get_ref, REF_SIZE};
use qs_repro::oo7::{generate, t1, t2, Oo7Db, Oo7Params, T2Mode};
use qs_repro::prng::Prng;
use qs_repro::sim::{Meter, MeterSnapshot};
use qs_repro::storage::{MemDisk, Volume};
use qs_repro::types::{ClientId, QsResult};
use qs_repro::wal::LogManager;
use std::sync::Arc;
use std::time::Instant;

/// Span names per transaction class (`Op::class`: 0 = T1, 1 = T2A,
/// 2 = T2B).
const TRAVERSE: [&str; 3] = ["oo7.traverse.t1", "oo7.traverse.t2a", "oo7.traverse.t2b"];
const COMMIT: [&str; 3] = ["core.commit.t1", "core.commit.t2a", "core.commit.t2b"];

/// One OO7 module of 348 pages: 200 composite parts under a 5-level
/// assembly tree (4,860 atomic-part visits per traversal).
pub fn oo7_params() -> Oo7Params {
    Oo7Params { num_comp_per_module: 200, num_assm_levels: 5, num_modules: 1, ..Oo7Params::small() }
}

/// Client: 2 MB, of which 0.5 MB (64 pages) recovery buffer, leaving a
/// 192-page pool. A T2B dirties about 175 pages.
pub fn client_cfg() -> SystemConfig {
    SystemConfig::pd_esm().with_memory(2.0, 0.5)
}

pub const VOLUME_PAGES: usize = 1024;

/// The database is the same in every run; the run's seed draws the
/// transaction sequence. Generating it from the run's seed would change
/// which pages each traversal touches, and with them the log volume per
/// transaction by several percent from seed to seed.
const DB_SEED: u64 = 1995;

/// Server: a 512-page pool (the module fits), 16 MB of log, so the
/// default watermarks checkpoint every few seconds.
fn server_cfg() -> ServerConfig {
    ServerConfig::new(client_cfg().flavor)
        .with_pool_mb(4.0)
        .with_volume_pages(VOLUME_PAGES)
        .with_log_mb(16.0)
}

/// Sum of `x` over every atomic part of the module, read through the
/// store in one read-only transaction.
fn sum_x(store: &mut Store, db: &Oo7Db) -> QsResult<u64> {
    let n = db.params.num_atomic_per_comp;
    store.begin()?;
    let mut sum = 0u64;
    for &comp in &db.modules[0].composite_parts {
        let bytes = store.read(comp)?;
        for i in 0..n {
            let part = get_ref(&bytes, composite::OFF_PARTS + i * REF_SIZE);
            sum += atomic::xy(&store.read(part)?).0 as u64;
        }
    }
    store.commit()?;
    Ok(sum)
}

/// A formatted server with the module loaded and a store attached.
pub struct Env {
    pub server: Arc<Server>,
    pub store: Store,
    pub db: Oo7Db,
    pub meter: Arc<Meter>,
    pub log_disk: Arc<MemDisk>,
}

pub fn build(cfg: ServerConfig, dev: Option<&Dev>) -> QsResult<Env> {
    let none = Latency::default();
    let (log_media, log_disk) = media::medium(
        LogManager::required_bytes(cfg.log_bytes),
        none,
        None,
        dev.map(|d| (LOG_DEV, &d.0)),
    );
    let (data_media, _) = media::medium(
        Volume::required_bytes(cfg.volume_pages),
        none,
        None,
        dev.map(|d| (DATA_DEV, &d.1)),
    );
    let meter = Meter::new();
    let parts = StableParts { data_media, log_media, flight: None };
    let server = Arc::new(Server::format_on(parts, cfg, Arc::clone(&meter))?);
    let db = generate(&server, &oo7_params(), DB_SEED)?;
    let client = client_cfg();
    let conn = ClientConn::new(
        ClientId(0),
        Arc::clone(&server),
        client.client_pool_pages(),
        Arc::clone(&meter),
    );
    let store = Store::new(conn, client)?;
    Ok(Env { server, store, db, meter, log_disk })
}

pub struct Oo7Mix {
    env: Env,
    rng: Prng,
    /// Transaction classes still to run from the current block: each
    /// block of three is one T1, one T2A and one T2B in a seeded order,
    /// so every run holds the three in equal shares.
    block: Vec<usize>,
    /// Sum of atomic-part `x` before any measured transaction.
    initial: u64,
    /// Updates reported by committed T2 traversals.
    updates: u64,
    /// Meter, durable log end and checkpoint count at `mark`.
    start: Option<(MeterSnapshot, u64, u64)>,
}

impl Oo7Mix {
    /// One transaction of class `k`; returns the updates `t2` reported.
    /// A commit during which the server checkpointed adds its duration
    /// to `victim_ns`.
    fn txn(&mut self, k: usize, op: u64, victim_ns: &mut u64) -> QsResult<u64> {
        let Env { server, store, db, .. } = &mut self.env;
        let module = &db.modules[0];
        span::run("esm_client.begin", op, || store.begin())?;
        let n = span::run(TRAVERSE[k], op, || match k {
            0 => t1(store, module).map(|_| 0),
            1 => t2(store, module, T2Mode::A),
            _ => t2(store, module, T2Mode::B),
        })?;
        let ck = server.checkpoints_taken();
        let t0 = Instant::now();
        span::run(COMMIT[k], op, || store.commit())?;
        if server.checkpoints_taken() > ck {
            *victim_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(n)
    }
}

impl Workload for Oo7Mix {
    /// A run holds about 4,000 transactions, so its p99 rests on the 40
    /// slowest, and the shared host's slow spells decide it: ten runs of
    /// the same code read 12 to 21 ms, twice as far apart as their
    /// throughput, even after scaling. The per-type p99s are printed in
    /// the metadata line.
    const TAIL_Q: f64 = 0.90;
    const CPU_BOUND: bool = true;

    fn setup(seed: u64, dev: Option<&Dev>) -> Result<Self, String> {
        let mut env = build(server_cfg(), dev).map_err(|e| e.to_string())?;
        // The read-all pass doubles as warm-up: it maps every page once
        // and leaves the client pool in steady state.
        let initial = sum_x(&mut env.store, &env.db).map_err(|e| e.to_string())?;
        let rng = Prng::seed_from_u64(seed ^ 0x0007_0007_0007_0007);
        Ok(Oo7Mix { env, rng, block: Vec::new(), initial, updates: 0, start: None })
    }

    fn mark(&mut self) {
        let e = &self.env;
        self.start = Some((
            e.meter.snapshot(),
            media::durable_lsn(&e.log_disk),
            e.server.checkpoints_taken(),
        ));
    }

    fn measure(&mut self, phase: &mut Phase, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            phase.attempted += 1;
            let op = phase.attempted;
            if self.block.is_empty() {
                self.block = vec![0, 1, 2];
                for i in (1..3).rev() {
                    let j = self.rng.gen_range(0..i + 1);
                    self.block.swap(i, j);
                }
            }
            let k = self.block.pop().expect("refilled above");
            let t0 = Instant::now();
            let res = span::run("txn", op, || self.txn(k, op, &mut phase.victim_ns));
            let lat_ns = t0.elapsed().as_nanos() as u64;
            match res {
                Ok(n) => {
                    self.updates += n;
                    phase.ops.push(Op { class: k, lat_ns });
                }
                Err(_) => {
                    phase.failed += 1;
                    let store = &mut self.env.store;
                    if store.client().in_txn() && store.abort().is_err() {
                        return Err("abort after a failed transaction failed".into());
                    }
                }
            }
        }
        phase.wall_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn totals(&self) -> Totals {
        let e = &self.env;
        let (meter0, log0, ckpt0) = self.start.unwrap_or_default();
        Totals {
            log_bytes: media::durable_lsn(&e.log_disk) - log0,
            checkpoints: e.server.checkpoints_taken() - ckpt0,
            meter: e.meter.snapshot().since(&meter0),
            restart: Vec::new(),
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let (initial, updates) = (self.initial, self.updates);
        match sum_x(&mut self.env.store, &self.env.db) {
            Ok(sum) if sum == initial + updates => Ok(()),
            Ok(sum) => Err(format!(
                "sum of atomic-part x is {sum}, expected {initial} + {updates} committed updates"
            )),
            Err(e) => Err(format!("final read-back failed: {e}")),
        }
    }

    fn detail(phase: &Phase, totals: &Totals) -> Metrics {
        let mut out = Metrics::new();
        for (c, class) in ["t1", "t2a", "t2b"].iter().enumerate() {
            let lat = phase.lat_ms(Some(c));
            out.push((format!("{class}_p50_ms"), quantile(&lat, 0.5), "ms"));
            out.push((format!("{class}_p99_ms"), quantile(&lat, 0.99), "ms"));
        }
        out.push(("log_bytes_per_commit".into(), phase.per_op(totals.log_bytes), "B"));
        out
    }
}
