//! The repository benchmark.
//!
//! ```text
//! qsbench --workload <oo7-mix|crash-restart|commit-2c> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up, measures it untraced for `--seconds`,
//! checks the engine's outputs, then times four more set-ups, and prints
//! the end-to-end metrics. The times of a CPU-bound workload are scaled
//! to a reference host speed by a calibration kernel run beside it
//! (`calib`). `--trace 1` sets up two copies, one on plain
//! media and one on counting media with spans on, alternates between them
//! in short slices for `--seconds` in all, and prints the per-layer
//! metrics. Both print two JSON lines: run metadata first, the result
//! last. README.md explains the workloads and what each metric should
//! move.

mod calib;
mod commit2c;
mod host;
mod media;
mod oo7mix;
mod restart;
mod span;

use calib::Calib;
use media::Dev;
use qs_repro::sim::{JsonWriter, MeterSnapshot};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One completed operation (a transaction, or a restart).
pub struct Op {
    /// The operation's class, for workloads that run several kinds.
    pub class: usize,
    pub lat_ns: u64,
}

/// The operations one run measured.
#[derive(Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Time in commit calls during which the server checkpointed.
    pub victim_ns: u64,
}

impl Phase {
    pub fn lat_ms(&self, class: Option<usize>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .map(|o| o.lat_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn mean_lat_ms(&self) -> f64 {
        self.ops.iter().map(|o| o.lat_ns as f64).sum::<f64>() / self.ops.len().max(1) as f64 / 1e6
    }

    pub fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops.len().max(1) as f64
    }
}

/// Engine-side totals over everything a workload measured.
#[derive(Default)]
pub struct Totals {
    /// Log bytes made durable.
    pub log_bytes: u64,
    pub checkpoints: u64,
    pub meter: MeterSnapshot,
    /// Per restart phase: (name, records, log pages read, data reads).
    pub restart: Vec<(&'static str, u64, u64, u64)>,
}

/// `(name, value, unit)` triples, printed in order.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub trait Workload: Sized {
    /// The tail quantile reported: the highest one with at least ten
    /// samples beyond it in a run, unless the host's own stalls set it
    /// (see `oo7mix`).
    const TAIL_Q: f64;
    /// Whether the workload's times are CPU time. Such a workload is
    /// measured in slices with calibration bursts between them, and its
    /// times are scaled to the reference host's speed (see `calib`);
    /// the times of one that waits on modeled devices are reported as
    /// measured.
    const CPU_BOUND: bool;
    /// Build the engine and its inputs from `seed`. With `dev`, the media
    /// count their accesses there.
    fn setup(seed: u64, dev: Option<&Dev>) -> Result<Self, String>;
    /// Start counting the engine totals.
    fn mark(&mut self);
    /// Run operations for `seconds`, adding them to `phase`. An error is
    /// a failed correctness check.
    fn measure(&mut self, phase: &mut Phase, seconds: f64) -> Result<(), String>;
    /// Engine totals since `mark`.
    fn totals(&self) -> Totals;
    /// Check the engine's state after the last `measure`.
    fn verify(&mut self) -> Result<(), String>;
    /// The workload's own metrics, printed in the metadata line.
    fn detail(phase: &Phase, totals: &Totals) -> Metrics;
}

/// Nearest-rank quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Set-ups timed in an untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Operations run, untimed, between set-up and measuring, so the engine
/// is in steady state (log fill, checkpoints, caches) when timing starts.
/// On an idle VM the first seconds of `commit-2c` were also seen to sit
/// in its slower regime.
const WARMUP_S: f64 = 2.0;
/// Slice of an untraced run of a CPU-bound workload, and the calibration
/// units run after each: about 0.4% of the run.
const CAL_SLICE_S: f64 = 0.1;
const CAL_UNITS: usize = 2;
/// Slices on each side of a slice whose calibration units scale its times.
const CAL_WINDOW: usize = 5;
/// Slices of a traced run: the plain and the traced copy alternate this
/// many times, so drift in the host's speed hits both alike.
const TRACE_SLICES: usize = 8;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("tail_ms", "ms"),
    ("log_bytes_per_op", "B"),
];

/// Per-layer self-time shares: (metric, span name). Each is the span's
/// self time summed over the run, as a percentage of all operation time.
const SHARES: &[(&str, &str)] = &[
    ("bench.self_pct", "txn"),
    ("esm_client.begin_pct", "esm_client.begin"),
    ("oo7.traverse_pct.t1", "oo7.traverse.t1"),
    ("oo7.traverse_pct.t2a", "oo7.traverse.t2a"),
    ("oo7.traverse_pct.t2b", "oo7.traverse.t2b"),
    ("core.commit_pct.t1", "core.commit.t1"),
    ("core.commit_pct.t2a", "core.commit.t2a"),
    ("core.commit_pct.t2b", "core.commit.t2b"),
    ("esm_client.fetch_pct", "esm_client.fetch"),
    ("esm_client.log_ship_pct", "esm_client.log_ship"),
    ("esm_client.page_ship_pct", "esm_client.page_ship"),
    ("esm_client.finish_commit_pct", "esm_client.finish_commit"),
    ("restart.cpu_pct", "restart"),
    ("wal.write_pct", "wal.write"),
    ("wal.sync_pct", "wal.sync"),
    ("wal.read_pct", "wal.read"),
    ("storage.read_pct", "storage.read"),
    ("storage.write_pct", "storage.write"),
    ("storage.sync_pct", "storage.sync"),
];

/// The other per-layer metrics, per operation unless the name says
/// otherwise: (metric, unit), in `BENCHMARK.json` order after the shares.
const COUNTS: &[(&str, &str)] = &[
    ("ckpt.victim_commit_pct", "%"),
    ("vmem.read_faults", "count"),
    ("vmem.write_faults", "count"),
    ("core.bytes_diffed", "B"),
    ("core.bytes_copied", "B"),
    ("core.rbuf_overflows", "count"),
    ("core.log_records", "count"),
    ("core.log_image_bytes", "B"),
    ("esm_client.fetches", "count"),
    ("esm_client.evictions", "count"),
    ("esm_client.pages_shipped", "count"),
    ("esm_client.log_pages_shipped", "count"),
    ("esm_client.net_bytes", "B"),
    ("esm_server.pool_misses", "count"),
    ("esm_server.locks", "count"),
    ("wal.forces", "count"),
    ("wal.forces_noop", "count"),
    ("wal.commits_per_force", "count"),
    ("ckpt.count", "count"),
    ("ckpt.pages_flushed", "count"),
    ("ckpt.log_forces", "count"),
    ("restart.analysis_records", "count"),
    ("restart.redo_records", "count"),
    ("restart.undo_records", "count"),
    ("restart.log_pages_read", "count"),
    ("restart.redo_data_reads", "count"),
    ("wal.writes", "count"),
    ("wal.write_bytes", "B"),
    ("wal.syncs", "count"),
    ("wal.reads", "count"),
    ("storage.reads", "count"),
    ("storage.writes", "count"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// What one invocation prints.
struct Report {
    check: Result<(), String>,
    phase: Phase,
    checkpoints: u64,
    metrics: Metrics,
    detail: Metrics,
}

/// Measure for `seconds`; for a CPU-bound workload, in slices with a
/// calibration burst after each, so the calibration sees the host as the
/// workload saw it. Returns the slices; none for a workload that is not
/// CPU-bound.
fn measure_calibrated<W: Workload>(
    w: &mut W,
    phase: &mut Phase,
    seconds: f64,
    cal: &mut Calib,
) -> Result<Vec<Slice>, String> {
    if !W::CPU_BOUND {
        return w.measure(phase, seconds).map(|()| Vec::new());
    }
    let mut slices = Vec::new();
    let end = phase.wall_s + seconds;
    while phase.wall_s < end {
        let wall0 = phase.wall_s;
        w.measure(phase, CAL_SLICE_S.min(end - phase.wall_s))?;
        let wall_s = phase.wall_s - wall0;
        slices.push(Slice { ops_end: phase.ops.len(), wall_s, slowdown: cal.burst(CAL_UNITS) });
    }
    Ok(slices)
}

/// One slice of a calibrated measurement: where its operations end in
/// the phase, its wall time, and the slowdowns its calibration units
/// measured.
struct Slice {
    ops_end: usize,
    wall_s: f64,
    slowdown: Vec<f64>,
}

/// Throughput and sorted latencies (ms) of a calibrated phase, each
/// slice's times scaled by the median slowdown of the slices within
/// `CAL_WINDOW` of it, so a change in the host's speed within a run is
/// scaled where it happened.
fn scaled(phase: &Phase, slices: &[Slice]) -> (f64, Vec<f64>) {
    let (mut wall_s, mut lat_ms, mut start) = (0.0, Vec::new(), 0);
    for (i, slice) in slices.iter().enumerate() {
        let near = &slices[i.saturating_sub(CAL_WINDOW)..(i + CAL_WINDOW + 1).min(slices.len())];
        let f = median(&near.iter().flat_map(|s| s.slowdown.iter().copied()).collect::<Vec<_>>());
        wall_s += slice.wall_s / f;
        lat_ms.extend(phase.ops[start..slice.ops_end].iter().map(|o| o.lat_ns as f64 / 1e6 / f));
        start = slice.ops_end;
    }
    lat_ms.sort_by(f64::total_cmp);
    (phase.ops.len() as f64 / wall_s, lat_ms)
}

/// Untraced: the end-to-end metrics. The peak RSS is read before the
/// extra set-ups, so it covers one set-up and its measured run.
fn untraced<W: Workload>(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut cal = Calib::new();
    // Each set-up of a CPU-bound workload is scaled by the calibration
    // units run just before and after it.
    let setup = |setup_s: &mut Vec<(f64, f64)>, cal: &mut Calib| {
        let mut slowdown = if W::CPU_BOUND { cal.burst(CAL_UNITS) } else { vec![1.0] };
        let t0 = Instant::now();
        let w = W::setup(seed, None).map_err(|e| format!("setup: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if W::CPU_BOUND {
            slowdown.extend(cal.burst(CAL_UNITS));
        }
        setup_s.push((secs, secs / median(&slowdown)));
        Ok::<W, String>(w)
    };
    let mut setup_s = Vec::new();
    let mut w = setup(&mut setup_s, &mut cal)?;
    let mut phase = Phase::default();
    let measured = w.measure(&mut Phase::default(), WARMUP_S).and_then(|()| {
        w.mark();
        measure_calibrated(&mut w, &mut phase, seconds, &mut cal)
    });
    let (measured, slices) = match measured {
        Ok(slices) => (Ok(()), slices),
        Err(e) => (Err(e), Vec::new()),
    };
    let totals = w.totals();
    let check = measured.and_then(|()| w.verify());
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    drop(w);
    for _ in 1..SETUPS {
        drop(setup(&mut setup_s, &mut cal)?);
    }
    let raw_ops_per_s = phase.ops.len() as f64 / phase.wall_s;
    let raw_tail_ms = quantile(&phase.lat_ms(None), W::TAIL_Q);
    let (ops_per_s, lat_ms) =
        if W::CPU_BOUND { scaled(&phase, &slices) } else { (raw_ops_per_s, phase.lat_ms(None)) };
    let (raw_setup_s, setup_s): (Vec<f64>, Vec<f64>) = setup_s.into_iter().unzip();
    let values = [
        median(&setup_s),
        peak_rss_mb,
        ops_per_s,
        quantile(&lat_ms, W::TAIL_Q),
        phase.per_op(totals.log_bytes),
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect();
    let mut detail = W::detail(&phase, &totals);
    if W::CPU_BOUND {
        detail.push(("calib_unit_us".into(), cal.unit_us(), "us"));
        detail.push(("measured_setup_s".into(), median(&raw_setup_s), "s"));
        detail.push(("measured_ops_per_s".into(), raw_ops_per_s, "1/s"));
        detail.push(("measured_tail_ms".into(), raw_tail_ms, "ms"));
    }
    let fail_ratio = phase.failed as f64 / phase.attempted.max(1) as f64;
    detail.push(("fail_ratio".into(), fail_ratio, "ratio"));
    Ok(Report { check, checkpoints: totals.checkpoints, phase, metrics, detail })
}

/// Traced: the per-layer metrics, with the plain copy as the reference
/// for the tracing overhead.
fn traced<W: Workload>(
    seed: u64,
    seconds: f64,
    spans_out: &std::path::Path,
) -> Result<Report, String> {
    let dev: Dev = (Arc::default(), Arc::default());
    let mut plain = W::setup(seed, None).map_err(|e| format!("setup: {e}"))?;
    let mut counted = W::setup(seed, Some(&dev)).map_err(|e| format!("setup: {e}"))?;
    let mut check = plain
        .measure(&mut Phase::default(), WARMUP_S / 2.0)
        .and_then(|()| counted.measure(&mut Phase::default(), WARMUP_S / 2.0));
    plain.mark();
    counted.mark();
    dev.0.reset();
    dev.1.reset();
    let (mut reference, mut phase) = (Phase::default(), Phase::default());
    let slice = seconds / (2 * TRACE_SLICES) as f64;
    for _ in 0..TRACE_SLICES {
        if check.is_err() {
            break;
        }
        check = plain.measure(&mut reference, slice);
        if check.is_ok() {
            span::enable();
            check = counted.measure(&mut phase, slice);
            span::disable();
        }
    }
    let totals = counted.totals();
    let check = check.and_then(|()| plain.verify()).and_then(|()| counted.verify());
    let spans = span::take();
    if let Err(e) = span::write_jsonl(spans_out, &spans) {
        eprintln!("qsbench: cannot write {}: {e}", spans_out.display());
    }
    let metrics = per_layer(&phase, &reference, &totals, &dev, &spans);
    let coverage = metrics.iter().find(|m| m.0 == "trace.coverage_pct").map_or(0.0, |m| m.1);
    let check = check.and_then(|()| {
        if (90.0..=110.0).contains(&coverage) {
            Ok(())
        } else {
            Err(format!("layer self times cover {coverage:.1}% of operation time"))
        }
    });
    phase.attempted += reference.attempted;
    phase.failed += reference.failed;
    Ok(Report { check, checkpoints: totals.checkpoints, phase, metrics, detail: Metrics::new() })
}

/// Per-layer metrics from the traced phase.
fn per_layer(
    phase: &Phase,
    reference: &Phase,
    totals: &Totals,
    dev: &Dev,
    spans: &[span::Span],
) -> Metrics {
    let (self_ns, root_ns) = span::self_times(spans, &["txn", "restart"]);
    let self_of: BTreeMap<&str, u64> = self_ns.into_iter().collect();
    let pct = |ns: u64| 100.0 * ns as f64 / root_ns.max(1) as f64;
    let mut out: Metrics = SHARES
        .iter()
        .map(|&(metric, name)| {
            (metric.to_string(), pct(self_of.get(name).copied().unwrap_or(0)), "%")
        })
        .collect();

    let m = &totals.meter;
    let n = |v: u64| phase.per_op(v);
    let per_ckpt = |v: u64| v as f64 / totals.checkpoints.max(1) as f64;
    let restart_phase = |name: &str| totals.restart.iter().find(|p| p.0 == name).copied();
    let records = |name: &str| restart_phase(name).map_or(0.0, |p| p.1 as f64);
    let (log, data) = dev;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let op_ns: u64 = phase.ops.iter().map(|o| o.lat_ns).sum();
    let values = [
        pct(phase.victim_ns),
        n(m.read_faults),
        n(m.write_faults),
        n(m.bytes_diffed),
        n(m.bytes_copied),
        n(m.recovery_buffer_overflows),
        n(m.log_records_generated),
        n(m.log_image_bytes),
        n(m.page_requests),
        n(m.client_evictions),
        n(m.dirty_pages_shipped),
        n(m.log_record_pages_shipped),
        n(m.net_bytes),
        n(m.server_pool_misses),
        n(m.locks_acquired),
        n(m.log_forces),
        n(m.log_forces_noop),
        if m.log_forces == 0 { 0.0 } else { m.commits as f64 / m.log_forces as f64 },
        totals.checkpoints as f64,
        per_ckpt(m.maint_data_writes),
        per_ckpt(m.maint_log_forces),
        records("analysis"),
        records("redo"),
        records("undo"),
        totals.restart.iter().map(|p| p.2 as f64).sum(),
        restart_phase("redo").map_or(0.0, |p| p.3 as f64),
        n(load(&log.writes)),
        n(load(&log.write_bytes)),
        n(load(&log.syncs)),
        n(load(&log.reads)),
        n(load(&data.reads)),
        n(load(&data.writes)),
        phase.mean_lat_ms(),
        100.0 * (phase.mean_lat_ms() / reference.mean_lat_ms() - 1.0),
        100.0 * root_ns as f64 / op_ns.max(1) as f64,
    ];
    out.extend(COUNTS.iter().zip(values).map(|(&(name, unit), v)| (name.to_string(), v, unit)));
    out
}

const WORKLOADS: [&str; 3] = ["oo7-mix", "crash-restart", "commit-2c"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run<W: Workload>(args: &Args) -> (Result<Report, String>, f64) {
    let seconds = args.seconds as f64;
    let report = if args.trace {
        let spans_out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload));
        traced::<W>(args.seed, seconds, &spans_out)
    } else {
        untraced::<W>(args.seed, seconds)
    };
    (report, W::TAIL_Q)
}

fn write_metrics(w: &mut JsonWriter, metrics: &Metrics) {
    w.begin_object();
    for (name, value, unit) in metrics {
        w.key(name).begin_object().field_f64("value", *value).field_str("unit", unit).end_object();
    }
    w.end_object();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qsbench: {e}");
            eprintln!(
                "usage: qsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cpu0 = host::cpu_ticks();
    let (report, tail_q) = match args.workload.as_str() {
        "oo7-mix" => run::<oo7mix::Oo7Mix>(&args),
        "crash-restart" => run::<restart::CrashRestart>(&args),
        _ => run::<commit2c::Commit2c>(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal = host::steal_share(cpu0, host::cpu_ticks());

    let mut meta = JsonWriter::new();
    meta.begin_object()
        .key("meta")
        .begin_object()
        .field_str("workload", &args.workload)
        .field_u64("seed", args.seed)
        .field_u64("seconds", args.seconds)
        .field_u64("trace", args.trace as u64)
        .field_str("git_rev", &host::git_rev())
        .field_u64("nproc", host::nproc() as u64)
        .field_str("build", host::build_profile())
        .field_f64("steal_share", steal.unwrap_or(f64::NAN))
        .field_f64("tail_quantile", tail_q)
        .field_u64("ops", report.phase.ops.len() as u64)
        .field_u64("checkpoints", report.checkpoints);
    if let Err(e) = &report.check {
        meta.field_str("check_failed", e);
    }
    meta.end_object().key("detail");
    write_metrics(&mut meta, &report.detail);
    meta.end_object();
    println!("{}", meta.finish());

    let correct = report.check.is_ok() && !report.phase.ops.is_empty();
    let mut out = JsonWriter::new();
    out.begin_object()
        .key("correct")
        .bool(correct)
        .field_u64("attempted", report.phase.attempted.max(1))
        .field_u64("failed", report.phase.failed)
        .key("metrics");
    write_metrics(&mut out, &report.metrics);
    out.end_object();
    println!("{}", out.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("qsbench: correctness check failed: {:?}", report.check);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the binary prints is declared in BENCHMARK.json, in
    /// the right list and with the same unit, and nothing else is.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let (e2e, layers) = spec.split_at(spec.find("\"per_layer\"").expect("per_layer list"));
        let declared = |list: &str, name: &str, unit: &str| {
            list.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(declared(e2e, name, unit), "end-to-end {name} ({unit})");
        }
        for (name, _) in SHARES {
            assert!(declared(layers, name, "%"), "per-layer {name}");
        }
        for (name, unit) in COUNTS {
            assert!(declared(layers, name, unit), "per-layer {name} ({unit})");
        }
        let metrics = spec.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + SHARES.len() + COUNTS.len());
    }

    /// A host twice as slow in one half of a run has that half's times
    /// halved, and the other half's left alone.
    #[test]
    fn scaled_divides_each_slice_by_the_slowdown_around_it() {
        let half = 2 * CAL_WINDOW + 1;
        let mut phase = Phase::default();
        let mut slices = Vec::new();
        for i in 0..2 * half {
            let slow = if i < half { 2.0 } else { 1.0 };
            phase.ops.push(Op { class: 0, lat_ns: (10e6 * slow) as u64 });
            slices.push(Slice { ops_end: i + 1, wall_s: 0.01 * slow, slowdown: vec![slow; 2] });
        }
        let (ops_per_s, lat_ms) = scaled(&phase, &slices);
        assert!((ops_per_s - 100.0).abs() < 1e-9, "{ops_per_s}");
        assert!(lat_ms.iter().all(|&l| (l - 10.0).abs() < 1e-9), "{lat_ms:?}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 0.999), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
