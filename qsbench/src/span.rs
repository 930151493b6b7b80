//! Wall-clock span recorder, kept in the benchmark's own files.
//!
//! A span is one call the benchmark makes into a layer of the engine.
//! Spans nest per thread: a span opened while another is open on the same
//! thread is its child and inherits its operation id. Device accesses seen
//! by [`crate::media::CountingMedia`] are not spans of their own: each
//! adds its time to the innermost open span's per-device total, and when
//! that span closes every non-empty total becomes one aggregate child
//! span (`calls` > 1). Closed spans are kept in memory and handed out
//! once, at the end of the run, by [`take`].
//!
//! Recording is off unless [`enable`] was called, and then [`run`] and
//! [`device`] cost one relaxed load, so untraced runs pay nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span, or one aggregate of device accesses. `parent == 0`
/// marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The transaction or restart this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    /// For an aggregate, `start_ns` plus the summed device time.
    pub end_ns: u64,
    /// Calls this span stands for: 1, or the device accesses aggregated
    /// (for reads, estimated from the sample).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Device operations, as `media` indexes them: a medium's base index plus
/// 0 (read), 1 (write) or 2 (sync).
pub const DEVICE_OPS: [&str; 6] =
    ["wal.read", "wal.write", "wal.sync", "storage.read", "storage.write", "storage.sync"];

/// Reads are many (restart reads the log a record at a time) and each is
/// a short memory copy; timing every one would cost more than the read.
/// One in `READ_SAMPLE` is timed, chosen at random, and its time is
/// scaled up by `READ_SAMPLE`.
pub const READ_SAMPLE: u64 = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Open {
    id: u64,
    op: u64,
    /// Per device operation: (calls, nanoseconds).
    dev: [(u64, u64); DEVICE_OPS.len()],
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording spans.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    timer_ns();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording spans (already closed spans are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

fn sink() -> std::sync::MutexGuard<'static, Vec<Span>> {
    CLOSED.lock().expect("span sink poisoned by a panicking thread")
}

/// Run `f` inside a span named `name`. A root span takes `op` as its
/// operation id; a nested span inherits its parent's and ignores `op`.
pub fn run<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let (parent, op) = open.last().map_or((0, op), |o| (o.id, o.op));
        open.push(Open { id, op, dev: [(0, 0); DEVICE_OPS.len()] });
        (parent, op)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let closed = OPEN.with(|open| open.borrow_mut().pop()).expect("span stack underflow");
    let mut sink = sink();
    sink.push(Span { id, parent, op, name, start_ns, end_ns, calls: 1 });
    for (k, &(calls, ns)) in closed.dev.iter().enumerate().filter(|(_, d)| d.0 > 0) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, name, end_ns) = (closed.id, DEVICE_OPS[k], start_ns + ns);
        sink.push(Span { id, parent, op, name, start_ns, end_ns, calls });
    }
    out
}

/// Run device operation `kind` (an index into [`DEVICE_OPS`]), charging
/// its time, scaled by `weight`, to the innermost open span on this
/// thread. A weight of 0 runs `f` untimed (an access left out of the
/// sample). Accesses with no span open (from a thread no operation runs
/// on) are counted by the medium but charged to no span.
pub fn device<R>(kind: usize, weight: u64, f: impl FnOnce() -> R) -> R {
    if weight == 0 || !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(timer_ns()) * weight;
    OPEN.with(|open| {
        if let Some(top) = open.borrow_mut().last_mut() {
            top.dev[kind].0 += weight;
            top.dev[kind].1 += ns;
        }
    });
    out
}

/// The weight of the `n`-th read: [`READ_SAMPLE`] for a pseudo-random
/// one in [`READ_SAMPLE`] (a hash of `n`, so the pick does not follow
/// any access pattern), else 0.
pub fn read_weight(n: u64) -> u64 {
    // The splitmix64 finalizer.
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z.is_multiple_of(READ_SAMPLE) {
        READ_SAMPLE
    } else {
        0
    }
}

/// What timing an empty section costs (median of many tries); taken off
/// every device time so that short reads are not overstated.
fn timer_ns() -> u64 {
    static TIMER_NS: OnceLock<u64> = OnceLock::new();
    *TIMER_NS.get_or_init(|| {
        let mut v: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Every span closed so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *sink())
}

/// Self time per span name, summed over every span of an operation: a
/// span's duration minus the part its children cover. Returns
/// `(name, self_ns)` pairs plus the summed root durations. A root is a
/// span with no parent whose name is in `roots`.
pub fn self_times(spans: &[Span], roots: &[&str]) -> (Vec<(&'static str, u64)>, u64) {
    use std::collections::{BTreeMap, HashMap};
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let in_op = |s: &Span| {
        let mut cur = s;
        while cur.parent != 0 {
            match by_id.get(&cur.parent) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        roots.contains(&cur.name)
    };
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans.iter().filter(|s| in_op(s)) {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_name.entry(s.name).or_default() += own;
        if s.parent == 0 {
            root_ns += s.dur_ns();
        }
    }
    (by_name.into_iter().collect(), root_ns)
}

/// Write spans as JSON lines, once, at the end of a traced run.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name, start_ns, end_ns, calls: 1 }
    }

    #[test]
    fn self_time_subtracts_children_and_skips_orphans() {
        let spans = vec![
            span(2, 1, "child", 10, 40),
            span(3, 2, "grandchild", 15, 25),
            span(1, 0, "root", 0, 100),
            span(4, 0, "wal.sync", 200, 260),
        ];
        let (by_name, root_ns) = self_times(&spans, &["root"]);
        assert_eq!(root_ns, 100);
        assert_eq!(by_name, vec![("child", 20), ("grandchild", 10), ("root", 70)]);
    }
}
