//! Stable media for the benchmark: plain [`MemDisk`]s in untraced runs,
//! and in traced runs the same disks behind [`CountingMedia`], which
//! counts every `read_at`, `write_at` and `sync` and charges its time to
//! the engine call that caused it (see [`span::device`]).

use crate::span;
use qs_repro::storage::{MemDisk, StableMedia};
use qs_repro::types::QsResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Device-access totals for one medium.
#[derive(Default)]
pub struct DevCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
}

impl DevCounters {
    pub fn reset(&self) {
        for c in [&self.reads, &self.writes, &self.write_bytes, &self.syncs] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Counters of the log medium and the data medium, in that order.
pub type Dev = (Arc<DevCounters>, Arc<DevCounters>);

/// Which medium, as a base index into [`span::DEVICE_OPS`].
#[derive(Clone, Copy)]
pub struct DevKind(usize);

pub const LOG_DEV: DevKind = DevKind(0);
pub const DATA_DEV: DevKind = DevKind(3);

/// A counting, timing wrapper around a stable medium.
pub struct CountingMedia {
    inner: Arc<MemDisk>,
    kind: DevKind,
    counters: Arc<DevCounters>,
}

impl StableMedia for CountingMedia {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()> {
        // A load and a store, not an atomic add: restart reads the log a
        // record at a time, and a locked add per read would be most of
        // the tracing overhead. The count is exact while one thread reads
        // a medium, which holds in every workload here.
        let n = self.counters.reads.load(Ordering::Relaxed);
        self.counters.reads.store(n + 1, Ordering::Relaxed);
        span::device(self.kind.0, span::read_weight(n), || self.inner.read_at(off, buf))
    }

    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters.write_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        span::device(self.kind.0 + 1, 1, || self.inner.write_at(off, buf))
    }

    fn sync(&self) -> QsResult<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        span::device(self.kind.0 + 2, 1, || self.inner.sync())
    }
}

/// Modeled device latencies of one medium.
#[derive(Clone, Copy, Default)]
pub struct Latency {
    pub sync: Duration,
    pub write: Duration,
}

/// A medium of `len` bytes holding `image` (zeros if none). Every byte
/// is written once here, so no measured access pays the first touch of
/// fresh memory. Returns the medium to hand the server — wrapped in a
/// [`CountingMedia`] when `counting` is given — and the raw disk, which
/// the benchmark reads without being counted.
pub fn medium(
    len: usize,
    lat: Latency,
    image: Option<&[u8]>,
    counting: Option<(DevKind, &Arc<DevCounters>)>,
) -> (Arc<dyn StableMedia>, Arc<MemDisk>) {
    let disk = Arc::new(MemDisk::with_latencies(len, lat.sync, lat.write));
    let zeros;
    let bytes = match image {
        Some(bytes) => bytes,
        None => {
            zeros = vec![0u8; len];
            &zeros
        }
    };
    disk.write_at(0, bytes).expect("image fits the medium it was taken from");
    let media: Arc<dyn StableMedia> = match counting {
        None => Arc::clone(&disk) as Arc<dyn StableMedia>,
        Some((kind, counters)) => Arc::new(CountingMedia {
            inner: Arc::clone(&disk),
            kind,
            counters: Arc::clone(counters),
        }),
    };
    (media, disk)
}

/// Durable end of the log, read from the header `LogManager` keeps at
/// the start of its medium (little-endian u64s: magic, body capacity,
/// start, durable, checkpoint). The difference between two readings is
/// the log volume forced in between.
pub fn durable_lsn(log: &MemDisk) -> u64 {
    let mut hdr = [0u8; 32];
    log.read_at(0, &mut hdr).expect("log header is in bounds");
    u64::from_le_bytes(hdr[24..32].try_into().expect("8 bytes"))
}

/// Full byte image of a medium.
pub fn image(media: &Arc<dyn StableMedia>) -> Vec<u8> {
    let mut buf = vec![0u8; media.len()];
    media.read_at(0, &mut buf).expect("whole-medium read is in bounds");
    buf
}
