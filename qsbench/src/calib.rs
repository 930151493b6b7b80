//! Host-speed calibration: a fixed kernel that touches none of the
//! engine, timed on the measuring thread between slices of a CPU-bound
//! workload.
//!
//! A shared host runs this code at speeds that differ by up to half from
//! one minute to the next (contention in the core, which the guest's
//! steal counter does not show), so a CPU-bound time taken alone spreads
//! from run to run by more than any change worth catching. The kernel
//! slows down with the workload: branchy hash-map updates, a sort and
//! small-object copies through the allocator, work of the kind the
//! engine's client and restart paths do, in a working set that fits the
//! core's own caches. Its median time around a slice of the run, over
//! [`REFERENCE_UNIT_NS`], is the factor by which the host was slow there,
//! and the benchmark divides that slice's times by it. The kernel is the
//! benchmark's own code, so a change to the engine moves the scaled times
//! in full.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the host the benchmark was tuned on
/// (2-vCPU Intel Xeon Firecracker VM, release build). Scaled times read
/// as if every run had gone at that host's typical speed.
pub const REFERENCE_UNIT_NS: f64 = 200_000.0;

/// Bytes the small-object copies read from.
const SOURCE_BYTES: usize = 64 << 10;

/// A deterministic hasher, so every run does the same work.
type FixedHasher = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

pub struct Calib {
    x: u64,
    source: Vec<u8>,
    unit_ns: Vec<u64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let source = (0..SOURCE_BYTES).map(|_| xorshift(&mut x) as u8).collect();
        Calib { x, source, unit_ns: Vec::new() }
    }

    /// Run the kernel `units` times and record each time. Returns each
    /// unit's slowdown: its time over [`REFERENCE_UNIT_NS`], above 1 on a
    /// host slower than the reference. Divide a CPU-bound time taken
    /// beside it by the slowdown to scale the time.
    pub fn burst(&mut self, units: usize) -> Vec<f64> {
        (0..units)
            .map(|_| {
                let t0 = Instant::now();
                self.unit();
                let ns = t0.elapsed().as_nanos() as u64;
                self.unit_ns.push(ns);
                ns as f64 / REFERENCE_UNIT_NS
            })
            .collect()
    }

    /// One unit of work: about 0.2 ms on the reference host.
    fn unit(&mut self) {
        let x = &mut self.x;
        let mut counts: HashMap<u64, u64, FixedHasher> = HashMap::default();
        let mut mix = 0u64;
        for i in 0..2000 {
            let k = xorshift(x) % 4096;
            *counts.entry(k).or_insert(0) += i;
            mix = if k & 1 == 0 { mix.wrapping_add(k) } else { mix ^ k.rotate_left(7) };
        }
        black_box((counts.len(), mix));

        let mut keys: Vec<u64> = (0..2048).map(|_| xorshift(x)).collect();
        keys.sort_unstable();
        black_box(keys[7]);

        let mut objects: Vec<Vec<u8>> = Vec::new();
        for _ in 0..1000 {
            let len = 16 + (xorshift(x) % 200) as usize;
            let at = (xorshift(x) % (SOURCE_BYTES - 256) as u64) as usize;
            objects.push(self.source[at..at + len].to_vec());
            if objects.len() > 64 {
                objects.swap_remove((xorshift(x) % 64) as usize);
            }
        }
        black_box(objects.len());
    }

    /// Median unit time in microseconds; NaN before the first burst.
    pub fn unit_us(&self) -> f64 {
        let mut v = self.unit_ns.clone();
        v.sort_unstable();
        match v.len() {
            0 => f64::NAN,
            n => v[n / 2] as f64 / 1e3,
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
