//! Fuzzed slotted-page operations against a simple model.
//!
//! Formerly a proptest suite; now driven by `qs-prng` under fixed seeds so
//! the exact same cases replay on every run, with no external crates.

use qs_prng::Prng;
use qs_storage::{Page, MAX_OBJECT_SIZE};
use qs_types::hash::IdMap;
use qs_types::PageId;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Free(u16),
    Write(u16, u8),
    Compact,
}

/// Weighted op mix matching the original strategy: 4 insert : 2 free :
/// 2 write : 1 compact.
fn random_ops(rng: &mut Prng) -> Vec<Op> {
    let n = rng.gen_range(0..120);
    (0..n)
        .map(|_| match rng.gen_range(0..9) {
            0..=3 => {
                let n = rng.gen_range(1..300);
                Op::Insert(rng.bytes(n))
            }
            4 | 5 => Op::Free((rng.next_u32() % 64) as u16),
            6 | 7 => Op::Write((rng.next_u32() % 64) as u16, (rng.next_u32() & 0xFF) as u8),
            _ => Op::Compact,
        })
        .collect()
}

#[test]
fn page_matches_model() {
    const PID: PageId = PageId(1);
    let mut rng = Prng::seed_from_u64(0x5EED_9A6E);
    for case in 0..192 {
        let mut page = Page::new();
        let mut model: IdMap<u16, Vec<u8>> = IdMap::default();
        for op in random_ops(&mut rng) {
            match op {
                Op::Insert(data) => {
                    // Errors (full / oversized) leave the model unchanged.
                    if let Ok(slot) = page.insert(PID, &data) {
                        assert!(data.len() <= MAX_OBJECT_SIZE, "case {case}");
                        assert!(!model.contains_key(&slot), "case {case}: slot reuse of live slot");
                        model.insert(slot, data);
                    }
                }
                Op::Free(slot) => {
                    let ours = page.free(PID, slot).is_ok();
                    let model_had = model.remove(&slot).is_some();
                    assert_eq!(ours, model_had, "case {case}");
                }
                Op::Write(slot, val) => {
                    if let Some(data) = model.get_mut(&slot) {
                        let new: Vec<u8> = data.iter().map(|_| val).collect();
                        page.write(PID, slot, &new).unwrap();
                        *data = new;
                    } else {
                        assert!(page.write(PID, slot, &[0]).is_err(), "case {case}");
                    }
                }
                Op::Compact => page.compact(),
            }
            // Full consistency check after every op.
            for (&slot, data) in &model {
                assert_eq!(page.object(PID, slot).unwrap(), &data[..], "case {case}");
            }
            let live: usize = model.values().map(|d| d.len()).sum();
            assert_eq!(page.live_bytes(), live, "case {case}");
        }
    }
}
