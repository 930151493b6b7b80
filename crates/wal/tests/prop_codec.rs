//! Codec round-trip and size-model properties for every log-record type.
//!
//! Formerly a proptest suite; now driven by `qs-prng` under fixed seeds so
//! the exact same cases replay on every run, with no external crates.

use qs_prng::Prng;
use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE};
use qs_wal::{CheckpointBody, LogRecord, WplCheckpointEntry};

fn update_record(rng: &mut Prng) -> LogRecord {
    let img_len = rng.gen_range(0..256);
    let img = rng.bytes(img_len);
    LogRecord::Update {
        txn: TxnId(rng.next_u64()),
        prev: Lsn(rng.next_u64()),
        page: PageId(rng.next_u32()),
        slot: (rng.next_u32() & 0xFFFF) as u16,
        offset: rng.gen_range(0..4096) as u16,
        before: img.clone(),
        after: img.iter().map(|b| b.wrapping_add(1)).collect(),
    }
}

fn any_record(rng: &mut Prng) -> LogRecord {
    match rng.gen_range(0..6) {
        0 => update_record(rng),
        1 => LogRecord::Commit { txn: TxnId(rng.next_u64()), prev: Lsn(rng.next_u64()) },
        2 => LogRecord::Abort { txn: TxnId(rng.next_u64()), prev: Lsn(rng.next_u64()) },
        3 => LogRecord::PageAlloc {
            txn: TxnId(rng.next_u64()),
            prev: Lsn::NULL,
            page: PageId(rng.next_u32()),
        },
        4 => LogRecord::Clr {
            txn: TxnId(rng.next_u64()),
            prev: Lsn::NULL,
            page: PageId(rng.next_u32()),
            slot: 0,
            offset: 0,
            after: {
                let n = rng.gen_range(0..64);
                rng.bytes(n)
            },
            undo_next: Lsn(rng.next_u64()),
        },
        _ => LogRecord::Checkpoint {
            body: CheckpointBody {
                active_txns: vec![(TxnId(3), Lsn(9))],
                dirty_pages: vec![(PageId(1), Lsn(5))],
                wpl_entries: (0..rng.gen_range(0..20))
                    .map(|_| WplCheckpointEntry {
                        page: PageId(rng.next_u32()),
                        lsn: Lsn(rng.next_u64()),
                        txn: TxnId(rng.next_u64()),
                        committed: rng.gen_bool(0.5),
                    })
                    .collect(),
                allocated_pages: 42,
            },
        },
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0001);
    for case in 0..512 {
        let rec = any_record(&mut rng);
        let enc = rec.encode();
        let dec = LogRecord::decode(&enc).unwrap();
        assert_eq!(dec, rec, "case {case}");
    }
}

#[test]
fn update_size_matches_paper_model() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0002);
    for case in 0..512 {
        let rec = update_record(&mut rng);
        if let LogRecord::Update { ref before, ref after, .. } = rec {
            assert_eq!(
                rec.encode().len(),
                LOG_HEADER_SIZE + before.len() + after.len(),
                "case {case}"
            );
        }
    }
}

#[test]
fn single_bitflip_detected() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0003);
    for case in 0..512 {
        let rec = any_record(&mut rng);
        let mut enc = rec.encode();
        // Flip one bit somewhere in the checksummed region [8, len-4).
        let span = enc.len() - 12;
        if span == 0 {
            continue;
        }
        let pos = 8 + rng.gen_range(0..span);
        enc[pos] ^= 1;
        assert!(LogRecord::decode(&enc).is_err(), "case {case}: flip at {pos}");
    }
}
