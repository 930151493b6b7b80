//! Golden frames: the exact encoded bytes of one record per tag.
//!
//! This is the log format's oracle. Every byte of a frame — length
//! prefix, checksum, tag, txn, prev, body, padding and trailer — is pinned
//! for ten of the eleven tags; the 8 KB whole-page frame is pinned by its
//! length, its header and page field, and its checksum. An encoder change
//! that moves any byte of any tag fails here, and so does a change to
//! `RecordWriter` that makes it disagree with `LogRecord::encode`.

use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};
use qs_wal::record::{frame_checksum, tag};
use qs_wal::{CheckpointBody, LogRecord, RecordWriter, SchemeCode, WplCheckpointEntry};

const TXN: TxnId = TxnId(7);
const PREV: Lsn = Lsn(0x2000);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn body() -> CheckpointBody {
    CheckpointBody {
        active_txns: vec![(TxnId(3), Lsn(0x1_2000))],
        dirty_pages: vec![(PageId(5), Lsn(0x1_0040))],
        wpl_entries: vec![WplCheckpointEntry {
            page: PageId(6),
            lsn: Lsn(0x1_1000),
            txn: TxnId(3),
            committed: true,
        }],
        allocated_pages: 77,
    }
}

fn page_image() -> Vec<u8> {
    (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect()
}

/// One record per tag except whole-page, with its golden encoding.
fn golden() -> Vec<(LogRecord, &'static str)> {
    vec![
        (
            LogRecord::Update {
                txn: TXN,
                prev: PREV,
                page: PageId(3),
                slot: 2,
                offset: 16,
                before: vec![1, 2, 3, 4],
                after: vec![5, 6, 7, 8],
            },
            concat!(
                "3a00000061338c46010700000000000000002000000000000003000000020010",
                "000400040001020304050607080000000000000000003a000000",
            ),
        ),
        (
            LogRecord::PageAlloc { txn: TXN, prev: PREV, page: PageId(77) },
            concat!(
                "320000002325515503070000000000000000200000000000004d000000000000",
                "000000000000000000000000000032000000",
            ),
        ),
        (
            LogRecord::Commit { txn: TXN, prev: PREV },
            concat!(
                "320000000d16e5f1040700000000000000002000000000000000000000000000",
                "000000000000000000000000000032000000",
            ),
        ),
        (
            LogRecord::Abort { txn: TXN, prev: PREV },
            concat!(
                "32000000be93bd43050700000000000000002000000000000000000000000000",
                "000000000000000000000000000032000000",
            ),
        ),
        (
            LogRecord::Clr {
                txn: TXN,
                prev: PREV,
                page: PageId(3),
                slot: 2,
                offset: 16,
                after: vec![1, 2, 3, 4],
                undo_next: Lsn(0x1800),
            },
            concat!(
                "3e000000d3e8bab7060700000000000000002000000000000003000000020010",
                "00040001020304001800000000000000000000000000000000003e000000",
            ),
        ),
        (
            LogRecord::Checkpoint { body: body() },
            concat!(
                "77000000a7629dc107ffffffffffffffff000000000000000001000000030000",
                "0000000000002001000000000001000000050000004000010000000000010000",
                "000600000000100100000000000300000000000000014d000000000000000000",
                "0000000000000000000000000000000000000077000000",
            ),
        ),
        (
            LogRecord::UpdateLogical {
                txn: TXN,
                prev: PREV,
                page: PageId(3),
                slot: 2,
                offset: 16,
                after: vec![5, 6, 7],
            },
            concat!(
                "3500000091ed6153080700000000000000002000000000000003000000020010",
                "000300050607000000000000000000000035000000",
            ),
        ),
        (
            LogRecord::BeginCheckpoint { body: body() },
            concat!(
                "77000000e7df7a4b09ffffffffffffffff000000000000000001000000030000",
                "0000000000002001000000000001000000050000004000010000000000010000",
                "000600000000100100000000000300000000000000014d000000000000000000",
                "0000000000000000000000000000000000000077000000",
            ),
        ),
        (
            LogRecord::EndCheckpoint { begin: Lsn(0x3000) },
            concat!(
                "3a000000380d73160affffffffffffffff000000000000000000300000000000",
                "000000000000000000000000000000000000000000003a000000",
            ),
        ),
        (
            LogRecord::TxnScheme { txn: TXN, prev: PREV, scheme: SchemeCode::Rlog },
            concat!(
                "32000000b6d6ee860b0700000000000000002000000000000003000000000000",
                "000000000000000000000000000032000000",
            ),
        ),
    ]
}

#[test]
fn every_tag_encodes_to_its_golden_bytes() {
    let mut tags: Vec<u8> = Vec::new();
    for (rec, want) in golden() {
        let enc = rec.encode();
        assert_eq!(hex(&enc), want, "tag {}", rec.tag());
        assert_eq!(LogRecord::decode(&enc).unwrap(), rec, "tag {}", rec.tag());
        tags.push(rec.tag());
    }

    let rec = LogRecord::WholePage { txn: TXN, prev: PREV, page: PageId(9), image: page_image() };
    let enc = rec.encode();
    assert_eq!(enc.len(), 8242);
    assert_eq!(enc.len(), LOG_HEADER_SIZE + PAGE_SIZE);
    assert_eq!(
        hex(&enc[..29]),
        "3220000025fd6618020700000000000000002000000000000009000000",
        "whole-page header and page field"
    );
    assert_eq!(frame_checksum(&enc[8..enc.len() - 4]), 0x1866_fd25);
    assert_eq!(enc[29..29 + PAGE_SIZE], page_image()[..]);
    assert_eq!(hex(&enc[enc.len() - 4..]), "32200000", "trailer echoes the length");
    assert_eq!(LogRecord::decode(&enc).unwrap(), rec);
    tags.push(rec.tag());

    tags.sort_unstable();
    assert_eq!(tags, (1..=tag::TXN_SCHEME).collect::<Vec<u8>>(), "one frame per tag");
}

/// The frames clients build with `RecordWriter` are the golden frames too.
#[test]
fn record_writer_frames_are_golden() {
    let golden = golden();
    let want = |t: u8| golden.iter().find(|(r, _)| r.tag() == t).unwrap().1;
    let mut buf = Vec::new();
    RecordWriter::new(&mut buf).update(TXN, PREV, PageId(3), 2, 16, &[1, 2, 3, 4], &[5, 6, 7, 8]);
    assert_eq!(hex(&buf), want(tag::UPDATE));
    buf.clear();
    RecordWriter::new(&mut buf).update_logical(TXN, PREV, PageId(3), 2, 16, &[5, 6, 7]);
    assert_eq!(hex(&buf), want(tag::UPDATE_LOGICAL));
    buf.clear();
    RecordWriter::new(&mut buf).scheme_mark(TXN, PREV, SchemeCode::Rlog);
    assert_eq!(hex(&buf), want(tag::TXN_SCHEME));
    buf.clear();
    let image: [u8; PAGE_SIZE] = page_image().try_into().unwrap();
    RecordWriter::new(&mut buf).whole_page(TXN, PREV, PageId(9), &image);
    let rec = LogRecord::WholePage { txn: TXN, prev: PREV, page: PageId(9), image: page_image() };
    assert_eq!(buf, rec.encode());
}
