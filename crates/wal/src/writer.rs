//! The log's one encoder: allocation-free serialization of log records
//! into a batch buffer.
//!
//! [`RecordWriter`] appends encoded records directly to a caller-provided
//! `Vec<u8>`, building each record in place from borrowed fields. It is
//! the only code that writes a frame's length prefix, checksum, header
//! and trailer: [`LogRecord::encode`] and [`LogManager::append`] dispatch
//! into it, clients build their shipped batches with it, and the golden
//! frames in `tests/golden_frames.rs` pin its output byte for byte. On the
//! steady-state commit path the backing buffer is reused across
//! transactions, so writing a record performs zero heap allocations once
//! the buffer has grown to its high-water mark.
//!
//! [`LogManager::append`]: crate::LogManager::append

use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};

use crate::record::{frame_checksum, tag, CheckpointBody, LogRecord, SchemeCode, PREFIX, TRAILER};

/// Streams encoded log records into a borrowed batch buffer.
pub struct RecordWriter<'a> {
    buf: &'a mut Vec<u8>,
    records: usize,
}

/// Little-endian cursor that fills one frame's body.
struct Put<'b> {
    b: &'b mut [u8],
    at: usize,
}

impl Put<'_> {
    fn bytes(&mut self, s: &[u8]) -> &mut Self {
        self.b[self.at..self.at + s.len()].copy_from_slice(s);
        self.at += s.len();
        self
    }
    fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }
    fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

impl<'a> RecordWriter<'a> {
    /// Wrap `buf`, appending after any bytes already present.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        RecordWriter { buf, records: 0 }
    }

    /// Number of records written through this writer.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Append one frame: the fixed header, a `body`-byte body filled by
    /// `fill`, zero padding up to the paper's `LOG_HEADER_SIZE + payload`
    /// size (`payload` is the record's images or table entries), the
    /// trailer, and the [`frame_checksum`] of `bytes[8..len-4]`. Returns
    /// the encoded length.
    fn frame(
        &mut self,
        tag: u8,
        txn: TxnId,
        prev: Lsn,
        body: usize,
        payload: usize,
        fill: impl FnOnce(&mut Put<'_>),
    ) -> usize {
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + payload);
        let at = self.buf.len();
        self.buf.resize(at + total, 0);
        let rec = &mut self.buf[at..];
        rec[0..4].copy_from_slice(&(total as u32).to_le_bytes());
        rec[8] = tag;
        rec[9..17].copy_from_slice(&txn.0.to_le_bytes());
        rec[17..PREFIX].copy_from_slice(&prev.0.to_le_bytes());
        let mut put = Put { b: &mut rec[PREFIX..PREFIX + body], at: 0 };
        fill(&mut put);
        debug_assert_eq!(put.at, body, "tag {tag} body length");
        rec[total - TRAILER..].copy_from_slice(&(total as u32).to_le_bytes());
        let ck = frame_checksum(&rec[8..total - TRAILER]);
        rec[4..8].copy_from_slice(&ck.to_le_bytes());
        self.records += 1;
        total
    }

    /// Append any record. [`LogRecord::encode`] and the log manager's
    /// append both come through here.
    pub fn record(&mut self, rec: &LogRecord) -> usize {
        match rec {
            LogRecord::Update { txn, prev, page, slot, offset, before, after } => {
                self.update(*txn, *prev, *page, *slot, *offset, before, after)
            }
            LogRecord::WholePage { txn, prev, page, image } => {
                let image = image[..].try_into().expect("whole-page image is one page");
                self.whole_page(*txn, *prev, *page, image)
            }
            LogRecord::PageAlloc { txn, prev, page } => self.page_alloc(*txn, *prev, *page),
            LogRecord::Commit { txn, prev } => self.commit(*txn, *prev),
            LogRecord::Abort { txn, prev } => self.abort(*txn, *prev),
            LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next } => {
                self.clr(*txn, *prev, *page, *slot, *offset, after, *undo_next)
            }
            LogRecord::Checkpoint { body } => self.checkpoint(body),
            LogRecord::UpdateLogical { txn, prev, page, slot, offset, after } => {
                self.update_logical(*txn, *prev, *page, *slot, *offset, after)
            }
            LogRecord::BeginCheckpoint { body } => self.begin_checkpoint(body),
            LogRecord::EndCheckpoint { begin } => self.end_checkpoint(*begin),
            LogRecord::TxnScheme { txn, prev, scheme } => self.scheme_mark(*txn, *prev, *scheme),
        }
    }

    /// Append an `Update` record built from borrowed images. Returns its
    /// encoded length.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        before: &[u8],
        after: &[u8],
    ) -> usize {
        let images = before.len() + after.len();
        self.frame(tag::UPDATE, txn, prev, 12 + images, images, |p| {
            p.u32(page.0).u16(slot).u16(offset);
            p.u16(before.len() as u16).u16(after.len() as u16).bytes(before).bytes(after);
        })
    }

    /// Append an `UpdateLogical` record (REDO-only: no before image) built
    /// from a borrowed after image. Returns its encoded length.
    pub fn update_logical(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        after: &[u8],
    ) -> usize {
        self.frame(tag::UPDATE_LOGICAL, txn, prev, 10 + after.len(), after.len(), |p| {
            p.u32(page.0).u16(slot).u16(offset).u16(after.len() as u16).bytes(after);
        })
    }

    /// Append a `TxnScheme` record declaring the transaction's elected
    /// logging scheme (the first record of an adaptively-logged chain).
    /// Returns its encoded length.
    pub fn scheme_mark(&mut self, txn: TxnId, prev: Lsn, scheme: SchemeCode) -> usize {
        self.frame(tag::TXN_SCHEME, txn, prev, 1, 0, |p| {
            p.u8(scheme as u8);
        })
    }

    /// Append a `WholePage` record from a borrowed page image. Returns its
    /// encoded length.
    pub fn whole_page(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        image: &[u8; PAGE_SIZE],
    ) -> usize {
        self.frame(tag::WHOLE_PAGE, txn, prev, 4 + PAGE_SIZE, PAGE_SIZE, |p| {
            p.u32(page.0).bytes(image);
        })
    }

    /// Append a `PageAlloc` record. Returns its encoded length.
    pub fn page_alloc(&mut self, txn: TxnId, prev: Lsn, page: PageId) -> usize {
        self.frame(tag::PAGE_ALLOC, txn, prev, 4, 0, |p| {
            p.u32(page.0);
        })
    }

    /// Append a `Commit` record. Returns its encoded length.
    pub fn commit(&mut self, txn: TxnId, prev: Lsn) -> usize {
        self.frame(tag::COMMIT, txn, prev, 0, 0, |_| {})
    }

    /// Append an `Abort` record. Returns its encoded length.
    pub fn abort(&mut self, txn: TxnId, prev: Lsn) -> usize {
        self.frame(tag::ABORT, txn, prev, 0, 0, |_| {})
    }

    /// Append a compensation record: `after` is the undo image that was
    /// applied. Returns its encoded length.
    #[allow(clippy::too_many_arguments)]
    pub fn clr(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        after: &[u8],
        undo_next: Lsn,
    ) -> usize {
        self.frame(tag::CLR, txn, prev, 18 + after.len(), after.len() + 8, |p| {
            p.u32(page.0).u16(slot).u16(offset).u16(after.len() as u16).bytes(after);
            p.u64(undo_next.0);
        })
    }

    /// Append a sharp checkpoint record. Returns its encoded length.
    pub fn checkpoint(&mut self, body: &CheckpointBody) -> usize {
        self.checkpoint_frame(tag::CHECKPOINT, body)
    }

    /// Append the begin record of a two-phase fuzzy checkpoint; it carries
    /// the same body, at the same cost, as a sharp checkpoint. Returns its
    /// encoded length.
    pub fn begin_checkpoint(&mut self, body: &CheckpointBody) -> usize {
        self.checkpoint_frame(tag::BEGIN_CHECKPOINT, body)
    }

    /// Append the end record of a two-phase fuzzy checkpoint, pointing
    /// back at its begin record. Returns its encoded length.
    pub fn end_checkpoint(&mut self, begin: Lsn) -> usize {
        self.frame(tag::END_CHECKPOINT, TxnId::INVALID, Lsn::NULL, 8, 8, |p| {
            p.u64(begin.0);
        })
    }

    /// Checkpoint records carry no transaction; their whole body counts as
    /// payload.
    fn checkpoint_frame(&mut self, tag: u8, body: &CheckpointBody) -> usize {
        let len = 4
            + 16 * body.active_txns.len()
            + 4
            + 12 * body.dirty_pages.len()
            + 4
            + 21 * body.wpl_entries.len()
            + 8;
        self.frame(tag, TxnId::INVALID, Lsn::NULL, len, len, |p| {
            p.u32(body.active_txns.len() as u32);
            for (t, l) in &body.active_txns {
                p.u64(t.0).u64(l.0);
            }
            p.u32(body.dirty_pages.len() as u32);
            for (pg, l) in &body.dirty_pages {
                p.u32(pg.0).u64(l.0);
            }
            p.u32(body.wpl_entries.len() as u32);
            for e in &body.wpl_entries {
                p.u32(e.page.0).u64(e.lsn.0).u64(e.txn.0).u8(e.committed as u8);
            }
            p.u64(body.allocated_pages);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_append_back_to_back_after_existing_bytes() {
        let mut buf = vec![0xAA, 0xBB]; // the writer must append, not overwrite
        let mut w = RecordWriter::new(&mut buf);
        let a = w.update(TxnId(3), Lsn::NULL, PageId(7), 1, 16, &[1, 2, 3], &[4, 5, 6]);
        let b = w.commit(TxnId(3), Lsn(99));
        assert_eq!(w.records(), 2);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(buf.len(), 2 + a + b);
        let first = LogRecord::decode(&buf[2..2 + a]).unwrap();
        assert_eq!(first.page(), Some(PageId(7)));
        assert_eq!(LogRecord::decode(&buf[2 + a..]).unwrap().prev(), Lsn(99));
    }

    #[test]
    fn steady_state_writes_do_not_allocate_past_high_water_mark() {
        let mut buf = Vec::new();
        let before = [1u8; 32];
        let after = [2u8; 32];
        {
            let mut w = RecordWriter::new(&mut buf);
            w.update(TxnId(1), Lsn::NULL, PageId(1), 0, 0, &before, &after);
        }
        let cap = buf.capacity();
        for _ in 0..100 {
            buf.clear();
            let mut w = RecordWriter::new(&mut buf);
            w.update(TxnId(1), Lsn::NULL, PageId(1), 0, 0, &before, &after);
        }
        assert_eq!(buf.capacity(), cap);
    }
}
