//! ARIES-style restart bookkeeping for the ESM and REDO flavors
//! ([Frank92]'s client-server adaptation of [Mohan92]) and for the
//! `RedoLogical` and `Adaptive` flavors: what each analysis pass learns
//! from the log, and the undo pass and epilogues that close a restart.
//! Page-level locking only, exactly like ESM.
//!
//! The restart engine in `restart_par` drives these: it streams the log,
//! verifies every frame before trusting its fields, and feeds the verified
//! frame fields to the types here.

use crate::server::Server;
use crate::txn::TxnTable;
use qs_trace::PhaseStat;
use qs_types::hash::{IdMap, IdSet};
use qs_types::{Lsn, PageId, QsResult, TxnId};
use qs_wal::{LogReadCache, LogRecord};

/// Raise `max` to `txn` (ignoring `TxnId::INVALID`, which is also the
/// "none seen yet" start value): id assignment resumes above the highest
/// transaction id restart saw.
pub(crate) fn newer_txn(max: &mut TxnId, txn: TxnId) {
    if txn != TxnId::INVALID && (*max == TxnId::INVALID || txn.0 > max.0) {
        *max = txn;
    }
}

/// What analysis learned from the log.
#[derive(Debug, Default)]
pub(crate) struct Analysis {
    /// Loser candidates: txn → last LSN seen.
    pub(crate) att: IdMap<TxnId, Lsn>,
    /// Dirty-page table: page → recovery LSN.
    pub(crate) dpt: IdMap<PageId, Lsn>,
    /// Highest transaction id seen (id assignment resumes above it).
    pub(crate) max_txn: TxnId,
    /// Highest page id + 1 implied by allocation records.
    pub(crate) max_alloc: u64,
}

impl Analysis {
    /// Observe one verified frame of the forward analysis scan: track the
    /// highest transaction id, keep each transaction's last LSN until its
    /// commit or abort, and enter every page into the DPT at its first
    /// LSN.
    pub(crate) fn observe(&mut self, lsn: Lsn, tag: u8, txn: TxnId, page: Option<PageId>) {
        if txn != TxnId::INVALID {
            newer_txn(&mut self.max_txn, txn);
            match tag {
                qs_wal::record::tag::COMMIT | qs_wal::record::tag::ABORT => {
                    self.att.remove(&txn);
                }
                _ => {
                    self.att.insert(txn, lsn);
                }
            }
        }
        if let Some(page) = page {
            self.dpt.entry(page).or_insert(lsn);
            self.max_alloc = self.max_alloc.max(page.0 as u64 + 1);
        }
    }
}

/// What a `RedoLogical` analysis pass learned from the log: the
/// committed-transactions set (only their records replay), the merged
/// dirty-page table, and the id high-water marks.
#[derive(Debug, Default)]
pub(crate) struct RlogAnalysis {
    pub(crate) committed: IdSet<TxnId>,
    pub(crate) dpt: IdMap<PageId, Lsn>,
    pub(crate) max_txn: TxnId,
    pub(crate) max_alloc: u64,
}

/// Merge one committed transaction's page → first-LSN map into a DPT,
/// keeping the earliest recovery LSN per page (the rule for logically
/// logged transactions, whose pages enter the DPT only at commit).
pub(crate) fn merge_committed(dpt: &mut IdMap<PageId, Lsn>, pages: IdMap<PageId, Lsn>) {
    for (p, l) in pages {
        let e = dpt.entry(p).or_insert(l);
        if l < *e {
            *e = l;
        }
    }
}

/// What an `Adaptive` analysis pass learned from the log. A mixed-scheme
/// log carries physically-logged transactions (PD/SD elections: before/
/// after-image updates, stolen pages, CLR undo) and logically-logged ones
/// (WPL/RLOG elections: deferred-apply, no-steal, REDO-only) side by side;
/// each transaction's `TxnScheme` record — always the first record of its
/// chain — says which rules apply.
///
/// Truncation keeps `min(checkpoint, min active first-LSN)`, so every
/// *active* transaction's chain is retained whole, `TxnScheme` included: a
/// transaction whose scheme record is missing (truncated) is provably
/// committed, and treating it as physical (DPT path) is correct for
/// committed work — redo replays `UpdateLogical` records too, and
/// the pageLSN test skips whatever the pre-crash apply already flushed.
#[derive(Debug, Default)]
pub(crate) struct AdaptiveAnalysis {
    /// Loser candidates: txn → last LSN seen (physical losers undo from
    /// here; logical losers are dropped without undo).
    pub(crate) att: IdMap<TxnId, Lsn>,
    pub(crate) committed: IdSet<TxnId>,
    /// Elected scheme per transaction, from `TxnScheme` records.
    pub(crate) scheme: IdMap<TxnId, qs_wal::SchemeCode>,
    pub(crate) dpt: IdMap<PageId, Lsn>,
    pub(crate) max_txn: TxnId,
    pub(crate) max_alloc: u64,
    /// Logically-elected transactions' page → first-LSN maps, merged into
    /// the DPT only when their commit record shows up (rlog rule).
    pub(crate) pending: IdMap<TxnId, IdMap<PageId, Lsn>>,
}

impl AdaptiveAnalysis {
    /// Did `txn` elect a logical (deferred-apply, no-steal) scheme?
    pub(crate) fn is_logical(&self, txn: TxnId) -> bool {
        self.scheme.get(&txn).map(|s| s.is_logical()).unwrap_or(false)
    }

    /// Must redo skip `txn`'s records? Only known-logical losers: their
    /// deferred ops never reached any page, and replaying them (via a
    /// shared page's DPT entry from another transaction) would install
    /// uncommitted data that nothing can undo.
    pub(crate) fn redo_skips(&self, txn: TxnId) -> bool {
        self.is_logical(txn) && !self.committed.contains(&txn)
    }

    /// Observe one verified frame of the forward analysis scan, given its
    /// header fields. Checkpoint-body handling (`max_alloc`) stays with
    /// the caller.
    pub(crate) fn observe(
        &mut self,
        lsn: Lsn,
        tag: u8,
        txn: TxnId,
        page: Option<PageId>,
        scheme: Option<qs_wal::SchemeCode>,
    ) {
        newer_txn(&mut self.max_txn, txn);
        match tag {
            qs_wal::record::tag::TXN_SCHEME => {
                if let Some(s) = scheme {
                    self.scheme.insert(txn, s);
                }
                self.att.insert(txn, lsn);
            }
            qs_wal::record::tag::COMMIT => {
                self.committed.insert(txn);
                self.att.remove(&txn);
                if let Some(pages) = self.pending.remove(&txn) {
                    merge_committed(&mut self.dpt, pages);
                }
            }
            qs_wal::record::tag::ABORT => {
                self.att.remove(&txn);
                self.pending.remove(&txn);
            }
            _ => {
                if txn != TxnId::INVALID {
                    self.att.insert(txn, lsn);
                }
                if let Some(page) = page {
                    self.max_alloc = self.max_alloc.max(page.0 as u64 + 1);
                    if self.is_logical(txn) {
                        self.pending.entry(txn).or_default().entry(page).or_insert(lsn);
                    } else {
                        self.dpt.entry(page).or_insert(lsn);
                    }
                }
            }
        }
    }
}

/// `RedoLogical` restart epilogue: resume txn-id assignment, make the
/// recovered state durable and truncate the log. No undo — there are no losers to roll back.
pub(crate) fn rlog_finish(server: &Server, max_txn: TxnId) -> QsResult<()> {
    server.with_quiesced(|inner| {
        *inner.txns = TxnTable::resuming_after(max_txn);
    });
    server.checkpoint()
}

/// Undo pass plus restart epilogue of the ARIES and `Adaptive` restarts:
/// roll back losers with CLRs, resume txn-id assignment, make the
/// recovered state durable and truncate the log.
pub(crate) fn undo_and_finish(
    server: &Server,
    att: IdMap<TxnId, Lsn>,
    max_txn: TxnId,
    ph_undo: &mut PhaseStat,
) -> QsResult<()> {
    let losers: Vec<(TxnId, Lsn)> = {
        let mut l: Vec<_> = att.into_iter().collect();
        // Undo in reverse order of recency, mirroring ARIES' single
        // backward pass over all losers.
        l.sort_by_key(|&(_, lsn)| std::cmp::Reverse(lsn));
        l
    };
    server.with_quiesced(|inner| -> QsResult<()> {
        for &(txn, last) in &losers {
            inner.txns.restore(txn, last);
        }
        Ok(())
    })?;
    // One page cache across every loser chain: the random chain reads stop
    // re-hitting the log disk per record, and the report counts distinct
    // log pages actually fetched rather than one page per record undone.
    let mut cache = LogReadCache::new();
    for (txn, last) in losers {
        server.with_quiesced(|inner| -> QsResult<()> {
            let undone = server.undo_chain(inner, txn, last, &mut cache)?;
            ph_undo.records += undone;
            let prev = inner.txns.get(txn)?.last_lsn;
            inner.log.append(&LogRecord::Abort { txn, prev })?;
            inner.txns.remove(txn);
            Ok(())
        })?;
    }
    ph_undo.pages_read = cache.pages_fetched();

    // Resume id assignment above everything seen, then make the recovered
    // state durable and truncate the log.
    server.with_quiesced(|inner| {
        let resumed = TxnTable::resuming_after(max_txn);
        // Preserve whichever is higher (restore() may already have bumped).
        if inner.txns.is_empty() {
            *inner.txns = resumed;
        }
    });
    server.checkpoint()?;
    Ok(())
}
