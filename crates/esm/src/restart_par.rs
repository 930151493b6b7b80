//! The restart engine: one streamed, page-partitioned implementation of
//! every restart algorithm — ARIES (ESM / REDO flavors), REDO-only
//! (`RedoLogical`), mixed-scheme (`Adaptive`) and the WPL table rebuild
//! (§3.4.3). The flavor-specific bookkeeping it drives lives in
//! [`crate::aries`].
//!
//! Every pass has the same three stages:
//!
//! 1. a scanner reads the log in large aligned chunks
//!    ([`ChunkedScanner`]) — one lock acquisition and one media pass per
//!    chunk;
//! 2. the router (the restart thread) walks each chunk's frames with the
//!    cheap frame accessors — no decoding — does the inherently serial
//!    bookkeeping (ATT/DPT/CTL), and fans page work out to workers;
//! 3. workers apply their frames straight out of the shared chunk buffer,
//!    with no `LogRecord` materialization and no per-record allocation.
//!
//! Redo partitions by page id with the same Fibonacci hash as the sharded
//! buffer pool: every record touching a given page reaches exactly one
//! worker, so each worker applies its pages' records in LSN order with no
//! cross-worker coordination (see DESIGN.md §6c).
//!
//! `RestartConfig::redo_workers` sets the worker count. At one, the
//! engine runs inline on the restarting thread and spawns nothing: the
//! scanner reads on the caller's thread and the router calls the worker's
//! per-batch function directly — the same function the threaded workers
//! run. At N ≥ 2 a reader thread streams chunks through a bounded channel
//! ([`stream_chunks`]) and N worker threads drain their own bounded
//! queues.
//!
//! **Verification rule.** Restart uses no header field of a frame — not
//! to route it, not to update the ATT/DPT/CTL, not to apply it — before
//! that frame's checksum has been verified, and it verifies each frame
//! once: analysis verifies every frame it scans, whole-page frames
//! included; ARIES redo's router verifies the frames below the analysis
//! window (`[redo_from, analysis start)`, present after fuzzy
//! checkpoints); the WPL router verifies the small frames it interprets,
//! and WPL image workers verify every image before reporting it. The one
//! field read earlier is the WPL frame tag, and only to pick which of
//! those two verifies the frame.
//!
//! Workers return their states in worker-index order; merges sum
//! [`PhaseStat`] tallies and install pages page-sorted, so the recovered
//! volume image, the restart report counts, and everything downstream are
//! byte-identical for any worker count.

use crate::aries::{self, merge_committed, newer_txn, AdaptiveAnalysis, Analysis, RlogAnalysis};
use crate::server::{InnerView, RestartConfig, Server};
use crate::shard::shard_index;
use crate::txn::TxnTable;
use qs_storage::{Page, Volume};
use qs_trace::PhaseStat;
use qs_types::hash::{IdMap, IdSet};
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use qs_wal::{
    stream_chunks, CheckpointBody, ChunkedScanner, FrameChunk, FrameRef, LogManager, LogRecord,
};
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// Bounded depth of the chunk and per-worker channels: deep enough to
/// overlap reading, routing, and applying; shallow enough to cap memory
/// at a few chunks per stage.
const DEPTH: usize = 4;

/// One batch of routed work: frames for one worker, all within `buf`.
type WorkBatch = (Arc<Vec<u8>>, Vec<FrameRef>);

/// Worker count for this restart (a zero in the config means one).
fn workers(cfg: RestartConfig) -> usize {
    cfg.redo_workers.max(1)
}

/// Log pages spanned by `[from, end)`, for the restart report.
fn pages_spanned(from: Lsn, end: Lsn) -> u64 {
    end.0.saturating_sub(from.0).div_ceil(PAGE_SIZE as u64)
}

/// Feed every chunk of `[from, end)` to `f`, in LSN order. At one worker
/// the scanner runs on the caller's thread; with more, a reader thread
/// streams chunks ahead of `f` through a bounded channel.
fn for_each_chunk(
    log: &LogManager,
    from: Lsn,
    end: Lsn,
    cfg: RestartConfig,
    mut f: impl FnMut(&FrameChunk) -> QsResult<()>,
) -> QsResult<()> {
    if workers(cfg) == 1 {
        let mut scanner = ChunkedScanner::new(log, from, end, cfg.chunk_bytes);
        while let Some(chunk) = scanner.next_chunk()? {
            f(&chunk)?;
        }
        return Ok(());
    }
    std::thread::scope(|s| {
        for chunk in stream_chunks(s, log, from, end, cfg.chunk_bytes, DEPTH) {
            f(&chunk?)?;
        }
        Ok(())
    })
}

/// Stream `[from, end)` through the router and the workers. `route` sees
/// every frame in LSN order on the calling thread and names the worker
/// that must handle it (`None`: nobody). `apply` is one worker's
/// per-batch function: it receives the chunk buffer and, in LSN order,
/// that worker's frames from the chunk. At one worker it is called
/// inline; at N it runs on N scoped threads fed through bounded queues.
/// Returns the worker states in worker-index order.
fn pipeline<W: Default + Send>(
    log: &LogManager,
    from: Lsn,
    end: Lsn,
    cfg: RestartConfig,
    mut route: impl FnMut(&[u8], Lsn) -> QsResult<Option<usize>>,
    apply: impl Fn(&mut W, &[u8], &[FrameRef]) -> QsResult<()> + Sync,
) -> QsResult<Vec<W>> {
    let workers = workers(cfg);
    let apply = &apply;
    std::thread::scope(|s| {
        let mut queues = Vec::new();
        let mut handles = Vec::new();
        if workers > 1 {
            for _ in 0..workers {
                let (tx, rx) = sync_channel::<WorkBatch>(DEPTH);
                queues.push(tx);
                handles.push(s.spawn(move || -> QsResult<W> {
                    let mut state = W::default();
                    for (buf, refs) in rx {
                        apply(&mut state, &buf, &refs)?;
                    }
                    Ok(state)
                }));
            }
        }
        let mut inline = W::default();
        let mut routed: Vec<Vec<FrameRef>> = vec![Vec::new(); workers];
        let scanned = for_each_chunk(log, from, end, cfg, |chunk| {
            for r in &chunk.frames {
                if let Some(w) = route(chunk.frame(r), r.lsn)? {
                    routed[w].push(*r);
                }
            }
            for (w, refs) in routed.iter_mut().enumerate() {
                if refs.is_empty() {
                    continue;
                }
                if workers == 1 {
                    apply(&mut inline, &chunk.buf, refs)?;
                    refs.clear();
                } else if queues[w].send((Arc::clone(&chunk.buf), std::mem::take(refs))).is_err() {
                    // The worker bailed with an error, returned at the join.
                    return Err(QsError::RecoveryFailed {
                        detail: "restart worker stopped".into(),
                    });
                }
            }
            Ok(())
        });
        drop(queues);
        let mut states = Vec::with_capacity(workers);
        for h in handles {
            states.push(h.join().expect("restart worker panicked")?);
        }
        scanned?;
        if workers == 1 {
            states.push(inline);
        }
        Ok(states)
    })
}

/// The analysis pass of every ARIES-family flavor: verify every frame in
/// `[from, tail)`, whole-page frames included, count it, then hand it to
/// `observe`.
fn analysis_pass(
    view: &InnerView<'_>,
    from: Lsn,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    mut observe: impl FnMut(Lsn, &[u8]) -> QsResult<()>,
) -> QsResult<()> {
    let end = view.log.tail_lsn();
    ph.pages_read = pages_spanned(from, end);
    for_each_chunk(view.log, from, end, cfg, |chunk| {
        for r in &chunk.frames {
            let bytes = chunk.frame(r);
            record::frame_verify(bytes)?;
            ph.records += 1;
            observe(r.lsn, bytes)?;
        }
        Ok(())
    })
}

/// The body of a (verified) checkpoint frame, or `None` for other frames.
fn checkpoint_body(bytes: &[u8]) -> QsResult<Option<CheckpointBody>> {
    if !matches!(record::frame_tag(bytes), tag::CHECKPOINT | tag::BEGIN_CHECKPOINT) {
        return Ok(None);
    }
    match LogRecord::decode(bytes)? {
        LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => Ok(Some(body)),
        _ => Ok(None),
    }
}

/// The checkpoint body the log header points at: a sharp `Checkpoint`
/// or a completed fuzzy pair's `BeginCheckpoint` — the header never
/// points at an orphaned begin (it only advances once the matching end
/// record is durable).
fn anchor_checkpoint(log: &LogManager, ck: Lsn) -> QsResult<CheckpointBody> {
    match log.read_record(ck)?.0 {
        LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => Ok(body),
        _ => Err(QsError::RecoveryFailed { detail: format!("no checkpoint record at {ck}") }),
    }
}

/// ARIES restart (ESM / REDO flavors): analysis from the most recent
/// checkpoint, page-partitioned redo of all logged work, then undo of the
/// losers with CLRs.
pub(crate) fn aries_restart(server: &Server) -> QsResult<Vec<PhaseStat>> {
    let mut ph_analysis = PhaseStat { name: "analysis", ..PhaseStat::default() };
    let mut ph_redo = PhaseStat { name: "redo", ..PhaseStat::default() };
    let mut ph_undo = PhaseStat { name: "undo", ..PhaseStat::default() };
    let cfg = server.config().restart;

    let (analysis, analysis_from) = server.with_quiesced(|view| -> QsResult<(Analysis, Lsn)> {
        let ck = view.log.checkpoint_lsn();
        let from = if ck.is_null() { view.log.start_lsn() } else { ck };
        let mut a = Analysis { max_txn: TxnId::INVALID, ..Analysis::default() };
        if !ck.is_null() {
            // Sharp checkpoints leave the DPT empty; fuzzy ones seed it.
            let body = anchor_checkpoint(view.log, ck)?;
            a.att.extend(body.active_txns);
            a.dpt.extend(body.dirty_pages);
            a.max_alloc = body.allocated_pages;
        }
        analysis_pass(view, from, cfg, &mut ph_analysis, |lsn, bytes| {
            a.observe(
                lsn,
                record::frame_tag(bytes),
                record::frame_txn(bytes),
                record::frame_page(bytes),
            );
            Ok(())
        })?;
        view.volume.ensure_allocated(a.max_alloc as usize)?;
        Ok((a, from))
    })?;
    server.with_quiesced(|view| {
        redo(view, &analysis.dpt, analysis_from, |_| false, cfg, &mut ph_redo)
    })?;
    aries::undo_and_finish(server, analysis.att, analysis.max_txn, &mut ph_undo)?;
    Ok(vec![ph_analysis, ph_redo, ph_undo])
}

/// `RedoLogical` restart: analysis over the whole retained log (fuzzy
/// checkpoints mean committed work may precede the checkpoint; the
/// truncation rule keeps everything unapplied), then redo of committed
/// transactions' records only — the router drops loser frames, so no
/// worker sees one. No-steal means no uncommitted data ever reached the
/// volume, so there is no undo phase at all.
pub(crate) fn rlog_restart(server: &Server) -> QsResult<Vec<PhaseStat>> {
    let mut ph_analysis = PhaseStat { name: "analysis", ..PhaseStat::default() };
    let mut ph_redo = PhaseStat { name: "redo", ..PhaseStat::default() };
    let cfg = server.config().restart;

    let analysis = server.with_quiesced(|view| -> QsResult<RlogAnalysis> {
        let mut a = RlogAnalysis { max_txn: TxnId::INVALID, ..RlogAnalysis::default() };
        // Loser candidates: txn → page → first LSN, merged into the DPT
        // only if the commit record shows up.
        let mut pending: IdMap<TxnId, IdMap<PageId, Lsn>> = IdMap::default();
        analysis_pass(view, view.log.start_lsn(), cfg, &mut ph_analysis, |lsn, bytes| {
            let txn = record::frame_txn(bytes);
            newer_txn(&mut a.max_txn, txn);
            match record::frame_tag(bytes) {
                tag::COMMIT => {
                    a.committed.insert(txn);
                    if let Some(pages) = pending.remove(&txn) {
                        merge_committed(&mut a.dpt, pages);
                    }
                }
                tag::ABORT => {
                    pending.remove(&txn);
                }
                tag::CHECKPOINT | tag::BEGIN_CHECKPOINT => {
                    if let Some(body) = checkpoint_body(bytes)? {
                        a.max_alloc = a.max_alloc.max(body.allocated_pages);
                    }
                }
                _ => {
                    if let Some(page) = record::frame_page(bytes) {
                        pending.entry(txn).or_default().entry(page).or_insert(lsn);
                        a.max_alloc = a.max_alloc.max(page.0 as u64 + 1);
                    }
                }
            }
            Ok(())
        })?;
        view.volume.ensure_allocated(a.max_alloc as usize)?;
        Ok(a)
    })?;
    server.with_quiesced(|view| {
        let committed = &analysis.committed;
        let skip = |txn: TxnId| !committed.contains(&txn);
        redo(view, &analysis.dpt, view.log.start_lsn(), skip, cfg, &mut ph_redo)
    })?;
    aries::rlog_finish(server, analysis.max_txn)?;
    Ok(vec![ph_analysis, ph_redo])
}

/// `Adaptive` restart: one analysis pass over the whole retained log
/// classifies every transaction by its `TxnScheme` record (shared
/// [`AdaptiveAnalysis::observe`]); redo repeats history minus the
/// logically-elected losers, filtered at the router; undo rolls back only
/// the physically-elected losers (logical losers never reached shared
/// state — the same no-steal argument as `RedoLogical`).
pub(crate) fn adaptive_restart(server: &Server) -> QsResult<Vec<PhaseStat>> {
    let mut ph_analysis = PhaseStat { name: "analysis", ..PhaseStat::default() };
    let mut ph_redo = PhaseStat { name: "redo", ..PhaseStat::default() };
    let mut ph_undo = PhaseStat { name: "undo", ..PhaseStat::default() };
    let cfg = server.config().restart;

    let analysis = server.with_quiesced(|view| -> QsResult<AdaptiveAnalysis> {
        let mut a = AdaptiveAnalysis { max_txn: TxnId::INVALID, ..AdaptiveAnalysis::default() };
        analysis_pass(view, view.log.start_lsn(), cfg, &mut ph_analysis, |lsn, bytes| {
            // A transaction's `TxnScheme` record precedes its page records,
            // so forward order classifies each page frame at first sight.
            match checkpoint_body(bytes)? {
                Some(body) => a.max_alloc = a.max_alloc.max(body.allocated_pages),
                None => a.observe(
                    lsn,
                    record::frame_tag(bytes),
                    record::frame_txn(bytes),
                    record::frame_page(bytes),
                    record::frame_scheme(bytes),
                ),
            }
            Ok(())
        })?;
        view.volume.ensure_allocated(a.max_alloc as usize)?;
        Ok(a)
    })?;
    server.with_quiesced(|view| {
        let skip = |txn: TxnId| analysis.redo_skips(txn);
        redo(view, &analysis.dpt, view.log.start_lsn(), skip, cfg, &mut ph_redo)
    })?;
    let physical_losers: IdMap<TxnId, Lsn> = analysis
        .att
        .iter()
        .filter(|(t, _)| !analysis.is_logical(**t))
        .map(|(t, l)| (*t, *l))
        .collect();
    aries::undo_and_finish(server, physical_losers, analysis.max_txn, &mut ph_undo)?;
    Ok(vec![ph_analysis, ph_redo, ph_undo])
}

/// What one redo worker produced: its phase tallies and its partition's
/// redone pages.
#[derive(Default)]
struct RedoOutcome {
    stats: PhaseStat,
    resident: IdMap<PageId, Page>,
}

/// Page-partitioned redo, shared by every ARIES-family flavor: repeat
/// history from the earliest recovery LSN, routing each page-bearing
/// frame whose transaction `skip` keeps to `shard_index(page, workers)`,
/// then install the merged resident set into the pool page-sorted, so
/// pool state and eviction write-backs are identical for every worker
/// count. Analysis verified the frames from `verified_from` on; the
/// router verifies the older ones before reading any of their fields.
fn redo(
    view: &mut InnerView<'_>,
    dpt: &IdMap<PageId, Lsn>,
    verified_from: Lsn,
    skip: impl Fn(TxnId) -> bool,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
) -> QsResult<()> {
    let Some(&redo_from) = dpt.values().min() else {
        return Ok(());
    };
    // A fuzzy begin-checkpoint body can carry recLSNs that predate the
    // truncated log start (their pages were flushed by the drain, which
    // is what allowed truncation); those updates are on disk and the
    // pageLSN test would skip them anyway, so clamp the scan.
    let redo_from = redo_from.max(view.log.start_lsn());
    let end = view.log.tail_lsn();
    ph.pages_read = pages_spanned(redo_from, end);

    let n = workers(cfg);
    let volume = view.volume;
    let outcomes = pipeline(
        view.log,
        redo_from,
        end,
        cfg,
        |bytes, lsn| {
            if lsn < verified_from {
                record::frame_verify(bytes)?;
            }
            if skip(record::frame_txn(bytes)) {
                return Ok(None);
            }
            Ok(record::frame_page(bytes).map(|pid| shard_index(pid, n)))
        },
        |out: &mut RedoOutcome, buf, refs| redo_batch(out, dpt, volume, buf, refs),
    )?;

    // Merge in worker-index order; install page-sorted.
    let mut resident: Vec<(PageId, Page)> = Vec::new();
    for o in outcomes {
        ph.absorb(&o.stats);
        resident.extend(o.resident);
    }
    resident.sort_by_key(|&(pid, _)| pid.0);
    for (pid, page) in resident {
        let ev = view.pool.insert(pid, page, true)?;
        if let Some(ev) = ev {
            // Restart pools are sized like production pools; eviction
            // during redo writes through (WAL is satisfied: everything is
            // in the durable log already).
            if ev.dirty {
                view.volume.write_page(ev.page_id, &ev.page)?;
                ph.data_writes += 1;
            }
        }
        view.dpt.insert(pid, redo_from);
    }
    Ok(())
}

/// One redo worker's per-batch function: repeat history on this
/// partition's pages with the DPT / recLSN / pageLSN filters, applying
/// after-images straight from the shared chunk buffer. Because the
/// diffing schemes log after-images, redo is idempotent; the pageLSN test
/// only avoids wasted work. Whole-page records redo by image replacement.
fn redo_batch(
    out: &mut RedoOutcome,
    dpt: &IdMap<PageId, Lsn>,
    volume: &Volume,
    buf: &[u8],
    refs: &[FrameRef],
) -> QsResult<()> {
    for r in refs {
        let bytes = &buf[r.offset as usize..(r.offset + r.len) as usize];
        let pid = record::frame_page(bytes).expect("router only sends page-bearing frames");
        let Some(&rec_lsn) = dpt.get(&pid) else { continue };
        if r.lsn < rec_lsn {
            continue;
        }
        let page = match out.resident.entry(pid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                out.stats.data_reads += 1;
                e.insert(volume.read_page(pid)?)
            }
        };
        if page.lsn() >= r.lsn {
            continue; // effect already on disk image
        }
        out.stats.records += 1;
        if record::frame_tag(bytes) == tag::WHOLE_PAGE {
            *page = Page::from_bytes(record::frame_whole_page_image(bytes)?)?;
        } else if let Some((slot, offset, after)) = record::frame_redo_slice(bytes)? {
            page.write_range(pid, slot, offset, after)?;
        }
        page.set_lsn(r.lsn);
    }
    Ok(())
}

/// One verified whole-page image: which page, where, and who wrote it.
struct ImageCandidate {
    pid: PageId,
    lsn: Lsn,
    txn: TxnId,
}

/// WPL restart (§3.4.3): one forward streamed pass over
/// `[checkpoint, durable)` rebuilds the WPL table. The router collects
/// the committed-transactions list (CTL) and the oldest in-range
/// checkpoint body; image workers verify and report image candidates.
/// "Newest committed image wins" is decided per page at merge time — the
/// rule the paper's backward scan computes with first-wins, because a
/// transaction's commit record always follows its page images. Images go
/// to workers round-robin: the merge is order-independent, so no header
/// field is needed to route them.
pub(crate) fn wpl_restart(server: &Server) -> QsResult<Vec<PhaseStat>> {
    let mut scan = PhaseStat { name: "backward_scan", ..PhaseStat::default() };
    let mut rebuild = PhaseStat { name: "table_rebuild", ..PhaseStat::default() };
    let cfg = server.config().restart;
    let n = workers(cfg);
    server.with_quiesced(|view| -> QsResult<()> {
        let end = view.log.durable_lsn();
        let ck = view.log.checkpoint_lsn();
        let stop = if ck.is_null() { view.log.start_lsn() } else { ck };
        scan.pages_read = pages_spanned(stop, end);

        let mut ctl: IdSet<TxnId> = IdSet::default();
        let mut max_txn = TxnId::INVALID;
        let mut images = 0usize;
        // The anchor is the oldest in-range checkpoint record: forward
        // order makes that first-wins. An orphaned begin (crash before its
        // end record) sits later and is ignored.
        let mut checkpoint: Option<CheckpointBody> = None;
        let outcomes = pipeline(
            view.log,
            stop,
            end,
            cfg,
            |bytes, _lsn| {
                scan.records += 1;
                if record::frame_tag(bytes) == tag::WHOLE_PAGE {
                    images += 1;
                    return Ok(Some(images % n));
                }
                record::frame_verify(bytes)?;
                let txn = record::frame_txn(bytes);
                newer_txn(&mut max_txn, txn);
                if record::frame_tag(bytes) == tag::COMMIT {
                    ctl.insert(txn);
                } else if checkpoint.is_none() {
                    checkpoint = checkpoint_body(bytes)?;
                }
                Ok(None)
            },
            image_batch,
        )?;

        // The paper's backward scan reads one log page per record visited;
        // bill the meter that total so the model is unchanged.
        server.meter().log_pages_read.fetch_add(scan.records, Ordering::Relaxed);

        // Merge: newest committed image per page.
        let mut max_page: Option<u32> = None;
        let mut newest: IdMap<PageId, ImageCandidate> = IdMap::default();
        for cand in outcomes.into_iter().flatten() {
            newer_txn(&mut max_txn, cand.txn);
            max_page = Some(max_page.unwrap_or(0).max(cand.pid.0 + 1));
            if !ctl.contains(&cand.txn) {
                continue;
            }
            match newest.entry(cand.pid) {
                Entry::Vacant(e) => {
                    e.insert(cand);
                }
                Entry::Occupied(mut e) => {
                    if cand.lsn > e.get().lsn {
                        e.insert(cand);
                    }
                }
            }
        }
        let mut claimed: IdSet<PageId> = IdSet::default();
        let mut restored: Vec<ImageCandidate> = newest.into_values().collect();
        restored.sort_by_key(|c| c.pid.0);
        for c in restored {
            claimed.insert(c.pid);
            view.wpl.insert_restored(c.pid, c.lsn, c.txn);
        }

        // The checkpoint record sits exactly at `stop` when one exists.
        if !ck.is_null() && checkpoint.is_none() {
            checkpoint = Some(anchor_checkpoint(view.log, ck)?);
            server.meter().log_pages_read.fetch_add(1, Ordering::Relaxed);
            rebuild.pages_read += 1;
        }
        if let Some(body) = checkpoint {
            for e in &body.wpl_entries {
                if (e.committed || ctl.contains(&e.txn)) && claimed.insert(e.page) {
                    view.wpl.insert_restored(e.page, e.lsn, e.txn);
                }
                rebuild.records += 1;
                max_page = Some(max_page.unwrap_or(0).max(e.page.0 + 1));
            }
            view.volume.ensure_allocated(body.allocated_pages as usize)?;
        }
        if let Some(mp) = max_page {
            view.volume.ensure_allocated(mp as usize)?;
        }
        *view.txns = TxnTable::resuming_after(max_txn);
        Ok(())
    })?;
    Ok(vec![scan, rebuild])
}

/// One WPL image worker's per-batch function: verify each routed frame
/// and only then report it as an [`ImageCandidate`]. Nothing is
/// materialized — restored pages are served straight from the log by the
/// WPL table, exactly as in normal running.
fn image_batch(out: &mut Vec<ImageCandidate>, buf: &[u8], refs: &[FrameRef]) -> QsResult<()> {
    for r in refs {
        let bytes = &buf[r.offset as usize..(r.offset + r.len) as usize];
        record::frame_verify(bytes)?;
        let pid = record::frame_page(bytes).expect("verified whole-page frame");
        out.push(ImageCandidate { pid, lsn: r.lsn, txn: record::frame_txn(bytes) });
    }
    Ok(())
}
