//! Snapshot read sessions: epoch-stamped, MVCC-style read handles that
//! run `SELECT`s concurrently with the single writer.
//!
//! The engine is already MVCC-shaped — immutable flash bases, bounded
//! RAM deltas, tombstone [`LiveSet`]s — so a consistent read view is
//! nearly free to capture. A snapshot is the engine's own [`ReadView`]
//! forked (`ReadView::fork`) plus the page pins that keep it valid:
//!
//! * the **flash bases** are shared by reference (segment page lists
//!   are `Arc`ed; nothing rewrites a sealed segment in place);
//! * the **RAM deltas, overwrite overlays, tombstone sets, and index
//!   deltas** are copied — every one of them is bounded by the delta
//!   flush threshold ([`DeviceConfig::delta_flush_rows`]), so the copy
//!   cost tracks the *un-flushed tail*, never the base size;
//! * the **schema, tree, config, and statistics** ride along (`Arc`s
//!   for the immutable parts, a bounded clone for the stats).
//!
//! Because [`GhostDb::snapshot`] borrows `&self`, the borrow checker
//! itself quiesces capture: no writer method (`&mut self`) can overlap
//! it, so capture needs no locks. Once captured, the snapshot races
//! only with *future* writer work — and every shared structure it
//! still touches (the volume's translation table, the NAND part, the
//! bus trace, the clock) is internally synchronized.
//!
//! # What pins what
//!
//! A snapshot's base segments must outlive it even if the writer
//! flushes (rebuilding columns and indexes frees the old segments) or
//! the GC compacts blocks. Capture therefore **pins** every base LPN
//! in the volume ([`Volume::pin_pages`]): pinned pages may still
//! migrate — the translation table keeps reads valid across moves —
//! but a free against them is deferred until the last pin drops, the
//! same deferred-free discipline the sealed image uses. Dropping the
//! snapshot unpins and releases anything the writer freed in the
//! meantime.
//!
//! # Sessions
//!
//! Each snapshot is one read session with its own device RAM slice
//! (a fresh [`RamBudget`] of the configured size — concurrent sessions
//! model independent secure-device sessions, per the paper's
//! session-per-query trust model) and its own bus endpoint over the
//! shared (spied) link. A [`Snapshot`] is `Send + Sync`; give each
//! reader thread its own snapshot so RAM-budget contention between
//! sessions cannot produce spurious out-of-RAM failures.
//!
//! [`LiveSet`]: ghostdb_types::LiveSet
//! [`DeviceConfig::delta_flush_rows`]: ghostdb_types::DeviceConfig::delta_flush_rows
//! [`Volume::pin_pages`]: ghostdb_flash::Volume::pin_pages
//! [`RamBudget`]: ghostdb_ram::RamBudget

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use ghostdb_types::Result;

use crate::{GhostDb, ReadView};

/// Registry of open snapshot sessions, shared between the writer (for
/// `device_report()`) and every snapshot (which deregisters itself on
/// drop).
#[derive(Debug)]
pub struct SessionRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    next_id: u64,
    /// Open sessions: id → (capture epoch, pinned page count).
    open: HashMap<u64, (u64, usize)>,
}

impl SessionRegistry {
    pub(crate) fn new() -> Arc<SessionRegistry> {
        Arc::new(SessionRegistry {
            inner: Mutex::new(RegistryInner {
                next_id: 1,
                open: HashMap::new(),
            }),
        })
    }

    fn register(&self, epoch: u64, pinned_pages: usize) -> u64 {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(id, (epoch, pinned_pages));
        id
    }

    fn deregister(&self, id: u64) {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        inner.open.remove(&id);
    }

    /// Number of snapshots currently open.
    pub fn open_snapshots(&self) -> usize {
        self.inner
            .lock()
            .expect("session registry poisoned")
            .open
            .len()
    }

    /// One-line summary for `device_report()`: open session count plus
    /// the epoch range they span.
    pub(crate) fn describe(&self) -> String {
        let inner = self.inner.lock().expect("session registry poisoned");
        if inner.open.is_empty() {
            return "no open snapshots".to_string();
        }
        let lo = inner.open.values().map(|&(e, _)| e).min().unwrap_or(0);
        let hi = inner.open.values().map(|&(e, _)| e).max().unwrap_or(0);
        let pages: usize = inner.open.values().map(|&(_, p)| p).sum();
        format!(
            "{} open snapshot(s) spanning epochs {lo}..={hi}, {pages} page pin(s) held",
            inner.open.len()
        )
    }
}

/// An immutable, epoch-stamped view of the database: the read half of
/// [`GhostDb`], detached from `&mut self`.
///
/// A snapshot sees exactly the state committed at its capture epoch —
/// concurrent inserts, deletes, updates, and even flushes by the
/// writer never show through (snapshot isolation). It is `Send + Sync`
/// and carries its own device RAM slice; hand one to each reader
/// thread and run [`query`](ReadView::query) freely — the whole read
/// surface is [`ReadView`]'s, reached through `Deref`. Dropping it
/// unpins its base segments, letting a flush that outpaced it finally
/// retire them.
pub struct Snapshot {
    /// The forked read state as of the capture epoch.
    view: ReadView,
    /// Base LPNs pinned in the volume until drop.
    pinned: Vec<u32>,
    session_id: u64,
    registry: Arc<SessionRegistry>,
}

impl Snapshot {
    /// Capture the current state of `db` (see [`GhostDb::snapshot`]):
    /// clone the read state, pin its pages.
    pub(crate) fn capture(db: &GhostDb) -> Result<Snapshot> {
        // `&db` here and `&mut db` in every writer method: the borrow
        // checker is the capture lock.
        let view = db.fork();
        let mut pinned = Vec::new();
        view.hidden.collect_lpns(&mut pinned);
        view.indexes.collect_lpns(&mut pinned);
        pinned.sort_unstable();
        pinned.dedup();
        view.volume.pin_pages(&pinned)?;
        let session_id = db.sessions.register(view.epoch, pinned.len());
        Ok(Snapshot {
            view,
            pinned,
            session_id,
            registry: db.sessions.clone(),
        })
    }

    /// Base pages this snapshot pins in the volume (observability; the
    /// leak check in `tests/concurrency.rs` watches these drain).
    pub fn pinned_pages(&self) -> usize {
        self.pinned.len()
    }
}

impl Deref for Snapshot {
    type Target = ReadView;

    fn deref(&self) -> &ReadView {
        &self.view
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Releases any segment the writer freed while this snapshot
        // held it; errors cannot surface from a destructor, and the
        // pin set was validated at capture.
        let _ = self.view.volume.unpin_pages(&self.pinned);
        self.registry.deregister(self.session_id);
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.view.epoch)
            .field("pinned_pages", &self.pinned.len())
            .field("session_id", &self.session_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of a snapshot is crossing threads: it must be
    /// `Send` (handed to a reader thread) and `Sync` (shared by
    /// reference inside one). A compile-time assertion, not a runtime
    /// check — if a non-thread-safe field ever sneaks in, this stops
    /// building.
    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<SessionRegistry>();
    }
}
