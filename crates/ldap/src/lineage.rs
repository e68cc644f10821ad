//! Snapshot lineage: versioned change tracking over a [`Dit`] snapshot
//! sequence, the substrate of the federation bulk-delta protocol.
//!
//! A GIIS that serves sync pulls observes every snapshot it publishes;
//! the lineage diffs each against its predecessor (an `Arc` pointer
//! comparison per unchanged entry, content comparison only when the
//! handle changed) and records, per DN, the version and time of its
//! last change plus a bounded window of per-version change sets. A
//! puller presenting a cookie inside the window receives exactly the
//! DNs that changed since; an unknown or out-of-window cookie falls
//! back to a full sync.
//!
//! Served entries are *stamped* with the recorded change metadata
//! ([`SYNC_VERSION_ATTR`], [`FRESH_AT_ATTR`]), so a tree assembled from
//! any interleaving of full syncs and incremental deltas is structurally
//! identical to one assembled from a single fresh full sync — the
//! invariant the convergence oracle in `tests/federation.rs` checks.

use crate::dit::Dit;
use crate::dn::Dn;
use crate::entry::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use gis_netsim::SimTime;

/// Attribute stamped on served entries: simulation time (microseconds)
/// of the entry's last observed change on the serving directory.
pub const FRESH_AT_ATTR: &str = "mds-fresh-at";

/// Attribute stamped on served entries: lineage version at which the
/// entry last changed. Monotone per serving directory; a balancer uses
/// it to refuse regressed reads after replica failover.
pub const SYNC_VERSION_ATTR: &str = "mds-sync-version";

/// How many change sets [`SnapshotLineage`] retains by default. A
/// puller more than this many versions behind is served a full sync.
pub const DEFAULT_WINDOW: usize = 64;

/// Per-DN change record.
#[derive(Debug, Clone, Copy)]
struct ChangeMeta {
    version: u64,
    at: SimTime,
}

/// The result of a delta computation: what to apply, in either order
/// (the key sets are disjoint).
#[derive(Debug, Clone, Default)]
pub struct DeltaSet {
    /// Entries created or modified since the cookie, stamped.
    pub upserts: Vec<Entry>,
    /// DNs deleted since the cookie.
    pub deletes: Vec<Dn>,
}

/// Versioned diff tracker over successive published snapshots.
#[derive(Debug)]
pub struct SnapshotLineage {
    /// Incarnation stamp, minted at the first observation (the time of
    /// that observation, in microseconds, never 0). Versions are only
    /// comparable within one epoch: a restarted directory rebuilds its
    /// lineage from scratch, and a cookie minted against the old
    /// incarnation could otherwise collide with a numerically equal but
    /// semantically unrelated new version — the puller would be handed
    /// an empty delta while content silently diverged.
    epoch: u64,
    version: u64,
    last: Arc<Dit>,
    /// Time of the most recent [`observe`](SnapshotLineage::observe) —
    /// the "as of" stamp a sync reply carries even when nothing changed.
    as_of: SimTime,
    /// DN key → last change. Covers exactly the keys of `last`.
    meta: BTreeMap<String, ChangeMeta>,
    /// Last `window_cap` change sets: (version, changed-or-deleted keys).
    /// Versions are contiguous; only observations that changed something
    /// mint a version.
    window: VecDeque<(u64, Vec<String>)>,
    window_cap: usize,
}

impl Default for SnapshotLineage {
    fn default() -> SnapshotLineage {
        SnapshotLineage::new(DEFAULT_WINDOW)
    }
}

impl SnapshotLineage {
    /// An empty lineage retaining up to `window_cap` change sets.
    pub fn new(window_cap: usize) -> SnapshotLineage {
        SnapshotLineage {
            epoch: 0,
            version: 0,
            last: Arc::new(Dit::new()),
            as_of: SimTime::ZERO,
            meta: BTreeMap::new(),
            window: VecDeque::new(),
            window_cap: window_cap.max(1),
        }
    }

    /// Current version. 0 until the first change is observed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Incarnation stamp: 0 until the first observation, then the time
    /// of that observation in microseconds (floored to 1). A cookie is
    /// only valid against the epoch it was minted in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Time of the most recent observation.
    pub fn as_of(&self) -> SimTime {
        self.as_of
    }

    /// Diff `snap` against the previously observed snapshot and absorb
    /// it. Returns `true` when anything changed (a new version was
    /// minted). Unchanged entries are detected by `Arc` pointer
    /// equality first, content equality second — a republished snapshot
    /// carrying identical data (a soft-state refresh) mints nothing.
    pub fn observe(&mut self, snap: Arc<Dit>, now: SimTime) -> bool {
        if self.epoch == 0 {
            self.epoch = now.micros().max(1);
        }
        self.as_of = now;
        if Arc::ptr_eq(&self.last, &snap) {
            return false;
        }
        let mut touched: Vec<String> = Vec::new();
        let mut deleted: Vec<String> = Vec::new();
        {
            let mut old = self.last.iter_shared().peekable();
            let mut new = snap.iter_shared().peekable();
            loop {
                match (old.peek(), new.peek()) {
                    (Some(&(ok, oe)), Some(&(nk, ne))) => {
                        if ok == nk {
                            if !Arc::ptr_eq(oe, ne) && **oe != **ne {
                                touched.push(nk.to_owned());
                            }
                            old.next();
                            new.next();
                        } else if ok < nk {
                            deleted.push(ok.to_owned());
                            old.next();
                        } else {
                            touched.push(nk.to_owned());
                            new.next();
                        }
                    }
                    (Some(&(ok, _)), None) => {
                        deleted.push(ok.to_owned());
                        old.next();
                    }
                    (None, Some(&(nk, _))) => {
                        touched.push(nk.to_owned());
                        new.next();
                    }
                    (None, None) => break,
                }
            }
        }
        if touched.is_empty() && deleted.is_empty() {
            self.last = snap;
            return false;
        }
        self.version += 1;
        for k in &touched {
            self.meta.insert(
                k.clone(),
                ChangeMeta {
                    version: self.version,
                    at: now,
                },
            );
        }
        for k in &deleted {
            self.meta.remove(k);
        }
        let mut set = touched;
        set.append(&mut deleted);
        self.window.push_back((self.version, set));
        while self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        self.last = snap;
        true
    }

    /// True when `cookie` can be answered incrementally: every version
    /// in `(cookie, version]` is still in the window.
    fn covers(&self, cookie: u64) -> bool {
        if cookie > self.version {
            return false; // a cookie from a different lineage (restart)
        }
        if cookie == self.version {
            return true;
        }
        match self.window.front() {
            Some(&(oldest, _)) => cookie + 1 >= oldest,
            None => false,
        }
    }

    /// Stamp `entry` with its recorded change metadata. Entries present
    /// before the lineage started observing carry version 0.
    fn stamped(&self, key: &str, entry: &Entry) -> Entry {
        let m = self.meta.get(key).copied().unwrap_or(ChangeMeta {
            version: 0,
            at: self.as_of,
        });
        let mut e = entry.clone();
        e.put(SYNC_VERSION_ATTR, vec![(m.version as i64).into()]);
        e.put(FRESH_AT_ATTR, vec![(m.at.micros() as i64).into()]);
        e
    }

    /// True when `key` falls under one of `subtrees` (empty = all, the
    /// unsharded case).
    fn in_shards(dn: &Dn, subtrees: &[Dn]) -> bool {
        subtrees.is_empty() || subtrees.iter().any(|s| dn.is_under(s))
    }

    /// Every entry of the last observed snapshot under `subtrees`,
    /// stamped — the full-sync payload.
    pub fn full(&self, subtrees: &[Dn]) -> Vec<Entry> {
        self.last
            .iter_shared()
            .filter(|(_, e)| Self::in_shards(e.dn(), subtrees))
            .map(|(k, e)| self.stamped(k, e))
            .collect()
    }

    /// The changes since `cookie`, restricted to `subtrees`, or `None`
    /// when the cookie is unknown/out of window and a full sync is
    /// required. `Some` with empty sets means "already converged".
    pub fn delta_since(&self, cookie: u64, subtrees: &[Dn]) -> Option<DeltaSet> {
        if !self.covers(cookie) {
            return None;
        }
        let mut keys: BTreeSet<&str> = BTreeSet::new();
        for (v, set) in &self.window {
            if *v > cookie {
                keys.extend(set.iter().map(String::as_str));
            }
        }
        let mut out = DeltaSet::default();
        for k in keys {
            match self.last.get_shared(k) {
                Some(e) if Self::in_shards(e.dn(), subtrees) => {
                    out.upserts.push(self.stamped(k, e));
                }
                Some(_) => {}
                None => {
                    if let Ok(dn) = Dn::parse(k) {
                        if Self::in_shards(&dn, subtrees) {
                            out.deletes.push(dn);
                        }
                    }
                }
            }
        }
        Some(out)
    }
}

/// Read back the [`FRESH_AT_ATTR`] stamp, if present.
pub fn fresh_at(entry: &Entry) -> Option<SimTime> {
    entry.get_i64(FRESH_AT_ATTR).map(|us| SimTime(us as u64))
}

/// Read back the [`SYNC_VERSION_ATTR`] stamp, if present.
pub fn sync_version(entry: &Entry) -> Option<u64> {
    entry.get_i64(SYNC_VERSION_ATTR).map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedDit;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    fn entry(dn: &str, sys: &str) -> Entry {
        Entry::at(dn)
            .unwrap()
            .with_class("computer")
            .with("system", sys)
    }

    #[test]
    fn observe_diffs_and_versions() {
        let shared = SharedDit::new();
        let mut lin = SnapshotLineage::new(8);
        assert!(!lin.observe(shared.snapshot(), t(1)), "empty → empty");
        shared.mutate(|d| {
            d.upsert(entry("hn=a", "linux"));
            d.upsert(entry("hn=b", "irix"));
        });
        assert!(lin.observe(shared.snapshot(), t(2)));
        assert_eq!(lin.version(), 1);
        // Republish identical content: refresh must not mint a version.
        shared.mutate(|d| d.upsert(entry("hn=a", "linux")));
        assert!(!lin.observe(shared.snapshot(), t(3)));
        assert_eq!(lin.version(), 1);
        // Real change + delete.
        shared.mutate(|d| {
            d.upsert(entry("hn=a", "aix"));
            d.delete(&Dn::parse("hn=b").unwrap());
        });
        assert!(lin.observe(shared.snapshot(), t(4)));
        assert_eq!(lin.version(), 2);

        let d = lin.delta_since(1, &[]).unwrap();
        assert_eq!(d.upserts.len(), 1);
        assert_eq!(d.upserts[0].dn().to_string(), "hn=a");
        assert_eq!(sync_version(&d.upserts[0]), Some(2));
        assert_eq!(fresh_at(&d.upserts[0]), Some(t(4)));
        assert_eq!(d.deletes.len(), 1);
        assert_eq!(d.deletes[0].to_string(), "hn=b");
        // Converged cookie: empty delta, not a full sync.
        let d = lin.delta_since(2, &[]).unwrap();
        assert!(d.upserts.is_empty() && d.deletes.is_empty());
    }

    #[test]
    fn out_of_window_cookie_forces_full_sync() {
        let shared = SharedDit::new();
        let mut lin = SnapshotLineage::new(2);
        for i in 0..5u64 {
            shared.mutate(|d| d.upsert(entry("hn=a", &format!("v{i}"))));
            assert!(lin.observe(shared.snapshot(), t(i + 1)));
        }
        assert_eq!(lin.version(), 5);
        assert!(lin.delta_since(2, &[]).is_none(), "window holds 4..=5");
        assert!(lin.delta_since(3, &[]).is_some());
        assert!(lin.delta_since(9, &[]).is_none(), "future cookie = restart");
        let full = lin.full(&[]);
        assert_eq!(full.len(), 1);
        assert_eq!(sync_version(&full[0]), Some(5));
    }

    #[test]
    fn shard_subtrees_scope_both_payloads() {
        let shared = SharedDit::new();
        let mut lin = SnapshotLineage::new(8);
        shared.mutate(|d| {
            d.upsert(entry("hn=a, o=left", "linux"));
            d.upsert(entry("hn=b, o=right", "irix"));
        });
        lin.observe(shared.snapshot(), t(1));
        let left = vec![Dn::parse("o=left").unwrap()];
        assert_eq!(lin.full(&left).len(), 1);
        shared.mutate(|d| {
            d.delete(&Dn::parse("hn=a, o=left").unwrap());
            d.delete(&Dn::parse("hn=b, o=right").unwrap());
        });
        lin.observe(shared.snapshot(), t(2));
        let d = lin.delta_since(1, &left).unwrap();
        assert!(d.upserts.is_empty());
        assert_eq!(d.deletes.len(), 1);
        assert_eq!(d.deletes[0].to_string(), "hn=a, o=left");
    }

    #[test]
    fn incremental_application_matches_full() {
        // Apply v1→v3 deltas to a copy of the v1 full sync; the result
        // must equal the v3 full sync — the convergence invariant.
        let shared = SharedDit::new();
        let mut lin = SnapshotLineage::new(16);
        shared.mutate(|d| {
            for i in 0..10 {
                d.upsert(entry(&format!("hn=h{i}"), "linux"));
            }
        });
        lin.observe(shared.snapshot(), t(1));
        let mut mirror = Dit::bulk_load(lin.full(&[]));
        let cookie = lin.version();
        shared.mutate(|d| {
            d.upsert(entry("hn=h3", "aix"));
            d.delete(&Dn::parse("hn=h7").unwrap());
            d.upsert(entry("hn=h10", "hpux"));
        });
        lin.observe(shared.snapshot(), t(2));
        let delta = lin.delta_since(cookie, &[]).unwrap();
        for dn in &delta.deletes {
            mirror.delete(dn);
        }
        for e in delta.upserts.clone() {
            mirror.upsert(e);
        }
        let full = Dit::bulk_load(lin.full(&[]));
        // Ids may differ between the two builds; the entries and every
        // index's content may not.
        assert_eq!(mirror.logical(), full.logical());
    }
}
