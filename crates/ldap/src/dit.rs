//! The Directory Information Tree: a hierarchical entry store with
//! LDAP-style scoped search.
//!
//! GRIS and GIIS both present their information as a DIT; searches carry a
//! base DN, a scope (base / one-level / subtree), a filter, and an optional
//! attribute selection (§4.1).
//!
//! # Layout
//!
//! Every stored entry occupies a dense `u32` slot id. The primary map
//! (`by_key`) takes the DN's rendered key to its id; every other index
//! holds ids, so a search narrows its candidates before it touches any
//! entry:
//!
//! * a **parent index** (`children`): parent DN key → sorted ids of its
//!   immediate children. [`Scope::One`] is a single map lookup.
//! * a **suffix-major index** (`suffix`): the DN's RDNs rendered
//!   root-first and joined with `\x00` → id. Every subtree is one
//!   contiguous key range, so the ids in a [`Scope::Sub`] scope are
//!   collected in `O(log n + m)` without dereferencing an entry.
//! * an **attribute index** (`attrs`) over *every* attribute of every
//!   entry: a value dictionary (normalized value → sorted ids), ordered
//!   numeric postings (the `f64` that ordering filters compare → sorted
//!   ids) and a presence posting (ids carrying the attribute at all).
//!   There is no index set to configure.
//!
//! # Search
//!
//! A search collects its scope's ids, then plans the filter against the
//! attribute index: equality reads one posting, `>=`/`<=` the union over
//! an ordered range of numeric postings and of the dictionary, a
//! substring with an initial part a prefix range of the dictionary, one
//! without an initial part a walk of the dictionary, and presence the
//! presence posting. `And` intersects its cheap conjuncts, `Or` unions
//! its branches (only when every branch is indexable). The plan is taken
//! only when the index's own sizes — posting lengths, dictionary keys
//! walked, scope size — show it cheaper than scanning the scope;
//! otherwise the scope is scanned. Either way only the surviving ids are
//! dereferenced, and each is re-checked with the full filter.
//!
//! Results are always produced in primary-key (DN string) order, so
//! index-served and scan-served queries return identical output and a
//! size-limited result is a prefix of the unlimited one: the surviving
//! ids are sorted by a key-order rank of the ids, built once per tree
//! version by the first search that needs it (a bulk load assigns ids in
//! key order, so its rank is the identity).

use crate::dn::Dn;
use crate::entry::{AttrValue, Entry};
use crate::error::{LdapError, Result};
use crate::filter::{as_number, substring_match, Filter};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// LDAP search scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// The base entry only (lookup / enquiry).
    Base,
    /// Immediate children of the base.
    One,
    /// The base entry and all descendants (discovery).
    Sub,
}

/// Cost of dereferencing and filtering one entry, in units of touching
/// one id of a posting list: an entry test chases the entry's handle,
/// its attribute map and its value strings, where a posting step reads
/// the next `u32` of a contiguous vector.
const DEREF_COST: usize = 16;

/// Sorted ids of the entries carrying one value.
type Posting = Vec<u32>;

/// A numeric attribute value, ordered as the filter evaluator compares
/// numbers: `-0` equals `0`, and every NaN is one key that sorts above
/// `+inf` (a NaN compares equal to everything, so it satisfies both `>=`
/// and `<=`; the planner adds it to `<=` ranges explicitly).
#[derive(Debug, Clone, Copy)]
struct Num(f64);

impl Num {
    fn new(x: f64) -> Num {
        Num(if x.is_nan() { f64::NAN } else { x + 0.0 })
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Num) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Num {}

impl PartialOrd for Num {
    fn partial_cmp(&self, other: &Num) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Num {
    fn cmp(&self, other: &Num) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The index of one attribute.
#[derive(Debug, Clone, Default)]
struct AttrIndex {
    /// Ids of the entries carrying the attribute (presence).
    present: Posting,
    /// Normalized value → ids (equality, substring, lexicographic order).
    values: BTreeMap<String, Posting>,
    /// Numeric values by the number they denote → ids.
    numbers: BTreeMap<Num, Posting>,
    /// How many keys of `values` are not numeric. Ordering filters with a
    /// numeric bound compare those keys lexicographically; when there are
    /// none the dictionary walk is skipped.
    text: usize,
}

/// Add `id` to a sorted posting (a no-op if present). Bulk builds and
/// fresh slots append, so the common case is a push.
fn post(p: &mut Posting, id: u32) {
    match p.last() {
        Some(&last) if last >= id => {
            if let Err(i) = p.binary_search(&id) {
                p.insert(i, id);
            }
        }
        _ => p.push(id),
    }
}

/// Remove `id` from a sorted posting; true when the posting is now empty.
fn unpost(p: &mut Posting, id: u32) -> bool {
    if let Ok(i) = p.binary_search(&id) {
        p.remove(i);
    }
    p.is_empty()
}

impl AttrIndex {
    fn add_value(&mut self, id: u32, nv: Cow<'_, str>) {
        match self.values.get_mut(nv.as_ref()) {
            Some(p) => post(p, id),
            None => {
                self.text += usize::from(as_number(&nv).is_none());
                self.values.insert(nv.into_owned(), vec![id]);
            }
        }
    }

    fn drop_value(&mut self, id: u32, nv: &str) {
        if self.values.get_mut(nv).is_some_and(|p| unpost(p, id)) {
            self.values.remove(nv);
            self.text -= usize::from(as_number(nv).is_none());
        }
    }

    fn add_number(&mut self, id: u32, x: Num) {
        post(self.numbers.entry(x).or_default(), id);
    }

    fn drop_number(&mut self, id: u32, x: Num) {
        if self.numbers.get_mut(&x).is_some_and(|p| unpost(p, id)) {
            self.numbers.remove(&x);
        }
    }

    fn insert(&mut self, id: u32, vals: &[AttrValue]) {
        post(&mut self.present, id);
        for v in vals {
            let nv = norm_value(v.as_str());
            if let Some(x) = as_number(&nv) {
                self.add_number(id, Num::new(x));
            }
            self.add_value(id, nv);
        }
    }

    fn remove(&mut self, id: u32, vals: &[AttrValue]) {
        unpost(&mut self.present, id);
        for v in vals {
            let nv = norm_value(v.as_str());
            if let Some(x) = as_number(&nv) {
                self.drop_number(id, Num::new(x));
            }
            self.drop_value(id, &nv);
        }
    }

    /// Move entry `id` from values `old` to values `new` (both non-empty):
    /// only the postings of values that differ change, and the presence
    /// posting not at all.
    fn replace(&mut self, id: u32, old: &[AttrValue], new: &[AttrValue]) {
        let norms = |vals: &'_ [AttrValue]| -> BTreeSet<String> {
            vals.iter()
                .map(|v| norm_value(v.as_str()).into_owned())
                .collect()
        };
        let nums = |vals: &BTreeSet<String>| -> BTreeSet<Num> {
            vals.iter()
                .filter_map(|v| as_number(v))
                .map(Num::new)
                .collect()
        };
        let (o, n) = (norms(old), norms(new));
        let (ox, nx) = (nums(&o), nums(&n));
        for x in ox.difference(&nx) {
            self.drop_number(id, *x);
        }
        for x in nx.difference(&ox) {
            self.add_number(id, *x);
        }
        for v in o.difference(&n) {
            self.drop_value(id, v);
        }
        for v in n.difference(&o) {
            self.add_value(id, Cow::Borrowed(v));
        }
    }
}

/// One stored entry and its primary key.
#[derive(Debug, Clone)]
struct Slot {
    key: Arc<str>,
    entry: Arc<Entry>,
}

/// An in-memory DIT. Entries are keyed by DN; hierarchy is implicit in the
/// DN structure, so interior "glue" nodes need not exist for descendants to
/// be stored (providers generate subtrees lazily and sparsely).
///
/// See the [module docs](self) for the id layout and how searches use it.
#[derive(Debug, Clone)]
pub struct Dit {
    /// Slot id → entry; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Primary key (normalized DN rendering) → id. Its order is the
    /// output order of every search and iteration.
    by_key: BTreeMap<Arc<str>, u32>,
    /// Parent DN key → sorted ids of its immediate children.
    children: BTreeMap<String, Posting>,
    /// Suffix-major (root-first) rendering of each DN → id.
    suffix: BTreeMap<String, u32>,
    /// Attribute name → its index.
    attrs: BTreeMap<String, AttrIndex>,
    /// Id → position in key order, built by the first search that needs
    /// it; reset whenever a new key arrives.
    rank: OnceLock<Box<[u32]>>,
}

fn key(dn: &Dn) -> String {
    // Matches `Dn`'s `Display` exactly, built with direct pushes — this
    // renders on every insert, remove and lookup.
    let rdns = dn.rdns();
    let cap = rdns
        .iter()
        .map(|r| r.attr().len() + r.value().len() + 3)
        .sum();
    let mut out = String::with_capacity(cap);
    for (i, rdn) in rdns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(rdn.attr());
        out.push('=');
        out.push_str(rdn.value());
    }
    out
}

/// Primary key of the parent, sliced out of an already-rendered key: a
/// rendered DN is by construction `"<rdn>, " + rendered(parent)`. (Like
/// the rendered primary key itself, this assumes RDN values do not embed
/// `", "` — the whole rendered-key scheme is ambiguous otherwise.)
/// A single-RDN key's parent is the root (rendered as the empty key);
/// only the root itself has no parent.
fn parent_of(k: &str) -> Option<&str> {
    if k.is_empty() {
        None
    } else {
        Some(k.split_once(", ").map_or("", |(_, parent)| parent))
    }
}

/// Suffix-major rendering of an already-rendered primary key: its
/// `", "`-separated RDNs reversed and joined with `\x00` (same
/// embedded-separator caveat as [`parent_of`]). Because `\x00` sorts
/// below every character that can appear in an RDN, the keys of a
/// subtree rooted at `d` are exactly those in `[rev_key(d), rev_key(d) +
/// "\x01")`.
fn rev_key(k: &str) -> String {
    let mut out = String::with_capacity(k.len());
    for (i, rdn) in k.rsplit(", ").enumerate() {
        if i > 0 {
            out.push('\u{0}');
        }
        out.push_str(rdn);
    }
    out
}

/// Index value normalisation must mirror the filter evaluator's equality
/// semantics (trimmed, case-insensitive), or the index could produce
/// false negatives. Borrows when the value is already normalized — the
/// common case for machine-generated directory content, and the index
/// builders touch every value of every entry.
fn norm_value(value: &str) -> Cow<'_, str> {
    let t = value.trim();
    if !t.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.to_ascii_lowercase())
    }
}

/// Attribute names are stored lowercase; the evaluator folds the
/// filter's spelling (and does not trim it).
fn norm_attr(attr: &str) -> Cow<'_, str> {
    if attr.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(attr.to_ascii_lowercase())
    } else {
        Cow::Borrowed(attr)
    }
}

/// True if `s` starts or ends with whitespace. The dictionary holds
/// trimmed values, so a substring fragment with whitespace at an edge
/// could match a stored value whose trimmed form it does not match.
fn edge_space(s: &str) -> bool {
    s.starts_with(char::is_whitespace) || s.ends_with(char::is_whitespace)
}

/// A bitset over slot ids.
struct Bits(Vec<u64>);

impl Bits {
    fn of(slots: usize, ids: impl IntoIterator<Item = u32>) -> Bits {
        let mut bits = Bits(vec![0; slots.div_ceil(64)]);
        for id in ids {
            bits.0[id as usize / 64] |= 1 << (id % 64);
        }
        bits
    }

    fn contains(&self, id: u32) -> bool {
        self.0[id as usize / 64] >> (id % 64) & 1 == 1
    }

    fn into_ids(self) -> Vec<u32> {
        let mut out = Vec::new();
        for (w, mut word) in self.0.into_iter().enumerate() {
            while word != 0 {
                out.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        out
    }
}

/// Sort and deduplicate ids. A bitset pass costs a word per 64 slots
/// however few the ids are, a comparison sort `k log k` for `k` ids, so
/// the bitset is taken when there are at least as many ids as it has
/// words.
fn sorted(mut ids: Vec<u32>, slots: usize) -> Vec<u32> {
    if ids.len() >= slots / 64 {
        Bits::of(slots, ids).into_ids()
    } else {
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Intersection of two sorted id lists, by merging them (the planner
/// charges both lists' lengths for it).
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// True when the host has a second core for the bulk builders.
fn parallel() -> bool {
    std::thread::available_parallelism().map_or(1, usize::from) > 1
}

/// `items.into_iter().map(f).collect()`, the two halves on two threads
/// when the host has a second core.
fn map_halves<T: Send, U: Send>(mut items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    if !parallel() {
        return items.into_iter().map(f).collect();
    }
    let hi = items.split_off(items.len() / 2);
    std::thread::scope(|s| {
        let hi = s.spawn(|| hi.into_iter().map(&f).collect::<Vec<_>>());
        let mut out: Vec<U> = items.into_iter().map(&f).collect();
        out.extend(hi.join().expect("bulk key builder panicked"));
        out
    })
}

/// One attribute's values during a bulk build: its name, the ids
/// carrying it, and a (normalized value, id) pair per value.
type Gathered<'a> = (&'a str, Posting, Vec<(Val<'a>, u32)>);

/// A normalized value during a bulk build. It orders as its text does,
/// but compares its first eight bytes packed into an integer first, so
/// sorting reads the text only when two heads tie and one of them is
/// longer than eight bytes (the entries' value strings are scattered
/// over the heap, and most directory values are short).
struct Val<'a> {
    head: u64,
    text: Cow<'a, str>,
}

impl<'a> Val<'a> {
    fn new(text: Cow<'a, str>) -> Val<'a> {
        let mut head = [0; 8];
        let n = text.len().min(8);
        head[..n].copy_from_slice(&text.as_bytes()[..n]);
        Val {
            head: u64::from_be_bytes(head),
            text,
        }
    }
}

impl Ord for Val<'_> {
    fn cmp(&self, other: &Val<'_>) -> Ordering {
        self.head.cmp(&other.head).then_with(|| {
            let (a, b) = (self.text.len(), other.text.len());
            if a <= 8 && b <= 8 {
                // Equal heads: the shorter text is a prefix of the other.
                a.cmp(&b)
            } else {
                self.text.cmp(&other.text)
            }
        })
    }
}

impl PartialOrd for Val<'_> {
    fn partial_cmp(&self, other: &Val<'_>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Val<'_> {
    fn eq(&self, other: &Val<'_>) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Val<'_> {}

/// Gather the attribute values of `slots`, whose ids are their
/// positions, by attribute name.
fn gather_attrs(slots: &[Slot]) -> Vec<Gathered<'_>> {
    let mut by_attr: BTreeMap<&str, Gathered<'_>> = BTreeMap::new();
    for (s, id) in slots.iter().zip(0..) {
        for (attr, vals) in s.entry.attrs() {
            if vals.is_empty() {
                continue;
            }
            let (_, present, values) = by_attr
                .entry(attr)
                .or_insert_with(|| (attr, Vec::new(), Vec::new()));
            present.push(id);
            values.extend(vals.iter().map(|v| (Val::new(norm_value(v.as_str())), id)));
        }
    }
    by_attr.into_values().collect()
}

/// Build one attribute's index from its gathered values. The pairs are
/// sorted once: each run of equal values is then one posting, already
/// sorted because ties order by id, and the runs arrive in dictionary
/// order.
fn index_attr((attr, present, mut values): Gathered<'_>) -> (String, AttrIndex) {
    // Two values of one entry may normalize alike.
    values.sort_unstable();
    values.dedup();
    let mut ix = AttrIndex {
        present,
        ..AttrIndex::default()
    };
    let mut dictionary = Vec::new();
    let mut numbers = Vec::new();
    for run in values.chunk_by(|a, b| a.0 == b.0) {
        let posting: Posting = run.iter().map(|&(_, id)| id).collect();
        let text = &run[0].0.text;
        match as_number(text) {
            Some(x) => numbers.push((Num::new(x), posting.clone())),
            None => ix.text += 1,
        }
        dictionary.push((text.to_string(), posting));
    }
    ix.values = dictionary.into_iter().collect();
    // Distinct spellings of one number ("1", "1.0") share a key.
    numbers.sort_unstable_by_key(|&(x, _)| x);
    ix.numbers = numbers
        .chunk_by_mut(|a, b| a.0 == b.0)
        .map(|run| match run {
            [(x, one)] => (*x, std::mem::take(one)),
            _ => {
                let mut ids: Posting = run.iter().flat_map(|(_, p)| p).copied().collect();
                ids.sort_unstable();
                ids.dedup();
                (run[0].0, ids)
            }
        })
        .collect();
    (attr.to_owned(), ix)
}

/// Candidate ids for a filter, as postings still to be combined. Every
/// plan yields a superset of the filter's matches.
enum Plan<'a> {
    /// The union of these postings, found by examining `walked`
    /// dictionary keys.
    Any {
        postings: Vec<&'a [u32]>,
        walked: usize,
    },
    /// The intersection of these plans.
    All(Vec<Plan<'a>>),
    /// The union of these plans.
    Or(Vec<Plan<'a>>),
}

impl Plan<'_> {
    const EMPTY: Plan<'static> = Plan::Any {
        postings: Vec::new(),
        walked: 0,
    };

    /// Posting ids and dictionary keys touched to materialize the plan.
    fn cost(&self) -> usize {
        match self {
            Plan::Any { postings, walked } => {
                walked + postings.iter().map(|p| p.len()).sum::<usize>()
            }
            Plan::All(ps) | Plan::Or(ps) => ps.iter().map(Plan::cost).sum(),
        }
    }

    /// Upper bound on the number of candidates.
    fn size(&self) -> usize {
        match self {
            Plan::Any { postings, .. } => postings.iter().map(|p| p.len()).sum(),
            Plan::All(ps) => ps.iter().map(Plan::size).min().unwrap_or(0),
            Plan::Or(ps) => ps.iter().map(Plan::size).sum(),
        }
    }
}

/// Append `entry` to `out` (shared when no selection, projected otherwise)
/// if the filter matches. Returns `true` once the size limit is reached.
fn push_if_match(
    out: &mut Vec<Arc<Entry>>,
    entry: &Arc<Entry>,
    filter: &Filter,
    selection: &[String],
    limit: usize,
) -> bool {
    if filter.matches(entry) {
        out.push(if selection.is_empty() {
            Arc::clone(entry)
        } else {
            Arc::new(entry.project(selection))
        });
        if out.len() >= limit {
            return true;
        }
    }
    false
}

impl Default for Dit {
    fn default() -> Dit {
        Dit::new()
    }
}

impl Dit {
    /// An empty tree.
    pub fn new() -> Dit {
        Dit {
            slots: Vec::new(),
            free: Vec::new(),
            by_key: BTreeMap::new(),
            children: BTreeMap::new(),
            suffix: BTreeMap::new(),
            attrs: BTreeMap::new(),
            rank: OnceLock::new(),
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    fn slot(&self, id: u32) -> &Slot {
        self.slots[id as usize]
            .as_ref()
            .expect("indexes hold only live ids")
    }

    fn index_attrs(&mut self, id: u32, entry: &Entry) {
        for (attr, vals) in entry.attrs() {
            if vals.is_empty() {
                continue;
            }
            let ix = match self.attrs.get_mut(attr) {
                Some(ix) => ix,
                None => self.attrs.entry(attr.to_owned()).or_default(),
            };
            ix.insert(id, vals);
        }
    }

    fn unindex_attrs(&mut self, id: u32, entry: &Entry) {
        for (attr, vals) in entry.attrs() {
            let Some(ix) = self.attrs.get_mut(attr) else {
                continue;
            };
            ix.remove(id, vals);
            if ix.present.is_empty() {
                self.attrs.remove(attr);
            }
        }
    }

    /// Re-index entry `id` whose content changed from `old` to `new`,
    /// touching only the attributes whose values differ. A harvest
    /// re-upserts mostly unchanged entries, so this is usually a compare
    /// per attribute.
    fn reindex_attrs(&mut self, id: u32, old: &Entry, new: &Entry) {
        let mut names: Vec<&str> = old.attrs().chain(new.attrs()).map(|(a, _)| a).collect();
        names.sort_unstable();
        names.dedup();
        for attr in names {
            let (was, now) = (old.get(attr), new.get(attr));
            if was == now {
                continue;
            }
            if now.is_empty() {
                let ix = self.attrs.get_mut(attr).expect("indexed attribute");
                ix.remove(id, was);
                if ix.present.is_empty() {
                    self.attrs.remove(attr);
                }
            } else if was.is_empty() {
                self.attrs
                    .entry(attr.to_owned())
                    .or_default()
                    .insert(id, now);
            } else {
                let ix = self.attrs.get_mut(attr).expect("indexed attribute");
                ix.replace(id, was, now);
            }
        }
    }

    /// Remove the entry with id `id` from the slots and every index.
    fn remove_id(&mut self, id: u32) -> Arc<Entry> {
        let Slot { key: k, entry } = self.slots[id as usize]
            .take()
            .expect("indexes hold only live ids");
        self.by_key.remove(&k);
        self.suffix.remove(&rev_key(&k));
        if let Some(pk) = parent_of(&k) {
            if self.children.get_mut(pk).is_some_and(|p| unpost(p, id)) {
                self.children.remove(pk);
            }
        }
        self.unindex_attrs(id, &entry);
        self.free.push(id);
        entry
    }

    /// Install `entry` at `k` (which must equal `key(entry.dn())`),
    /// replacing any previous occupant, and wire up every index.
    fn insert_at(&mut self, k: String, entry: Entry) {
        let entry = Arc::new(entry);
        if let Some(&id) = self.by_key.get(k.as_str()) {
            // Same key, same id: only the attribute postings change.
            let slot = self.slots[id as usize]
                .as_mut()
                .expect("indexes hold only live ids");
            let old = std::mem::replace(&mut slot.entry, Arc::clone(&entry));
            self.reindex_attrs(id, &old, &entry);
            return;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            let id = u32::try_from(self.slots.len()).expect("a DIT holds at most u32::MAX entries");
            self.slots.push(None);
            id
        });
        self.rank = OnceLock::new();
        let k: Arc<str> = Arc::from(k);
        self.suffix.insert(rev_key(&k), id);
        if let Some(pk) = parent_of(&k) {
            match self.children.get_mut(pk) {
                Some(p) => post(p, id),
                None => {
                    self.children.insert(pk.to_owned(), vec![id]);
                }
            }
        }
        self.index_attrs(id, &entry);
        self.by_key.insert(Arc::clone(&k), id);
        self.slots[id as usize] = Some(Slot { key: k, entry });
    }

    /// Insert an entry, failing if one already exists at its DN.
    pub fn add(&mut self, mut entry: Entry) -> Result<()> {
        entry.normalize_naming_attr();
        let k = key(entry.dn());
        if self.by_key.contains_key(k.as_str()) {
            return Err(LdapError::EntryExists(k));
        }
        self.insert_at(k, entry);
        Ok(())
    }

    /// Insert or replace an entry at its DN.
    pub fn upsert(&mut self, mut entry: Entry) {
        entry.normalize_naming_attr();
        let k = key(entry.dn());
        self.insert_at(k, entry);
    }

    /// Build a tree from a batch of entries in one pass.
    ///
    /// Produces the same entries and search answers as `upsert`ing each
    /// entry in order would (later entries win on duplicate DNs), but
    /// assigns ids in key order and assembles each index from sorted runs
    /// instead of paying a tree descent and index fix-up per entry. When
    /// the host has more than one core, the entries are keyed in two
    /// halves on two threads, the structural indexes are built beside the
    /// attribute index, and the attribute index is finished in two halves
    /// on two threads.
    pub fn bulk_load(batch: Vec<Entry>) -> Dit {
        Dit::from_keyed(map_halves(batch, |mut e| {
            e.normalize_naming_attr();
            (key(e.dn()), Arc::new(e))
        }))
    }

    /// [`bulk_load`](Dit::bulk_load) over already-shared entries: handles
    /// that still reference another tree's storage (a federation parent
    /// rebuilding its cache keeps every unaffected child's entries
    /// shared) are indexed without deep-copying attribute data. An entry
    /// missing its naming attribute is normalized copy-on-write.
    pub fn bulk_load_shared(batch: Vec<Arc<Entry>>) -> Dit {
        Dit::from_keyed(map_halves(batch, |mut e| {
            let needs_norm = e
                .dn()
                .rdn()
                .is_some_and(|rdn| !e.get(rdn.attr()).iter().any(|v| v.as_str() == rdn.value()));
            if needs_norm {
                Arc::make_mut(&mut e).normalize_naming_attr();
            }
            (key(e.dn()), e)
        }))
    }

    /// Shared core of the bulk builders: normalized, keyed entries in.
    fn from_keyed(mut keyed: Vec<(String, Arc<Entry>)>) -> Dit {
        // Stable sort + keep-last dedup reproduces upsert's
        // last-writer-wins semantics for duplicate DNs.
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(later, kept);
                true
            } else {
                false
            }
        });
        u32::try_from(keyed.len()).expect("a DIT holds at most u32::MAX entries");
        let slots: Vec<Slot> = keyed
            .into_iter()
            .map(|(k, entry)| Slot {
                key: Arc::from(k),
                entry,
            })
            .collect();

        let build_structure = || {
            let by_key: BTreeMap<Arc<str>, u32> = slots
                .iter()
                .zip(0..)
                .map(|(s, id)| (Arc::clone(&s.key), id))
                .collect();
            let mut suffix: Vec<(String, u32)> = slots
                .iter()
                .zip(0..)
                .map(|(s, id)| (rev_key(&s.key), id))
                .collect();
            // Rendered keys are unique, so an unstable sort is exact; the
            // B-tree builder then finds the run already sorted.
            suffix.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            // Ids arrive ascending, so every child list is built sorted.
            let mut groups: HashMap<&str, Posting> = HashMap::new();
            for (s, id) in slots.iter().zip(0..) {
                if let Some(parent) = parent_of(&s.key) {
                    groups.entry(parent).or_default().push(id);
                }
            }
            let mut children: Vec<(&str, Posting)> = groups.into_iter().collect();
            children.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let children = children.into_iter().map(|(p, ids)| (p.to_owned(), ids));
            (by_key, suffix.into_iter().collect(), children.collect())
        };
        // With a second core, the structural indexes are built on their
        // own thread while this one gathers the attribute values; the
        // attribute indexes are then finished in two halves, split where
        // half the values are, on this thread and one more.
        let ((by_key, suffix, children), attrs) = if parallel() {
            std::thread::scope(|s| {
                let structure = s.spawn(build_structure);
                let mut lo = gather_attrs(&slots);
                let total: usize = lo.iter().map(|g| g.2.len()).sum();
                let mut seen = 0;
                let cut = lo
                    .iter()
                    .position(|g| {
                        seen += g.2.len();
                        seen * 2 >= total
                    })
                    .map_or(0, |i| i + 1);
                let hi = lo.split_off(cut);
                let hi = s.spawn(|| hi.into_iter().map(index_attr).collect::<Vec<_>>());
                let mut attrs: BTreeMap<_, _> = lo.into_iter().map(index_attr).collect();
                attrs.extend(hi.join().expect("attribute index builder panicked"));
                let structure = structure.join().expect("structural index builder panicked");
                (structure, attrs)
            })
        } else {
            let attrs = gather_attrs(&slots).into_iter().map(index_attr).collect();
            (build_structure(), attrs)
        };

        Dit {
            slots: slots.into_iter().map(Some).collect(),
            free: Vec::new(),
            by_key,
            children,
            suffix,
            attrs,
            rank: OnceLock::new(),
        }
    }

    /// Remove the entry at `dn`. Returns it if present.
    pub fn delete(&mut self, dn: &Dn) -> Option<Entry> {
        let id = *self.by_key.get(key(dn).as_str())?;
        let arc = self.remove_id(id);
        Some(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()))
    }

    /// Remove `dn` and every descendant. Returns the number removed.
    ///
    /// The doomed set is a single contiguous range of the suffix-major
    /// index, so entries outside the subtree are never visited.
    pub fn delete_subtree(&mut self, dn: &Dn) -> usize {
        if dn.is_root() {
            let n = self.len();
            *self = Dit::new();
            return n;
        }
        let doomed = self.subtree_ids(&key(dn));
        for &id in &doomed {
            self.remove_id(id);
        }
        doomed.len()
    }

    /// Ids of the subtree rooted at primary key `k` (unsorted).
    fn subtree_ids(&self, k: &str) -> Vec<u32> {
        let prefix = rev_key(k);
        let mut end = prefix.clone();
        end.push('\u{1}');
        self.suffix.range(prefix..end).map(|(_, &id)| id).collect()
    }

    /// Fetch the entry at `dn`.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.get_shared(&key(dn)).map(Arc::as_ref)
    }

    /// Iterate all entries in deterministic (DN string) order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.iter_shared().map(|(_, e)| e.as_ref())
    }

    /// Iterate (primary key, shared handle) pairs in key order. Delta
    /// extraction merge-joins two snapshots with this: `Arc::ptr_eq` on
    /// the handles detects unchanged entries without comparing content.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&str, &Arc<Entry>)> {
        self.by_key
            .iter()
            .map(|(k, &id)| (k.as_ref(), &self.slot(id).entry))
    }

    /// Fetch the shared handle at primary key `k` (a normalized DN
    /// rendering, as yielded by [`iter_shared`](Dit::iter_shared)).
    pub fn get_shared(&self, k: &str) -> Option<&Arc<Entry>> {
        self.by_key.get(k).map(|&id| &self.slot(id).entry)
    }

    /// Candidate plan for `filter`, or `None` when the filter is not
    /// indexable or finding its postings would cost more than `budget`.
    fn plan(&self, filter: &Filter, budget: usize) -> Option<Plan<'_>> {
        match filter {
            Filter::Eq(attr, value) => Some(match self.attr(attr) {
                Some(ix) => Plan::Any {
                    postings: ix
                        .values
                        .get(norm_value(value).as_ref())
                        .map(|p| vec![p.as_slice()])
                        .unwrap_or_default(),
                    walked: 0,
                },
                None => Plan::EMPTY,
            }),
            Filter::Present(attr) => Some(match self.attr(attr) {
                Some(ix) => Plan::Any {
                    postings: vec![ix.present.as_slice()],
                    walked: 0,
                },
                None => Plan::EMPTY,
            }),
            Filter::Ge(attr, value) | Filter::Le(attr, value) => {
                let Some(ix) = self.attr(attr) else {
                    return Some(Plan::EMPTY);
                };
                range_plan(ix, value, matches!(filter, Filter::Ge(..)), budget)
            }
            Filter::Substring {
                attr,
                initial,
                any,
                final_,
            } => {
                let fragments = initial.iter().chain(any).chain(final_);
                if fragments.clone().any(|f| edge_space(f)) {
                    return None;
                }
                let Some(ix) = self.attr(attr) else {
                    return Some(Plan::EMPTY);
                };
                let test = |v: &str| substring_match(v, initial.as_deref(), any, final_.as_deref());
                let prefix = initial.as_deref().unwrap_or("").to_ascii_lowercase();
                let keys = ix
                    .values
                    .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
                    .take_while(|(k, _)| k.starts_with(&prefix));
                collect_postings(keys, test, budget)
            }
            Filter::And(fs) => {
                let mut parts: Vec<Plan<'_>> =
                    fs.iter().filter_map(|f| self.plan(f, budget)).collect();
                parts.sort_by_key(Plan::size);
                let mut parts = parts.into_iter();
                let first = parts.next()?;
                // A further conjunct is worth intersecting only if reading
                // it costs less than dereferencing the candidates it could
                // remove.
                let bound = first.size().saturating_mul(DEREF_COST);
                let mut kept = vec![first];
                kept.extend(parts.filter(|p| p.cost() < bound));
                let plan = if kept.len() == 1 {
                    kept.pop().expect("one plan kept")
                } else {
                    Plan::All(kept)
                };
                (plan.cost() <= budget).then_some(plan)
            }
            Filter::Or(fs) => {
                let parts = fs
                    .iter()
                    .map(|f| self.plan(f, budget))
                    .collect::<Option<Vec<_>>>()?;
                let plan = Plan::Or(parts);
                (plan.cost() <= budget).then_some(plan)
            }
            Filter::Not(_) | Filter::Approx(..) => None,
        }
    }

    fn attr(&self, attr: &str) -> Option<&AttrIndex> {
        self.attrs.get(norm_attr(attr).as_ref())
    }

    /// The candidates of `plan` as sorted, deduplicated ids.
    fn materialize<'a>(&self, plan: &Plan<'a>) -> Cow<'a, [u32]> {
        match plan {
            Plan::Any { postings, .. } => match postings.as_slice() {
                [] => Cow::Borrowed(&[]),
                [p] => Cow::Borrowed(*p),
                many => Cow::Owned(sorted(many.concat(), self.slots.len())),
            },
            Plan::All(parts) => {
                let mut acc = self.materialize(&parts[0]);
                for p in &parts[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc = Cow::Owned(intersect(&acc, &self.materialize(p)));
                }
                acc
            }
            Plan::Or(parts) => {
                let all: Vec<u32> = parts
                    .iter()
                    .flat_map(|p| self.materialize(p).into_owned())
                    .collect();
                Cow::Owned(sorted(all, self.slots.len()))
            }
        }
    }

    /// Sorted candidate ids for `filter` over a scope of `scope` entries,
    /// if reading them, narrowing them to the scope (`narrow` id steps)
    /// and dereferencing the survivors is cheaper than scanning the
    /// scope. Survivors are estimated as the candidates' share of the
    /// tree falling in the scope.
    fn candidates(&self, filter: &Filter, scope: usize, narrow: usize) -> Option<Vec<u32>> {
        let scan = scope.saturating_mul(DEREF_COST);
        let plan = self.plan(filter, scan)?;
        let survivors = plan.size() as f64 * scope as f64 / self.len().max(1) as f64;
        let cost = (plan.cost() + narrow) as f64 + survivors * DEREF_COST as f64;
        (cost < scan as f64).then(|| self.materialize(&plan).into_owned())
    }

    /// Reorder distinct ids into primary-key order.
    fn key_order(&self, mut ids: Vec<u32>) -> Vec<u32> {
        if ids.len() > 1 {
            let rank = self.rank.get_or_init(|| {
                let mut rank = vec![u32::MAX; self.slots.len()];
                for (pos, &id) in (0..).zip(self.by_key.values()) {
                    rank[id as usize] = pos;
                }
                rank.into_boxed_slice()
            });
            ids.sort_unstable_by_key(|&id| rank[id as usize]);
        }
        ids
    }

    /// The entries at `ids`, in order, that match `filter`, up to `limit`.
    fn emit(
        &self,
        ids: impl IntoIterator<Item = u32>,
        filter: &Filter,
        selection: &[String],
        limit: usize,
    ) -> Vec<Arc<Entry>> {
        let mut out = Vec::new();
        for id in ids {
            if push_if_match(&mut out, &self.slot(id).entry, filter, selection, limit) {
                break;
            }
        }
        out
    }

    /// Scoped, filtered search returning shared handles: entries are
    /// reference-counted, so matches with an empty `selection` are
    /// returned without copying any attribute data. This is the query
    /// hot path used by the servers; [`Dit::search`] wraps it for callers
    /// needing owned entries.
    pub fn search_shared(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        selection: &[String],
        size_limit: usize,
    ) -> Vec<Arc<Entry>> {
        let limit = if size_limit == 0 {
            usize::MAX
        } else {
            size_limit
        };
        let ids = match scope {
            Scope::Base => {
                let id = self.by_key.get(key(base).as_str()).copied();
                return self.emit(id, filter, selection, limit);
            }
            Scope::One => {
                let Some(kids) = self.children.get(&key(base)) else {
                    return Vec::new();
                };
                match self.candidates(filter, kids.len(), kids.len()) {
                    Some(cands) => intersect(&cands, kids),
                    None => kids.clone(),
                }
            }
            Scope::Sub if base.is_root() => match self.candidates(filter, self.len(), 0) {
                Some(cands) => cands,
                None => return self.emit(self.by_key.values().copied(), filter, selection, limit),
            },
            Scope::Sub => {
                let scope = self.subtree_ids(&key(base));
                match self.candidates(filter, scope.len(), scope.len()) {
                    Some(mut cands) => {
                        let inside = Bits::of(self.slots.len(), scope);
                        cands.retain(|&id| inside.contains(id));
                        cands
                    }
                    None => scope,
                }
            }
        };
        self.emit(self.key_order(ids), filter, selection, limit)
    }

    /// Scoped, filtered search. Returns matching entries, projected onto
    /// `selection` when non-empty. `size_limit` of 0 means unlimited.
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        selection: &[String],
        size_limit: usize,
    ) -> Vec<Entry> {
        self.search_shared(base, scope, filter, selection, size_limit)
            .into_iter()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
            .collect()
    }

    /// Immediate children of `dn` (by DN structure), via the parent index.
    pub fn children(&self, dn: &Dn) -> Vec<&Entry> {
        let kids = self.children.get(&key(dn)).cloned().unwrap_or_default();
        self.key_order(kids)
            .into_iter()
            .map(|id| self.slot(id).entry.as_ref())
            .collect()
    }

    /// Every stored entry in key order, then every index's content with
    /// ids rendered as primary keys: two trees holding the same entries
    /// must render identically whatever ids they assigned.
    #[cfg(test)]
    pub(crate) fn logical(&self) -> String {
        let keys = |ids: &[u32]| {
            let mut ks: Vec<&str> = ids.iter().map(|&id| &*self.slot(id).key).collect();
            ks.sort_unstable();
            ks.join(" | ")
        };
        let ascending =
            |ids: &[u32]| assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted posting");
        let mut out = String::new();
        for (k, e) in self.iter_shared() {
            assert_eq!(
                *self.slot(self.by_key[k]).key,
                *k,
                "by_key and slots disagree"
            );
            out += &format!("entry {k}: {e:?}\n");
        }
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(live, self.len(), "a live slot is missing from by_key");
        assert_eq!(
            live + self.free.len(),
            self.slots.len(),
            "free list out of step"
        );
        for (parent, ids) in &self.children {
            ascending(ids);
            out += &format!("children {parent:?}: {}\n", keys(ids));
        }
        for (rev, &id) in &self.suffix {
            out += &format!("suffix {rev:?}: {}\n", keys(&[id]));
        }
        for (attr, ix) in &self.attrs {
            ascending(&ix.present);
            out += &format!("present {attr}: {}\n", keys(&ix.present));
            for (v, ids) in &ix.values {
                ascending(ids);
                out += &format!("value {attr}={v:?}: {}\n", keys(ids));
            }
            for (n, ids) in &ix.numbers {
                ascending(ids);
                out += &format!("number {attr}={:?}: {}\n", n.0, keys(ids));
            }
            let text = ix.values.keys().filter(|v| as_number(v).is_none()).count();
            assert_eq!(ix.text, text, "text-value count out of step for {attr}");
        }
        out
    }

    /// Re-home every entry under a new suffix: each stored DN `d` becomes
    /// `d.under(suffix)`. Used when a directory mounts a provider's
    /// namespace inside its own (Figure 5).
    pub fn rebased(&self, suffix: &Dn) -> Dit {
        Dit::bulk_load(
            self.iter()
                .map(|e| {
                    let mut e = e.clone();
                    e.set_dn(e.dn().under(suffix));
                    e
                })
                .collect(),
        )
    }
}

/// Plan for `attr >= value` (`ge`) or `attr <= value`: numeric values
/// compare as numbers when `value` is one, everything else compares
/// lexicographically on the normalized form.
fn range_plan<'a>(ix: &'a AttrIndex, value: &str, ge: bool, budget: usize) -> Option<Plan<'a>> {
    let nv = norm_value(value);
    let bound = if ge {
        (Bound::Included(nv.as_ref()), Bound::Unbounded)
    } else {
        (Bound::Unbounded, Bound::Included(nv.as_ref()))
    };
    let dictionary = ix.values.range::<str, _>(bound);
    let Some(y) = as_number(&nv) else {
        return collect_postings(dictionary, |_| true, budget);
    };
    let y = Num::new(y);
    let numeric: Vec<&[u32]> = if y.0.is_nan() {
        ix.numbers.values().map(Vec::as_slice).collect()
    } else if ge {
        ix.numbers.range(y..).map(|(_, p)| p.as_slice()).collect()
    } else {
        let nan = ix.numbers.get(&Num::new(f64::NAN));
        ix.numbers
            .range(..=y)
            .map(|(_, p)| p.as_slice())
            .chain(nan.map(Vec::as_slice))
            .collect()
    };
    let mut plan = if ix.text == 0 {
        Plan::Any {
            postings: Vec::new(),
            walked: 0,
        }
    } else {
        collect_postings(dictionary, |v| as_number(v).is_none(), budget)?
    };
    if let Plan::Any { postings, walked } = &mut plan {
        *walked += numeric.len();
        postings.extend(numeric);
    }
    (plan.cost() <= budget).then_some(plan)
}

/// Union plan over the dictionary keys in `keys` that pass `test`,
/// abandoned once its cost exceeds `budget`.
fn collect_postings<'a>(
    keys: impl Iterator<Item = (&'a String, &'a Posting)>,
    test: impl Fn(&str) -> bool,
    budget: usize,
) -> Option<Plan<'a>> {
    let mut postings = Vec::new();
    let mut cost = 0usize;
    let mut walked = 0;
    for (k, p) in keys {
        walked += 1;
        cost += 1;
        if test(k) {
            cost += p.len();
            postings.push(p.as_slice());
        }
        if cost > budget {
            return None;
        }
    }
    Some(Plan::Any { postings, walked })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dit {
        let mut dit = Dit::new();
        dit.add(
            Entry::at("hn=hostX")
                .unwrap()
                .with_class("computer")
                .with("system", "mips irix"),
        )
        .unwrap();
        dit.add(
            Entry::at("queue=default, hn=hostX")
                .unwrap()
                .with_class("service")
                .with_class("queue")
                .with("dispatchtype", "immediate"),
        )
        .unwrap();
        dit.add(
            Entry::at("perf=load5, hn=hostX")
                .unwrap()
                .with_class("perf")
                .with_class("loadaverage")
                .with("load5", 3.2f64),
        )
        .unwrap();
        dit.add(
            Entry::at("store=scratch, hn=hostX")
                .unwrap()
                .with_class("storage")
                .with_class("filesystem")
                .with("free", 33515i64),
        )
        .unwrap();
        dit.add(
            Entry::at("hn=hostY")
                .unwrap()
                .with_class("computer")
                .with("system", "linux"),
        )
        .unwrap();
        dit
    }

    fn assert_same_dit(a: &Dit, b: &Dit) {
        assert_eq!(a.logical(), b.logical());
    }

    #[test]
    fn bulk_load_matches_sequential_upsert() {
        let batch = vec![
            Entry::at("hn=hostB").unwrap().with_class("computer"),
            Entry::at("queue=Default, hn=hostB")
                .unwrap()
                .with_class("service")
                .with("dispatchtype", "  Immediate "),
            Entry::at("hn=hostA")
                .unwrap()
                .with_class("computer")
                .with("system", "linux"),
            Entry::at("perf=load5, hn=hostA")
                .unwrap()
                .with_class("perf")
                .with("load5", 1.5f64),
            // Duplicate DN: the later entry must win, as with upsert.
            Entry::at("hn=hostA")
                .unwrap()
                .with_class("computer")
                .with("system", "irix"),
            // A second naming attribute.
            Entry::at("vo=alpha").unwrap().with_class("organization"),
        ];
        let mut sequential = Dit::new();
        for e in batch.clone() {
            sequential.upsert(e);
        }
        let bulk = Dit::bulk_load(batch);
        assert_same_dit(&bulk, &sequential);
        assert_eq!(
            bulk.attrs.keys().map(String::as_str).collect::<Vec<_>>(),
            [
                "dispatchtype",
                "hn",
                "load5",
                "objectclass",
                "perf",
                "queue",
                "system",
                "vo"
            ],
            "every attribute of every entry is indexed"
        );
    }

    #[test]
    fn bulk_load_groups_values_by_their_whole_text() {
        // Values whose first eight bytes tie, shorter values padded with
        // NULs, and spellings that normalize alike.
        let notes = [
            "abcdefgh2",
            "abcdefgh",
            "ab",
            "abcdefgh1",
            "ab\0",
            "abcdefgh",
            " Abcdefgh1",
        ];
        let batch: Vec<Entry> = notes
            .iter()
            .enumerate()
            .map(|(i, n)| Entry::at(&format!("hn=h{i}")).unwrap().with("note", *n))
            .collect();
        let mut sequential = Dit::new();
        for e in batch.clone() {
            sequential.upsert(e);
        }
        let bulk = Dit::bulk_load(batch);
        assert_same_dit(&bulk, &sequential);
        assert_eq!(bulk.attrs["note"].values.len(), 5);
    }

    #[test]
    fn bulk_load_of_empty_batch_is_new() {
        assert_same_dit(&Dit::bulk_load(Vec::new()), &Dit::new());
    }

    #[test]
    fn bulk_load_serves_indexed_searches() {
        let mut batch = Vec::new();
        for i in 0..50 {
            batch.push(
                Entry::at(&format!("hn=host{i}"))
                    .unwrap()
                    .with_class("computer")
                    .with("system", if i % 2 == 0 { "linux" } else { "irix" }),
            );
            batch.push(
                Entry::at(&format!("queue=default, hn=host{i}"))
                    .unwrap()
                    .with_class("service"),
            );
        }
        let dit = Dit::bulk_load(batch);
        assert_eq!(dit.len(), 100);
        let hits = dit.search(
            &Dn::root(),
            Scope::Sub,
            &Filter::parse("(objectclass=service)").unwrap(),
            &[],
            0,
        );
        assert_eq!(hits.len(), 50);
        let one = dit.search(
            &Dn::parse("hn=host7").unwrap(),
            Scope::One,
            &Filter::always(),
            &[],
            0,
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].dn().to_string(), "queue=default, hn=host7");
    }

    #[test]
    fn add_rejects_duplicates() {
        let mut dit = sample();
        let dup = Entry::at("hn=hostX").unwrap().with_class("computer");
        assert!(matches!(dit.add(dup), Err(LdapError::EntryExists(_))));
    }

    #[test]
    fn base_scope_is_lookup() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Base, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn(), &base);
    }

    #[test]
    fn one_scope_lists_children() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::One, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|e| e.dn().parent().as_ref() == Some(&base)));
    }

    #[test]
    fn sub_scope_includes_base_and_descendants() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn root_subtree_sees_everything() {
        let dit = sample();
        let hits = dit.search(&Dn::root(), Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn filter_applies_within_scope() {
        let dit = sample();
        let f = Filter::parse("(objectclass=computer)").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn selection_projects_attributes() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Base, &Filter::always(), &["system".into()], 0);
        assert_eq!(hits[0].attr_count(), 1);
    }

    #[test]
    fn size_limit_truncates() {
        let dit = sample();
        let hits = dit.search(&Dn::root(), Scope::Sub, &Filter::always(), &[], 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn delete_subtree_removes_descendants() {
        let mut dit = sample();
        let n = dit.delete_subtree(&Dn::parse("hn=hostX").unwrap());
        assert_eq!(n, 4);
        assert_eq!(dit.len(), 1);
    }

    #[test]
    fn rebase_moves_namespace() {
        let dit = sample();
        let org = Dn::parse("o=O1").unwrap();
        let rebased = dit.rebased(&org);
        assert_eq!(rebased.len(), dit.len());
        assert!(rebased.get(&Dn::parse("hn=hostX, o=O1").unwrap()).is_some());
        assert!(rebased.get(&Dn::parse("hn=hostX").unwrap()).is_none());
    }

    #[test]
    fn naming_attr_added_on_insert() {
        let dit = sample();
        let e = dit.get(&Dn::parse("hn=hostX").unwrap()).unwrap();
        assert_eq!(e.get_str("hn"), Some("hostX"));
    }

    #[test]
    fn subtree_excludes_sibling_with_prefix_name() {
        // "hn=hostXY" must not be mistaken for a descendant of
        // "hn=hostX" by the suffix-major range scan.
        let mut dit = sample();
        dit.add(Entry::at("hn=hostXY").unwrap().with_class("computer"))
            .unwrap();
        let base = Dn::parse("hn=hostX").unwrap();
        // An approximate match is never indexed: this is the scope scan.
        let f = Filter::parse("(system~=mips  irix)").unwrap();
        let hits = dit.search(&base, Scope::Sub, &f, &[], 0);
        assert!(hits.iter().all(|e| e.dn().is_under(&base)));
        let all = dit.search(&base, Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(all.len(), 4, "hostXY is a sibling, not a descendant");
    }

    #[test]
    fn naming_attr_queries_use_equality_index() {
        let dit = sample();
        let f = Filter::parse("(hn=hostY)").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), "hn=hostY");
    }

    #[test]
    fn index_lookup_is_case_and_space_insensitive() {
        let dit = sample();
        let f = Filter::parse("(objectclass=COMPUTER)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
        let f = Filter::Eq("objectclass".into(), "  Computer ".into());
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
    }

    #[test]
    fn and_intersects_candidate_sets() {
        let dit = sample();
        let f = Filter::parse("(&(objectclass=computer)(hn=hostX))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), "hn=hostX");
    }

    #[test]
    fn or_unions_candidate_sets() {
        let dit = sample();
        let f = Filter::parse("(|(hn=hostX)(hn=hostY))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn or_with_unindexable_branch_still_correct() {
        let dit = sample();
        // The approximate branch is not indexable, so the whole Or must
        // fall back to a scan rather than return only index hits.
        let f = Filter::parse("(|(hn=hostY)(system~=MIPS irix))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_shared_avoids_copies_without_selection() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let shared = dit.search_shared(&base, Scope::Base, &Filter::always(), &[], 0);
        let stored = dit.get(&base).unwrap();
        assert!(std::ptr::eq(shared[0].as_ref(), stored));
    }

    #[test]
    fn upsert_and_delete_keep_indexes_consistent() {
        let mut dit = sample();
        // Re-class hostY: old class must leave the index, new one enter.
        dit.upsert(Entry::at("hn=hostY").unwrap().with_class("storage"));
        let f = Filter::parse("(objectclass=computer)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 1);
        let f = Filter::parse("(objectclass=storage)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
        // Delete drops the entry from every index.
        dit.delete(&Dn::parse("hn=hostY").unwrap());
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 1);
        let one = dit.search(&Dn::root(), Scope::One, &Filter::always(), &[], 0);
        assert_eq!(one.len(), 1, "parent index updated on delete");
    }

    #[test]
    fn children_uses_parent_index() {
        let dit = sample();
        let kids = dit.children(&Dn::parse("hn=hostX").unwrap());
        assert_eq!(kids.len(), 3);
        let none = dit.children(&Dn::parse("hn=absent").unwrap());
        assert!(none.is_empty());
        let top = dit.children(&Dn::root());
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn rebased_tree_answers_indexed_queries() {
        let dit = sample();
        let rebased = dit.rebased(&Dn::parse("o=O1").unwrap());
        let f = Filter::parse("(objectclass=computer)").unwrap();
        let hits = rebased.search(&Dn::parse("o=O1").unwrap(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
        let one = rebased.search(
            &Dn::parse("hn=hostX, o=O1").unwrap(),
            Scope::One,
            &Filter::always(),
            &[],
            0,
        );
        assert_eq!(one.len(), 3);
    }

    /// 20 orgs x 50 hosts, each host naming its org in `site`.
    fn orgs() -> Dit {
        let mut batch = Vec::new();
        for o in 0..20 {
            for h in 0..50 {
                batch.push(
                    Entry::at(&format!("hn=h{h}, o=O{o}"))
                        .unwrap()
                        .with_class("computer")
                        .with("site", format!("s{o}"))
                        .with("cpucount", h as i64),
                );
            }
        }
        Dit::bulk_load(batch)
    }

    #[test]
    fn planner_reads_postings_only_when_cheaper_than_the_scope() {
        let dit = orgs();
        let plan = |f: &str, scope: usize| {
            dit.candidates(&Filter::parse(f).unwrap(), scope, scope)
                .map(|ids| ids.len())
        };
        // One org's hosts out of 1000 entries: a 20-id posting beats
        // scanning the whole tree, not a 3-entry scope.
        assert_eq!(plan("(site=s3)", 1000), Some(50));
        assert_eq!(plan("(site=s3)", 3), None);
        // Match-everything postings never beat the scope they cover.
        assert_eq!(plan("(objectclass=*)", 1000), None);
        assert_eq!(plan("(cpucount>=0)", 50), None);
        // A narrow numeric range, a conjunction keeping only its cheap
        // conjunct, and an Or over indexable branches.
        assert_eq!(plan("(cpucount>=48)", 1000), Some(40));
        assert_eq!(plan("(&(site=s3)(objectclass=computer))", 1000), Some(50));
        assert_eq!(plan("(|(site=s3)(site=s4))", 1000), Some(100));
        // An approximate branch makes an Or unindexable.
        assert_eq!(plan("(|(site=s3)(site~=s4))", 1000), None);
    }

    #[test]
    fn out_of_order_inserts_still_answer_in_key_order() {
        let mut dit = Dit::new();
        for h in ["hn=c", "hn=a", "hn=d", "hn=b"] {
            dit.upsert(Entry::at(h).unwrap().with_class("computer"));
        }
        // A freed slot is reused by the next new key.
        dit.delete(&Dn::parse("hn=d").unwrap());
        dit.upsert(Entry::at("hn=aa").unwrap().with_class("computer"));
        assert_eq!(dit.slots.len(), 4);
        let f = Filter::parse("(objectclass=computer)").unwrap();
        let dns =
            |hits: Vec<Entry>| -> Vec<String> { hits.iter().map(|e| e.dn().to_string()).collect() };
        let want = ["hn=a", "hn=aa", "hn=b", "hn=c"];
        assert_eq!(dns(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0)), want);
        assert_eq!(dns(dit.search(&Dn::root(), Scope::One, &f, &[], 0)), want);
        assert_eq!(
            dns(dit.search(&Dn::root(), Scope::One, &f, &[], 2)),
            want[..2]
        );
        let bulk = Dit::bulk_load(dit.iter().cloned().collect());
        assert_same_dit(&bulk, &dit);
    }
}
