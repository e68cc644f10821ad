//! Directory entries: typed attribute/value sets named by DNs (Figure 3).
//!
//! An entry is tagged with one or more object classes and carries bindings
//! of values to named attributes. Attribute names are case-insensitive;
//! values are multi-valued ordered lists of strings with typed accessors
//! (integers and floats are stored in their canonical string form, as in
//! LDAP).

use crate::dn::Dn;
use crate::error::{LdapError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Reserved attribute name carrying the entry's object classes.
pub const OBJECT_CLASS: &str = "objectclass";

/// A single attribute value. LDAP values are strings; typed views are
/// provided for the numeric comparisons used by search filters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrValue(String);

impl AttrValue {
    /// Wrap a string value.
    pub fn new(s: impl Into<String>) -> AttrValue {
        AttrValue(s.into())
    }

    /// The raw string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parse as an integer, if the value is a canonical integer.
    pub fn as_i64(&self) -> Option<i64> {
        self.0.trim().parse().ok()
    }

    /// Parse as a float, if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        self.0.trim().parse().ok()
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue(s)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue(v.to_string())
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue(v.to_string())
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue(format!("{v}"))
    }
}

/// A directory entry: a DN plus a multi-valued attribute map.
///
/// The attribute map is shared copy-on-write: cloning an entry (a
/// search result leaving the directory, a projection onto all
/// attributes) copies the DN and bumps a reference count, and the first
/// mutation of a shared map copies it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    dn: Dn,
    /// Attribute name (lowercased) -> values, in insertion order per name.
    attrs: Arc<BTreeMap<String, Vec<AttrValue>>>,
}

impl Entry {
    /// Create an empty entry at `dn`.
    pub fn new(dn: Dn) -> Entry {
        Entry {
            dn,
            attrs: Arc::new(BTreeMap::new()),
        }
    }

    /// Parse the DN and create an empty entry; convenience for literals.
    pub fn at(dn: &str) -> Result<Entry> {
        Ok(Entry::new(Dn::parse(dn)?))
    }

    /// The entry's distinguished name.
    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    /// Rename the entry (used when directories re-home entries into their
    /// own namespace, Figure 5).
    pub fn set_dn(&mut self, dn: Dn) {
        self.dn = dn;
    }

    /// Add one value to an attribute (appending to any existing values,
    /// deduplicating exact repeats).
    pub fn add(&mut self, attr: &str, value: impl Into<AttrValue>) -> &mut Entry {
        let v = value.into();
        let slot = Arc::make_mut(&mut self.attrs)
            .entry(attr.to_ascii_lowercase())
            .or_default();
        if !slot.contains(&v) {
            slot.push(v);
        }
        self
    }

    /// Replace all values of an attribute.
    pub fn put(&mut self, attr: &str, values: Vec<AttrValue>) -> &mut Entry {
        Arc::make_mut(&mut self.attrs).insert(attr.to_ascii_lowercase(), values);
        self
    }

    /// Remove an attribute entirely. Returns the removed values, if any.
    pub fn remove(&mut self, attr: &str) -> Option<Vec<AttrValue>> {
        Arc::make_mut(&mut self.attrs).remove(&attr.to_ascii_lowercase())
    }

    /// Builder-style `add` for fluent construction.
    pub fn with(mut self, attr: &str, value: impl Into<AttrValue>) -> Entry {
        self.add(attr, value);
        self
    }

    /// Tag the entry with an object class (builder style).
    pub fn with_class(self, class: &str) -> Entry {
        self.with(OBJECT_CLASS, class)
    }

    /// All values bound to `attr` (empty slice if absent).
    pub fn get(&self, attr: &str) -> &[AttrValue] {
        // Stored names are lowercase; only allocate the folded copy when
        // the caller's spelling actually needs folding — `get` sits on
        // the filter-evaluation and index-build hot paths.
        let vals = if attr.bytes().any(|b| b.is_ascii_uppercase()) {
            self.attrs.get(&attr.to_ascii_lowercase())
        } else {
            self.attrs.get(attr)
        };
        vals.map(Vec::as_slice).unwrap_or(&[])
    }

    /// First value of `attr` as a string, if present.
    pub fn get_str(&self, attr: &str) -> Option<&str> {
        self.get(attr).first().map(AttrValue::as_str)
    }

    /// First value of `attr` parsed as an integer, if present and numeric.
    pub fn get_i64(&self, attr: &str) -> Option<i64> {
        self.get(attr).first().and_then(AttrValue::as_i64)
    }

    /// First value of `attr` parsed as a float, if present and numeric.
    pub fn get_f64(&self, attr: &str) -> Option<f64> {
        self.get(attr).first().and_then(AttrValue::as_f64)
    }

    /// True if the attribute has at least one value.
    pub fn has(&self, attr: &str) -> bool {
        !self.get(attr).is_empty()
    }

    /// The entry's object classes (lowercase comparison is the caller's
    /// concern; MDS conventionally uses lowercase class names).
    pub fn object_classes(&self) -> impl Iterator<Item = &str> {
        self.get(OBJECT_CLASS).iter().map(AttrValue::as_str)
    }

    /// True if tagged with `class` (case-insensitive).
    pub fn has_class(&self, class: &str) -> bool {
        self.object_classes().any(|c| c.eq_ignore_ascii_case(class))
    }

    /// Iterate `(attribute name, values)` pairs in sorted name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &[AttrValue])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of distinct attribute names.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Project the entry onto a subset of attributes, as GRIP does when a
    /// query requests specific fields ("a subset of attributes associated
    /// with an entity can be retrieved", §4.1). An empty selection returns
    /// the entry unchanged (all attributes).
    pub fn project(&self, selection: &[String]) -> Entry {
        if selection.is_empty() {
            return self.clone();
        }
        let mut attrs = BTreeMap::new();
        for want in selection {
            let key = want.to_ascii_lowercase();
            if let Some(values) = self.attrs.get(&key) {
                attrs.insert(key, values.clone());
            }
        }
        Entry {
            dn: self.dn.clone(),
            attrs: Arc::new(attrs),
        }
    }

    /// Merge another entry's attributes into this one (multi-valued union).
    /// Used by GRIS when several providers contribute to one entity.
    pub fn merge_from(&mut self, other: &Entry) {
        for (name, values) in other.attrs() {
            for v in values {
                self.add(name, v.clone());
            }
        }
    }

    /// Validate that the DN's own RDN is consistent with the attributes:
    /// LDAP requires the naming attribute to appear in the entry. Missing
    /// naming attributes are added rather than rejected (MDS providers
    /// generate entries programmatically).
    pub fn normalize_naming_attr(&mut self) {
        if let Some(rdn) = self.dn.rdn().cloned() {
            let present = self
                .get(rdn.attr())
                .iter()
                .any(|v| v.as_str() == rdn.value());
            if !present {
                self.add(rdn.attr(), rdn.value());
            }
        }
    }

    /// Error helper: schema violation rooted at this entry.
    pub fn schema_err(&self, msg: impl fmt::Display) -> LdapError {
        LdapError::Schema(format!("{}: {msg}", self.dn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_entry() -> Entry {
        Entry::at("hn=hostX")
            .unwrap()
            .with_class("computer")
            .with("system", "mips irix")
            .with("cpucount", 4i64)
            .with("load5", 3.2f64)
    }

    #[test]
    fn attribute_names_case_insensitive() {
        let e = host_entry();
        assert_eq!(e.get_str("SYSTEM"), Some("mips irix"));
        assert_eq!(e.get_str("System"), Some("mips irix"));
    }

    #[test]
    fn typed_accessors() {
        let e = host_entry();
        assert_eq!(e.get_i64("cpucount"), Some(4));
        assert_eq!(e.get_f64("load5"), Some(3.2));
        assert_eq!(e.get_i64("system"), None);
        assert_eq!(e.get_f64("cpucount"), Some(4.0));
    }

    #[test]
    fn object_class_check() {
        let e = host_entry();
        assert!(e.has_class("computer"));
        assert!(e.has_class("Computer"));
        assert!(!e.has_class("storage"));
    }

    #[test]
    fn multi_valued_add_dedups() {
        let mut e = Entry::at("hn=h").unwrap();
        e.add("member", "a").add("member", "b").add("member", "a");
        assert_eq!(e.get("member").len(), 2);
    }

    #[test]
    fn projection_selects_subset() {
        let e = host_entry();
        let p = e.project(&["system".into(), "missing".into()]);
        assert_eq!(p.attr_count(), 1);
        assert_eq!(p.get_str("system"), Some("mips irix"));
        assert_eq!(p.dn(), e.dn());
        // Empty selection means all attributes.
        assert_eq!(e.project(&[]), e);
    }

    #[test]
    fn merge_unions_values() {
        let mut a = Entry::at("hn=h").unwrap().with("x", "1");
        let b = Entry::at("hn=h").unwrap().with("x", "2").with("y", "3");
        a.merge_from(&b);
        assert_eq!(a.get("x").len(), 2);
        assert_eq!(a.get_str("y"), Some("3"));
    }

    #[test]
    fn normalize_adds_naming_attr() {
        let mut e = Entry::at("hn=hostX").unwrap();
        assert!(!e.has("hn"));
        e.normalize_naming_attr();
        assert_eq!(e.get_str("hn"), Some("hostX"));
        // Idempotent.
        e.normalize_naming_attr();
        assert_eq!(e.get("hn").len(), 1);
    }

    #[test]
    fn put_and_remove() {
        let mut e = host_entry();
        e.put("system", vec!["linux".into()]);
        assert_eq!(e.get_str("system"), Some("linux"));
        assert_eq!(e.get("system").len(), 1);
        let removed = e.remove("system").unwrap();
        assert_eq!(removed.len(), 1);
        assert!(!e.has("system"));
        assert!(e.remove("system").is_none());
    }
}
