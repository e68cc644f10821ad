//! LDAP search filters (RFC 2254).
//!
//! GRIP adopts the LDAP query language: "a filter can be used in all cases
//! to specify a set of criteria to be matched" (§4.1). This module provides
//! the string grammar parser, a printer that round-trips, and an evaluator
//! over [`Entry`].
//!
//! Matching semantics follow MDS usage: attribute names compare
//! case-insensitively; ordering comparisons (`>=`, `<=`) are numeric when
//! both sides parse as numbers and case-insensitive lexicographic
//! otherwise; equality is case-insensitive; `~=` additionally normalises
//! whitespace.

use crate::entry::Entry;
use crate::error::{LdapError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A parsed search filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Filter {
    /// `(&(f1)(f2)...)` — all subfilters match. `(&)` is absolute true.
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — any subfilter matches. `(|)` is absolute false.
    Or(Vec<Filter>),
    /// `(!(f))` — subfilter does not match.
    Not(Box<Filter>),
    /// `(attr=value)` — equality.
    Eq(String, String),
    /// `(attr>=value)` — ordering.
    Ge(String, String),
    /// `(attr<=value)` — ordering.
    Le(String, String),
    /// `(attr=*)` — attribute present.
    Present(String),
    /// `(attr~=value)` — approximate match.
    Approx(String, String),
    /// `(attr=init*any*...*fin)` — substring match.
    Substring {
        /// Attribute name.
        attr: String,
        /// Required prefix, if any.
        initial: Option<String>,
        /// Required interior fragments, in order.
        any: Vec<String>,
        /// Required suffix, if any.
        final_: Option<String>,
    },
}

impl Filter {
    /// The filter matching every entry.
    pub fn always() -> Filter {
        Filter::Present("objectclass".into())
    }

    /// Convenience equality filter.
    pub fn eq(attr: &str, value: &str) -> Filter {
        Filter::Eq(attr.to_ascii_lowercase(), value.to_owned())
    }

    /// Convenience presence filter.
    pub fn present(attr: &str) -> Filter {
        Filter::Present(attr.to_ascii_lowercase())
    }

    /// Parse an RFC 2254 filter string, e.g.
    /// `(&(objectclass=computer)(load5<=1.0))`.
    pub fn parse(s: &str) -> Result<Filter> {
        let mut p = Parser {
            src: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let f = p.filter()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(LdapError::InvalidFilter(format!(
                "trailing input at byte {} in {s:?}",
                p.pos
            )));
        }
        Ok(f)
    }

    /// Evaluate this filter against an entry.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
            Filter::Eq(attr, value) => entry.get(attr).iter().any(|v| values_eq(v.as_str(), value)),
            Filter::Ge(attr, value) => entry
                .get(attr)
                .iter()
                .any(|v| values_cmp(v.as_str(), value) >= std::cmp::Ordering::Equal),
            Filter::Le(attr, value) => entry
                .get(attr)
                .iter()
                .any(|v| values_cmp(v.as_str(), value) <= std::cmp::Ordering::Equal),
            Filter::Present(attr) => entry.has(attr),
            Filter::Approx(attr, value) => {
                entry.get(attr).iter().any(|v| approx_eq(v.as_str(), value))
            }
            Filter::Substring {
                attr,
                initial,
                any,
                final_,
            } => entry
                .get(attr)
                .iter()
                .any(|v| substring_match(v.as_str(), initial.as_deref(), any, final_.as_deref())),
        }
    }

    /// The set of attribute names this filter inspects (lowercased,
    /// deduplicated). Used by GRIS to prune providers whose namespace
    /// cannot satisfy the query.
    pub fn attributes(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<String>) {
        match self {
            Filter::And(fs) | Filter::Or(fs) => {
                for f in fs {
                    f.collect_attrs(out);
                }
            }
            Filter::Not(f) => f.collect_attrs(out),
            Filter::Eq(a, _)
            | Filter::Ge(a, _)
            | Filter::Le(a, _)
            | Filter::Present(a)
            | Filter::Approx(a, _)
            | Filter::Substring { attr: a, .. } => out.push(a.to_ascii_lowercase()),
        }
    }
}

impl FromStr for Filter {
    type Err = LdapError;
    fn from_str(s: &str) -> Result<Filter> {
        Filter::parse(s)
    }
}

/// Case-insensitive equality with whitespace trimmed.
fn values_eq(a: &str, b: &str) -> bool {
    a.trim().eq_ignore_ascii_case(b.trim())
}

/// The number a value denotes for ordering comparisons, if it parses as
/// one. The DIT's ordered numeric postings key values by exactly this.
pub(crate) fn as_number(value: &str) -> Option<f64> {
    value.trim().parse().ok()
}

/// Numeric comparison when both parse as f64, case-insensitive
/// lexicographic otherwise. Byte-wise over folded bytes, so no
/// intermediate lowercased strings are built (filters run once per
/// candidate entry on the query hot path).
fn values_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    if let (Some(x), Some(y)) = (as_number(a), as_number(b)) {
        return x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
    }
    let a = a.trim().as_bytes();
    let b = b.trim().as_bytes();
    for (x, y) in a.iter().zip(b.iter()) {
        match x.to_ascii_lowercase().cmp(&y.to_ascii_lowercase()) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Approximate match: case-insensitive with interior whitespace collapsed.
/// Compares whitespace-split token streams in place instead of joining
/// them into normalized strings.
fn approx_eq(a: &str, b: &str) -> bool {
    let mut ta = a.split_whitespace();
    let mut tb = b.split_whitespace();
    loop {
        match (ta.next(), tb.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
            _ => return false,
        }
    }
}

/// Case-insensitive `starts_with` over raw bytes.
fn starts_with_ci(hay: &[u8], needle: &[u8]) -> bool {
    hay.len() >= needle.len() && hay[..needle.len()].eq_ignore_ascii_case(needle)
}

/// First case-insensitive occurrence of `needle` in `hay`.
fn find_ci(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    if hay.len() < needle.len() {
        return None;
    }
    (0..=hay.len() - needle.len()).find(|&i| hay[i..i + needle.len()].eq_ignore_ascii_case(needle))
}

/// Case-insensitive substring component matching. Works over byte slices
/// with ASCII case folding (multi-byte UTF-8 sequences are unaffected by
/// ASCII folding, so byte-window comparison is exact) — no lowercased
/// copies of the value or the pattern fragments are allocated.
pub(crate) fn substring_match(
    value: &str,
    initial: Option<&str>,
    any: &[String],
    final_: Option<&str>,
) -> bool {
    let hay = value.as_bytes();
    let mut pos = 0usize;
    if let Some(init) = initial {
        if !starts_with_ci(hay, init.as_bytes()) {
            return false;
        }
        pos = init.len();
    }
    for frag in any {
        match find_ci(&hay[pos..], frag.as_bytes()) {
            Some(idx) => pos += idx + frag.len(),
            None => return false,
        }
    }
    if let Some(fin) = final_ {
        let fin = fin.as_bytes();
        if hay.len() < pos + fin.len() {
            return false;
        }
        if !hay[hay.len() - fin.len()..].eq_ignore_ascii_case(fin) {
            return false;
        }
    }
    true
}

/// Escape a value for embedding in filter string form (RFC 2254 §4).
fn escape_value(s: &str, out: &mut String) {
    for b in s.bytes() {
        match b {
            b'*' => out.push_str("\\2a"),
            b'(' => out.push_str("\\28"),
            b')' => out.push_str("\\29"),
            b'\\' => out.push_str("\\5c"),
            0 => out.push_str("\\00"),
            _ => out.push(b as char),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render(self, &mut s);
        f.write_str(&s)
    }
}

fn render(filter: &Filter, out: &mut String) {
    out.push('(');
    match filter {
        Filter::And(fs) => {
            out.push('&');
            for f in fs {
                render(f, out);
            }
        }
        Filter::Or(fs) => {
            out.push('|');
            for f in fs {
                render(f, out);
            }
        }
        Filter::Not(f) => {
            out.push('!');
            render(f, out);
        }
        Filter::Eq(a, v) => {
            out.push_str(a);
            out.push('=');
            escape_value(v, out);
        }
        Filter::Ge(a, v) => {
            out.push_str(a);
            out.push_str(">=");
            escape_value(v, out);
        }
        Filter::Le(a, v) => {
            out.push_str(a);
            out.push_str("<=");
            escape_value(v, out);
        }
        Filter::Present(a) => {
            out.push_str(a);
            out.push_str("=*");
        }
        Filter::Approx(a, v) => {
            out.push_str(a);
            out.push_str("~=");
            escape_value(v, out);
        }
        Filter::Substring {
            attr,
            initial,
            any,
            final_,
        } => {
            out.push_str(attr);
            out.push('=');
            if let Some(init) = initial {
                escape_value(init, out);
            }
            out.push('*');
            for frag in any {
                escape_value(frag, out);
                out.push('*');
            }
            if let Some(fin) = final_ {
                escape_value(fin, out);
            }
        }
    }
    out.push(')');
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> LdapError {
        LdapError::InvalidFilter(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn filter(&mut self) -> Result<Filter> {
        self.expect(b'(')?;
        let f = match self.peek() {
            Some(b'&') => {
                self.bump();
                Filter::And(self.filter_list()?)
            }
            Some(b'|') => {
                self.bump();
                Filter::Or(self.filter_list()?)
            }
            Some(b'!') => {
                self.bump();
                Filter::Not(Box::new(self.filter()?))
            }
            Some(_) => self.item()?,
            None => return Err(self.err("unexpected end of input")),
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>> {
        let mut out = Vec::new();
        while self.peek() == Some(b'(') {
            out.push(self.filter()?);
        }
        Ok(out)
    }

    fn attr(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected attribute name"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("attr bytes are ascii")
            .to_ascii_lowercase())
    }

    /// Parse a value terminated by `)` or `*`, handling `\xx` escapes.
    fn value_fragment(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated value")),
                Some(b')') | Some(b'*') => break,
                Some(b'(') => return Err(self.err("unescaped '(' in value")),
                Some(b'\\') => {
                    self.bump();
                    let hi = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    let lo = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    let hex = [hi, lo];
                    let hex = std::str::from_utf8(&hex).map_err(|_| self.err("bad escape"))?;
                    let byte =
                        u8::from_str_radix(hex, 16).map_err(|_| self.err("bad hex escape"))?;
                    out.push(byte as char);
                }
                Some(b) => {
                    self.bump();
                    out.push(b as char);
                }
            }
        }
        Ok(out)
    }

    fn item(&mut self) -> Result<Filter> {
        let attr = self.attr()?;
        match self.peek() {
            Some(b'=') => {
                self.bump();
                self.eq_like(attr)
            }
            Some(b'>') => {
                self.bump();
                self.expect(b'=')?;
                Ok(Filter::Ge(attr, self.value_fragment()?))
            }
            Some(b'<') => {
                self.bump();
                self.expect(b'=')?;
                Ok(Filter::Le(attr, self.value_fragment()?))
            }
            Some(b'~') => {
                self.bump();
                self.expect(b'=')?;
                Ok(Filter::Approx(attr, self.value_fragment()?))
            }
            _ => Err(self.err("expected comparison operator")),
        }
    }

    /// After `attr=`: plain equality, presence (`*)`), or substring.
    fn eq_like(&mut self, attr: String) -> Result<Filter> {
        let first = self.value_fragment()?;
        if self.peek() != Some(b'*') {
            if first.is_empty() {
                return Err(self.err("empty value in equality"));
            }
            return Ok(Filter::Eq(attr, first));
        }
        // At least one '*': presence or substring.
        self.bump(); // consume '*'
        let mut fragments = Vec::new();
        loop {
            let frag = self.value_fragment()?;
            fragments.push(frag);
            if self.peek() == Some(b'*') {
                self.bump();
            } else {
                break;
            }
        }
        // fragments now holds [after-first-star, ..., final]; `first` is
        // the initial component (may be empty).
        let final_frag = fragments.pop().expect("at least one fragment");
        if first.is_empty() && fragments.is_empty() && final_frag.is_empty() {
            return Ok(Filter::Present(attr));
        }
        let any: Vec<String> = fragments.into_iter().filter(|f| !f.is_empty()).collect();
        Ok(Filter::Substring {
            attr,
            initial: if first.is_empty() { None } else { Some(first) },
            any,
            final_: if final_frag.is_empty() {
                None
            } else {
                Some(final_frag)
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry::at("hn=hostX")
            .unwrap()
            .with_class("computer")
            .with("system", "mips irix")
            .with("load5", 3.2f64)
            .with("cpucount", 4i64)
            .with("freemem", 512i64)
    }

    #[test]
    fn parse_simple_eq() {
        let f = Filter::parse("(objectclass=computer)").unwrap();
        assert_eq!(f, Filter::Eq("objectclass".into(), "computer".into()));
        assert!(f.matches(&entry()));
    }

    #[test]
    fn parse_boolean_combinators() {
        let f = Filter::parse("(&(objectclass=computer)(|(cpucount>=8)(load5<=4)))").unwrap();
        assert!(f.matches(&entry()));
        let f2 = Filter::parse("(&(objectclass=computer)(cpucount>=8))").unwrap();
        assert!(!f2.matches(&entry()));
        let f3 = Filter::parse("(!(objectclass=computer))").unwrap();
        assert!(!f3.matches(&entry()));
    }

    #[test]
    fn numeric_ordering_not_lexicographic() {
        let e = entry(); // load5 = 3.2
        assert!(Filter::parse("(load5>=3)").unwrap().matches(&e));
        assert!(Filter::parse("(load5<=10)").unwrap().matches(&e));
        // Lexicographically "10" < "3.2"; numerically it is not.
        assert!(!Filter::parse("(load5>=10)").unwrap().matches(&e));
    }

    #[test]
    fn string_ordering_falls_back_to_lexicographic() {
        let e = entry();
        assert!(Filter::parse("(system>=mips)").unwrap().matches(&e));
        assert!(!Filter::parse("(system<=abc)").unwrap().matches(&e));
    }

    #[test]
    fn presence() {
        let e = entry();
        assert!(Filter::parse("(load5=*)").unwrap().matches(&e));
        assert!(!Filter::parse("(missing=*)").unwrap().matches(&e));
    }

    #[test]
    fn substring_forms() {
        let e = entry(); // system = "mips irix"
        assert!(Filter::parse("(system=mips*)").unwrap().matches(&e));
        assert!(Filter::parse("(system=*irix)").unwrap().matches(&e));
        assert!(Filter::parse("(system=*ips*ri*)").unwrap().matches(&e));
        assert!(Filter::parse("(system=mips*irix)").unwrap().matches(&e));
        assert!(!Filter::parse("(system=irix*)").unwrap().matches(&e));
        assert!(!Filter::parse("(system=*linux*)").unwrap().matches(&e));
    }

    #[test]
    fn substring_ordered_fragments() {
        let mut e = Entry::at("hn=h").unwrap();
        e.add("s", "abcdef");
        assert!(Filter::parse("(s=*ab*cd*)").unwrap().matches(&e));
        assert!(!Filter::parse("(s=*cd*ab*)").unwrap().matches(&e));
    }

    #[test]
    fn approx_normalizes_whitespace_and_case() {
        let e = entry();
        assert!(Filter::parse("(system~=MIPS  IRIX)").unwrap().matches(&e));
        assert!(!Filter::parse("(system~=mipsirix)").unwrap().matches(&e));
    }

    #[test]
    fn escapes_roundtrip() {
        let f = Filter::Eq("cn".into(), "a*b(c)d\\e".into());
        let s = f.to_string();
        assert_eq!(s, "(cn=a\\2ab\\28c\\29d\\5ce)");
        assert_eq!(Filter::parse(&s).unwrap(), f);
    }

    #[test]
    fn display_roundtrip_complex() {
        let src = "(&(objectclass=computer)(!(system=*linux*))(|(load5<=1.5)(cpucount>=16)))";
        let f = Filter::parse(src).unwrap();
        let printed = f.to_string();
        assert_eq!(Filter::parse(&printed).unwrap(), f);
        assert_eq!(printed, src);
    }

    #[test]
    fn empty_and_or_semantics() {
        let e = entry();
        assert!(Filter::And(vec![]).matches(&e)); // (&) = true
        assert!(!Filter::Or(vec![]).matches(&e)); // (|) = false
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "(", "()", "(a=b", "a=b", "(a=b))", "(a=)", "(=b)", "(a!b)", "(a=b(c)", "(a=\\zz)",
        ] {
            assert!(Filter::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn multivalued_attr_any_match() {
        let mut e = Entry::at("hn=h").unwrap();
        e.add("member", "alice").add("member", "bob");
        assert!(Filter::parse("(member=bob)").unwrap().matches(&e));
        assert!(!Filter::parse("(member=carol)").unwrap().matches(&e));
    }

    #[test]
    fn attributes_collection() {
        let f = Filter::parse("(&(a=1)(|(b>=2)(!(c=*)))(a~=x))").unwrap();
        assert_eq!(
            f.attributes(),
            vec!["a".to_string(), "b".into(), "c".into()]
        );
    }

    #[test]
    fn always_matches_any_classed_entry() {
        assert!(Filter::always().matches(&entry()));
    }
}
