//! The reply oracle: every reply the load generator receives is checked
//! against an answer the benchmark computed itself, by a naive scan of
//! the entries it generated. A wrong answer is a failure, never a
//! latency sample.

use gis_ldap::{Entry, Scope};
use gis_proto::{result_digest, ResultCode, SearchSpec};

/// One search's terminal result as the client sees it.
pub type Outcome = (ResultCode, Vec<Entry>, Vec<gis_ldap::LdapUrl>);

/// What a correct reply to one query looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub count: usize,
    pub digest: u64,
}

impl Expect {
    /// The expected answer to `spec` over `entries`: scope and filter
    /// applied entry by entry, no index.
    pub fn scan<'a>(spec: &SearchSpec, entries: impl IntoIterator<Item = &'a Entry>) -> Expect {
        let hits: Vec<Entry> = entries
            .into_iter()
            .filter(|e| in_scope(spec, e) && spec.filter.matches(e))
            .cloned()
            .collect();
        Expect::of(&hits)
    }

    /// The answer that is exactly `entries`.
    pub fn of(entries: &[Entry]) -> Expect {
        Expect {
            count: entries.len(),
            digest: result_digest(entries),
        }
    }
}

fn in_scope(spec: &SearchSpec, e: &Entry) -> bool {
    match spec.scope {
        Scope::Base => e.dn() == &spec.base,
        Scope::One => e.dn().is_child_of(&spec.base),
        Scope::Sub => e.dn().is_under(&spec.base),
    }
}

/// How one reply fared against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// No reply before the deadline.
    Timeout,
    /// A reply whose code is not `Success` (partial, stale, refused...).
    BadCode,
    /// `Success`, but not the expected entries.
    Mismatch,
}

/// Judge one outcome.
pub fn check(outcome: Option<&Outcome>, expect: &Expect) -> Verdict {
    let Some((code, entries, _)) = outcome else {
        return Verdict::Timeout;
    };
    if *code != ResultCode::Success {
        return Verdict::BadCode;
    }
    if entries.len() != expect.count || result_digest(entries) != expect.digest {
        return Verdict::Mismatch;
    }
    Verdict::Ok
}

/// Running counts of verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub timeouts: u64,
    pub bad_code: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Timeout => self.timeouts += 1,
            Verdict::BadCode => self.bad_code += 1,
            Verdict::Mismatch => self.mismatches += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.timeouts += other.timeouts;
        self.bad_code += other.bad_code;
        self.mismatches += other.mismatches;
    }

    /// Timeouts, non-`Success` codes and oracle mismatches.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.bad_code + self.mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ldap::{Dn, Filter};

    fn host(name: &str, cpus: i64) -> Entry {
        Entry::new(Dn::parse(&format!("hn={name}, o=O1")).unwrap())
            .with_class("computer")
            .with("hn", name)
            .with("cpucount", cpus)
    }

    fn entries() -> Vec<Entry> {
        vec![host("a", 2), host("b", 8), host("c", 16)]
    }

    fn spec(filter: &str) -> SearchSpec {
        SearchSpec::subtree(Dn::parse("o=O1").unwrap(), Filter::parse(filter).unwrap())
    }

    #[test]
    fn scan_applies_scope_and_filter() {
        let all = entries();
        let e = Expect::scan(&spec("(cpucount>=8)"), &all);
        assert_eq!(e, Expect::of(&all[1..]));
        let outside = SearchSpec::subtree(Dn::parse("o=O2").unwrap(), Filter::always());
        assert_eq!(Expect::scan(&outside, &all).count, 0);
        let lookup = SearchSpec::lookup(Dn::parse("hn=b, o=O1").unwrap());
        assert_eq!(Expect::scan(&lookup, &all), Expect::of(&all[1..2]));
    }

    #[test]
    fn correct_reply_passes_in_any_order() {
        let all = entries();
        let expect = Expect::scan(&spec("(hn=*)"), &all);
        let mut reversed = all.clone();
        reversed.reverse();
        let outcome = (ResultCode::Success, reversed, Vec::new());
        assert_eq!(check(Some(&outcome), &expect), Verdict::Ok);
    }

    #[test]
    fn injected_wrong_reply_counts_as_failure() {
        let all = entries();
        let expect = Expect::scan(&spec("(hn=*)"), &all);
        // Same count, one attribute value altered.
        let mut wrong = all.clone();
        wrong[1] = host("b", 9);
        let outcome = (ResultCode::Success, wrong, Vec::new());
        let mut tally = Tally::default();
        tally.add(check(Some(&outcome), &expect));
        assert_eq!(tally.mismatches, 1);
        assert_eq!(tally.failed(), 1);
        assert_eq!(tally.ok, 0);
        // A missing entry, a partial code and a timeout fail too.
        let short = (ResultCode::Success, all[..2].to_vec(), Vec::new());
        tally.add(check(Some(&short), &expect));
        let partial = (ResultCode::PartialResults, all.clone(), Vec::new());
        tally.add(check(Some(&partial), &expect));
        tally.add(check(None, &expect));
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                ok: 0,
                timeouts: 1,
                bad_code: 1,
                mismatches: 2,
            }
        );
    }
}
