//! Access control: principals, capabilities, per-attribute ACLs and the
//! four provider/directory trust models of §7.
//!
//! "We assume that an information provider may specify, for each piece of
//! information that it maintains, the credentials that must be presented
//! to access that information. These credentials may be identity
//! credentials ... or a capability issued by some authority, in the case
//! of policies based, for example, on group membership."

use crate::cert::{CertAuthority, Credential, Subject, TrustStore};
use crate::keys::Signature;
use gis_ldap::{Dn, Entry};
use std::collections::BTreeSet;

/// Who a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Principal {
    /// Anyone, including unauthenticated requesters.
    Anonymous,
    /// Any successfully authenticated requester.
    Authenticated,
    /// A specific subject (access-control-list entry).
    Subject(String),
    /// Holders of a capability for this group (§7's "policies based ...
    /// on group membership", the Community Authorization Service hook of
    /// §10.2).
    Group(String),
}

/// What a rule grants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// Every attribute.
    All,
    /// Only the named attributes (lowercased).
    Attrs(Vec<String>),
    /// Only that the entry exists: "the directory can only enumerate the
    /// known resources, with no attribute-based indexing possible."
    ExistenceOnly,
}

/// One ACL rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclRule {
    /// Who this grant applies to.
    pub who: Principal,
    /// What it grants.
    pub grant: Grant,
}

/// An access-control list: the union of its rules' grants applies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    /// The rules; an empty list denies everything (including existence).
    pub rules: Vec<AclRule>,
}

/// A requester's proven attributes: the authenticated subject (if any)
/// plus the groups proven via capabilities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Requester {
    /// Authenticated subject, `None` when anonymous.
    pub subject: Option<Subject>,
    /// Groups with verified capabilities.
    pub groups: BTreeSet<String>,
}

impl Requester {
    /// An unauthenticated requester.
    pub fn anonymous() -> Requester {
        Requester::default()
    }

    /// An authenticated requester with no group memberships.
    pub fn subject(name: impl Into<String>) -> Requester {
        Requester {
            subject: Some(name.into()),
            groups: BTreeSet::new(),
        }
    }

    /// Add a proven group (builder style).
    pub fn with_group(mut self, group: impl Into<String>) -> Requester {
        self.groups.insert(group.into());
        self
    }
}

/// The effective visibility of an entry for a requester.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Entry entirely invisible.
    Hidden,
    /// Only the entry's existence (DN) is visible.
    Existence,
    /// Only the named attributes are visible.
    Attrs(BTreeSet<String>),
    /// Everything is visible.
    Full,
}

impl Acl {
    /// ACL placing "no restriction on the information provided" — the
    /// fourth §7 model; "authenticated queries are not required."
    pub fn public() -> Acl {
        Acl {
            rules: vec![AclRule {
                who: Principal::Anonymous,
                grant: Grant::All,
            }],
        }
    }

    /// ACL granting everything to authenticated requesters and nothing to
    /// anonymous ones.
    pub fn authenticated_only() -> Acl {
        Acl {
            rules: vec![AclRule {
                who: Principal::Authenticated,
                grant: Grant::All,
            }],
        }
    }

    /// ACL revealing only existence to everyone — the third §7 model.
    pub fn existence_only() -> Acl {
        Acl {
            rules: vec![AclRule {
                who: Principal::Anonymous,
                grant: Grant::ExistenceOnly,
            }],
        }
    }

    /// Append a rule (builder style).
    pub fn with_rule(mut self, who: Principal, grant: Grant) -> Acl {
        self.rules.push(AclRule { who, grant });
        self
    }

    fn principal_matches(who: &Principal, req: &Requester) -> bool {
        match who {
            Principal::Anonymous => true,
            Principal::Authenticated => req.subject.is_some(),
            Principal::Subject(s) => req.subject.as_deref() == Some(s.as_str()),
            Principal::Group(g) => req.groups.contains(g),
        }
    }

    /// Compute the union of grants applicable to `req`.
    pub fn visibility(&self, req: &Requester) -> Visibility {
        let mut vis = Visibility::Hidden;
        for rule in &self.rules {
            if !Acl::principal_matches(&rule.who, req) {
                continue;
            }
            vis = match (&vis, &rule.grant) {
                (_, Grant::All) => return Visibility::Full,
                (Visibility::Full, _) => return Visibility::Full,
                (Visibility::Hidden, Grant::ExistenceOnly) => Visibility::Existence,
                (v, Grant::ExistenceOnly) => v.clone(),
                (Visibility::Attrs(prev), Grant::Attrs(more)) => {
                    let mut set = prev.clone();
                    set.extend(more.iter().map(|a| a.to_ascii_lowercase()));
                    Visibility::Attrs(set)
                }
                (_, Grant::Attrs(attrs)) => {
                    Visibility::Attrs(attrs.iter().map(|a| a.to_ascii_lowercase()).collect())
                }
            };
        }
        vis
    }

    /// Apply this ACL to an entry for a requester: `None` when hidden,
    /// otherwise the redacted entry (§10.3: results are filtered before
    /// leaving the server).
    pub fn redact(&self, entry: &Entry, req: &Requester) -> Option<Entry> {
        match self.visibility(req) {
            Visibility::Hidden => None,
            Visibility::Full => Some(entry.clone()),
            Visibility::Existence => {
                // Existence keeps the DN (with its naming attribute) and
                // the object classes: clients may enumerate entries with
                // the conventional `(objectclass=*)` match-everything
                // filter, but no descriptive attribute is revealed.
                let mut e = entry.project(&["objectclass".into()]);
                e.normalize_naming_attr();
                Some(e)
            }
            Visibility::Attrs(attrs) => {
                let selection: Vec<String> = attrs.into_iter().collect();
                let mut projected = entry.project(&selection);
                projected.normalize_naming_attr();
                Some(projected)
            }
        }
    }
}

/// Maps DN subtrees to ACLs; providers attach policy per namespace
/// region. Most-specific (deepest) matching prefix wins.
#[derive(Debug, Clone)]
pub struct PolicyMap {
    /// Fallback for entries matching no rule.
    pub default_acl: Acl,
    rules: Vec<(Dn, Acl)>,
}

impl PolicyMap {
    /// Everything public unless overridden.
    pub fn open() -> PolicyMap {
        PolicyMap {
            default_acl: Acl::public(),
            rules: Vec::new(),
        }
    }

    /// Create with an explicit default.
    pub fn with_default(default_acl: Acl) -> PolicyMap {
        PolicyMap {
            default_acl,
            rules: Vec::new(),
        }
    }

    /// Attach an ACL to the subtree rooted at `base`.
    pub fn set(&mut self, base: Dn, acl: Acl) {
        self.rules.retain(|(d, _)| d != &base);
        self.rules.push((base, acl));
        // Deepest-first so the first match is the most specific.
        self.rules
            .sort_by_key(|(dn, _)| std::cmp::Reverse(dn.depth()));
    }

    /// The ACL governing `dn`.
    pub fn acl_for(&self, dn: &Dn) -> &Acl {
        self.rules
            .iter()
            .find(|(base, _)| dn.is_under(base))
            .map(|(_, acl)| acl)
            .unwrap_or(&self.default_acl)
    }

    /// Redact an entry according to the governing ACL.
    pub fn redact(&self, entry: &Entry, req: &Requester) -> Option<Entry> {
        self.acl_for(entry.dn()).redact(entry, req)
    }

    /// True when `req` sees every entry at or below `base` in full: the
    /// ACL governing `base` and every rule rooted inside its subtree grant
    /// [`Visibility::Full`], so redaction would change nothing there.
    pub fn full_under(&self, base: &Dn, req: &Requester) -> bool {
        let full = |acl: &Acl| acl.visibility(req) == Visibility::Full;
        full(self.acl_for(base))
            && self
                .rules
                .iter()
                .all(|(root, acl)| !root.is_under(base) || full(acl))
    }
}

/// A capability: a signed assertion that `holder` belongs to `group`,
/// issued by a community authorization service (§10.2's forthcoming
/// "Globus Community Authorization Service").
#[derive(Debug, Clone)]
pub struct Capability {
    /// The member.
    pub holder: Subject,
    /// The asserted group.
    pub group: String,
    /// Issuing authority's subject name.
    pub issuer: Subject,
    /// Issuer signature over `cap:<holder>:<group>`.
    pub signature: Signature,
}

fn cap_payload(holder: &str, group: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(holder.len() + group.len() + 5);
    out.extend_from_slice(b"cap:");
    out.extend_from_slice(holder.as_bytes());
    out.push(b':');
    out.extend_from_slice(group.as_bytes());
    out
}

/// A community authorization service: issues group-membership
/// capabilities. Internally it is a credential-holding authority whose
/// certificate chains to a community CA.
#[derive(Debug, Clone)]
pub struct CommunityAuthz {
    /// The service's credential (signs capabilities).
    pub credential: Credential,
}

impl CommunityAuthz {
    /// Stand up an authorization service certified by `ca`.
    pub fn new(ca: &CertAuthority, name: &str) -> CommunityAuthz {
        CommunityAuthz {
            credential: ca.issue(name),
        }
    }

    /// Issue a capability asserting `holder ∈ group`.
    pub fn grant(&self, holder: &str, group: &str) -> Capability {
        Capability {
            holder: holder.to_owned(),
            group: group.to_owned(),
            issuer: self.credential.subject().to_owned(),
            signature: self.credential.sign(&cap_payload(holder, group)),
        }
    }
}

/// Verify a capability and, if it is valid, fold the group into the
/// requester. The verifier must know the authorization service's chain
/// (checked against the trust store via the provided CAS credential
/// chain).
pub fn apply_capability(
    trust: &TrustStore,
    cas: &CommunityAuthz,
    cap: &Capability,
    req: &mut Requester,
) -> bool {
    // The requester must already be authenticated as the holder.
    if req.subject.as_deref() != Some(cap.holder.as_str()) {
        return false;
    }
    // The CAS itself must be trusted.
    let Some(cas_subject) = trust.verify_chain(&cas.credential.chain) else {
        return false;
    };
    if cas_subject != cap.issuer {
        return false;
    }
    if !cas
        .credential
        .public_key()
        .verify(&cap_payload(&cap.holder, &cap.group), &cap.signature)
    {
        return false;
    }
    req.groups.insert(cap.group.clone());
    true
}

/// The four provider/aggregate-directory trust models enumerated in §7,
/// used by GIIS caching policy (see `gis-giis`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustModel {
    /// "The provider(s) trusts the directory ... which it trusts to apply
    /// its policy on its behalf": the directory may cache everything.
    TrustedDirectory,
    /// "The information provider(s) limits the information that is
    /// available to an aggregate directory": the directory caches a
    /// subset; restricted attributes require a second, re-authenticated
    /// query to the provider.
    AttributeRestricted,
    /// "The information provider makes no information known other than
    /// its existence."
    ExistenceOnly,
    /// "No restriction on the information provided."
    Open,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_entry() -> Entry {
        Entry::at("hn=hostX")
            .unwrap()
            .with_class("computer")
            .with("system", "linux")
            .with("load5", 0.7f64)
    }

    #[test]
    fn public_acl_shows_all_to_anonymous() {
        let acl = Acl::public();
        let e = acl.redact(&host_entry(), &Requester::anonymous()).unwrap();
        assert_eq!(e, host_entry());
    }

    #[test]
    fn authenticated_only_hides_from_anonymous() {
        let acl = Acl::authenticated_only();
        assert!(acl.redact(&host_entry(), &Requester::anonymous()).is_none());
        let e = acl
            .redact(&host_entry(), &Requester::subject("/CN=alice"))
            .unwrap();
        assert_eq!(e, host_entry());
    }

    #[test]
    fn existence_only_reveals_dn() {
        let acl = Acl::existence_only();
        let e = acl.redact(&host_entry(), &Requester::anonymous()).unwrap();
        assert_eq!(e.dn(), host_entry().dn());
        assert!(!e.has("system"));
        assert!(!e.has("load5"));
    }

    #[test]
    fn attribute_restriction_projects() {
        // "provider policy may make operating system type known ... but
        // demand that load averages can only be given to specific users."
        let acl = Acl::default()
            .with_rule(Principal::Anonymous, Grant::Attrs(vec!["system".into()]))
            .with_rule(
                Principal::Subject("/CN=alice".into()),
                Grant::Attrs(vec!["load5".into()]),
            );
        let anon = acl.redact(&host_entry(), &Requester::anonymous()).unwrap();
        assert!(anon.has("system"));
        assert!(!anon.has("load5"));
        let alice = acl
            .redact(&host_entry(), &Requester::subject("/CN=alice"))
            .unwrap();
        assert!(alice.has("system"), "grants union");
        assert!(alice.has("load5"));
    }

    #[test]
    fn group_rule_requires_capability() {
        let acl = Acl::default().with_rule(Principal::Group("vo-a".into()), Grant::All);
        let plain = Requester::subject("/CN=bob");
        assert!(acl.redact(&host_entry(), &plain).is_none());
        let member = Requester::subject("/CN=bob").with_group("vo-a");
        assert!(acl.redact(&host_entry(), &member).is_some());
    }

    #[test]
    fn empty_acl_denies_everything() {
        let acl = Acl::default();
        assert_eq!(acl.visibility(&Requester::anonymous()), Visibility::Hidden);
        assert!(acl
            .redact(&host_entry(), &Requester::subject("/CN=root"))
            .is_none());
    }

    #[test]
    fn visibility_union_escalates() {
        let acl = Acl::default()
            .with_rule(Principal::Anonymous, Grant::ExistenceOnly)
            .with_rule(
                Principal::Authenticated,
                Grant::Attrs(vec!["system".into()]),
            )
            .with_rule(Principal::Subject("/CN=admin".into()), Grant::All);
        assert_eq!(
            acl.visibility(&Requester::anonymous()),
            Visibility::Existence
        );
        match acl.visibility(&Requester::subject("/CN=user")) {
            Visibility::Attrs(attrs) => assert!(attrs.contains("system")),
            v => panic!("expected attrs, got {v:?}"),
        }
        assert_eq!(
            acl.visibility(&Requester::subject("/CN=admin")),
            Visibility::Full
        );
    }

    #[test]
    fn policy_map_most_specific_wins() {
        let mut map = PolicyMap::open();
        map.set(Dn::parse("o=O1").unwrap(), Acl::authenticated_only());
        map.set(Dn::parse("hn=hostX, o=O1").unwrap(), Acl::existence_only());
        let anon = Requester::anonymous();
        // Deepest rule governs the host subtree.
        let host = Entry::at("perf=load5, hn=hostX, o=O1")
            .unwrap()
            .with("load5", 1.0f64);
        let redacted = map.redact(&host, &anon).unwrap();
        assert!(!redacted.has("load5"));
        // Sibling host inherits the org-wide authenticated-only rule.
        let other = Entry::at("hn=hostY, o=O1").unwrap().with("x", "1");
        assert!(map.redact(&other, &anon).is_none());
        // Outside o=O1, the default (open) applies.
        let outside = Entry::at("hn=hostZ, o=O2").unwrap().with("x", "1");
        assert!(map.redact(&outside, &anon).unwrap().has("x"));
    }

    #[test]
    fn full_under_sees_rules_inside_the_subtree() {
        let mut map = PolicyMap::open();
        map.set(Dn::parse("hn=hostX, o=O1").unwrap(), Acl::existence_only());
        let anon = Requester::anonymous();
        assert!(map.full_under(&Dn::parse("o=O2").unwrap(), &anon));
        assert!(!map.full_under(&Dn::parse("o=O1").unwrap(), &anon));
        assert!(!map.full_under(&Dn::root(), &anon));
        assert!(!map.full_under(&Dn::parse("perf=load, hn=hostX, o=O1").unwrap(), &anon));
        map.set(Dn::parse("o=O1").unwrap(), Acl::authenticated_only());
        assert!(!map.full_under(&Dn::parse("hn=hostY, o=O1").unwrap(), &anon));
        let user = Requester::subject("/CN=user");
        assert!(map.full_under(&Dn::parse("hn=hostY, o=O1").unwrap(), &user));
    }

    #[test]
    fn capability_flow() {
        let ca = CertAuthority::new("/O=Grid/CN=CA", 5);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let cas = CommunityAuthz::new(&ca, "/O=Grid/CN=cas");
        let cap = cas.grant("/CN=alice", "vo-a");

        let mut alice = Requester::subject("/CN=alice");
        assert!(apply_capability(&trust, &cas, &cap, &mut alice));
        assert!(alice.groups.contains("vo-a"));

        // Wrong holder cannot use alice's capability.
        let mut bob = Requester::subject("/CN=bob");
        assert!(!apply_capability(&trust, &cas, &cap, &mut bob));
        assert!(bob.groups.is_empty());

        // A CAS from an untrusted CA is rejected.
        let rogue_ca = CertAuthority::new("/O=Rogue/CN=CA", 6);
        let rogue_cas = CommunityAuthz::new(&rogue_ca, "/O=Grid/CN=cas");
        let rogue_cap = rogue_cas.grant("/CN=alice", "vo-a");
        let mut alice2 = Requester::subject("/CN=alice");
        assert!(!apply_capability(
            &trust,
            &rogue_cas,
            &rogue_cap,
            &mut alice2
        ));
    }

    #[test]
    fn tampered_capability_rejected() {
        let ca = CertAuthority::new("/O=Grid/CN=CA", 5);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let cas = CommunityAuthz::new(&ca, "/O=Grid/CN=cas");
        let mut cap = cas.grant("/CN=alice", "vo-a");
        cap.group = "vo-admin".into(); // escalate the asserted group
        let mut alice = Requester::subject("/CN=alice");
        assert!(!apply_capability(&trust, &cas, &cap, &mut alice));
    }
}
