//! Property-based tests for the LDAP substrate: round-trips and invariants
//! on arbitrary inputs.

use gis_ldap::{Dit, Dn, Entry, Filter, Rdn, Scope, Wire};
use proptest::prelude::*;

/// Attribute types are restricted identifiers. "dn" is excluded because it
/// is reserved in LDIF record syntax.
fn attr_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}".prop_filter("dn is reserved", |s| s != "dn")
}

/// Values: printable, no leading/trailing space (DN parsing trims), and
/// excluding characters with syntactic meaning in DN string form.
fn dn_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.:/][a-zA-Z0-9_.:/ ]{0,10}[a-zA-Z0-9_.:/]|[a-zA-Z0-9_.:/]"
}

/// Arbitrary filter values (escaping must handle anything printable).
fn filter_value() -> impl Strategy<Value = String> {
    "[ -~]{1,12}"
}

fn rdn() -> impl Strategy<Value = Rdn> {
    (attr_name(), dn_value()).prop_map(|(a, v)| Rdn::new(a, v))
}

fn dn(max_depth: usize) -> impl Strategy<Value = Dn> {
    prop::collection::vec(rdn(), 0..=max_depth).prop_map(Dn::from_rdns)
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        (attr_name(), filter_value()).prop_map(|(a, v)| Filter::Eq(a, v)),
        (attr_name(), filter_value()).prop_map(|(a, v)| Filter::Ge(a, v)),
        (attr_name(), filter_value()).prop_map(|(a, v)| Filter::Le(a, v)),
        (attr_name(), filter_value()).prop_map(|(a, v)| Filter::Approx(a, v)),
        attr_name().prop_map(Filter::Present),
        (
            attr_name(),
            prop::option::of(filter_value()),
            prop::collection::vec(filter_value(), 0..3),
            prop::option::of(filter_value())
        )
            // A substring with no components at all is syntactically a
            // presence filter; exclude that degenerate case.
            .prop_filter("substring needs a component", |(_, i, a, f)| {
                i.is_some() || !a.is_empty() || f.is_some()
            })
            .prop_map(|(attr, initial, any, final_)| Filter::Substring {
                attr,
                initial,
                any,
                final_,
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

/// A DN from a root-first path over a tiny alphabet, so random entries
/// form real parent/child/sibling relationships. Level `d` uses naming
/// attribute `l{d}a{a}` and value `v{v}`.
fn path_dn(path: &[(u8, u8)]) -> Dn {
    let rdns: Vec<Rdn> = path
        .iter()
        .enumerate()
        .map(|(depth, (a, v))| Rdn::new(format!("l{depth}a{a}"), format!("v{v}")))
        .rev()
        .collect();
    Dn::from_rdns(rdns)
}

/// Entries arranged in a tree (depth ≤ 5) with object classes from a
/// small alphabet, so scoped and indexed searches hit real structure.
fn tree_entries() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u8..3u8, 0u8..3u8), 0..5),
            "[a-c]",
            "v[0-3]",
        ),
        0..20,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(path, class, extra)| {
                Entry::new(path_dn(&path))
                    .with("objectclass", class)
                    .with("extra", extra)
            })
            .collect()
    })
}

/// Filters over the tree vocabulary: naming attributes, `objectclass`,
/// and the non-indexed `extra` attribute, combined with every operator
/// the evaluator supports (so both index-served and scan-served paths
/// are exercised).
fn tree_filter() -> impl Strategy<Value = Filter> {
    let attr = prop_oneof![
        Just("objectclass".to_string()),
        "l[0-4]a[0-2]".boxed(),
        Just("extra".to_string()),
    ];
    let value = prop_oneof!["v[0-3]".boxed(), "[a-d]".boxed()];
    let leaf = prop_oneof![
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Eq(a, v)),
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Ge(a, v)),
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Approx(a, v)),
        attr.clone().prop_map(Filter::Present),
        (attr, value).prop_map(|(a, v)| Filter::Substring {
            attr: a,
            initial: Some(v),
            any: vec![],
            final_: None,
        }),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

/// Values for the mixed attribute `num`: numbers in several spellings
/// (including `-0`, `nan`, `inf` and padded forms) beside words, so
/// ordering filters meet both numeric and lexicographic comparison.
const MIXED: [&str; 14] = [
    "1", "2.5", "-0", "0", "10", "1e1", "nan", "inf", "-3", " 3 ", "abc", "B", "x y", "10a",
];

/// Values for the text attribute `txt`, with case and padding variety.
const TEXT: [&str; 8] = [
    "linux 2.4",
    "Mips IRIX",
    "solaris 8",
    "  padded ",
    "aix",
    "LINUX",
    "lin",
    "x",
];

/// Substring fragments, including whitespace-edged ones the dictionary
/// cannot serve.
const FRAGMENTS: [&str; 9] = ["lin", "ux", "IR", "a", " ", " 2", "x ", "1", "e"];

/// An entry at a path over the tiny tree alphabet carrying a class and
/// a few `num`/`txt` values (sometimes none).
fn model_entry() -> impl Strategy<Value = Entry> {
    (
        prop::collection::vec((0u8..2u8, 0u8..3u8), 0..4),
        "[a-c]",
        prop::collection::vec(0..MIXED.len(), 0..3),
        prop::collection::vec(0..TEXT.len(), 0..2),
    )
        .prop_map(|(path, class, nums, texts)| {
            let mut e = Entry::new(path_dn(&path)).with("objectclass", class);
            for i in nums {
                e.add("num", MIXED[i]);
            }
            for i in texts {
                e.add("txt", TEXT[i]);
            }
            e
        })
}

/// Filters over the model vocabulary: every indexable form (equality,
/// `>=`/`<=` with numeric and word bounds, presence, substrings with and
/// without an initial part) and the unindexable ones (`~=`, `!`), mixed
/// under `And`/`Or`.
fn model_filter() -> impl Strategy<Value = Filter> {
    let attr = prop_oneof![
        Just("num".to_string()),
        Just("txt".to_string()),
        Just("objectclass".to_string()),
        Just("l0a1".to_string()),
        Just("absent".to_string()),
    ];
    let value = prop_oneof![
        (0..MIXED.len()).prop_map(|i| MIXED[i].to_string()),
        (0..TEXT.len()).prop_map(|i| TEXT[i].to_string()),
        "[a-c]".boxed(),
        "v[0-2]".boxed(),
    ];
    let fragment = || (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string());
    let substring = |attr: BoxedStrategy<String>| {
        (
            attr,
            prop::option::of(fragment()),
            prop::collection::vec(fragment(), 0..2),
            prop::option::of(fragment()),
        )
            .prop_filter("substring needs a component", |(_, i, a, f)| {
                i.is_some() || !a.is_empty() || f.is_some()
            })
            .prop_map(|(attr, initial, any, final_)| Filter::Substring {
                attr,
                initial,
                any,
                final_,
            })
    };
    // Ordering over the mixed attribute and substrings over the text
    // attribute get leaves of their own, so their edge cases come up.
    let mixed = || (0..MIXED.len()).prop_map(|i| MIXED[i].to_string());
    let leaf = prop_oneof![
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Eq(a, v)),
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Ge(a, v)),
        (attr.clone(), value.clone()).prop_map(|(a, v)| Filter::Le(a, v)),
        mixed().prop_map(|v| Filter::Ge("num".into(), v)),
        mixed().prop_map(|v| Filter::Le("num".into(), v)),
        (attr.clone(), value).prop_map(|(a, v)| Filter::Approx(a, v)),
        attr.clone().prop_map(Filter::Present),
        substring(attr.boxed()),
        substring(Just("txt".to_string()).boxed()),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

/// One mutation of the tree under test, mirrored on the model.
#[derive(Debug, Clone)]
enum Op {
    Upsert(Entry),
    Delete(Vec<(u8, u8)>),
    DeleteSubtree(Vec<(u8, u8)>),
    /// Rebuild through `bulk_load_shared` from the current entries
    /// (rotated, so ids come from a fresh order) plus a batch in which
    /// later duplicates win.
    Rebuild(usize, Vec<Entry>),
}

fn model_op() -> impl Strategy<Value = Op> {
    let path = || prop::collection::vec((0u8..2u8, 0u8..3u8), 0..4);
    // Upserts listed thrice: trees grow between deletes and rebuilds.
    prop_oneof![
        model_entry().prop_map(Op::Upsert),
        model_entry().prop_map(Op::Upsert),
        model_entry().prop_map(Op::Upsert),
        path().prop_map(Op::Delete),
        path().prop_map(Op::DeleteSubtree),
        (0usize..8, prop::collection::vec(model_entry(), 0..4))
            .prop_map(|(rot, batch)| Op::Rebuild(rot, batch)),
    ]
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        dn(3),
        prop::collection::vec(
            (attr_name(), prop::collection::vec(filter_value(), 1..3)),
            0..5,
        ),
    )
        .prop_map(|(dn, attrs)| {
            let mut e = Entry::new(dn);
            for (name, values) in attrs {
                for v in values {
                    e.add(&name, v);
                }
            }
            e
        })
}

proptest! {
    #[test]
    fn dn_parse_print_roundtrip(d in dn(5)) {
        let s = d.to_string();
        let back = Dn::parse(&s).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn dn_parent_child_inverse(d in dn(5), r in rdn()) {
        let child = d.child(r);
        prop_assert_eq!(child.parent().unwrap(), d.clone());
        prop_assert!(child.is_strictly_under(&d));
    }

    #[test]
    fn dn_under_transitive(a in dn(2), b in dn(2), c in dn(2)) {
        let ab = a.under(&b);
        let abc = ab.under(&c);
        prop_assert!(ab.is_under(&b));
        prop_assert!(abc.is_under(&c));
        prop_assert!(abc.is_under(&b.under(&c)));
    }

    #[test]
    fn dn_strip_suffix_inverts_under(a in dn(3), b in dn(3)) {
        let joined = a.under(&b);
        prop_assert_eq!(joined.strip_suffix(&b).unwrap(), a.clone());
    }

    #[test]
    fn filter_print_parse_roundtrip(f in arb_filter()) {
        let s = f.to_string();
        let back = Filter::parse(&s)
            .unwrap_or_else(|e| panic!("failed to reparse {s:?}: {e}"));
        prop_assert_eq!(back, f);
    }

    #[test]
    fn filter_not_is_complement(f in arb_filter(), e in arb_entry()) {
        let neg = Filter::Not(Box::new(f.clone()));
        prop_assert_eq!(neg.matches(&e), !f.matches(&e));
    }

    #[test]
    fn filter_and_or_duality(fs in prop::collection::vec(arb_filter(), 0..4), e in arb_entry()) {
        // De Morgan: !(f1 & f2 & ...) == (!f1 | !f2 | ...)
        let and = Filter::And(fs.clone());
        let or_of_nots = Filter::Or(fs.iter().cloned().map(|f| Filter::Not(Box::new(f))).collect());
        prop_assert_eq!(!and.matches(&e), or_of_nots.matches(&e));
    }

    #[test]
    fn entry_wire_roundtrip(e in arb_entry()) {
        let bytes = e.to_wire();
        prop_assert_eq!(Entry::from_wire(&bytes).unwrap(), e);
    }

    #[test]
    fn filter_wire_roundtrip(f in arb_filter()) {
        let bytes = f.to_wire();
        prop_assert_eq!(Filter::from_wire(&bytes).unwrap(), f);
    }

    #[test]
    fn dit_search_scopes_nest(entries in prop::collection::vec(arb_entry(), 0..12), base in dn(2)) {
        let mut dit = Dit::new();
        for e in entries {
            dit.upsert(e);
        }
        let f = Filter::And(vec![]); // absolute true
        let base_hits = dit.search(&base, Scope::Base, &f, &[], 0);
        let one_hits = dit.search(&base, Scope::One, &f, &[], 0);
        let sub_hits = dit.search(&base, Scope::Sub, &f, &[], 0);
        // Base and one-level results are disjoint subsets of subtree results.
        prop_assert!(base_hits.len() <= 1);
        prop_assert!(base_hits.len() + one_hits.len() <= sub_hits.len());
        for e in &base_hits {
            prop_assert!(sub_hits.contains(e));
        }
        for e in &one_hits {
            prop_assert!(sub_hits.contains(e));
            prop_assert!(!base_hits.contains(e));
        }
        // Every subtree hit is under the base.
        for e in &sub_hits {
            prop_assert!(e.dn().is_under(&base));
        }
    }

    #[test]
    fn dit_size_limit_is_prefix(entries in prop::collection::vec(arb_entry(), 0..12), limit in 1usize..6) {
        let mut dit = Dit::new();
        for e in entries {
            dit.upsert(e);
        }
        let f = Filter::And(vec![]);
        let all = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        let limited = dit.search(&Dn::root(), Scope::Sub, &f, &[], limit);
        prop_assert_eq!(limited.len(), all.len().min(limit));
        prop_assert_eq!(&limited[..], &all[..limited.len()]);
    }

    #[test]
    fn class_indexed_search_equals_full_scan(
        entries in prop::collection::vec(arb_entry(), 0..15),
        classes in prop::collection::vec("[a-c]", 0..10),
        probe_class in "[a-d]",
        base in dn(2),
    ) {
        // Tag entries with small-class-alphabet objectclasses so pinned
        // searches sometimes hit, sometimes miss.
        let mut dit = Dit::new();
        let mut tagged = Vec::new();
        for (i, mut e) in entries.into_iter().enumerate() {
            if let Some(c) = classes.get(i % classes.len().max(1)) {
                e.add("objectclass", c.clone());
            }
            dit.upsert(e.clone());
            tagged.push(e);
        }
        let filter = Filter::parse(&format!("(objectclass={probe_class})")).unwrap();
        let indexed = dit.search(&base, Scope::Sub, &filter, &[], 0);
        // Reference: a linear scan using only public evaluation semantics.
        // The DIT normalizes naming attributes on insert, so compare DNs.
        let mut expected: Vec<String> = dit
            .iter()
            .filter(|e| e.dn().is_under(&base) && filter.matches(e))
            .map(|e| e.dn().to_string())
            .collect();
        let mut got: Vec<String> = indexed.iter().map(|e| e.dn().to_string()).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn class_index_survives_updates_and_deletes(
        ops in prop::collection::vec((0u8..3, 0u8..6, "[a-b]"), 1..40)
    ) {
        let mut dit = Dit::new();
        for (op, slot, class) in ops {
            let dn = Dn::parse(&format!("hn=h{slot}")).unwrap();
            match op {
                0 => dit.upsert(Entry::new(dn).with("objectclass", class)),
                1 => {
                    dit.delete(&dn);
                }
                _ => dit.upsert(Entry::new(dn).with("objectclass", "other")),
            }
            // Invariant: pinned searches agree with linear scans after
            // every mutation.
            for probe in ["a", "b", "other", "never"] {
                let filter = Filter::parse(&format!("(objectclass={probe})")).unwrap();
                let indexed: Vec<String> = dit
                    .search(&Dn::root(), Scope::Sub, &filter, &[], 0)
                    .iter()
                    .map(|e| e.dn().to_string())
                    .collect();
                let scanned: Vec<String> = dit
                    .iter()
                    .filter(|e| filter.matches(e))
                    .map(|e| e.dn().to_string())
                    .collect();
                prop_assert_eq!(indexed, scanned);
            }
        }
    }

    #[test]
    fn indexed_search_equals_naive_scan(
        entries in tree_entries(),
        base_path in prop::collection::vec((0u8..3u8, 0u8..3u8), 0..3),
        filter in tree_filter(),
    ) {
        // Oracle: the index-accelerated search must agree, entry for
        // entry and in order, with a naive full scan using only public
        // evaluation semantics — for every scope and for arbitrary
        // filters, including non-indexable Not/Substring/Ge forms.
        let mut dit = Dit::new();
        for e in entries {
            dit.upsert(e);
        }
        let base = path_dn(&base_path);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            let got: Vec<String> = dit
                .search(&base, scope, &filter, &[], 0)
                .iter()
                .map(|e| e.dn().to_string())
                .collect();
            let want: Vec<String> = dit
                .iter()
                .filter(|e| match scope {
                    Scope::Base => e.dn() == &base,
                    Scope::One => e.dn().parent().as_ref() == Some(&base),
                    Scope::Sub => e.dn().is_under(&base),
                })
                .filter(|e| filter.matches(e))
                .map(|e| e.dn().to_string())
                .collect();
            prop_assert_eq!(got, want, "scope {:?} disagreed with naive scan", scope);
        }
    }

    #[test]
    fn tree_indexes_survive_mutation(
        ops in prop::collection::vec(
            (0u8..4u8, prop::collection::vec((0u8..2u8, 0u8..2u8), 0..3), "[a-b]"),
            1..30,
        )
    ) {
        // Every index (equality, parent, suffix-order) must stay
        // consistent with the entry map across upserts, deletes, and
        // subtree deletes.
        let mut dit = Dit::new();
        let probes = [
            "(objectclass=a)",
            "(objectclass=b)",
            "(l0a0=v0)",
            "(l1a1=v1)",
            "(&(objectclass=a)(l0a0=v0))",
            "(|(l0a0=v0)(l0a1=v1))",
        ];
        for (op, path, class) in ops {
            let dn = path_dn(&path);
            match op {
                1 => {
                    dit.delete(&dn);
                }
                2 => {
                    dit.delete_subtree(&dn);
                }
                _ => dit.upsert(Entry::new(dn.clone()).with("objectclass", class)),
            }
            for probe in probes {
                let filter = Filter::parse(probe).unwrap();
                for (base, scope) in [
                    (Dn::root(), Scope::Sub),
                    (dn.clone(), Scope::Sub),
                    (dn.clone(), Scope::One),
                ] {
                    let got: Vec<String> = dit
                        .search(&base, scope, &filter, &[], 0)
                        .iter()
                        .map(|e| e.dn().to_string())
                        .collect();
                    let want: Vec<String> = dit
                        .iter()
                        .filter(|e| match scope {
                            Scope::Base => e.dn() == &base,
                            Scope::One => e.dn().parent().as_ref() == Some(&base),
                            Scope::Sub => e.dn().is_under(&base),
                        })
                        .filter(|e| filter.matches(e))
                        .map(|e| e.dn().to_string())
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            // The parent index behind children() must agree with a scan.
            let got_kids: Vec<String> =
                dit.children(&dn).iter().map(|e| e.dn().to_string()).collect();
            let want_kids: Vec<String> = dit
                .iter()
                .filter(|e| e.dn().parent().as_ref() == Some(&dn))
                .map(|e| e.dn().to_string())
                .collect();
            prop_assert_eq!(got_kids, want_kids);
        }
    }

    #[test]
    fn indexed_search_matches_a_model_under_interleaved_mutation(
        ops in prop::collection::vec(model_op(), 1..40),
        probes in prop::collection::vec(
            (model_filter(), prop::collection::vec((0u8..2u8, 0u8..3u8), 0..3)),
            1..4,
        ),
    ) {
        use std::collections::BTreeMap;
        use std::sync::Arc;
        // The model: normalized entries keyed by rendered DN, which is
        // also the order every search must answer in.
        let mut model: BTreeMap<String, Entry> = BTreeMap::new();
        let mut dit = Dit::new();
        for op in ops {
            match op {
                Op::Upsert(mut e) => {
                    dit.upsert(e.clone());
                    e.normalize_naming_attr();
                    model.insert(e.dn().to_string(), e);
                }
                Op::Delete(path) => {
                    let dn = path_dn(&path);
                    let gone = dit.delete(&dn).map(|e| e.dn().to_string());
                    prop_assert_eq!(gone, model.remove(&dn.to_string()).map(|e| e.dn().to_string()));
                }
                Op::DeleteSubtree(path) => {
                    let dn = path_dn(&path);
                    let before = model.len();
                    model.retain(|_, e| !e.dn().is_under(&dn));
                    prop_assert_eq!(dit.delete_subtree(&dn), before - model.len());
                }
                Op::Rebuild(rot, batch) => {
                    let mut current: Vec<Arc<Entry>> = dit.iter().cloned().map(Arc::new).collect();
                    let n = current.len().max(1);
                    current.rotate_left(rot % n);
                    current.extend(batch.iter().cloned().map(Arc::new));
                    dit = Dit::bulk_load_shared(current);
                    for mut e in batch {
                        e.normalize_naming_attr();
                        model.insert(e.dn().to_string(), e);
                    }
                }
            }
            let stored: Vec<&Entry> = dit.iter().collect();
            let modelled: Vec<&Entry> = model.values().collect();
            prop_assert_eq!(stored, modelled);
            for (filter, base_path) in &probes {
                let base = path_dn(base_path);
                for scope in [Scope::Base, Scope::One, Scope::Sub] {
                    let want: Vec<String> = model
                        .values()
                        .filter(|e| match scope {
                            Scope::Base => e.dn() == &base,
                            Scope::One => e.dn().parent().as_ref() == Some(&base),
                            Scope::Sub => e.dn().is_under(&base),
                        })
                        .filter(|e| filter.matches(e))
                        .map(|e| e.dn().to_string())
                        .collect();
                    for limit in [0usize, 1, 3] {
                        let got: Vec<String> = dit
                            .search_shared(&base, scope, filter, &[], limit)
                            .iter()
                            .map(|e| e.dn().to_string())
                            .collect();
                        let expect = if limit == 0 { &want[..] } else { &want[..want.len().min(limit)] };
                        prop_assert_eq!(
                            &got[..], expect,
                            "{:?} search of {} for {} (limit {})", scope, base, filter, limit
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ldif_roundtrip(entries in prop::collection::vec(arb_entry(), 0..6)) {
        // LDIF trims values; restrict to entries whose values survive.
        let entries: Vec<Entry> = entries
            .into_iter()
            // LDIF cannot represent the root DN as a record.
            .filter(|e| !e.dn().is_root())
            .filter(|e| {
                e.attrs().all(|(_, vs)| {
                    vs.iter().all(|v| {
                        let s = v.as_str();
                        s == s.trim() && !s.is_empty() && !s.contains('\n') && !s.starts_with('#')
                    })
                })
            })
            .collect();
        let doc = gis_ldap::to_ldif(&entries);
        let back = gis_ldap::parse_ldif(&doc).unwrap();
        prop_assert_eq!(back, entries);
    }
}
