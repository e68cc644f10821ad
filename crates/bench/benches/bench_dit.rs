//! Microbenchmarks: DIT scoped search over a populated tree (the local
//! answer path of a harvesting GIIS).

use criterion::{criterion_group, criterion_main, Criterion};
use gis_ldap::{Dit, Dn, Entry, Filter, Rdn, Scope};
use std::hint::black_box;
use std::time::Duration;

/// 100 orgs x 20 hosts x (host + perf entry) = 4000 entries.
fn build_dit() -> Dit {
    let mut dit = Dit::new();
    for o in 0..100 {
        let org = Dn::from_rdns(vec![Rdn::new("o", format!("O{o}"))]);
        for h in 0..20 {
            let host_dn = org.child(Rdn::new("hn", format!("h{h}")));
            dit.upsert(
                Entry::new(host_dn.clone())
                    .with_class("computer")
                    .with("system", if h % 2 == 0 { "linux" } else { "irix" })
                    .with("cpucount", (1 + h % 8) as i64),
            );
            dit.upsert(
                Entry::new(host_dn.child(Rdn::new("perf", "load")))
                    .with_class("loadaverage")
                    .with("load5", (h % 30) as f64 / 10.0),
            );
        }
    }
    dit
}

fn bench(c: &mut Criterion) {
    let dit = build_dit();
    let mut g = c.benchmark_group("dit");
    g.sample_size(40).measurement_time(Duration::from_secs(2));

    let all = Filter::always();
    let selective = Filter::parse("(&(objectclass=computer)(system=linux)(cpucount>=4))").unwrap();
    let root = Dn::root();
    let one_org = Dn::parse("o=O42").unwrap();
    let one_host = Dn::parse("hn=h7, o=O42").unwrap();

    g.bench_function("lookup_base", |b| {
        b.iter(|| dit.search(black_box(&one_host), Scope::Base, &all, &[], 0))
    });
    g.bench_function("subtree_org_scoped", |b| {
        b.iter(|| dit.search(black_box(&one_org), Scope::Sub, &selective, &[], 0))
    });
    g.bench_function("subtree_root_selective", |b| {
        b.iter(|| dit.search(black_box(&root), Scope::Sub, &selective, &[], 0))
    });
    g.bench_function("subtree_root_match_all", |b| {
        b.iter(|| dit.search(black_box(&root), Scope::Sub, &all, &[], 0))
    });
    g.bench_function("one_level_org", |b| {
        b.iter(|| dit.search(black_box(&one_org), Scope::One, &all, &[], 0))
    });
    g.bench_function("upsert_delete", |b| {
        let mut dit = build_dit();
        let dn = Dn::parse("hn=new, o=O0").unwrap();
        b.iter(|| {
            dit.upsert(Entry::new(dn.clone()).with_class("computer"));
            dit.delete(&dn);
        })
    });
    g.finish();

    bench_deep(c);
    bench_harvest(c);
}

/// 20 orgs x 500 hosts x (host + perf entry) + org entries = 20,020
/// entries, bulk-loaded: the shape of a harvesting GIIS's aggregate
/// tree. Host attributes repeat across orgs, so every posting spans
/// the whole tree while a search covers one org.
fn build_harvest_dit() -> Dit {
    let systems = ["linux 2.4", "mips irix", "solaris 8", "aix 5"];
    let mut batch = Vec::new();
    for o in 0..20 {
        let org = Dn::from_rdns(vec![Rdn::new("o", format!("O{o}"))]);
        batch.push(Entry::new(org.clone()).with_class("organization"));
        for h in 0..500 {
            let host = org.child(Rdn::new("hn", format!("h{h}")));
            let mut e = Entry::new(host.clone())
                .with_class("computer")
                .with("system", systems[(h + o) % 4])
                .with("cpucount", 1i64 << ((h * 3 + o) % 7));
            if (h + o) % 20 < 3 {
                e.add("gpucount", (1 + h % 4) as i64);
            }
            batch.push(e);
            batch.push(
                Entry::new(host.child(Rdn::new("perf", "load")))
                    .with_class("loadaverage")
                    .with(
                        "load5",
                        format!("{:.2}", ((h * 37 + o * 11) % 400) as f64 / 100.0),
                    ),
            );
        }
    }
    Dit::bulk_load(batch)
}

/// Org-scoped searches over the harvest-shaped tree, through the
/// shared-handle path the GIIS answers from: an ordered numeric range,
/// a substring with no initial part and a presence test.
fn bench_harvest(c: &mut Criterion) {
    let dit = build_harvest_dit();
    let mut g = c.benchmark_group("dit_harvest");
    g.sample_size(40).measurement_time(Duration::from_secs(2));
    let org = Dn::parse("o=O7").unwrap();
    for (name, filter) in [
        ("subtree_org_ge", "(cpucount>=32)"),
        ("subtree_org_substring", "(system=*ux*)"),
        ("subtree_org_presence", "(gpucount=*)"),
    ] {
        let filter = Filter::parse(filter).unwrap();
        assert!(!dit
            .search_shared(&org, Scope::Sub, &filter, &[], 0)
            .is_empty());
        g.bench_function(name, |b| {
            b.iter(|| dit.search_shared(black_box(&org), Scope::Sub, &filter, &[], 0))
        });
    }
    g.finish();
}

/// 5-level DIT: 5 orgs x 5 ous x 20 hosts x 10 services x 1 sensor
/// = 10,530 entries. Models a large VO-wide GIIS cache.
fn build_deep_dit() -> Dit {
    let mut dit = Dit::new();
    for o in 0..5 {
        let org = Dn::from_rdns(vec![Rdn::new("o", format!("O{o}"))]);
        dit.upsert(Entry::new(org.clone()).with_class("organization"));
        for u in 0..5 {
            let ou = org.child(Rdn::new("ou", format!("U{u}")));
            dit.upsert(Entry::new(ou.clone()).with_class("organizationalunit"));
            for h in 0..20 {
                let host = ou.child(Rdn::new("hn", format!("h{h}")));
                dit.upsert(
                    Entry::new(host.clone())
                        .with_class("computer")
                        .with("system", if h % 2 == 0 { "linux" } else { "irix" }),
                );
                for s in 0..10 {
                    let svc = host.child(Rdn::new("svc", format!("s{s}")));
                    dit.upsert(
                        Entry::new(svc.clone())
                            .with_class("service")
                            .with("free", ((h * 7 + s * 13) % 500) as i64),
                    );
                    dit.upsert(
                        Entry::new(svc.child(Rdn::new("perf", "load")))
                            .with_class("loadaverage")
                            .with("load5", ((h + s) % 30) as f64 / 10.0)
                            .with("free", ((h * 11 + s) % 500) as i64),
                    );
                }
            }
        }
    }
    dit
}

/// Deep-tree cases isolating the hierarchical index: the filter is
/// deliberately *not* class-pinned (`free>=250` — no equality term an
/// index could serve), so scoping is the only thing saving work.
fn bench_deep(c: &mut Criterion) {
    let dit = build_deep_dit();
    assert!(dit.len() >= 10_000, "deep tree holds {} entries", dit.len());
    let mut g = c.benchmark_group("dit_deep");
    g.sample_size(40).measurement_time(Duration::from_secs(2));

    let unpinned = Filter::parse("(free>=250)").unwrap();
    let root = Dn::root();
    let org = Dn::parse("o=O1").unwrap();
    let ou = Dn::parse("ou=U2, o=O1").unwrap();
    let host = Dn::parse("hn=h7, ou=U2, o=O1").unwrap();

    // Root-scoped scan: every entry is in scope, so this bounds what any
    // implementation must do — and is what a scoped search also cost
    // before the subtree range index existed.
    g.bench_function("root_scan_unpinned", |b| {
        b.iter(|| dit.search(black_box(&root), Scope::Sub, &unpinned, &[], 0))
    });
    g.bench_function("subtree_org_unpinned", |b| {
        b.iter(|| dit.search(black_box(&org), Scope::Sub, &unpinned, &[], 0))
    });
    g.bench_function("subtree_host_unpinned", |b| {
        b.iter(|| dit.search(black_box(&host), Scope::Sub, &unpinned, &[], 0))
    });
    g.bench_function("one_level_ou", |b| {
        b.iter(|| dit.search(black_box(&ou), Scope::One, &Filter::always(), &[], 0))
    });
    // Equality-index path on a deep tree: naming-attr term intersected
    // with a class term.
    let pinned = Filter::parse("(&(objectclass=computer)(hn=h7))").unwrap();
    g.bench_function("indexed_and_intersection", |b| {
        b.iter(|| dit.search(black_box(&root), Scope::Sub, &pinned, &[], 0))
    });
    // Shared-handle hot path: no per-entry deep copies on the way out.
    g.bench_function("subtree_org_shared", |b| {
        b.iter(|| dit.search_shared(black_box(&org), Scope::Sub, &unpinned, &[], 0))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
