//! Seeded synthetic inputs: hosts, provider data and query mixes.
//!
//! Everything a workload serves or asks is generated here from the seed;
//! the services receive only these generated inputs.

use crate::rng::Rng;
use gis_gris::{HostSpec, InfoProvider, ProviderError};
use gis_ldap::{Dn, Entry, Filter, Rdn};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::SearchSpec;
use std::sync::Arc;

const SYSTEMS: [(&str, &str); 4] = [
    ("linux 2.4", "x86"),
    ("mips irix", "mips"),
    ("solaris 8", "sparc"),
    ("aix 5", "power"),
];
const CPUS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn org_dn(name: &str) -> Dn {
    Dn::from_rdns(vec![Rdn::new("o", name)])
}

/// A host under `parent` with the given platform and CPU count.
fn host_spec(
    rng: &mut Rng,
    hostname: String,
    parent: &Dn,
    platform: (&str, &str),
    cpus: u32,
) -> HostSpec {
    HostSpec {
        hostname,
        parent: parent.clone(),
        system: platform.0.to_owned(),
        arch: platform.1.to_owned(),
        cpu_count: cpus,
        memory_mb: 256 * (1 + rng.below(64) as u64),
    }
}

/// `n` values cycling through `items`, in seeded order: each value is
/// used equally often whatever the seed, so result sizes (and so the
/// cost of a query mix) do not drift from seed to seed.
fn balanced<T: Copy>(rng: &mut Rng, items: &[T], n: usize) -> Vec<T> {
    let mut v: Vec<T> = (0..n).map(|i| items[i % items.len()]).collect();
    rng.shuffle(&mut v);
    v
}

/// The entry a `gis_gris::StaticHostProvider` publishes for `spec`,
/// built independently of the provider so the oracle does not trust the
/// code under test.
pub fn static_host_entry(spec: &HostSpec) -> Entry {
    Entry::new(spec.dn())
        .with_class("computer")
        .with("hn", spec.hostname.clone())
        .with("system", spec.system.clone())
        .with("arch", spec.arch.clone())
        .with("cpucount", i64::from(spec.cpu_count))
        .with("memorymb", spec.memory_mb)
}

/// One organization laid out like `bench_dit`: the org entry, then per
/// host a `computer` entry and a `perf=load` child. Every entry carries
/// its naming attribute, so a directory that normalizes naming
/// attributes stores it unchanged.
fn org_entries(rng: &mut Rng, org: &Dn, hosts: usize) -> Vec<Entry> {
    let platforms = balanced(rng, &SYSTEMS, hosts);
    let cpus = balanced(rng, &CPUS, hosts);
    // 3 hosts in 20 carry GPUs.
    let mut gpus: Vec<bool> = (0..hosts).map(|i| i % 20 < 3).collect();
    rng.shuffle(&mut gpus);
    // Stratified 5-minute loads: one per 1/hosts slice of [0, 4).
    let mut loads: Vec<f64> = (0..hosts)
        .map(|i| 4.0 * (i as f64 + rng.unit()) / hosts as f64)
        .collect();
    rng.shuffle(&mut loads);
    let mut out = Vec::with_capacity(1 + 2 * hosts);
    let o = org.rdn().expect("org DN has an RDN").value().to_owned();
    out.push(
        Entry::new(org.clone())
            .with_class("organization")
            .with("o", o),
    );
    for h in 0..hosts {
        let spec = host_spec(rng, format!("h{h}"), org, platforms[h], cpus[h]);
        let mut host = static_host_entry(&spec);
        if gpus[h] {
            host.add("gpucount", 1 + rng.below(4) as i64);
        }
        let perf = Entry::new(spec.dn().child(Rdn::new("perf", "load")))
            .with_class("loadaverage")
            .with("perf", "load")
            .with("load5", format!("{:.2}", loads[h]))
            .with("load15", format!("{:.2}", rng.unit() * 4.0));
        out.push(host);
        out.push(perf);
    }
    out
}

/// A provider serving a fixed, generated entry set under one namespace.
pub struct SynthProvider {
    name: String,
    namespace: Dn,
    entries: Arc<Vec<Entry>>,
    ttl: SimDuration,
}

impl SynthProvider {
    pub fn new(namespace: Dn, entries: Arc<Vec<Entry>>, ttl: SimDuration) -> SynthProvider {
        SynthProvider {
            name: format!("synth:{namespace}"),
            namespace,
            entries,
            ttl,
        }
    }
}

impl InfoProvider for SynthProvider {
    fn name(&self) -> &str {
        &self.name
    }
    fn namespace(&self) -> &Dn {
        &self.namespace
    }
    fn cache_ttl(&self) -> SimDuration {
        self.ttl
    }
    fn fetch(&mut self, _spec: &SearchSpec, _now: SimTime) -> Result<Vec<Entry>, ProviderError> {
        Ok(self.entries.as_ref().clone())
    }
}

/// The data one GRIS serves: one provider per organization.
#[derive(Clone)]
pub struct Site {
    pub orgs: Vec<(Dn, Arc<Vec<Entry>>)>,
}

impl Site {
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.orgs.iter().flat_map(|(_, es)| es.iter())
    }
}

/// `sites` GRIS worth of organizations, `orgs_per_site` each, named
/// `<prefix><n>` with `n` counting across sites.
pub fn sites(
    seed: u64,
    prefix: &str,
    sites: usize,
    orgs_per_site: usize,
    hosts_per_org: usize,
) -> Vec<Site> {
    let mut rng = Rng::new(seed, 1);
    (0..sites)
        .map(|s| Site {
            orgs: (0..orgs_per_site)
                .map(|k| {
                    let org = org_dn(&format!("{prefix}{}", s * orgs_per_site + k));
                    let entries = org_entries(&mut rng, &org, hosts_per_org);
                    (org, Arc::new(entries))
                })
                .collect(),
        })
        .collect()
}

/// `n` seeded hosts under `o=<org>`, for the lookup GRIS.
pub fn lookup_hosts(seed: u64, org: &str, n: usize) -> Vec<HostSpec> {
    let mut rng = Rng::new(seed, 2);
    let parent = org_dn(org);
    (0..n)
        .map(|i| {
            let platform = *rng.pick(&SYSTEMS);
            let cpus = *rng.pick(&CPUS);
            host_spec(&mut rng, format!("node{i}"), &parent, platform, cpus)
        })
        .collect()
}

/// `n` base-scope lookups of hosts drawn uniformly from `hosts`.
pub fn lookup_mix(seed: u64, hosts: &[HostSpec], n: usize) -> Vec<SearchSpec> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|_| SearchSpec::lookup(rng.pick(hosts).dn()))
        .collect()
}

/// `n` filters, template `k` of `templates` used for every
/// `templates`-th query and fed a stratified draw in `[0, 1)` for its
/// value, then shuffled: the mix's composition, and so its cost, is
/// the same for every seed, while which query comes when is not.
fn filter_mix(
    rng: &mut Rng,
    n: usize,
    templates: usize,
    make: impl Fn(usize, f64) -> String,
) -> Vec<String> {
    let per = n.div_ceil(templates);
    let mut out: Vec<String> = (0..n)
        .map(|i| {
            let (k, j) = (i % templates, i / templates);
            make(k, (j as f64 + rng.unit()) / per as f64)
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Pick from `items` by a draw `u` in `[0, 1)`.
fn by<T: Copy>(items: &[T], u: f64) -> T {
    items[((u * items.len() as f64) as usize).min(items.len() - 1)]
}

/// VO-wide (root subtree) searches: equality, presence and substring
/// filters over the discovery sites' hosts.
pub fn discovery_mix(seed: u64, n: usize) -> Vec<SearchSpec> {
    let mut rng = Rng::new(seed, 4);
    filter_mix(&mut rng, n, 6, |k, u| match k {
        0 => format!("(system={})", by(&SYSTEMS, u).0),
        1 => format!("(cpucount={})", by(&CPUS, u)),
        2 => "(gpucount=*)".to_owned(),
        3 => "(objectclass=loadaverage)".to_owned(),
        4 => format!("(hn=h{}*)", by(&[1, 2, 3, 4, 5, 6, 7, 8, 9], u)),
        _ => format!("(system=*{}*)", by(&["ir", "ux", "is", "ai"], u)),
    })
    .iter()
    .map(|f| SearchSpec::subtree(Dn::root(), parse(f)))
    .collect()
}

/// Organization-scoped subtree searches over the harvested tree:
/// equality, `>=`, substring and presence filters, each matching tens to
/// a few hundred entries of a 500-host organization.
pub fn harvest_mix(seed: u64, orgs: &[Dn], n: usize) -> Vec<SearchSpec> {
    let mut rng = Rng::new(seed, 5);
    let filters = filter_mix(&mut rng, n, 7, |k, u| match k {
        0 => format!("(system={})", by(&SYSTEMS, u).0),
        1 => format!("(cpucount={})", by(&CPUS, u)),
        2 => format!("(cpucount>={})", by(&[32, 64], u)),
        3 => format!("(load5>={:.2})", 3.0 + 0.8 * u),
        4 => format!("(hn=h{}*)", by(&[1, 2, 3, 4, 5, 6, 7, 8, 9], u)),
        5 => format!("(system=*{}*)", by(&["irix", "ux", "sol"], u)),
        _ => "(gpucount=*)".to_owned(),
    });
    filters
        .iter()
        .map(|f| SearchSpec::subtree(rng.pick(orgs).clone(), parse(f)))
        .collect()
}

fn parse(filter: &str) -> Filter {
    Filter::parse(filter).expect("generated filters are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = sites(11, "O", 2, 2, 10);
        let b = sites(11, "O", 2, 2, 10);
        let c = sites(12, "O", 2, 2, 10);
        let flat = |s: &[Site]| {
            s.iter()
                .flat_map(|x| x.entries().cloned())
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
        assert_ne!(flat(&a), flat(&c));
        assert_eq!(a[1].orgs[0].0, org_dn("O2"));
        assert_eq!(a[0].entries().count(), 2 * (1 + 2 * 10));
        let orgs: Vec<Dn> = a
            .iter()
            .flat_map(|s| s.orgs.iter().map(|o| o.0.clone()))
            .collect();
        assert_eq!(harvest_mix(3, &orgs, 20), harvest_mix(3, &orgs, 20));
        assert_eq!(discovery_mix(3, 20), discovery_mix(3, 20));
    }

    #[test]
    fn entries_carry_their_naming_attribute() {
        for site in sites(5, "O", 1, 1, 20) {
            for e in site.entries() {
                let mut normalized = e.clone();
                normalized.normalize_naming_attr();
                assert_eq!(&normalized, e);
            }
        }
    }
}
