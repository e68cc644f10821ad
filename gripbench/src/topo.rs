//! The three workloads: their generated inputs, the services they spawn
//! on TCP loopback, and the convergence probe that ends set-up.

use crate::oracle::Expect;
use crate::synth::{self, Site, SynthProvider};
use gis_core::{LiveClient, LiveRuntime, ServeOptions};
use gis_giis::{Giis, GiisConfig, GiisMode, GiisQueryPath};
use gis_gris::{Gris, GrisConfig, GrisQueryPath, HostSpec, StaticHostProvider};
use gis_gsi::{
    Acl, CertAuthority, Credential, Grant, PolicyMap, Principal, Requester, SecurityPolicy,
    TrustStore,
};
use gis_ldap::{Dn, Filter, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::SearchSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Owner-thread tick of every service.
const TICK: Duration = Duration::from_millis(5);
/// GRRP cadence: registrations land on the first tick and never lapse
/// within a run.
const REG_INTERVAL: SimDuration = SimDuration(2_000_000);
const REG_TTL: SimDuration = SimDuration(60_000_000);
/// Monitoring snapshots are rebuilt at most this stale, so the search at
/// the end of a run sees the timed phases.
const MONITORING_REFRESH: SimDuration = SimDuration(500_000);
/// Re-harvest cadence of the harvest_scan GIIS: every child is
/// re-harvested several times inside each timed phase, each time a DIT
/// rebuild and an fsync'd WAL record.
const HARVEST_REFRESH: SimDuration = SimDuration(10_000_000);
/// Chained fan-out deadline of the discovery GIIS.
const CHAIN_TIMEOUT: SimDuration = SimDuration(2_000_000);
/// Provider cache lifetime on the discovery GRIS: a fetch lands inside
/// a query about once a second per child.
const DISCOVERY_PROVIDER_TTL: SimDuration = SimDuration(1_000_000);
const STATIC_TTL: SimDuration = SimDuration(3_600_000_000);
/// Longest one set-up may take before the run is abandoned (the run as
/// a whole must end within minutes).
const CONVERGE_DEADLINE: Duration = Duration::from_secs(20);

const LOOKUP_HOSTS: usize = 64;
const DISCOVERY_SITES: usize = 4;
const DISCOVERY_HOSTS: usize = 12;
const HARVEST_SITES: usize = 4;
const HARVEST_ORGS_PER_SITE: usize = 5;
const HARVEST_HOSTS_PER_ORG: usize = 500;
/// Queries per generated mix (a multiple of the pipelining depth).
const MIX_LEN: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Discovery,
    HarvestScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "discovery" => Some(Workload::Discovery),
            "harvest_scan" => Some(Workload::HarvestScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Discovery => "discovery",
            Workload::HarvestScan => "harvest_scan",
        }
    }

    /// Set-ups per run; `setup_s` is their median. A lookup set-up
    /// takes about 15 ms, so it is repeated often enough that scheduling
    /// noise of a few milliseconds does not move the median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Lookup => 25,
            Workload::Discovery | Workload::HarvestScan => 5,
        }
    }

    /// Fixed open-loop offered rate (queries/s): a fifth to a third of
    /// the closed-loop capacity measured when the benchmark was
    /// written. At that load the host's speed, which moves the capacity,
    /// barely moves the queueing, and a host running at half speed still
    /// leaves the open loop unsaturated. A constant: never derived from
    /// the run being measured.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::Lookup => 20000.0,
            Workload::Discovery => 1000.0,
            Workload::HarvestScan => 200.0,
        }
    }
}

/// A query mix with its oracle answers, index for index.
#[derive(Default)]
pub struct Mix {
    pub specs: Vec<SearchSpec>,
    pub expect: Vec<Expect>,
}

/// The identity-tier credentials of the lookup workload.
pub struct Security {
    pub trust: TrustStore,
    pub client: Credential,
    pub server: Credential,
    /// Permits everything to any authenticated subject.
    pub policy_map: PolicyMap,
}

impl Security {
    fn new(seed: u64) -> Security {
        let ca = CertAuthority::new("/O=Grid/CN=Bench CA", seed);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        Security {
            client: ca.issue("/O=Grid/CN=bench-client"),
            server: ca.issue("/O=Grid/CN=bench-gris"),
            trust,
            policy_map: PolicyMap::with_default(
                Acl::default().with_rule(Principal::Authenticated, Grant::All),
            ),
        }
    }

    pub fn server_policy(&self) -> SecurityPolicy {
        SecurityPolicy::identity(self.server.clone(), self.trust.clone())
            .with_policy_map(self.policy_map.clone())
    }

    pub fn client_policy(&self) -> SecurityPolicy {
        SecurityPolicy::authenticated(self.client.clone(), self.trust.clone())
    }

    pub fn requester(&self) -> Requester {
        Requester::subject(self.client.subject())
    }
}

/// Everything a workload serves and asks, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    /// Lookup: the hosts behind the GRIS's static providers.
    pub hosts: Vec<HostSpec>,
    /// Discovery and harvest_scan: one entry set per GRIS.
    pub sites: Vec<Site>,
    pub mix: Mix,
    /// Queries that pass the oracle only once the topology has converged.
    pub probe: Mix,
    pub security: Option<Security>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut hosts = Vec::new();
        let mut sites = Vec::new();
        let mut security = None;
        let (specs, probe_specs): (Vec<SearchSpec>, Vec<SearchSpec>) = match workload {
            Workload::Lookup => {
                hosts = synth::lookup_hosts(seed, "Grid", LOOKUP_HOSTS);
                security = Some(Security::new(seed));
                let probe = hosts.iter().map(|h| SearchSpec::lookup(h.dn())).collect();
                (synth::lookup_mix(seed, &hosts, MIX_LEN), probe)
            }
            Workload::Discovery => {
                sites = synth::sites(seed, "Site", DISCOVERY_SITES, 1, DISCOVERY_HOSTS);
                let all = SearchSpec::subtree(Dn::root(), Filter::always());
                (synth::discovery_mix(seed, MIX_LEN), vec![all])
            }
            Workload::HarvestScan => {
                sites = synth::sites(
                    seed,
                    "O",
                    HARVEST_SITES,
                    HARVEST_ORGS_PER_SITE,
                    HARVEST_HOSTS_PER_ORG,
                );
                let orgs: Vec<Dn> = sites
                    .iter()
                    .flat_map(|s| s.orgs.iter().map(|(o, _)| o.clone()))
                    .collect();
                let probe = orgs
                    .iter()
                    .map(|o| SearchSpec::subtree(o.clone(), Filter::always()))
                    .collect();
                (synth::harvest_mix(seed, &orgs, MIX_LEN), probe)
            }
        };
        let mut inputs = Inputs {
            workload,
            hosts,
            sites,
            mix: Mix::default(),
            probe: Mix::default(),
            security,
        };
        inputs.mix = inputs.with_oracle(specs);
        inputs.probe = inputs.with_oracle(probe_specs);
        inputs
    }

    /// Every entry the workload's services publish.
    pub fn entries(&self) -> Vec<gis_ldap::Entry> {
        if self.hosts.is_empty() {
            self.sites
                .iter()
                .flat_map(|s| s.entries().cloned())
                .collect()
        } else {
            self.hosts.iter().map(synth::static_host_entry).collect()
        }
    }

    fn with_oracle(&self, specs: Vec<SearchSpec>) -> Mix {
        let entries = self.entries();
        // Organization-scoped queries only ever match their own org:
        // scan just that slice instead of the whole tree.
        let expect = specs
            .iter()
            .map(|spec| match self.org_slice(&spec.base) {
                Some(slice) => Expect::scan(spec, slice.iter()),
                None => Expect::scan(spec, &entries),
            })
            .collect();
        Mix { specs, expect }
    }

    fn org_slice(&self, base: &Dn) -> Option<&Arc<Vec<gis_ldap::Entry>>> {
        self.sites
            .iter()
            .flat_map(|s| s.orgs.iter())
            .find(|(org, _)| org == base)
            .map(|(_, es)| es)
    }

    /// The GRIS engine of site `i` (or the lookup GRIS), unspawned; the
    /// lookup GRIS gets its security posture when it is served.
    pub fn gris(&self, i: usize) -> Gris {
        let (suffix, ttl) = match self.workload {
            Workload::Lookup => (self.hosts[0].parent.clone(), STATIC_TTL),
            Workload::Discovery => (self.sites[i].orgs[0].0.clone(), DISCOVERY_PROVIDER_TTL),
            Workload::HarvestScan => (Dn::root(), STATIC_TTL),
        };
        let mut config = GrisConfig::open(LdapUrl::tcp("127.0.0.1", 0), suffix);
        config.monitoring_refresh = MONITORING_REFRESH;
        let mut gris = Gris::new(config, REG_INTERVAL, REG_TTL);
        if self.workload == Workload::Lookup {
            for h in &self.hosts {
                gris.add_provider(Box::new(StaticHostProvider::new(h.clone())));
            }
        } else {
            for (org, entries) in &self.sites[i].orgs {
                gris.add_provider(Box::new(SynthProvider::new(
                    org.clone(),
                    Arc::clone(entries),
                    ttl,
                )));
            }
        }
        gris
    }

    /// The GIIS engine (discovery and harvest_scan), unspawned.
    pub fn giis(&self) -> Giis {
        let mut config = GiisConfig::chaining(LdapUrl::tcp("127.0.0.1", 0), Dn::root());
        config.monitoring_refresh = MONITORING_REFRESH;
        config.mode = match self.workload {
            Workload::HarvestScan => GiisMode::Harvest {
                refresh: HARVEST_REFRESH,
            },
            _ => GiisMode::Chain {
                timeout: CHAIN_TIMEOUT,
            },
        };
        Giis::new(config, REG_INTERVAL, REG_TTL)
    }

    pub fn gris_count(&self) -> usize {
        match self.workload {
            Workload::Lookup => 1,
            _ => self.sites.len(),
        }
    }
}

/// A spawned topology plus the engine handles taken before spawn.
pub struct Topology {
    pub rt: LiveRuntime,
    /// The service the clients query (the GRIS for lookup, else the GIIS).
    pub target: LdapUrl,
    pub gris: Vec<GrisQueryPath>,
    pub giis: Option<GiisQueryPath>,
    pub state_dir: Option<PathBuf>,
}

impl Topology {
    pub fn spawn(inputs: &Inputs, state_dir: Option<&Path>) -> Result<Topology, String> {
        let mut rt = LiveRuntime::new(TICK);
        let mut gris_handles = Vec::new();
        if inputs.workload == Workload::Lookup {
            let gris = inputs.gris(0);
            gris_handles.push(gris.query_path());
            let policy = inputs
                .security
                .as_ref()
                .expect("lookup is secured")
                .server_policy();
            let url = rt
                .spawn_gris(gris, ServeOptions::tcp().security(policy))
                .map_err(|e| format!("spawn gris: {e}"))?;
            return Ok(Topology {
                rt,
                target: url,
                gris: gris_handles,
                giis: None,
                state_dir: None,
            });
        }
        let giis = inputs.giis();
        let giis_handle = giis.query_path();
        let mut opts = ServeOptions::tcp();
        if let Some(dir) = state_dir {
            opts = opts.persist(dir);
        }
        let giis_url = rt
            .spawn_giis(giis, opts)
            .map_err(|e| format!("spawn giis: {e}"))?;
        for i in 0..inputs.gris_count() {
            let mut gris = inputs.gris(i);
            gris.agent.add_target(giis_url.clone());
            gris_handles.push(gris.query_path());
            rt.spawn_gris(gris, ServeOptions::tcp())
                .map_err(|e| format!("spawn gris {i}: {e}"))?;
        }
        Ok(Topology {
            rt,
            target: giis_url,
            gris: gris_handles,
            giis: Some(giis_handle),
            state_dir: state_dir.map(Path::to_path_buf),
        })
    }

    /// Dial the load generator's connections (running the §7 handshake
    /// on the lookup workload), each primed with one plain request.
    ///
    /// The priming request works around the client session keeping its
    /// last unbuffered frame staged: a pipelined burst right after the
    /// handshake would replay the `Hello`, which the server answers by
    /// closing the connection. After one plain request the replayed
    /// frame is that request, and its second reply is discarded as stale.
    pub fn connect(&self, inputs: &Inputs, n: usize) -> Result<Vec<LiveClient>, String> {
        (0..n)
            .map(|_| {
                let mut b = LiveClient::builder(&self.target);
                if let Some(sec) = &inputs.security {
                    b = b.security(sec.client_policy());
                }
                let mut client = b
                    .connect()
                    .map_err(|e| format!("connect {}: {e}", self.target))?;
                let prime = SearchSpec::lookup(Dn::parse("o=prime").expect("valid DN"));
                client
                    .request(&self.target, prime)
                    .timeout(CONVERGE_DEADLINE)
                    .send()
                    .outcome
                    .ok_or_else(|| format!("no answer from {}", self.target))?;
                Ok(client)
            })
            .collect()
    }

    /// Poll the probe queries until every one passes the oracle:
    /// registrations converged, harvests integrated, caches filled.
    pub fn converge(&self, client: &mut LiveClient, probe: &Mix) -> Result<(), String> {
        let deadline = Instant::now() + CONVERGE_DEADLINE;
        loop {
            let outcomes =
                client.search_pipelined(&self.target, &probe.specs, 8, Duration::from_secs(5));
            let ok = outcomes
                .iter()
                .zip(&probe.expect)
                .all(|(o, e)| crate::oracle::check(o.as_ref(), e) == crate::oracle::Verdict::Ok);
            if ok {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "topology behind {} never converged to the oracle's answers",
                    self.target
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop every service and remove the persisted state.
    pub fn shutdown(self) {
        self.rt.shutdown();
        if let Some(dir) = self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
