//! The traced run's per-layer ledger. Every timing here calls a layer's
//! public function from the benchmark's own code, on the requests,
//! replies and entries the workload actually produced; the counters come
//! from stats handles taken before spawn and from one GRIP search of the
//! monitoring namespace. Nothing is instrumented inside the program.

use crate::oracle::{Expect, Outcome};
use crate::stats::{median, Spread};
use crate::topo::{Inputs, Mix, Topology, Workload};
use gis_core::LiveClient;
use gis_giis::{Giis, GiisAction, GiisStats};
use gis_gris::{Gris, GrisStats};
use gis_gsi::{Authenticator, BindToken, PolicyMap, Requester};
use gis_ldap::{Dit, Dn, Entry, Filter, LdapUrl, Rdn};
use gis_netsim::SimTime;
use gis_proto::{
    frame_bytes, metrics::monitoring_base, FrameDecoder, GripReply, GripRequest, GrrpMessage,
    ProtocolMessage, ResultCode, SearchSpec,
};
use gis_store::{FileStorage, Journal, JournalOptions, TimeBase, WalOp};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replies each load thread keeps for the layer timings.
pub const CAPTURE_PER_THREAD: usize = 256;
/// Repetitions of each timed call; a sample's time is its fastest
/// repetition, which drops preemption by the still-running services.
const REPS: usize = 3;
/// A fixed engine clock for the offline engines: every provider cache
/// stays fresh after its first fill, as on most live queries.
const OFFLINE_NOW: SimTime = SimTime(1_000_000);

/// The replies a traced closed loop captured.
#[derive(Default)]
pub struct Capture {
    pub samples: Vec<(SearchSpec, Outcome)>,
}

impl Capture {
    pub fn observe(&mut self, spec: &SearchSpec, outcome: &Outcome) {
        if self.samples.len() < CAPTURE_PER_THREAD {
            self.samples.push((spec.clone(), outcome.clone()));
        }
    }
}

/// One named value with its unit, as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counter deltas over the untraced timed phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub gris: GrisStats,
    pub giis: GiisStats,
}

impl Counters {
    pub fn read(topo: &Topology) -> Counters {
        let mut gris = GrisStats::default();
        for h in &topo.gris {
            let s = h.stats();
            gris.queries += s.queries;
            gris.cache_hits += s.cache_hits;
            gris.cache_misses += s.cache_misses;
            gris.provider_invocations += s.provider_invocations;
        }
        Counters {
            gris,
            giis: topo.giis.as_ref().map(|g| g.stats()).unwrap_or_default(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let g = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            gris: GrisStats {
                queries: g(self.gris.queries, before.gris.queries),
                cache_hits: g(self.gris.cache_hits, before.gris.cache_hits),
                cache_misses: g(self.gris.cache_misses, before.gris.cache_misses),
                provider_invocations: g(
                    self.gris.provider_invocations,
                    before.gris.provider_invocations,
                ),
                ..GrisStats::default()
            },
            giis: GiisStats {
                searches: g(self.giis.searches, before.giis.searches),
                chained_requests: g(self.giis.chained_requests, before.giis.chained_requests),
                timeouts: g(self.giis.timeouts, before.giis.timeouts),
                breaker_skips: g(self.giis.breaker_skips, before.giis.breaker_skips),
                harvests: g(self.giis.harvests, before.giis.harvests),
                ..GiisStats::default()
            },
        }
    }
}

/// Queries timed by [`idle_p50_us`].
const IDLE_PROBES: usize = 1000;

/// Median latency (µs) of the mix's own queries sent one at a time on an
/// otherwise idle topology: every stage of the ledger plus the socket,
/// reactor and thread hand-offs between them, but no queueing. The
/// ledger splits its residual with it.
pub fn idle_p50_us(client: &mut LiveClient, target: &LdapUrl, mix: &Mix) -> f64 {
    let times: Vec<f64> = mix
        .specs
        .iter()
        .take(IDLE_PROBES)
        .map(|spec| {
            let t = Instant::now();
            let _ = client
                .request(target, spec.clone())
                .timeout(Duration::from_secs(5))
                .send();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// What the untraced phases measured, for reconciliation.
pub struct Untraced {
    pub qps: f64,
    /// [`idle_p50_us`] of the same topology.
    pub idle_p50_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub open_samples: usize,
    pub late_p99_us: f64,
    pub fail_frac: f64,
    pub counters: Counters,
}

/// The monitoring namespace of the queried service, read over GRIP.
pub struct Monitoring {
    entries: Vec<Entry>,
}

impl Monitoring {
    pub fn read(client: &mut LiveClient, target: &LdapUrl) -> Result<Monitoring, String> {
        let spec = SearchSpec::subtree(monitoring_base(), Filter::always());
        let outcome = client
            .request(target, spec)
            .timeout(Duration::from_secs(10))
            .send()
            .outcome;
        let Some((ResultCode::Success, entries, _)) = outcome else {
            return Err(format!("monitoring search failed: {outcome:?}"));
        };
        let own = monitoring_base().child(Rdn::new("service", target.to_string()));
        Ok(Monitoring {
            entries: entries
                .into_iter()
                .filter(|e| e.dn().is_under(&own))
                .collect(),
        })
    }

    /// Histograms named `name` or `name:<label>`, as (count, entry).
    fn histograms(&self, name: &str) -> Vec<(u64, &Entry)> {
        self.entries
            .iter()
            .filter(|e| {
                e.dn().rdn().is_some_and(|r| {
                    r.attr() == "metric"
                        && (r.value() == name || r.value().starts_with(&format!("{name}:")))
                })
            })
            .map(|e| (field(e, "count"), e))
            .collect()
    }

    /// A quantile field of the busiest histogram named `name`.
    fn busiest(&self, name: &str, quantile: &str) -> f64 {
        self.histograms(name)
            .into_iter()
            .max_by_key(|(n, _)| *n)
            .map_or(0.0, |(_, e)| field(e, quantile) as f64)
    }
}

fn field(e: &Entry, attr: &str) -> u64 {
    e.get_str(attr).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Nanoseconds of one call of `f`, fastest of [`REPS`].
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn encode(msg: &ProtocolMessage) -> Vec<u8> {
    frame_bytes(msg).expect("captured messages fit a frame")
}

fn decode(bytes: &[u8]) -> ProtocolMessage {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    dec.next()
        .expect("well-formed frame")
        .expect("one whole frame")
}

fn search_request(spec: &SearchSpec) -> ProtocolMessage {
    ProtocolMessage::Request(GripRequest::Search {
        id: 1,
        spec: spec.clone(),
    })
}

fn search_reply(code: ResultCode, entries: Vec<Entry>) -> ProtocolMessage {
    ProtocolMessage::Reply(GripReply::SearchResult {
        id: 1,
        code,
        entries,
        referrals: Vec::new(),
    })
}

/// Per-query wire costs of one message: encode, decode (ns), size.
struct Codec {
    encode_ns: f64,
    decode_ns: f64,
    bytes: usize,
}

fn codec(msg: &ProtocolMessage) -> Codec {
    let bytes = encode(msg);
    Codec {
        encode_ns: time_ns(|| encode(msg)),
        decode_ns: time_ns(|| decode(&bytes)),
        bytes: bytes.len(),
    }
}

/// One row of the ledger: a stage's per-query times in µs.
pub struct Stage {
    pub name: &'static str,
    pub us: Spread,
}

impl Stage {
    fn new(name: &'static str, us: Vec<f64>) -> Stage {
        Stage {
            name,
            us: Spread::of(&us),
        }
    }
}

/// The traced run's result: the stage table and every per-layer metric.
pub struct Ledger {
    pub stages: Vec<Stage>,
    pub residual_us: f64,
    pub idle_p50_us: f64,
    pub total_us: f64,
    pub metrics: Vec<Metric>,
}

/// Offline copies of the GRIS engines, for `Gris::search` timings and
/// the chained GIIS's children.
fn offline_gris(inputs: &Inputs) -> Vec<(LdapUrl, Gris)> {
    (0..inputs.gris_count())
        .map(|i| {
            let mut g = inputs.gris(i);
            let url = LdapUrl::server(format!("site{i}.bench"));
            g.config.url = url.clone();
            // What `ServeOptions::security` does to the live engine.
            if let Some(sec) = &inputs.security {
                g.config.security = sec.server_policy();
            }
            (url, g)
        })
        .collect()
}

fn requester(inputs: &Inputs) -> Requester {
    inputs
        .security
        .as_ref()
        .map_or_else(Requester::anonymous, |s| s.requester())
}

fn policy(inputs: &Inputs) -> PolicyMap {
    inputs
        .security
        .as_ref()
        .map_or_else(PolicyMap::open, |s| s.policy_map.clone())
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Build the ledger. `samples` are the traced loop's captured replies;
/// `scratch` is a fresh directory (created on use) for the journal
/// timings.
#[allow(clippy::too_many_arguments)]
pub fn build(
    inputs: &Inputs,
    target: &LdapUrl,
    samples: &[(SearchSpec, Outcome)],
    handshakes: &[Duration],
    untraced: &Untraced,
    traced_qps: f64,
    monitoring: &Monitoring,
    scratch: &Path,
) -> Result<Ledger, String> {
    if samples.is_empty() {
        return Err("the traced loop captured no replies".into());
    }
    let n = samples.len() as f64;
    let req = requester(inputs);
    let map = policy(inputs);
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });

    // proto: the client's request and the server's reply, both ways.
    let requests: Vec<Codec> = samples
        .iter()
        .map(|(s, _)| codec(&search_request(s)))
        .collect();
    let replies: Vec<Codec> = samples
        .iter()
        .map(|(_, (code, es, _))| codec(&search_reply(*code, es.clone())))
        .collect();
    let per_query = |f: &dyn Fn(&Codec) -> f64| -> Vec<f64> {
        requests
            .iter()
            .zip(&replies)
            .map(|(a, b)| f(a) + f(b))
            .collect()
    };
    put(
        "proto.frame.encode_ns",
        median(&per_query(&|c| c.encode_ns)),
        "ns",
    );
    put(
        "proto.frame.decode_ns",
        median(&per_query(&|c| c.decode_ns)),
        "ns",
    );
    let reply_bytes: Vec<f64> = replies.iter().map(|c| c.bytes as f64).collect();
    put("proto.frame.reply_bytes", median(&reply_bytes), "bytes");

    // gsi: handshakes, bind-token verification, ACL redaction.
    let hs: Vec<f64> = handshakes.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    put("gsi.auth.handshake_us", median(&hs), "us");
    let auth_us = match &inputs.security {
        Some(sec) => {
            let name = target.to_string();
            let auth = Authenticator::new(sec.trust.clone(), name.clone());
            let token = BindToken::create(&sec.client, &name).to_bytes();
            if auth.authenticate(&token).is_none() {
                return Err("the client's bind token does not verify".into());
            }
            let times: Vec<f64> = (0..64)
                .map(|_| time_ns(|| auth.authenticate(&token)))
                .collect();
            us(median(&times))
        }
        None => 0.0,
    };
    put("gsi.auth.authenticate_us", auth_us, "us");
    let entries_out: usize = samples.iter().map(|(_, o)| o.1.len()).sum();
    let mut redact_ns = 0.0;
    let mut clone_ns = 0.0;
    for (_, (_, es, _)) in samples {
        for e in es {
            // Same subject, same returned bytes: permit-all redaction
            // must hand back the entry unchanged.
            if map.redact(e, &req).as_ref() != Some(e) {
                return Err(format!("policy map altered {}", e.dn()));
            }
        }
        redact_ns += time_ns(|| es.iter().map(|e| map.redact(e, &req)).collect::<Vec<_>>());
        clone_ns += time_ns(|| es.iter().map(|e| Some(e.clone())).collect::<Vec<_>>());
    }
    let per_entry = |ns: f64| ns / entries_out.max(1) as f64;
    put("gsi.acl.redact_ns_per_entry", per_entry(redact_ns), "ns");
    put("gsi.acl.noacl_ns_per_entry", per_entry(clone_ns), "ns");
    put(
        "gsi.acl.tax_ns_per_entry",
        per_entry(redact_ns - clone_ns),
        "ns",
    );

    // ldap: filter parsing, DIT search over the same entries, bulk load.
    let parse: Vec<f64> = samples
        .iter()
        .map(|(s, _)| {
            let text = s.filter.to_string();
            time_ns(|| Filter::parse(&text))
        })
        .collect();
    put("ldap.filter.parse_ns", median(&parse), "ns");
    let all = inputs.entries();
    let dit = Dit::bulk_load(all.clone());
    let mut search_us = Vec::with_capacity(samples.len());
    for (s, (_, es, _)) in samples {
        let got = dit.search(&s.base, s.scope, &s.filter, &s.attrs, s.size_limit as usize);
        if Expect::of(&got) != Expect::of(es) {
            return Err(format!(
                "Dit::search disagrees with the live reply to {s:?}"
            ));
        }
        search_us.push(us(time_ns(|| {
            dit.search(&s.base, s.scope, &s.filter, &s.attrs, s.size_limit as usize)
        })));
    }
    put("ldap.dit.search_us", median(&search_us), "us");
    let results: usize = inputs.mix.expect.iter().map(|e| e.count).sum();
    put(
        "ldap.dit.results_per_query",
        results as f64 / inputs.mix.expect.len() as f64,
        "count",
    );
    let batch: Vec<Arc<Entry>> = match inputs.sites.first() {
        Some(site) => site.entries().cloned().map(Arc::new).collect(),
        None => all.iter().cloned().map(Arc::new).collect(),
    };
    let loads: Vec<f64> = (0..5)
        .map(|_| time_ns(|| Dit::bulk_load_shared(batch.clone())) / 1e6)
        .collect();
    put("ldap.dit.bulk_load_ms", median(&loads), "ms");

    // gris: identically built engines, searched directly.
    let engines = offline_gris(inputs);
    let gris_us: Vec<f64> = match inputs.workload {
        // The harvest_scan GRIS only ever answers the GIIS's harvest.
        Workload::HarvestScan => {
            let spec = SearchSpec::subtree(Dn::root(), Filter::always());
            let g = &engines[0].1;
            g.search(&spec, &req, OFFLINE_NOW);
            (0..5)
                .map(|_| us(time_ns(|| g.search(&spec, &req, OFFLINE_NOW))))
                .collect()
        }
        _ => {
            let mut out = Vec::new();
            for (_, g) in &engines {
                for (s, _) in samples {
                    g.search(s, &req, OFFLINE_NOW);
                    out.push(us(time_ns(|| g.search(s, &req, OFFLINE_NOW))));
                }
            }
            out
        }
    };
    put("gris.search_us", median(&gris_us), "us");
    let c = &untraced.counters;
    let resolutions = c.gris.cache_hits + c.gris.cache_misses;
    put(
        "gris.cache_hit_ratio",
        ratio(c.gris.cache_hits, resolutions),
        "ratio",
    );
    put(
        "gris.provider_invocations_per_query",
        ratio(c.gris.provider_invocations, c.gris.queries),
        "ratio",
    );

    // giis: the local answer path (harvest) and the chained merge
    // (discovery), plus its counters and chain round trips.
    let mut local_us = Vec::new();
    if inputs.workload == Workload::HarvestScan {
        let path = harvested_giis(inputs, &engines)?.query_path();
        for (s, (_, es, _)) in samples {
            let run = || {
                let request = GripRequest::Search {
                    id: 1,
                    spec: s.clone(),
                };
                path.handle_query(u64::MAX, request, OFFLINE_NOW).ok()
            };
            match run() {
                Some(actions) if reply_matches(&actions, es) => {}
                other => return Err(format!("GiisQueryPath answered {s:?} with {other:?}")),
            }
            local_us.push(us(time_ns(run)));
        }
    }
    put("giis.local_query_us", median(&local_us), "us");
    let chain = if inputs.workload == Workload::Discovery {
        Some(chain_path(inputs, &engines, samples, &req)?)
    } else {
        None
    };
    // The chaining metrics exist only where a GIIS chains.
    if let Some(ch) = &chain {
        put("giis.chain_merge_us", median(&ch.merge_us), "us");
        put(
            "giis.fanout_per_query",
            ratio(c.giis.chained_requests, c.giis.searches),
            "ratio",
        );
        put(
            "giis.chain_rtt_us",
            monitoring.busiest("chain-rtt-us", "p50-us"),
            "us",
        );
        put(
            "giis.chain_rtt_p99_us",
            monitoring.busiest("chain-rtt-us", "p99-us"),
            "us",
        );
        put("giis.timeouts", c.giis.timeouts as f64, "count");
        put("giis.breaker_skips", c.giis.breaker_skips as f64, "count");
    }
    put("giis.harvests", c.giis.harvests as f64, "count");

    // core: the live histograms the services publish.
    put(
        "core.live.inbox_wait_p50_us",
        monitoring.busiest("inbox-wait-us", "p50-us"),
        "us",
    );
    put(
        "core.live.inbox_wait_p99_us",
        monitoring.busiest("inbox-wait-us", "p99-us"),
        "us",
    );
    put(
        "core.live.search_us",
        monitoring.busiest("search-us", "p50-us"),
        "us",
    );
    put(
        "core.live.search_p99_us",
        monitoring.busiest("search-us", "p99-us"),
        "us",
    );
    put(
        "core.reactor.dispatch_p50_us",
        monitoring.busiest("reactor-dispatch-us", "p50-us"),
        "us",
    );
    put(
        "core.reactor.dispatch_p99_us",
        monitoring.busiest("reactor-dispatch-us", "p99-us"),
        "us",
    );
    put(
        "core.reactor.ready_per_wake_p50",
        monitoring.busiest("reactor-ready-per-wake", "p50-us"),
        "count",
    );

    // store: the workload's own WAL records, same fsync policy as live.
    let (log_us, bytes_per_s) = if inputs.workload == Workload::HarvestScan {
        wal_timing(inputs, scratch)?
    } else {
        (0.0, 0.0)
    };
    put("store.wal.log_us", log_us, "us");
    put("store.wal.bytes_per_s", bytes_per_s, "B/s");

    // The stage table: per-query medians along the blocking path.
    let col = |f: &dyn Fn(&Codec) -> f64, of: &[Codec]| -> Vec<f64> {
        of.iter().map(|c| us(f(c))).collect()
    };
    let enc = |c: &Codec| c.encode_ns;
    let dec = |c: &Codec| c.decode_ns;
    let mut stages = vec![
        Stage::new("client.encode_request", col(&enc, &requests)),
        Stage::new("server.decode_request", col(&dec, &requests)),
    ];
    match (&chain, inputs.workload) {
        (Some(ch), _) => {
            stages.push(Stage::new("giis.chain_merge", ch.merge_us.clone()));
            stages.push(Stage::new(
                "giis.encode_child_requests",
                ch.child_req_encode_us.clone(),
            ));
            stages.push(Stage::new(
                "gris.decode_request",
                ch.child_req_decode_us.clone(),
            ));
            stages.push(Stage::new("gris.search", ch.child_search_us.clone()));
            stages.push(Stage::new(
                "gris.encode_reply",
                ch.child_reply_encode_us.clone(),
            ));
            stages.push(Stage::new(
                "giis.decode_child_replies",
                ch.child_reply_decode_us.clone(),
            ));
        }
        (None, Workload::HarvestScan) => stages.push(Stage::new("giis.local_query", local_us)),
        (None, _) => stages.push(Stage::new("gris.search", gris_us)),
    }
    stages.push(Stage::new("server.encode_reply", col(&enc, &replies)));
    stages.push(Stage::new("client.decode_reply", col(&dec, &replies)));
    let explained: f64 = stages.iter().map(|s| s.us.p50).sum();
    let residual_us = untraced.p50_us - explained;
    put("core.residual_us", residual_us, "us");
    put("core.idle_p50_us", untraced.idle_p50_us, "us");
    put("core.handoff_us", untraced.idle_p50_us - explained, "us");
    put(
        "core.queueing_us",
        untraced.p50_us - untraced.idle_p50_us,
        "us",
    );

    put("p99_us", untraced.p99_us, "us");
    put("bench.open_samples", untraced.open_samples as f64, "count");
    put("bench.gen_late_p99_us", untraced.late_p99_us, "us");
    put("bench.fail_frac", untraced.fail_frac, "ratio");
    put(
        "bench.trace_overhead_pct",
        100.0 * (untraced.qps - traced_qps) / untraced.qps,
        "%",
    );
    put("bench.ledger_samples", n, "count");
    Ok(Ledger {
        stages,
        residual_us,
        idle_p50_us: untraced.idle_p50_us,
        total_us: untraced.p50_us,
        metrics: m,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn reply_matches(actions: &[GiisAction], expected: &[Entry]) -> bool {
    matches!(
        actions,
        [GiisAction::Reply {
            reply: GripReply::SearchResult { code: ResultCode::Success, entries, .. },
            ..
        }] if Expect::of(entries) == Expect::of(expected)
    )
}

/// Per-query stage times of the chained discovery path (µs).
struct ChainTimes {
    /// `handle_request` plus every `handle_reply` on the GIIS engine.
    merge_us: Vec<f64>,
    /// The GIIS encodes one request per child, serially.
    child_req_encode_us: Vec<f64>,
    /// Children work in parallel: the slowest child's time per query.
    child_req_decode_us: Vec<f64>,
    child_search_us: Vec<f64>,
    child_reply_encode_us: Vec<f64>,
    /// Child replies are decoded as they arrive, serially.
    child_reply_decode_us: Vec<f64>,
}

/// Drive an offline chaining GIIS (the sans-IO engine) over offline
/// copies of the children, timing each side of every leg, and check the
/// merged answer against the live reply.
fn chain_path(
    inputs: &Inputs,
    children: &[(LdapUrl, Gris)],
    samples: &[(SearchSpec, Outcome)],
    req: &Requester,
) -> Result<ChainTimes, String> {
    let mut giis = inputs.giis();
    register(&mut giis, children);
    let mut t = ChainTimes {
        merge_us: Vec::new(),
        child_req_encode_us: Vec::new(),
        child_req_decode_us: Vec::new(),
        child_search_us: Vec::new(),
        child_reply_encode_us: Vec::new(),
        child_reply_decode_us: Vec::new(),
    };
    for (n, (spec, (_, live, _))) in samples.iter().enumerate() {
        let request = GripRequest::Search {
            id: n as u64 + 1,
            spec: spec.clone(),
        };
        let started = Instant::now();
        let actions = giis.handle_request(7, request, OFFLINE_NOW);
        let mut merge = started.elapsed().as_nanos() as f64;
        let (mut req_enc, mut req_dec, mut search, mut rep_enc, mut rep_dec) =
            (0.0, 0.0f64, 0.0f64, 0.0f64, 0.0);
        let mut done = Vec::new();
        for action in actions {
            let GiisAction::SendRequest { to, request, .. } = action else {
                done.push(action);
                continue;
            };
            let GripRequest::Search {
                id,
                spec: child_spec,
            } = &request
            else {
                return Err(format!("unexpected chained request {request:?}"));
            };
            let (_, child) = children
                .iter()
                .find(|(u, _)| *u == to)
                .ok_or_else(|| format!("GIIS chained to unknown child {to}"))?;
            let leg = codec(&ProtocolMessage::Request(request.clone()));
            let (code, entries) = child.search(child_spec, req, OFFLINE_NOW);
            let s = time_ns(|| child.search(child_spec, req, OFFLINE_NOW));
            let reply = GripReply::SearchResult {
                id: *id,
                code,
                entries,
                referrals: Vec::new(),
            };
            let back = codec(&ProtocolMessage::Reply(reply.clone()));
            req_enc += leg.encode_ns;
            req_dec = req_dec.max(leg.decode_ns);
            search = search.max(s);
            rep_enc = rep_enc.max(back.encode_ns);
            rep_dec += back.decode_ns;
            let started = Instant::now();
            let out = giis.handle_reply(&to, reply, OFFLINE_NOW);
            merge += started.elapsed().as_nanos() as f64;
            done.extend(out);
        }
        if !reply_matches(&done, live) {
            return Err(format!(
                "offline chained answer to {spec:?} differs: {done:?}"
            ));
        }
        t.merge_us.push(us(merge));
        t.child_req_encode_us.push(us(req_enc));
        t.child_req_decode_us.push(us(req_dec));
        t.child_search_us.push(us(search));
        t.child_reply_encode_us.push(us(rep_enc));
        t.child_reply_decode_us.push(us(rep_dec));
    }
    Ok(t)
}

/// Register every child with `giis` as its GRRP agent would, returning
/// the follow-up actions (harvest requests, in harvest mode).
fn register(giis: &mut Giis, children: &[(LdapUrl, Gris)]) -> Vec<GiisAction> {
    let ttl = gis_netsim::SimDuration(60_000_000);
    children
        .iter()
        .flat_map(|(url, g)| {
            let msg = GrrpMessage::register(url.clone(), g.config.suffix.clone(), OFFLINE_NOW, ttl);
            giis.handle_grrp(msg, OFFLINE_NOW)
        })
        .collect()
}

/// An offline harvest-mode GIIS built like the live one, its cache
/// filled by harvesting offline copies of the children.
fn harvested_giis(inputs: &Inputs, children: &[(LdapUrl, Gris)]) -> Result<Giis, String> {
    let mut giis = inputs.giis();
    let mut actions = register(&mut giis, children);
    actions.extend(giis.tick(OFFLINE_NOW));
    let anonymous = Requester::anonymous();
    for action in actions {
        let GiisAction::SendRequest {
            to,
            request: GripRequest::Search { id, spec },
            ..
        } = action
        else {
            continue;
        };
        let (_, child) = children
            .iter()
            .find(|(u, _)| *u == to)
            .ok_or_else(|| format!("GIIS harvested unknown child {to}"))?;
        let (code, entries) = child.search(&spec, &anonymous, OFFLINE_NOW);
        let reply = GripReply::SearchResult {
            id,
            code,
            entries,
            referrals: Vec::new(),
        };
        giis.handle_reply(&to, reply, OFFLINE_NOW);
    }
    Ok(giis)
}

/// Log each site's harvest batch into a fresh journal, fsync per record
/// as the live GIIS does: median µs per record and bytes per second.
fn wal_timing(inputs: &Inputs, scratch: &Path) -> Result<(f64, f64), String> {
    let storage = FileStorage::open(scratch).map_err(|e| format!("journal dir: {e}"))?;
    let opts = JournalOptions {
        snapshot_every: 512,
        base: TimeBase::Absolute,
        ..Default::default()
    };
    let (mut journal, _, _) = Journal::open(Arc::new(storage), opts, OFFLINE_NOW);
    let wal = scratch.join(gis_store::WAL_FILE);
    let size = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let mut times = Vec::new();
    let mut bytes = 0u64;
    let mut secs = 0.0;
    for _ in 0..2 {
        for (i, site) in inputs.sites.iter().enumerate() {
            let op = WalOp::Harvest {
                child: LdapUrl::server(format!("site{i}.bench")),
                entries: site.entries().cloned().collect(),
                now: OFFLINE_NOW,
            };
            let before = size();
            let t = Instant::now();
            journal.log(&op).map_err(|e| format!("journal log: {e}"))?;
            let d = t.elapsed().as_secs_f64();
            bytes += size() - before;
            secs += d;
            times.push(d * 1e6);
        }
    }
    Ok((median(&times), bytes as f64 / secs))
}
