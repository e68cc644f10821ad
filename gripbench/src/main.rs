//! gripbench — the repository's end-to-end benchmark.
//!
//! Starts GRIS and GIIS engines in-process on real TCP loopback sockets
//! (`gis_core::LiveRuntime`), drives them from two client connections,
//! checks every reply against an oracle, and prints one JSON result line.
//! See README.md in this directory for the workloads, the metrics and
//! how to read the per-layer ledger.
//!
//! ```text
//! gripbench --workload <lookup|discovery|harvest_scan> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```

mod ledger;
mod load;
mod oracle;
mod rng;
mod stats;
mod synth;
mod topo;

use ledger::{Capture, Counters, Ledger, Metric, Monitoring, Untraced};
use oracle::Tally;
use stats::Spread;
use std::path::Path;
use std::time::{Duration, Instant};
use topo::{Inputs, Topology, Workload};

/// Client connections, and so load-generator threads.
const CONNS: usize = 2;
/// Closed-loop batches per connection that end every set-up.
const WARMUP_BATCHES: usize = 32;
/// Where persisted GIIS state and journal timings live, under the
/// working directory; removed before the run exits.
const STATE_DIR: &str = ".bench_state";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: spawn, converge (oracle-checked), handshake, warm up.
///
/// Convergence is polled over a probe connection that is closed before
/// the load connections dial: by then every service-to-service
/// connection exists, so the two load connections register back to back
/// and the reactor's round-robin puts them on different shards in every
/// run, instead of wherever a registration race leaves them.
fn set_up(
    inputs: &Inputs,
    state: Option<&Path>,
) -> Result<(Topology, Vec<gis_core::LiveClient>), String> {
    let topo = Topology::spawn(inputs, state)?;
    let mut probe = topo.connect(inputs, 1)?;
    topo.converge(&mut probe[0], &inputs.probe)?;
    drop(probe);
    let mut clients = topo.connect(inputs, CONNS)?;
    for client in &mut clients {
        let mut tally = Tally::default();
        for b in 0..WARMUP_BATCHES {
            let lo = (b * load::DEPTH) % inputs.mix.specs.len();
            let specs = &inputs.mix.specs[lo..lo + load::DEPTH];
            let outcomes = client.search_pipelined(&topo.target, specs, load::DEPTH, load::TIMEOUT);
            for (o, e) in outcomes.iter().zip(&inputs.mix.expect[lo..]) {
                tally.add(oracle::check(o.as_ref(), e));
            }
        }
        if tally.failed() > 0 {
            return Err(format!(
                "warm-up failed the oracle on {}: {tally:?}",
                topo.target
            ));
        }
    }
    Ok((topo, clients))
}

struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

/// One run. Persisted GIIS state and journal timings go under
/// `run_dir`, which the caller removes.
fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    let phase = Duration::from_secs(args.seconds) / 2;
    let rate = args.workload.open_rate();
    // Only the harvesting GIIS persists (`ServeOptions::persist`).
    let state_for = |rep: usize| {
        (args.workload == Workload::HarvestScan).then(|| run_dir.join(format!("setup-{rep}")))
    };

    let t0 = Instant::now();
    let (topo, mut clients) = set_up(&inputs, state_for(0).as_deref())?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    let handshakes: Vec<Duration> = clients.iter().filter_map(|c| c.handshake_rtt()).collect();

    let before = Counters::read(&topo);
    let open = load::open_loop(&mut clients, &topo.target, &inputs.mix, rate, phase);
    // Read before the closed loop, whose traffic grows with throughput,
    // and before the other set-ups, whose transient overlaps vary: the
    // peak then rests on one set-up plus the open loop's fixed traffic.
    let rss = peak_rss_mib();
    let (closed, _) = load::closed_loop(
        &mut clients,
        &topo.target,
        &inputs.mix,
        phase,
        vec![(); CONNS],
        |_, _, _| {},
    );
    let counters = Counters::read(&topo).since(&before);

    let mut tally = closed.tally;
    tally.merge(&open.tally);
    let pooled: Vec<f64> = open.latency_us.iter().map(|&(_, us)| us).collect();
    let latency = Spread::of(&pooled);
    let p50_us = stats::windowed_p50(&open.latency_us, load::WINDOW);
    let late = Spread::of(&open.late_us);
    println!(
        "workload {} seed {} | first set-up {first_setup_s:.3}s | {} GRIS{}",
        args.workload.name(),
        args.seed,
        topo.gris.len(),
        if topo.giis.is_some() { " + 1 GIIS" } else { "" },
    );
    println!(
        "open loop: {rate:.0} q/s for {:.1}s -> p50 {p50_us:.1}us \
         (pooled {:.1}us) p99 {:.1}us over {} samples; \
         generator late p50 {:.1}us p99 {:.1}us ({:?})",
        phase.as_secs_f64(),
        latency.p50,
        latency.p99,
        latency.n,
        late.p50,
        late.p99,
        open.tally,
    );
    println!(
        "closed loop: {CONNS} conns x depth {} for {:.1}s -> {:.0} correct q/s ({:?})",
        load::DEPTH,
        closed.elapsed.as_secs_f64(),
        closed.qps(),
        closed.tally,
    );
    let correct = tally.mismatches == 0;
    if latency.n == 0 {
        return Err("the open loop produced no correct replies".into());
    }

    let metrics = if args.trace {
        let untraced = Untraced {
            qps: closed.qps(),
            idle_p50_us: ledger::idle_p50_us(&mut clients[0], &topo.target, &inputs.mix),
            p50_us,
            p99_us: latency.p99,
            open_samples: latency.n,
            late_p99_us: late.p99,
            fail_frac: tally.failed() as f64 / tally.attempted as f64,
            counters,
        };
        let (traced, captures) = load::closed_loop(
            &mut clients,
            &topo.target,
            &inputs.mix,
            phase / 2,
            (0..CONNS).map(|_| Capture::default()).collect(),
            |cap, spec, outcome| cap.observe(spec, outcome),
        );
        let monitoring = Monitoring::read(&mut clients[0], &topo.target)?;
        drop(clients);
        let target = topo.target.clone();
        topo.shutdown();
        let samples: Vec<_> = captures.into_iter().flat_map(|c| c.samples).collect();
        let ledger = ledger::build(
            &inputs,
            &target,
            &samples,
            &handshakes,
            &untraced,
            traced.qps(),
            &monitoring,
            &run_dir.join("wal"),
        )?;
        print_ledger(&ledger);
        ledger.metrics
    } else {
        drop(clients);
        topo.shutdown();
        let reps = args.workload.setup_reps();
        let mut setups = vec![first_setup_s];
        for rep in 1..reps {
            let t0 = Instant::now();
            let (topo, clients) = set_up(&inputs, state_for(rep).as_deref())?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(clients);
            topo.shutdown();
        }
        let setup_s = stats::median(&setups);
        println!("set-up: {setup_s:.3}s, median of {reps}: {setups:.3?}");
        vec![
            Metric {
                name: "qps",
                value: closed.qps(),
                unit: "queries/s",
            },
            Metric {
                name: "p50_us",
                value: p50_us,
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "rss_mb",
                value: rss,
                unit: "MiB",
            },
        ]
    };
    Ok(Outcome {
        correct,
        tally,
        metrics,
    })
}

fn print_ledger(ledger: &Ledger) {
    let share = |us: f64| 100.0 * us / ledger.total_us;
    let explained = ledger.total_us - ledger.residual_us;
    println!(
        "ledger (per query, untraced open-loop p50 = {:.1}us):",
        ledger.total_us
    );
    println!(
        "  {:<28} {:>10} {:>10} {:>7}",
        "stage", "p50 us", "p99 us", "share"
    );
    for s in &ledger.stages {
        println!(
            "  {:<28} {:>10.2} {:>10.2} {:>6.1}%",
            s.name,
            s.us.p50,
            s.us.p99,
            share(s.us.p50)
        );
    }
    for (name, us) in [
        ("core.residual", ledger.residual_us),
        (
            "  socket, reactor, hand-offs",
            ledger.idle_p50_us - explained,
        ),
        (
            "  queueing at the rate",
            ledger.total_us - ledger.idle_p50_us,
        ),
    ] {
        println!("  {name:<28} {us:>10.2} {:>10} {:>6.1}%", "-", share(us));
    }
    for m in &ledger.metrics {
        println!("  {:<36} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.tally.attempted,
        out.tally.failed(),
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a value that is not finite is reported
/// as 0 (it can only come from an empty sample set).
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gripbench: {e}");
            std::process::exit(2);
        }
    };
    let state_root = match std::env::current_dir() {
        Ok(cwd) => cwd.join(STATE_DIR),
        Err(e) => {
            eprintln!("gripbench: no working directory: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = state_root.join(std::process::id().to_string());
    let result = run(&args, &run_dir);
    // Leave nothing behind, whatever the outcome; the shared directory
    // stays only while another run is using it.
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(&state_root);
    match result {
        Ok(out) => println!("{}", json(&out)),
        Err(e) => {
            eprintln!("gripbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload discovery --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Discovery);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload lookup --seed").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            correct: true,
            tally: Tally {
                attempted: 3,
                ok: 2,
                timeouts: 1,
                ..Tally::default()
            },
            metrics: vec![Metric {
                name: "qps",
                value: 1.5,
                unit: "queries/s",
            }],
        };
        assert_eq!(
            json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"qps\": {\"value\": 1.5, \"unit\": \"queries/s\"}}}"
        );
    }
}
