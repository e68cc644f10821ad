//! The load generator: one thread per client connection (two of each),
//! driving a closed loop of pipelined batches or an open loop on a fixed
//! schedule. Every reply goes through the oracle before it counts.

use crate::oracle::{check, Outcome, Tally, Verdict};
use crate::topo::Mix;
use gis_core::LiveClient;
use gis_ldap::LdapUrl;
use gis_proto::{GripReply, GripRequest, RequestId, SearchSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// In-flight requests per connection in the closed loop.
pub const DEPTH: usize = 8;
/// A reply later than this is a timeout (a failure).
pub const TIMEOUT: Duration = Duration::from_secs(5);
/// Each timed phase is summarised per slice of this length, and its
/// figure is the interquartile mean over the slices: a slow spell of the
/// host that covers a minority of a phase does not move it.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Run `body(k, client, state)` for every client, client 0 on the
/// calling thread and each other on a scoped thread of its own: the
/// generator never has more threads than connections.
fn per_client<S: Send, R: Send>(
    clients: &mut [LiveClient],
    states: Vec<S>,
    body: impl Fn(usize, &mut LiveClient, S) -> R + Sync,
) -> Vec<R> {
    assert_eq!(states.len(), clients.len(), "one state per client");
    let body = &body;
    std::thread::scope(|sc| {
        let mut work = clients.iter_mut().zip(states).enumerate();
        let (k0, (c0, s0)) = work.next().expect("at least one client");
        let handles: Vec<_> = work
            .map(|(k, (c, s))| sc.spawn(move || body(k, c, s)))
            .collect();
        let mut out = vec![body(k0, c0, s0)];
        out.extend(handles.into_iter().map(|h| h.join().expect("load thread")));
        out
    })
}

/// What a closed-loop phase achieved.
#[derive(Debug, Clone, Default)]
pub struct Closed {
    pub tally: Tally,
    pub elapsed: Duration,
    /// Correct replies completed in each [`WINDOW`] of the phase.
    pub per_window: Vec<u64>,
}

impl Closed {
    /// Correct replies per second: the interquartile mean over the
    /// phase's whole windows, or over the phase when it is shorter than
    /// one window.
    pub fn qps(&self) -> f64 {
        let whole = crate::stats::slice_of(self.elapsed, WINDOW);
        if whole == 0 {
            return self.tally.ok as f64 / self.elapsed.as_secs_f64();
        }
        let rates: Vec<f64> = self.per_window[..whole.min(self.per_window.len())]
            .iter()
            .map(|&ok| ok as f64 / WINDOW.as_secs_f64())
            .collect();
        crate::stats::middle_mean(&rates)
    }
}

/// Closed loop: each connection sends a depth-[`DEPTH`] pipelined batch,
/// waits for all of it, checks it, and sends the next, until `duration`
/// has passed. `observe` sees every correct reply with its request, on
/// the thread that received it, through that thread's `probe`.
pub fn closed_loop<P: Send>(
    clients: &mut [LiveClient],
    target: &LdapUrl,
    mix: &Mix,
    duration: Duration,
    probes: Vec<P>,
    observe: impl Fn(&mut P, &SearchSpec, &Outcome) + Sync,
) -> (Closed, Vec<P>) {
    assert_eq!(mix.specs.len() % DEPTH, 0, "mix is whole batches");
    let n = clients.len();
    let start = Instant::now();
    let end = start + duration;
    let parts = per_client(clients, probes, |k, client, mut probe| {
        let mut tally = Tally::default();
        let mut per_window = Vec::new();
        let batches = mix.specs.len() / DEPTH;
        let mut batch = k * batches / n;
        while Instant::now() < end {
            let lo = batch * DEPTH;
            let specs = &mix.specs[lo..lo + DEPTH];
            let outcomes = client.search_pipelined(target, specs, DEPTH, TIMEOUT);
            let ok_before = tally.ok;
            for (i, outcome) in outcomes.iter().enumerate() {
                let verdict = check(outcome.as_ref(), &mix.expect[lo + i]);
                if let (Verdict::Ok, Some(o)) = (verdict, outcome) {
                    observe(&mut probe, &specs[i], o);
                }
                tally.add(verdict);
            }
            let w = crate::stats::slice_of(start.elapsed(), WINDOW);
            if per_window.len() <= w {
                per_window.resize(w + 1, 0);
            }
            per_window[w] += tally.ok - ok_before;
            batch = (batch + 1) % batches;
        }
        (tally, per_window, probe)
    });
    let elapsed = start.elapsed();
    let mut closed = Closed {
        elapsed,
        ..Closed::default()
    };
    let mut probes = Vec::with_capacity(n);
    for (t, w, p) in parts {
        closed.tally.merge(&t);
        if closed.per_window.len() < w.len() {
            closed.per_window.resize(w.len(), 0);
        }
        for (sum, ok) in closed.per_window.iter_mut().zip(w) {
            *sum += ok;
        }
        probes.push(p);
    }
    (closed, probes)
}

/// The open-loop send schedule of one connection: `n` connections share
/// the offered `rate`, each sending every `n / rate` seconds, staggered
/// so the merged stream is evenly spaced.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    end: Instant,
    interval: Duration,
    offset: Duration,
}

impl Schedule {
    pub fn new(start: Instant, duration: Duration, rate: f64, conn: usize, conns: usize) -> Self {
        let interval = Duration::from_secs_f64(conns as f64 / rate);
        Schedule {
            start,
            end: start + duration,
            interval,
            offset: interval.mul_f64(conn as f64 / conns as f64),
        }
    }

    /// When the `i`-th request of this connection is due, or `None` once
    /// that falls past the end of the phase.
    pub fn due(&self, i: u64) -> Option<Instant> {
        let at = self.start + self.offset + self.interval.mul_f64(i as f64);
        (at < self.end).then_some(at)
    }
}

/// What an open-loop phase observed.
#[derive(Debug, Clone, Default)]
pub struct Open {
    pub tally: Tally,
    /// Each correct reply: when it was due, from the start of the phase,
    /// and its latency from then (µs).
    pub latency_us: Vec<(Duration, f64)>,
    /// How late each request was actually sent (µs).
    pub late_us: Vec<f64>,
}

/// Open loop at `rate` queries/s shared by the clients, for `duration`.
/// Each request is timed from when it was due, so a stall of the system
/// (or of the generator, reported in `late_us`) counts against every
/// request scheduled behind it.
pub fn open_loop(
    clients: &mut [LiveClient],
    target: &LdapUrl,
    mix: &Mix,
    rate: f64,
    duration: Duration,
) -> Open {
    let n = clients.len();
    let start = Instant::now() + Duration::from_millis(1);
    let parts = per_client(clients, vec![(); n], |k, client, ()| {
        precise_sleep();
        let sched = Schedule::new(start, duration, rate, k, n);
        drive_open(client, target, mix, &sched, k, n)
    });
    let mut out = Open::default();
    for p in parts {
        out.tally.merge(&p.tally);
        out.latency_us.extend(p.latency_us);
        out.late_us.extend(p.late_us);
    }
    out
}

fn drive_open(
    client: &mut LiveClient,
    target: &LdapUrl,
    mix: &Mix,
    sched: &Schedule,
    conn: usize,
    conns: usize,
) -> Open {
    let mut out = Open::default();
    let mut inflight: HashMap<RequestId, (Instant, usize)> = HashMap::new();
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        let due = sched.due(i);
        if let Some(at) = due.filter(|at| *at <= now) {
            let idx = (i as usize * conns + conn) % mix.specs.len();
            let spec = mix.specs[idx].clone();
            let id = client.send(target, |id| GripRequest::Search { id, spec });
            out.late_us.push(micros(now - at));
            inflight.insert(id, (at, idx));
            i += 1;
            continue;
        }
        if inflight.is_empty() {
            match due {
                Some(at) => std::thread::sleep(at - now),
                None => break,
            }
            continue;
        }
        // Wait for a reply, but not past the next send: the socket read
        // returns as soon as any reply bytes arrive.
        let wait = due.map_or(TIMEOUT, |at| at - now);
        match client.recv(wait) {
            Some(GripReply::SearchResult {
                id,
                code,
                entries,
                referrals,
            }) => {
                let received = Instant::now();
                if let Some((at, idx)) = inflight.remove(&id) {
                    let outcome = (code, entries, referrals);
                    let verdict = check(Some(&outcome), &mix.expect[idx]);
                    if verdict == Verdict::Ok {
                        out.latency_us
                            .push((at - sched.start, micros(received - at)));
                    }
                    out.tally.add(verdict);
                }
            }
            Some(_) => {}
            None => {
                let now = Instant::now();
                let before = inflight.len();
                inflight.retain(|_, (at, _)| now.duration_since(*at) < TIMEOUT);
                for _ in inflight.len()..before {
                    out.tally.add(Verdict::Timeout);
                }
            }
        }
    }
    out
}

/// Make this thread's sleeps end on time: Linux lets a sleep overrun by
/// the thread's timer slack (50 µs by default), which at open-loop rates
/// would make the generator, not the system, set the latency floor.
#[cfg(target_os = "linux")]
fn precise_sleep() {
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    extern "C" {
        fn prctl(
            option: std::os::raw::c_int,
            arg2: std::os::raw::c_ulong,
            ...
        ) -> std::os::raw::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // nanoseconds) and only changes the calling thread's timer slack; it
    // touches no memory of ours. A failure leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleep() {}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_the_merged_stream_evenly() {
        let t0 = Instant::now();
        let secs = Duration::from_secs(1);
        let a = Schedule::new(t0, secs, 1000.0, 0, 2);
        let b = Schedule::new(t0, secs, 1000.0, 1, 2);
        // Each connection sends every 2 ms, the second 1 ms after the first.
        assert_eq!(a.due(0), Some(t0));
        assert_eq!(b.due(0), Some(t0 + Duration::from_millis(1)));
        assert_eq!(a.due(1), Some(t0 + Duration::from_millis(2)));
        let mut merged: Vec<Instant> = (0..)
            .map_while(|i| a.due(i))
            .chain((0..).map_while(|i| b.due(i)))
            .collect();
        merged.sort();
        // The phase offers exactly rate x duration requests.
        assert_eq!(merged.len(), 1000);
        for w in merged.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap > Duration::from_micros(999) && gap < Duration::from_micros(1001),
                "uneven gap {gap:?}"
            );
        }
    }

    #[test]
    fn schedule_ends_with_the_phase() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, Duration::from_millis(10), 100.0, 0, 1);
        assert!(s.due(0).is_some());
        assert_eq!(s.due(1), None, "10 ms at 100/s holds one request");
    }

    #[test]
    fn closed_qps_is_the_middle_mean_of_whole_windows() {
        let closed = Closed {
            tally: Tally {
                ok: 3_600,
                attempted: 3_600,
                ..Tally::default()
            },
            elapsed: WINDOW * 4 + WINDOW / 2,
            // The slow and the fast window are dropped, and so is the
            // half window at the end.
            per_window: vec![1_000, 100, 1_200, 1_300, 600],
        };
        assert_eq!(closed.qps(), 1_100.0 / WINDOW.as_secs_f64());
        let short = Closed {
            elapsed: WINDOW / 2,
            per_window: vec![10],
            tally: Tally {
                ok: 10,
                attempted: 10,
                ..Tally::default()
            },
        };
        assert_eq!(short.qps(), 10.0 / (WINDOW / 2).as_secs_f64());
    }
}
