//! Per-layer replay of a recorded link stream.
//!
//! Each layer is rebuilt through its public constructor and driven
//! with exactly the calls the event loop made on it, in the recorded
//! order; the loop over one link is one timed span. Per-call timers
//! would cost more than the calls they time (an admission decision is
//! a few ns, a clock read is tens), so cost is span time divided by
//! calls made. The replays double as checks: policy verdicts, the
//! scheduler's dequeue order, the timer core's pop order and open-loop
//! source emissions must equal the recorded ones.

use crate::ledger::Spans;
use crate::record::{Kind, Rec};
use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::Verdict;
use qbm_core::units::{Dur, Rate, Time};
use qbm_sched::{PacketRef, SchedKind};
use qbm_sim::event::Event;
use qbm_sim::{EventCore, IndexedTimers, PolicySpec, StatsCollector, StatsConfig};
use qbm_traffic::{Feedback, Source, SourceKind};
use std::hint::black_box;
use std::time::Instant;

/// Everything needed to rebuild one link's layers.
pub struct LinkSetup<'a> {
    pub rate: Rate,
    pub specs: &'a [FlowSpec],
    pub buffer: u64,
    pub policy: &'a PolicySpec,
    pub sched: &'a SchedKind,
    pub stats: StatsConfig,
    pub end: Time,
    pub seed: u64,
    /// Cost of one clock-timed empty region, ns.
    pub clock_ns: f64,
}

/// Time spent and calls made in one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: f64,
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, start: Instant, end: Instant, calls: u64) {
        self.ns += end.duration_since(start).as_nanos() as f64;
        self.calls += calls;
    }

    /// Mean ns per call (0 when the layer made no calls).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Replay mismatches, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mismatches {
    pub policy: u64,
    pub sched: u64,
    pub timers: u64,
    pub sources: u64,
}

impl Mismatches {
    pub fn any(&self) -> bool {
        self.policy + self.sched + self.timers + self.sources > 0
    }
}

/// Summed replay costs over every replayed link or cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerLedger {
    pub policy: Cost,
    pub sched: Cost,
    pub timers: Cost,
    pub stats: Cost,
    pub emission: Cost,
    pub feedback: Cost,
    /// Arrivals plus departures replayed.
    pub events: u64,
    pub mismatches: Mismatches,
}

impl LayerLedger {
    /// ns the replayed layers cost per replayed event.
    pub fn layer_ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        let ns = self.policy.ns
            + self.sched.ns
            + self.timers.ns
            + self.stats.ns
            + self.emission.ns
            + self.feedback.ns;
        ns / self.events as f64
    }
}

/// A feedback signal observed at a relay link, applied to its origin
/// flow at the epoch horizon `at` (the fabric's drain).
#[derive(Debug, Clone, Copy)]
pub struct RemoteFb {
    pub at: u64,
    pub flow: u32,
    pub fb: Feedback,
}

/// Origin sources of a link, rebuilt for the traffic replay.
pub enum Origin {
    /// Open-loop sources: emissions are checked against the recorded
    /// arrivals.
    Open(Vec<SourceKind>),
    /// Closed-loop sources with the remote signals that reach them.
    Closed(Vec<SourceKind>, Vec<RemoteFb>),
}

/// Replay every layer of one link over its recorded prefix, adding
/// costs and mismatches into `ledger` and one span per layer under
/// `parent`. Returns whether every replay check passed.
pub fn replay_link(
    setup: &LinkSetup,
    recs: &[Rec],
    origin: Option<Origin>,
    spans: &mut Spans,
    parent: usize,
    ledger: &mut LayerLedger,
) -> bool {
    ledger.events += recs
        .iter()
        .filter(|r| !matches!(r.kind(), Kind::Fb { .. }))
        .count() as u64;
    let miss = &mut ledger.mismatches;

    let t0 = Instant::now();
    let policy_ok = replay_policy(setup, recs, &mut ledger.policy);
    let t1 = Instant::now();
    spans.push("policy", t0, t1, Some(parent));
    miss.policy += u64::from(!policy_ok);

    let sched_ok = replay_sched(setup, recs, &mut ledger.sched);
    let t2 = Instant::now();
    spans.push("sched", t1, t2, Some(parent));
    miss.sched += u64::from(!sched_ok);

    let timers_ok = replay_timers(setup.specs.len(), recs, &mut ledger.timers);
    let t3 = Instant::now();
    spans.push("timers", t2, t3, Some(parent));
    miss.timers += u64::from(!timers_ok);

    replay_stats(setup, recs, &mut ledger.stats);
    let t4 = Instant::now();
    spans.push("stats", t3, t4, Some(parent));

    let sources_ok = match origin {
        Some(Origin::Open(sources)) => replay_open_sources(sources, recs, &mut ledger.emission),
        Some(Origin::Closed(sources, remote)) => {
            replay_closed_sources(
                sources,
                recs,
                &remote,
                setup.clock_ns,
                &mut ledger.emission,
                &mut ledger.feedback,
            );
            true
        }
        None => true,
    };
    spans.push("traffic", t4, Instant::now(), Some(parent));
    miss.sources += u64::from(!sources_ok);

    policy_ok && sched_ok && timers_ok && sources_ok
}

/// `admit` per arrival, `release` per departure; verdicts must match.
/// Stops at the first mismatch, since the policy state has diverged.
fn replay_policy(s: &LinkSetup, recs: &[Rec], cost: &mut Cost) -> bool {
    let mut policy = s.policy.build(s.buffer, s.rate, s.specs);
    let start = Instant::now();
    let mut admits = 0u64;
    let mut ok = true;
    for r in recs {
        let flow = FlowId(r.flow);
        let expect = match r.kind() {
            Kind::Enq => Verdict::Admit,
            Kind::Drop(reason) => Verdict::Drop(reason),
            Kind::Dep => {
                policy.release(flow, r.len());
                continue;
            }
            Kind::Fb { .. } => continue,
        };
        admits += 1;
        if policy.admit(flow, r.len()) != expect {
            ok = false;
            break;
        }
    }
    cost.add(start, Instant::now(), admits);
    ok
}

/// `enqueue` per admitted packet, `dequeue` whenever the link frees up;
/// each departure must be the packet the scheduler chose.
fn replay_sched(s: &LinkSetup, recs: &[Rec], cost: &mut Cost) -> bool {
    let mut sched = s.sched.build(s.rate, s.specs);
    let start = Instant::now();
    let (mut ops, mut seq) = (0u64, 0u64);
    let mut in_flight: Option<PacketRef> = None;
    let mut ok = true;
    for r in recs {
        let now = Time(r.now);
        match r.kind() {
            Kind::Enq => {
                sched.enqueue(
                    now,
                    PacketRef {
                        flow: FlowId(r.flow),
                        len: r.len(),
                        arrival: now,
                        seq,
                        green: true,
                    },
                );
                seq += 1;
                ops += 1;
                if in_flight.is_none() {
                    in_flight = sched.dequeue(now);
                    ops += 1;
                }
            }
            Kind::Dep => {
                let sent = in_flight.take();
                if !sent
                    .is_some_and(|p| p.flow.0 == r.flow && p.len == r.len() && p.arrival.0 == r.aux)
                {
                    ok = false;
                    break;
                }
                if !sched.is_empty() {
                    in_flight = sched.dequeue(now);
                    ops += 1;
                }
            }
            Kind::Drop(_) | Kind::Fb { .. } => {}
        }
    }
    cost.add(start, Instant::now(), ops);
    black_box(&sched);
    ok
}

/// Drive an [`IndexedTimers`] core with the recorded arrival times and
/// departure instants: each pop must return the recorded next event.
/// Calls are events popped, each with its re-arm.
fn replay_timers(n_flows: usize, recs: &[Rec], cost: &mut Cost) -> bool {
    // Per-flow arrival times (CSR) and the departure instants, in order.
    let mut offsets = vec![0usize; n_flows + 1];
    for r in recs.iter().filter(|r| r.is_arrival()) {
        offsets[r.flow as usize + 1] += 1;
    }
    for f in 0..n_flows {
        offsets[f + 1] += offsets[f];
    }
    let mut times = vec![Time::ZERO; offsets[n_flows]];
    let mut cursor = offsets.clone();
    for r in recs.iter().filter(|r| r.is_arrival()) {
        let f = r.flow as usize;
        times[cursor[f]] = Time(r.now);
        cursor[f] += 1;
    }
    let departures: Vec<Time> = recs
        .iter()
        .filter(|r| r.kind() == Kind::Dep)
        .map(|r| Time(r.now))
        .collect();
    cursor.copy_from_slice(&offsets);

    let mut timers = IndexedTimers::with_flows(n_flows);
    let start = Instant::now();
    let mut ops = 0u64;
    for f in 0..n_flows {
        if cursor[f] < offsets[f + 1] {
            timers.schedule_arrival(FlowId(f as u32), times[cursor[f]]);
            cursor[f] += 1;
        }
    }
    let (mut next_dep, mut queued) = (0usize, 0u64);
    let mut ok = true;
    for r in recs {
        let kind = r.kind();
        let expect = match kind {
            Kind::Enq | Kind::Drop(_) => Event::Arrival(FlowId(r.flow)),
            Kind::Dep => Event::Departure,
            Kind::Fb { .. } => continue,
        };
        let popped = timers.pop_refill(|flow| {
            let f = flow.index();
            (cursor[f] < offsets[f + 1]).then(|| {
                cursor[f] += 1;
                times[cursor[f] - 1]
            })
        });
        ops += 1;
        if popped != Some((Time(r.now), expect)) {
            ok = false;
            break;
        }
        let starts_transmission = match kind {
            Kind::Enq => {
                queued += 1;
                queued == 1
            }
            Kind::Dep => {
                queued -= 1;
                queued > 0
            }
            _ => false,
        };
        if starts_transmission {
            if let Some(&t) = departures.get(next_dep) {
                timers.schedule_departure(t);
                next_dep += 1;
            }
        }
    }
    cost.add(start, Instant::now(), ops);
    ok
}

/// The statistics calls of the event loop, with the link's
/// `StatsConfig`. The window is the whole run, so every call takes the
/// recording path (a warm-up prefix would only exercise the early
/// return).
fn replay_stats(s: &LinkSetup, recs: &[Rec], cost: &mut Cost) {
    let n = s.specs.len();
    let mut stats = StatsCollector::with_config(n, Time::ZERO, s.end, s.seed, s.stats);
    let sketching = stats.sketching();
    let mut flow_occ = vec![0u64; n];
    let mut total = 0u64;
    let start = Instant::now();
    let mut calls = 0u64;
    for r in recs {
        let (now, flow, len) = (Time(r.now), FlowId(r.flow), r.len());
        match r.kind() {
            Kind::Enq => {
                stats.on_color(now, flow, len, true);
                stats.on_arrival(now, flow, len, None);
                flow_occ[r.flow as usize] += len as u64;
                total += len as u64;
                calls += 2;
                if sketching {
                    stats.on_occupancy(now, flow, flow_occ[r.flow as usize], total);
                    calls += 1;
                }
            }
            Kind::Drop(reason) => {
                stats.on_color(now, flow, len, true);
                stats.on_arrival(now, flow, len, Some(reason));
                calls += 2;
            }
            Kind::Dep => {
                flow_occ[r.flow as usize] -= len as u64;
                total -= len as u64;
                stats.on_departure_colored(now, flow, len, Time(r.aux), true);
                calls += 1;
                if sketching {
                    stats.on_occupancy(now, flow, flow_occ[r.flow as usize], total);
                    calls += 1;
                }
            }
            Kind::Fb { .. } => {}
        }
    }
    cost.add(start, Instant::now(), calls);
    black_box(stats.finish());
}

/// Pull discipline of the event loop: one emission per flow at start,
/// then one per arrival. Each pulled emission must be the recorded
/// arrival that follows.
fn replay_open_sources(mut sources: Vec<SourceKind>, recs: &[Rec], cost: &mut Cost) -> bool {
    let start = Instant::now();
    let mut pending: Vec<Option<qbm_traffic::Emission>> =
        sources.iter_mut().map(|s| s.next_emission()).collect();
    let mut calls = sources.len() as u64;
    let mut ok = true;
    for r in recs.iter().filter(|r| r.is_arrival()) {
        let f = r.flow as usize;
        let expect = qbm_traffic::Emission {
            time: Time(r.now),
            len: r.len(),
        };
        if pending[f] != Some(expect) {
            ok = false;
            break;
        }
        pending[f] = sources[f].next_emission();
        calls += 1;
    }
    cost.add(start, Instant::now(), calls);
    black_box(&pending);
    ok
}

/// The closed-loop call sequence: pulls as in the open loop, local
/// loss signals right after the arrival's pull, remote signals at
/// their drain instant, and a re-pull whenever a signal reaches a
/// window-blocked flow. The two call kinds interleave, so each call is
/// timed on its own and the clock's own cost (`clock_ns` per reading,
/// see [`clock_overhead_ns`]) is taken off. Emission instants are not
/// checked here: the engine may push a pending arrival out (RTO
/// backoff) after the pull.
fn replay_closed_sources(
    mut sources: Vec<SourceKind>,
    recs: &[Rec],
    remote: &[RemoteFb],
    clock_ns: f64,
    emission: &mut Cost,
    feedback: &mut Cost,
) {
    let mut pending: Vec<bool> = vec![false; sources.len()];
    let mut pulls = Cost::default();
    let mut signals = Cost::default();
    let pull = |src: &mut SourceKind, pending: &mut bool, c: &mut Cost| {
        let t = Instant::now();
        *pending = src.next_emission().is_some();
        c.add(t, Instant::now(), 1);
    };
    let signal = |src: &mut SourceKind, now: Time, fb: Feedback, c: &mut Cost| {
        let t = Instant::now();
        black_box(src.on_feedback(now, fb));
        c.add(t, Instant::now(), 1);
    };
    for (src, p) in sources.iter_mut().zip(pending.iter_mut()) {
        pull(src, p, &mut pulls);
    }
    let mut next_remote = 0usize;
    let mut pulled_early = false;
    for r in recs {
        while let Some(rf) = remote.get(next_remote).filter(|rf| rf.at <= r.now) {
            let f = rf.flow as usize;
            signal(&mut sources[f], Time(rf.at), rf.fb, &mut signals);
            if !pending[f] {
                pull(&mut sources[f], &mut pending[f], &mut pulls);
            }
            next_remote += 1;
        }
        let f = r.flow as usize;
        match r.kind() {
            Kind::Fb {
                delivered: false,
                cause: Some(cause),
            } => {
                // A local loss: the arrival's pull happened at pop
                // time, before the signal; its drop record follows.
                pull(&mut sources[f], &mut pending[f], &mut pulls);
                pulled_early = true;
                signal(
                    &mut sources[f],
                    Time(r.now),
                    Feedback::Lost { cause },
                    &mut signals,
                );
                if !pending[f] {
                    pull(&mut sources[f], &mut pending[f], &mut pulls);
                }
            }
            Kind::Enq | Kind::Drop(_) => {
                if !std::mem::take(&mut pulled_early) {
                    pull(&mut sources[f], &mut pending[f], &mut pulls);
                }
            }
            Kind::Dep | Kind::Fb { .. } => {}
        }
    }
    for (into, c) in [(emission, pulls), (feedback, signals)] {
        into.ns += (c.ns - clock_ns * c.calls as f64).max(0.0);
        into.calls += c.calls;
    }
}

/// What one clock-timed region costs with nothing inside it: the
/// overhead each individually timed call carries.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut c = Cost::default();
    for _ in 0..N {
        let t = Instant::now();
        c.add(t, Instant::now(), 1);
    }
    c.per_call()
}

/// Epoch horizon at which a signal observed at `now` is drained.
pub fn drain_instant(now: u64, epoch: Dur, end: Time) -> u64 {
    ((now / epoch.0 + 1) * epoch.0).min(end.0)
}
