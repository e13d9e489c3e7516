//! The two fabric workloads: `isp_tree` (open-loop subscriber tree at
//! 10⁵ flows) and `closed_tree` (closed-loop subscriber tree at 10⁴
//! flows). Both build through `scenarios::subscriber_tree*` and run
//! through `Fabric::run` at one shard thread; an operation is a link.

use crate::check;
use crate::cpus;
use crate::ledger::{layer_metrics, median, zero, LayerCounts, Metrics, Spans, Tally};
use crate::record::{Kind, Recorder};
use crate::replay::{self, LayerLedger, LinkSetup, Origin, RemoteFb};
use crate::Budget;
use qbm_core::analysis::hybrid::Grouping;
use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::units::{Dur, Rate, Time};
use qbm_sched::SchedKind;
use qbm_sim::experiment::derive_cell_seed;
use qbm_sim::fabric::DEFAULT_EPOCH;
use qbm_sim::scenarios::{
    plan_hybrid_at, subscriber_plans, subscriber_tree, subscriber_tree_closed_loop, LinkProfile,
    SubscriberTreeShape, CLOSED_LOOP_EPOCH,
};
use qbm_sim::{Fabric, PolicySpec, SimResult, SketchParams, StatsConfig};
use qbm_traffic::{build_source_kind, AimdConfig, AimdSource, Feedback, SourceKind};
use std::time::Instant;

/// One subscriber-tree workload.
pub struct Tree {
    closed: bool,
    shape: SubscriberTreeShape,
    profile: LinkProfile,
    end: Time,
    epoch: Dur,
    /// Replays cover the links' first `record` of simulated time.
    record: Time,
}

/// The ISP scale point: 10⁵ open-loop flows, 526 links, the default
/// 1 s epoch and a 1.1 s horizon, so the run crosses an epoch boundary
/// and exchanges mailboxes. Aggregate sketches are on at every link;
/// per-flow sketches stay off, since sites (4000 flows) and APs (200)
/// fall under the per-link sketch limit and would hold ~6 GiB.
pub fn isp_tree() -> Tree {
    Tree {
        closed: false,
        shape: SubscriberTreeShape::for_flows(100_000),
        profile: LinkProfile {
            stats: StatsConfig {
                sketches: Some(SketchParams {
                    per_flow: false,
                    ..SketchParams::default()
                }),
                ..StatsConfig::default()
            },
            ..LinkProfile::default()
        },
        end: Time::from_secs_f64(1.1),
        epoch: DEFAULT_EPOCH,
        record: Time::from_secs_f64(0.2),
    }
}

/// The closed-loop regime: 10⁴ AIMD subscribers over 1 ms epochs, so
/// 2000 epochs and the feedback drain dominate. Seedless by
/// construction (AIMD emission is a function of feedback alone): the
/// seed only labels the results.
pub fn closed_tree() -> Tree {
    Tree {
        closed: true,
        shape: SubscriberTreeShape::for_flows(10_000),
        profile: LinkProfile::default(),
        end: Time::from_secs(2),
        epoch: CLOSED_LOOP_EPOCH,
        record: Time::from_secs_f64(0.5),
    }
}

/// How one link of the tree is configured, mirroring the scenario
/// builder, so the replays can rebuild its layers.
struct LinkPlan {
    level: usize,
    rate: Rate,
    specs: Vec<FlowSpec>,
    policy: PolicySpec,
    sched: SchedKind,
}

/// A relay edge `(src_link, src_flow) → (dst_link, dst_flow)`.
type Edge = (usize, usize, usize, usize);

fn renumber(specs: &[FlowSpec]) -> Vec<FlowSpec> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| FlowSpec {
            id: FlowId(i as u32),
            ..*s
        })
        .collect()
}

impl Tree {
    fn build(&self, seed: u64) -> Fabric {
        if self.closed {
            subscriber_tree_closed_loop(self.shape, &self.profile)
        } else {
            subscriber_tree(self.shape, &self.profile, seed)
        }
    }

    fn per_site(&self) -> usize {
        self.shape.aps_per_site * self.shape.subs_per_ap
    }

    /// The planning step of the builder: plans and the hybrid core.
    fn plan_core(&self) -> (Vec<FlowSpec>, Rate, qbm_sim::scenarios::HybridPlan) {
        let n = self.shape.flows();
        let specs = subscriber_plans(n);
        let total: u64 = specs.iter().map(|f| f.token_rate.bps()).sum();
        let core_rate = Rate::from_bps(total * 5 / 4);
        let per_site = self.per_site();
        let grouping = Grouping::new((0..n).map(|g| g / per_site).collect(), self.shape.sites);
        let plan = plan_hybrid_at(core_rate, &specs, &grouping, self.profile.buffer_bytes);
        (specs, core_rate, plan)
    }

    /// Link plans in link-index order: core, sites, then APs.
    fn links(&self) -> Vec<LinkPlan> {
        let (specs, core_rate, plan) = self.plan_core();
        let (per_site, subs) = (self.per_site(), self.shape.subs_per_ap);
        let rho = |s: &[FlowSpec]| s.iter().map(|f| f.token_rate.bps()).sum::<u64>();
        let mut links = vec![LinkPlan {
            level: 0,
            rate: core_rate,
            specs: specs.clone(),
            policy: PolicySpec::ExplicitSharing {
                reserved: plan.flow_thresholds.clone(),
                headroom_bytes: self.profile.buffer_bytes / 8,
            },
            sched: SchedKind::Hybrid {
                assignment: plan.grouping.assignment.clone(),
                queue_rates_bps: plan.queue_rates_bps.clone(),
            },
        }];
        let relay = |level, block: &[FlowSpec], rate| LinkPlan {
            level,
            rate,
            specs: renumber(block),
            policy: self.profile.policy.clone(),
            sched: self.profile.sched.clone(),
        };
        for s in 0..self.shape.sites {
            let block = &specs[s * per_site..(s + 1) * per_site];
            links.push(relay(1, block, Rate::from_bps(rho(block) * 3 / 2)));
        }
        for s in 0..self.shape.sites {
            for a in 0..self.shape.aps_per_site {
                let lo = s * per_site + a * subs;
                let block = &specs[lo..lo + subs];
                links.push(relay(2, block, Rate::from_bps(rho(block) * 2)));
            }
        }
        links
    }

    fn edges(&self) -> Vec<Edge> {
        let (sites, aps, subs) = (
            self.shape.sites,
            self.shape.aps_per_site,
            self.shape.subs_per_ap,
        );
        let per_site = self.per_site();
        let mut edges = Vec::with_capacity(2 * self.shape.flows());
        for g in 0..self.shape.flows() {
            let (s, h) = (g / per_site, g % per_site);
            let ap = 1 + sites + s * aps + h / subs;
            edges.push((0, g, 1 + s, h));
            edges.push((1 + s, h, ap, h % subs));
        }
        edges
    }

    /// Origin flow (a core flow index) of flow `f` on link `link`.
    fn origin_of(&self, link: usize, f: usize) -> usize {
        let sites = self.shape.sites;
        match link {
            0 => f,
            l if l <= sites => (l - 1) * self.per_site() + f,
            l => {
                let ap = l - 1 - sites;
                let (s, a) = (ap / self.shape.aps_per_site, ap % self.shape.aps_per_site);
                s * self.per_site() + a * self.shape.subs_per_ap + f
            }
        }
    }

    fn origin_sources(&self, seed: u64) -> Vec<SourceKind> {
        subscriber_plans(self.shape.flows())
            .iter()
            .map(|s| {
                let g = s.id.index() as u64;
                if self.closed {
                    SourceKind::from(AimdSource::new(AimdConfig {
                        start: Time::ZERO + Dur::from_micros(g),
                        pace: Some(s.peak),
                        ..AimdConfig::default()
                    }))
                } else {
                    build_source_kind(s, derive_cell_seed(seed, g, 0))
                }
            })
            .collect()
    }

    /// Check every link: conservation, its incoming relay edges, and
    /// (when given) the digest of a previous run of the same seed.
    fn check(
        &self,
        res: &[SimResult],
        edges: &[Edge],
        reference: Option<&[u64]>,
        tally: &mut Tally,
    ) -> Vec<u64> {
        let mut ok: Vec<bool> = res
            .iter()
            .map(|r| check::conserves(r, self.profile.buffer_bytes, true))
            .collect();
        for &(sl, sf, dl, df) in edges {
            if !check::edge_conserves(&res[sl].flows[sf], &res[dl].flows[df]) {
                ok[dl] = false;
            }
        }
        let digests: Vec<u64> = res.iter().map(check::digest).collect();
        if let Some(want) = reference {
            for (l, (d, w)) in digests.iter().zip(want).enumerate() {
                ok[l] &= d == w;
            }
        }
        ok.into_iter().for_each(|o| tally.op(o));
        digests
    }

    /// Build, then run untraced; returns the wall time of the run.
    fn run_once(&self, seed: u64, threads: usize) -> (f64, Vec<SimResult>) {
        let fabric = self.build(seed);
        let t = Instant::now();
        let res = fabric.run(seed, Time::ZERO, self.end, threads);
        (t.elapsed().as_secs_f64(), res)
    }

    /// Median wall time of `samples` builds, each dropped before the
    /// next, the samples spread over the host's CPUs.
    fn setup_seconds(&self, seed: u64, samples: usize) -> f64 {
        let s = cpus::round_robin(samples, || {
            let t = Instant::now();
            let fabric = self.build(seed);
            let s = t.elapsed().as_secs_f64();
            drop(fabric);
            s
        });
        median(&s)
    }

    /// The timed (untraced) run: set-up samples first, in a fresh
    /// process as a user's run has it, then build + run until the
    /// budget is spent, reporting medians.
    pub fn timed(&self, seed: u64, budget: &Budget, m: &mut Metrics) -> Tally {
        m.set("setup_s", self.setup_seconds(seed, budget.setups), "s");
        let edges = self.edges();
        let mut tally = Tally::default();
        let (mut walls, mut rates) = (Vec::new(), Vec::new());
        let mut reference: Option<Vec<u64>> = None;
        let started = Instant::now();
        while budget.more(walls.len(), started) {
            let (wall, res) = self.run_once(seed, 1);
            let events: u64 = res.iter().map(check::events).sum();
            walls.push(wall);
            rates.push(events as f64 / wall);
            let d = self.check(&res, &edges, reference.as_deref(), &mut tally);
            reference.get_or_insert(d);
        }
        println!("wall_s samples (s): {walls:.4?}");
        m.set("events_per_s", median(&rates), "1/s");
        m.set("wall_s", median(&walls), "s");
        tally
    }

    /// The traced run: shard sweep, one recorded run, layer replays.
    pub fn traced(&self, seed: u64, spans: &mut Spans, m: &mut Metrics) -> Tally {
        let edges = self.edges();
        let plans = self.links();
        let mut tally = Tally::default();
        let root = spans.open("traced_run", None);

        // Setup split: planning alone, then the whole builder.
        let plan_s: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.plan_core());
                t.elapsed().as_secs_f64()
            })
            .collect();
        m.set("scenarios.plan_s", median(&plan_s), "s");
        m.set("scenarios.build_s", self.setup_seconds(seed, 6), "s");

        // Shard sweep, untraced: results must not depend on the width.
        let sweep = spans.open("fabric.shard_sweep", Some(root));
        let (wall1, res) = self.run_once(seed, 1);
        let events1: u64 = res.iter().map(check::events).sum();
        let reference = self.check(&res, &edges, None, &mut tally);
        drop(res);
        let (wall2, res) = self.run_once(seed, 2);
        self.check(&res, &edges, Some(&reference), &mut tally);
        drop(res);
        spans.close(sweep);

        // The recorded run.
        let fabric = self.build(seed);
        let n_links = fabric.n_links();
        let mut recs: Vec<Recorder> = (0..n_links)
            .map(|_| Recorder::new(self.record, Some(self.epoch)))
            .collect();
        let run = spans.open("fabric.run_observed", Some(root));
        let called = Instant::now();
        let res = fabric.run_observed(seed, Time::ZERO, self.end, 1, &mut recs);
        spans.close(run);
        let traced_wall = spans.secs(run);
        self.check(&res, &edges, Some(&reference), &mut tally);
        drop(res);
        let clock_ns = replay::clock_overhead_ns();
        self.fabric_ledger(
            &recs,
            &plans,
            edges.len(),
            called,
            traced_wall,
            clock_ns,
            spans,
            run,
            m,
        );
        m.set("fabric.shard2_over_shard1", wall1 / wall2, "ratio");

        // Layer replays, one link at a time.
        let replay_root = spans.open("replay", Some(root));
        let mut ledger = LayerLedger::default();
        let sources = self.origin_sources(seed);
        let mut origin = Some(if self.closed {
            Origin::Closed(sources, self.remote_feedback(&recs))
        } else {
            Origin::Open(sources)
        });
        for (l, (rec, plan)) in recs.iter().zip(&plans).enumerate() {
            let setup = LinkSetup {
                rate: plan.rate,
                specs: &plan.specs,
                buffer: self.profile.buffer_bytes,
                policy: &plan.policy,
                sched: &plan.sched,
                stats: self.profile.stats,
                end: self.end,
                seed,
                clock_ns,
            };
            // Every source sits on the core, link 0.
            let link_origin = if l == 0 { origin.take() } else { None };
            let link_span = spans.open(format!("replay.link{l}"), Some(replay_root));
            let ok = replay::replay_link(
                &setup,
                &rec.recs,
                link_origin,
                spans,
                link_span,
                &mut ledger,
            );
            spans.close(link_span);
            tally.op(ok);
        }
        spans.close(replay_root);
        spans.close(root);

        let sum = |f: fn(&Recorder) -> u64| recs.iter().map(f).sum::<u64>();
        let arrivals = sum(|r| r.counts.arrivals);
        let departures = sum(|r| r.counts.departures);
        let admits = sum(|r| r.counts.admits);
        let router_events = arrivals + departures;
        let sketching = self.profile.stats.sketches.is_some();
        layer_metrics(
            m,
            &ledger,
            LayerCounts {
                emissions: recs[0].counts.arrivals,
                feedback: sum(|r| r.counts.feedback),
                admits,
                drops: sum(|r| r.counts.drops),
                departures,
                arrivals,
                sketching,
            },
        );
        m.set("router.events", router_events as f64, "count");
        m.set(
            "router.self_ns_per_event",
            wall1 * 1e9 / events1 as f64 - ledger.layer_ns_per_event(),
            "ns",
        );
        m.set("trace.overhead", traced_wall / wall1, "ratio");
        zero(
            m,
            &[
                ("campaign.cells", "count"),
                ("campaign.cell_s_p50", "s"),
                ("campaign.cell_s_max", "s"),
                ("campaign.worker_imbalance", "ratio"),
            ],
        );
        tally
    }

    /// Remote feedback signals, routed to their origin core flow and
    /// ordered as the fabric drains them: by drain instant, then by
    /// link (storage order is level order, which is index order here),
    /// then by observation order.
    fn remote_feedback(&self, recs: &[Recorder]) -> Vec<RemoteFb> {
        let mut out = Vec::new();
        for (l, rec) in recs.iter().enumerate().skip(1) {
            for r in &rec.recs {
                if let Kind::Fb { delivered, cause } = r.kind() {
                    let fb = match cause {
                        Some(cause) if !delivered => Feedback::Lost { cause },
                        _ => Feedback::Delivered {
                            bytes: r.len(),
                            delay: Dur(r.aux),
                        },
                    };
                    out.push(RemoteFb {
                        at: replay::drain_instant(r.now, self.epoch, self.end),
                        flow: self.origin_of(l, r.flow as usize) as u32,
                        fb,
                    });
                }
            }
        }
        out.sort_by_key(|r| r.at);
        out
    }

    /// Busy time per level from the recorders' wall stamps, the
    /// critical path and the two-thread bound.
    #[allow(clippy::too_many_arguments)]
    fn fabric_ledger(
        &self,
        recs: &[Recorder],
        plans: &[LinkPlan],
        n_edges: usize,
        called: Instant,
        wall: f64,
        clock_ns: f64,
        spans: &mut Spans,
        parent: usize,
        m: &mut Metrics,
    ) {
        let epochs = self.end.0.div_ceil(self.epoch.0) as usize;
        let mut cell = vec![[LevelEpoch::default(); LEVELS]; epochs];
        let mut first_hook: Option<Instant> = None;
        for (rec, plan) in recs.iter().zip(plans) {
            for b in &rec.busy {
                let Some(slot) = cell.get_mut(b.epoch as usize) else {
                    continue;
                };
                let busy = b.last.duration_since(b.first).as_secs_f64()
                    - b.stamps as f64 * clock_ns * 1e-9;
                slot[plan.level].add(busy.max(0.0), b.first, b.last);
                first_hook = Some(first_hook.map_or(b.first, |x| x.min(b.first)));
            }
        }
        let mut level_busy = [0.0; LEVELS];
        let (mut busy_all, mut crit, mut two) = (0.0, 0.0, 0.0);
        for (e, slot) in cell.iter().enumerate() {
            for (l, c) in slot.iter().enumerate() {
                level_busy[l] += c.sum;
                busy_all += c.sum;
                crit += c.max;
                two += c.max.max(c.sum / 2.0);
                if let Some((a, b)) = c.span {
                    spans.push(format!("fabric.epoch{e}.level{l}"), a, b, Some(parent));
                }
            }
        }
        let serial = (wall - busy_all).max(0.0);
        let prep = first_hook.map_or(0.0, |t| t.duration_since(called).as_secs_f64());
        m.set("fabric.epochs", epochs as f64, "count");
        m.set("fabric.exchanges", (epochs * n_edges) as f64, "count");
        let drained: u64 = recs.iter().skip(1).map(|r| r.counts.feedback).sum();
        m.set("fabric.feedback_drained", drained as f64, "count");
        m.set("fabric.prep_s", prep, "s");
        for (l, b) in level_busy.iter().enumerate() {
            m.set(format!("fabric.level_busy_s.{l}"), *b, "s");
        }
        m.set("fabric.critical_path_s", serial + crit, "s");
        m.set("fabric.shard_bound", wall / (serial + two), "ratio");
    }
}

/// Topological levels of a subscriber tree: core, sites, APs.
const LEVELS: usize = 3;

/// Busy time of one fabric level in one epoch.
#[derive(Debug, Clone, Copy, Default)]
struct LevelEpoch {
    /// Summed over the level's links.
    sum: f64,
    /// The busiest link's.
    max: f64,
    /// First stamp to last, over the level's links.
    span: Option<(Instant, Instant)>,
}

impl LevelEpoch {
    fn add(&mut self, busy: f64, first: Instant, last: Instant) {
        self.sum += busy;
        self.max = self.max.max(busy);
        self.span = Some(
            self.span
                .map_or((first, last), |(a, b)| (a.min(first), b.max(last))),
        );
    }
}
