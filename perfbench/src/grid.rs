//! `paper_grid`: the Figures 1–6 grids of §3 — table 1 under the
//! `section3_schemes` and `sharing_schemes` over the buffer sweep, the
//! paper's protocol (5 replications, 2 s warm-up, 22 s simulated), one
//! `Campaign` with a worker per core and exact statistics. An operation
//! is a campaign cell.

use crate::check;
use crate::cpus;
use crate::ledger::{layer_metrics, median, zero, LayerCounts, Metrics, Spans, Tally};
use crate::record::Recorder;
use crate::replay::{self, LayerLedger, LinkSetup, Origin};
use crate::Budget;
use qbm_bench::report::RunProfile;
use qbm_core::units::{Dur, Time};
use qbm_sim::scenarios::{
    buffer_sweep, default_headroom, paper_experiment, section3_schemes, sharing_schemes,
};
use qbm_sim::{Campaign, ExperimentConfig, MultiRun, SeedMode};
use qbm_traffic::build_source_kind_with_sojourns;
use std::time::Instant;

/// Replays cover each cell's first half second of simulated time.
const RECORD: Time = Time(500_000_000);

/// Configurations built per set-up sample: one build takes tens of µs,
/// far below what a single clock reading resolves steadily.
const SETUP_BATCH: usize = 256;

fn profile() -> RunProfile {
    RunProfile {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..RunProfile::full()
    }
}

/// The grid's points, built as `figures::run_grid` builds them:
/// x-major, both scheme families at every buffer size.
fn points(profile: &RunProfile) -> Vec<ExperimentConfig> {
    let specs = qbm_traffic::table1();
    let h = default_headroom();
    let mut points = Vec::new();
    for x in buffer_sweep() {
        for scheme in section3_schemes().into_iter().chain(sharing_schemes(h)) {
            let mut cfg = paper_experiment(&specs, &scheme, scheme.buffer_override.unwrap_or(x));
            cfg.warmup = Dur::from_secs(profile.warmup_s);
            cfg.duration = Dur::from_secs(profile.duration_s);
            points.push(cfg);
        }
    }
    points
}

/// The campaign `figures::run_grid` runs, with the benchmark's seed as
/// the campaign seed.
fn campaign<'a>(points: &'a [ExperimentConfig], profile: &RunProfile, seed: u64) -> Campaign<'a> {
    let mut c = Campaign::new(points);
    c.replications = profile.seeds;
    c.campaign_seed = seed;
    c.seed_mode = SeedMode::BaseOffset;
    c.threads = profile.threads;
    c
}

/// Median seconds per build of the grid's points, the samples spread
/// over the host's CPUs.
fn setup_seconds(profile: &RunProfile, samples: usize) -> f64 {
    let per_build = cpus::round_robin(samples, || {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(points(std::hint::black_box(profile)));
        }
        t.elapsed().as_secs_f64() / SETUP_BATCH as f64
    });
    median(&per_build)
}

/// Check every cell; returns the cells' digests.
fn check(
    points: &[ExperimentConfig],
    grid: &[MultiRun],
    reference: Option<&[u64]>,
    tally: &mut Tally,
) -> Vec<u64> {
    let reps = grid[0].runs.len();
    let cells = grid.iter().flat_map(|m| m.runs.iter());
    let digests: Vec<u64> = cells.clone().map(check::digest).collect();
    for (idx, r) in cells.enumerate() {
        let conserved = check::conserves(r, points[idx / reps].buffer_bytes, false);
        let repeats = reference.is_none_or(|want| want[idx] == digests[idx]);
        tally.op(conserved && repeats);
    }
    digests
}

fn events(grid: &[MultiRun]) -> u64 {
    grid.iter()
        .flat_map(|m| m.runs.iter())
        .map(check::events)
        .sum()
}

/// The timed (untraced) run.
pub fn timed(seed: u64, budget: &Budget, m: &mut Metrics) -> Tally {
    let profile = profile();
    // Set-up samples first, in a fresh process as a user's run has it.
    m.set("setup_s", setup_seconds(&profile, budget.setups), "s");
    let points = points(&profile);
    let mut tally = Tally::default();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let started = Instant::now();
    while budget.more(walls.len(), started) {
        let c = campaign(&points, &profile, seed);
        let t = Instant::now();
        let grid = c.run();
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(events(&grid) as f64 / wall);
        let d = check(&points, &grid, reference.as_deref(), &mut tally);
        reference.get_or_insert(d);
    }
    println!("wall_s samples (s): {walls:.4?}");
    m.set("events_per_s", median(&rates), "1/s");
    m.set("wall_s", median(&walls), "s");
    tally
}

/// The traced run: one recorded campaign, then per-cell replays.
pub fn traced(seed: u64, spans: &mut Spans, m: &mut Metrics) -> Tally {
    let profile = profile();
    let points = points(&profile);
    let mut tally = Tally::default();
    let root = spans.open("traced_run", None);

    let c = campaign(&points, &profile, seed);
    let t = Instant::now();
    let grid = c.run();
    let wall = t.elapsed().as_secs_f64();
    let reference = check(&points, &grid, None, &mut tally);
    drop(grid);

    let run = spans.open("campaign.run_observed", Some(root));
    let (grid, recs) = c.run_observed(|_| Recorder::new(RECORD, None));
    spans.close(run);
    let traced_wall = spans.secs(run);
    check(&points, &grid, Some(&reference), &mut tally);
    drop(grid);

    // Cells and workers, from the recorders' wall stamps.
    let mut cell_s = Vec::with_capacity(recs.len());
    let mut workers: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for (idx, r) in recs.iter().enumerate() {
        let end = r.ended.expect("every cell ends");
        spans.push(format!("campaign.cell{idx}"), r.made, end, Some(run));
        let s = end.duration_since(r.made).as_secs_f64();
        cell_s.push(s);
        match workers.iter_mut().find(|w| w.0 == r.thread) {
            Some(w) => w.1 += s,
            None => workers.push((r.thread, s)),
        }
    }
    let busiest = workers.iter().map(|w| w.1).fold(0.0, f64::max);
    let mean = workers.iter().map(|w| w.1).sum::<f64>() / workers.len() as f64;
    m.set("campaign.cells", recs.len() as f64, "count");
    m.set("campaign.cell_s_p50", median(&cell_s), "s");
    m.set(
        "campaign.cell_s_max",
        cell_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    m.set("campaign.worker_imbalance", busiest / mean, "ratio");

    // Layer replays, one cell at a time.
    let replay_root = spans.open("replay", Some(root));
    let clock_ns = replay::clock_overhead_ns();
    let mut ledger = LayerLedger::default();
    for (idx, r) in recs.iter().enumerate() {
        let cfg = &points[idx / profile.seeds];
        let cell_seed = c.cell_seed(idx / profile.seeds, idx % profile.seeds);
        let setup = LinkSetup {
            rate: cfg.link_rate,
            specs: &cfg.specs,
            buffer: cfg.buffer_bytes,
            policy: &cfg.policy,
            sched: &cfg.sched,
            stats: cfg.stats,
            end: Time::ZERO + cfg.duration,
            seed: cell_seed,
            clock_ns,
        };
        let sources = cfg
            .specs
            .iter()
            .map(|s| build_source_kind_with_sojourns(s, cell_seed, cfg.sojourns))
            .collect();
        let cell_span = spans.open(format!("replay.cell{idx}"), Some(replay_root));
        let ok = replay::replay_link(
            &setup,
            &r.recs,
            Some(Origin::Open(sources)),
            spans,
            cell_span,
            &mut ledger,
        );
        spans.close(cell_span);
        tally.op(ok);
    }
    spans.close(replay_root);
    spans.close(root);

    let sum = |f: fn(&Recorder) -> u64| recs.iter().map(f).sum::<u64>();
    let arrivals = sum(|r| r.counts.arrivals);
    let departures = sum(|r| r.counts.departures);
    layer_metrics(
        m,
        &ledger,
        LayerCounts {
            emissions: arrivals,
            feedback: sum(|r| r.counts.feedback),
            admits: sum(|r| r.counts.admits),
            drops: sum(|r| r.counts.drops),
            departures,
            arrivals,
            sketching: false,
        },
    );
    // Hook counts cover the warm-up the result windows leave out; the
    // untraced wall is shared by `threads` busy workers.
    let router_events = arrivals + departures;
    m.set("router.events", router_events as f64, "count");
    m.set(
        "router.self_ns_per_event",
        wall * 1e9 * profile.threads as f64 / router_events as f64 - ledger.layer_ns_per_event(),
        "ns",
    );
    m.set("trace.overhead", traced_wall / wall, "ratio");
    zero(
        m,
        &[
            ("fabric.epochs", "count"),
            ("fabric.exchanges", "count"),
            ("fabric.feedback_drained", "count"),
            ("fabric.prep_s", "s"),
            ("fabric.level_busy_s.0", "s"),
            ("fabric.level_busy_s.1", "s"),
            ("fabric.level_busy_s.2", "s"),
            ("fabric.critical_path_s", "s"),
            ("fabric.shard_bound", "ratio"),
            ("fabric.shard2_over_shard1", "ratio"),
            ("scenarios.plan_s", "s"),
        ],
    );
    m.set("scenarios.build_s", setup_seconds(&profile, 6), "s");
    tally
}
