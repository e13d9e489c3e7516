//! Multi-link network fabric: a DAG of routers with deterministic
//! link-level sharding.
//!
//! A [`Fabric`] is a set of links (each a full [`Router`]: buffer
//! policy × scheduler × output link, with its own event core) plus
//! directed edges `(src_link, src_flow) → (dst_link, dst_flow)` along
//! which packets are relayed: a destination flow replays the source
//! flow's recorded departures — exact store-and-forward semantics (a
//! feed-forward hop cannot influence its upstream, so replay is not an
//! approximation).
//!
//! # Epoch/mailbox execution
//!
//! Running every upstream link to completion before its downstream
//! starts holds the whole trace of a link in memory and serializes the
//! topology. The fabric instead advances in bounded **epochs**: with
//! horizon `H` stepping by the epoch length Δ,
//!
//! 1. links are advanced one topological *level* at a time — every
//!    link in a level processes exactly its events with time `< H`
//!    (level-mates share nothing, so they advance in parallel);
//! 2. after a level finishes, its recorded departure batches are
//!    handed to the destination flows' replay sources (the
//!    **mailboxes**) in fixed edge order — serial, on the driving
//!    thread;
//! 3. the next level then advances to the same `H`, already holding
//!    every arrival it can see before `H`.
//!
//! Step 3 is why the schedule is *exact*, not approximate: a
//! destination link never advances past a time for which upstream
//! departures are still outstanding. The event sequence each link
//! processes is therefore identical to the sequential run, for any
//! epoch length and any shard-thread count — determinism comes from
//! the structure (fixed drain order by link index, simulation-time
//! horizons), not from scheduling luck. Threads only change how many
//! level-mates advance concurrently.
//!
//! Mailbox handoff is allocation-free in the steady state: each edge
//! ping-pongs two emission buffers between the recorder (upstream
//! trace buffer) and the replayer (downstream
//! [`TraceSource`](qbm_traffic::TraceSource)), swapped wholesale at
//! each exchange.

use crate::router::{FeedbackMode, LinkEngine, Router};
use crate::stats::{SimResult, PER_FLOW_SKETCH_LIMIT};
use qbm_core::flow::FlowId;
use qbm_core::units::{Dur, Time};
use qbm_obs::{NullObserver, Observer};
use std::collections::{BTreeMap, BTreeSet};

/// Default epoch length: 1 s of simulation time. Long enough that
/// barrier overhead vanishes against per-epoch event work, short
/// enough that a relay edge's mailbox holds ~one second of departures
/// (a few hundred KiB at the paper's rates).
pub const DEFAULT_EPOCH: Dur = Dur::from_secs(1);

/// A relay edge: `(src_link, src_flow)`'s departures feed
/// `(dst_link, dst_flow)`'s arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    src_link: u32,
    src_flow: u32,
    dst_link: u32,
    dst_flow: u32,
}

/// A DAG of links with deterministic epoch-synchronized execution.
///
/// Build with [`Fabric::add_link`] / [`Fabric::connect`] (or one of
/// the `scenarios` topology builders), run with [`Fabric::run`] or
/// [`Fabric::run_observed`].
pub struct Fabric {
    links: Vec<Router>,
    edges: Vec<Edge>,
    /// Wired edge endpoints, for O(log E) duplicate detection in
    /// [`Fabric::connect`] — the linear scan it replaces made wiring a
    /// 10⁶-flow subscriber tree (≈2×10⁶ edges) quadratic.
    wired_src: BTreeSet<(u32, u32)>,
    wired_dst: BTreeSet<(u32, u32)>,
    epoch: Dur,
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new()
    }
}

impl Fabric {
    /// An empty fabric with the [`DEFAULT_EPOCH`] exchange horizon.
    pub fn new() -> Fabric {
        Fabric {
            links: Vec::new(),
            edges: Vec::new(),
            wired_src: BTreeSet::new(),
            wired_dst: BTreeSet::new(),
            epoch: DEFAULT_EPOCH,
        }
    }

    /// Override the epoch (mailbox-exchange horizon) length. Results
    /// are independent of the choice; only memory held in mailboxes
    /// and barrier frequency change.
    pub fn with_epoch(mut self, epoch: Dur) -> Fabric {
        assert!(epoch > Dur::ZERO, "zero fabric epoch");
        self.epoch = epoch;
        self
    }

    /// Add a link; returns its index. Link indices are the
    /// deterministic identity everywhere: edge drain order, observer
    /// association, result order, the `link` field on trace records.
    pub fn add_link(&mut self, router: Router) -> u32 {
        self.links.push(router);
        (self.links.len() - 1) as u32
    }

    /// Number of links added so far.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Relay `src_link`'s flow `src_flow` into `dst_link`'s flow
    /// `dst_flow`. The destination flow must be backed by a
    /// [`TraceSource`](qbm_traffic::TraceSource) (typically empty —
    /// the fabric fills it every epoch); the source flow's departures
    /// are recorded automatically.
    ///
    /// Panics on out-of-range links/flows, or if either endpoint is
    /// already wired (a flow has at most one feeder and one reader —
    /// fan-out is expressed by giving the source link one flow per
    /// destination, as the schedulers see them as distinct flows
    /// anyway).
    pub fn connect(&mut self, src_link: u32, src_flow: u32, dst_link: u32, dst_flow: u32) {
        let flows = |l: u32| self.links[l as usize].n_flows() as u32;
        assert!(
            (src_link as usize) < self.links.len() && (dst_link as usize) < self.links.len(),
            "edge references unknown link"
        );
        assert!(
            src_flow < flows(src_link) && dst_flow < flows(dst_link),
            "edge references unknown flow"
        );
        assert_ne!(src_link, dst_link, "self-loop edge");
        assert!(
            self.wired_src.insert((src_link, src_flow)),
            "flow {src_flow} of link {src_link} already feeds an edge"
        );
        assert!(
            self.wired_dst.insert((dst_link, dst_flow)),
            "flow {dst_flow} of link {dst_link} already has a feeder"
        );
        self.edges.push(Edge {
            src_link,
            src_flow,
            dst_link,
            dst_flow,
        });
    }

    /// Topological level of every link (longest path from a root, in
    /// link-graph terms). Panics if the link graph has a cycle — the
    /// fabric is feed-forward by construction.
    fn levels(&self) -> Vec<u32> {
        let n = self.links.len();
        let mut indegree = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            // Parallel flow edges between the same link pair each
            // count: the level relation only needs reachability.
            indegree[e.dst_link as usize] += 1;
            succ[e.src_link as usize].push(e.dst_link as usize);
        }
        let mut level = vec![0u32; n];
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = ready.pop() {
            seen += 1;
            for &v in &succ[u] {
                level[v] = level[v].max(level[u] + 1);
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    ready.push(v);
                }
            }
        }
        assert_eq!(seen, n, "fabric link graph has a cycle");
        level
    }

    /// True iff this fabric's links request per-flow sketches for more
    /// than [`PER_FLOW_SKETCH_LIMIT`] flows in total, so
    /// [`Fabric::run_observed`] keeps aggregate sketches only on every
    /// link. The limit bounds the whole run: a subscriber tree's relay
    /// links each carry a share of the flows, so a per-link check would
    /// pass every site and AP link while their sum blows the budget.
    pub fn per_flow_downgraded(&self) -> bool {
        let sketched: usize = self
            .links
            .iter()
            .filter(|r| r.stats_cfg.wants_per_flow())
            .map(Router::n_flows)
            .sum();
        sketched > PER_FLOW_SKETCH_LIMIT
    }

    /// Run the fabric unobserved. See [`Fabric::run_observed`].
    pub fn run(self, seed: u64, warmup: Time, end: Time, threads: usize) -> Vec<SimResult> {
        let mut observers = vec![NullObserver; self.links.len()];
        self.run_observed(seed, warmup, end, threads, &mut observers)
    }

    /// Run every link over `[0, end)` measuring `[warmup, end)`, with
    /// `observers[i]` receiving link `i`'s event stream (each hook
    /// carries the link index, so per-link tracers can later be merged
    /// with [`Tracer::merged_links_jsonl`](qbm_obs::Tracer)).
    ///
    /// `threads` is the shard width: how many level-mate links advance
    /// concurrently inside each epoch. Results — statistics and every
    /// observer's record stream — are byte-identical for any value;
    /// see the module docs for why.
    ///
    /// Returns one [`SimResult`] per link, in link-index order, all
    /// carrying `seed` (per-link source seeds are the topology
    /// builder's concern — see `scenarios`). No link carries per-flow
    /// sketches when [`Fabric::per_flow_downgraded`].
    pub fn run_observed<O>(
        mut self,
        seed: u64,
        warmup: Time,
        end: Time,
        threads: usize,
        observers: &mut [O],
    ) -> Vec<SimResult>
    where
        O: Observer + Send,
    {
        let n = self.links.len();
        assert!(n > 0, "empty fabric");
        assert_eq!(observers.len(), n, "one observer per link");
        if self.per_flow_downgraded() {
            for sp in self
                .links
                .iter_mut()
                .filter_map(|r| r.stats_cfg.sketches.as_mut())
            {
                sp.per_flow = false;
            }
        }
        let level = self.levels();
        let n_levels = level.iter().max().copied().unwrap_or(0) as usize + 1;

        // Level-contiguous storage: engines sorted by (level, link
        // index), so each level is one contiguous slice to shard
        // across threads. `order[pos]` maps storage position back to
        // link index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (level[i], i));
        let mut pos_of = vec![0usize; n];
        for (pos, &link) in order.iter().enumerate() {
            pos_of[link] = pos;
        }
        let mut level_start = vec![0usize; n_levels + 1];
        for &l in &level {
            level_start[l as usize + 1] += 1;
        }
        for l in 0..n_levels {
            level_start[l + 1] += level_start[l];
        }

        // Edges grouped by source level, in (src_link, src_flow)
        // order within each group — the fixed mailbox drain order.
        let mut edges = self.edges;
        edges.sort_by_key(|e| (level[e.src_link as usize], e.src_link, e.src_flow));
        let mut records = vec![false; n];
        for e in &edges {
            records[e.src_link as usize] = true;
        }

        // Closed-loop path wiring (DESIGN.md §16). Walk every flow's
        // relay chain back to its path origin; when the origin's
        // source reacts to feedback, the chain's links are rewired:
        // the origin applies losses locally (`Local`), every relay
        // buffers its signals for the end-of-epoch drain (`Remote`),
        // and only the terminal hop — the one feeding no further edge
        // — reports `Delivered`.
        let pred: BTreeMap<(u32, u32), (u32, u32)> = edges
            .iter()
            .map(|e| ((e.dst_link, e.dst_flow), (e.src_link, e.src_flow)))
            .collect();
        let feeds_edge: BTreeSet<(u32, u32)> =
            edges.iter().map(|e| (e.src_link, e.src_flow)).collect();
        let origin_of = |mut l: u32, mut f: u32| {
            while let Some(&(pl, pf)) = pred.get(&(l, f)) {
                l = pl;
                f = pf;
            }
            (l, f)
        };
        // (link, flow, mode) overrides plus the relay→origin map the
        // drain uses to route buffered signals home.
        let mut mode_overrides: Vec<(u32, u32, FeedbackMode)> = Vec::new();
        let mut fb_origin: BTreeMap<(u32, u32), (u32, u32)> = BTreeMap::new();
        for (l, link) in self.links.iter().enumerate() {
            let l = l as u32;
            for f in 0..link.n_flows() as u32 {
                let (ol, of) = origin_of(l, f);
                if !self.links[ol as usize].flow_is_closed_loop(of as usize) {
                    continue;
                }
                let terminal = !feeds_edge.contains(&(l, f));
                if (ol, of) == (l, f) {
                    mode_overrides.push((
                        l,
                        f,
                        FeedbackMode::Local {
                            delivered: terminal,
                        },
                    ));
                } else {
                    fb_origin.insert((l, f), (ol, of));
                    mode_overrides.push((
                        l,
                        f,
                        FeedbackMode::Remote {
                            delivered: terminal,
                        },
                    ));
                }
            }
        }

        // Wrap each router in a paused engine, permuted into level
        // order. Only links that feed an edge record departures.
        let mut routers: Vec<Option<Router>> = self.links.into_iter().map(Some).collect();
        let mut engines: Vec<LinkEngine> = order
            .iter()
            .map(|&link| {
                let router = routers[link].take().expect("each link wrapped once");
                LinkEngine::new(router, warmup, end, seed, records[link], link as u32)
            })
            .collect();
        for &(l, f, mode) in &mode_overrides {
            engines[pos_of[l as usize]].set_feedback_mode(FlowId(f), mode);
        }
        let mut obs: Vec<Option<&mut O>> = observers.iter_mut().map(Some).collect();
        let mut obs: Vec<&mut O> = order
            .iter()
            .map(|&link| obs[link].take().expect("each observer used once"))
            .collect();

        for (e, o) in engines.iter_mut().zip(obs.iter_mut()) {
            e.prime(&mut **o);
        }

        // The epoch loop: advance level-by-level to each horizon,
        // exchanging mailboxes between levels.
        let mut horizon = Time::ZERO;
        while horizon < end {
            horizon = if end.as_nanos() - horizon.as_nanos() <= self.epoch.as_nanos() {
                end
            } else {
                horizon + self.epoch
            };
            let mut edge_cursor = 0usize;
            for l in 0..n_levels {
                let (lo, hi) = (level_start[l], level_start[l + 1]);
                advance_level(&mut engines[lo..hi], &mut obs[lo..hi], horizon, threads);
                while edge_cursor < edges.len()
                    && level[edges[edge_cursor].src_link as usize] as usize == l
                {
                    exchange(&mut engines, &pos_of, edges[edge_cursor]);
                    edge_cursor += 1;
                }
            }
            // The feedback return leg: after every level reached this
            // horizon, drain each link's buffered cross-link signals —
            // serially, in fixed storage (level, link) order — and
            // apply them to the origin flow stamped at the horizon.
            // Fixed order + a simulation-time stamp make the drain
            // byte-identical at any shard width; the horizon stamp is
            // also why closed-loop runs quantize feedback latency to
            // the epoch (see DESIGN.md §16) — unlike the forward
            // (mailbox) direction, the return leg points *up* the
            // level order, so it cannot be exact within an epoch.
            for pos in 0..engines.len() {
                let buf = engines[pos].take_feedback_out();
                if !buf.is_empty() {
                    let link = order[pos] as u32;
                    for ev in &buf {
                        let &(ol, of) = fb_origin
                            .get(&(link, ev.flow.0))
                            .expect("remote feedback from an unwired flow");
                        engines[pos_of[ol as usize]].apply_feedback(FlowId(of), horizon, ev.fb);
                    }
                }
                engines[pos].put_feedback_out(buf);
            }
        }

        // Close the runs and un-permute into link-index order.
        let mut results: Vec<Option<SimResult>> = (0..n).map(|_| None).collect();
        for ((pos, engine), o) in engines.into_iter().enumerate().zip(obs) {
            results[order[pos]] = Some(engine.finish(o));
        }
        results
            .into_iter()
            .map(|r| r.expect("each link finished once"))
            .collect()
    }
}

/// Advance every engine of one topological level to `horizon`,
/// sharding the level across up to `threads` scoped threads. Chunking
/// is by position only — engines share nothing, so the split affects
/// wall-clock, never results.
fn advance_level<O: Observer + Send>(
    engines: &mut [LinkEngine],
    obs: &mut [&mut O],
    horizon: Time,
    threads: usize,
) {
    if threads <= 1 || engines.len() <= 1 {
        for (e, o) in engines.iter_mut().zip(obs.iter_mut()) {
            e.advance(horizon, &mut **o);
        }
        return;
    }
    let chunk = engines.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (es, os) in engines.chunks_mut(chunk).zip(obs.chunks_mut(chunk)) {
            s.spawn(move || {
                for (e, o) in es.iter_mut().zip(os.iter_mut()) {
                    e.advance(horizon, &mut **o);
                }
            });
        }
    });
}

/// Deliver one edge's mailbox: take the source flow's recorded batch,
/// swap it into the destination flow's replay source, and put the
/// recovered spare buffer back as the next recording buffer.
fn exchange(engines: &mut [LinkEngine], pos_of: &[usize], e: Edge) {
    let (src, dst) = (pos_of[e.src_link as usize], pos_of[e.dst_link as usize]);
    debug_assert!(src < dst, "edge must point down the level order");
    let (head, tail) = engines.split_at_mut(dst);
    let src_buf = head[src].trace_buf_mut(e.src_flow as usize);
    let mut batch = std::mem::take(src_buf);
    tail[0].deliver(FlowId(e.dst_flow), &mut batch);
    *head[src].trace_buf_mut(e.src_flow as usize) = batch;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{incast_fanin, LinkProfile, LINK_RATE};
    use qbm_core::units::Rate;
    use qbm_traffic::table1;

    fn tiny_incast() -> Fabric {
        incast_fanin(
            2,
            &table1()[..2],
            LINK_RATE,
            Rate::from_mbps(40.0),
            &LinkProfile::default(),
            5,
        )
    }

    #[test]
    fn epoch_length_does_not_change_results() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs(1));
        let coarse = tiny_incast().run(5, warmup, end, 1);
        let fine = tiny_incast()
            .with_epoch(Dur::from_millis(73))
            .run(5, warmup, end, 1);
        assert_eq!(coarse, fine, "epoch length leaked into results");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs(1));
        let serial = tiny_incast().run(5, warmup, end, 1);
        let wide = tiny_incast().run(5, warmup, end, 8);
        assert_eq!(serial, wide, "shard width leaked into results");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_link_graph_rejected() {
        let mut f = tiny_incast();
        // Aggregator (link 2) back into sender 0: a 2-link cycle.
        f.connect(2, 0, 0, 0);
        let _ = f.run(5, Time::ZERO, Time::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "already feeds an edge")]
    fn double_use_of_a_source_flow_rejected() {
        let mut f = tiny_incast();
        f.connect(0, 1, 1, 0);
    }
}
