//! Output checks shared by every run: packet conservation per flow and
//! per relay edge, and a digest that must repeat across repetitions.

use qbm_core::policy::DropReason;
use qbm_sim::{FlowStats, SimResult};

/// Per-flow and per-link conservation of one result.
///
/// Within a measurement window, `offered − delivered − dropped` is the
/// change in what the link holds between the window's two ends, so its
/// bytes lie within `±buffer` per flow and in total. With no warm-up
/// the link starts empty and the difference is exactly what is left
/// queued at the end: it must lie in `[0, buffer]`. Drop causes must
/// add up to the drop count.
pub fn conserves(r: &SimResult, buffer: u64, from_empty: bool) -> bool {
    let mut total: i128 = 0;
    for f in &r.flows {
        let causes: u64 = [
            DropReason::BufferFull,
            DropReason::OverThreshold,
            DropReason::NoSharedSpace,
        ]
        .iter()
        .map(|&c| f.drops(c))
        .sum();
        if causes != f.dropped_pkts {
            return false;
        }
        let left = f.offered_bytes as i128 - f.delivered_bytes as i128 - f.dropped_bytes as i128;
        let left_pkts = f.offered_pkts as i128 - f.delivered_pkts as i128 - f.dropped_pkts as i128;
        if !within(left, buffer, from_empty) || (from_empty && left_pkts < 0) {
            return false;
        }
        total += left;
    }
    within(total, buffer, from_empty)
}

fn within(left: i128, buffer: u64, from_empty: bool) -> bool {
    let lo = if from_empty { 0 } else { -(buffer as i128) };
    (lo..=buffer as i128).contains(&left)
}

/// A relay edge delivers exactly what its upstream flow sent: the
/// fabric replays departures as arrivals at the same instant, so both
/// ends see the same packets in any window.
pub fn edge_conserves(up: &FlowStats, down: &FlowStats) -> bool {
    up.delivered_pkts == down.offered_pkts && up.delivered_bytes == down.offered_bytes
}

/// FNV-1a over every counter of a result: repetitions of one seed must
/// agree (a result is a pure function of configuration and seed).
pub fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.window.0);
    for f in &r.flows {
        for x in [
            f.offered_bytes,
            f.offered_pkts,
            f.dropped_bytes,
            f.dropped_pkts,
            f.drops_buffer_full,
            f.drops_over_threshold,
            f.drops_no_shared_space,
            f.delivered_bytes,
            f.delivered_pkts,
            f.delay_sum_ns as u64,
            (f.delay_sum_ns >> 64) as u64,
            f.delay_max_ns,
        ] {
            eat(x);
        }
        f.delay_hist.iter().for_each(|&x| eat(x));
    }
    for s in [&r.delay_sketch, &r.occ_sketch].into_iter().flatten() {
        eat(s.count());
        for q in [0.5, 0.99] {
            eat(s.quantile(q));
        }
    }
    h
}

/// Arrivals plus departures a result counts.
pub fn events(r: &SimResult) -> u64 {
    r.flows
        .iter()
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum()
}
