//! Remark 1 at packet level: "if a flow exceeds its negotiated peak
//! rate, it will not be penalized excessively, i.e., it will have more
//! bits delivered (up to any time) than had it been a lower volume
//! conformant flow."
//!
//! The paper proves this with a green/red coloring argument: pretend
//! conformant (green) bits have priority, then swap colors so that at
//! least as many bits get through as there were conformant bits. The
//! router's optional `(σ, ρ)` meters implement exactly that coloring,
//! and these tests check the resulting inequality:
//!
//! ```text
//! delivered_bytes(T) + buffer ≥ green_offered_bytes(T)
//! ```
//!
//! (the buffer slack covers bits still queued at the horizon).

use qos_buffer_mgmt::core::flow::{Conformance, FlowId, FlowSpec};
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
use qos_buffer_mgmt::sched::Fifo;
use qos_buffer_mgmt::sim::Router;
use qos_buffer_mgmt::traffic::{build_source_kind, table1, SourceKind};

const LINK: Rate = Rate::from_bps(48_000_000);

fn metered_table1_run(buffer: u64, seed: u64) -> qos_buffer_mgmt::sim::SimResult {
    let specs = table1();
    let policy = PolicyKind::Threshold.build(buffer, LINK, &specs);
    let sources: Vec<SourceKind> = specs.iter().map(|s| build_source_kind(s, seed)).collect();
    Router::new(LINK, policy, Box::new(Fifo::new()), sources)
        .with_meters(&specs)
        .run(Time::ZERO, Time::from_secs(10), seed)
}

/// The Remark-1 inequality holds for every flow — including the
/// aggressive ones whose red packets are dropped in bulk.
#[test]
fn delivered_at_least_green_offered() {
    let buffer = ByteSize::from_mib(2).bytes();
    for seed in 1..=3 {
        let res = metered_table1_run(buffer, seed);
        for (i, f) in res.flows.iter().enumerate() {
            assert!(
                f.delivered_bytes + buffer >= f.green_offered_bytes,
                "seed {seed} flow {i}: delivered {} + buffer < green offered {}",
                f.delivered_bytes,
                f.green_offered_bytes,
            );
        }
    }
}

/// Sanity on the coloring itself: conformant (shaped) flows are ~all
/// green; aggressive flows offer far more red than green.
#[test]
fn coloring_matches_flow_classes() {
    let res = metered_table1_run(ByteSize::from_mib(2).bytes(), 1);
    let specs = table1();
    for s in &specs {
        let f = &res.flows[s.id.index()];
        let green_frac = f.green_offered_bytes as f64 / f.offered_bytes.max(1) as f64;
        match s.class {
            Conformance::Conformant => assert!(
                green_frac > 0.99,
                "{}: shaped flow only {:.2}% green",
                s.id,
                green_frac * 100.0
            ),
            Conformance::Aggressive => assert!(
                green_frac < 0.7,
                "{}: aggressive flow {:.2}% green",
                s.id,
                green_frac * 100.0
            ),
            Conformance::ModeratelyNonConformant => {}
        }
    }
}

/// The sharper form of Remark 1 for aggressive flows: their *delivered*
/// volume exceeds their conformant sub-flow's volume — they profit from
/// excess sending, they are never penalized below the guarantee.
#[test]
fn aggressive_flows_deliver_more_than_their_conformant_subflow() {
    let res = metered_table1_run(ByteSize::from_mib(2).bytes(), 2);
    for s in table1()
        .iter()
        .filter(|s| s.class == Conformance::Aggressive)
    {
        let f = &res.flows[s.id.index()];
        assert!(
            f.delivered_bytes > f.green_offered_bytes,
            "{}: delivered {} ≤ conformant sub-flow {}",
            s.id,
            f.delivered_bytes,
            f.green_offered_bytes
        );
    }
}

/// Unmetered routers mark everything green (the default behaviour is
/// backward compatible).
#[test]
fn unmetered_runs_have_no_green_accounting() {
    let specs: Vec<FlowSpec> = table1();
    let policy = PolicyKind::Threshold.build(1 << 20, LINK, &specs);
    let sources: Vec<SourceKind> = specs.iter().map(|s| build_source_kind(s, 1)).collect();
    let res = Router::new(LINK, policy, Box::new(Fifo::new()), sources).run(
        Time::ZERO,
        Time::from_secs(2),
        1,
    );
    for f in &res.flows {
        // No meters: on_color is called with green=true for every
        // packet, so green_offered == offered.
        assert_eq!(f.green_offered_bytes, f.offered_bytes);
        assert_eq!(f.green_delivered_bytes, f.delivered_bytes);
    }
    let _ = FlowId(0);
}
