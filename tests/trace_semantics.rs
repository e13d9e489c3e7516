//! Trace semantics against the paper's Example 1 analysis.
//!
//! A trace is only useful if its records mean what they claim. This
//! test drives the §3.3 sharing policy with a *deterministic* workload
//! — one greedy CBR flow against one idle flow — where the analytical
//! model (`core::analysis::example1`) predicts, in closed form, when
//! the greedy flow's occupancy crosses its reserved share and when the
//! self-limiting sharing rule starts refusing it buffer. The traced
//! threshold-crossing and headroom-denied-drop records must land on
//! those instants to within packet granularity.

use qos_buffer_mgmt::core::analysis::Example1;
use qos_buffer_mgmt::core::flow::FlowId;
use qos_buffer_mgmt::core::policy::{BufferSharing, DropReason};
use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
use qos_buffer_mgmt::obs::{verify_trace, TraceRecord, Tracer};
use qos_buffer_mgmt::sched::Fifo;
use qos_buffer_mgmt::sim::Router;
use qos_buffer_mgmt::traffic::CbrSource;

/// Packet length used throughout (the workloads' 500-byte cells).
const PKT: u32 = 500;

#[test]
fn crossing_and_denial_times_match_example1_analysis() {
    // Example 1 geometry: B = 1 MiB split by reservation on a
    // 48 Mb/s link with flow 0 reserved 12 Mb/s, so
    // B1 = B·ρ1/R = 256 KiB and B2 = 768 KiB.
    let b = ByteSize::from_mib(1).bytes();
    let r_bps = 48e6;
    let ex = Example1::from_buffer(b as f64, r_bps, 12e6);
    let b1 = (b as f64 - ex.b2_bytes) as u64;
    let b2 = ex.b2_bytes as u64;
    assert_eq!((b1, b2), (262_144, 786_432));

    // Flow 0 idle (first packet far beyond the horizon), flow 1 a
    // greedy 2R CBR — the paper's "greedy flow keeps its share pinned
    // full". Zero headroom: all free space is holes.
    let link = Rate::from_mbps(48.0);
    let sources = vec![
        CbrSource::new(link, PKT, Time::from_secs(3600)),
        CbrSource::greedy(link, PKT, 2),
    ];
    let policy = BufferSharing::with_reserved(b, vec![b1, b2], 0);
    let router = Router::new(link, Box::new(policy), Box::new(Fifo::new()), sources);

    let mut tracer = Tracer::new(1 << 18);
    let end = Time::from_secs_f64(0.2);
    let res = router.run_with(Time::ZERO, end, 1, &mut tracer);
    assert_eq!(tracer.truncated(), 0, "ring buffer sized for the window");
    verify_trace(&tracer.to_jsonl()).expect("trace must pass its own schema check");

    // The greedy flow's backlog grows at A − R = R, i.e. R/8 bytes/s.
    let growth = r_bps / 8.0;
    let first_crossing = tracer
        .records()
        .find_map(|rec| match rec {
            TraceRecord::Threshold {
                t,
                flow: FlowId(1),
                up: true,
                ..
            } => Some(*t),
            _ => None,
        })
        .expect("greedy flow must cross its reserved share");
    // Crossing when q(t) first exceeds B2: t* = B2 / growth.
    let t_star = b2 as f64 / growth;
    let got = first_crossing.as_nanos() as f64 / 1e9;
    assert!(
        (got - t_star).abs() < 2e-3,
        "upward crossing at {got:.6}s, analysis predicts {t_star:.6}s"
    );

    // The self-limiting rule denies an above-threshold packet once
    // excess + len exceeds the remaining holes: with flow 0 idle and
    // zero headroom that is q > (B + B2 − len)/2.
    let q_deny = (b as f64 + b2 as f64 - PKT as f64) / 2.0;
    let (first_denial, denial_q) = tracer
        .records()
        .find_map(|rec| match rec {
            TraceRecord::Drop {
                t,
                flow: FlowId(1),
                reason: DropReason::NoSharedSpace,
                ..
            } => Some(*t),
            _ => None,
        })
        .map(|t| (t, q_deny))
        .expect("sharing must eventually refuse the greedy flow");
    let t_deny = denial_q / growth;
    let got_deny = first_denial.as_nanos() as f64 / 1e9;
    assert!(
        (got_deny - t_deny).abs() < 2e-3,
        "first headroom-denied drop at {got_deny:.6}s, analysis predicts {t_deny:.6}s"
    );
    // Order sanity: the crossing strictly precedes the denial, and the
    // gap matches the analysis (denial comes (q_deny − B2)/growth
    // later).
    assert!(first_crossing < first_denial);

    // The enqueue stream must show the occupancy actually sitting at
    // the denial point when drops begin (within one packet).
    let q_at_denial = tracer
        .records()
        .filter_map(|rec| match rec {
            TraceRecord::Enqueue {
                t,
                flow: FlowId(1),
                q,
                ..
            } if *t <= first_denial => Some(*q),
            _ => None,
        })
        .last()
        .expect("enqueues precede the first denial");
    assert!(
        (q_at_denial as f64 - q_deny).abs() <= PKT as f64,
        "occupancy at first denial is {q_at_denial}, analysis predicts {q_deny:.0}"
    );

    // And the statistics agree with the trace: every recorded drop is a
    // headroom denial of flow 1.
    let traced_drops = tracer
        .records()
        .filter(|r| matches!(r, TraceRecord::Drop { .. }))
        .count() as u64;
    let stat_drops: u64 = res.flows[1].drops_no_shared_space;
    assert_eq!(
        traced_drops, stat_drops,
        "trace and stats disagree on drops"
    );
}
