//! Property-based cross-validation: the §2 closed-form analysis against
//! the packet-level simulator, over randomized flow sets. These are the
//! repo's strongest correctness checks — two independent
//! implementations (algebra in qbm-core, events in qbm-sim) must agree.

use proptest::prelude::*;
use qos_buffer_mgmt::core::admission::{admissible, AdmissionOutcome, Discipline, LinkConfig};
use qos_buffer_mgmt::core::flow::{Conformance, FlowId, FlowSpec};
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{Dur, Rate, Time};
use qos_buffer_mgmt::sched::SchedKind;
use qos_buffer_mgmt::sim::{ExperimentConfig, PolicySpec, Router};
use qos_buffer_mgmt::traffic::CbrSource;

const LINK: Rate = Rate::from_bps(48_000_000);

/// Random mixes of shaped (conformant) flows plus one aggressive CBR
/// blast. If Eq. 9 admits the set for the configured buffer, the
/// simulator must show zero conformant loss.
fn flow_set(rates_mbps: &[f64], buckets_kib: &[u64]) -> Vec<FlowSpec> {
    let n = rates_mbps.len().min(buckets_kib.len());
    let mut specs: Vec<FlowSpec> = (0..n)
        .map(|i| {
            FlowSpec::builder(FlowId(i as u32))
                .peak(Rate::from_mbps(40.0))
                .avg(Rate::from_mbps(rates_mbps[i]))
                .bucket(buckets_kib[i] * 1024)
                .token_rate(Rate::from_mbps(rates_mbps[i]))
                .class(Conformance::Conformant)
                .adaptive(true)
                .build()
        })
        .collect();
    // One unregulated blast with a minimal reservation.
    specs.push(
        FlowSpec::builder(FlowId(n as u32))
            .peak(Rate::from_mbps(40.0))
            .avg(Rate::from_mbps(20.0))
            .bucket(10 * 1024)
            .token_rate(Rate::from_kbps(100.0))
            .mean_burst(200 * 1024)
            .class(Conformance::Aggressive)
            .build(),
    );
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Eq. 9 admission ⟹ lossless conformant service (packet level).
    #[test]
    fn admitted_sets_are_lossless(
        rates in proptest::collection::vec(0.5f64..6.0, 2..5),
        buckets in proptest::collection::vec(10u64..80, 2..5),
        seed in 0u64..1000,
    ) {
        let specs = flow_set(&rates, &buckets);
        let needed = qos_buffer_mgmt::core::admission::fifo_required_buffer(LINK, &specs);
        prop_assume!(needed.is_finite());
        let buffer = needed.ceil() as u64;
        // Double-check the admission test agrees at this exact buffer.
        prop_assert_eq!(
            admissible(LinkConfig::new(LINK, buffer), Discipline::FifoThreshold, &specs),
            AdmissionOutcome::Accepted
        );
        let cfg = ExperimentConfig {
            link_rate: LINK,
            buffer_bytes: buffer,
            specs: specs.clone(),
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            warmup: Dur::from_millis(500),
            duration: Dur::from_secs(3),
        sojourns: Default::default(),
        stats: Default::default(),
            sources: Default::default(),
        };
        let res = cfg.run_once(seed);
        let loss = res.class_loss_ratio(&specs, Conformance::Conformant);
        prop_assert_eq!(loss, 0.0, "conformant loss {} at Eq.9 buffer", loss);
    }

    /// Proposition 1 necessity at packet level: a CBR flow at rate ρ
    /// against a greedy blast keeps exactly its guarantee — throughput
    /// within packetization error of ρ, no loss.
    #[test]
    fn prop1_packet_level(rho_mbps in 2.0f64..36.0, seed in 0u64..100) {
        let specs = vec![
            FlowSpec::builder(FlowId(0))
                .token_rate(Rate::from_mbps(rho_mbps))
                .bucket(1000)
                .build(),
            FlowSpec::builder(FlowId(1))
                .token_rate(Rate::from_mbps(1.0))
                .bucket(1000)
                .class(Conformance::Aggressive)
                .build(),
        ];
        let b = 500_000u64;
        let policy = PolicyKind::Threshold.build(b, LINK, &specs);
        let sources = vec![
            CbrSource::new(Rate::from_mbps(rho_mbps), 500, Time::ZERO),
            CbrSource::greedy(LINK, 500, 2),
        ];
        let router = Router::new(
            LINK,
            policy,
            Box::new(qos_buffer_mgmt::sched::Fifo::new()),
            sources,
        );
        let res = router.run(Time::from_secs(2), Time::from_secs(6), seed);
        prop_assert_eq!(res.flows[0].dropped_pkts, 0);
        let thr = res.flow_throughput_bps(FlowId(0));
        let rel = (thr - rho_mbps * 1e6).abs() / (rho_mbps * 1e6);
        prop_assert!(rel < 0.05, "delivered {} of reserved {}", thr, rho_mbps * 1e6);
    }

    /// WFQ needs only Σσ (Eq. 6) — the same randomized conformant sets
    /// are lossless under WFQ with the *smaller* buffer plus headroom
    /// for the in-flight packets the fluid model ignores (footnote 4:
    /// "we ignore packetization": one max packet per flow).
    #[test]
    fn wfq_lossless_at_sum_sigma(
        rates in proptest::collection::vec(0.5f64..6.0, 2..5),
        buckets in proptest::collection::vec(10u64..80, 2..5),
        seed in 0u64..1000,
    ) {
        let specs = flow_set(&rates, &buckets);
        let sum_sigma: u64 = specs.iter().map(|s| s.bucket_bytes).sum();
        let pktization = 500 * specs.len() as u64;
        let cfg = ExperimentConfig {
            link_rate: LINK,
            buffer_bytes: sum_sigma + pktization,
            specs: specs.clone(),
            sched: SchedKind::Wfq,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            warmup: Dur::from_millis(500),
            duration: Dur::from_secs(3),
        sojourns: Default::default(),
        stats: Default::default(),
            sources: Default::default(),
        };
        let res = cfg.run_once(seed);
        let loss = res.class_loss_ratio(&specs, Conformance::Conformant);
        prop_assert_eq!(loss, 0.0, "conformant loss {} under WFQ at Σσ", loss);
    }
}
