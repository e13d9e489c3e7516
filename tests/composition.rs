//! Multi-hop composition: network-calculus burst inflation
//! (`σ_out = σ + ρ·D`) drives per-hop provisioning, and a simulated
//! tandem line confirms the resulting line is lossless for conformant
//! flows — the deployment recipe the paper's single-node analysis
//! enables.

use qos_buffer_mgmt::core::analysis::delay::{fifo_delay_bound, output_burstiness_bytes};
use qos_buffer_mgmt::core::flow::{Conformance, FlowSpec};
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{Rate, Time};
use qos_buffer_mgmt::sched::SchedKind;
use qos_buffer_mgmt::sim::scenarios::{tandem_line, LinkProfile};
use qos_buffer_mgmt::sim::PolicySpec;
use qos_buffer_mgmt::traffic::table1;

/// Inflate every flow's σ by the upstream hop's worst-case delay and
/// size the hop with Eq. 9 over the inflated specs.
/// One FIFO hop of a line.
fn hop(rate: Rate, buffer_bytes: u64, policy: PolicySpec) -> (Rate, LinkProfile) {
    let profile = LinkProfile {
        buffer_bytes,
        sched: SchedKind::Fifo,
        policy,
        ..LinkProfile::default()
    };
    (rate, profile)
}

fn provision_hop(
    specs: &[FlowSpec],
    rate: Rate,
    upstream_delay: Option<qos_buffer_mgmt::core::units::Dur>,
) -> (Vec<FlowSpec>, u64) {
    let inflated: Vec<FlowSpec> = specs
        .iter()
        .map(|s| {
            let sigma = match upstream_delay {
                Some(d) => {
                    output_burstiness_bytes(s.bucket_bytes as f64, s.token_rate, d).ceil() as u64
                }
                None => s.bucket_bytes,
            };
            let mut spec = *s;
            spec.bucket_bytes = sigma;
            spec
        })
        .collect();
    let buffer =
        qos_buffer_mgmt::core::admission::fifo_required_buffer(rate, &inflated).ceil() as u64;
    (inflated, buffer)
}

#[test]
fn three_hop_line_provisioned_by_network_calculus_is_lossless() {
    let specs = table1();
    let rates = [
        Rate::from_mbps(48.0),
        Rate::from_mbps(44.0),
        Rate::from_mbps(40.0),
    ];
    // Provision hop by hop, inflating σ with the upstream delay bound.
    let mut hops = Vec::new();
    let mut upstream_delay = None;
    let mut hop_specs = specs.clone();
    for &rate in &rates {
        let (inflated, buffer) = provision_hop(&hop_specs, rate, upstream_delay);
        // Thresholds computed from the *inflated* specs at this hop.
        let thresholds = qos_buffer_mgmt::core::policy::compute_thresholds(
            buffer,
            rate,
            &inflated,
            Default::default(),
        );
        hops.push(hop(
            rate,
            buffer,
            PolicySpec::ExplicitThreshold { thresholds },
        ));
        upstream_delay = Some(fifo_delay_bound(buffer, rate, 500));
        hop_specs = inflated;
    }
    let res = tandem_line(&hops, &specs, 1).run(1, Time::from_secs(1), Time::from_secs(31), 1);
    assert_eq!(res.len(), 3);
    for (h, r) in res.iter().enumerate() {
        assert_eq!(
            r.class_loss_ratio(&specs, Conformance::Conformant),
            0.0,
            "hop {h}: conformant loss on a calculus-provisioned line"
        );
    }
    // End-to-end throughput still meets every conformant reservation.
    let last = res.last().unwrap();
    for s in specs.iter().filter(|s| s.class.is_conformant()) {
        let thr = last.flow_throughput_bps(s.id);
        assert!(
            thr > 0.8 * s.token_rate.bps() as f64,
            "{}: end-to-end {thr}",
            s.id
        );
    }
}

#[test]
fn burst_inflation_is_monotone_along_the_line() {
    let specs = table1();
    let d = fifo_delay_bound(1 << 20, Rate::from_mbps(48.0), 500);
    for s in &specs {
        let path = qos_buffer_mgmt::core::analysis::delay::burstiness_along_path(
            s.bucket_bytes as f64,
            s.token_rate,
            &[d, d, d],
        );
        assert!(path.windows(2).all(|w| w[1] > w[0]));
        assert!(path[0] > s.bucket_bytes as f64);
    }
}

#[test]
fn under_provisioned_middle_hop_loses_what_calculus_predicts_it_might() {
    // Sanity inverse: skip the inflation at hop 2 (use the original σ)
    // with a deliberately small buffer — conformant flows may now lose
    // packets there, showing the inflation step is load-bearing.
    let specs = table1();
    let r2 = Rate::from_mbps(40.0);
    let thresh = PolicySpec::Kind(PolicyKind::Threshold);
    let hops = vec![
        hop(Rate::from_mbps(48.0), 1 << 21, thresh.clone()),
        // Far below the Eq.9 requirement at 40 Mb/s (≈ 3.3 MiB).
        hop(r2, 128 * 1024, thresh),
    ];
    let res = tandem_line(&hops, &specs, 5).run(5, Time::from_secs(1), Time::from_secs(9), 1);
    let loss2 = res[1].class_loss_ratio(&specs, Conformance::Conformant);
    assert!(
        loss2 > 0.0,
        "under-provisioned bottleneck showed no conformant loss — \
         the provisioning rule would be vacuous"
    );
}
