//! Delay bounds — the §1 trade-off quantified.
//!
//! The paper's §1 argument for trading scheduling precision away: on a
//! fast link, even the *worst-case* FIFO delay `B·8/R` is small (1 MB on
//! OC-48 < 3.5 ms), while WFQ's per-flow bound
//!
//! ```text
//! Dᵢ ≤ σᵢ/ρᵢ + Lᵢ/ρᵢ + L_max/R      (Parekh–Gallager, single node)
//! ```
//!
//! is *tight* per flow but requires the sorting scheduler. This module
//! provides both bounds so capacity planners can see exactly what delay
//! precision is given up by the buffer-management approach, per flow.
#![allow(clippy::items_after_test_module)] // composition utils grouped with their tests

use crate::flow::FlowSpec;
use crate::units::{Dur, Rate};

/// Worst-case FIFO queueing delay for *any* packet admitted to a
/// `b_bytes` buffer drained at `r`: every admitted packet waits at most
/// a full buffer plus its own transmission.
pub fn fifo_delay_bound(b_bytes: u64, r: Rate, pkt_bytes: u32) -> Dur {
    r.transmission_time(b_bytes + pkt_bytes as u64)
}

/// Parekh–Gallager single-node WFQ delay bound for a `(σᵢ, ρᵢ)` flow
/// whose WFQ weight equals its token rate: `σᵢ/ρᵢ + Lᵢ/ρᵢ + L_max/R`.
///
/// Returns `None` for a zero reserved rate (no guarantee exists).
pub fn wfq_delay_bound(spec: &FlowSpec, link: Rate, max_pkt_bytes: u32) -> Option<Dur> {
    if spec.token_rate.bps() == 0 {
        return None;
    }
    let burst = spec
        .token_rate
        .transmission_time(spec.bucket_bytes + max_pkt_bytes as u64);
    let store_forward = link.transmission_time(max_pkt_bytes as u64);
    Some(burst + store_forward)
}

/// How much looser the FIFO bound is than the WFQ bound for each flow —
/// the per-flow price of O(1) scheduling (≥ 1 when FIFO is looser,
/// which is the typical case for high-rate flows; low-rate flows can
/// actually have *worse* WFQ bounds because σ/ρ dominates).
pub fn delay_inflation(specs: &[FlowSpec], link: Rate, b_bytes: u64, pkt: u32) -> Vec<f64> {
    let fifo = fifo_delay_bound(b_bytes, link, pkt).as_secs_f64();
    specs
        .iter()
        .map(|s| match wfq_delay_bound(s, link, pkt) {
            Some(w) if w.as_nanos() > 0 => fifo / w.as_secs_f64(),
            _ => f64::INFINITY,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;

    fn spec(rho_mbps: f64, bucket: u64) -> FlowSpec {
        FlowSpec::builder(FlowId(0))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(bucket)
            .build()
    }

    #[test]
    fn oc48_claim_from_section_1() {
        let d = fifo_delay_bound(1 << 20, Rate::from_bps(2_400_000_000), 32);
        assert!(d < Dur::from_millis(4));
    }

    #[test]
    fn wfq_bound_components() {
        // σ = 50 KiB at ρ = 2 Mb/s: σ/ρ ≈ 204.8 ms dominates; plus one
        // 500 B packet at ρ (2 ms) and one at R (83 µs).
        let s = spec(2.0, 51_200);
        let d = wfq_delay_bound(&s, Rate::from_mbps(48.0), 500).unwrap();
        let expect = (51_200.0 + 500.0) * 8.0 / 2e6 + 500.0 * 8.0 / 48e6;
        assert!((d.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_flow_has_no_bound() {
        let s = spec(0.0, 1000);
        assert_eq!(wfq_delay_bound(&s, Rate::from_mbps(48.0), 500), None);
    }

    #[test]
    fn inflation_direction_depends_on_rate() {
        // High-rate flow: tight WFQ bound, so FIFO looks much looser.
        // Low-rate bursty flow: σ/ρ blows up the WFQ bound and FIFO can
        // even be tighter (inflation < 1) — the §1 argument that FIFO
        // delay is acceptable on fast links.
        let link = Rate::from_mbps(48.0);
        let b = 1u64 << 20;
        let specs = vec![spec(16.0, 10_000), spec(0.4, 51_200)];
        let infl = delay_inflation(&specs, link, b, 500);
        assert!(infl[0] > 1.0, "high-rate inflation {}", infl[0]);
        assert!(infl[1] < 1.0, "low-rate inflation {}", infl[1]);
    }

    #[test]
    fn fifo_bound_scales_linearly_with_buffer() {
        let link = Rate::from_mbps(48.0);
        let d1 = fifo_delay_bound(1 << 20, link, 500).as_secs_f64();
        let d2 = fifo_delay_bound(1 << 21, link, 500).as_secs_f64();
        assert!((d2 / d1 - 2.0).abs() < 0.01);
    }
}

/// Output burstiness of a flow after traversing a node with worst-case
/// delay `d` — the network-calculus composition rule `σ_out = σ + ρ·d`.
///
/// This is what makes multi-hop planning (the `qbm-sim` tandem-line
/// extension, `scenarios::tandem_line`) conservative: hop `i+1` should be provisioned for the
/// *inflated* burst, since a node can release up to `ρ·d` extra bytes
/// back-to-back after holding the flow for `d`.
pub fn output_burstiness_bytes(sigma_bytes: f64, rho: Rate, d: Dur) -> f64 {
    sigma_bytes + rho.bytes_per_sec() * d.as_secs_f64()
}

/// Per-hop burst inflation along a line of nodes with worst-case FIFO
/// delays `hop_delays`: returns σ after each hop (network-calculus
/// composition applied cumulatively).
pub fn burstiness_along_path(sigma_bytes: f64, rho: Rate, hop_delays: &[Dur]) -> Vec<f64> {
    let mut out = Vec::with_capacity(hop_delays.len());
    let mut sigma = sigma_bytes;
    for &d in hop_delays {
        sigma = output_burstiness_bytes(sigma, rho, d);
        out.push(sigma);
    }
    out
}

#[cfg(test)]
mod composition_tests {
    use super::*;
    use crate::flow::{FlowId, FlowSpec};

    #[test]
    fn output_burstiness_grows_linearly_with_delay() {
        let rho = Rate::from_mbps(2.0); // 250 KB/s
        let s1 = output_burstiness_bytes(51_200.0, rho, Dur::from_millis(100));
        assert!((s1 - (51_200.0 + 25_000.0)).abs() < 1e-9);
        // Zero delay: unchanged.
        assert_eq!(output_burstiness_bytes(51_200.0, rho, Dur::ZERO), 51_200.0);
    }

    #[test]
    fn path_composition_accumulates() {
        let rho = Rate::from_mbps(2.0);
        let d = Dur::from_millis(100); // 25 KB of inflation per hop
        let path = burstiness_along_path(51_200.0, rho, &[d, d, d]);
        assert_eq!(path.len(), 3);
        for (i, s) in path.iter().enumerate() {
            let expect = 51_200.0 + 25_000.0 * (i + 1) as f64;
            assert!((s - expect).abs() < 1e-9, "hop {i}: {s}");
        }
    }

    #[test]
    fn inflated_burst_feeds_downstream_threshold() {
        // The practical loop: hop-1 delay bound inflates σ; hop 2's
        // Prop-2 threshold must use the inflated value.
        let link = Rate::from_mbps(48.0);
        let b1 = 1u64 << 20;
        let spec = FlowSpec::builder(FlowId(0))
            .token_rate(Rate::from_mbps(2.0))
            .bucket(51_200)
            .build();
        let d1 = fifo_delay_bound(b1, link, 500);
        let sigma2 = output_burstiness_bytes(spec.bucket_bytes as f64, spec.token_rate, d1);
        let t2 = crate::analysis::fifo_bounds::token_bucket_threshold(
            b1 as f64,
            link.bps() as f64,
            spec.token_rate.bps() as f64,
            sigma2,
        );
        // Strictly larger than the naive single-hop threshold.
        let t1 = crate::analysis::fifo_bounds::token_bucket_threshold(
            b1 as f64,
            link.bps() as f64,
            spec.token_rate.bps() as f64,
            spec.bucket_bytes as f64,
        );
        assert!(t2 > t1);
    }
}
