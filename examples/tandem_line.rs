//! Multi-hop composition (repo extension): Table 1 through a two-hop
//! line — a 48 Mb/s access hop followed by a 40 Mb/s bottleneck — with
//! threshold buffer management at both hops. Demonstrates that the
//! paper's per-node guarantees compose along a path: conformant flows
//! stay lossless end-to-end while the bottleneck sheds only aggressive
//! excess.
//!
//! ```text
//! cargo run --release --example tandem_line
//! ```

use qos_buffer_mgmt::core::admission::fifo_required_buffer;
use qos_buffer_mgmt::core::flow::Conformance;
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
use qos_buffer_mgmt::sched::SchedKind;
use qos_buffer_mgmt::sim::scenarios::{tandem_line, LinkProfile};
use qos_buffer_mgmt::sim::PolicySpec;
use qos_buffer_mgmt::traffic::table1;

fn main() {
    let specs = table1();
    let fast = Rate::from_mbps(48.0);
    let slow = Rate::from_mbps(40.0);
    // Each hop gets the Eq.-9 lossless buffer for ITS link rate —
    // the bottleneck needs more despite being slower (utilization is
    // higher there: 32.8/40 vs 32.8/48).
    let b1 = fifo_required_buffer(fast, &specs).ceil() as u64;
    let b2 = fifo_required_buffer(slow, &specs).ceil() as u64;
    println!(
        "hop 1: {fast}, Eq.9 buffer {}\nhop 2: {slow}, Eq.9 buffer {}\n",
        ByteSize::from_bytes(b1),
        ByteSize::from_bytes(b2)
    );

    let hop = |rate, buffer_bytes| {
        let profile = LinkProfile {
            buffer_bytes,
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            ..LinkProfile::default()
        };
        (rate, profile)
    };
    // The line is a two-link fabric: hop 2's flows replay hop 1's
    // departures.
    let res = tandem_line(&[hop(fast, b1), hop(slow, b2)], &specs, 1).run(
        1,
        Time::from_secs(2),
        Time::from_secs(22),
        1,
    );

    println!(
        "{:>5} {:>10} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "flow", "reserved", "h1 Mb/s", "h1loss%", "h2 Mb/s", "h2loss%", "class"
    );
    for s in &specs {
        println!(
            "{:>5} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>12}",
            s.id.0,
            format!("{}", s.token_rate),
            res[0].flow_throughput_bps(s.id) / 1e6,
            res[0].flows[s.id.index()].loss_ratio() * 100.0,
            res[1].flow_throughput_bps(s.id) / 1e6,
            res[1].flows[s.id.index()].loss_ratio() * 100.0,
            match s.class {
                Conformance::Conformant => "conformant",
                Conformance::ModeratelyNonConformant => "moderate",
                Conformance::Aggressive => "aggressive",
            },
        );
    }
    let conf_loss: f64 = res
        .iter()
        .map(|r| r.class_loss_ratio(&specs, Conformance::Conformant))
        .sum();
    println!(
        "\ntotal conformant loss across both hops: {:.4}% — per-node Eq.9 \
         admission composes into an end-to-end guarantee",
        conf_loss * 100.0
    );
}
