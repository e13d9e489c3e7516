//! Microbenchmark of the scheduler-path primitives: Q32.32 divisions,
//! indexed active-set updates, and queue ops — the unit cost of each
//! primitive, so per-run op counts (perfbench's `sched.ops`,
//! `timers.ops`) convert into a time budget. Its scan-vs-tree layout
//! sweep is the measurement behind `SCAN_TREE_CROSSOVER`.
//!
//! Usage: `cargo run --release -p qbm-bench --example prim_costs`

use qbm_core::units::{Dur, Time};
use qbm_sched::{ActiveSet, Layout, VirtualTime, SCAN_TREE_CROSSOVER};
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

const N: u64 = 2_000_000;

fn time_ns(label: &str, mut f: impl FnMut(u64)) {
    // One warmup pass, then best of 3.
    for s in 0..N / 10 {
        f(s);
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for s in 0..N {
            f(s);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / N as f64);
    }
    println!("{label:32} {best:6.2} ns/op");
}

/// Per-op cost of the scheduler's characteristic churn — peek the
/// winner, re-tag it with a small service increment — on a pre-filled
/// set. Best of 3 passes after a warmup pass.
fn churn_ns(set: &mut ActiveSet, ops: u64) -> f64 {
    let mut step = |s: u64| {
        let (w, tag, _) = set.peek().unwrap();
        set.set(
            w,
            tag.saturating_add(VirtualTime::from_raw(1 + (s & 63))),
            s,
        );
        black_box(set.len());
    };
    for s in 0..ops / 10 {
        step(s);
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for s in 0..ops {
            step(s);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// Scan-vs-tree layout sweep over 2⁴–2²⁰ slots. The smallest slot
/// count where the tournament tree beats the flat scan is the measured
/// crossover that `SCAN_TREE_CROSSOVER` encodes.
fn layout_sweep() {
    println!();
    println!(
        "{:>9} {:>13} {:>13}   ActiveSet peek+set churn",
        "slots", "scan ns/op", "tree ns/op"
    );
    let mut crossover = None;
    for exp in (4u32..=20).step_by(2) {
        let n = 1usize << exp;
        // Scale the op count down with n so scan's O(n) peeks keep
        // each point around a second.
        let ops = (200_000_000 / n as u64).clamp(2_000, 2_000_000);
        let mut costs = [0.0f64; 2];
        for (k, layout) in [Layout::Scan, Layout::Tree].into_iter().enumerate() {
            let mut set = ActiveSet::with_layout(n, layout);
            for i in 0..n {
                set.set(
                    i,
                    VirtualTime::from_raw(1 + ((i as u64).wrapping_mul(0x9e37_79b9) & 0xffff_ffff)),
                    0,
                );
            }
            costs[k] = churn_ns(&mut set, ops);
        }
        println!("{:>9} {:>13.2} {:>13.2}", n, costs[0], costs[1]);
        if crossover.is_none() && costs[1] < costs[0] {
            crossover = Some(n);
        }
    }
    match crossover {
        Some(n) => println!(
            "tree wins from {n} slots in this sweep (SCAN_TREE_CROSSOVER = {SCAN_TREE_CROSSOVER})"
        ),
        None => println!("scan won every point in this sweep"),
    }
}

fn main() {
    time_ns("gps_increment (u128 div)", |s| {
        black_box(VirtualTime::gps_increment(
            Dur(1000 + (s & 0xffff)),
            48_000_000,
            2_000_000 + (s & 7) * 300_000,
        ));
    });
    time_ns("gps_real_dur (u128 div)", |s| {
        black_box(
            VirtualTime::from_raw((s & 0xffff_ffff) + 1)
                .gps_real_dur(48_000_000, 2_000_000 + (s & 7) * 300_000),
        );
    });
    time_ns("service (u128 div)", |s| {
        black_box(VirtualTime::service(
            40 + (s & 1023) as u32,
            300_000 + (s & 7) * 100_000,
        ));
    });
    let mut set = ActiveSet::with_slots(9);
    for i in 0..9 {
        set.set(i, VirtualTime::from_raw(100 + i as u64), i as u64);
    }
    time_ns("ActiveSet set (winner slot)", |s| {
        let (w, tag, _) = set.peek().unwrap();
        set.set(
            w,
            tag.saturating_add(VirtualTime::from_raw(1 + (s & 15))),
            s,
        );
        black_box(set.peek());
    });
    time_ns("ActiveSet set (loser slot)", |s| {
        let i = (s % 8 + 1) as usize;
        set.set(i, VirtualTime::from_raw(u64::MAX / 2 + (s & 1023)), s);
        black_box(set.peek());
    });
    let mut q: VecDeque<(u64, u64)> = VecDeque::with_capacity(64);
    for i in 0..8 {
        q.push_back((i, i));
    }
    time_ns("VecDeque push+pop", |s| {
        q.push_back((s, s));
        black_box(q.pop_front());
    });
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::with_capacity(64);
    for i in 0..16 {
        heap.push(std::cmp::Reverse((i * 1000, i)));
    }
    time_ns("BinaryHeap push+pop (16 deep)", |s| {
        heap.push(std::cmp::Reverse((s & 0xffff, s)));
        black_box(heap.pop());
    });
    // Time advance + enqueue against a live core via the public API.
    let wfq = &mut qbm_sched::Wfq::new(
        qbm_core::units::Rate::from_bps(48_000_000),
        vec![
            300_000, 400_000, 500_000, 1_000_000, 2_000_000, 3_000_000, 4_000_000, 8_000_000,
            16_000_000,
        ],
    );
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    time_ns("Wfq enqueue+dequeue cycle", |s| {
        use qbm_sched::Scheduler;
        now = now.saturating_add(Dur(200 + (s & 0x3ff)));
        seq += 1;
        wfq.enqueue(
            now,
            qbm_sched::PacketRef {
                flow: qbm_core::flow::FlowId((s % 9) as u32),
                len: 500,
                arrival: now,
                seq,
                green: true,
            },
        );
        black_box(wfq.dequeue(now));
    });
    layout_sweep();
}
