//! Per-packet scheduler cost: FIFO and DRR (O(1)) versus WFQ
//! (O(log N) heap operations) as the number of backlogged flows grows —
//! the cost asymmetry motivating the whole paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qbm_core::units::{Rate, Time};
use qbm_sched::{Drr, Fifo, PacketRef, Scheduler, VirtualClock, Wfq};
use std::hint::black_box;

const LINK: Rate = Rate::from_bps(48_000_000);

fn pkt(flow: u32, seq: u64) -> PacketRef {
    PacketRef {
        flow: qbm_core::flow::FlowId(flow),
        len: 500,
        arrival: Time::ZERO,
        seq,
        green: true,
    }
}

/// Steady-state enqueue+dequeue with `n` flows kept backlogged: every
/// iteration enqueues one packet and dequeues one, so the scheduler
/// holds ~n packets throughout and heap depth reflects the flow count.
fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_enqueue_dequeue");
    for &n in &[10usize, 100, 1000, 10_000] {
        let weights: Vec<u64> = (0..n).map(|i| 400_000 + (i as u64 % 64) * 10_000).collect();

        let mut fifo = Fifo::new();
        prime(&mut fifo, n);
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("fifo", n), &n, |b, &n| {
            let mut seq = n as u64;
            b.iter(|| {
                let f = (seq % n as u64) as u32;
                fifo.enqueue(Time::ZERO, black_box(pkt(f, seq)));
                seq += 1;
                black_box(fifo.dequeue(Time::ZERO));
            });
        });

        let mut drr = Drr::new(weights.clone());
        prime(&mut drr, n);
        g.bench_with_input(BenchmarkId::new("drr", n), &n, |b, &n| {
            let mut seq = n as u64;
            b.iter(|| {
                let f = (seq % n as u64) as u32;
                drr.enqueue(Time::ZERO, black_box(pkt(f, seq)));
                seq += 1;
                black_box(drr.dequeue(Time::ZERO));
            });
        });

        let mut vc = VirtualClock::new(weights.clone());
        prime(&mut vc, n);
        g.bench_with_input(BenchmarkId::new("vclock", n), &n, |b, &n| {
            let mut seq = n as u64;
            let mut now = Time::ZERO;
            b.iter(|| {
                let f = (seq % n as u64) as u32;
                now += qbm_core::units::Dur(83_333);
                vc.enqueue(now, black_box(pkt(f, seq)));
                seq += 1;
                black_box(vc.dequeue(now));
            });
        });

        let mut wfq = Wfq::new(LINK, weights);
        prime(&mut wfq, n);
        g.bench_with_input(BenchmarkId::new("wfq", n), &n, |b, &n| {
            let mut seq = n as u64;
            let mut now = Time::ZERO;
            b.iter(|| {
                let f = (seq % n as u64) as u32;
                now += qbm_core::units::Dur(83_333);
                wfq.enqueue(now, black_box(pkt(f, seq)));
                seq += 1;
                black_box(wfq.dequeue(now));
            });
        });
    }
    g.finish();
}

fn prime<S: Scheduler>(s: &mut S, n: usize) {
    for i in 0..n {
        s.enqueue(Time::ZERO, pkt(i as u32, i as u64));
    }
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
