//! The [`Scheduler`] abstraction shared by every discipline.

use qbm_core::flow::FlowId;
use qbm_core::units::Time;

/// Metadata the schedulers operate on. The simulator carries no
/// payload bytes, so this header is the whole packet.
/// The `Ord` impl is lexicographic over the fields (`seq` is globally
/// unique, so any two distinct packets compare deterministically) —
/// needed so heap-based schedulers can key on `(deadline, seq, pkt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PacketRef {
    /// Owning flow.
    pub flow: FlowId,
    /// Length in bytes.
    pub len: u32,
    /// Arrival instant at the router (for delay accounting).
    pub arrival: Time,
    /// Global arrival sequence number — the deterministic FIFO/heap
    /// tie-breaker.
    pub seq: u64,
    /// Conformance color (Remark 1): `true` when the packet fit its
    /// flow's `(σ, ρ)` envelope at arrival. Metering is optional —
    /// unmetered routers mark everything green.
    pub green: bool,
}

/// A work-conserving link scheduler.
///
/// Contract:
/// * `enqueue` never fails — buffer admission happened *before* this
///   call (the policy layer's job);
/// * `dequeue` returns the next packet to transmit, or `None` when
///   empty; the caller transmits it for `len·8/R` and calls `dequeue`
///   again when the link frees up;
/// * every enqueued packet is eventually dequeued (no starvation while
///   the scheduler is served at a positive rate);
/// * `now` is non-decreasing across calls.
pub trait Scheduler: Send {
    /// Accept an (already admitted) packet at time `now`.
    fn enqueue(&mut self, now: Time, pkt: PacketRef);

    /// Pick the next packet to transmit at time `now`.
    fn dequeue(&mut self, now: Time) -> Option<PacketRef>;

    /// Packets currently queued.
    fn len(&self) -> usize;

    /// True iff no packet is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short discipline name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use qbm_core::units::{Dur, Rate};

    /// Drain a scheduler completely at the given link rate, starting at
    /// `now`, returning packets in transmission order with their
    /// departure-completion times.
    pub fn drain(s: &mut dyn Scheduler, link: Rate, mut now: Time) -> Vec<(Time, PacketRef)> {
        let mut out = Vec::new();
        while let Some(p) = s.dequeue(now) {
            now += link.transmission_time(p.len as u64);
            out.push((now, p));
        }
        out
    }

    /// Build a packet.
    pub fn pkt(flow: u32, len: u32, arrival_ms: u64, seq: u64) -> PacketRef {
        PacketRef {
            flow: FlowId(flow),
            len,
            arrival: Time::ZERO + Dur::from_millis(arrival_ms),
            seq,
            green: true,
        }
    }

    /// Bytes each flow received within the first `n` transmissions —
    /// the fairness probe used by WFQ/DRR tests.
    pub fn share_by_flow(order: &[(Time, PacketRef)], n: usize, flows: usize) -> Vec<u64> {
        let mut share = vec![0u64; flows];
        for (_, p) in order.iter().take(n) {
            share[p.flow.index()] += p.len as u64;
        }
        share
    }
}
