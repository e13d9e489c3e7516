//! Replay of a recorded emission trace.
//!
//! Used for deterministic unit fixtures and as the substitution point
//! for real packet traces (none are required by the paper, but a
//! downstream user can feed captured traffic through the same router).

use crate::source::{Emission, Source};

/// Replays a fixed sequence of emissions, then ends.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Vec<Emission>,
    pos: usize,
}

impl TraceSource {
    /// Wrap a trace. Panics if emission times decrease — a corrupt
    /// trace would violate the [`Source`] contract.
    pub fn new(trace: Vec<Emission>) -> TraceSource {
        for w in trace.windows(2) {
            assert!(w[0].time <= w[1].time, "trace not time-sorted");
        }
        TraceSource { trace, pos: 0 }
    }

    /// Wrap a trace the *caller* recorded in event order — sortedness
    /// holds by construction (a router emits departures at monotone
    /// simulation times), so the O(n) validation scan of
    /// [`TraceSource::new`] is demoted to a debug assertion.
    pub fn from_recorded(trace: Vec<Emission>) -> TraceSource {
        debug_assert!(
            trace.windows(2).all(|w| w[0].time <= w[1].time),
            "recorded trace not time-sorted"
        );
        TraceSource { trace, pos: 0 }
    }

    /// Remaining emissions.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }

    /// Consume the source and return its backing buffer (replayed and
    /// pending emissions alike), so a spent trace's allocation can be
    /// recycled — see `SourceKind::into_trace_buffer`.
    pub fn into_inner(self) -> Vec<Emission> {
        self.trace
    }

    /// Replace this source's contents with `batch`, leaving the spent
    /// backing buffer *in* `batch` (cleared) for the caller to refill —
    /// the fabric's mailbox handoff: two buffers per relay edge
    /// ping-pong between recorder and replayer with no allocation in
    /// the steady state.
    ///
    /// When replay has not finished, the unconsumed tail is preserved
    /// ahead of the delivered batch (`batch` must not start before the
    /// tail ends — emission times must stay sorted, checked in debug
    /// builds as in [`TraceSource::from_recorded`]).
    pub fn refill_recycling(&mut self, batch: &mut Vec<Emission>) {
        if self.pos >= self.trace.len() {
            // Fast path (every fabric epoch in practice): fully
            // consumed, so swap buffers wholesale.
            self.trace.clear();
            std::mem::swap(&mut self.trace, batch);
        } else {
            // General path: keep the pending tail, append the batch.
            self.trace.drain(..self.pos);
            self.trace.append(batch);
        }
        self.pos = 0;
        batch.clear();
        debug_assert!(
            self.trace.windows(2).all(|w| w[0].time <= w[1].time),
            "refilled trace not time-sorted"
        );
    }
}

impl Source for TraceSource {
    fn next_emission(&mut self) -> Option<Emission> {
        let e = self.trace.get(self.pos).copied();
        if e.is_some() {
            self.pos += 1;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::{Dur, Time};

    fn e(ms: u64) -> Emission {
        Emission {
            time: Time::ZERO + Dur::from_millis(ms),
            len: 500,
        }
    }

    #[test]
    fn replays_in_order_then_ends() {
        let mut s = TraceSource::new(vec![e(0), e(1), e(5)]);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_emission(), Some(e(0)));
        assert_eq!(s.next_emission(), Some(e(1)));
        assert_eq!(s.next_emission(), Some(e(5)));
        assert_eq!(s.next_emission(), None);
        assert_eq!(s.next_emission(), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn simultaneous_emissions_allowed() {
        let mut s = TraceSource::new(vec![e(1), e(1)]);
        assert!(s.next_emission().is_some());
        assert!(s.next_emission().is_some());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let _ = TraceSource::new(vec![e(5), e(1)]);
    }
}
