//! The pull-based [`Source`] abstraction and the feedback signal that
//! closes the loop for reactive (AIMD-style) sources.

use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};

/// One packet emission: the instant the source hands the packet to the
/// network and its length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emission {
    /// Emission instant.
    pub time: Time,
    /// Packet length, bytes.
    pub len: u32,
}

/// The network's answer about one previously emitted packet — the
/// return leg of the source↔link signal path. Every emission of a
/// closed-loop flow produces **exactly one** feedback: either the
/// packet departed its final link or it was dropped somewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The packet left the (last) link: its size and queueing delay.
    Delivered {
        /// Packet length, bytes.
        bytes: u32,
        /// Arrival-to-departure delay at the delivering link.
        delay: Dur,
    },
    /// The packet was dropped by an admission policy.
    Lost {
        /// Why admission refused it.
        cause: DropReason,
    },
}

/// A packet source.
///
/// Contract: successive calls return emissions with non-decreasing
/// `time` (ties allowed — an instantaneous burst); `None` means the
/// source has nothing to emit *now*. For open-loop sources `None` is
/// final (finite traces); a closed-loop source may return `None` while
/// window-blocked and resume after [`Source::on_feedback`] — the
/// engine re-pulls it whenever feedback for the flow arrives.
pub trait Source: Send {
    /// Produce the next emission, or `None` if the source is done.
    fn next_emission(&mut self) -> Option<Emission>;

    /// Consume feedback about one previously emitted packet, observed
    /// at simulation instant `now`. Emissions after this call must be
    /// at times `>= now`.
    ///
    /// Returns `Some(t)` to ask the engine to **delay** the flow's
    /// already-scheduled pending arrival to at least `t` (the RTO
    /// backoff of an AIMD source); the source must then also keep its
    /// own future emissions at times `>= t`. Open-loop sources keep
    /// the default no-op.
    fn on_feedback(&mut self, _now: Time, _fb: Feedback) -> Option<Time> {
        None
    }

    /// Whether this source reacts to [`Feedback`]. The engine routes
    /// drop/departure signals only to reacting (closed-loop) sources
    /// and re-pulls them after a `None` emission; open-loop sources
    /// keep the default and pay nothing.
    fn reacts_to_feedback(&self) -> bool {
        false
    }
}

/// Test/validation helper: drain up to `n` emissions into a vector,
/// asserting the monotone-time contract along the way.
pub fn collect_emissions<S: Source>(src: &mut S, n: usize) -> Vec<Emission> {
    let mut out = Vec::with_capacity(n);
    let mut last = Time::ZERO;
    for _ in 0..n {
        match src.next_emission() {
            Some(e) => {
                assert!(e.time >= last, "source emitted backwards in time");
                last = e.time;
                out.push(e);
            }
            None => break,
        }
    }
    out
}

/// Mean rate in bits/s over a collected emission run (first to last
/// emission instant) — used by the moment tests in this crate.
pub fn empirical_rate_bps(emissions: &[Emission]) -> f64 {
    if emissions.len() < 2 {
        return 0.0;
    }
    let bytes: u64 = emissions.iter().map(|e| e.len as u64).sum();
    let span = emissions
        .last()
        .unwrap()
        .time
        .since(emissions[0].time)
        .as_secs_f64();
    if qbm_core::units::approx_eq(span, 0.0, f64::EPSILON) {
        return f64::INFINITY;
    }
    bytes as f64 * 8.0 / span
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::Dur;

    struct Fixed(Vec<Emission>);
    impl Source for Fixed {
        fn next_emission(&mut self) -> Option<Emission> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    #[test]
    fn collect_stops_at_exhaustion() {
        let mut s = Fixed(vec![
            Emission {
                time: Time::ZERO,
                len: 500,
            },
            Emission {
                time: Time::ZERO + Dur::from_millis(1),
                len: 500,
            },
        ]);
        let got = collect_emissions(&mut s, 10);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empirical_rate_computation() {
        // 2 × 500 B = 8000 bits over 1 ms -> second packet only counts
        // the span: 500 B over 1 ms = 4 Mb/s... the helper counts all
        // bytes over the span, so 8000 bits / 1 ms = 8 Mb/s.
        let e = vec![
            Emission {
                time: Time::ZERO,
                len: 500,
            },
            Emission {
                time: Time::ZERO + Dur::from_millis(1),
                len: 500,
            },
        ];
        assert!((empirical_rate_bps(&e) - 8e6).abs() < 1.0);
        assert_eq!(empirical_rate_bps(&e[..1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn backwards_emission_caught() {
        let mut s = Fixed(vec![
            Emission {
                time: Time::ZERO + Dur::from_millis(1),
                len: 500,
            },
            Emission {
                time: Time::ZERO,
                len: 500,
            },
        ]);
        let _ = collect_emissions(&mut s, 10);
    }
}
