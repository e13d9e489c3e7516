//! A feedback-driven AIMD (Reno-style) source.
//!
//! [`AimdSource`] is the closed-loop counterpart of the open-loop
//! sources in this crate: it keeps at most `cwnd` packets in flight,
//! grows the window by one packet per delivered window (additive
//! increase), halves it on a loss signal (multiplicative decrease),
//! and after each loss episode backs off for a deterministic RTO
//! derived purely from simulation time — no wall clocks, no entropy,
//! so a closed-loop run is exactly as reproducible as an open-loop
//! one.
//!
//! Two emission modes:
//!
//! * **ack-clocked** (default, `pace: None`): a window's worth of
//!   packets bursts out at the earliest permitted instant and every
//!   delivery immediately releases the next packet at the feedback
//!   instant — the classic self-clocked TCP behaviour, and the right
//!   shape for incast.
//! * **paced** (`pace: Some(rate)`): emissions follow the same
//!   drift-free cumulative-bit schedule as [`CbrSource`], gated by the
//!   window. While the window never binds and no losses occur, the
//!   emission stream is **byte-identical** to `CbrSource` with the
//!   same `(rate, pkt_len, start)` — the equivalence the proptests in
//!   this module pin down.
//!
//! [`CbrSource`]: crate::cbr::CbrSource

use crate::source::{Emission, Feedback, Source};
use qbm_core::units::{Dur, Rate, Time};

/// Largest RTO doubling exponent: consecutive no-progress loss
/// episodes double the backoff up to `rto << MAX_BACKOFF_EXP`.
pub const MAX_BACKOFF_EXP: u32 = 6;

/// Static parameters of an [`AimdSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdConfig {
    /// Packet length, bytes (the paper's universal 500).
    pub pkt_len: u32,
    /// Initial congestion window, packets.
    pub init_cwnd: u32,
    /// Lower window clamp, packets (≥ 1). A large value models a
    /// non-responsive "aggressive" sender that ignores congestion.
    pub min_cwnd: u32,
    /// Upper window clamp, packets.
    pub max_cwnd: u32,
    /// Base retransmission-timeout backoff after a loss episode.
    pub rto: Dur,
    /// First-emission instant.
    pub start: Time,
    /// `Some(rate)`: pace emissions on the drift-free CBR schedule;
    /// `None`: ack-clocked bursts.
    pub pace: Option<Rate>,
}

impl Default for AimdConfig {
    /// The datacenter-simulator defaults (SNIPPETS.md snippet 2):
    /// 500-byte packets, initial window 10, window cap 100 000,
    /// 5 ms timeout; ack-clocked from t = 0.
    fn default() -> AimdConfig {
        AimdConfig {
            pkt_len: 500,
            init_cwnd: 10,
            min_cwnd: 1,
            max_cwnd: 100_000,
            rto: Dur::from_millis(5),
            start: Time::ZERO,
            pace: None,
        }
    }
}

/// Lifetime counters of an [`AimdSource`], surfaced in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AimdStats {
    /// Window at harvest time, packets.
    pub final_cwnd: u32,
    /// Loss *episodes* (window halvings): a burst of drops within one
    /// RTO counts once.
    pub loss_events: u64,
    /// Episodes whose RTO was exponentially backed off (no delivery
    /// since the previous episode).
    pub rto_backoffs: u64,
    /// Individual lost packets signalled to this source.
    pub lost_pkts: u64,
}

impl AimdStats {
    /// Commutative merge for campaign folds: counters add, the window
    /// takes the maximum (a merged figure reports the widest survivor).
    pub fn merge(&self, other: &AimdStats) -> AimdStats {
        AimdStats {
            final_cwnd: self.final_cwnd.max(other.final_cwnd),
            loss_events: self.loss_events + other.loss_events,
            rto_backoffs: self.rto_backoffs + other.rto_backoffs,
            lost_pkts: self.lost_pkts + other.lost_pkts,
        }
    }
}

/// A window-limited AIMD source (see the module docs).
#[derive(Debug, Clone)]
pub struct AimdSource {
    cfg: AimdConfig,
    /// Congestion window, packets; always within `[min_cwnd, max_cwnd]`.
    cwnd: u32,
    /// Emitted and not yet acknowledged (delivered or lost), packets.
    inflight: u32,
    /// Deliveries since the last window change.
    acked: u32,
    /// Last emission instant (monotonicity floor).
    clock: Time,
    /// No emissions before this instant (RTO backoff floor).
    blocked_until: Time,
    /// Losses before this instant belong to the current episode and do
    /// not halve the window again.
    recovery_until: Time,
    /// Consecutive no-progress loss episodes (RTO doubling exponent).
    backoff: u32,
    /// Total emissions (index into the paced schedule).
    count: u64,
    stats: AimdStats,
}

impl AimdSource {
    /// Build a source from `cfg`. Panics on degenerate parameters —
    /// closed-loop flows are constructed once per run, never on the
    /// event loop's hot path.
    pub fn new(cfg: AimdConfig) -> AimdSource {
        assert!(cfg.pkt_len > 0, "zero packet length");
        assert!(cfg.min_cwnd >= 1, "window clamp below one packet");
        assert!(cfg.min_cwnd <= cfg.max_cwnd, "inverted window clamps");
        assert!(
            (cfg.min_cwnd..=cfg.max_cwnd).contains(&cfg.init_cwnd),
            "initial window outside clamps"
        );
        assert!(cfg.rto > Dur::ZERO, "zero RTO");
        if let Some(rate) = cfg.pace {
            assert!(rate.bps() > 0, "paced AIMD source needs a positive rate");
        }
        AimdSource {
            cwnd: cfg.init_cwnd,
            inflight: 0,
            acked: 0,
            clock: cfg.start,
            blocked_until: Time::ZERO,
            recovery_until: Time::ZERO,
            backoff: 0,
            count: 0,
            cfg,
            stats: AimdStats::default(),
        }
    }

    /// The snippet-2 defaults, starting at `start`.
    pub fn with_defaults(start: Time) -> AimdSource {
        AimdSource::new(AimdConfig {
            start,
            ..AimdConfig::default()
        })
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Packets in flight (emitted, feedback outstanding).
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Lifetime counters with the current window filled in.
    pub fn stats(&self) -> AimdStats {
        AimdStats {
            final_cwnd: self.cwnd,
            ..self.stats
        }
    }
}

impl Source for AimdSource {
    #[inline]
    fn next_emission(&mut self) -> Option<Emission> {
        if self.inflight >= self.cwnd {
            // Window-blocked: the engine re-pulls on feedback.
            return None;
        }
        let sched = match self.cfg.pace {
            Some(rate) => {
                let bits = self.count * self.cfg.pkt_len as u64 * 8;
                match rate.time_to_send_bits(bits) {
                    Some(off) => self.cfg.start + off,
                    None => {
                        debug_assert!(false, "paced AIMD source with non-positive rate");
                        return None;
                    }
                }
            }
            None => self.cfg.start,
        };
        let t = sched.max(self.clock).max(self.blocked_until);
        self.clock = t;
        self.count += 1;
        self.inflight += 1;
        Some(Emission {
            time: t,
            len: self.cfg.pkt_len,
        })
    }

    #[inline]
    fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {
        self.inflight = self.inflight.saturating_sub(1);
        self.clock = self.clock.max(now);
        match fb {
            Feedback::Delivered { .. } => {
                self.backoff = 0;
                self.acked += 1;
                // Additive increase: +1 packet per delivered window.
                if self.acked >= self.cwnd {
                    self.acked = 0;
                    self.cwnd = (self.cwnd + 1).min(self.cfg.max_cwnd);
                }
                None
            }
            Feedback::Lost { .. } => {
                self.stats.lost_pkts += 1;
                if now < self.recovery_until {
                    // Same episode: one halving per loss event.
                    return None;
                }
                self.stats.loss_events += 1;
                // Multiplicative decrease, clamped.
                self.cwnd = (self.cwnd / 2).max(self.cfg.min_cwnd);
                self.acked = 0;
                // Deterministic RTO from sim time only, doubling on
                // consecutive no-progress episodes.
                let rto = Dur(self.cfg.rto.0 << self.backoff.min(MAX_BACKOFF_EXP));
                if self.backoff > 0 {
                    self.stats.rto_backoffs += 1;
                }
                self.backoff = (self.backoff + 1).min(MAX_BACKOFF_EXP);
                self.recovery_until = now + rto;
                self.blocked_until = self.blocked_until.max(now + rto);
                Some(now + rto)
            }
        }
    }

    fn reacts_to_feedback(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbr::CbrSource;
    use crate::source::collect_emissions;
    use qbm_core::policy::DropReason;

    fn lost() -> Feedback {
        Feedback::Lost {
            cause: DropReason::BufferFull,
        }
    }

    fn delivered() -> Feedback {
        Feedback::Delivered {
            bytes: 500,
            delay: Dur::from_millis(1),
        }
    }

    #[test]
    fn initial_burst_is_one_window() {
        let mut s = AimdSource::with_defaults(Time::ZERO);
        let em = collect_emissions(&mut s, 100);
        assert_eq!(em.len(), 10, "burst bounded by init_cwnd");
        assert!(em.iter().all(|e| e.time == Time::ZERO && e.len == 500));
        assert_eq!(s.next_emission(), None, "window-blocked");
    }

    #[test]
    fn delivery_releases_the_next_packet_at_the_feedback_instant() {
        let mut s = AimdSource::with_defaults(Time::ZERO);
        let _ = collect_emissions(&mut s, 10);
        let now = Time::from_secs_f64(0.25);
        assert_eq!(s.on_feedback(now, delivered()), None);
        let e = s.next_emission().expect("window reopened");
        assert_eq!(e.time, now, "ack-clocked: next packet rides the ack");
    }

    #[test]
    fn additive_increase_per_delivered_window() {
        let mut s = AimdSource::with_defaults(Time::ZERO);
        assert_eq!(s.cwnd(), 10);
        let _ = collect_emissions(&mut s, 10);
        for i in 0..10 {
            s.on_feedback(Time::from_secs(1 + i), delivered());
        }
        assert_eq!(s.cwnd(), 11, "one window delivered -> +1");
    }

    #[test]
    fn loss_halves_once_per_episode_and_backs_off() {
        let mut s = AimdSource::with_defaults(Time::ZERO);
        let _ = collect_emissions(&mut s, 10);
        let now = Time::from_secs(1);
        let wake = s.on_feedback(now, lost());
        assert_eq!(s.cwnd(), 5, "halved");
        assert_eq!(wake, Some(now + Dur::from_millis(5)), "RTO backoff");
        // Remaining drops of the same burst: no further halving.
        for _ in 0..6 {
            assert_eq!(s.on_feedback(now, lost()), None);
        }
        assert_eq!(s.cwnd(), 5);
        assert_eq!(s.stats().loss_events, 1);
        assert_eq!(s.stats().lost_pkts, 7);
        // The next emission respects the backoff floor.
        let e = s.next_emission().expect("inflight drained below cwnd");
        assert_eq!(e.time, now + Dur::from_millis(5));
    }

    #[test]
    fn consecutive_dry_episodes_double_the_rto() {
        let mut s = AimdSource::with_defaults(Time::ZERO);
        let _ = collect_emissions(&mut s, 10);
        let t1 = Time::from_secs(1);
        assert_eq!(s.on_feedback(t1, lost()), Some(t1 + Dur::from_millis(5)));
        // Second episode, no delivery in between: doubled RTO.
        let t2 = t1 + Dur::from_millis(10);
        assert_eq!(s.on_feedback(t2, lost()), Some(t2 + Dur::from_millis(10)));
        assert_eq!(s.stats().rto_backoffs, 1);
        // A delivery resets the exponent.
        let t3 = t2 + Dur::from_millis(20);
        s.on_feedback(t3, delivered());
        let t4 = t3 + Dur::from_millis(20);
        assert_eq!(s.on_feedback(t4, lost()), Some(t4 + Dur::from_millis(5)));
    }

    #[test]
    fn window_never_leaves_the_clamps() {
        let cfg = AimdConfig {
            min_cwnd: 3,
            max_cwnd: 12,
            init_cwnd: 10,
            ..AimdConfig::default()
        };
        let mut s = AimdSource::new(cfg);
        // Hammer with losses far apart (each its own episode).
        for i in 0..20u64 {
            s.on_feedback(Time::from_secs(10 * (i + 1)), lost());
            assert!(s.cwnd() >= 3);
        }
        assert_eq!(s.cwnd(), 3, "pinned at min_cwnd");
        // Deliver forever: capped at max_cwnd.
        for i in 0..2000u64 {
            let _ = s.next_emission();
            s.on_feedback(Time::from_secs(1000 + i), delivered());
            assert!(s.cwnd() <= 12);
        }
        assert_eq!(s.cwnd(), 12, "pinned at max_cwnd");
    }

    #[test]
    fn paced_drop_free_run_matches_cbr_exactly() {
        let rate = Rate::from_mbps(3.0);
        let cfg = AimdConfig {
            pace: Some(rate),
            max_cwnd: 100_000,
            init_cwnd: 100_000,
            ..AimdConfig::default()
        };
        let mut aimd = AimdSource::new(cfg);
        let mut cbr = CbrSource::new(rate, 500, Time::ZERO);
        for k in 0..50_000 {
            assert_eq!(
                aimd.next_emission(),
                cbr.next_emission(),
                "paced AIMD diverged from CBR at packet {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside clamps")]
    fn degenerate_window_rejected() {
        let _ = AimdSource::new(AimdConfig {
            init_cwnd: 0,
            ..AimdConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cbr::CbrSource;
    use proptest::prelude::*;
    use qbm_core::policy::DropReason;

    proptest! {
        /// cwnd stays within `[min_cwnd, max_cwnd]` under any
        /// interleaving of emissions and feedback.
        #[test]
        fn cwnd_stays_within_clamps(
            min in 1u32..8,
            span in 0u32..20,
            init_off in 0u32..21,
            ops in proptest::collection::vec((0u8..3, 1u64..1000), 1..300),
        ) {
            let max = min + span;
            let init = min + init_off.min(span);
            let mut s = AimdSource::new(AimdConfig {
                min_cwnd: min, max_cwnd: max, init_cwnd: init,
                ..AimdConfig::default()
            });
            let mut now = Time::ZERO;
            for (kind, dt) in ops {
                now += Dur(dt * 1_000_000);
                match kind {
                    0 => { let _ = s.next_emission(); }
                    1 => { let _ = s.on_feedback(now, Feedback::Delivered {
                        bytes: 500, delay: Dur::ZERO }); }
                    _ => { let _ = s.on_feedback(now, Feedback::Lost {
                        cause: DropReason::OverThreshold }); }
                }
                prop_assert!(s.cwnd() >= min && s.cwnd() <= max,
                    "cwnd {} left [{min}, {max}]", s.cwnd());
            }
        }

        /// The window halves exactly once per loss event: a burst of
        /// losses within one RTO of the first is a single episode.
        #[test]
        fn halves_exactly_once_per_loss_event(
            burst in 1usize..40,
            episodes in 1usize..6,
        ) {
            let mut s = AimdSource::new(AimdConfig {
                init_cwnd: 1 << 10,
                max_cwnd: 1 << 10,
                ..AimdConfig::default()
            });
            let mut expect = 1u32 << 10;
            let mut now = Time::ZERO;
            for _ in 0..episodes {
                // Whole burst lands inside the episode's base RTO
                // (backoff only lengthens it), far from the next.
                now += Time::from_secs(100).since(Time::ZERO);
                for _ in 0..burst {
                    let _ = s.on_feedback(now, Feedback::Lost {
                        cause: DropReason::BufferFull });
                    now += Dur::from_micros(1);
                }
                expect = (expect / 2).max(1);
                prop_assert_eq!(s.cwnd(), expect, "episode halved more than once");
            }
            prop_assert_eq!(s.stats().loss_events, episodes as u64);
            prop_assert_eq!(s.stats().lost_pkts, (episodes * burst) as u64);
        }

        /// Drop-free paced emission is byte-identical to the CBR source
        /// with the same `(rate, pkt_len, start)` — feedback-free pulls
        /// while the window never binds, and with interleaved prompt
        /// deliveries keeping the window open.
        #[test]
        fn drop_free_paced_run_is_cbr(
            mbps in 1u32..100,
            len in 40u32..1500,
            start_ms in 0u64..50,
            n in 1usize..400,
            ack_every in 1usize..8,
        ) {
            let rate = Rate::from_mbps(mbps as f64);
            let start = Time::ZERO + Dur::from_millis(start_ms);
            let mut aimd = AimdSource::new(AimdConfig {
                pkt_len: len,
                pace: Some(rate),
                init_cwnd: 4096,
                max_cwnd: 100_000,
                start,
                ..AimdConfig::default()
            });
            let mut cbr = CbrSource::new(rate, len, start);
            for k in 0..n {
                let a = aimd.next_emission();
                let c = cbr.next_emission();
                prop_assert_eq!(a, c, "diverged at packet {}", k);
                // Prompt delivery at the emission instant keeps the
                // window from ever binding (inflight ≤ ack_every).
                if k % ack_every == 0 {
                    let now = a.unwrap().time;
                    let _ = aimd.on_feedback(now, Feedback::Delivered {
                        bytes: len, delay: Dur::ZERO });
                }
            }
        }
    }
}
