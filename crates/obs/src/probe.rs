//! Time-series probe: occupancy/holes/headroom sampled on a fixed
//! sim-time grid.
//!
//! The probe mirrors buffer state from the enqueue/departure hooks (it
//! never touches the policy directly) and emits one [`Sample`] at every
//! interval boundary `k·Δ` that the simulation passes. A sample at
//! boundary `τ` reflects the state *after* all events at times `≤ τ`
//! that had been observed when the next event arrived — i.e. the
//! right-limit of the occupancy step function, which is the convention
//! the paper's occupancy figures use.

use qbm_core::flow::FlowId;
use qbm_core::units::{Dur, Time};

use crate::Observer;

/// Hard cap on retained samples — bounds memory for accidental
/// microsecond-interval probes on long runs.
pub const MAX_SAMPLES: usize = 1 << 20;

/// One point on the sampling grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The grid instant.
    pub t: Time,
    /// Per-flow buffer occupancy, bytes (indexed by flow; flows first
    /// seen later in the run make later samples longer).
    pub per_flow: Vec<u64>,
    /// Aggregate occupancy, bytes.
    pub total: u64,
    /// §3.3 pools at the sample instant, if the policy reports them.
    pub pools: Option<(u64, u64)>,
}

/// An [`Observer`] sampling occupancy state on a sim-time grid.
#[derive(Debug, Clone)]
pub struct TimeSeriesProbe {
    interval: Dur,
    next: Time,
    occ: Vec<u64>,
    total: u64,
    pools: Option<(u64, u64)>,
    samples: Vec<Sample>,
    dropped: u64,
}

impl TimeSeriesProbe {
    /// A probe emitting one sample every `interval` of simulated time.
    /// Samples carry the per-flow and aggregate occupancy and the
    /// pools; the per-flow vector costs O(flows) per sample.
    pub fn new(interval: Dur) -> TimeSeriesProbe {
        assert!(!interval.is_zero(), "zero probe interval");
        TimeSeriesProbe {
            interval,
            next: Time::ZERO + interval,
            occ: Vec::new(),
            total: 0,
            pools: None,
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// Emit every grid boundary strictly before `now`, then catch up.
    /// Once the [`MAX_SAMPLES`] cap is hit, remaining boundaries are
    /// *counted* (not stored) in O(1) so truncation is never silent.
    fn flush_until(&mut self, now: Time) {
        while self.next < now {
            if self.samples.len() >= MAX_SAMPLES {
                // Boundaries self.next, self.next+Δ, … strictly before
                // `now`: skip them all in one arithmetic step.
                let gap = now.as_nanos() - 1 - self.next.as_nanos();
                let n = gap / self.interval.as_nanos() + 1;
                self.dropped += n;
                self.next = Time(
                    self.next
                        .as_nanos()
                        .saturating_add(n.saturating_mul(self.interval.as_nanos())),
                );
                return;
            }
            self.samples.push(Sample {
                t: self.next,
                per_flow: self.occ.clone(),
                total: self.total,
                pools: self.pools,
            });
            self.next = self.next.saturating_add(self.interval);
        }
    }

    fn ensure_flow(&mut self, flow: FlowId) {
        if self.occ.len() <= flow.index() {
            self.occ.resize(flow.index() + 1, 0);
        }
    }

    /// The collected samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Grid boundaries that fell past the [`MAX_SAMPLES`] cap and were
    /// dropped instead of stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the sample buffer overflowed (any boundaries dropped).
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Render as CSV: `t_ns,total,holes,headroom,q0..qN`. Pool columns
    /// are empty when the policy never reported sharing state. Rows
    /// are padded so every row has the final flow-column count.
    pub fn to_csv(&self) -> String {
        let n = self
            .samples
            .iter()
            .map(|s| s.per_flow.len())
            .max()
            .unwrap_or(0);
        let has_pools = self.samples.iter().any(|s| s.pools.is_some());
        let mut out = String::from("t_ns,total");
        if has_pools {
            out.push_str(",holes,headroom");
        }
        for i in 0..n {
            out.push_str(&format!(",q{i}"));
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!("{},{}", s.t.as_nanos(), s.total));
            if has_pools {
                match s.pools {
                    Some((h, v)) => out.push_str(&format!(",{h},{v}")),
                    None => out.push_str(",,"),
                }
            }
            for i in 0..n {
                let q = s.per_flow.get(i).copied().unwrap_or(0);
                out.push_str(&format!(",{q}"));
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!("# truncated: dropped {} samples\n", self.dropped));
        }
        out
    }

    /// Render as a single JSON object: `{"interval_ns":…,"samples":[…]}`
    /// with the same fields as the CSV. Hand-rolled and field-ordered
    /// for byte determinism, like the trace records.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"interval_ns\":{},\"samples\":[",
            self.interval.as_nanos()
        );
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"t\":{},\"total\":{}", s.t.as_nanos(), s.total));
            if let Some((h, v)) = s.pools {
                out.push_str(&format!(",\"holes\":{h},\"headroom\":{v}"));
            }
            out.push_str(",\"q\":[");
            for (j, q) in s.per_flow.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&q.to_string());
            }
            out.push_str("]}");
        }
        out.push(']');
        if self.dropped > 0 {
            out.push_str(&format!(",\"truncated\":true,\"dropped\":{}", self.dropped));
        }
        out.push('}');
        out
    }
}

impl Observer for TimeSeriesProbe {
    fn on_arrival(&mut self, now: Time, _flow: FlowId, _len: u32, _link: u32) {
        self.flush_until(now);
    }

    fn on_enqueue(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        _flow_occ: u64,
        _total_occ: u64,
        _link: u32,
    ) {
        self.flush_until(now);
        self.total += len as u64;
        self.ensure_flow(flow);
        self.occ[flow.index()] += len as u64;
    }

    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, _arrival: Time, _link: u32) {
        self.flush_until(now);
        self.total -= len as u64;
        self.ensure_flow(flow);
        self.occ[flow.index()] -= len as u64;
    }

    fn on_sharing(&mut self, now: Time, holes: u64, headroom: u64, _link: u32) {
        self.flush_until(now);
        self.pools = Some((holes, headroom));
    }

    fn on_end(&mut self, end: Time, _link: u32) {
        // Include the boundary sample at `end` itself.
        self.flush_until(end);
        if self.next == end {
            if self.samples.len() < MAX_SAMPLES {
                self.samples.push(Sample {
                    t: end,
                    per_flow: self.occ.clone(),
                    total: self.total,
                    pools: self.pools,
                });
            } else {
                self.dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_on_the_grid_with_step_state() {
        let mut p = TimeSeriesProbe::new(Dur::from_millis(10));
        // Enqueue at 5 ms, departure at 12 ms, next event at 35 ms.
        p.on_enqueue(
            Time::ZERO + Dur::from_millis(5),
            FlowId(0),
            500,
            500,
            500,
            0,
        );
        p.on_departure(
            Time::ZERO + Dur::from_millis(12),
            FlowId(0),
            500,
            Time::ZERO,
            0,
        );
        p.on_arrival(Time::ZERO + Dur::from_millis(35), FlowId(0), 500, 0);
        p.on_end(Time::ZERO + Dur::from_millis(40), 0);
        let t_ms: Vec<u64> = p
            .samples()
            .iter()
            .map(|s| s.t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(t_ms, vec![10, 20, 30, 40]);
        assert_eq!(p.samples()[0].total, 500); // state at 10 ms: enqueued, not yet departed
        assert_eq!(p.samples()[1].total, 0); // departed by 20 ms
    }

    #[test]
    fn csv_has_pool_columns_only_when_reported() {
        let mut p = TimeSeriesProbe::new(Dur::from_millis(1));
        p.on_enqueue(Time::ZERO, FlowId(1), 100, 100, 100, 0);
        p.on_end(Time::ZERO + Dur::from_millis(2), 0);
        let csv = p.to_csv();
        assert!(csv.starts_with("t_ns,total,q0,q1\n"));
        assert!(csv.contains("1000000,100,0,100\n"));

        let mut p = TimeSeriesProbe::new(Dur::from_millis(1));
        p.on_sharing(Time::ZERO, 7, 9, 0);
        p.on_end(Time::ZERO + Dur::from_millis(1), 0);
        let csv = p.to_csv();
        assert!(csv.starts_with("t_ns,total,holes,headroom\n"));
        assert!(csv.contains("1000000,0,7,9\n"));
    }

    #[test]
    fn json_export_is_field_ordered() {
        let mut p = TimeSeriesProbe::new(Dur::from_millis(1));
        p.on_enqueue(Time::ZERO, FlowId(0), 42, 42, 42, 0);
        p.on_end(Time::ZERO + Dur::from_millis(1), 0);
        assert_eq!(
            p.to_json(),
            "{\"interval_ns\":1000000,\"samples\":[{\"t\":1000000,\"total\":42,\"q\":[42]}]}"
        );
    }

    #[test]
    fn per_flow_columns_track_each_flow() {
        // Every sample carries the per-flow vector, sized to the highest
        // flow seen so far: flow 0 never enqueued and reads 0, flow 1
        // holds its bytes until its departure at 1.5 ms.
        let mut p = TimeSeriesProbe::new(Dur::from_millis(1));
        p.on_enqueue(Time::ZERO, FlowId(1), 100, 100, 100, 0);
        p.on_departure(Time(1_500_000), FlowId(1), 100, Time::ZERO, 0);
        p.on_end(Time::ZERO + Dur::from_millis(2), 0);
        let per_flow: Vec<&[u64]> = p.samples().iter().map(|s| &s.per_flow[..]).collect();
        assert_eq!(per_flow, [&[0, 100][..], &[0, 0][..]]);
        assert!(p.to_csv().starts_with("t_ns,total,q0,q1\n"));
        assert!(p.to_csv().contains("1000000,100,0,100\n"));
        assert!(p.to_csv().contains("2000000,0,0,0\n"));
    }

    #[test]
    fn sample_count_is_bounded_and_truncation_is_counted() {
        let mut p = TimeSeriesProbe::new(Dur(1));
        p.on_end(Time(MAX_SAMPLES as u64 * 10), 0);
        assert_eq!(p.samples().len(), MAX_SAMPLES);
        // Boundaries 1..end-1 flushed (MAX kept, rest counted), plus
        // the boundary sample at `end` itself which no longer fits.
        assert_eq!(p.dropped(), 9 * MAX_SAMPLES as u64);
        assert!(p.truncated());
        let csv = p.to_csv();
        assert!(
            csv.ends_with(&format!(
                "# truncated: dropped {} samples\n",
                9 * MAX_SAMPLES as u64
            )),
            "missing CSV truncation footer"
        );
        let json = p.to_json();
        assert!(json.ends_with(&format!(
            "],\"truncated\":true,\"dropped\":{}}}",
            9 * MAX_SAMPLES as u64
        )));
    }

    #[test]
    fn untruncated_exports_carry_no_truncation_marker() {
        let mut p = TimeSeriesProbe::new(Dur::from_millis(1));
        p.on_end(Time::ZERO + Dur::from_millis(3), 0);
        assert!(!p.truncated());
        assert!(!p.to_csv().contains("truncated"));
        assert!(!p.to_json().contains("truncated"));
    }
}
