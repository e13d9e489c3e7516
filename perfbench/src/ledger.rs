//! Output side of the benchmark: named metrics with units, the
//! in-memory span log of a traced run, and the one-line JSON result.

use crate::replay::LayerLedger;
use std::fmt::Write as _;
use std::time::Instant;

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add (or overwrite) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Human-readable table, one metric a line.
    pub fn print_table(&self, workload: &str) {
        for (name, value, unit) in &self.0 {
            println!("{workload:>12} {name:<28} {value:>16.6e} {unit}");
        }
    }
}

/// Operations attempted and failed by one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: Tally, metrics: &Metrics) -> String {
    let mut out = String::new();
    let correct = tally.failed == 0 && tally.attempted > 0;
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    )
    .expect("write to String");
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// One span: a layer's busy interval, with the span that caused it.
pub struct Span {
    pub layer: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its id for use as a parent.
    pub fn push(
        &mut self,
        layer: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer: layer.into(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Spans::close`].
    pub fn open(&mut self, layer: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(layer, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.duration_since(s.start).as_secs_f64()
    }

    /// JSON lines `{"id", "layer", "start_ns", "end_ns", "parent"}`,
    /// times relative to the first span's creation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer,
                ns(s.start),
                ns(s.end)
            )
            .expect("write to String");
        }
        out
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whole-run hook counts the layer metrics are reported against.
pub struct LayerCounts {
    pub emissions: u64,
    pub feedback: u64,
    pub admits: u64,
    pub drops: u64,
    pub departures: u64,
    pub arrivals: u64,
    pub sketching: bool,
}

/// The per-layer metrics common to every workload: whole-run counts,
/// replay costs per call.
pub fn layer_metrics(m: &mut Metrics, l: &LayerLedger, c: LayerCounts) {
    m.set("traffic.emissions", c.emissions as f64, "count");
    m.set("traffic.ns_per_emission", l.emission.per_call(), "ns");
    m.set("traffic.feedback_signals", c.feedback as f64, "count");
    m.set("traffic.ns_per_feedback", l.feedback.per_call(), "ns");
    m.set("policy.admits", c.admits as f64, "count");
    m.set("policy.drops", c.drops as f64, "count");
    m.set("policy.ns_per_admit", l.policy.per_call(), "ns");
    m.set("sched.ops", (c.admits + c.departures) as f64, "count");
    m.set("sched.ns_per_op", l.sched.per_call(), "ns");
    m.set("timers.ops", (c.arrivals + c.departures) as f64, "count");
    m.set("timers.ns_per_op", l.timers.per_call(), "ns");
    let occupancy = if c.sketching {
        c.admits + c.departures
    } else {
        0
    };
    m.set(
        "stats.records",
        (2 * c.arrivals + c.departures + occupancy) as f64,
        "count",
    );
    m.set("stats.ns_per_record", l.stats.per_call(), "ns");
    if l.mismatches.any() {
        eprintln!("replay mismatches: {:?}", l.mismatches);
    }
}

/// Report `names` as zero: a layer that does no work in this workload.
pub fn zero(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        m.set(name, 0.0, unit);
    }
}
