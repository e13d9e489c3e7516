//! The benchmark's own [`Observer`]: records one link's (or one
//! campaign cell's) packet stream for the layer replays, counts every
//! hook over the whole run, and takes wall stamps for the fabric and
//! campaign busy-time ledger.
//!
//! A link stamps the wall clock at every arrival and departure; its
//! busy time in a fabric epoch is the span from its first to its last
//! stamp there, less the clock's own cost per stamp taken.

use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};
use qbm_obs::Observer;
use std::time::Instant;

/// What a [`Rec`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Admitted and enqueued.
    Enq,
    /// Refused by the policy, with its cause.
    Drop(DropReason),
    /// Finished transmission; `aux` holds the packet's arrival (ns).
    Dep,
    /// A feedback signal observed here; `aux` holds the delay (ns).
    Fb {
        delivered: bool,
        cause: Option<DropReason>,
    },
}

/// One recorded hook, packed into 24 bytes: the kind lives in the top
/// byte of `len_kind` (packet lengths stay far below 2²⁴).
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Simulated time, ns.
    pub now: u64,
    /// Kind-specific payload (see [`Kind`]).
    pub aux: u64,
    /// Per-link flow index.
    pub flow: u32,
    len_kind: u32,
}

const REASONS: [DropReason; 3] = [
    DropReason::BufferFull,
    DropReason::OverThreshold,
    DropReason::NoSharedSpace,
];

fn reason_code(r: DropReason) -> u32 {
    match r {
        DropReason::BufferFull => 0,
        DropReason::OverThreshold => 1,
        DropReason::NoSharedSpace => 2,
    }
}

impl Rec {
    fn new(now: Time, aux: u64, flow: FlowId, len: u32, kind: Kind) -> Rec {
        let code = match kind {
            Kind::Enq => 0,
            Kind::Drop(r) => 1 + reason_code(r),
            Kind::Dep => 4,
            Kind::Fb {
                delivered: true, ..
            } => 5,
            Kind::Fb { cause, .. } => 6 + cause.map_or(3, reason_code),
        };
        assert!(len < 1 << 24, "packet length overflows the record");
        Rec {
            now: now.0,
            aux,
            flow: flow.0,
            len_kind: code << 24 | len,
        }
    }

    /// Packet length, bytes.
    pub fn len(&self) -> u32 {
        self.len_kind & 0x00ff_ffff
    }

    /// What this record is.
    pub fn kind(&self) -> Kind {
        match self.len_kind >> 24 {
            0 => Kind::Enq,
            c @ 1..=3 => Kind::Drop(REASONS[(c - 1) as usize]),
            4 => Kind::Dep,
            5 => Kind::Fb {
                delivered: true,
                cause: None,
            },
            c => Kind::Fb {
                delivered: false,
                cause: REASONS.get((c - 6) as usize).copied(),
            },
        }
    }

    /// True for the two records that stand for an arrival.
    pub fn is_arrival(&self) -> bool {
        matches!(self.kind(), Kind::Enq | Kind::Drop(_))
    }
}

/// Hook counts over the whole run (not only the recorded prefix).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub arrivals: u64,
    pub admits: u64,
    pub drops: u64,
    pub departures: u64,
    pub feedback: u64,
}

/// Wall stamps of one link in one fabric epoch.
#[derive(Debug, Clone, Copy)]
pub struct Busy {
    pub epoch: u64,
    pub first: Instant,
    pub last: Instant,
    /// Stamps taken after `first`.
    pub stamps: u64,
}

/// One link's (or cell's) recorder.
pub struct Recorder {
    /// Records with simulated time before this are kept.
    record_until: u64,
    /// The recorded prefix, in processing order.
    pub recs: Vec<Rec>,
    /// Whole-run hook counts.
    pub counts: Counts,
    /// Fabric epoch length in ns; no stamps outside a fabric.
    epoch_ns: Option<u64>,
    /// Per epoch with any event, in order.
    pub busy: Vec<Busy>,
    /// When the recorder was made (a campaign cell's start).
    pub made: Instant,
    /// Stamp taken at `on_end`.
    pub ended: Option<Instant>,
    /// The thread that made the recorder (a campaign worker).
    pub thread: std::thread::ThreadId,
}

impl Recorder {
    /// A recorder keeping records before `record_until`, stamping per
    /// `epoch` (pass `None` outside a fabric).
    pub fn new(record_until: Time, epoch: Option<Dur>) -> Recorder {
        Recorder {
            record_until: record_until.0,
            recs: Vec::new(),
            counts: Counts::default(),
            epoch_ns: epoch.map(|d| d.0),
            busy: Vec::new(),
            made: Instant::now(),
            ended: None,
            thread: std::thread::current().id(),
        }
    }

    #[inline]
    fn stamp(&mut self, now: Time) {
        let Some(epoch_ns) = self.epoch_ns else {
            return;
        };
        let epoch = now.0 / epoch_ns;
        let t = Instant::now();
        match self.busy.last_mut() {
            Some(b) if b.epoch == epoch => {
                b.last = t;
                b.stamps += 1;
            }
            _ => self.busy.push(Busy {
                epoch,
                first: t,
                last: t,
                stamps: 0,
            }),
        }
    }

    #[inline]
    fn keep(&mut self, now: Time, aux: u64, flow: FlowId, len: u32, kind: Kind) {
        if now.0 < self.record_until {
            self.recs.push(Rec::new(now, aux, flow, len, kind));
        }
    }
}

impl Observer for Recorder {
    fn on_arrival(&mut self, now: Time, _flow: FlowId, _len: u32, _link: u32) {
        self.counts.arrivals += 1;
        self.stamp(now);
    }

    fn on_enqueue(&mut self, now: Time, flow: FlowId, len: u32, _fo: u64, _to: u64, _link: u32) {
        self.counts.admits += 1;
        self.keep(now, 0, flow, len, Kind::Enq);
    }

    fn on_drop(&mut self, now: Time, flow: FlowId, len: u32, reason: DropReason, _link: u32) {
        self.counts.drops += 1;
        self.keep(now, 0, flow, len, Kind::Drop(reason));
    }

    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time, _link: u32) {
        self.counts.departures += 1;
        self.stamp(now);
        self.keep(now, arrival.0, flow, len, Kind::Dep);
    }

    fn on_sharing(&mut self, now: Time, _holes: u64, _headroom: u64, _link: u32) {
        self.stamp(now);
    }

    fn on_feedback(
        &mut self,
        now: Time,
        flow: FlowId,
        delivered: bool,
        len: u32,
        delay: Dur,
        cause: Option<DropReason>,
        _link: u32,
    ) {
        self.counts.feedback += 1;
        self.keep(now, delay.0, flow, len, Kind::Fb { delivered, cause });
    }

    fn on_end(&mut self, _end: Time, _link: u32) {
        self.ended = Some(Instant::now());
    }
}
