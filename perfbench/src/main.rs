//! End-to-end benchmark of the simulator; see README.md.
//!
//! ```text
//! qbm-perfbench --workload <paper_grid|isp_tree|closed_tree> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload untraced and reports the end-to-end
//! metrics; `--trace 1` makes the traced run and reports the per-layer
//! ledger, writing its spans to `.bench_out/`. The last line of
//! standard output is the JSON result.

mod check;
mod cpus;
mod grid;
mod ledger;
mod record;
mod replay;
mod tree;

use ledger::{Metrics, Spans, Tally};
use std::process::ExitCode;
use std::time::Instant;

/// How long a timed run repeats its workload.
pub struct Budget {
    seconds: f64,
    /// Repetitions whatever the budget, so a median exists.
    min_reps: usize,
    /// Set-up samples, each timed on its own; even, so every CPU of a
    /// 2-CPU host takes the same number.
    pub setups: usize,
}

impl Budget {
    /// Whether to start another repetition after `done` of them.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        done < self.min_reps || started.elapsed().as_secs_f64() < self.seconds
    }
}

const WORKLOADS: [&str; 3] = ["paper_grid", "isp_tree", "closed_tree"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of paper_grid, isp_tree, closed_tree")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?)
                    .filter(|s| s.is_finite() && *s > 0.0);
                if seconds.is_none() {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A fixed kernel in the benchmark's own code, timed in every run:
/// random read-modify-writes over a 16 MiB table, which outgrows the
/// per-core caches as the simulator's big workloads do. A diagnostic
/// for slow periods of the host, never a divisor. Median of five
/// passes, ms.
fn host_ref_ms() -> f64 {
    const SLOTS: usize = 1 << 21;
    let mut table = vec![0u64; SLOTS];
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..1 << 21 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut table[(x as usize) & (SLOTS - 1)];
                *slot = slot.wrapping_add(x);
            }
            std::hint::black_box(&table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ledger::median(&samples)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut m = Metrics::default();
    let tally: Tally = if args.trace {
        let mut spans = Spans::new();
        let tally = match args.workload.as_str() {
            "paper_grid" => grid::traced(args.seed, &mut spans, &mut m),
            "isp_tree" => tree::isp_tree().traced(args.seed, &mut spans, &mut m),
            _ => tree::closed_tree().traced(args.seed, &mut spans, &mut m),
        };
        m.set("host.ref_ms", host_ref_ms(), "ms");
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        if let Err(e) = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
        {
            eprintln!("qbm-perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        tally
    } else {
        let budget = Budget {
            seconds: args.seconds,
            min_reps: 3,
            setups: 16,
        };
        let tally = match args.workload.as_str() {
            "paper_grid" => grid::timed(args.seed, &budget, &mut m),
            "isp_tree" => tree::isp_tree().timed(args.seed, &budget, &mut m),
            _ => tree::closed_tree().timed(args.seed, &budget, &mut m),
        };
        match peak_rss_mib() {
            Some(mib) => m.set("peak_rss_mib", mib, "MiB"),
            None => {
                eprintln!("qbm-perfbench: no VmHWM in /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
        // After the peak is read: the kernel's table is not the
        // workload's memory.
        let host_ms = host_ref_ms();
        println!(
            "{:>12} {:<28} {host_ms:>16.6e} ms (diagnostic)",
            args.workload, "host.ref_ms"
        );
        tally
    };
    m.print_table(&args.workload);
    println!(
        "{:>12} {} of {} operations failed their checks",
        args.workload, tally.failed, tally.attempted
    );
    println!("{}", ledger::result_json(tally, &m));
    ExitCode::SUCCESS
}
