//! Spreading short samples evenly over the host's CPUs.
//!
//! On a shared host the CPUs of one machine need not run at one speed:
//! on the 2-vCPU reference host, building `paper_grid`'s configurations
//! took 7–8 µs on one vCPU and 12–13 µs on the other, over the same
//! minutes. A single-threaded sample lands wherever the scheduler put
//! the process, so medians of short samples jumped between the two
//! speeds from run to run. Taking the samples in turn on every allowed
//! CPU makes each run's median cover all of them.

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get() -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed, only
    // read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Run `f` `n` times, the `i`-th time pinned to the `i`-th allowed CPU
/// in turn, then restore the thread's affinity. Runs unpinned where the
/// affinity cannot be read or set.
pub fn round_robin<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let Some(all) = get() else {
        return (0..n).map(|_| f()).collect();
    };
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return (0..n).map(|_| f()).collect();
    }
    let out = (0..n)
        .map(|i| {
            let mut one = [0u64; WORDS];
            let c = cpus[i % cpus.len()];
            one[c / 64] = 1 << (c % 64);
            set(&one);
            f()
        })
        .collect();
    if !set(&all) {
        eprintln!("qbm-perfbench: could not restore the CPU affinity");
    }
    out
}
