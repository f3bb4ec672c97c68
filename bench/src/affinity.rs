//! Pinning the whole process to one CPU.
//!
//! `wire_short`'s round-trip is two thread hand-offs (client → server worker
//! → client) around tens of µs of work. Across two vCPUs of a shared VM each
//! hand-off is an inter-processor interrupt and, usually, the wake-up of a
//! halted vCPU by the hypervisor: on the 2-core reference container that was
//! close to half of the round-trip (p50 0.12 ms against 0.07 ms on one CPU,
//! same statements) and most of its spread (p99 of one statement 7.8 times
//! its median against 2.2 times; run-to-run p50 spread 7 % against 1.4 %). A
//! closed loop with one client never has two of its threads runnable at
//! once, so sharing a CPU takes nothing from the engine: the hand-off becomes
//! a context switch on one core, which the program under test pays for and
//! the host's other tenants do not move.
//!
//! `embedded_analytic` is pinned for the opposite reason: its two Exchange
//! workers *are* runnable at once, and whether a 2-vCPU slice of a shared
//! host gives them two cores' worth is the host's choice from one minute to
//! the next (see `Workload::shares_one_cpu`).

/// Pin every existing thread of this process (and so every thread they
/// spawn later) to the first CPU the process may run on. Returns that CPU,
/// or `None` where pinning is unavailable — the run goes on unpinned.
pub fn pin_process_to_one_cpu() -> Option<usize> {
    imp::pin_process_to_one_cpu()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1 024 bits.
    const SET_BYTES: usize = 128;

    extern "C" {
        // From the C library `std` already links. `pid` 0 is the caller;
        // any other value is a thread id.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }

    pub fn pin_process_to_one_cpu() -> Option<usize> {
        let mut allowed = [0u8; SET_BYTES];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, SET_BYTES, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..SET_BYTES * 8).find(|&c| allowed[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; SET_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        let mut pinned = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<i32>().ok())
            else {
                continue;
            };
            // SAFETY: `one` is a readable buffer of exactly the size passed;
            // the call only changes where thread `tid` may be scheduled. A
            // thread that has exited meanwhile makes it fail, nothing more.
            pinned += usize::from(unsafe { sched_setaffinity(tid, SET_BYTES, one.as_ptr()) } == 0);
        }
        (pinned > 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_process_to_one_cpu() -> Option<usize> {
        None
    }
}
