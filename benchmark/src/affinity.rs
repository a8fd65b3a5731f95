//! One core for the whole benchmark.
//!
//! The sandboxes this benchmark is judged on give it two vCPUs of a shared
//! host whose allowance swings between about one and two cores from minute
//! to minute. One busy thread never notices; two busy at once (the two
//! shard workers of `served_shard2`) take anywhere between 1× and 2× their
//! quiet time, which spread that workload's median operation by 35–50 %
//! between runs of one commit. Pinned to a single CPU, every workload
//! measures the work its operation costs, whichever processes do it, and
//! is as steady as a single thread; what it cannot show is parallel
//! speed-up, which two shards on two shared cores never showed reliably
//! either.

/// Restrict the calling thread — and every thread and process it starts
/// from here on — to one of the CPUs it may run on now. Returns the CPU,
/// or `None` where that cannot be done (not Linux, or the call failed), in
/// which case the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    // std links the platform's libc; these two are all the benchmark needs
    // of it, so they are declared here rather than pulled in as a crate.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 is where a small guest's interrupts
        // and housekeeping tend to land.
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let cpu = word * 64 + (63 - allowed[word].leading_zeros() as usize);
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}
