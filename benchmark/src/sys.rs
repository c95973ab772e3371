//! What the benchmark asks the operating system: process CPU time and peak
//! memory (`getrusage`), and which CPUs the process may run on.
//!
//! `std` exposes neither, and the container has no `libc` crate, so the
//! three calls are declared here against the C library `std` already links.
//! Off Linux every function degrades to "unknown" instead of failing.

use std::time::Duration;

/// Resource use of this process so far, all threads (live and joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// CPU time in user mode.
    pub user: Duration,
    /// CPU time in kernel mode.
    pub sys: Duration,
    /// Peak resident set size, bytes (the `VmHWM` of `/proc/self/status`).
    pub peak_rss_bytes: u64,
}

impl Usage {
    /// User plus kernel CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            peak_rss_bytes: self.peak_rss_bytes,
        }
    }

    /// Kernel share of the CPU time (0 when no CPU time was recorded).
    pub fn sys_share(&self) -> f64 {
        let total = self.cpu().as_secs_f64();
        if total > 0.0 {
            self.sys.as_secs_f64() / total
        } else {
            0.0
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::Usage;
    use std::time::Duration;

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct RUsage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }

    /// Words in a `cpu_set_t` (1024 bits).
    const CPU_SET_WORDS: usize = 16;
    const RUSAGE_SELF: i32 = 0;

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    fn duration(t: Timeval) -> Duration {
        Duration::new(t.sec.max(0) as u64, (t.usec.max(0) as u32) * 1000)
    }

    pub fn usage() -> Usage {
        let mut raw = RUsage::default();
        // SAFETY: `raw` is a live, correctly laid out `struct rusage` the
        // call fills in; `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        if rc != 0 {
            return Usage::default();
        }
        Usage {
            user: duration(raw.utime),
            sys: duration(raw.stime),
            peak_rss_bytes: raw.maxrss_kb.max(0) as u64 * 1024,
        }
    }

    pub type CpuSet = [u64; CPU_SET_WORDS];

    pub fn affinity() -> Option<CpuSet> {
        let mut set = [0u64; CPU_SET_WORDS];
        // SAFETY: the pointer covers exactly the `size` bytes passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set_affinity(set: &CpuSet) -> bool {
        // SAFETY: as above, read-only.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Usage;
    pub type CpuSet = [u64; 16];
    pub fn usage() -> Usage {
        Usage::default()
    }
    pub fn affinity() -> Option<CpuSet> {
        None
    }
    pub fn set_affinity(_: &CpuSet) -> bool {
        false
    }
}

/// Resource use of this process so far.
pub fn usage() -> Usage {
    imp::usage()
}

/// CPUs this process may run on, as reported by the scheduler.
pub fn allowed_cpus() -> usize {
    imp::affinity()
        .map(|set| set.iter().map(|w| w.count_ones() as usize).sum())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// While alive, the calling thread — and every thread it spawns, which
/// inherit the mask — runs on one CPU only. Dropping it restores the mask
/// the thread had before.
pub struct OneCpu {
    before: imp::CpuSet,
}

impl OneCpu {
    /// Restrict the calling thread to the highest-numbered CPU it is
    /// allowed on (interrupts tend to land on the lowest). `None` when the
    /// mask cannot be read or set; the caller then runs unpinned.
    pub fn pin() -> Option<OneCpu> {
        let before = imp::affinity()?;
        let (word, bits) = before.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1u64 << (63 - bits.leading_zeros());
        imp::set_affinity(&one).then_some(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        imp::set_affinity(&self.before);
    }
}
