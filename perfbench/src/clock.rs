//! The benchmark's clock: CPU time of the calling thread.
//!
//! The benchmark is single-threaded, so on an idle machine this reads the
//! same as wall time. Unlike wall time it leaves out the time the thread
//! spends waiting for a CPU that another process holds, which on a shared
//! host is the largest part of the run-to-run spread of wall figures.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A reading of the thread's CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct CpuInstant(Duration);

/// The thread's CPU time now.
pub fn now() -> CpuInstant {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

impl CpuInstant {
    /// CPU time the thread has used since this reading.
    pub fn elapsed(self) -> Duration {
        now().0.saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = now();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ i);
        }
        assert!(t.elapsed() > Duration::ZERO, "{x}");
    }
}
