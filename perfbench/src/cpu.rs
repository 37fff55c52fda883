//! Processor time of the whole process, every thread included (threads that
//! have exited too). Unlike wall time it leaves out time the host took the
//! processor away, which on a shared host is most of the run-to-run noise.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Processor time the process has used so far.
pub fn process_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and processor time of one measured call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock time.
    pub wall: Duration,
    /// Processor time of the whole process.
    pub cpu: Duration,
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let (wall, cpu) = (std::time::Instant::now(), process_time());
    let out = f();
    let cpu = process_time() - cpu;
    (
        out,
        Timed {
            wall: wall.elapsed(),
            cpu,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_time_advances_with_work() {
        let before = process_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_time() > before);
    }
}
