//! Process CPU time (user + system, every thread), for `ft_cpu_s`, and the
//! core count.
//!
//! `/proc/self/stat` ticks at 10 ms — several percent of a solve here — so
//! the suite asks the C library's `clock_gettime` for the nanosecond
//! process clock instead. `std` already links the C library; no crate is
//! added.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed so far, all threads.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, which the cfg above pins); the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_secs();
        let mut x = 0u64;
        while process_cpu_secs() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_secs() - t0 >= 0.01);
    }
}
