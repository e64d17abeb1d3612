//! Clocks and process accounting read straight from the OS.
//!
//! `CLOCK_MONOTONIC` is shared by every process on the machine, which is
//! what lets the client's and the server child's stamps be joined into one
//! span; `std::time::Instant` hides its epoch, so it cannot be sent across
//! a process boundary.

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub const MONOTONIC: i32 = 1;
    pub const PROCESS_CPUTIME: i32 = 2;

    pub fn read(clock: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux ABI) and both clock ids exist on
        // Linux >= 2.6.12; the call writes only through `ts`.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// Nanoseconds on the machine-wide monotonic clock.
#[cfg(target_os = "linux")]
#[inline]
pub fn now_ns() -> u64 {
    sys::read(sys::MONOTONIC)
}

/// User + system CPU nanoseconds consumed by every thread of this process.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    sys::read(sys::PROCESS_CPUTIME)
}

/// Portable stand-ins: per-process monotonic time (cross-process spans are
/// meaningless off Linux) and no CPU accounting.
#[cfg(not(target_os = "linux"))]
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    0
}

/// Peak resident set (`VmHWM`) of this process in KiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}
