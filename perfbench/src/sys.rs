//! Process-level probes: CPU time, peak resident memory, and a child's
//! CPU time read from `/proc`; and the calling thread's CPU affinity.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Blocks until `fd` is readable or `timeout` passes; true if readable.
///
/// `ppoll` sleeps on a high-resolution timer, unlike a socket read
/// timeout, which the kernel rounds to its scheduler tick (up to 10 ms).
pub fn wait_readable(fd: std::os::fd::RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` is one live `struct pollfd` (nfds = 1), `ts` a live
    // `struct timespec`, and a null signal mask leaves the mask as is.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    rc > 0 && pfd.revents != 0
}

/// The CPUs the calling thread may run on, in ascending order (empty if
/// the kernel will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and the threads it spawns from now on)
/// to `cpus`; false if the kernel refused.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 16 * 64) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t` of the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// User + system CPU time consumed so far by every thread of this
/// process, at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of process `pid` from `/proc/<pid>/stat`
/// (clock-tick resolution).
pub fn child_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime/stime are 14/15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: `sysconf` takes a plain integer and has no memory effects.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    Some((utime + stime) / if tck > 0 { tck as f64 } else { 100.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
    }

    #[test]
    fn pins_and_unpins_this_thread() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            assert!(set_affinity(&cpus[..1]));
            assert_eq!(allowed_cpus(), cpus[..1]);
            assert!(set_affinity(&cpus));
            assert_eq!(allowed_cpus(), cpus);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reads_own_proc_files() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(child_cpu_s(std::process::id()).is_some());
    }
}
