//! A low-overhead interval clock for per-call timing.
//!
//! On x86-64 it reads the time-stamp counter, converted to seconds with
//! a rate calibrated once against `Instant`. Elsewhere it falls back to
//! `Instant`. On a 2-vCPU KVM guest `Instant::now` costs about 35 ns a
//! call, and timing every scheduler call with it raised the traced
//! run's overhead on `paper-light` from about 0.13 to about 0.23 (see
//! `README.md`).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Current tick count.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` reads a counter register; it has no memory
        // effects and no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        origin().elapsed().as_nanos() as u64
    }
}

struct Calibration {
    secs_per_tick: f64,
    /// Ticks an empty timed interval reads: the clock's own cost.
    overhead: u64,
}

fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        let t0 = origin().elapsed();
        let c0 = ticks();
        std::thread::sleep(Duration::from_millis(30));
        let c1 = ticks();
        let t1 = origin().elapsed();
        let secs_per_tick = (t1 - t0).as_secs_f64() / c1.wrapping_sub(c0).max(1) as f64;
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| {
                let a = ticks();
                ticks().wrapping_sub(a)
            })
            .collect();
        empty.sort_unstable();
        Calibration {
            secs_per_tick,
            overhead: empty[empty.len() / 2],
        }
    })
}

/// Calibrates now, so no timed interval pays for it later.
pub fn init() {
    calibration();
}

/// Seconds in `t` ticks.
pub fn secs(t: u64) -> f64 {
    t as f64 * calibration().secs_per_tick
}

/// Ticks elapsed since `start`, less the clock's own cost.
#[inline]
pub fn since(start: u64) -> u64 {
    ticks()
        .wrapping_sub(start)
        .saturating_sub(calibration().overhead)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_sleep() {
        let t = ticks();
        std::thread::sleep(Duration::from_millis(20));
        let s = secs(since(t));
        assert!((0.019..0.5).contains(&s), "{s}");
    }
}
