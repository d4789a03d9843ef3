//! Host clocks: on-CPU time of the benchmark thread, wall time, peak RSS.
//!
//! The simulator is single-threaded, so the cost of a run is the CPU time
//! this thread consumed — not the wall time, which on a shared box also
//! counts every interval another process held the core. Linux exposes the
//! thread's accumulated on-CPU nanoseconds as field 1 of
//! `/proc/thread-self/schedstat`, but the kernel only folds the running
//! slice into that counter at a scheduler tick (4 ms here); a
//! `sched_yield` forces the fold, so [`Stamp::now`] yields first and the
//! reading is exact to a few microseconds.

use std::time::Instant;

fn schedstat_ns() -> Option<u64> {
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Whether on-CPU time is available (otherwise every "cpu" reading is wall
/// time and the report says so).
pub fn cpu_clock_available() -> bool {
    schedstat_ns().is_some()
}

/// One reading of both clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    cpu_ns: Option<u64>,
    wall: Instant,
}

/// Seconds elapsed between two stamps on each clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    /// On-CPU seconds (wall seconds when schedstat is absent).
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            cpu_ns: schedstat_ns(),
            wall: Instant::now(),
        }
    }

    pub fn since(&self, earlier: &Stamp) -> Elapsed {
        let wall_s = self.wall.duration_since(earlier.wall).as_secs_f64();
        let cpu_s = match (self.cpu_ns, earlier.cpu_ns) {
            (Some(a), Some(b)) => a.saturating_sub(b) as f64 / 1e9,
            _ => wall_s,
        };
        Elapsed { cpu_s, wall_s }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
