//! The repository benchmark: three named workloads, end-to-end metrics
//! measured with tracing off, and an outside-in per-layer trace.
//!
//! Every timing is taken from outside the program's crates: the batch
//! workloads wrap each policy in [`timed::Timed`], time scenario builds
//! and read Adaptive-RL's phase profiler totals; the serve workload
//! drives an `arls serve` daemon over TCP with its own open-loop client.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod batch;
pub mod clock;
pub mod report;
pub mod serve;
pub mod sys;
pub mod timed;

use report::Outcome;
use std::path::Path;

/// Runs one workload: `(seed, seconds, trace, exe)`, where `exe` is
/// the binary that serves as the daemon for `serve-open`.
pub type Runner = fn(u64, f64, bool, &Path) -> Outcome;

/// The runner of workload `name`; `None` for a name this crate has no
/// runner for.
pub fn runner(name: &str) -> Option<Runner> {
    use batch::{run, Batch};
    let runner: Runner = match name {
        "paper-light" => |seed, secs, trace, _| run(&Batch::paper_light(seed), secs, trace),
        "scale-sharded" => |seed, secs, trace, _| run(&Batch::scale_sharded(seed), secs, trace),
        "serve-open" => |seed, secs, trace, exe| serve::run(exe, seed, secs, trace),
        _ => return None,
    };
    Some(runner)
}
