//! `arl-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A readable table goes to stderr.
//!
//! `arl-perfbench serve-daemon [arls serve flags]` runs the `arls serve`
//! daemon itself; the serve workload starts it that way.

use arl_perfbench::{report, runner, serve};
use std::process::ExitCode;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String], workloads: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 2011,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads.contains(&opts.workload) || runner(&opts.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-daemon") {
        return serve::daemon_main(&args[1..]);
    }
    let schema = report::schema();
    let opts = match parse(&args, &schema.workloads) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: arl-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                schema.workloads.join("|")
            );
            return ExitCode::from(2);
        }
    };
    arl_perfbench::clock::init();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let run = runner(&opts.workload).expect("the name was checked");
    let out = run(opts.seed, opts.seconds, opts.trace, &exe);
    let selected = if opts.trace {
        report::select(&out.layers, &schema.per_layer, true)
    } else {
        report::select(&out.e2e, &schema.end_to_end, false)
    };
    let metrics = match selected {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "{} seed {} trace {}: {} runs, {} attempted, {} failed (error_frac {:.6})",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        out.reps,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for m in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    let line = report::result_line(correct, out.attempted.max(1), out.failed, &metrics);
    if let Err(e) = report::verify_line(&line, &metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(3);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
