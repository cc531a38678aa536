//! `lakebench`: one benchmark for the model lake, end to end and layer
//! by layer.
//!
//! ```text
//! lakebench --workload <serve_mixed|ingest_durable|reopen_cold>
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Inputs come from `mlake-datagen` and the workload's seed. With
//! `--trace 0` the program runs with observability off and the result
//! line carries the end-to-end metrics; with `--trace 1` it runs with
//! observability on, replays each layer after the timed phase, and
//! reruns itself untraced to measure the tracing overhead. `--smoke`
//! shrinks the lake to a few models for the benchmark's own tests.
//! The last line of standard output is the JSON result; scratch files
//! live under `.lakebench-work/` in the working directory.

mod cold;
mod ingest;
mod inputs;
mod layers;
mod reopen;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const WORKLOADS: &[&str] = &["serve_mixed", "ingest_durable", "reopen_cold"];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory for durable lakes, removed at exit.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lakebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program reads this once, on first use; nothing has run yet.
    std::env::set_var("MLAKE_OBS", if args.trace { "on" } else { "off" });
    let work =
        PathBuf::from(".lakebench-work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("lakebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work,
    };
    let result = match args.workload.as_str() {
        "serve_mixed" => serve::run(&ctx),
        "ingest_durable" => ingest::run(&ctx),
        _ => reopen::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".lakebench-work");
    let line = result.and_then(|mut report| {
        if ctx.trace {
            let untraced = untraced_ops_per_s(&args)?;
            let traced = report.get("ops_per_s");
            report.set(
                "obs.overhead_pct",
                100.0 * stats::ratio(untraced - traced, untraced),
            );
        } else {
            // Not an end-to-end metric, but the traced run's overhead
            // figure reads it from here.
            eprintln!("{OPS_LINE}{}", report.get("ops_per_s"));
        }
        report.json(ctx.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lakebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prefix of the standard-error line carrying an untraced run's
/// `ops_per_s`.
const OPS_LINE: &str = "lakebench: untraced ops_per_s ";

/// Runs the same workload and seed again with tracing off, in a child
/// process (observability is decided once per process), and returns its
/// `ops_per_s`.
fn untraced_ops_per_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .env("MLAKE_OBS", "off")
        .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    if !out.status.success() {
        return Err(format!("untraced rerun failed: {}", out.status));
    }
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(OPS_LINE))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "untraced rerun reported no ops_per_s".into())
}
