//! End-to-end and per-layer benchmark of the distributed protocols.
//!
//! ```text
//! perfbench --workload <hh-wide|matrix-d128|window-lossy|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs; `--trace
//! 1` prints the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs both kinds on every workload
//! and prints one table per workload instead.
//!
//! All work runs in one process, closed loop: each driver gets the whole
//! pre-partitioned stream and returns the drained coordinator. The pool
//! always runs as `Executor::Pool { workers: 1 }` — one worker plus the
//! calling thread.

mod bench;
mod driver;
mod measure;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use bench::Report;
use driver::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{HhWide, MatrixD128, WindowLossy};

const WORKLOADS: [&str; 3] = ["hh-wide", "matrix-d128", "window-lossy"];

/// Input sizes of the full workloads.
const HH_SITES: usize = 65_536;
const HH_ARRIVALS: usize = 500_000;
const MX_SITES: usize = 64;
const MX_ROWS: usize = 8_192;
const WIN_SITES: usize = 1_024;
const WIN_WINDOW: u64 = 65_536;
const WIN_SEGMENT: usize = 8_192;
const WIN_SEGMENTS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("{key}: missing value"))?;
        let bad = |_| format!("{key}: cannot parse {val:?}");
        match key.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(val.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown argument {key:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload: expected one of {WORKLOADS:?} or \"all\", got {workload:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn measure<W: Workload>(w: &W, name: &str, args: &Args, trace: bool) -> Report {
    if trace {
        let path = PathBuf::from(format!("perfbench/out/{name}.inline.spans.tsv"));
        bench::traced(w, Some(&path)).report
    } else {
        bench::untraced(w, Duration::from_secs(args.seconds))
    }
}

fn run_workload(name: &str, args: &Args, trace: bool) -> Report {
    let seed = args.seed;
    eprintln!("perfbench: {name} seed {seed}: generating inputs");
    match name {
        "hh-wide" => measure(&HhWide::new(seed, HH_SITES, HH_ARRIVALS), name, args, trace),
        "matrix-d128" => measure(&MatrixD128::new(seed, MX_SITES, MX_ROWS), name, args, trace),
        "window-lossy" => {
            let w = WindowLossy::new(seed, WIN_SITES, WIN_WINDOW, WIN_SEGMENT, WIN_SEGMENTS);
            measure(&w, name, args, trace)
        }
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn print_table(name: &str, rep: &Report) {
    println!(
        "== {name}: correct {} ({} checks, {} failed)",
        rep.correct(),
        rep.tally.attempted,
        rep.tally.failed
    );
    for m in &rep.metrics {
        println!("  {:<28} {:>24} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        let mut ok = true;
        for name in WORKLOADS {
            for trace in [false, true] {
                let rep = run_workload(name, &args, trace);
                ok &= rep.correct();
                print_table(&format!("{name} (trace {})", u8::from(trace)), &rep);
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let rep = run_workload(&args.workload, &args, args.trace);
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
