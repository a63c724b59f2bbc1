//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line describing the run, then as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! on a wrong or failed answer, on bad arguments, and in a debug build.

use dds_servebench::bench::{self, Args, Workload};
use dds_servebench::ALLOCATIONS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// Counts every allocation of the process into `ALLOCATIONS`.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed counter increment, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: servebench --workload <hot-single|cold-batch|ingest-churn> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 1.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad seconds `{value}` (1 to 120)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("servebench: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.result_line(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.stamp);
    println!("{line}");
    if outcome.failed > 0 {
        eprintln!(
            "servebench: {} of {} operations failed or were answered wrongly",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
