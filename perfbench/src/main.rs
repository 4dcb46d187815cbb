//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> --steady <k>
//! perfbench --reference
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). `--steady k` runs the first form k times back to back in
//! child processes, on seeds n..n+k, and prints each metric's median,
//! quartiles and spread. `--reference` prints the reference figures the
//! README quotes.

mod reference;

use perfbench::{stats, Metric, RunOpts, END_TO_END, PER_LAYER};
use rteaal_perfmodel::memtrack::{self, CountingAlloc};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--steady <k>]\n       perfbench --reference";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        steady: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => args.steady = Some(number(value()?)?.max(1)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--reference") {
        reference::print();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.steady {
        Some(k) => steady(&args, k),
        None => run_once(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Restricts the process (this thread and every thread it starts
/// later) to the lowest-numbered CPU it may run on, so the serving
/// workload's client, connection and worker threads hand off on one core
/// instead of waking each other across cores, and no run migrates.
/// Returns the CPU, or `None` where affinity cannot be read or set.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// One run: the result line on standard output.
fn run_once(args: &Args) -> Result<(), String> {
    if pin_to_one_cpu().is_none() {
        eprintln!("perfbench: running unpinned (CPU affinity unavailable)");
    }
    let mut opts = RunOpts::new(args.seed, args.seconds as f64);
    opts.trace = args.trace;
    if args.trace {
        opts.trace_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed)),
        );
    }
    let start = memtrack::live_bytes();
    let (outcome, peak_delta) = memtrack::measure(|| perfbench::run(&args.workload, &opts));
    let mut outcome = outcome?;
    if !args.trace {
        let peak = (start + peak_delta) as f64 / (1024.0 * 1024.0);
        outcome.metrics.push(Metric {
            name: "peak_heap_mb",
            unit: "MB",
            value: peak,
        });
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed.is_empty(),
        outcome.attempted,
        outcome.failed.len(),
        metrics.join(", ")
    );
    Ok(())
}

/// A finite JSON number (non-finite values, which only a run with no
/// samples can produce, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs the workload `k` times in child processes on consecutive seeds
/// and prints each metric's median, quartiles and spread
/// ((q3 - q1) / median).
fn steady(args: &Args, k: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); catalog.len()];
    let mut shares = Vec::new();
    for i in 0..k {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !out.status.success() {
            return Err(format!(
                "seed {seed} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let attempted = field(line, "\"attempted\": ").ok_or("no attempted")?;
        let failed = field(line, "\"failed\": ").ok_or("no failed")?;
        shares.push(format!("{failed}/{attempted}"));
        for ((name, _), v) in catalog.iter().zip(values.iter_mut()) {
            let key = format!("\"{name}\": {{\"value\": ");
            v.push(field(line, &key).ok_or(format!("seed {seed}: no {name}"))?);
        }
        eprintln!("seed {seed}: {line}");
    }
    println!(
        "{} x{k} seeds {}..{} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seed + k - 1,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for ((name, unit), v) in catalog.iter().zip(&values) {
        let [q1, med, q3] = stats::quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{:<26} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>7.2}%  {unit}",
            name,
            spread * 100.0
        );
    }
    println!("failed/attempted: {}", shares.join(" "));
    Ok(())
}

/// The number right after `key` in `line`.
fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
