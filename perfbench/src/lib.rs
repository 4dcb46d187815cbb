//! The RTeAAL Sim benchmark: three workloads that each drive one part of
//! the stack hard, measured from outside through the crates' public
//! functions.
//!
//! - [`sim_boom`] — one stimulus stream through the scalar PSU kernel
//!   (`rteaal_core::Simulation`) on a SmallBOOM-like multicore.
//! - [`batch_rocket`] — 64 distinct lanes through `BatchSimulation` on a
//!   RocketChip-like 4-core.
//! - [`serve_rv32i`] — the rv32i parameterized-sum corpus over loopback
//!   into a one-worker `ServerPool`.
//!
//! A run builds its engine several times (the set-up samples, reported
//! as their median), warms up with one untimed round, then runs whole
//! rounds of fixed work until their timed parts add up to the run's
//! length. Rates are work over timed seconds summed across untraced
//! rounds; latencies are medians. Each round's outputs are checked right
//! after it, outside its timing, against computations made apart from
//! the engine under test: the graph interpreter on the unoptimized
//! graph, or the sum loop's closed form.

pub mod batch_rocket;
pub mod serve_rv32i;
pub mod sim_boom;
pub mod stats;
pub mod trace;

use rteaal_core::{Compiled, Compiler, StageTimings};
use rteaal_kernels::{KernelConfig, KernelKind};
use std::path::PathBuf;
use std::time::Instant;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-boom", "batch-rocket", "serve-rv32i"];

/// End-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lane_cycles_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by traced runs. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("firrtl.parse_s", "s"),
    ("firrtl.lower_s", "s"),
    ("dfg.graph_s", "s"),
    ("dfg.optimize_s", "s"),
    ("dfg.plan_s", "s"),
    ("dfg.verify_s", "s"),
    ("kernels.codegen_s", "s"),
    ("core.engine_build_s", "s"),
    ("core.compile_peak_mb", "MB"),
    ("dfg.effectual_ops", "count"),
    ("dfg.layers", "count"),
    ("dfg.slots", "count"),
    ("kernels.code_bytes", "bytes"),
    ("kernels.data_bytes", "bytes"),
    ("kernels.step_us", "us"),
    ("core.poke_ns", "ns"),
    ("kernels.ns_per_op", "ns"),
    ("kernels.batch_step_us", "us"),
    ("core.stimulus_us", "us"),
    ("kernels.ns_per_lane_op", "ns"),
    ("serve.submit_rtt_us", "us"),
    ("serve.result_wait_us", "us"),
    ("sched.engine_cycles", "count"),
    ("sched.lane_utilization", "ratio"),
    ("serve.dispatch_us", "us"),
    ("sched.queue_us", "us"),
    ("sched.run_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.deliver_us", "us"),
    ("serve.wire_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Flip one bit of this testbench's expected value (check liveness).
    pub corrupt: Option<u64>,
    /// Tiny designs and corpora, for tests.
    pub small: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl RunOpts {
    /// A run of `seconds` on `seed`, untraced, full size.
    pub fn new(seed: u64, seconds: f64) -> Self {
        RunOpts {
            seed,
            seconds,
            trace: false,
            corrupt: None,
            small: false,
            trace_out: None,
        }
    }

    /// Set-up samples per run (the reported set-up time is their
    /// median): `full` at full size, one for tests.
    fn setup_repeats(&self, full: usize) -> usize {
        if self.small {
            1
        } else {
            full
        }
    }

    /// The expected value a check compares against, with the bit flip
    /// applied when `id` is the corrupted testbench.
    fn expect(&self, id: u64, value: u64) -> u64 {
        if self.corrupt == Some(id) {
            value ^ 1
        } else {
            value
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Testbenches run in the timed loop.
    pub attempted: u64,
    /// Ids of the testbenches whose check failed.
    pub failed: Vec<u64>,
    /// Measurements (end-to-end or per-layer, by mode).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Value of a reported metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a failure to set
/// the engine up (compile error, socket error).
pub fn run(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "sim-boom" => sim_boom::run(opts),
        "batch-rocket" => batch_rocket::run(opts),
        "serve-rv32i" => serve_rv32i::run(opts),
        _ => Err(format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The timed loop's round counter: whole rounds until the rounds' timed
/// work adds up to `RunOpts::seconds`, and at least three rounds (so a
/// run of 0 seconds is exactly three). Set-up, warm-up and checks do not
/// count.
pub(crate) struct Rounds {
    seconds: f64,
    timed: f64,
    done: u64,
}

impl Rounds {
    const MIN: u64 = 3;

    pub(crate) fn new(opts: &RunOpts) -> Self {
        Rounds {
            seconds: opts.seconds,
            timed: 0.0,
            done: 0,
        }
    }

    /// The next round's index, or `None` when the loop is over.
    pub(crate) fn next(&mut self) -> Option<u64> {
        let more = self.done < Self::MIN || self.timed < self.seconds;
        more.then(|| {
            self.done += 1;
            self.done - 1
        })
    }

    /// Counts `seconds` of timed work toward the run's length.
    pub(crate) fn timed(&mut self, seconds: f64) {
        self.timed += seconds;
    }
}

/// Whether round `round` is a traced one: a traced run alternates
/// untraced and traced rounds so the overhead compares like with like.
pub(crate) fn traced_round(opts: &RunOpts, round: u64) -> bool {
    opts.trace && round % 2 == 1
}

/// splitmix64 finalizer: derives independent sub-seeds.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The compiler every workload uses: the paper's PSU kernel.
pub(crate) fn compiler() -> Compiler {
    Compiler::new(KernelConfig::new(KernelKind::Psu))
}

/// One set-up sample: FIRRTL text to a ready engine.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupSample {
    pub total_s: f64,
    pub parse_s: f64,
    pub stages: StageTimings,
    pub engine_s: f64,
    pub compile_peak_bytes: usize,
}

/// Parses and compiles `text`, timing the parse. On a traced run the
/// compile's peak heap is measured too (not on untraced runs, whose
/// whole-run peak the measurement would reset).
pub(crate) fn compile_text(
    text: &str,
    trace: bool,
    sample: &mut SetupSample,
) -> Result<Compiled, String> {
    let work = || {
        let t0 = Instant::now();
        let ast = rteaal_firrtl::parser::parse(text).map_err(|e| e.to_string())?;
        let parse_s = t0.elapsed().as_secs_f64();
        let compiled = compiler().compile(&ast).map_err(|e| e.to_string())?;
        Ok::<_, String>((compiled, parse_s))
    };
    let ((compiled, parse_s), peak) = if trace {
        let (r, peak) = rteaal_perfmodel::memtrack::measure(work);
        (r?, peak)
    } else {
        (work()?, 0)
    };
    sample.parse_s = parse_s;
    sample.stages = compiled.timings;
    sample.compile_peak_bytes = peak;
    Ok(compiled)
}

/// The unoptimized dataflow graph of `text`: what the interpreter checks
/// run on, built apart from the compiler under test.
pub(crate) fn reference_graph(text: &str) -> Result<rteaal_dfg::Graph, String> {
    let ast = rteaal_firrtl::parser::parse(text).map_err(|e| e.to_string())?;
    let flat = rteaal_firrtl::lower::lower_typed(&ast).map_err(|e| e.to_string())?;
    rteaal_dfg::build(&flat).map_err(|e| e.to_string())
}

/// Collects the metrics of one run and fills in the catalog order.
pub(crate) struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    pub(crate) fn new() -> Self {
        MetricSet { values: Vec::new() }
    }

    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Set-up metrics (median over samples) and the compiled design's
    /// static counts.
    pub(crate) fn setup(&mut self, samples: &[SetupSample], compiled: &CompiledStats) {
        let med =
            |f: fn(&SetupSample) -> f64| stats::median(&samples.iter().map(f).collect::<Vec<_>>());
        self.set("setup_s", med(|s| s.total_s));
        self.set("firrtl.parse_s", med(|s| s.parse_s));
        self.set("firrtl.lower_s", med(|s| s.stages.lower));
        self.set("dfg.graph_s", med(|s| s.stages.graph));
        self.set("dfg.optimize_s", med(|s| s.stages.optimize));
        self.set("dfg.plan_s", med(|s| s.stages.plan));
        self.set("dfg.verify_s", med(|s| s.stages.verify));
        self.set("kernels.codegen_s", med(|s| s.stages.kernel));
        self.set("core.engine_build_s", med(|s| s.engine_s));
        self.set(
            "core.compile_peak_mb",
            med(|s| s.compile_peak_bytes as f64 / (1024.0 * 1024.0)),
        );
        self.set("dfg.effectual_ops", compiled.ops as f64);
        self.set("dfg.layers", compiled.layers as f64);
        self.set("dfg.slots", compiled.slots as f64);
        self.set("kernels.code_bytes", compiled.code_bytes as f64);
        self.set("kernels.data_bytes", compiled.data_bytes as f64);
    }

    /// Tracing summary: unattributed share and overhead (median traced
    /// round over median untraced round, minus one).
    pub(crate) fn trace_summary(
        &mut self,
        tracer: &trace::Tracer,
        traced_walls: &[f64],
        untraced_walls: &[f64],
    ) {
        self.set("trace.unattributed_share", tracer.unattributed_share());
        let base = stats::median(untraced_walls);
        let overhead = if base > 0.0 {
            stats::median(traced_walls) / base - 1.0
        } else {
            0.0
        };
        self.set("trace.overhead_share", overhead);
    }

    /// The metrics of the run's mode, in catalog order; a catalog metric
    /// the workload did not measure reads 0.
    pub(crate) fn finish(self, trace: bool) -> Vec<Metric> {
        let catalog: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        catalog
            .iter()
            .filter(|(name, _)| trace || *name != "peak_heap_mb")
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self
                    .values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }
}

/// Writes a traced run's spans, when the run was given a place for them.
pub(crate) fn write_trace(tracer: &trace::Tracer, opts: &RunOpts) -> Result<(), String> {
    const LIMIT: usize = 200_000;
    match &opts.trace_out {
        Some(path) => tracer
            .write_jsonl(path, LIMIT)
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    }
}

/// Static counts of a compiled design.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledStats {
    pub ops: usize,
    pub layers: usize,
    pub slots: usize,
    pub code_bytes: u64,
    pub data_bytes: u64,
}

impl CompiledStats {
    pub(crate) fn of(compiled: &Compiled) -> Self {
        let p = compiled.plan_stats();
        let k = compiled.kernel_report();
        CompiledStats {
            ops: p.effectual_ops,
            layers: p.layers,
            slots: p.slots,
            code_bytes: k.code_bytes,
            data_bytes: k.data_bytes,
        }
    }
}
