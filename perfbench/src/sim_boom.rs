//! `sim-boom`: one stimulus stream, poked every cycle, through the
//! paper's PSU tensor kernel (`rteaal_core::Simulation`) on a
//! SmallBOOM-like multicore. A testbench is one run of `cycles` cycles
//! from power-on with its own seed; its final `digest` (an accumulator
//! over every cycle's core results) is checked against the interpreter
//! running the unoptimized graph on the same stimulus, right after the
//! testbench and outside its timing.

use crate::trace::{Tracer, ROOT};
use crate::{
    compile_text, mix, reference_graph, stats, traced_round, CompiledStats, MetricSet, Outcome,
    Rounds, RunOpts, SetupSample,
};
use rteaal_core::Simulation;
use rteaal_designs::{small_boom, ChipConfig, Stimulus};
use rteaal_dfg::interp::Interpreter;
use std::time::Instant;

/// Design and testbench size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// SmallBOOM cores.
    pub cores: usize,
    /// Generator scale (1.0 = the paper's per-core op counts).
    pub scale: f64,
    /// Cycles per testbench.
    pub cycles: u64,
}

/// The benchmark's size: compiling takes a few tenths of a second and
/// the kernel's OIM data (~0.8 MB) is past L1 but inside L2.
pub const FULL: Params = Params {
    cores: 8,
    scale: 0.1,
    cycles: 400,
};

/// Test size.
pub const SMALL: Params = Params {
    cores: 1,
    scale: 0.03,
    cycles: 24,
};

/// The FIRRTL text of the workload's design.
fn design_text(p: Params) -> String {
    rteaal_firrtl::parser::emit(&small_boom(ChipConfig::new(p.cores).with_scale(p.scale)))
}

/// Set-up samples per run.
const SETUP_SAMPLES: usize = 7;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn stimulus(seed: u64, testbench: u64) -> Stimulus {
    Stimulus::from_seed(mix(seed ^ mix(testbench)))
}

pub(crate) fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = if opts.small { SMALL } else { FULL };
    let text = design_text(p);

    let mut samples = Vec::new();
    let mut built = None;
    for _ in 0..opts.setup_repeats(SETUP_SAMPLES) {
        // One engine alive at a time: the previous sample's goes before
        // the next compile, so the run's peak heap is one sample's.
        drop(built.take());
        let mut s = SetupSample::default();
        let t0 = Instant::now();
        let compiled = compile_text(&text, opts.trace, &mut s)?;
        let counts = CompiledStats::of(&compiled);
        let t1 = Instant::now();
        let sim = Simulation::new(compiled);
        s.engine_s = t1.elapsed().as_secs_f64();
        s.total_s = t0.elapsed().as_secs_f64();
        samples.push(s);
        built = Some((sim, counts));
    }
    let (mut sim, counts) = built.expect("at least one set-up sample");
    let graph = reference_graph(&text)?;
    let golden = Interpreter::new(&graph);

    let mut tracer = Tracer::new(false);
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, Vec::new());

    // Warm-up: one untimed, unchecked testbench.
    let mut warm = stimulus(opts.seed, u64::MAX);
    for _ in 0..p.cycles {
        sim.poke("stim", warm.next_value()).map_err(err)?;
        sim.step();
    }

    let mut rounds = Rounds::new(opts);
    while let Some(tb) = rounds.next() {
        sim.kernel_mut().reset();
        let mut stim = stimulus(opts.seed, tb);
        let traced = traced_round(opts, tb);
        tracer.set_on(traced);
        tracer.set_trace(tb);
        let t0 = Instant::now();
        let root = tracer.open(ROOT);
        for _ in 0..p.cycles {
            let v = stim.next_value();
            tracer
                .span("core.poke", || sim.poke("stim", v))
                .map_err(err)?;
            tracer.span("kernels.step", || sim.step());
        }
        tracer.close(root);
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            &mut traced_walls
        } else {
            &mut walls
        }
        .push(wall);
        rounds.timed(wall);
        attempted += 1;

        // Check, outside the timed part.
        let mut reference = golden.clone();
        let mut stim = stimulus(opts.seed, tb);
        for _ in 0..p.cycles {
            reference.set_input_by_name("stim", stim.next_value());
            reference.step();
        }
        let want = reference
            .output_by_name("digest")
            .map(|v| opts.expect(tb, v));
        if want != sim.peek("digest") {
            failed.push(tb);
        }
    }

    let mut m = MetricSet::new();
    m.setup(&samples, &counts);
    let timed: f64 = walls.iter().sum();
    let testbenches = walls.len() as f64;
    m.set("lane_cycles_per_s", testbenches * p.cycles as f64 / timed);
    m.set("jobs_per_s", testbenches / timed);
    m.set("job_latency_p50_ms", stats::median(&walls) * 1e3);
    if opts.trace {
        let step = tracer.mean_self("kernels.step");
        m.set("kernels.step_us", step * 1e6);
        m.set("core.poke_ns", tracer.mean_self("core.poke") * 1e9);
        m.set("kernels.ns_per_op", step * 1e9 / counts.ops as f64);
        m.trace_summary(&tracer, &traced_walls, &walls);
        crate::write_trace(&tracer, opts)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.finish(opts.trace),
    })
}
