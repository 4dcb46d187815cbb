//! `batch-rocket`: 64 lanes through `BatchSimulation` on a free-running
//! RocketChip-like 4-core, using the compiled lane kernels on one engine
//! thread. Every lane gets its own per-cycle stimulus stream
//! (`Workload::lane_stimulus`), so every cycle is active and every lane
//! differs. A testbench is one lane's run of `cycles` cycles from
//! power-on; one round runs all lanes at once and gives one latency
//! sample. A seeded sample of lanes per round is checked against the
//! interpreter on the unoptimized graph.

use crate::trace::{Tracer, ROOT};
use crate::{
    compile_text, mix, reference_graph, stats, traced_round, CompiledStats, MetricSet, Outcome,
    Rounds, RunOpts, SetupSample,
};
use rteaal_core::BatchSimulation;
use rteaal_designs::{Stimulus, Workload};
use rteaal_dfg::interp::Interpreter;
use rteaal_kernels::LanePoker;
use std::time::Instant;

/// Design and batch size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// RocketChip cores (bench-default scale).
    pub cores: usize,
    /// Stimulus lanes.
    pub lanes: usize,
    /// Cycles per testbench.
    pub cycles: u64,
    /// Lanes checked per round.
    pub checked_lanes: usize,
}

/// The benchmark's size: the 64-lane state (~0.8 MB) sits inside L2.
pub const FULL: Params = Params {
    cores: 4,
    lanes: 64,
    cycles: 256,
    checked_lanes: 2,
};

/// Test size: every lane checked.
pub const SMALL: Params = Params {
    cores: 1,
    lanes: 4,
    cycles: 16,
    checked_lanes: 4,
};

/// The workload's design.
pub fn design(p: Params) -> Workload {
    Workload::rocket(p.cores)
}

/// Set-up samples per run.
const SETUP_SAMPLES: usize = 15;

/// Stimulus stream of lane `lane` in round `round`.
fn stream(w: &Workload, seed: u64, p: Params, round: u64, lane: usize) -> Stimulus {
    let testbench = round * p.lanes as u64 + lane as u64;
    w.lane_stimulus(mix(seed ^ mix(testbench)) as usize)
}

/// The lanes checked in `round`: a seeded sample without repeats.
fn checked(seed: u64, p: Params, round: u64) -> Vec<usize> {
    let mut lanes: Vec<usize> = (0..p.lanes).collect();
    let mut r = mix(seed ^ round.rotate_left(32));
    for i in 0..p.checked_lanes.min(p.lanes) {
        r = mix(r);
        let j = i + (r % (p.lanes - i) as u64) as usize;
        lanes.swap(i, j);
    }
    lanes.truncate(p.checked_lanes.min(p.lanes));
    lanes
}

pub(crate) fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = if opts.small { SMALL } else { FULL };
    let w = design(p);
    let text = rteaal_firrtl::parser::emit(&w.circuit);

    let mut samples = Vec::new();
    let mut built = None;
    for _ in 0..opts.setup_repeats(SETUP_SAMPLES) {
        // One engine alive at a time: the previous sample's goes before
        // the next compile, so the run's peak heap is one sample's.
        drop(built.take());
        let mut s = SetupSample::default();
        let t0 = Instant::now();
        let compiled = compile_text(&text, opts.trace, &mut s)?;
        let t1 = Instant::now();
        let sim = BatchSimulation::new(&compiled, p.lanes);
        s.engine_s = t1.elapsed().as_secs_f64();
        s.total_s = t0.elapsed().as_secs_f64();
        samples.push(s);
        built = Some((sim, CompiledStats::of(&compiled)));
    }
    let (mut sim, counts) = built.expect("at least one set-up sample");
    let stim = sim
        .input_index("stim")
        .ok_or("design has no `stim` input")?;
    let graph = reference_graph(&text)?;
    let golden = Interpreter::new(&graph);

    let mut tracer = Tracer::new(false);
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, Vec::new());
    let drive = |streams: &mut [Stimulus], poker: &mut LanePoker<'_>| {
        for (lane, st) in streams.iter_mut().enumerate() {
            poker.set_input(stim, lane, st.next_value());
        }
    };

    // Warm-up: one untimed, unchecked round.
    let mut streams: Vec<Stimulus> = (0..p.lanes)
        .map(|l| stream(&w, !opts.seed, p, 0, l))
        .collect();
    sim.run_with_stimulus(p.cycles, |_, poker| drive(&mut streams, poker));

    let mut rounds = Rounds::new(opts);
    while let Some(round) = rounds.next() {
        sim.reset();
        let mut streams: Vec<Stimulus> = (0..p.lanes)
            .map(|l| stream(&w, opts.seed, p, round, l))
            .collect();
        let traced = traced_round(opts, round);
        tracer.set_on(traced);
        tracer.set_trace(round);
        let t0 = Instant::now();
        let root = tracer.open(ROOT);
        let run = tracer.open("kernels.batch_run");
        sim.run_with_stimulus(p.cycles, |_, poker| {
            let s = tracer.open("core.stimulus");
            drive(&mut streams, poker);
            tracer.close(s);
        });
        tracer.close(run);
        tracer.close(root);
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            &mut traced_walls
        } else {
            &mut walls
        }
        .push(wall);
        rounds.timed(wall);
        attempted += p.lanes as u64;

        // Checks of the sampled lanes, outside the timed part.
        for lane in checked(opts.seed, p, round) {
            let tb = round * p.lanes as u64 + lane as u64;
            let mut reference = golden.clone();
            let mut st = stream(&w, opts.seed, p, round, lane);
            for _ in 0..p.cycles {
                reference.set_input_by_name("stim", st.next_value());
                reference.step();
            }
            let want = reference
                .output_by_name("digest")
                .map(|v| opts.expect(tb, v));
            if want != sim.peek("digest", lane) {
                failed.push(tb);
            }
        }
    }

    let mut m = MetricSet::new();
    m.setup(&samples, &counts);
    let timed: f64 = walls.iter().sum();
    let rounds = walls.len() as f64;
    m.set(
        "lane_cycles_per_s",
        rounds * (p.lanes as u64 * p.cycles) as f64 / timed,
    );
    m.set("jobs_per_s", rounds * p.lanes as f64 / timed);
    m.set("job_latency_p50_ms", stats::median(&walls) * 1e3);
    if opts.trace {
        let cycles = (traced_walls.len() as u64 * p.cycles) as f64;
        let step = tracer.total_self("kernels.batch_run") / cycles;
        m.set("kernels.batch_step_us", step * 1e6);
        m.set("core.stimulus_us", tracer.mean_self("core.stimulus") * 1e6);
        m.set(
            "kernels.ns_per_lane_op",
            step * 1e9 / (counts.ops * p.lanes) as f64,
        );
        m.trace_summary(&tracer, &traced_walls, &walls);
        crate::write_trace(&tracer, opts)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.finish(opts.trace),
    })
}
