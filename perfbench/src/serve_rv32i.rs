//! `serve-rv32i`: the rv32i parameterized-sum corpus
//! (`Workload::corpus_params`) sent over loopback to a one-worker
//! `ServerPool` through one `ServeClient`. A round has two phases:
//!
//! - **Wave phase.** The client submits waves several times larger than
//!   the lane count and collects each wave in submission order. The
//!   lanes stay full, so the engine work is fixed; this phase gives the
//!   throughput metrics.
//! - **One-at-a-time phase.** The client submits one job, waits for its
//!   result, and repeats; this phase gives the latency. Its jobs are the
//!   corpus's long loop bounds, each once, in seeded order. The short and
//!   long halves of the corpus are far apart (k in 1..=8 against
//!   24..=63), so a median over both would fall in the gap between them
//!   and swing with timing noise; and a seeded draw of bounds would move
//!   the median with the seed, where a seeded order does not.
//!
//! A job passes when it completed within its budget, `a0` equals the sum
//! loop's closed form k(k+1)/2, and `pc_out` is at the halt instruction.

use crate::trace::{Tracer, ROOT};
use crate::{
    compile_text, mix, stats, traced_round, CompiledStats, MetricSet, Outcome, Rounds, RunOpts,
    SetupSample,
};
use rteaal_designs::Workload;
use rteaal_sched::Job;
use rteaal_serve::protocol::{WireResult, WireStats};
use rteaal_serve::{ServeClient, ServeConfig, ServerPool, SocketServer};
use rteaal_telemetry::{JobEvent, JobStage};
use std::time::Instant;

/// Pool and corpus size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Lanes of the one worker.
    pub lanes: usize,
    /// Jobs per round's wave phase.
    pub corpus: usize,
    /// Jobs per wave.
    pub wave: usize,
    /// Loop bounds of the one-at-a-time phase, each run once per round.
    pub solo: (u64, u64),
}

/// The benchmark's size: waves of four times the lane count.
pub const FULL: Params = Params {
    lanes: 8,
    corpus: 256,
    wave: 32,
    solo: (24, 63),
};

/// Test size.
pub const SMALL: Params = Params {
    lanes: 2,
    corpus: 8,
    wave: 4,
    solo: (24, 27),
};

/// Index of the param-sum program's halt instruction: its seventh
/// instruction is the self-jump `jal x0, 6` the `halt` output watches.
const HALT_PC: u64 = 6;

/// Set-up samples per run.
const SETUP_SAMPLES: usize = 15;

fn job(k: u64) -> Job {
    Job::new(format!("sum-{k}"), Workload::param_sum_budget(k))
        .with_state_poke("x15", k)
        .with_probe("a0")
        .with_probe("pc_out")
}

/// The one-at-a-time phase's loop bounds in seeded order.
fn solo_bounds(p: Params, seed: u64) -> Vec<u64> {
    let mut ks: Vec<u64> = (p.solo.0..=p.solo.1).collect();
    let mut r = mix(seed);
    for i in (1..ks.len()).rev() {
        r = mix(r);
        ks.swap(i, (r % (i as u64 + 1)) as usize);
    }
    ks
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub(crate) fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = if opts.small { SMALL } else { FULL };
    let text = rteaal_firrtl::parser::emit(&Workload::param_sum_circuit());
    let config = ServeConfig {
        workers: 1,
        lanes: p.lanes,
        ..ServeConfig::default()
    };

    // Each sample ends with a listening server and a client connected to
    // it (the kernel completes the connection before it is accepted). A
    // started accept loop cannot be stopped and keeps its pool alive, so
    // only the last sample's loop is started, after its timer; each
    // earlier sample's pool shuts down when its server drops, before the
    // next compile, so one pool is alive at a time.
    let mut samples = Vec::new();
    let mut built = None;
    for _ in 0..opts.setup_repeats(SETUP_SAMPLES) {
        drop(built.take());
        let mut s = SetupSample::default();
        let t0 = Instant::now();
        let compiled = compile_text(&text, opts.trace, &mut s)?;
        let t1 = Instant::now();
        let pool = ServerPool::new(&compiled, config, "halt").map_err(err)?;
        let server = SocketServer::bind(pool, "127.0.0.1:0").map_err(err)?;
        let client = server
            .local_addr()
            .map_err(err)
            .and_then(|addr| ServeClient::connect(addr).map_err(err))?;
        s.engine_s = t1.elapsed().as_secs_f64();
        s.total_s = t0.elapsed().as_secs_f64();
        samples.push(s);
        built = Some((server, client, CompiledStats::of(&compiled)));
    }
    let (server, mut client, counts) = built.expect("at least one set-up sample");
    server.spawn().map_err(err)?;

    let ks = Workload::corpus_params(p.corpus, opts.seed);
    let wave_jobs: Vec<(u64, Job)> = ks.iter().map(|&k| (k, job(k))).collect();
    let solo_jobs: Vec<(u64, Job)> = solo_bounds(p, opts.seed)
        .into_iter()
        .map(|k| (k, job(k)))
        .collect();
    let per_round = (wave_jobs.len() + solo_jobs.len()) as u64;

    let mut tracer = Tracer::new(false);
    // Totals, per-round figures and buffers reused across rounds, so the
    // heap the benchmark itself holds does not grow with the round count.
    // Untraced wave-phase totals: seconds, jobs, the jobs' own cycles.
    let (mut wave_total, mut wave_count, mut wave_cycles) = (0.0, 0u64, 0u64);
    let mut latency = Vec::new();
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut engine_cycles, mut utilization) = (Vec::new(), Vec::new());
    let mut turnarounds: Vec<(f64, Vec<JobEvent>)> = Vec::new();
    let mut served: Vec<(u64, u64, WireResult)> = Vec::with_capacity(per_round as usize);
    let mut solo_s: Vec<f64> = Vec::with_capacity(solo_jobs.len());
    let (mut attempted, mut failed) = (0, Vec::new());

    // Warm-up: one untimed, unchecked pass over the corpus.
    for wave in wave_jobs.chunks(p.wave) {
        let ids = wave
            .iter()
            .map(|(_, j)| client.submit(j))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        for id in ids {
            client.result(id).map_err(err)?;
        }
    }

    let mut rounds = Rounds::new(opts);
    while let Some(round) = rounds.next() {
        let traced = traced_round(opts, round);
        tracer.set_on(traced);
        let first = round * per_round;
        served.clear();
        solo_s.clear();
        let before: WireStats = client.stats().map_err(err)?;

        // Wave phase.
        let root = tracer.open(ROOT);
        let t0 = Instant::now();
        let mut lane_cycles = 0;
        for (w, wave) in wave_jobs.chunks(p.wave).enumerate() {
            let base = first + (w * p.wave) as u64;
            let mut ids = Vec::with_capacity(wave.len());
            for (i, (_, j)) in wave.iter().enumerate() {
                tracer.set_trace(base + i as u64);
                let id = tracer.span("serve.submit", || client.submit(j));
                ids.push(id.map_err(err)?);
            }
            for (i, id) in ids.into_iter().enumerate() {
                let result = tracer
                    .span("serve.collect", || client.result(id))
                    .map_err(err)?;
                lane_cycles += result.cycles;
                served.push((base + i as u64, wave[i].0, result));
            }
        }
        let wave_s = t0.elapsed().as_secs_f64();
        tracer.close(root);
        let after: WireStats = client.stats().map_err(err)?;
        let cycles = after.cycles - before.cycles;
        engine_cycles.push(cycles as f64);
        utilization.push(
            (after.busy_lane_cycles - before.busy_lane_cycles) as f64
                / (cycles as f64 * p.lanes as f64),
        );

        // One-at-a-time phase.
        let root = tracer.open(ROOT);
        let t1 = Instant::now();
        for (i, (k, j)) in solo_jobs.iter().enumerate() {
            let testbench = first + (wave_jobs.len() + i) as u64;
            let t = Instant::now();
            tracer.set_trace(testbench);
            let id = tracer
                .span("serve.submit", || client.submit(j))
                .map_err(err)?;
            let result = tracer
                .span("serve.result", || client.result(id))
                .map_err(err)?;
            let turnaround = t.elapsed().as_secs_f64();
            if traced {
                // Fetched right after the job, before the event ring wraps.
                let events = tracer
                    .span("serve.timeline", || client.timeline(result.id))
                    .map_err(err)?;
                turnarounds.push((turnaround, events));
            }
            solo_s.push(turnaround);
            served.push((testbench, *k, result));
        }
        tracer.close(root);
        let round_s = wave_s + t1.elapsed().as_secs_f64();
        rounds.timed(round_s);
        if traced {
            traced_walls.push(round_s);
        } else {
            walls.push(round_s);
            wave_total += wave_s;
            wave_count += wave_jobs.len() as u64;
            wave_cycles += lane_cycles;
            latency.push(stats::median(&solo_s));
        }

        // Checks, outside the timed phases.
        attempted += served.len() as u64;
        for (testbench, k, r) in &served {
            let want = opts.expect(*testbench, Workload::param_sum_expected(*k));
            let pass = r.completed()
                && r.cycles <= Workload::param_sum_budget(*k)
                && r.output("a0") == Some(want)
                && r.output("pc_out") == Some(HALT_PC);
            if !pass {
                failed.push(*testbench);
            }
        }
    }

    let mut m = MetricSet::new();
    m.setup(&samples, &counts);
    m.set("jobs_per_s", wave_count as f64 / wave_total);
    m.set("lane_cycles_per_s", wave_cycles as f64 / wave_total);
    m.set("job_latency_p50_ms", stats::median(&latency) * 1e3);
    if opts.trace {
        let us = |v: Vec<f64>| stats::median(&v) * 1e6;
        m.set("serve.submit_rtt_us", us(tracer.durations("serve.submit")));
        m.set("serve.result_wait_us", us(tracer.durations("serve.result")));
        m.set("sched.engine_cycles", stats::median(&engine_cycles));
        m.set("sched.lane_utilization", stats::median(&utilization));
        let stages = [
            ("serve.dispatch_us", JobStage::Submitted, JobStage::Queued),
            ("sched.queue_us", JobStage::Queued, JobStage::Admitted),
            ("sched.run_us", JobStage::Admitted, JobStage::Halted),
            ("serve.publish_us", JobStage::Halted, JobStage::Published),
            ("serve.deliver_us", JobStage::Published, JobStage::Delivered),
        ];
        for (name, from, to) in stages {
            let gaps: Vec<f64> = turnarounds
                .iter()
                .filter_map(|(_, ev)| gap_us(ev, from, to))
                .collect();
            m.set(name, stats::median(&gaps));
        }
        let wire: Vec<f64> = turnarounds
            .iter()
            .filter_map(|(t, ev)| {
                gap_us(ev, JobStage::Submitted, JobStage::Delivered).map(|g| t * 1e6 - g)
            })
            .collect();
        m.set("serve.wire_us", stats::median(&wire));
        m.trace_summary(&tracer, &traced_walls, &walls);
        crate::write_trace(&tracer, opts)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.finish(opts.trace),
    })
}

/// Microseconds between a job's `from` and `to` events, if both are on
/// its timeline.
fn gap_us(events: &[JobEvent], from: JobStage, to: JobStage) -> Option<f64> {
    let at = |stage| events.iter().find(|e| e.stage == stage).map(|e| e.at_us);
    Some(at(to)?.saturating_sub(at(from)?) as f64)
}
