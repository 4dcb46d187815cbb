//! Reference figures quoted in the README: numbers about designs and
//! engines that are not on any workload's hot path, measured once by
//! hand (`perfbench --reference`), not by the benchmark runs.

use perfbench::{batch_rocket, serve_rv32i, sim_boom, stats};
use rteaal_baselines::{EssentLike, VerilatorLike};
use rteaal_core::{BatchSimulation, Compiled, Compiler, Partitioning, Simulation};
use rteaal_designs::{rocket, small_boom, ChipConfig, Stimulus, Workload};
use rteaal_dfg::interp::Interpreter;
use rteaal_kernels::{KernelConfig, KernelKind, OptLevel, ALL_KERNELS};
use rteaal_sched::Job;
use rteaal_serve::{ServeClient, ServeConfig, ServerPool, SocketServer};
use std::time::Instant;

fn compile(circuit: &rteaal_firrtl::Circuit, kind: KernelKind) -> Compiled {
    Compiler::new(KernelConfig::new(kind))
        .compile(circuit)
        .expect("reference designs compile")
}

/// Cycles per second of `step` over `cycles` cycles of fresh stimulus.
fn rate(cycles: u64, mut step: impl FnMut(u64)) -> f64 {
    let mut stim = Stimulus::from_seed(42);
    let t0 = Instant::now();
    for _ in 0..cycles {
        step(stim.next_value());
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

pub fn print() {
    println!(
        "host: {} CPUs",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    kernels_and_baselines();
    interpreter_vs_psu();
    code_bytes_across_sizes();
    batch_threads_and_repcut();
    l2_edge();
    serve_engine_cycles_and_tail();
}

/// All seven kernels and both baselines on the sim-boom design.
fn kernels_and_baselines() {
    let p = sim_boom::FULL;
    let circuit = small_boom(ChipConfig::new(p.cores).with_scale(p.scale));
    println!(
        "\n## sim-boom design ({} cores, scale {}), 300 cycles each",
        p.cores, p.scale
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "engine", "compile_s", "cycles/s", "code_bytes"
    );
    for kind in ALL_KERNELS {
        let t0 = Instant::now();
        let compiled = compile(&circuit, kind);
        let compile_s = t0.elapsed().as_secs_f64();
        let code = compiled.kernel_report().code_bytes;
        let mut sim = Simulation::new(compiled);
        let r = rate(300, |v| {
            sim.poke("stim", v).expect("stim input");
            sim.step();
        });
        println!(
            "{:<14} {compile_s:>12.3} {r:>12.0} {code:>12}",
            kind.label()
        );
    }
    let ast = rteaal_firrtl::parser::parse(&rteaal_firrtl::parser::emit(&circuit)).expect("parses");
    let graph = rteaal_dfg::build(&rteaal_firrtl::lower::lower_typed(&ast).expect("lowers"))
        .expect("builds");
    let stim = graph
        .inputs
        .iter()
        .position(|&id| graph.node(id).name.as_deref() == Some("stim"))
        .expect("stim input");
    let t0 = Instant::now();
    let mut v = VerilatorLike::compile(&graph, OptLevel::Full);
    let compile_s = t0.elapsed().as_secs_f64();
    let r = rate(300, |x| {
        v.set_input(stim, x);
        v.step();
    });
    println!(
        "{:<14} {compile_s:>12.3} {r:>12.0} {:>12}",
        "VerilatorLike",
        v.compile_report().code_bytes
    );
    let t0 = Instant::now();
    let mut e = EssentLike::compile(&graph, OptLevel::Full);
    let compile_s = t0.elapsed().as_secs_f64();
    let r = rate(300, |x| {
        e.set_input(stim, x);
        e.step();
    });
    println!(
        "{:<14} {compile_s:>12.3} {r:>12.0} {:>12}",
        "EssentLike",
        e.compile_report().code_bytes
    );
}

/// The graph interpreter against the PSU kernel on SmallBOOM-4.
fn interpreter_vs_psu() {
    let circuit = small_boom(ChipConfig::new(4));
    let mut sim = Simulation::new(compile(&circuit, KernelKind::Psu));
    let psu = rate(1000, |v| {
        sim.poke("stim", v).expect("stim input");
        sim.step();
    });
    let graph = rteaal_dfg::build(&rteaal_firrtl::lower::lower_typed(&circuit).expect("lowers"))
        .expect("builds");
    let mut interp = Interpreter::new(&graph);
    let golden = rate(1000, |v| {
        interp.set_input_by_name("stim", v);
        interp.step();
    });
    println!("\n## SmallBOOM-4 at scale 0.03, 1000 cycles");
    println!(
        "Interpreter {golden:.0} cycles/s, PSU {psu:.0} cycles/s, same digest: {}",
        interp.output_by_name("digest") == sim.peek("digest")
    );
}

/// The PSU kernel's code footprint across design sizes.
fn code_bytes_across_sizes() {
    println!("\n## PSU code and data bytes across design sizes");
    println!(
        "{:<22} {:>8} {:>11} {:>11}",
        "design", "ops", "code_bytes", "data_bytes"
    );
    let sizes: [(&str, usize, f64); 7] = [
        ("rocket", 1, 0.03),
        ("rocket", 4, 0.03),
        ("rocket", 8, 0.03),
        ("small_boom", 1, 0.03),
        ("small_boom", 4, 0.03),
        ("small_boom", 8, 0.03),
        ("small_boom", 8, 0.1),
    ];
    for (name, cores, scale) in sizes {
        let cfg = ChipConfig::new(cores).with_scale(scale);
        let circuit = if name == "rocket" {
            rocket(cfg)
        } else {
            small_boom(cfg)
        };
        let c = compile(&circuit, KernelKind::Psu);
        let k = c.kernel_report();
        println!(
            "{:<22} {:>8} {:>11} {:>11}",
            format!("{name}-{cores} @{scale}"),
            c.plan_stats().effectual_ops,
            k.code_bytes,
            k.data_bytes
        );
    }
}

/// Median lane-cycles/s of `reps` 64-lane rounds on `sim`.
fn batch_rate(sim: &mut BatchSimulation, cycles: u64, reps: usize) -> Vec<f64> {
    let stim = sim.input_index("stim").expect("stim input");
    let lanes = sim.lanes();
    (0..reps)
        .map(|r| {
            let mut streams: Vec<Stimulus> = (0..lanes)
                .map(|l| Stimulus::from_seed((r * lanes + l) as u64))
                .collect();
            sim.reset();
            let t0 = Instant::now();
            sim.run_with_stimulus(cycles, |_, poker| {
                for (lane, s) in streams.iter_mut().enumerate() {
                    poker.set_input(stim, lane, s.next_value());
                }
            });
            (lanes as u64 * cycles) as f64 / t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// One engine thread against two, and RepCut P=2, on batch-rocket.
fn batch_threads_and_repcut() {
    let p = batch_rocket::FULL;
    let c = compile(&batch_rocket::design(p).circuit, KernelKind::Psu);
    println!(
        "\n## batch-rocket design, {} lanes x {} cycles, median of 15 rounds",
        p.lanes, p.cycles
    );
    let variants: [(&str, Partitioning, usize); 3] = [
        ("1 thread", Partitioning::None, 1),
        ("2 threads", Partitioning::None, 2),
        ("RepCut P=2, 2 threads", Partitioning::Fixed(2), 2),
    ];
    for (label, parts, threads) in variants {
        let mut sim = BatchSimulation::new_with(&c, p.lanes, parts).with_threads(threads);
        let r = stats::median(&batch_rate(&mut sim, p.cycles, 15));
        println!("{label:<24} {r:>12.0} lane-cycles/s");
    }
}

/// RocketChip-4 (state ~0.8 MB) against RocketChip-8 (~1.6 MB, the L2
/// edge): spread of one-round rates.
fn l2_edge() {
    println!("\n## 64-lane state against L2: one-round rates over 20 rounds of 256 cycles");
    for cores in [4, 8] {
        let c = compile(&Workload::rocket(cores).circuit, KernelKind::Psu);
        let mut sim = BatchSimulation::new(&c, 64);
        let rates = batch_rate(&mut sim, 256, 20);
        let [q1, med, q3] = stats::quartiles(&rates);
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0, f64::max);
        println!(
            "RocketChip-{cores}: state {} KB, min {min:.0} q1 {q1:.0} median {med:.0} q3 {q3:.0} max {max:.0} lane-cycles/s",
            c.plan_stats().slots * 64 * 8 / 1024
        );
    }
}

/// Engine cycles per corpus pass under a windowed closed loop against
/// the wave phase, and the one-at-a-time latency tail.
fn serve_engine_cycles_and_tail() {
    let p = serve_rv32i::FULL;
    let c = compile(&Workload::param_sum_circuit(), KernelKind::Psu);
    let config = ServeConfig {
        workers: 1,
        lanes: p.lanes,
        ..ServeConfig::default()
    };
    let pool = ServerPool::new(&c, config, "halt").expect("halt output");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .and_then(SocketServer::spawn)
        .expect("loopback listener");
    let mut client = ServeClient::connect(addr).expect("connects");
    let ks = Workload::corpus_params(p.corpus, 1);
    let job = |k: u64| {
        Job::new(format!("sum-{k}"), Workload::param_sum_budget(k)).with_state_poke("x15", k)
    };
    let cycles = |client: &mut ServeClient| client.stats().expect("stats").cycles;

    // Fixed-window closed loop with `lanes` jobs outstanding: a new job
    // only after a result comes back, for one second per window.
    let mut windows = Vec::new();
    for _ in 0..8 {
        let c0 = cycles(&mut client);
        let mut next = ks.iter().cycle();
        for &k in next.by_ref().take(p.lanes) {
            client.submit(&job(k)).expect("submit");
        }
        let (t0, mut done) = (Instant::now(), 0);
        while t0.elapsed().as_secs_f64() < 1.0 {
            client.next_result().expect("result");
            done += 1;
            let &k = next.next().expect("cycled corpus");
            client.submit(&job(k)).expect("submit");
        }
        for _ in 0..p.lanes {
            client.next_result().expect("result");
        }
        windows.push(((cycles(&mut client) - c0) as f64, done as f64));
    }
    // The benchmark's wave phase.
    let mut waves = Vec::new();
    for _ in 0..8 {
        let c0 = cycles(&mut client);
        for wave in ks.chunks(p.wave) {
            let ids: Vec<u64> = wave
                .iter()
                .map(|&k| client.submit(&job(k)).expect("submit"))
                .collect();
            for id in ids {
                client.result(id).expect("result");
            }
        }
        waves.push((cycles(&mut client) - c0) as f64);
    }
    let span = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0, f64::max);
        format!(
            "min {min:.0} max {max:.0} ({:.1}% of min)",
            (max - min) / min * 100.0
        )
    };
    println!("\n## serve-rv32i: 8 fixed windows against 8 wave-phase passes");
    let window_cycles: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let window_jobs: Vec<f64> = windows.iter().map(|w| w.1).collect();
    println!(
        "1-s closed-loop windows, {} outstanding: engine cycles {}; jobs {}",
        p.lanes,
        span(&window_cycles),
        span(&window_jobs)
    );
    println!(
        "wave phase, {} jobs in waves of {}: engine cycles {}",
        ks.len(),
        p.wave,
        span(&waves)
    );

    let mut lat: Vec<f64> = Vec::new();
    let long: Vec<u64> = ks.iter().copied().filter(|&k| k >= 24).collect();
    for i in 0..2000 {
        let t0 = Instant::now();
        let id = client.submit(&job(long[i % long.len()])).expect("submit");
        client.result(id).expect("result");
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    lat.sort_by(f64::total_cmp);
    let at = |q: f64| lat[((lat.len() as f64 * q).ceil() as usize).saturating_sub(1)];
    println!(
        "one-at-a-time latency over {} jobs: p50 {:.3} ms, p99 {:.3} ms ({} samples above p99)",
        lat.len(),
        at(0.5),
        at(0.99),
        lat.len() - (lat.len() as f64 * 0.99).ceil() as usize
    );
}
