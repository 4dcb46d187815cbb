//! Check liveness: on every workload a clean run reports no failed
//! testbench, and flipping one bit of one testbench's expected value
//! makes the run report exactly that testbench as failed.

use perfbench::{run, RunOpts, WORKLOADS};

/// A test-size run of exactly three rounds (a 0-second run).
fn small(corrupt: Option<u64>) -> RunOpts {
    RunOpts {
        corrupt,
        small: true,
        ..RunOpts::new(7, 0.0)
    }
}

/// A testbench of round 1 that every workload checks at test size.
fn victim(workload: &str) -> u64 {
    match workload {
        // One testbench per round.
        "sim-boom" => 1,
        // Round 1, lane 2 of 4 (every lane is checked at test size).
        "batch-rocket" => 4 + 2,
        // Round 1 (8 wave jobs + 4 one-at-a-time jobs per round), wave
        // job 5.
        "serve-rv32i" => 12 + 5,
        other => panic!("no victim for {other}"),
    }
}

#[test]
fn clean_runs_report_no_failures() {
    for w in WORKLOADS {
        let out = run(w, &small(None)).unwrap();
        assert!(out.attempted > 0, "{w} attempted nothing");
        assert!(out.failed.is_empty(), "{w} failed {:?}", out.failed);
    }
}

#[test]
fn a_corrupted_expectation_fails_exactly_its_testbench() {
    for w in WORKLOADS {
        let id = victim(w);
        let out = run(w, &small(Some(id))).unwrap();
        assert_eq!(out.failed, vec![id], "{w}");
    }
}

#[test]
fn a_corrupted_one_at_a_time_job_fails_too() {
    // The first one-at-a-time job of round 0 comes right after the wave.
    let out = run("serve-rv32i", &small(Some(8))).unwrap();
    assert_eq!(out.failed, vec![8]);
}

#[test]
fn runs_report_every_catalog_metric() {
    for w in WORKLOADS {
        let plain = run(w, &small(None)).unwrap();
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = perfbench::END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| *n != "peak_heap_mb")
            .collect();
        assert_eq!(names, want, "{w}");
        let traced = run(
            w,
            &RunOpts {
                trace: true,
                ..small(None)
            },
        )
        .unwrap();
        assert_eq!(traced.metrics.len(), perfbench::PER_LAYER.len(), "{w}");
        assert!(traced.failed.is_empty(), "{w}");
        assert!(traced.metric("trace.unattributed_share").unwrap() >= 0.0);
    }
}
