//! The metric and workload catalog the binary prints matches the one
//! `BENCHMARK.json` declares.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

#[test]
fn every_metric_is_declared_with_its_unit() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(BENCHMARK.contains(&entry), "{name} ({unit}) not declared");
    }
    let declared = BENCHMARK.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_is_declared() {
    for w in WORKLOADS {
        assert!(BENCHMARK.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}
