//! Tests of the benchmark itself, at toy sizes.

use dnacomp_perfbench::inputs::{Scale, Workload};
use dnacomp_perfbench::report::{result_json, END_TO_END, PER_LAYER};
use dnacomp_perfbench::trace::{by_request, check_well_formed};
use dnacomp_perfbench::{run, RunConfig, RunResult};

const OPS: u64 = 24;

fn toy_ops(workload: Workload, seed: u64, trace: bool, ops: u64) -> RunResult {
    let result = run(&RunConfig {
        workload,
        seed,
        seconds: 60.0,
        ops: Some(ops),
        trace,
        scale: Scale::TOY,
    })
    .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()));
    assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
    result
}

fn toy(workload: Workload, seed: u64, trace: bool) -> RunResult {
    toy_ops(workload, seed, trace, OPS)
}

#[test]
fn completed_plus_failed_equals_attempted() {
    for workload in Workload::ALL {
        let r = toy(workload, 7, false);
        let completed: u64 = r
            .notes
            .iter()
            .filter_map(|n| n.strip_prefix("phase ops "))
            .map(|n| n.split_whitespace().nth(2).unwrap().parse::<u64>().unwrap())
            .sum();
        let read_back: u64 = r
            .notes
            .iter()
            .filter_map(|n| n.strip_prefix("read_back_checked "))
            .map(|n| n.parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            completed + read_back + r.failed,
            r.attempted,
            "{}",
            workload.name()
        );
        assert_eq!(r.attempted, OPS + read_back, "{}", workload.name());
        assert_eq!(r.failed, 0, "{}: {:?}", workload.name(), r.notes);
    }
}

#[test]
fn spans_are_well_formed() {
    for workload in Workload::ALL {
        let r = toy(workload, 11, true);
        assert!(!r.spans.is_empty(), "{}", workload.name());
        check_well_formed(&r.spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let requests = by_request(&r.spans);
        assert_eq!(
            requests.len() as u64,
            OPS,
            "{}: one traced request per op",
            workload.name()
        );
        for group in requests.values() {
            let root = group.iter().find(|s| s.parent.is_none()).unwrap();
            assert!(root.name.starts_with("front."), "{}", root.name);
            // Every layer is timed on every op, the router included on
            // the workload whose front door has none.
            for layer in [
                "net.shard_rpc",
                "router.rpc",
                "store.get",
                "algos.decompress",
            ] {
                assert!(
                    group.iter().any(|s| s.name == layer),
                    "{}: no {layer}",
                    workload.name()
                );
            }
        }
    }
}

/// Every `"name": "<metric>"` entry of `BENCHMARK.json` with its unit,
/// in file order.
fn declared_metrics() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    text.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                let start = l.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                l[start..start + l[start..].find('"').unwrap()].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared_metrics(), expected);
}

#[test]
fn every_named_metric_is_reported_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            // Enough fetch ops for the 10 % writes to support a median.
            let ops = if workload == Workload::FetchZipfMixed {
                10 * OPS
            } else {
                OPS
            };
            let r = toy_ops(workload, 13, trace, ops);
            let line = result_json(r.correct, r.attempted, r.failed, table, &r.values);
            for (name, unit) in table {
                let x = r
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("{} trace {trace}: {name} missing", workload.name()));
                assert!(x.is_finite(), "{name} = {x}");
                assert!(
                    line.contains(&format!(
                        "\"{name}\":{{\"value\":{x:?},\"unit\":\"{unit}\"}}"
                    )),
                    "{name} not in {line}"
                );
            }
        }
    }
}

#[test]
fn named_counts_repeat_exactly_for_a_seed() {
    let counts = [
        (false, "bits_per_base"),
        (true, "router.shard_jobs_per_put"),
        (true, "frame.blocks_per_op"),
        (true, "algos.share.GenCompress"),
        (true, "algos.share.DNAX"),
    ];
    for workload in Workload::ALL {
        for trace in [false, true] {
            let a = toy(workload, 17, trace);
            let b = toy(workload, 17, trace);
            for (_, name) in counts.iter().filter(|(t, _)| *t == trace) {
                assert_eq!(a.values[name], b.values[name], "{} {name}", workload.name());
            }
        }
    }
}

#[test]
fn each_workload_reaches_its_mechanism() {
    let small = toy(Workload::IngestSmallR3, 19, true);
    assert_eq!(small.values["router.shard_jobs_per_put"], 3.0);
    let bulk = toy(Workload::IngestBulkFramed, 19, true);
    assert!(bulk.values["frame.blocks_per_op"] > 1.0);
    assert_eq!(bulk.values["router.forwards_per_op"], 0.0);
    let fetch = toy(Workload::FetchZipfMixed, 19, true);
    assert!(fetch.values["store.get_p50_ms"] > 0.0);
    assert!(fetch.values["algos.decompress_p50_ms"] > 0.0);
    // The preload outgrows the block cache: some reads hit, some miss.
    let hit_rate = fetch.values["store.cache_hit_rate"];
    assert!(
        hit_rate > 0.0 && hit_rate < 1.0,
        "store.cache_hit_rate {hit_rate}: {:?}",
        fetch.notes
    );
}
