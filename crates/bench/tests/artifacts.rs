//! Every checked-in `BENCH_*.json` deserialises into the report type
//! that writes it today. A report field added without a serde default
//! fails here until its artifact is regenerated. No benchmark runs.

use dnacomp_bench::{
    AlgoBenchReport, BenchSection, NetBenchReport, RouteBenchReport, StoreBenchReport,
};
use serde::de::DeserializeOwned;

fn parse<T: DeserializeOwned>(name: &str, json: &str) -> T {
    serde_json::from_str(json)
        .unwrap_or_else(|e| panic!("{name} no longer matches its report type: {e}"))
}

#[test]
fn checked_in_artifacts_match_their_report_types() {
    let algos: AlgoBenchReport = parse(
        "BENCH_algos.json",
        include_str!("../../../BENCH_algos.json"),
    );
    assert!(!algos.algorithms.is_empty());
    let serve: Vec<BenchSection> = parse(
        "BENCH_serve.json",
        include_str!("../../../BENCH_serve.json"),
    );
    assert!(!serve.is_empty());
    let net: NetBenchReport = parse("BENCH_net.json", include_str!("../../../BENCH_net.json"));
    assert!(net.host_cpus > 0);
    for (name, json) in [
        (
            "BENCH_route.json",
            include_str!("../../../BENCH_route.json"),
        ),
        (
            "BENCH_route_replicated.json",
            include_str!("../../../BENCH_route_replicated.json"),
        ),
    ] {
        let route: RouteBenchReport = parse(name, json);
        assert!(!route.rows.is_empty(), "{name}");
    }
    let store: StoreBenchReport = parse(
        "BENCH_store.json",
        include_str!("../../../BENCH_store.json"),
    );
    assert!(!store.open_sweep.is_empty());

    // A new artifact needs a line above.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut found: Vec<String> = std::fs::read_dir(root)
        .expect("repository root")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    found.sort();
    assert_eq!(
        found,
        [
            "BENCH_algos.json",
            "BENCH_net.json",
            "BENCH_route.json",
            "BENCH_route_replicated.json",
            "BENCH_serve.json",
            "BENCH_store.json"
        ]
    );
}
