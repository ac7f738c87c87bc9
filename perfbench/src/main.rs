//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]`
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `.perfbench/spans/<workload>-seed<n>.jsonl`. Exits 1 when a reply
//! was wrong or the run could not complete, 2 on bad arguments.

use dnacomp_perfbench::inputs::{Scale, Workload};
use dnacomp_perfbench::report::{result_json, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use dnacomp_perfbench::{run, trace, RunConfig};
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload <ingest-small-r3|ingest-bulk-framed|fetch-zipf-mixed> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ops = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--ops" => {
                let n = value
                    .parse::<u64>()
                    .map_err(|_| bad("expected an integer"))?;
                if n == 0 {
                    return Err(bad("expected at least 1"));
                }
                ops = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        ops,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match run(&cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# workload {} seed {} trace {} host_cpus {}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &result.notes {
        println!("# {note}");
    }
    let (table, extra) = if cfg.trace {
        (PER_LAYER, &[][..])
    } else {
        (END_TO_END, END_TO_END_EXTRA)
    };
    for (name, unit) in table.iter().chain(extra) {
        match result.values.get(name) {
            Some(v) => println!("{name} {v} {unit}"),
            None => println!("{name} - {unit} (fewer than ten samples beyond this percentile)"),
        }
    }
    if cfg.trace {
        let path = PathBuf::from(".perfbench").join("spans").join(format!(
            "{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match trace::write_jsonl(&path, &result.spans) {
            Ok(()) => println!(
                "# spans {} written to {}",
                result.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!(
        "{}",
        result_json(
            result.correct,
            result.attempted,
            result.failed,
            table,
            &result.values
        )
    );
    std::process::exit(if result.correct { 0 } else { 1 });
}
