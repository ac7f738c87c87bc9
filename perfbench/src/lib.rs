//! # dnacomp-perfbench — one benchmark for the write, bulk and read paths
//!
//! Starts the real system in-process on loopback, drives one of three
//! closed-loop workloads from one process, checks every reply, and
//! reports end-to-end metrics (tracing off) or per-layer metrics (a
//! separate traced run that times the benchmark's own direct calls into
//! each layer). See `perfbench/README.md` for the metric glossary and
//! the reasons behind each workload.

pub mod drive;
pub mod inputs;
pub mod report;
pub mod system;
pub mod trace;

use drive::{read_back, run_phase, Kind, Phase, Stop};
use inputs::{Plan, Scale, Workload};
use report::{
    end_to_end, interquartile_mean, latencies_ms, per_layer, percentile, Counters, EndToEndInputs,
    LayerInputs, Values,
};
use std::time::{Duration, Instant};
use system::{preload, timed_start, Layers, System, WorkDir};
use trace::Span;

/// Set-ups per run; `setup_s` is the mean of their middle half.
const SETUP_REPEATS: usize = 32;
/// Acknowledged ingest puts read back through the front door after the
/// timed window.
const READ_BACK_SAMPLE: usize = 6;

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed window, s (the traced run adds an untraced half-window).
    pub seconds: f64,
    /// Run exactly this many ops per phase instead of timing a window;
    /// the counts then repeat exactly for a seed.
    pub ops: Option<u64>,
    /// Trace the layers instead of reporting end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What a run reports.
pub struct RunResult {
    /// No reply was wrong.
    pub correct: bool,
    /// Ops attempted, read-back checks included.
    pub attempted: u64,
    /// Ops that failed, were refused or mismatched.
    pub failed: u64,
    /// Every metric computed.
    pub values: Values,
    /// Spans of the traced phase (empty untraced).
    pub spans: Vec<Span>,
    /// Human-readable context: sizes, sample counts, first errors.
    pub notes: Vec<String>,
}

fn dominant(phase: &Phase) -> Kind {
    let gets = phase.records.iter().filter(|r| r.kind == Kind::Get).count();
    if 2 * gets > phase.records.len() {
        Kind::Get
    } else {
        Kind::Put
    }
}

/// Run one workload end to end: generate inputs, set up (timed, several
/// times), preload (untimed), drive the closed loop, check, tear down.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let plan = Plan::new(cfg.workload, cfg.scale, cfg.seed);
    let work = WorkDir::create()?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut system: Option<System> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = system.take() {
            previous.stop()?;
        }
        let dir = work.path().join(format!("setup{k}"));
        // Arrivals spread evenly over one accept-poll interval.
        let arrival = (k as f64 + 0.5) / SETUP_REPEATS as f64;
        let (started, secs) = timed_start(cfg.workload, &cfg.scale, &dir, arrival)?;
        setups.push(secs);
        system = Some(started);
    }
    let system = system.expect("at least one set-up");
    let layers = match cfg.trace {
        true => Some(Layers::start(
            cfg.workload,
            &cfg.scale,
            &work.path().join("layers"),
        )?),
        false => None,
    };
    let mut stores = system.stores();
    if let Some(layers) = &layers {
        stores.extend(layers.read_stores());
    }
    let preloaded = preload(&plan, &stores)?;

    // Set-up and preload are not the workload: its peak RSS counts from
    // here.
    let mut notes = vec![format!(
        "peak_rss_after_preload_mb {:.2}",
        report::peak_rss_mb()
    )];
    if let Err(e) = report::reset_peak_rss() {
        notes.push(format!(
            "warning {e}; peak_rss_mb includes set-up and preload"
        ));
    }
    notes.extend([
        format!("peak_rss_after_reset_mb {:.2}", report::peak_rss_mb()),
        format!(
            "setup_samples_s {:?}",
            setups
                .iter()
                .map(|s| (s * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ),
    ]);
    if preloaded > 0 {
        let c = Counters::of(&system);
        notes.push(format!(
            "preload {} sequences, {} bases, {} stored bytes per shard, {} runs per shard, cache {} bytes",
            plan.preload.len(),
            preloaded,
            c.live_bytes / system.shards.len() as u64,
            c.runs / system.shards.len() as u64,
            cfg.scale.cache_bytes
        ));
    }

    let stop = |secs: f64| Stop {
        deadline: cfg
            .ops
            .is_none()
            .then(|| Instant::now() + Duration::from_secs_f64(secs)),
        ops: cfg.ops,
    };
    let epoch = Instant::now();
    let mut phases = Vec::new();
    let mut values;
    let mut spans = Vec::new();
    let mut read_back_checked = 0;
    let mut read_back_failures = Vec::new();
    match &layers {
        None => {
            let cpu_before = report::cpu_seconds();
            let phase = run_phase(&plan, system.front, 0, stop(cfg.seconds), None, epoch);
            let cpu_s = report::cpu_seconds() - cpu_before;
            let acked: u64 = phase.records.iter().filter(|r| r.ok).map(|r| r.bases).sum();
            values = end_to_end(
                &phase,
                &EndToEndInputs {
                    setup_s: interquartile_mean(&setups),
                    cpu_s,
                    disk_bytes: Counters::of(&system).bytes_on_disk,
                    stored_bases: preloaded + acked,
                },
            );
            if cfg.workload != Workload::FetchZipfMixed {
                (read_back_checked, read_back_failures) =
                    read_back(&plan, system.front, &phase.records, READ_BACK_SAMPLE);
            }
            phases.push(phase);
        }
        Some(layers) => {
            let warm = run_phase(&plan, system.front, 0, stop(cfg.seconds / 2.0), None, epoch);
            let before = Counters::of(&system);
            let mut traced = run_phase(
                &plan,
                system.front,
                warm.next_op,
                stop(cfg.seconds),
                Some(layers),
                epoch,
            );
            let counters = Counters::of(&system).since(before);
            values = per_layer(&LayerInputs {
                phase: &traced,
                counters,
                layers,
                untraced_p50_ms: percentile(&latencies_ms(&warm, dominant(&warm)), 0.5),
            });
            spans = std::mem::take(&mut traced.spans);
            phases.push(warm);
            phases.push(traced);
        }
    }

    let mut attempted = read_back_checked;
    let mut failed = read_back_failures.len() as u64;
    let mut mismatches = read_back_failures.len() as u64;
    for phase in &phases {
        let ok = phase.records.iter().filter(|r| r.ok).count() as u64;
        attempted += phase.records.len() as u64;
        failed += phase.records.len() as u64 - ok;
        mismatches += phase.mismatches;
        notes.push(format!(
            "phase ops {} ok {} wall_s {:.3}",
            phase.records.len(),
            ok,
            phase.wall_s
        ));
        notes.extend(phase.errors.iter().map(|e| format!("error {e}")));
    }
    notes.extend(read_back_failures.iter().map(|e| format!("error {e}")));
    if read_back_checked > 0 {
        notes.push(format!("read_back_checked {read_back_checked}"));
    }
    values.insert(
        "error_rate",
        if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        },
    );

    if let Some(layers) = layers {
        layers.stop()?;
    }
    system.stop()?;
    Ok(RunResult {
        correct: mismatches == 0,
        attempted,
        failed,
        values,
        spans,
        notes,
    })
}
