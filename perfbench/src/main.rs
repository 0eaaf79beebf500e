//! `rb-perfbench` — the seeded performance benchmark of the RubberBand
//! workspace.
//!
//! ```text
//! rb-perfbench --workload <plan-paper|adapt-drift|serve-fleet|trace-replay>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one client: the next op starts
//! when the previous call returns. The op list — at least [`MIN_LIST`]
//! ops — is generated from `--seed`, and a run cycles through it until
//! `--seconds` have passed and every op has run at least once. Every
//! op's outputs are checked; an op whose call fails, whose check fails,
//! or which repeats its first outcome inexactly counts as failed.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it runs the same loop untraced for half the time and
//! traced for the other half, keeps the spans in memory, writes them to
//! `perfbench/out/` at the end and reports the per-layer metrics. The
//! last line of standard output is one JSON object.

mod adapt_drift;
mod common;
mod plan_paper;
mod probe;
mod serve_fleet;
mod trace;
mod trace_replay;

use common::{percentile, Outcome, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Ops every workload's list holds at least, so that a p90 over the
/// list has ten values above it.
const MIN_LIST: usize = 100;
/// Set-ups per end-to-end run: one at process start and one at each
/// further tenth of the run, so that they sample the run like the ops
/// do. `setup_s` is their median.
const SETUPS: u32 = 10;
/// A run stops measuring here even if the op list is not yet covered,
/// so that it ends well inside the 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

/// The metrics printed with `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cost_usd", "usd"),
    ("sim_p90_s", "sim_s"),
    ("sim_ontime_pct", "%"),
];

/// The metrics printed with `--trace 1`, in `BENCHMARK.json` order.
/// Per-layer times that only some workloads produce are printed in the
/// human-readable table above the JSON line instead.
const PER_LAYER: [(&str, &str); 21] = [
    ("core.par.user_cpu_ms_per_op", "ms"),
    ("core.par.sys_cpu_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("sim.predictions_per_op", "count"),
    ("sim.plan_cache_hit_pct", "%"),
    ("sim.stage_memo_hit_pct", "%"),
    ("planner.candidates_per_op", "count"),
    ("ctrl.replans_per_op", "count"),
    ("ctrl.replan_applied_pct", "%"),
    ("cloud.instances_per_op", "count"),
    ("cloud.preemptions_per_op", "count"),
    ("placement.migrations_per_op", "count"),
    ("cloud.pool_handoff_pct", "%"),
    ("cloud.pool_handoffs_per_job", "count"),
    ("serve.pool_admits_per_op", "count"),
    ("serve.queue_wait_p90_s", "sim_s"),
    ("serve.rejected_pct", "%"),
    ("serve.overhead_pct", "%"),
    ("exec.faults_per_op", "count"),
    ("obs.events_per_op", "count"),
    ("obs.jsonl_kb_per_op", "KB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "plan-paper" => Box::new(plan_paper::PlanPaper::new(seed)?),
        "adapt-drift" => Box::new(adapt_drift::AdaptDrift::new(seed)?),
        "serve-fleet" => Box::new(serve_fleet::ServeFleet::new(seed)?),
        "trace-replay" => Box::new(trace_replay::TraceReplay::new(seed)?),
        _ => {
            return Err(format!(
                "unknown workload {name} (plan-paper, adapt-drift, serve-fleet, trace-replay)"
            ))
        }
    })
}

/// Builds the workload and runs its untimed warm-up op (op 0).
fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut w = build(name, seed)?;
    w.run_op(0, &mut Tracer::off())
        .map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok(w)
}

fn set_up_failed(e: &str) -> ! {
    eprintln!("rb-perfbench: set-up failed: {e}");
    std::process::exit(1)
}

/// Op tallies, each op's fastest timed run, and the first outcome of
/// every op in the list.
struct Loop {
    created: Instant,
    cursor: usize,
    attempted: u64,
    failed: u64,
    /// Latency (ms) of every successful timed op, in run order.
    lat: Vec<f64>,
    /// Per op of the list: its fastest successful run, in ms.
    best: Vec<f64>,
    first: Vec<Option<Outcome>>,
    /// Ops of the list that have run at least once, failed or not.
    seen: Vec<bool>,
    covered: usize,
}

impl Loop {
    fn new(ops: usize) -> Self {
        Loop {
            created: Instant::now(),
            cursor: 0,
            attempted: 0,
            failed: 0,
            lat: Vec::new(),
            best: vec![f64::INFINITY; ops],
            first: vec![None; ops],
            seen: vec![false; ops],
            covered: 0,
        }
    }

    /// Runs ops until `budget` has passed and (when `cover`) every op of
    /// the list has run once, or until [`HARD_STOP`] after the loop was
    /// created.
    fn run(&mut self, w: &mut dyn Workload, tr: &mut Tracer, budget: Duration, cover: bool) {
        let start = Instant::now();
        loop {
            let done = start.elapsed() >= budget && (!cover || self.covered == self.first.len());
            if done || self.created.elapsed() >= HARD_STOP {
                return;
            }
            let i = self.cursor % self.first.len();
            self.cursor += 1;
            self.attempted += 1;
            if !self.seen[i] {
                self.seen[i] = true;
                self.covered += 1;
            }
            tr.next_op();
            match w.run_op(i, tr) {
                Ok((elapsed, outcome)) => match &self.first[i] {
                    Some(prev) if *prev != outcome => {
                        eprintln!("op {i}: outcome differs from its first run");
                        self.failed += 1;
                    }
                    prev => {
                        if prev.is_none() {
                            self.first[i] = Some(outcome);
                        }
                        let ms = elapsed.as_secs_f64() * 1e3;
                        self.lat.push(ms);
                        self.best[i] = self.best[i].min(ms);
                    }
                },
                Err(e) => {
                    eprintln!("op {i}: {e}");
                    self.failed += 1;
                }
            }
        }
    }

    /// Each op's fastest run, for the ops that succeeded at least once.
    fn bests(&self) -> Vec<f64> {
        self.best
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .collect()
    }

    /// Exact virtual-time outcomes over the first run of every op.
    fn exact(&self) -> (f64, f64, f64) {
        let mut cost = 0.0;
        let mut jcts = Vec::new();
        let (mut met, mut total) = (0usize, 0usize);
        for o in self.first.iter().flatten() {
            cost += o.cost_usd;
            jcts.extend_from_slice(&o.jcts_s);
            met += o.met;
            total += o.total;
        }
        let ontime = if total == 0 {
            0.0
        } else {
            100.0 * met as f64 / total as f64
        };
        (cost, percentile(&mut jcts, 0.9), ontime)
    }
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let mut s = String::from("{");
    for (k, (name, unit, value)) in values.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        // Non-finite values cannot be written as JSON numbers; they only
        // arise from a failed run, which is already marked incorrect.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut w = set_up(&args.workload, args.seed).unwrap_or_else(|e| set_up_failed(&e));
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let host_ref_start = probe::host_ref_ms();
    assert!(w.ops() >= MIN_LIST, "op list shorter than {MIN_LIST}");
    let budget = Duration::from_secs(args.seconds);
    let mut lp = Loop::new(w.ops());
    let mut tr = Tracer::off();
    // Median latency of the untraced and the traced half of a traced run.
    let mut halves = Vec::new();
    if args.trace {
        for on in [false, true] {
            if on {
                tr = Tracer::on();
            }
            let from = lp.lat.len();
            lp.run(w.as_mut(), &mut tr, budget / 2, !on);
            halves.push(percentile(&mut lp.lat[from..].to_vec(), 0.5));
        }
    } else {
        for k in 0..SETUPS {
            if k > 0 {
                let t0 = Instant::now();
                set_up(&args.workload, args.seed).unwrap_or_else(|e| set_up_failed(&e));
                setups.push(t0.elapsed().as_secs_f64());
            }
            lp.run(w.as_mut(), &mut tr, budget / SETUPS, k + 1 == SETUPS);
        }
    }
    let host_ref_end = probe::host_ref_ms();

    let complete = lp.covered == lp.first.len();
    let correct = lp.failed == 0 && complete && !lp.lat.is_empty();
    // Latency and throughput are taken over each op's fastest run: every
    // run of an op does the same work (its outcome must repeat exactly),
    // so its slower runs measure other load on the host, not the program.
    let mut bests = lp.bests();
    let best_total_s = bests.iter().sum::<f64>() / 1e3;
    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("host_ref_ms start {host_ref_start:.3} end {host_ref_end:.3}");
    println!(
        "ops {} timed, {} attempted, {} failed; op list {} ({}), {:.1} passes; \
         all timed ops p50 {:.4} ms",
        lp.lat.len(),
        lp.attempted,
        lp.failed,
        lp.first.len(),
        if complete { "covered" } else { "NOT covered" },
        lp.lat.len() as f64 / lp.first.len() as f64,
        percentile(&mut lp.lat.clone(), 0.5),
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = w.layer_metrics(&tr);
        layers.push((
            "trace.overhead_pct".into(),
            100.0 * (halves[1] / halves[0] - 1.0),
            "%",
        ));
        layers.extend(tr.cpu_per_op());
        println!(
            "per-layer ({} traced ops; untraced p50 {:.4} ms, traced p50 {:.4} ms):",
            tr.traced_ops(),
            halves[0],
            halves[1]
        );
        for (name, value, unit) in &layers {
            println!("  {name:<32} {value:>14.4} {unit}");
        }
        match tr.write_spans(&args.workload, args.seed) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("rb-perfbench: cannot write spans: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |(_, v, _)| *v);
                (name, unit, value)
            })
            .collect()
    } else {
        let (cost, jct_p90, ontime) = lp.exact();
        let values = [
            w.units_per_op() * bests.len() as f64 / best_total_s,
            percentile(&mut bests, 0.5),
            percentile(&mut bests, 0.9),
            percentile(&mut setups, 0.5),
            probe::peak_rss_mb(),
            cost,
            jct_p90,
            ontime,
        ];
        let metrics: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
        for (name, unit, value) in &metrics {
            let note = match *name {
                "throughput_per_s" => format!("{} per s", w.unit()),
                "op_ms_p50" | "op_ms_p90" => format!("over {} ops", bests.len()),
                _ => String::new(),
            };
            println!("  {name:<18} {value:>16.6} {unit:<6} {note}");
        }
        metrics
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        lp.attempted,
        lp.failed,
        json_metrics(&metrics)
    );
}
