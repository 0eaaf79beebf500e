//! `plan-paper`: cold plans of the Fig. 12 cells.
//!
//! One op builds a fresh simulator and plans SHA(512, 4, 4096) on the
//! synthetic ResNet-50 (batch 2048, 12 s/iter) with the RubberBand
//! policy, for one (deadline, init latency) cell: 8 deadlines from 90 to
//! 160 min × init latencies of 1, 10 and 100 s. The op list plans every
//! cell under each of five Monte-Carlo seeds drawn from the workload
//! seed (the first of them fixed; see `op_seeds`). Simulator and planner
//! do almost all the work.

use crate::common::{op_seeds, pct, Outcome, Workload};
use crate::trace::Tracer;
use rb_bench::common::{fig_cloud, synthetic_rn50};
use rb_core::SimDuration;
use rb_hpo::{ExperimentSpec, ShaParams};
use rb_planner::{plan_with_policy, PlannerConfig, Policy};
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::{SimConfig, Simulator};
use std::time::Duration;

const DEADLINES_MIN: [u64; 8] = [90, 100, 110, 120, 130, 140, 150, 160];
const INIT_SECS: [f64; 3] = [1.0, 10.0, 100.0];
const MC_SEEDS: usize = 5;

pub struct PlanPaper {
    spec: ExperimentSpec,
    model: ModelProfile,
    /// (deadline, cloud with that cell's init latency, Monte-Carlo
    /// seed).
    cells: Vec<(SimDuration, CloudProfile, u64)>,
    lookups: u64,
    plan_hits: u64,
    memo_hits: u64,
    memo_lookups: u64,
}

impl PlanPaper {
    pub fn new(seed: u64) -> Result<Self, String> {
        let spec = ShaParams::new(512, 4, 4096)
            .generate()
            .map_err(|e| e.to_string())?;
        let mut cells = Vec::new();
        for mc_seed in op_seeds(seed, 0x91A4_F12C, MC_SEEDS) {
            for &m in &DEADLINES_MIN {
                for &init in &INIT_SECS {
                    cells.push((SimDuration::from_mins(m), fig_cloud(init), mc_seed));
                }
            }
        }
        Ok(PlanPaper {
            spec,
            model: synthetic_rn50(2048, 12.0, 1.0),
            cells,
            lookups: 0,
            plan_hits: 0,
            memo_hits: 0,
            memo_lookups: 0,
        })
    }

    /// A fresh simulator with the Monte-Carlo settings of the Fig. 12
    /// reproduction (10 samples, 1 s sync overhead) and `mc_seed`.
    fn simulator(&self, cloud: &CloudProfile, mc_seed: u64) -> Simulator {
        Simulator::new(self.model.clone(), cloud.clone()).with_config(SimConfig {
            samples: 10,
            seed: mc_seed,
            sync_overhead_secs: 1.0,
        })
    }
}

impl Workload for PlanPaper {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn unit(&self) -> &'static str {
        "plans"
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(Duration, Outcome), String> {
        let (deadline, cloud, mc_seed) = self.cells[i].clone();
        let ((sim, planned), elapsed) = tr.timed_op(|tr| {
            let sim = tr.span("sim.build", || self.simulator(&cloud, mc_seed));
            let planned = tr.span("planner.plan", || {
                plan_with_policy(
                    Policy::RubberBand,
                    &sim,
                    &self.spec,
                    deadline,
                    &PlannerConfig::default(),
                )
            });
            (sim, planned)
        });
        let outcome = planned.map_err(|e| format!("plan failed: {e}"))?;
        let p = outcome.prediction;
        if !p.feasible(deadline) {
            return Err(format!("plan misses its deadline: {} > {deadline}", p.jct));
        }
        if tr.is_on() {
            let stats = sim.cache_stats();
            self.lookups += stats.plan.hits + stats.plan.misses;
            self.plan_hits += stats.plan.hits;
            self.memo_hits += stats.stage_memo.hits;
            self.memo_lookups += stats.stage_memo.hits + stats.stage_memo.misses;
            // Separate predictions of the selected plan: on a fresh
            // simulator, then again on the same one.
            let fresh = tr.span("sim.build", || self.simulator(&cloud, mc_seed));
            let cold = tr.span("sim.predict_cold", || {
                fresh.predict(&self.spec, &outcome.plan)
            });
            let warm = tr.span("sim.predict_warm", || {
                fresh.predict(&self.spec, &outcome.plan)
            });
            match (cold, warm) {
                (Ok(c), Ok(w)) if c == w && c == p => {}
                _ => return Err("re-predicting the selected plan disagrees".into()),
            }
        }
        Ok((
            elapsed,
            Outcome {
                cost_usd: p.cost.as_dollars(),
                jcts_s: vec![p.jct.as_secs_f64()],
                met: usize::from(p.jct <= deadline),
                total: 1,
            },
        ))
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let ops = tr.traced_ops().max(1) as f64;
        vec![
            (
                "planner.plan_ms_p50".into(),
                tr.p("planner.plan", 0.5),
                "ms",
            ),
            (
                "planner.plan_ms_p90".into(),
                tr.p("planner.plan", 0.9),
                "ms",
            ),
            ("sim.build_ms".into(), tr.p("sim.build", 0.5), "ms"),
            (
                "sim.predictions_per_op".into(),
                self.lookups as f64 / ops,
                "count",
            ),
            (
                "sim.plan_cache_hit_pct".into(),
                pct(self.plan_hits as f64, self.lookups as f64),
                "%",
            ),
            (
                "sim.stage_memo_hit_pct".into(),
                pct(self.memo_hits as f64, self.memo_lookups as f64),
                "%",
            ),
            (
                "sim.predict_cold_ms".into(),
                tr.p("sim.predict_cold", 0.5),
                "ms",
            ),
            (
                "sim.predict_warm_ms".into(),
                tr.p("sim.predict_warm", 0.5),
                "ms",
            ),
        ]
    }
}
