//! `adapt-drift`: adaptive runs of the Table 2 job under hidden drift.
//!
//! SHA(32, 1, 50, η=3) on ResNet-101/CIFAR-10 is planned once, in
//! set-up, under a 30 min deadline from the profiled model. One op runs
//! `execute_adaptive` with a per-op seed while the ground truth is 1.5×
//! slower than the model and spot capacity is interrupted once per
//! instance-hour: the controller re-plans residual stages, partly warm,
//! and the executor absorbs preemptions.
//!
//! The check re-runs the op through the benchmark's own
//! `ExecutorCore::new/step/finish` loop with a timing `BarrierHook`
//! around the controller and requires the identical report and
//! adaptation log. In a traced run that loop supplies the executor-step
//! and controller spans.

use crate::common::{op_seeds, pct, Outcome, Workload};
use crate::trace::{CounterTally, Tracer};
use rb_bench::adapt::slowed_physics;
use rb_bench::tables::{e2e_cloud, profiled_model, search_space};
use rb_core::{Prng, SimDuration};
use rb_ctrl::{AdaptationLog, AdaptiveController, ControllerConfig};
use rb_exec::{
    BarrierHook, BarrierSnapshot, ExecOptions, ExecutionReport, Executor, ExecutorCore,
    SwitchDirective, WatchdogSnapshot,
};
use rb_hpo::{ExperimentSpec, SearchSpace, ShaParams};
use rb_obs::RecorderHandle;
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::{AllocationPlan, Simulator};
use rb_train::TaskModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPS: usize = 1024;

/// Forwards every hook call to the controller and times the two that do
/// controller work: barrier handling and watchdog handling.
struct TimedHook<'a> {
    inner: &'a mut AdaptiveController,
    calls: Vec<(&'static str, Instant, Instant)>,
}

impl BarrierHook for TimedHook<'_> {
    fn at_barrier(&mut self, snapshot: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
        let t0 = Instant::now();
        let out = self.inner.at_barrier(snapshot);
        self.calls.push(("ctrl.barrier", t0, Instant::now()));
        out
    }

    fn stage_budget_secs(&mut self, stage: usize) -> Option<f64> {
        self.inner.stage_budget_secs(stage)
    }

    fn at_watchdog(&mut self, snapshot: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
        let t0 = Instant::now();
        let out = self.inner.at_watchdog(snapshot);
        self.calls.push(("ctrl.watchdog", t0, Instant::now()));
        out
    }

    fn pending_switch(&mut self) -> Option<SwitchDirective> {
        self.inner.pending_switch()
    }
}

#[derive(Default)]
struct Counts {
    replans: u64,
    applied: u64,
    instances: u64,
    preemptions: u64,
    migrations: u64,
    /// Planner and controller counters of every traced op.
    tally: Arc<CounterTally>,
}

pub struct AdaptDrift {
    task: TaskModel,
    spec: ExperimentSpec,
    plan: AllocationPlan,
    model: ModelProfile,
    physics: ModelProfile,
    cloud: CloudProfile,
    space: SearchSpace,
    deadline: SimDuration,
    config: ControllerConfig,
    seeds: Vec<u64>,
    counts: Counts,
}

impl AdaptDrift {
    pub fn new(seed: u64) -> Result<Self, String> {
        let task = rb_train::task::resnet101_cifar10();
        let spec = ShaParams::new(32, 1, 50)
            .with_eta(3)
            .generate()
            .map_err(|e| e.to_string())?;
        let model = profiled_model(&task, 1024, 4, 32);
        let deadline = SimDuration::from_mins(30);
        let planning = Simulator::new(model.clone(), e2e_cloud());
        let plan = plan_rubberband(&planning, &spec, deadline, &PlannerConfig::default())
            .map_err(|e| format!("set-up plan: {e}"))?
            .plan;
        let mut cloud = e2e_cloud().with_spot_interruptions(1.0);
        cloud.pricing = cloud.pricing.with_spot();
        Ok(AdaptDrift {
            physics: slowed_physics(&task, 1024, 4, 1.5),
            task,
            spec,
            plan,
            model,
            cloud,
            space: search_space(),
            deadline,
            config: ControllerConfig::default(),
            seeds: op_seeds(seed, 0xAD_A971, OPS),
            counts: Counts::default(),
        })
    }

    fn options(&self, i: usize) -> ExecOptions {
        ExecOptions {
            seed: self.seeds[i],
            ..ExecOptions::default()
        }
    }

    /// The op again, driven step by step by the benchmark itself.
    fn stepped(
        &mut self,
        i: usize,
        tr: &mut Tracer,
    ) -> Result<(ExecutionReport, AdaptationLog), String> {
        let e = |e: rb_core::RbError| e.to_string();
        let mut sim = tr.span("sim.build", || {
            Simulator::new(self.model.clone(), self.cloud.clone())
        });
        if tr.is_on() {
            // The controller rebuilds its simulator after a profile
            // refit, so the simulator's own cache counters do not cover
            // the op; the planner's counters reach the shared tally.
            sim = sim.with_recorder(RecorderHandle::new(self.counts.tally.clone()));
        }
        let mut controller = tr
            .span("ctrl.new", || {
                AdaptiveController::new(
                    sim,
                    self.spec.clone(),
                    &self.plan,
                    self.deadline,
                    self.config.clone(),
                )
            })
            .map_err(e)?;
        // The same config sampling as `rubberband::execute_adaptive`.
        let mut rng = Prng::seed_from_u64(self.seeds[i] ^ 0x005A_3CE0_u64);
        let configs = self
            .space
            .sample_n(self.spec.initial_trials() as usize, &mut rng);
        let options = self.options(i);
        let mut core = tr
            .span("exec.build", || {
                Executor::new(
                    self.spec.clone(),
                    self.plan.clone(),
                    self.task.clone(),
                    self.physics.clone(),
                    self.cloud.clone(),
                )
                .map(|x| x.with_options(options))
                .and_then(|x| ExecutorCore::new(&x, &configs, RecorderHandle::noop()))
            })
            .map_err(e)?;
        let mut hook = TimedHook {
            inner: &mut controller,
            calls: Vec::new(),
        };
        while !core.is_finished() {
            let h = tr.begin("exec.step");
            let now = core.now();
            let stepped = core.step(now, &mut hook);
            for (name, t0, t1) in hook.calls.drain(..) {
                tr.record(name, t0, t1);
            }
            tr.end(h);
            stepped.map_err(e)?;
        }
        let report = tr.span("exec.finish", || core.finish()).map_err(e)?;
        Ok((report, controller.into_log()))
    }
}

impl Workload for AdaptDrift {
    fn ops(&self) -> usize {
        self.seeds.len()
    }

    fn unit(&self) -> &'static str {
        "adaptive runs"
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(Duration, Outcome), String> {
        let options = self.options(i);
        let (run, elapsed) = tr.timed_op(|_| {
            rubberband::execute_adaptive(
                &self.spec,
                &self.plan,
                &self.task,
                &self.physics,
                &self.model,
                &self.cloud,
                &self.space,
                self.deadline,
                options,
                &self.config,
            )
        });
        let run = run.map_err(|e| format!("execute_adaptive: {e}"))?;
        let report = &run.report;
        if report.stages.len() != self.spec.num_stages() {
            return Err(format!(
                "{} stages executed, spec has {}",
                report.stages.len(),
                self.spec.num_stages()
            ));
        }
        let (stepped, log) = self.stepped(i, tr)?;
        if format!("{stepped:?}") != format!("{report:?}")
            || format!("{log:?}") != format!("{:?}", run.adaptation)
        {
            return Err("ExecutorCore stepping differs from execute_adaptive".into());
        }
        if tr.is_on() {
            let c = &mut self.counts;
            c.replans += log.events.len() as u64;
            c.applied += log.applied() as u64;
            c.instances += report.instances_provisioned as u64;
            c.preemptions += u64::from(report.preemptions);
            c.migrations += u64::from(report.migrations);
        }
        Ok((
            elapsed,
            Outcome {
                cost_usd: report.total_cost().as_dollars(),
                jcts_s: vec![report.jct.as_secs_f64()],
                met: usize::from(run.deadline_met()),
                total: 1,
            },
        ))
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let ops = tr.traced_ops().max(1) as f64;
        let c = &self.counts;
        vec![
            ("sim.build_ms".into(), tr.p("sim.build", 0.5), "ms"),
            (
                "planner.candidates_per_op".into(),
                c.tally.get("planner", "candidates_generated") as f64 / ops,
                "count",
            ),
            (
                "planner.residual_replans_per_op".into(),
                c.tally.get("planner", "residual_replans") as f64 / ops,
                "count",
            ),
            (
                "ctrl.refits_per_op".into(),
                c.tally.get("ctrl", "refits_applied") as f64 / ops,
                "count",
            ),
            ("exec.step_ms_p50".into(), tr.p("exec.step", 0.5), "ms"),
            ("exec.step_ms_p90".into(), tr.p("exec.step", 0.9), "ms"),
            (
                "exec.step_self_ms_per_op".into(),
                tr.self_per_op("exec.step"),
                "ms",
            ),
            ("ctrl.new_ms".into(), tr.p("ctrl.new", 0.5), "ms"),
            (
                "ctrl.barrier_ms_p50".into(),
                tr.p("ctrl.barrier", 0.5),
                "ms",
            ),
            (
                "ctrl.barrier_ms_p90".into(),
                tr.p("ctrl.barrier", 0.9),
                "ms",
            ),
            (
                "ctrl.watchdog_ms_p90".into(),
                tr.p("ctrl.watchdog", 0.9),
                "ms",
            ),
            (
                "ctrl.replans_per_op".into(),
                c.replans as f64 / ops,
                "count",
            ),
            (
                "ctrl.replan_applied_pct".into(),
                pct(c.applied as f64, c.replans as f64),
                "%",
            ),
            (
                "cloud.instances_per_op".into(),
                c.instances as f64 / ops,
                "count",
            ),
            (
                "cloud.preemptions_per_op".into(),
                c.preemptions as f64 / ops,
                "count",
            ),
            (
                "placement.migrations_per_op".into(),
                c.migrations as f64 / ops,
                "count",
            ),
        ]
    }
}
