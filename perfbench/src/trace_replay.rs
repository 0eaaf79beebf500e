//! `trace-replay`: record, export and replay one run.
//!
//! The Table 2 plan (planned in set-up as in `adapt-drift`) runs through
//! `execute_observed` on spot capacity interrupted once per
//! instance-hour, under a fault plan with capacity denials, stragglers,
//! hardware failures, degraded nodes and checkpoint corruption, with
//! provisioning retries on and two checkpoints kept. One op records the
//! run, exports the trace as JSONL and replays the JSONL into a report,
//! which must equal the live one. It is the only workload with
//! recording on, and it covers both the writing and the reading side of
//! the recorder and the replayer.

use crate::common::{op_seeds, Outcome, Workload};
use crate::trace::Tracer;
use rb_bench::tables::{e2e_cloud, physics_for, profiled_model, search_space};
use rb_cloud::{FaultPlan, ZonePlan};
use rb_core::SimDuration;
use rb_exec::{ExecOptions, RetryPolicy};
use rb_hpo::{ExperimentSpec, SearchSpace, ShaParams};
use rb_obs::{export, schema};
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::{AllocationPlan, Simulator};
use rb_train::TaskModel;
use std::time::Duration;

const OPS: usize = 2048;

#[derive(Default)]
struct Counts {
    events: u64,
    jsonl_bytes: u64,
    faults: u64,
    instances: u64,
    preemptions: u64,
    migrations: u64,
}

pub struct TraceReplay {
    task: TaskModel,
    spec: ExperimentSpec,
    plan: AllocationPlan,
    physics: ModelProfile,
    cloud: CloudProfile,
    space: SearchSpace,
    deadline: SimDuration,
    seeds: Vec<u64>,
    counts: Counts,
}

impl TraceReplay {
    pub fn new(seed: u64) -> Result<Self, String> {
        let task = rb_train::task::resnet101_cifar10();
        let spec = ShaParams::new(32, 1, 50)
            .with_eta(3)
            .generate()
            .map_err(|e| e.to_string())?;
        let model = profiled_model(&task, 1024, 4, 32);
        let deadline = SimDuration::from_mins(30);
        let planning = Simulator::new(model, e2e_cloud());
        let plan = plan_rubberband(&planning, &spec, deadline, &PlannerConfig::default())
            .map_err(|e| format!("set-up plan: {e}"))?
            .plan;
        let mut cloud = e2e_cloud().with_spot_interruptions(1.0);
        cloud.pricing = cloud.pricing.with_spot();
        Ok(TraceReplay {
            physics: physics_for(&task, 1024, 4),
            task,
            spec,
            plan,
            cloud,
            space: search_space(),
            deadline,
            seeds: op_seeds(seed, 0x7ACE_2E91, OPS),
            counts: Counts::default(),
        })
    }

    fn options(&self, i: usize) -> ExecOptions {
        ExecOptions {
            seed: self.seeds[i],
            faults: FaultPlan {
                capacity_failure_prob: 0.1,
                straggler_prob: 0.1,
                straggler_factor: 3.0,
                hw_failure_rate_per_hour: 0.5,
                degraded_prob: 0.1,
                degraded_factor: 1.5,
                checkpoint_corruption_prob: 0.1,
                zones: ZonePlan::none(),
            },
            // Enough retries that no seeded denial streak exhausts them:
            // every op must complete.
            retry: Some(RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            }),
            checkpoint_retention: 2,
            ..ExecOptions::default()
        }
    }
}

impl Workload for TraceReplay {
    fn ops(&self) -> usize {
        self.seeds.len()
    }

    fn unit(&self) -> &'static str {
        "traces"
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(Duration, Outcome), String> {
        let options = self.options(i);
        let (result, elapsed) = tr.timed_op(|tr| {
            let live = tr
                .span("obs.record", || {
                    rubberband::execute_observed(
                        &self.spec,
                        &self.plan,
                        &self.task,
                        &self.physics,
                        &self.cloud,
                        &self.space,
                        options.clone(),
                    )
                })
                .map_err(|e| format!("execute_observed: {e}"))?;
            let jsonl = tr.span("obs.export", || export::export_jsonl(&live.log));
            let replayed = tr
                .span("replay.replay", || rb_replay::replay_jsonl(&jsonl))
                .map_err(|e| format!("replay: {e}"))?;
            Ok::<_, String>((live, jsonl, replayed))
        });
        let (live, jsonl, replayed) = result?;
        if format!("{:?}", replayed.report) != format!("{:?}", live.report)
            || replayed.summary.render() != live.summary.render()
        {
            return Err("replayed report differs from the live run".into());
        }
        if tr.is_on() {
            tr.span("obs.validate", || schema::validate_jsonl(&jsonl))
                .map_err(|e| format!("schema: {e}"))?;
            // The same run with recording off, for the recording overhead;
            // recording must not change it.
            let plain = tr
                .span("exec.run", || {
                    rubberband::execute_with(
                        &self.spec,
                        &self.plan,
                        &self.task,
                        &self.physics,
                        &self.cloud,
                        &self.space,
                        options,
                    )
                })
                .map_err(|e| format!("execute_with: {e}"))?;
            if format!("{plain:?}") != format!("{:?}", live.report) {
                return Err("recording changed the execution".into());
            }
            let c = &mut self.counts;
            c.events += live.log.events.len() as u64;
            c.jsonl_bytes += jsonl.len() as u64;
            c.faults += live.report.faults_injected;
            c.instances += live.report.instances_provisioned as u64;
            c.preemptions += u64::from(live.report.preemptions);
            c.migrations += u64::from(live.report.migrations);
        }
        let report = &replayed.report;
        Ok((
            elapsed,
            Outcome {
                cost_usd: report.total_cost().as_dollars(),
                jcts_s: vec![report.jct.as_secs_f64()],
                met: usize::from(report.jct <= self.deadline),
                total: 1,
            },
        ))
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let ops = tr.traced_ops().max(1) as f64;
        let c = &self.counts;
        let replay_ms = tr.per_op("replay.replay");
        let validate_ms = tr.per_op("obs.validate");
        vec![
            ("obs.record_ms".into(), tr.per_op("obs.record"), "ms"),
            (
                "obs.record_overhead_ms".into(),
                tr.per_op("obs.record") - tr.per_op("exec.run"),
                "ms",
            ),
            ("obs.export_ms".into(), tr.per_op("obs.export"), "ms"),
            ("obs.validate_ms".into(), validate_ms, "ms"),
            ("replay.replay_ms".into(), replay_ms, "ms"),
            ("replay.self_ms".into(), replay_ms - validate_ms, "ms"),
            ("obs.events_per_op".into(), c.events as f64 / ops, "count"),
            (
                "obs.jsonl_kb_per_op".into(),
                c.jsonl_bytes as f64 / 1024.0 / ops,
                "KB",
            ),
            ("exec.faults_per_op".into(), c.faults as f64 / ops, "count"),
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
