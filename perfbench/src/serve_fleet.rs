//! `serve-fleet`: one tuning service run of 1024 jobs.
//!
//! The jobs take the contended shape of the ext-serve sweep: an
//! 8/4/2/1-trial ladder with 1/2/4/8 iterations per rung on a
//! downscaling 16/8/4/4-GPU plan, so instances released at a barrier
//! are parked and adopted by other jobs. Four tenants with weights 1 to
//! 4 submit round-robin at seeded exponential gaps (mean 120 s); eight
//! jobs run at once, pool-aware admission is on, and the queue is deep
//! enough that nothing is rejected. The op list holds 100 such batches;
//! a batch's arrivals, seeds and configurations are generated from the
//! workload seed before its op starts. One op builds the 1024 job
//! requests and runs them through one `TuningService::run`. Executor, cloud pool,
//! placement and service do the work; simulator, planner, controller and
//! recorder do none.

use crate::common::{op_seeds, pct, Outcome, Workload};
use crate::trace::Tracer;
use rb_bench::tables::physics_for;
use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::{CloudPricing, PoolConfig};
use rb_core::{Cost, Distribution, Prng, SimDuration, SimTime};
use rb_exec::{ExecOptions, Executor, ExecutorCore, NoopHook};
use rb_hpo::{Config, Dim, ExperimentSpec, SearchSpace};
use rb_obs::RecorderHandle;
use rb_profile::{CloudProfile, ModelProfile};
use rb_serve::{JobRequest, ServeOptions, TenantSpec, TuningService};
use rb_sim::AllocationPlan;
use rb_train::TaskModel;
use std::time::Duration;

const BATCHES: usize = 100;
const JOBS: usize = 1024;
const MEAN_GAP_SECS: f64 = 120.0;
/// Jobs per batch whose alone-run steps get a span: a sample that keeps
/// the span file of a traced run to a few MB.
const STEP_SPAN_JOBS: usize = 64;
/// Arrival-to-finish limit of every job, in virtual seconds (15 min).
const JOB_SLO_SECS: f64 = 900.0;

struct JobInput {
    arrival: SimTime,
    tenant: usize,
    seed: u64,
    configs: Vec<Config>,
}

#[derive(Default)]
struct Counts {
    offers: u64,
    handoffs: u64,
    pool_admits: u64,
    queue_wait_p90_s: f64,
    rejected: u64,
    instances: u64,
    migrations: u64,
}

pub struct ServeFleet {
    task: TaskModel,
    physics: ModelProfile,
    spec: ExperimentSpec,
    plan: AllocationPlan,
    cloud: CloudProfile,
    tenants: Vec<TenantSpec>,
    options: ServeOptions,
    space: SearchSpace,
    /// Per batch: the seed of its arrivals, job seeds and configurations.
    batch_seeds: Vec<u64>,
    counts: Counts,
}

/// Paid ingress and a real provision + init cycle: the costs a pool
/// handoff avoids.
fn serve_cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE).with_data_price(Cost::from_dollars(0.02)))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
        .with_dataset_gb(100.0)
}

impl ServeFleet {
    pub fn new(seed: u64) -> Result<Self, String> {
        let task = rb_train::task::resnet101_cifar10();
        let spec = ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4), (1, 8)])
            .map_err(|e| e.to_string())?;
        let space = SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
            .build()
            .map_err(|e| e.to_string())?;
        let tenants = (0..4)
            .map(|t| TenantSpec::new(format!("tenant-{t}"), f64::from(t + 1)))
            .collect();
        Ok(ServeFleet {
            physics: physics_for(&task, 1024, 4),
            task,
            spec,
            plan: AllocationPlan::new(vec![16, 8, 4, 4]),
            cloud: serve_cloud(),
            tenants,
            options: ServeOptions {
                max_concurrent: 8,
                max_queue: JOBS,
                pool: Some(PoolConfig::default()),
                pool_admission: true,
            },
            space,
            batch_seeds: op_seeds(seed, 0x5E4F_1EE7, BATCHES),
            counts: Counts::default(),
        })
    }

    /// Batch `b` of the op list: arrivals, job seeds and configurations.
    fn batch(&self, b: usize) -> Vec<JobInput> {
        let gap = Distribution::Exponential {
            rate: 1.0 / MEAN_GAP_SECS,
        };
        let mut rng = Prng::seed_from_u64(self.batch_seeds[b]);
        let mut at = SimTime::ZERO;
        (0..JOBS)
            .map(|k| {
                let job_seed = rng.next_u64();
                let configs = self.space.sample_n(
                    self.spec.initial_trials() as usize,
                    &mut Prng::seed_from_u64(job_seed ^ 0xC0FFEE),
                );
                let job = JobInput {
                    arrival: at,
                    tenant: k % 4,
                    seed: job_seed,
                    configs,
                };
                at += SimDuration::from_secs_f64(gap.sample(&mut rng));
                job
            })
            .collect()
    }

    fn executor(&self, job: &JobInput) -> Result<Executor, String> {
        Executor::new(
            self.spec.clone(),
            self.plan.clone(),
            self.task.clone(),
            self.physics.clone(),
            self.cloud.clone(),
        )
        .map(|e| {
            e.with_options(ExecOptions {
                seed: job.seed,
                ..ExecOptions::default()
            })
        })
        .map_err(|e| e.to_string())
    }

    /// The same jobs run alone, one after another, without the service
    /// or the pool, stepped by the benchmark.
    fn run_alone(&self, batch: &[JobInput], tr: &mut Tracer) -> Result<(), String> {
        let executors = batch
            .iter()
            .map(|j| self.executor(j))
            .collect::<Result<Vec<_>, _>>()?;
        let h = tr.begin("exec.alone");
        for (k, (exec, job)) in executors.iter().zip(batch).enumerate() {
            let mut core = ExecutorCore::new(exec, &job.configs, RecorderHandle::noop())
                .map_err(|e| e.to_string())?;
            while !core.is_finished() {
                let now = core.now();
                let step = if k < STEP_SPAN_JOBS {
                    tr.begin("exec.step")
                } else {
                    None
                };
                let stepped = core.step(now, &mut NoopHook);
                tr.end(step);
                stepped.map_err(|e| e.to_string())?;
            }
            core.finish().map_err(|e| e.to_string())?;
        }
        tr.end(h);
        Ok(())
    }
}

impl Workload for ServeFleet {
    fn ops(&self) -> usize {
        BATCHES
    }

    fn unit(&self) -> &'static str {
        "jobs"
    }

    fn units_per_op(&self) -> f64 {
        JOBS as f64
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(Duration, Outcome), String> {
        let batch = self.batch(i);
        let (report, elapsed) = tr.timed_op(|tr| {
            let jobs = tr.span("exec.build", || {
                batch
                    .iter()
                    .map(|j| {
                        let exec = self.executor(j)?;
                        Ok(JobRequest::new(
                            exec,
                            j.configs.clone(),
                            j.arrival,
                            j.tenant,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            tr.span("serve.run", || {
                TuningService::new(self.tenants.clone(), self.options.clone())
                    .and_then(|service| service.run(jobs))
                    .map_err(|e| e.to_string())
            })
        });
        let report = report?;
        if report.outcomes.len() + report.rejected.len() != batch.len() {
            return Err(format!(
                "{} jobs submitted, {} completed, {} rejected",
                batch.len(),
                report.outcomes.len(),
                report.rejected.len()
            ));
        }
        if !report.rejected.is_empty() {
            return Err(format!("{} jobs rejected", report.rejected.len()));
        }
        let pool = report.pool.as_ref().ok_or("pool statistics missing")?;
        if !pool.balances(0) {
            return Err(format!("pool ledger does not balance: {pool:?}"));
        }
        if tr.is_on() {
            self.run_alone(&batch, tr)?;
            let c = &mut self.counts;
            c.offers += pool.offers;
            c.handoffs += pool.handoffs;
            c.pool_admits += report.pool_admits;
            c.queue_wait_p90_s += report.queue_wait_p90().as_secs_f64();
            c.rejected += report.rejected.len() as u64;
            for o in &report.outcomes {
                c.instances += o.report.instances_provisioned as u64;
                c.migrations += u64::from(o.report.migrations);
            }
        }
        let jcts_s: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.finished.saturating_since(o.arrival).as_secs_f64())
            .collect();
        let met = jcts_s.iter().filter(|&&j| j <= JOB_SLO_SECS).count();
        Ok((
            elapsed,
            Outcome {
                cost_usd: report.billed_cost.as_dollars(),
                total: batch.len(),
                met,
                jcts_s,
            },
        ))
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let ops = tr.traced_ops().max(1) as f64;
        let jobs = ops * JOBS as f64;
        let c = &self.counts;
        let serve_ms = tr.per_op("serve.run");
        let alone_ms = tr.per_op("exec.alone");
        vec![
            (
                "exec.build_us_per_job".into(),
                tr.per_op("exec.build") * 1e3 / JOBS as f64,
                "us",
            ),
            ("serve.run_ms".into(), serve_ms, "ms"),
            ("exec.alone_ms".into(), alone_ms, "ms"),
            (
                "serve.overhead_pct".into(),
                pct(serve_ms - alone_ms, alone_ms),
                "%",
            ),
            ("exec.step_ms_p50".into(), tr.p("exec.step", 0.5), "ms"),
            ("exec.step_ms_p90".into(), tr.p("exec.step", 0.9), "ms"),
            (
                "cloud.pool_handoff_pct".into(),
                pct(c.handoffs as f64, c.offers as f64),
                "%",
            ),
            (
                "cloud.pool_handoffs_per_job".into(),
                c.handoffs as f64 / jobs,
                "count",
            ),
            (
                "serve.pool_admits_per_op".into(),
                c.pool_admits as f64 / ops,
                "count",
            ),
            (
                "serve.queue_wait_p90_s".into(),
                c.queue_wait_p90_s / ops,
                "sim_s",
            ),
            (
                "serve.rejected_pct".into(),
                pct(c.rejected as f64, jobs),
                "%",
            ),
            (
                "cloud.instances_per_op".into(),
                c.instances as f64 / ops,
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
