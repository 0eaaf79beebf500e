//! What every workload provides, and the statistics the harness shares.

use crate::trace::Tracer;
use std::time::Duration;

/// The exact virtual-time outcome of one op: what the program decided
/// or billed, independent of how fast it ran. Equal seeds give equal
/// outcomes, so a speed-up that changes a plan or a bill shows here.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Predicted mean cost of the selected plan, or the executed,
    /// billed or replayed cost, in dollars.
    pub cost_usd: f64,
    /// Virtual job completion times, in seconds (one per job).
    pub jcts_s: Vec<f64>,
    /// Jobs that finished within their deadline.
    pub met: usize,
    /// Jobs that had a deadline to meet.
    pub total: usize,
}

/// One seeded workload: a fixed op list, built once per set-up.
pub trait Workload {
    /// Number of distinct ops in the list; the harness cycles through it.
    fn ops(&self) -> usize;
    /// What one work unit is (plans, adaptive runs, jobs, traces).
    fn unit(&self) -> &'static str;
    /// Work units one op completes.
    fn units_per_op(&self) -> f64;
    /// Runs op `i`: times the op through [`Tracer::timed_op`], then
    /// checks its outputs outside the timed region. Returns the timed
    /// latency and the op's outcome, or why the op failed.
    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(Duration, Outcome), String>;
    /// Per-layer metrics gathered while `tr` was on, as
    /// `(name, value, unit)`.
    fn layer_metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)>;
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `xs`, sorting it in
/// place; 0 for an empty slice.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// `100 * part / whole`, or 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// A deterministic list of `n` per-op seeds: the first is the same for
/// every workload seed, the rest derive from the workload seed and a
/// per-workload salt. The first op is the set-up's warm-up op, so a
/// fixed first op keeps `setup_s` independent of the workload seed.
pub fn op_seeds(seed: u64, salt: u64, n: usize) -> Vec<u64> {
    let mut rng = rb_core::Prng::seed_from_u64(seed ^ salt);
    let mut seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    if let Some(first) = seeds.first_mut() {
        *first = rb_core::Prng::seed_from_u64(salt).next_u64();
    }
    seeds
}
