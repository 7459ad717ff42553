//! `sequential_ensemble`: the e12 campaign (five tuning × threshold-
//! policy factors, three scenarios) refined by `SequentialCampaign`
//! under the budget of a face-centred CCD, then `fresh_verify` of the
//! best point.
//!
//! The measured iteration rebuilds `SequentialCampaign::run` from the
//! public `CachedEvaluator`, `RefinementLoop` and `SequentialEvaluator`
//! so that every `evaluate` call gets its own span; the reference
//! iteration calls `SequentialCampaign::run` itself, and both must
//! reach the same best point bit for bit.

use crate::probe;
use crate::trace::span;
use crate::{count_non_finite, Digest, Metrics, Outcome, RunConfig, Workload};
use ehsim_bench::{e11_factors, e12_campaign};
use ehsim_core::experiment::{
    EnsembleCampaign, EnsembleCampaignResult, PolicyFactorSet, PolicyFactors,
};
use ehsim_core::flow::DesignChoice;
use ehsim_core::sequential::{CachedEvaluator, SequentialCampaign};
use ehsim_core::CoreError;
use ehsim_doe::optimize::Goal;
use ehsim_doe::sequential::{
    canonical_key, RefinementConfig, RefinementLoop, SequentialError, SequentialEvaluator,
};
use ehsim_node::PreparedSimulator;
use ehsim_vibration::VibrationSource;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Simulated horizon of every run (s).
const HORIZON_S: f64 = 3.0 * 3600.0;
const CENTER_POINTS: usize = 3;

pub struct SequentialEnsemble {
    campaign: EnsembleCampaign,
    sequential: SequentialCampaign,
    budget: usize,
    threads: usize,
    /// The first fresh batch of the last measured iteration: the node
    /// probes run its first chunk.
    first_batch: RefCell<Vec<Vec<f64>>>,
}

/// Per-batch ledger of the rebuilt loop.
#[derive(Default)]
struct Ledger {
    batches: u64,
    points: u64,
    narrow: u64,
    /// Fresh simulations (one per scenario) with a non-finite response.
    failed: u64,
    /// Canonical keys of the points simulated so far, so that cache
    /// replays of a failed point are not counted again.
    seen: BTreeSet<Vec<i64>>,
    first_fresh: Vec<Vec<f64>>,
}

/// `SequentialCampaign`'s weighted-mean objective over a
/// `CachedEvaluator`, with a span around every `evaluate`.
struct TracedObjective<'a> {
    ev: &'a mut CachedEvaluator,
    weights: Vec<f64>,
    threads: usize,
    ledger: Ledger,
}

impl SequentialEvaluator for TracedObjective<'_> {
    type Error = CoreError;

    fn eval_batch(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        let fresh = self.ev.fresh_cost(points) as u64;
        if fresh > 0 && self.ledger.first_fresh.is_empty() {
            self.ledger.first_fresh = points.to_vec();
        }
        let responses = span("core.evaluate", || self.ev.evaluate(points))?;
        let l = &mut self.ledger;
        l.batches += 1;
        l.points += points.len() as u64;
        l.narrow += u64::from(fresh > 0 && fresh < self.threads as u64);
        for (p, r) in points.iter().zip(&responses) {
            if l.seen.insert(canonical_key(p)) {
                l.failed += r
                    .per_scenario
                    .iter()
                    .filter(|s| count_non_finite(s) > 0)
                    .count() as u64;
            }
        }
        Ok(responses
            .iter()
            .map(|r| r.weighted_mean(&self.weights, 0))
            .collect())
    }

    fn fresh_cost(&self, points: &[Vec<f64>]) -> usize {
        self.ev.fresh_cost(points)
    }

    fn remaining_budget(&self) -> usize {
        self.ev.remaining_budget()
    }
}

/// The fields both paths produce, digested.
struct SeqResult<'a> {
    best: &'a [f64],
    best_value: f64,
    evals_used: usize,
    sims_used: usize,
    cache_hits: usize,
    iteration_best: Vec<f64>,
    verify: &'a EnsembleCampaignResult,
}

impl SeqResult<'_> {
    fn digest(&self) -> (u64, u64) {
        let mut d = Digest::default();
        d.all(self.best);
        d.f64(self.best_value);
        for c in [self.evals_used, self.sims_used, self.cache_hits] {
            d.u64(c as u64);
        }
        d.all(&self.iteration_best);
        let mut failed = 0;
        for sc in &self.verify.per_scenario {
            for r in &sc.responses {
                d.all(r);
                failed += u64::from(count_non_finite(r) > 0);
            }
        }
        if count_non_finite(self.best) > 0 || !self.best_value.is_finite() {
            failed += 1;
        }
        (d.finish(), failed)
    }
}

/// The e12 factor mapping, rebuilt from `e12_campaign`'s recipe: it
/// configures the probe lanes (checked against the campaign's own
/// responses) and gives the tick.
fn e12_factors() -> PolicyFactors {
    let mut factors = e11_factors(PolicyFactorSet::default_threshold());
    factors.c_store = (0.015, 0.06);
    factors.task_period = (0.5, 16.0);
    factors
}

fn ticks_per_sim() -> f64 {
    HORIZON_S / e12_factors().base.tick_s
}

impl Workload for SequentialEnsemble {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        // The refinement loop is deterministic and the e12 fixtures carry
        // their own scenario seeds, so the workload seed feeds nothing
        // here; it is still recorded in the output.
        let campaign = e12_campaign(HORIZON_S);
        let budget = DesignChoice::FaceCenteredCcd {
            center_points: CENTER_POINTS,
        }
        .build(campaign.space().k())
        .map_err(|e| e.to_string())?
        .n_runs();
        let sequential = SequentialCampaign::new(campaign.clone(), 0, Goal::Maximize, budget)
            .map_err(|e| e.to_string())?
            .with_threads(cfg.threads);
        Ok(SequentialEnsemble {
            campaign,
            sequential,
            budget,
            threads: cfg.threads,
            first_batch: RefCell::new(Vec::new()),
        })
    }

    fn reference(&self) -> Result<Outcome, String> {
        let out = self
            .sequential
            .run()
            .map_err(|e| format!("SequentialCampaign::run: {e}"))?;
        let verify = self
            .sequential
            .fresh_verify(&out.best_coded)
            .map_err(|e| format!("fresh_verify: {e}"))?;
        let (digest, failed) = SeqResult {
            best: &out.best_coded,
            best_value: out.best_objective,
            evals_used: out.evals_used,
            sims_used: out.sims_used,
            cache_hits: out.cache_hits,
            iteration_best: out.report.iterations.iter().map(|r| r.best_value).collect(),
            verify: &verify,
        }
        .digest();
        let sims = out.sims_used + verify.aggregate.sim_count;
        Ok(Outcome {
            digest,
            ops: sims as u64,
            failed,
            useful_ticks: sims as f64 * ticks_per_sim(),
            ..Outcome::default()
        })
    }

    fn run(&self) -> Result<Outcome, String> {
        let mut cached =
            CachedEvaluator::new(self.campaign.clone(), self.threads).with_budget(self.budget);
        let refinement = RefinementLoop::new(RefinementConfig::new(
            Goal::Maximize,
            self.campaign.space().k(),
        ))
        .map_err(|e| e.to_string())?;
        let mut objective = TracedObjective {
            ev: &mut cached,
            weights: self.campaign.ensemble().weights(),
            threads: self.threads,
            ledger: Ledger::default(),
        };
        let report =
            span("doe.refine", || refinement.run(&mut objective)).map_err(|e| match e {
                SequentialError::Eval(c) => format!("evaluate: {c}"),
                SequentialError::Doe(d) => format!("refinement: {d}"),
            })?;
        let ledger = std::mem::take(&mut objective.ledger);
        let verify = span("core.validate", || {
            self.sequential.fresh_verify(&report.best_point)
        })
        .map_err(|e| format!("fresh_verify: {e}"))?;
        let out = span("bench.check", || {
            let (digest, failed) = SeqResult {
                best: &report.best_point,
                best_value: report.best_value,
                evals_used: cached.fresh_evals(),
                sims_used: cached.sims_used(),
                cache_hits: cached.cache_hits(),
                iteration_best: report.iterations.iter().map(|r| r.best_value).collect(),
                verify: &verify,
            }
            .digest();
            let sims = cached.sims_used() + verify.aggregate.sim_count;
            let mut counts = Metrics::new();
            counts.insert("core.eval_batches", ledger.batches as f64);
            counts.insert(
                "core.eval_batch_points_mean",
                ledger.points as f64 / ledger.batches.max(1) as f64,
            );
            counts.insert("core.narrow_batches", ledger.narrow as f64);
            counts.insert("core.cache_hits", cached.cache_hits() as f64);
            counts.insert("core.sims", sims as f64);
            counts.insert("doe.refine_iterations", report.iterations.len() as f64);
            Outcome {
                digest,
                ops: sims as u64,
                failed: failed + ledger.failed,
                useful_ticks: sims as f64 * ticks_per_sim(),
                counts,
                rsm_samples_ns: Vec::new(),
            }
        });
        *self.first_batch.borrow_mut() = ledger.first_fresh;
        Ok(out)
    }

    fn probes(&self, out: &mut Metrics) -> Result<(), String> {
        let factors = e12_factors();
        let points = self.first_batch.borrow().clone();
        let n = points.len();
        if n == 0 {
            return Err("no fresh batch recorded for the probes".into());
        }
        let width = n.div_ceil(self.threads.clamp(1, n)).clamp(1, 64);
        let space = self.campaign.space();
        let cfgs: Vec<_> = points[..width]
            .iter()
            .map(|p| factors.config_for(&space.decode(p)))
            .collect();
        let lanes = cfgs
            .iter()
            .map(|c| PreparedSimulator::new(c.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("probe lanes: {e}"))?;
        let sources: Vec<&dyn VibrationSource> = self
            .campaign
            .ensemble()
            .entries()
            .iter()
            .map(|(s, _)| s.source().as_ref())
            .collect();
        let (per_sim, ns_per_tick) = probe::per_sim(&lanes[0], sources[0], HORIZON_S)?;
        let (batch, phase_s, ns_per_lane_tick) = probe::batch(lanes.clone(), &sources, HORIZON_S)?;
        if batch[0][0] != per_sim {
            return Err("batch probe lane 0 differs from the per-sim probe".into());
        }
        let mut ev = CachedEvaluator::new(self.campaign.clone(), self.threads);
        let expected = ev.evaluate(&points[..width]).map_err(|e| e.to_string())?;
        let indicators = self.campaign.indicators();
        for (lane, want) in expected.iter().enumerate() {
            for (s, per_source) in batch.iter().enumerate() {
                let got: Vec<f64> = indicators
                    .iter()
                    .map(|i| i.extract(&per_source[lane], &cfgs[lane]))
                    .collect();
                if got
                    .iter()
                    .zip(&want.per_scenario[s])
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err(format!(
                        "probe lane {lane} scenario {s} does not reproduce the campaign response"
                    ));
                }
            }
        }
        let all: Vec<_> = batch.concat();
        probe::record_node(out, ns_per_tick, ns_per_lane_tick, phase_s, &all);
        probe::tick_replay(out, &lanes[0], sources[0], HORIZON_S, ns_per_tick)
    }
}
