//! `paper_flow`: the paper's whole DoE flow on the flagship campaign
//! (four standard factors, drifting 58→70 Hz machine).
//!
//! Face-centred CCD with 3 centre points → campaign simulation →
//! stepwise quadratic fits → constrained optimisation of packets/hour
//! under a brown-out-margin floor → fresh-sim Latin-hypercube validation
//! → fresh-sim check of the optimum → a sweep of surrogate queries.
//!
//! The measured iteration rebuilds `DoeFlow::run`,
//! `SurrogateSet::optimize_constrained` and `SurrogateSet::validate`
//! from the public `ehsim-doe` and `ehsim-core` calls so each layer
//! gets its own span; the reference iteration runs the composite entry
//! points, and the two must agree bit for bit.

use crate::probe;
use crate::trace::span;
use crate::{count_non_finite, derive_seed, Digest, Metrics, Outcome, RunConfig, Workload};
use ehsim_bench::flagship_campaign;
use ehsim_core::experiment::{Campaign, CampaignResult, StandardFactors};
use ehsim_core::flow::{DesignChoice, DoeFlow};
use ehsim_doe::design::ccd::CentralComposite;
use ehsim_doe::design::lhs::latin_hypercube;
use ehsim_doe::optimize::{optimize_fn, Goal, Optimum};
use ehsim_doe::stepwise::backward_eliminate;
use ehsim_doe::{Design, FittedModel, ModelSpec};
use ehsim_node::PreparedSimulator;
use std::hint::black_box;
use std::time::Instant;

/// Simulated horizon of every campaign run (s): twelve hours at the
/// campaign's 0.25 s tick.
const HORIZON_S: f64 = 43_200.0;
const CENTER_POINTS: usize = 3;
const STEPWISE_ALPHA: f64 = 0.05;
/// Objective: packets/hour (indicator 0), subject to the brown-out
/// margin (indicator 1) staying above this floor (V).
const MARGIN_FLOOR_V: f64 = 0.1;
const N_VALIDATION: usize = 10;
/// Surrogate queries per iteration, timed in batches.
const N_QUERIES: usize = 32_768;
const QUERY_BATCH: usize = 16;
/// Index of the tuning-overhead fraction among the indicators.
const FRACTION_INDICATOR: usize = 2;

pub struct PaperFlow {
    campaign: Campaign,
    threads: usize,
    lhs_seed: u64,
    opt_seed: u64,
    /// Surrogate query points, `k` coordinates each, back to back.
    queries: Vec<f64>,
}

/// What both paths produce; the digest covers all of it.
struct FlowResult {
    coefficients: Vec<Vec<f64>>,
    optimum: Optimum,
    rmse_pct: Vec<f64>,
    campaign: CampaignResult,
    validation: CampaignResult,
    check: CampaignResult,
    sweep_sum: f64,
}

impl FlowResult {
    fn outcome(&self) -> Outcome {
        let mut d = Digest::default();
        self.coefficients.iter().for_each(|c| d.all(c));
        d.all(&self.optimum.x);
        d.f64(self.optimum.value);
        d.all(&self.rmse_pct);
        let mut failed = 0;
        let mut ops = 0;
        for result in [&self.campaign, &self.validation, &self.check] {
            ops += result.sim_count as u64;
            for r in &result.responses {
                d.all(r);
                let fraction = r[FRACTION_INDICATOR];
                if count_non_finite(r) > 0 || !(0.0..=1.0).contains(&fraction) {
                    failed += 1;
                }
            }
        }
        d.f64(self.sweep_sum);
        let bad_model = self
            .coefficients
            .iter()
            .chain([&self.optimum.x, &self.rmse_pct])
            .any(|c| count_non_finite(c) > 0);
        if bad_model || !self.optimum.value.is_finite() || !self.sweep_sum.is_finite() {
            failed += 1;
        }
        let mut counts = Metrics::new();
        counts.insert("core.sims", ops as f64);
        counts.insert("core.eval_batches", 3.0);
        counts.insert("core.eval_batch_points_mean", ops as f64 / 3.0);
        counts.insert("surrogate_rmse_pct", self.rmse_pct[0]);
        Outcome {
            digest: d.finish(),
            ops,
            failed,
            useful_ticks: ops as f64 * (HORIZON_S / StandardFactors::default().base.tick_s),
            counts,
            rsm_samples_ns: Vec::new(),
        }
    }
}

/// `SurrogateSet::validate`'s RMSE as a percentage of the observed
/// range, for each indicator.
fn rmse_pct(models: &[FittedModel], fresh: &CampaignResult) -> Vec<f64> {
    models
        .iter()
        .enumerate()
        .map(|(idx, model)| {
            let observed = fresh.response_column(idx);
            let sse: f64 = fresh
                .coded
                .iter()
                .zip(&observed)
                .map(|(p, o)| {
                    let e = model.predict(p) - o;
                    e * e
                })
                .sum();
            let rmse = (sse / observed.len() as f64).sqrt();
            let lo = observed.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            100.0 * rmse / (hi - lo).max(1e-12)
        })
        .collect()
}

/// `SurrogateSet::optimize_constrained`: exact-penalty maximisation of
/// model 0 with model 1 held above the margin floor.
fn constrained_optimum(
    models: &[FittedModel],
    campaign: &CampaignResult,
    k: usize,
    seed: u64,
) -> Result<Optimum, String> {
    let obj_col = campaign.response_column(0);
    let lo = obj_col.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = obj_col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let penalty_scale = 100.0 * (hi - lo).max(1.0);
    let objective = |x: &[f64]| {
        let mut v = models[0].predict(x);
        let c = models[1].predict(x);
        if c < MARGIN_FLOOR_V {
            v -= penalty_scale * (MARGIN_FLOOR_V - c);
        }
        v
    };
    let opt = optimize_fn(&objective, k, (-1.0, 1.0), Goal::Maximize, seed, 16)
        .map_err(|e| format!("optimize: {e}"))?;
    let value = models[0].predict(&opt.x);
    Ok(Optimum { x: opt.x, value })
}

/// The face-centred CCD the flow simulates.
fn ccd(k: usize) -> Result<Design, String> {
    CentralComposite::face_centered(k)
        .and_then(|d| d.with_center_points(CENTER_POINTS).build())
        .map_err(|e| format!("ccd: {e}"))
}

impl PaperFlow {
    fn point_design(&self, x: &[f64]) -> Result<Design, String> {
        Design::new(x.len(), vec![x.to_vec()], "optimum-check").map_err(|e| e.to_string())
    }

    /// Queries the packets surrogate at every sweep point, timing
    /// batches of [`QUERY_BATCH`]; returns the sum of the predictions.
    fn sweep(&self, model: &FittedModel, samples: &mut Vec<f64>) -> f64 {
        let k = self.campaign.space().k();
        let mut sum = 0.0;
        for batch in self.queries.chunks(QUERY_BATCH * k) {
            let t0 = Instant::now();
            for q in batch.chunks_exact(k) {
                sum += black_box(model.predict(black_box(q)));
            }
            samples.push(t0.elapsed().as_nanos() as f64 / (batch.len() / k) as f64);
        }
        sum
    }
}

impl Workload for PaperFlow {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let campaign = flagship_campaign(HORIZON_S);
        let k = campaign.space().k();
        let mut state = derive_seed(cfg.seed, 3);
        let queries = (0..N_QUERIES * k)
            .map(|_| {
                state = derive_seed(state, 0);
                2.0 * (state >> 11) as f64 / (1u64 << 53) as f64 - 1.0
            })
            .collect();
        Ok(PaperFlow {
            campaign,
            threads: cfg.threads,
            lhs_seed: derive_seed(cfg.seed, 1),
            opt_seed: derive_seed(cfg.seed, 2),
            queries,
        })
    }

    fn reference(&self) -> Result<Outcome, String> {
        let c = &self.campaign;
        let t = self.threads;
        let set = DoeFlow::new(DesignChoice::FaceCenteredCcd {
            center_points: CENTER_POINTS,
        })
        .with_stepwise(STEPWISE_ALPHA)
        .with_threads(t)
        .run(c)
        .map_err(|e| format!("DoeFlow::run: {e}"))?;
        let optimum = set
            .optimize_constrained(0, Goal::Maximize, &[(1, MARGIN_FLOOR_V)], self.opt_seed)
            .map_err(|e| format!("optimize_constrained: {e}"))?;
        let rows = set
            .validate(c, N_VALIDATION, self.lhs_seed, t)
            .map_err(|e| format!("validate: {e}"))?;
        let validation = c
            .run_design(
                &latin_hypercube(c.space().k(), N_VALIDATION, self.lhs_seed)
                    .map_err(|e| e.to_string())?,
                t,
            )
            .map_err(|e| format!("validation sims: {e}"))?;
        let check = c
            .run_design(&self.point_design(&optimum.x)?, t)
            .map_err(|e| format!("optimum check: {e}"))?;
        let n_ind = c.indicators().len();
        let result = FlowResult {
            coefficients: (0..n_ind)
                .map(|i| set.model(i).coefficients().to_vec())
                .collect(),
            rmse_pct: rows.iter().map(|r| r.rmse_pct_of_range).collect(),
            sweep_sum: self.sweep(set.model(0), &mut Vec::new()),
            optimum,
            campaign: set.campaign_result().clone(),
            validation,
            check,
        };
        Ok(result.outcome())
    }

    fn run(&self) -> Result<Outcome, String> {
        let c = &self.campaign;
        let t = self.threads;
        let k = c.space().k();
        let design = span("doe.design", || ccd(k))?;
        let campaign = span("core.campaign", || c.run_design(&design, t))
            .map_err(|e| format!("campaign: {e}"))?;
        let models = span("doe.fit", || {
            let spec = ModelSpec::quadratic(k)?;
            (0..c.indicators().len())
                .map(|i| {
                    Ok(backward_eliminate(
                        &spec,
                        &campaign.coded,
                        &campaign.response_column(i),
                        STEPWISE_ALPHA,
                    )?
                    .model)
                })
                .collect::<Result<Vec<_>, ehsim_doe::DoeError>>()
        })
        .map_err(|e| format!("fit: {e}"))?;
        let optimum = span("doe.optimize", || {
            constrained_optimum(&models, &campaign, k, self.opt_seed)
        })?;
        let lhs = span("doe.design", || {
            latin_hypercube(k, N_VALIDATION, self.lhs_seed)
        })
        .map_err(|e| format!("lhs: {e}"))?;
        let validation = span("core.validate", || c.run_design(&lhs, t))
            .map_err(|e| format!("validation: {e}"))?;
        let check_design = self.point_design(&optimum.x)?;
        let check = span("core.validate", || c.run_design(&check_design, t))
            .map_err(|e| format!("optimum check: {e}"))?;
        let mut samples = Vec::with_capacity(N_QUERIES.div_ceil(QUERY_BATCH));
        let sweep_sum = span("doe.predict", || self.sweep(&models[0], &mut samples));
        let mut out = span("bench.check", || {
            FlowResult {
                coefficients: models.iter().map(|m| m.coefficients().to_vec()).collect(),
                rmse_pct: rmse_pct(&models, &validation),
                optimum,
                campaign,
                validation,
                check,
                sweep_sum,
            }
            .outcome()
        });
        out.rsm_samples_ns = samples;
        Ok(out)
    }

    fn probes(&self, out: &mut Metrics) -> Result<(), String> {
        // The campaign's first batch chunk: CCD points 0..width.
        let c = &self.campaign;
        let k = c.space().k();
        let design = ccd(k)?;
        let n = design.n_runs();
        let width = n.div_ceil(self.threads.clamp(1, n)).clamp(1, 64);
        let factors = StandardFactors::default();
        let lanes = design.points()[..width]
            .iter()
            .map(|p| PreparedSimulator::new(factors.config_for(&c.space().decode(p))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("probe lanes: {e}"))?;
        let source = c.scenario().source().as_ref();
        let (per_sim, ns_per_tick) = probe::per_sim(&lanes[0], source, HORIZON_S)?;
        let (batch, phase_s, ns_per_lane_tick) = probe::batch(lanes.clone(), &[source], HORIZON_S)?;
        if batch[0][0] != per_sim {
            return Err("batch probe lane 0 differs from the per-sim probe".into());
        }
        // The probe lanes must reproduce the campaign's own responses.
        let expected = c
            .run_design(
                &Design::new(k, design.points()[..width].to_vec(), "probe")
                    .map_err(|e| e.to_string())?,
                self.threads,
            )
            .map_err(|e| e.to_string())?;
        for (lane, (m, want)) in batch[0].iter().zip(&expected.responses).enumerate() {
            let cfg = factors.config_for(&c.space().decode(&design.points()[lane]));
            let got: Vec<f64> = c.indicators().iter().map(|i| i.extract(m, &cfg)).collect();
            if got
                .iter()
                .zip(want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "probe lane {lane} does not reproduce the campaign response"
                ));
            }
        }
        probe::record_node(out, ns_per_tick, ns_per_lane_tick, phase_s, &batch[0]);
        probe::tick_replay(out, &lanes[0], source, HORIZON_S, ns_per_tick)
    }
}
