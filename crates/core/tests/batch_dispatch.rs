//! Campaign-level batched-dispatch equivalence tests.
//!
//! `Campaign::run_design` / `EnsembleCampaign::run_design` run their
//! points through the node crate's lane dispatcher, which batches each
//! tick group in the SoA batch kernel. These tests pin the dispatch
//! contract: responses are bit-identical to the per-point
//! `evaluate_coded` oracle for every thread count, designs whose
//! points differ in tick length batch per tick group with identical
//! results, and a mid-run failure surfaces the per-sim error of the
//! smallest failing point.

use ehsim_core::experiment::{
    Campaign, Configure, EnsembleCampaign, PolicyFactorSet, PolicyFactors, StandardFactors,
};
use ehsim_core::indicators::Indicator;
use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
use ehsim_core::space::{DesignSpace, Factor};
use ehsim_doe::design::factorial::full_factorial_2k;
use ehsim_node::NodeConfig;
use ehsim_vibration::{Envelope, Sine, VibrationSource};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn indicators() -> Vec<Indicator> {
    vec![
        Indicator::PacketsPerHour,
        Indicator::UptimeFraction,
        Indicator::FinalStorageV,
        Indicator::EnergyBalanceJ,
    ]
}

fn assert_rows_bitwise_eq(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: row {r} width");
        for (c, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: row {r} col {c}: {a} != {b}"
            );
        }
    }
}

#[test]
fn standard_campaign_matches_per_point_oracle_for_every_thread_count() {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::stationary_machine(600.0),
        indicators(),
    )
    .unwrap();
    let design = full_factorial_2k(4).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_eq!(result.sim_count, 16);
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("standard campaign, {threads} threads"),
        );
    }
}

#[test]
fn adaptive_policy_campaign_matches_per_point_oracle() {
    let campaign = Campaign::adaptive(
        PolicyFactors::standard(PolicyFactorSet::default_energy_aware()),
        Scenario::drifting_machine(600.0),
        indicators(),
    )
    .unwrap();
    let design = full_factorial_2k(5).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("adaptive campaign, {threads} threads"),
        );
    }
}

#[test]
fn ensemble_campaign_matches_oracle_and_is_thread_count_invariant() {
    let ensemble = ScenarioEnsemble::uniform(vec![
        Scenario::stationary_machine(600.0),
        Scenario::drifting_machine(900.0),
    ])
    .unwrap();
    let campaign =
        EnsembleCampaign::standard(StandardFactors::default(), ensemble, indicators()).unwrap();
    let design = full_factorial_2k(4).unwrap();

    let mut oracle_per_scenario = vec![Vec::new(); 2];
    let mut oracle_aggregate = Vec::new();
    for p in design.points() {
        let (per_scenario, aggregate) = campaign.evaluate_coded(p).unwrap();
        for (s, row) in per_scenario.into_iter().enumerate() {
            oracle_per_scenario[s].push(row);
        }
        oracle_aggregate.push(aggregate);
    }

    // 16 points over 8 threads run in chunks of two lanes; 32 threads
    // exceed the point count, so every chunk is one lane run on its own
    // simulator — both must match the oracle bit for bit.
    for threads in [1, 2, 8, 32] {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_eq!(result.aggregate.sim_count, 32);
        for s in 0..2 {
            assert_rows_bitwise_eq(
                &result.per_scenario[s].responses,
                &oracle_per_scenario[s],
                &format!("ensemble scenario {s}, {threads} threads"),
            );
        }
        assert_rows_bitwise_eq(
            &result.aggregate.responses,
            &oracle_aggregate,
            &format!("ensemble aggregate, {threads} threads"),
        );
    }
}

/// A three-factor space whose `configure` sets the tick from the first
/// two factors, so the eight points of a 2^3 design fall into tick
/// groups. `tick(c_store_low, period_low)` picks the tick.
fn tick_grouped_campaign(scenario: Scenario, tick: fn(bool, bool) -> f64) -> Campaign {
    let configure: Configure = Arc::new(move |phys: &[f64]| {
        let mut cfg = NodeConfig::default_node();
        cfg.storage.capacitance = phys[0];
        cfg.task.period_s = phys[1];
        cfg.radio.tx_power_dbm = phys[2];
        cfg.tick_s = tick(phys[0] < 0.2, phys[1] < 10.0);
        cfg
    });
    let space = DesignSpace::new(vec![
        Factor::new("c_store_f", 0.05, 0.5).unwrap(),
        Factor::new("task_period_s", 2.0, 30.0).unwrap(),
        Factor::new("tx_power_dbm", -10.0, 4.0).unwrap(),
    ])
    .unwrap();
    Campaign::new(space, configure, scenario, indicators()).unwrap()
}

#[test]
fn heterogeneous_tick_design_falls_back_and_still_matches_oracle() {
    // Two tick groups of four points: one chunk of four lanes per group
    // on one thread, two of two on two threads, one-lane chunks on 8.
    let campaign = tick_grouped_campaign(Scenario::stationary_machine(600.0), |low_c, _| {
        if low_c {
            0.2
        } else {
            0.25
        }
    });
    let design = full_factorial_2k(3).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("heterogeneous-tick campaign, {threads} threads"),
        );
    }
}

/// A source whose envelope turns invalid, with a time-stamped
/// frequency `-t`, for `t` in `window` only — so only lanes whose tick
/// grid lands in the window fail, each with its own error text.
#[derive(Debug)]
struct PoisonWindow {
    inner: Sine,
    window: (f64, f64),
}

impl VibrationSource for PoisonWindow {
    fn acceleration(&self, t: f64) -> f64 {
        self.inner.acceleration(t)
    }

    fn envelope(&self, t: f64) -> Envelope {
        let mut env = self.inner.envelope(t);
        if (self.window.0..=self.window.1).contains(&t) {
            env.freq_hz = -t;
        }
        env
    }
}

/// Points 0 and 4 (tick 0.25 s) fail at t = 120.25 s and points 1 and
/// 5 (tick 0.2 s) at t ≈ 120.2 s; the 0.3 s and 0.4 s grids step over
/// the window. The dispatcher forms the 0.2 s group before the 0.25 s
/// group, yet point 0 — the smallest failing job — must supply the
/// error at every thread count.
#[test]
fn smallest_failing_job_wins_across_tick_groups() {
    let scenario = Scenario::new(
        Arc::new(PoisonWindow {
            inner: Sine::new(0.9, 64.0).unwrap(),
            window: (120.15, 120.27),
        }),
        600.0,
        "poison-window",
    )
    .unwrap();
    let campaign = tick_grouped_campaign(scenario, |low_c, low_period| match (low_c, low_period) {
        (true, true) => 0.25,
        (false, true) => 0.2,
        (true, false) => 0.3,
        (false, false) => 0.4,
    });
    let design = full_factorial_2k(3).unwrap();
    let per_point: Vec<Result<Vec<f64>, String>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).map_err(|e| e.to_string()))
        .collect();
    let failing: Vec<usize> = (0..8).filter(|&p| per_point[p].is_err()).collect();
    assert_eq!(failing, [0, 1, 4, 5], "fixture: failing points");
    assert_ne!(
        per_point[0], per_point[1],
        "fixture: the groups' errors differ"
    );
    let want = per_point[0].clone().unwrap_err();
    for threads in THREAD_COUNTS {
        let got = campaign
            .run_design(&design, threads)
            .unwrap_err()
            .to_string();
        assert_eq!(got, want, "{threads} threads");
    }
}

/// A source whose envelope goes non-finite after `t_poison`, killing
/// the Thevenin stage mid-run.
#[derive(Debug)]
struct PoisonAfter {
    inner: Sine,
    t_poison: f64,
}

impl VibrationSource for PoisonAfter {
    fn acceleration(&self, t: f64) -> f64 {
        self.inner.acceleration(t)
    }

    fn envelope(&self, t: f64) -> Envelope {
        let mut env = self.inner.envelope(t);
        if t >= self.t_poison {
            env.freq_hz = f64::INFINITY;
        }
        env
    }
}

#[test]
fn mid_run_failure_surfaces_the_per_sim_error() {
    let scenario = Scenario::new(
        Arc::new(PoisonAfter {
            inner: Sine::new(0.9, 64.0).unwrap(),
            t_poison: 120.0,
        }),
        600.0,
        "poisoned",
    )
    .unwrap();
    let campaign = Campaign::standard(StandardFactors::default(), scenario, indicators()).unwrap();
    let design = full_factorial_2k(4).unwrap();
    // The shared source poisons every point at the same tick, so the
    // smallest failing job is point 0; the campaign error must be that
    // point's per-sim error, for any thread count.
    let want = campaign
        .evaluate_coded(&design.points()[0])
        .unwrap_err()
        .to_string();
    for threads in THREAD_COUNTS {
        let got = campaign
            .run_design(&design, threads)
            .unwrap_err()
            .to_string();
        assert_eq!(got, want, "{threads} threads");
    }
}
