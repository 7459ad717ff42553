//! Node-layer probes, run only in the traced pass and outside its
//! timed iterations: per-sim and batch tick cost on the workload's own
//! configurations, and a replay of one traced lane through the public
//! per-tick calls (envelope → Thevenin → PPU operating point).

use crate::trace::span;
use crate::Metrics;
use ehsim_node::{BatchSimulator, NodeMetrics, PreparedSimulator};
use ehsim_vibration::VibrationSource;
use std::hint::black_box;
use std::time::Instant;

/// Longest stretch of ticks the replay records (the trace holds six
/// values per tick).
const REPLAY_MAX_TICKS: f64 = 200_000.0;

/// Times `f` inside a span and returns its result with the seconds it
/// took.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    span(name, || {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    })
}

fn ticks(m: &NodeMetrics, tick_s: f64) -> f64 {
    (m.duration_s / tick_s).round()
}

/// `node.ns_per_tick`: one `PreparedSimulator::run` over the horizon.
pub fn per_sim(
    sim: &PreparedSimulator,
    source: &dyn VibrationSource,
    duration_s: f64,
) -> Result<(NodeMetrics, f64), String> {
    let (m, secs) = timed("node.run", || sim.run(source, duration_s));
    let m = m.map_err(|e| format!("per-sim probe: {e}"))?;
    Ok((m, 1e9 * secs / ticks(&m, sim.config().tick_s)))
}

/// The batch probe: one `BatchSimulator` of the given lanes, run once
/// per source (a campaign's scenarios) with `run_lanes`. Returns the
/// per-source lane metrics, the wall seconds, and ns per lane-tick.
pub fn batch(
    lanes: Vec<PreparedSimulator>,
    sources: &[&dyn VibrationSource],
    duration_s: f64,
) -> Result<(Vec<Vec<NodeMetrics>>, f64, f64), String> {
    let tick_s = lanes[0].config().tick_s;
    let width = lanes.len();
    let sim = BatchSimulator::new(lanes).map_err(|e| format!("batch probe: {e}"))?;
    let (out, secs) = timed("node.run_lanes", || {
        sources
            .iter()
            .map(|src| sim.run_lanes(*src, duration_s))
            .collect::<Vec<_>>()
    });
    let mut per_source = Vec::with_capacity(out.len());
    for lanes in out {
        let lanes = lanes.map_err(|e| format!("batch probe: {e}"))?;
        let metrics = lanes
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("batch probe lane: {e}"))?;
        per_source.push(metrics);
    }
    let lane_ticks = ticks(&per_source[0][0], tick_s) * (width * sources.len()) as f64;
    Ok((per_source, secs, 1e9 * secs / lane_ticks))
}

/// Adds the node-layer metrics of one probe to `out`.
pub fn record_node(
    out: &mut Metrics,
    ns_per_tick: f64,
    ns_per_lane_tick: f64,
    phase_s: f64,
    lanes: &[NodeMetrics],
) {
    out.insert("node.ns_per_tick", ns_per_tick);
    out.insert("node.batch_ns_per_lane_tick", ns_per_lane_tick);
    out.insert("node.phase_s", phase_s);
    out.insert(
        "node.brownouts",
        lanes.iter().map(|m| m.brownout_count as f64).sum(),
    );
    out.insert(
        "node.retunes",
        lanes.iter().map(|m| m.retune_count as f64).sum(),
    );
}

/// Replays one traced lane through the public per-tick calls and adds
/// the `vibration.*`, `harvester.*`, `power.*` and `tick.*` metrics.
///
/// The lane runs once with `run_with_trace` (stride 1). Its recorded
/// actuator resonance, storage voltage and tick times then drive three
/// timed loops, one per phase: `VibrationSource::envelope`,
/// `PreparedHarvester::thevenin` and `PreparedPpu::operating_point`.
/// The kernel memoises the Thevenin equivalent on its exact inputs, so
/// the replayed per-tick cost charges Thevenin only on the share of
/// ticks whose inputs changed; `tick.replay_coverage` is that cost over
/// `node.ns_per_tick`.
pub fn tick_replay(
    out: &mut Metrics,
    sim: &PreparedSimulator,
    source: &dyn VibrationSource,
    duration_s: f64,
    ns_per_tick: f64,
) -> Result<(), String> {
    let cfg = sim.config();
    let duration_s = duration_s.min(REPLAY_MAX_TICKS * cfg.tick_s);
    let (_, trace) = span("node.run_with_trace", || {
        sim.run_with_trace(source, duration_s, 1)
    })
    .map_err(|e| format!("replay trace: {e}"))?;
    let harv = cfg
        .harvester
        .prepared()
        .map_err(|e| format!("replay harvester: {e}"))?;
    let ppu = cfg
        .multiplier
        .prepared()
        .map_err(|e| format!("replay ppu: {e}"))?;
    let n = trace.t.len();
    let positions: Vec<f64> = trace
        .resonance_hz
        .iter()
        .map(|f| harv.position_for_frequency(*f))
        .collect();

    let (envs, env_s) = timed("vibration.envelope", || {
        trace
            .t
            .iter()
            .map(|t| source.envelope(*t))
            .collect::<Vec<_>>()
    });
    let (thev, thev_s) = timed("harvester.thevenin", || {
        envs.iter()
            .zip(&positions)
            .map(|(e, p)| harv.thevenin(*p, e.freq_hz, e.amp))
            .collect::<Result<Vec<_>, _>>()
    });
    let thev = thev.map_err(|e| format!("replay thevenin: {e}"))?;
    let (ppu_out, ppu_s) = timed("power.ppu_solve", || {
        let mut v_prev = cfg.v_store0;
        let mut acc = 0.0;
        for k in 0..n {
            let (v_oc, z_src) = thev[k];
            acc += ppu
                .operating_point(v_oc, z_src, envs[k].freq_hz, v_prev)?
                .p_store_w;
            v_prev = trace.v_store[k];
        }
        Ok::<f64, ehsim_power::PowerError>(black_box(acc))
    });
    ppu_out.map_err(|e| format!("replay ppu solve: {e}"))?;

    let changes = (0..n)
        .filter(|&k| {
            k == 0
                || positions[k].to_bits() != positions[k - 1].to_bits()
                || envs[k].freq_hz.to_bits() != envs[k - 1].freq_hz.to_bits()
                || envs[k].amp.to_bits() != envs[k - 1].amp.to_bits()
        })
        .count();
    let per = |s: f64| 1e9 * s / n as f64;
    let change_frac = changes as f64 / n as f64;
    out.insert("vibration.envelope_ns", per(env_s));
    out.insert("harvester.thevenin_ns", per(thev_s));
    out.insert("harvester.input_change_frac", change_frac);
    out.insert("power.ppu_solve_ns", per(ppu_s));
    out.insert(
        "tick.replay_coverage",
        (per(env_s) + change_frac * per(thev_s) + per(ppu_s)) / ns_per_tick,
    );
    Ok(())
}
