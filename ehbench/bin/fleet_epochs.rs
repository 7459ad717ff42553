//! `fleet_epochs`: an e13 fleet (constant-density placement, the e13
//! base node) with energy-aware routing repaired over 16 route epochs.
//!
//! Each epoch boundary re-runs the node phase from t = 0, so the run
//! costs about (E+1)/2 node phases and holds E·n snapshots; the
//! `node.phase_s` probe times one full node phase for comparison.

use crate::probe::{self, timed};
use crate::trace::span;
use crate::{count_non_finite, derive_seed, Digest, Metrics, Outcome, RunConfig, Workload};
use ehsim_bench::{e13_base_config, e13_placement};
use ehsim_net::{
    Dispatch, FleetOutcome, FleetSimulator, FleetSpec, Placement, RoutingPolicy, Topology,
};
use ehsim_node::{BatchSimulator, NodeMetrics};
use ehsim_vibration::VibrationSource;

const N_NODES: usize = 2000;
/// Simulated horizon (s) at the e13 node's 0.5 s tick.
const DURATION_S: f64 = 150.0;
const ROUTE_EPOCHS: usize = 16;

pub struct FleetEpochs {
    sim: FleetSimulator,
    threads: usize,
}

fn digest(out: &FleetOutcome) -> (u64, u64) {
    let mut d = Digest::default();
    let mut failed = 0;
    let m = &out.metrics;
    let scalars = [
        m.packets_originated,
        m.packets_delivered,
        m.delivery_fraction,
        m.relay_energy_j,
        m.mean_hop_relay_energy_j,
        m.first_death_s,
        m.residual_mean_j,
        m.residual_spread_j,
        m.min_brownout_margin_v,
        m.mean_uptime_fraction,
    ];
    d.all(&scalars);
    for c in [
        m.dead_nodes,
        m.browned_out_nodes,
        m.unreachable_nodes,
        m.route_repairs,
    ] {
        d.u64(c as u64);
    }
    for e in &m.epochs {
        d.all(&[e.packets_originated, e.packets_delivered]);
        d.u64(e.unreachable_nodes as u64);
        d.u64(e.rerouted as u64);
    }
    let fleet_bad = count_non_finite(&scalars) > 0
        || !(0.0..=1.0).contains(&m.delivery_fraction)
        || m.packets_delivered > m.packets_originated;
    for (node, net) in out.per_node.iter().zip(&out.net) {
        let values = [
            node.uptime_fraction,
            node.harvested_energy_j,
            node.consumed_energy_j,
            node.final_v_store,
            net.originated,
            net.delivered,
            net.relay_spent_j,
            net.residual_j,
        ];
        d.all(&values);
        d.u64(node.packets_delivered);
        if count_non_finite(&values) > 0
            || !(0.0..=1.0).contains(&node.uptime_fraction)
            || net.delivered > net.originated
        {
            failed += 1;
        }
    }
    if fleet_bad {
        failed = failed.max(1);
    }
    (d.finish(), failed)
}

impl FleetEpochs {
    fn outcome(&self, out: &FleetOutcome) -> Outcome {
        let (digest, failed) = digest(out);
        let n = out.per_node.len();
        let mut counts = Metrics::new();
        counts.insert("net.links", self.sim.topology().link_count() as f64);
        counts.insert("net.route_repairs", out.metrics.route_repairs as f64);
        counts.insert(
            "net.browned_out_nodes",
            out.metrics.browned_out_nodes as f64,
        );
        counts.insert(
            "net.snapshot_bytes_computed",
            (ROUTE_EPOCHS * n * std::mem::size_of::<NodeMetrics>()) as f64,
        );
        Outcome {
            digest,
            ops: n as u64,
            failed,
            useful_ticks: n as f64 * (DURATION_S / e13_base_config().tick_s),
            counts,
            rsm_samples_ns: Vec::new(),
        }
    }
}

impl Workload for FleetEpochs {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        // e13's constant-density square, re-drawn from the workload seed.
        let (_, sink, range_m) = e13_placement(N_NODES);
        let positions = Placement::UniformRandom {
            n: N_NODES,
            width_m: 2.0 * sink.x,
            height_m: 2.0 * sink.y,
            seed: derive_seed(cfg.seed, 1),
        }
        .positions()
        .map_err(|e| format!("placement: {e}"))?;
        let mut spec =
            FleetSpec::homogeneous(e13_base_config(), positions, sink, range_m, DURATION_S);
        spec.routing = RoutingPolicy::EnergyAware;
        spec.route_epochs = ROUTE_EPOCHS;
        spec.fleet_seed = derive_seed(cfg.seed, 2);
        let sim =
            FleetSimulator::prepare(spec, cfg.threads).map_err(|e| format!("prepare: {e}"))?;
        Ok(FleetEpochs {
            sim,
            threads: cfg.threads,
        })
    }

    fn reference(&self) -> Result<Outcome, String> {
        self.run()
    }

    fn run(&self) -> Result<Outcome, String> {
        let out = span("net.run", || self.sim.run(self.threads))
            .map_err(|e| format!("fleet run: {e}"))?;
        Ok(span("bench.check", || self.outcome(&out)))
    }

    fn probes(&self, out: &mut Metrics) -> Result<(), String> {
        let sim = &self.sim;
        let spec = sim.spec();
        let (phase, phase_s) = timed("node.phase", || sim.run_nodes(self.threads, Dispatch::Auto));
        let phase = phase
            .map_err(|e| format!("node phase: {e}"))?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("node phase lane: {e}"))?;
        let source0 = sim.sources()[0].as_ref();
        let (per_sim, ns_per_tick) = probe::per_sim(&sim.prepared()[0], source0, DURATION_S)?;
        if per_sim != phase[0] {
            return Err("per-sim probe differs from the node phase's node 0".into());
        }
        let width = N_NODES
            .div_ceil(self.threads.clamp(1, N_NODES))
            .clamp(1, 64);
        // Every fleet lane has its own source, so the batch probe times
        // `run_lanes_with_sources` on the first chunk.
        let batch =
            BatchSimulator::new(sim.prepared()[..width].to_vec()).map_err(|e| e.to_string())?;
        let srcs: Vec<&dyn VibrationSource> =
            sim.sources()[..width].iter().map(|s| s.as_ref()).collect();
        let (lanes, secs) = timed("node.run_lanes", || {
            batch.run_lanes_with_sources(&srcs, DURATION_S)
        });
        lanes.map_err(|e| format!("batch probe: {e}"))?;
        let ns_per_lane_tick =
            1e9 * secs / (width as f64 * (DURATION_S / spec.nodes[0].config.tick_s));
        probe::record_node(out, ns_per_tick, ns_per_lane_tick, phase_s, &phase);

        let positions = spec.nodes.iter().map(|n| n.position).collect();
        let (topology, topology_s) = timed("net.topology", || {
            Topology::new(positions, spec.sink, spec.range_m)
        });
        let topology = topology.map_err(|e| format!("topology: {e}"))?;
        if topology.link_count() != sim.topology().link_count() {
            return Err("rebuilt topology differs from the fleet's".into());
        }
        let browned: Vec<bool> = phase.iter().map(|m| m.brownout_count > 0).collect();
        let (routes, routes_s) = timed("net.routes", || {
            topology.energy_aware_routes(&spec.radio, spec.payload_bits, &browned)
        });
        routes.map_err(|e| format!("routes: {e}"))?;
        out.insert("net.topology_s", topology_s);
        out.insert("net.routes_s", routes_s);
        let run_s = out.get("net.run_s").copied().unwrap_or(0.0);
        out.insert("net.epoch_rerun_ratio", run_s / phase_s);
        probe::tick_replay(out, &sim.prepared()[0], source0, DURATION_S, ns_per_tick)
    }
}
