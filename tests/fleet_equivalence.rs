//! Differential suite for the fleet simulator's node-phase dispatch.
//!
//! The contract under test: a [`FleetSimulator`] run — whatever the
//! dispatch strategy (auto, per-sim) and whatever the scheduler thread
//! count — is **bit-identical, node for node**, to a sequential oracle
//! loop that prepares and runs each node's simulation by hand,
//! straight from the spec, with no fleet machinery involved. This is
//! the network-layer extension of the batch kernel's lane-for-lane
//! bit-exactness contract, checked across 1/2/8 threads for both
//! homogeneous (one tick group) and mixed-tick (two tick groups,
//! batched each) fleets, and through to the derived
//! [`ehsim::net::FleetMetrics`] record.

use ehsim::net::{
    node_seed, Dispatch, FleetEnvironment, FleetSimulator, FleetSpec, Placement, Point,
};
use ehsim::node::{NodeConfig, NodeMetrics, PreparedSimulator};

/// The oracle: one hand-rolled `PreparedSimulator` per node, run
/// sequentially against the node's split vibration stream — no
/// `FleetSimulator`, no batch kernel, no scheduler.
fn oracle_metrics(spec: &FleetSpec) -> Vec<NodeMetrics> {
    spec.nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let sim = PreparedSimulator::with_solver(node.config.clone(), spec.solver)
                .expect("oracle node prepares");
            let source = spec
                .environment
                .source_for(node_seed(spec.fleet_seed, i))
                .expect("oracle node source builds");
            sim.run(source.as_ref(), spec.duration_s)
                .expect("oracle node runs")
        })
        .collect()
}

fn assert_metrics_bitwise_eq(a: &NodeMetrics, b: &NodeMetrics, node: usize, label: &str) {
    assert_eq!(
        a.packets_delivered, b.packets_delivered,
        "{label}: node {node} packets"
    );
    assert_eq!(
        a.brownout_count, b.brownout_count,
        "{label}: node {node} brownouts"
    );
    assert_eq!(
        a.retune_count, b.retune_count,
        "{label}: node {node} retunes"
    );
    assert_eq!(
        a.measurement_count, b.measurement_count,
        "{label}: node {node} measurements"
    );
    for (x, y, field) in [
        (a.uptime_fraction, b.uptime_fraction, "uptime_fraction"),
        (a.tuning_energy_j, b.tuning_energy_j, "tuning_energy_j"),
        (
            a.harvested_energy_j,
            b.harvested_energy_j,
            "harvested_energy_j",
        ),
        (
            a.consumed_energy_j,
            b.consumed_energy_j,
            "consumed_energy_j",
        ),
        (a.min_v_store, b.min_v_store, "min_v_store"),
        (a.final_v_store, b.final_v_store, "final_v_store"),
        (
            a.avg_harvest_power_w,
            b.avg_harvest_power_w,
            "avg_harvest_power_w",
        ),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: node {node} {field} differs ({x} vs {y})"
        );
    }
}

fn homogeneous_spec(n: usize) -> FleetSpec {
    let positions = Placement::UniformRandom {
        n,
        width_m: 80.0,
        height_m: 80.0,
        seed: 17,
    }
    .positions()
    .expect("valid placement");
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    let mut spec = FleetSpec::homogeneous(cfg, positions, Point::new(40.0, 40.0), 30.0, 45.0);
    spec.environment = FleetEnvironment::factory_floor();
    spec
}

/// A mixed-tick fleet: same floor, but a third of the nodes run a
/// finer tick — auto dispatch must batch each tick group without
/// changing a bit.
fn mixed_tick_spec(n: usize) -> FleetSpec {
    let mut spec = homogeneous_spec(n);
    for (i, node) in spec.nodes.iter_mut().enumerate() {
        if i % 3 == 0 {
            node.config.tick_s = 0.25;
        }
    }
    spec
}

/// How many tick groups (distinct `tick_s` bit patterns) the node
/// phase batches the fleet into.
fn tick_groups(fleet: &FleetSimulator) -> usize {
    let ticks: std::collections::BTreeSet<u64> = fleet
        .prepared()
        .iter()
        .map(|p| p.config().tick_s.to_bits())
        .collect();
    ticks.len()
}

/// The homogeneous fixture is a single tick group, so auto dispatch
/// runs it as batches of one tick program.
#[test]
fn homogeneous_fleet_auto_dispatches_to_batches() {
    let fleet = FleetSimulator::new(homogeneous_spec(13)).expect("valid fleet");
    assert_eq!(tick_groups(&fleet), 1);
}

/// The mixed-tick fixture holds two tick groups, so the suites that
/// run it exercise grouped batching.
#[test]
fn mixed_tick_fleet_is_heterogeneous() {
    let fleet = FleetSimulator::new(mixed_tick_spec(13)).expect("valid fleet");
    assert_eq!(tick_groups(&fleet), 2);
}

#[test]
fn batched_dispatch_is_bit_identical_to_oracle_across_threads() {
    let spec = homogeneous_spec(13);
    let oracle = oracle_metrics(&spec);
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    for threads in [1, 2, 8] {
        for (dispatch, label) in [(Dispatch::Auto, "auto"), (Dispatch::PerSim, "per-sim")] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            assert_eq!(out.per_node.len(), oracle.len());
            for (i, (a, b)) in oracle.iter().zip(&out.per_node).enumerate() {
                assert_metrics_bitwise_eq(a, b, i, &format!("{label}@{threads}t"));
            }
        }
    }
}

#[test]
fn mixed_tick_fleet_is_bit_identical_to_oracle_across_threads() {
    let spec = mixed_tick_spec(11);
    let oracle = oracle_metrics(&spec);
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    for threads in [1, 2, 8] {
        let out = fleet.run(threads).expect("fleet runs");
        for (i, (a, b)) in oracle.iter().zip(&out.per_node).enumerate() {
            assert_metrics_bitwise_eq(a, b, i, &format!("mixed-auto@{threads}t"));
        }
    }
}

#[test]
fn fleet_metrics_are_invariant_to_threads_and_dispatch() {
    let fleet = FleetSimulator::new(homogeneous_spec(13)).expect("valid fleet");
    let base = fleet
        .run_with_dispatch(1, Dispatch::PerSim)
        .expect("fleet runs");
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            let (m, n) = (&base.metrics, &out.metrics);
            for (a, b, field) in [
                (
                    m.packets_originated,
                    n.packets_originated,
                    "packets_originated",
                ),
                (
                    m.packets_delivered,
                    n.packets_delivered,
                    "packets_delivered",
                ),
                (m.relay_energy_j, n.relay_energy_j, "relay_energy_j"),
                (m.first_death_s, n.first_death_s, "first_death_s"),
                (m.residual_mean_j, n.residual_mean_j, "residual_mean_j"),
                (
                    m.residual_spread_j,
                    n.residual_spread_j,
                    "residual_spread_j",
                ),
                (
                    m.min_brownout_margin_v,
                    n.min_brownout_margin_v,
                    "min_brownout_margin_v",
                ),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{dispatch:?}@{threads}t: {field} differs ({a} vs {b})"
                );
            }
            for (i, (x, y)) in base.net.iter().zip(&out.net).enumerate() {
                assert_eq!(x, y, "{dispatch:?}@{threads}t: node {i} net stats differ");
            }
        }
    }
}

/// Per-node error capture: a fleet with one invalid node reports the
/// smallest failing node index through the aggregate entry point while
/// `run_nodes` captures the failure individually.
#[test]
fn smallest_failing_node_is_reported() {
    let mut spec = homogeneous_spec(9);
    // Zero-capacitance storage fails preparation.
    spec.nodes[4].config.storage.capacitance = 0.0;
    spec.nodes[7].config.storage.capacitance = 0.0;
    match FleetSimulator::new(spec) {
        Err(ehsim::net::NetError::Node { node, .. }) => assert_eq!(node, 4),
        Err(other) => panic!("expected smallest-failing-node error, got {other:?}"),
        Ok(_) => panic!("expected smallest-failing-node error, got a fleet"),
    }
}

// ---------------------------------------------------------------------------
// Route epochs, parallel prep, and the legacy static-accounting oracle
// ---------------------------------------------------------------------------

use ehsim::net::{NetError, RoutingPolicy, Topology};

/// A homogeneous fleet with one deliberately starved node: a small
/// supercap, no tuning controller (its startup actuation would empty
/// the cap instantly anyway), and a heavy fixed sensing duty, so the
/// node browns out partway through the run and the exclusion-set /
/// route-repair machinery has real work to do. The tick is unchanged,
/// so the fleet stays batched-dispatch eligible.
fn starved_node_spec(n: usize) -> FleetSpec {
    let mut spec = homogeneous_spec(n);
    let cfg = &mut spec.nodes[3].config;
    cfg.policy = ehsim::node::DutyCyclePolicy::Fixed;
    cfg.tuning.enabled = false;
    cfg.storage.capacitance = 0.0015;
    cfg.task.period_s = 1.0;
    cfg.task.sense_power_w = 0.02;
    spec
}

/// A faithful reimplementation of the *original* (pre-route-epoch)
/// single-pass network accounting, straight from the spec: all-pairs
/// topology build, `O(V²)` reference Dijkstra, one headroom/demand/
/// flow pass over the full-run node metrics.
struct LegacyAccounts {
    originated: Vec<f64>,
    delivered: Vec<f64>,
    demand: Vec<f64>,
    spent: Vec<f64>,
    headroom: Vec<f64>,
    residual: Vec<f64>,
    hops: Vec<Option<usize>>,
    browned: Vec<bool>,
    death_s: Vec<Option<f64>>,
    first_death_s: f64,
    relay_hops: f64,
    residual_mean: f64,
    residual_spread: f64,
}

fn legacy_static_accounting(spec: &FleetSpec, per_node: &[NodeMetrics]) -> LegacyAccounts {
    let n = per_node.len();
    let positions: Vec<Point> = spec.nodes.iter().map(|nd| nd.position).collect();
    let topo =
        Topology::new_all_pairs(positions, spec.sink, spec.range_m).expect("oracle topology");
    let sink = topo.sink_index();
    let browned: Vec<bool> = per_node.iter().map(|m| m.brownout_count > 0).collect();
    let routes = match spec.routing {
        RoutingPolicy::MinHop => topo.min_hop_routes(),
        RoutingPolicy::EnergyAware => topo
            .energy_aware_routes_reference(&spec.radio, spec.payload_bits, &browned)
            .expect("oracle routes"),
    };
    let paths: Vec<Option<Vec<usize>>> = (0..n).map(|i| routes.path(i).ok()).collect();
    let vpos = |v: usize| {
        if v == sink {
            topo.sink()
        } else {
            topo.position(v)
        }
    };
    let hop_energy = |path: &[usize], j: usize| {
        let d = vpos(path[j]).distance_m(&vpos(path[j + 1]));
        spec.radio.hop_energy_j(spec.payload_bits, d)
    };

    let headroom: Vec<f64> = (0..n)
        .map(|i| {
            if browned[i] {
                0.0
            } else {
                let cfg = &spec.nodes[i].config;
                (cfg.storage.energy_j(per_node[i].final_v_store)
                    - cfg.storage.energy_j(cfg.thresholds.v_off))
                .max(0.0)
            }
        })
        .collect();
    let originated: Vec<f64> = (0..n)
        .map(|i| per_node[i].packets_delivered as f64)
        .collect();

    let mut demand = vec![0.0f64; n];
    for i in 0..n {
        let Some(path) = &paths[i] else { continue };
        for j in 1..path.len() - 1 {
            demand[path[j]] += originated[i] * hop_energy(path, j);
        }
    }
    let scale: Vec<f64> = (0..n)
        .map(|u| {
            if demand[u] > headroom[u] && demand[u] > 0.0 {
                headroom[u] / demand[u]
            } else {
                1.0
            }
        })
        .collect();

    let mut spent = vec![0.0f64; n];
    let mut delivered = vec![0.0f64; n];
    let mut relay_hops = 0.0f64;
    for i in 0..n {
        let Some(path) = &paths[i] else { continue };
        let mut flow = originated[i];
        for j in 1..path.len() - 1 {
            let u = path[j];
            let d = vpos(u).distance_m(&vpos(path[j + 1]));
            let arriving = flow;
            flow *= scale[u];
            spent[u] += arriving * spec.radio.rx_energy_j(spec.payload_bits)
                + flow * spec.radio.tx_energy_j(spec.payload_bits, d);
            relay_hops += arriving;
        }
        delivered[i] = flow;
    }

    let mut death_s: Vec<Option<f64>> = vec![None; n];
    let mut first_death_s = spec.duration_s;
    for u in 0..n {
        if !browned[u] && demand[u] > headroom[u] {
            let t = spec.duration_s * headroom[u] / demand[u];
            if t < first_death_s {
                first_death_s = t;
            }
            death_s[u] = Some(t);
        }
    }

    let residual: Vec<f64> = (0..n).map(|u| (headroom[u] - spent[u]).max(0.0)).collect();
    let residual_mean = residual.iter().sum::<f64>() / n as f64;
    let residual_spread = (residual
        .iter()
        .map(|r| (r - residual_mean) * (r - residual_mean))
        .sum::<f64>()
        / n as f64)
        .sqrt();

    LegacyAccounts {
        hops: paths
            .iter()
            .map(|p| p.as_ref().map(|p| p.len() - 1))
            .collect(),
        originated,
        delivered,
        demand,
        spent,
        headroom,
        residual,
        browned,
        death_s,
        first_death_s,
        relay_hops,
        residual_mean,
        residual_spread,
    }
}

/// The static-routing regression: a `route_epochs = 1` run reproduces
/// the original single-pass accounting **bit for bit** — metrics and
/// every per-node network account — for both routing policies, with
/// a browned-out node in the fleet so the exclusion and fluid-scaling
/// branches are genuinely exercised.
#[test]
fn single_epoch_run_reproduces_legacy_static_accounting() {
    for routing in [RoutingPolicy::EnergyAware, RoutingPolicy::MinHop] {
        let mut spec = starved_node_spec(13);
        spec.routing = routing;
        assert_eq!(spec.route_epochs, 1, "homogeneous() must default static");
        let fleet = FleetSimulator::new(spec.clone()).expect("valid fleet");
        let out = fleet.run(4).expect("fleet runs");
        assert!(
            out.per_node.iter().any(|m| m.brownout_count > 0),
            "{routing:?}: the starved node must brown out for this regression to bite"
        );
        let legacy = legacy_static_accounting(&spec, &out.per_node);

        assert_eq!(out.metrics.route_repairs, 0, "{routing:?}: static run");
        assert_eq!(out.metrics.epochs.len(), 1, "{routing:?}: one epoch");
        for (i, s) in out.net.iter().enumerate() {
            let label = format!("{routing:?} node {i}");
            assert_eq!(
                s.originated.to_bits(),
                legacy.originated[i].to_bits(),
                "{label} originated"
            );
            assert_eq!(
                s.delivered.to_bits(),
                legacy.delivered[i].to_bits(),
                "{label} delivered"
            );
            assert_eq!(
                s.relay_demand_j.to_bits(),
                legacy.demand[i].to_bits(),
                "{label} demand"
            );
            assert_eq!(
                s.relay_spent_j.to_bits(),
                legacy.spent[i].to_bits(),
                "{label} spent"
            );
            assert_eq!(
                s.headroom_j.to_bits(),
                legacy.headroom[i].to_bits(),
                "{label} headroom"
            );
            assert_eq!(
                s.residual_j.to_bits(),
                legacy.residual[i].to_bits(),
                "{label} residual"
            );
            assert_eq!(s.hops_to_sink, legacy.hops[i], "{label} hops");
            assert_eq!(s.browned_out, legacy.browned[i], "{label} browned");
            assert_eq!(s.dead, legacy.death_s[i].is_some(), "{label} dead");
            assert_eq!(
                s.death_s.map(f64::to_bits),
                legacy.death_s[i].map(f64::to_bits),
                "{label} death_s"
            );
        }
        let m = &out.metrics;
        let orig: f64 = legacy.originated.iter().sum();
        let del: f64 = legacy.delivered.iter().sum();
        let relay: f64 = legacy.spent.iter().sum();
        assert_eq!(m.packets_originated.to_bits(), orig.to_bits());
        assert_eq!(m.packets_delivered.to_bits(), del.to_bits());
        assert_eq!(m.relay_energy_j.to_bits(), relay.to_bits());
        let frac = if orig > 0.0 { del / orig } else { 1.0 };
        assert_eq!(m.delivery_fraction.to_bits(), frac.to_bits());
        let hop = if legacy.relay_hops > 0.0 {
            relay / legacy.relay_hops
        } else {
            0.0
        };
        assert_eq!(m.mean_hop_relay_energy_j.to_bits(), hop.to_bits());
        assert_eq!(m.first_death_s.to_bits(), legacy.first_death_s.to_bits());
        assert_eq!(m.residual_mean_j.to_bits(), legacy.residual_mean.to_bits());
        assert_eq!(
            m.residual_spread_j.to_bits(),
            legacy.residual_spread.to_bits()
        );
        assert_eq!(
            m.dead_nodes as usize,
            legacy.death_s.iter().filter(|d| d.is_some()).count()
        );
        assert_eq!(
            m.browned_out_nodes as usize,
            legacy.browned.iter().filter(|&&b| b).count()
        );
        assert_eq!(
            m.unreachable_nodes as usize,
            legacy.hops.iter().filter(|h| h.is_none()).count()
        );
    }
}

/// Route epochs keep the determinism contract: a multi-epoch run with
/// a mid-run brown-out and a real route repair is bit-identical —
/// metrics, audit trail, per-node accounts — across thread counts and
/// dispatch strategies.
#[test]
fn epoch_runs_are_bit_identical_across_threads_and_dispatch() {
    let mut spec = starved_node_spec(13);
    spec.route_epochs = 4;
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    let base = fleet
        .run_with_dispatch(1, Dispatch::PerSim)
        .expect("base run");
    assert!(
        base.metrics.route_repairs >= 1,
        "the starved node's brown-out must trigger a repair"
    );
    assert_eq!(base.metrics.epochs.len(), 4);
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            let label = format!("{dispatch:?}@{threads}t");
            assert_eq!(
                base.metrics.route_repairs, out.metrics.route_repairs,
                "{label}: route_repairs"
            );
            for (a, b) in base.metrics.epochs.iter().zip(&out.metrics.epochs) {
                assert_eq!(a.epoch, b.epoch, "{label}: epoch index");
                assert_eq!(a.newly_browned, b.newly_browned, "{label}: newly_browned");
                assert_eq!(
                    a.newly_stranded, b.newly_stranded,
                    "{label}: newly_stranded"
                );
                assert_eq!(a.rerouted, b.rerouted, "{label}: rerouted");
                assert_eq!(
                    a.packets_delivered.to_bits(),
                    b.packets_delivered.to_bits(),
                    "{label}: epoch {} delivered",
                    a.epoch
                );
                assert_eq!(
                    a.packets_originated.to_bits(),
                    b.packets_originated.to_bits(),
                    "{label}: epoch {} originated",
                    a.epoch
                );
            }
            for (x, y, field) in [
                (
                    base.metrics.packets_delivered,
                    out.metrics.packets_delivered,
                    "packets_delivered",
                ),
                (
                    base.metrics.relay_energy_j,
                    out.metrics.relay_energy_j,
                    "relay_energy_j",
                ),
                (
                    base.metrics.first_death_s,
                    out.metrics.first_death_s,
                    "first_death_s",
                ),
                (
                    base.metrics.residual_spread_j,
                    out.metrics.residual_spread_j,
                    "residual_spread_j",
                ),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: {field}");
            }
            for (i, (x, y)) in base.net.iter().zip(&out.net).enumerate() {
                assert_eq!(x, y, "{label}: node {i} net stats differ");
            }
            for (i, (a, b)) in base.per_node.iter().zip(&out.per_node).enumerate() {
                assert_metrics_bitwise_eq(a, b, i, &label);
            }
        }
    }
}

/// Parallel per-node preparation is bit-identical to sequential
/// preparation: same prepared fleet, same run output — for both the
/// homogeneous and the mixed-tick fleet shapes.
#[test]
fn parallel_prep_is_bit_identical_to_sequential() {
    for (spec, what) in [
        (homogeneous_spec(13), "homogeneous"),
        (mixed_tick_spec(11), "mixed-tick"),
    ] {
        let seq = FleetSimulator::new(spec.clone()).expect("sequential prep");
        for threads in [2, 8] {
            let par = FleetSimulator::prepare(spec.clone(), threads).expect("parallel prep");
            assert_eq!(seq.node_count(), par.node_count(), "{what}: node count");
            assert_eq!(tick_groups(&seq), tick_groups(&par), "{what}: tick groups");
            let a = seq.run(2).expect("sequential-prep fleet runs");
            let b = par.run(2).expect("parallel-prep fleet runs");
            for (i, (x, y)) in a.per_node.iter().zip(&b.per_node).enumerate() {
                assert_metrics_bitwise_eq(x, y, i, &format!("{what} prep@{threads}t"));
            }
            assert_eq!(
                a.metrics.packets_delivered.to_bits(),
                b.metrics.packets_delivered.to_bits(),
                "{what} prep@{threads}t: packets_delivered"
            );
            assert_eq!(
                a.metrics.residual_spread_j.to_bits(),
                b.metrics.residual_spread_j.to_bits(),
                "{what} prep@{threads}t: residual_spread_j"
            );
            for (i, (x, y)) in a.net.iter().zip(&b.net).enumerate() {
                assert_eq!(x, y, "{what} prep@{threads}t: node {i} net stats");
            }
        }
    }
}

/// The smallest-failing-node contract holds for *parallel* prep at
/// every thread count: validation is total (no node's check is
/// abandoned because another failed first), so the reported node is
/// always 4 — never 7, never a scheduling accident.
#[test]
fn smallest_failing_node_is_thread_count_invariant() {
    let mut spec = homogeneous_spec(9);
    spec.nodes[4].config.storage.capacitance = 0.0;
    spec.nodes[7].config.storage.capacitance = 0.0;
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::Node { node, .. }) => {
                assert_eq!(node, 4, "prep@{threads}t reported the wrong node")
            }
            Err(other) => panic!("prep@{threads}t: expected node error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: expected node error, got a fleet"),
        }
    }
}

/// The topology builds alongside node prep on more than one worker,
/// but its error still ranks after every node error: coincident
/// positions alone fail with the topology's error, and with a bad node
/// config too the node error wins — at every thread count.
#[test]
fn topology_error_ranks_after_node_errors_across_threads() {
    let mut spec = homogeneous_spec(9);
    spec.nodes[5].position = spec.nodes[2].position;
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::InvalidParameter { message }) => assert!(
                message.contains("coincident"),
                "prep@{threads}t: unexpected error {message}"
            ),
            Err(other) => panic!("prep@{threads}t: expected topology error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: coincident nodes accepted"),
        }
    }
    spec.nodes[6].config.storage.capacitance = 0.0;
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::Node { node, .. }) => assert_eq!(node, 6, "prep@{threads}t"),
            Err(other) => panic!("prep@{threads}t: expected node error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: expected node error, got a fleet"),
        }
    }
}

/// Environment-factory failures obey the same contract: with factory
/// failures at nodes 2 and 5 *and* a config failure at node 6, the
/// surfaced error is always node 2's environment error — across
/// every thread count, with no node's validation abandoned.
#[test]
fn env_factory_failure_reports_smallest_node_across_threads() {
    let mut spec = homogeneous_spec(9);
    spec.nodes[6].config.storage.capacitance = 0.0;
    let bad = [node_seed(spec.fleet_seed, 2), node_seed(spec.fleet_seed, 5)];
    let floor = FleetEnvironment::factory_floor();
    spec.environment = FleetEnvironment::new("failing-floor", move |seed| {
        if bad.contains(&seed) {
            Err(NetError::InvalidParameter {
                message: format!("synthetic factory failure for stream seed {seed}"),
            })
        } else {
            floor.source_for(seed)
        }
    });
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::InvalidParameter { message }) => {
                assert!(
                    message.starts_with("node 2:"),
                    "prep@{threads}t surfaced the wrong failure: {message}"
                );
            }
            Err(other) => panic!("prep@{threads}t: expected env error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: expected env error, got a fleet"),
        }
    }
}

// ---------------------------------------------------------------------------
// One-pass route epochs against the prefix-re-run oracle
// ---------------------------------------------------------------------------

use ehsim::net::FleetOutcome;
use ehsim::vibration::{Envelope, VibrationSource};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];
const DISPATCHES: [Dispatch; 2] = [Dispatch::Auto, Dispatch::PerSim];

/// Whole-outcome bit identity: per-node metrics, network accounts,
/// fleet metrics and every epoch audit. `Debug` renders each `f64` in
/// its shortest round-trip form, so for NaN-free outcomes equal
/// renderings mean equal bits.
fn assert_outcomes_bit_identical(a: &FleetOutcome, b: &FleetOutcome, label: &str) {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    assert!(!a.contains("NaN"), "{label}: outcome holds a NaN");
    assert_eq!(a, b, "{label}: outcome differs from the prefix oracle");
}

/// The one-pass run equals the prefix-re-run oracle bit for bit, at
/// E ∈ {1, 3, 16}, on 1/2/8 threads and every dispatch — for the
/// starved-node fleet (a mid-run brown-out and repair) and for a
/// mixed-tick fleet (two tick groups; boundaries round differently
/// per tick length).
#[test]
fn one_pass_epochs_match_prefix_oracle() {
    for (spec, what) in [
        (starved_node_spec(13), "starved"),
        (mixed_tick_spec(11), "mixed-tick"),
    ] {
        for epochs in [1, 3, 16] {
            let mut spec = spec.clone();
            spec.route_epochs = epochs;
            let fleet = FleetSimulator::new(spec).expect("valid fleet");
            let oracle = fleet
                .run_reference(1, Dispatch::PerSim)
                .expect("oracle runs");
            assert_eq!(oracle.metrics.epochs.len(), epochs);
            for threads in THREADS {
                for dispatch in DISPATCHES {
                    let label = format!("{what} E={epochs} {dispatch:?}@{threads}t");
                    let out = fleet
                        .run_with_dispatch(threads, dispatch)
                        .expect("fleet runs");
                    assert_outcomes_bit_identical(&out, &oracle, &label);
                }
            }
        }
    }
}

/// The factory floor, except that chosen nodes' sources turn
/// non-finite from a chosen time on — failing those nodes mid-run.
struct PoisonAfter {
    inner: Arc<dyn VibrationSource>,
    t_poison: f64,
}

impl VibrationSource for PoisonAfter {
    fn acceleration(&self, t: f64) -> f64 {
        self.inner.acceleration(t)
    }
    fn envelope(&self, t: f64) -> Envelope {
        let mut env = self.inner.envelope(t);
        if t >= self.t_poison {
            env.amp = f64::NAN;
        }
        env
    }
}

/// The prefix loop's error contract survives the one-pass node phase:
/// the run fails with the earliest epoch's failure, then the smallest
/// node failing in that epoch — on every thread count and dispatch,
/// exactly as the oracle does. In the homogeneous fleet node 7 fails
/// in epoch 1 and node 2 in epoch 5, so node 7 wins over the smaller
/// index. In the mixed-tick fleet nodes 2 and 7 both fail in epoch 1
/// and node 1 in epoch 5; node 7 alone runs the finer tick, so its
/// tick group is formed first, and node 2 must still win.
#[test]
fn earliest_epoch_failure_wins_over_smaller_node() {
    let mut mixed = homogeneous_spec(9);
    mixed.nodes[7].config.tick_s = 0.25;
    // 45 s in 8 epochs of 5.625 s: epoch 1 is (5.625, 11.25], epoch 5
    // is (28.125, 33.75].
    for (spec, poison, want) in [
        (homogeneous_spec(9), vec![(7, 8.0), (2, 30.0)], 7),
        (mixed, vec![(7, 8.0), (2, 9.0), (1, 30.0)], 2),
    ] {
        earliest_epoch_failure_wins(spec, &poison, want);
    }
}

/// Runs `spec` in 8 route epochs with node `i`'s source poisoned from
/// `t` on for each `(i, t)` in `poison`, and checks that node `want`'s
/// error is the one reported.
fn earliest_epoch_failure_wins(mut spec: FleetSpec, poison: &[(usize, f64)], want: usize) {
    spec.route_epochs = 8;
    let poison: Vec<(u64, f64)> = poison
        .iter()
        .map(|&(node, t)| (node_seed(spec.fleet_seed, node), t))
        .collect();
    let floor = FleetEnvironment::factory_floor();
    spec.environment = FleetEnvironment::new("poisoned-floor", move |seed| {
        let inner = floor.source_for(seed)?;
        Ok(match poison.iter().find(|(s, _)| *s == seed) {
            Some(&(_, t_poison)) => Arc::new(PoisonAfter { inner, t_poison }),
            None => inner,
        })
    });
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    let oracle = match fleet.run_reference(1, Dispatch::PerSim) {
        Err(NetError::Node { node, source }) if node == want => source.to_string(),
        other => panic!("oracle: expected node {want} to fail, got {other:?}"),
    };
    for threads in THREADS {
        for dispatch in DISPATCHES {
            for (run, what) in [
                (fleet.run_with_dispatch(threads, dispatch), "one-pass"),
                (fleet.run_reference(threads, dispatch), "oracle"),
            ] {
                match run {
                    Err(NetError::Node { node, source }) if node == want => assert_eq!(
                        source.to_string(),
                        oracle,
                        "{what} {dispatch:?}@{threads}t: error text"
                    ),
                    other => {
                        panic!(
                            "{what} {dispatch:?}@{threads}t: expected node {want}, got {other:?}"
                        )
                    }
                }
            }
        }
    }
}
