//! The fleet simulator: thousands of node simulations composed with a
//! radio/routing layer under one deterministic scheduler.
//!
//! # Execution model: node phase × route epochs
//!
//! A [`FleetSimulator::run`] interleaves two phases over
//! [`FleetSpec::route_epochs`] equal time slices:
//!
//! 1. **Node phase** — every node's `ehsim-node` simulation runs
//!    against its own vibration stream (seeds split from the fleet
//!    seed via [`crate::node_seed`]), through the node crate's lane
//!    dispatcher ([`ehsim_node::sched::run_lanes`]). It groups the
//!    nodes by tick length (bit for bit), so a mixed-tick fleet
//!    batches too, and cuts each group into chunks of at most
//!    [`MAX_BATCH_WIDTH`] lanes; a chunk of several nodes runs in the
//!    batch kernel and a chunk of one runs its [`PreparedSimulator`].
//!    The kernel is bit-identical lane-for-lane to the per-sim path,
//!    so **the node metrics do not depend on the dispatch strategy,
//!    the grouping or the thread count**. Per-node failures are
//!    captured individually ([`FleetSimulator::run_nodes`]); the
//!    aggregate entry points surface a typed [`NetError::Node`] (see
//!    [`FleetSimulator::run_with_dispatch`] for which node).
//!
//! 2. **Network phase** — a sequential, node-index-ordered energy
//!    accounting pass per epoch. Packets originate at each node
//!    (`packets_delivered` of the node simulation — the node's own
//!    radio cost is already inside its energy trace) and flow to the
//!    sink along the epoch's routing tree. Each relay pays
//!    [`RadioEnergyModel::hop_energy_j`] per forwarded packet out of
//!    its **energy headroom** — the stored energy above its brown-out
//!    threshold at the epoch boundary, minus what earlier epochs
//!    already spent (zero once the node has browned out). A relay
//!    whose epoch demand exceeds its available headroom forwards only
//!    the fraction it can afford (a deterministic fluid approximation:
//!    each packet stream is scaled by the product of its relays'
//!    forwarding fractions), and its extrapolated exhaustion time
//!    feeds the fleet's first-node-death indicator.
//!
//! **Route repair**: at each epoch boundary, relays that have browned
//! out are excluded and the energy-aware routes are recomputed on the
//! surviving graph ([`crate::Topology::energy_aware_routes`]), with an
//! epoch-by-epoch audit trail ([`EpochAudit`]) in [`FleetMetrics`] and
//! a typed [`NetError::Partitioned`] — under
//! [`PartitionPolicy::Error`] — instead of silent stranding.
//! [`RoutingPolicy::MinHop`] stays deliberately oblivious: its routes
//! are computed once and never repaired, making it the static
//! baseline route repair is measured against.
//!
//! The node phase runs **once** for all epochs: the tick loops emit a
//! snapshot at each epoch boundary
//! ([`ehsim_node::BatchSimulator::run_lanes_with_snapshots`],
//! [`PreparedSimulator::run_with_snapshots`]), bit-identical to a run
//! stopped there, so per-epoch deltas are exact. Each node keeps only
//! the compact per-epoch sample the accounting reads and full metrics
//! at the end. The prefix re-run — a node phase per boundary — stays
//! as the differential oracle ([`FleetSimulator::run_reference`]). At
//! `route_epochs = 1` the whole machinery collapses, bit for bit, to
//! the original single-accounting-pass fleet run (pinned by
//! `tests/fleet_equivalence.rs`).
//!
//! The network phase is plain sequential float arithmetic in a fixed
//! order, so the full [`FleetMetrics`] record inherits the node
//! phase's bit-exactness contract: identical [`FleetSpec`]s give
//! bit-identical metrics for any thread count and dispatch.

use crate::topology::Topology;
use crate::{NetError, Point, RadioEnergyModel, Result};
use ehsim_node::sched::{run_jobs, run_lanes, Excitation, LaneRun, MAX_BATCH_WIDTH};
use ehsim_node::{tick_count, NodeConfig, NodeMetrics, PreparedSimulator, SolverMode};
use ehsim_vibration::{FilteredNoise, VibrationSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// How packets are routed to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Fewest hops ([`Topology::min_hop_routes`]); oblivious to node
    /// energy state — routes may pass through browned-out relays,
    /// whose zero headroom then drops the traffic.
    MinHop,
    /// Cheapest total per-packet relay energy, never relaying through
    /// a browned-out node ([`Topology::energy_aware_routes`]).
    EnergyAware,
}

/// What a fleet run does when an epoch's routing leaves nodes with no
/// path to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Record stranded nodes in the [`EpochAudit`] trail and in
    /// [`FleetMetrics::unreachable_nodes`], and carry on — their
    /// traffic simply never arrives (the default, and the historical
    /// behaviour).
    Tolerate,
    /// Fail the run with a typed [`NetError::Partitioned`] naming the
    /// earliest affected epoch and its smallest stranded node — no
    /// silent stranding.
    Error,
}

/// Audit record of one route epoch — the per-epoch trail
/// [`FleetMetrics::epochs`] carries so a fleet run can show *when*
/// relays dropped out, *whether* repair rerouted around them, and
/// *what* each slice of the run actually delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochAudit {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Epoch start time (s).
    pub t_start_s: f64,
    /// Epoch end time (s).
    pub t_end_s: f64,
    /// Relays excluded from this epoch's routes (browned out by the
    /// epoch's end; always 0 under [`RoutingPolicy::MinHop`], which
    /// never excludes).
    pub excluded_relays: u32,
    /// Nodes newly browned out during this epoch (ascending indices).
    pub newly_browned: Vec<usize>,
    /// Whether routes were recomputed at this epoch's boundary (always
    /// `false` for epoch 0 — the initial routes — and under min-hop
    /// routing).
    pub rerouted: bool,
    /// Nodes with no route to the sink under this epoch's routes.
    pub unreachable_nodes: u32,
    /// Nodes that *lost* their route at this boundary — reachable
    /// under the previous epoch's routes, stranded under this one
    /// (ascending indices; empty for epoch 0).
    pub newly_stranded: Vec<usize>,
    /// Packets originated fleet-wide during this epoch.
    pub packets_originated: f64,
    /// Packets delivered to the sink during this epoch (fluid count).
    pub packets_delivered: f64,
}

/// One node of the fleet: its simulator configuration and position.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// Node-simulator configuration.
    pub config: NodeConfig,
    /// Position (m).
    pub position: Point,
}

/// A deterministic per-node vibration-environment factory: given a
/// node's stream seed (from [`crate::node_seed`]), produces that
/// node's [`VibrationSource`]. Cloning shares the factory.
#[derive(Clone)]
pub struct FleetEnvironment {
    label: String,
    make: Arc<dyn Fn(u64) -> Result<Arc<dyn VibrationSource>> + Send + Sync>,
}

impl FleetEnvironment {
    /// Wraps a seed-to-source factory under a display label. The
    /// factory is fallible (determinism rule D4: no `expect` in
    /// library code) — a draw outside a source's valid range surfaces
    /// as a typed [`NetError`] from [`FleetSimulator::new`] instead of
    /// aborting mid-prep.
    pub fn new(
        label: impl Into<String>,
        make: impl Fn(u64) -> Result<Arc<dyn VibrationSource>> + Send + Sync + 'static,
    ) -> Self {
        FleetEnvironment {
            label: label.into(),
            make: Arc::new(make),
        }
    }

    /// The canonical fleet environment: every node bolted to a
    /// different spot of the same nominal-64 Hz machinery floor. The
    /// stream seed drives the *spatial* variation — each mounting
    /// point sees its own dominant frequency (61–67 Hz) and vibration
    /// level (0.65–0.95 m/s² RMS) plus its own noise realisation — so
    /// two nodes of one fleet never share an excitation trajectory,
    /// and a node's harvester tuning actually has per-node work to do.
    pub fn factory_floor() -> Self {
        FleetEnvironment::new("factory-floor-64Hz", |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let resonance_hz = 64.0 + 6.0 * (rng.random::<f64>() - 0.5);
            let rms = 0.65 + 0.3 * rng.random::<f64>();
            let source = FilteredNoise::new(resonance_hz, 8.0, (40.0, 90.0), rms, 24, seed)
                .map_err(|e| {
                    NetError::invalid(format!("factory-floor source for stream seed {seed}: {e}"))
                })?;
            Ok(Arc::new(source) as Arc<dyn VibrationSource>)
        })
    }

    /// Display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Instantiates the source for one node's stream seed.
    ///
    /// # Errors
    ///
    /// Propagates the factory's typed error (e.g. a drawn parameter
    /// outside the source's valid range).
    pub fn source_for(&self, seed: u64) -> Result<Arc<dyn VibrationSource>> {
        (self.make)(seed)
    }
}

impl fmt::Debug for FleetEnvironment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetEnvironment")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Complete, declarative description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The nodes (configs + positions).
    pub nodes: Vec<FleetNode>,
    /// Sink position (m); the sink is mains-powered.
    pub sink: Point,
    /// Radio range linking vertices into the topology (m).
    pub range_m: f64,
    /// Per-bit radio energy model for relay traffic.
    pub radio: RadioEnergyModel,
    /// Application packet size on the air (bits).
    pub payload_bits: u64,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// Fleet master seed; per-node vibration streams are split from it
    /// via [`crate::node_seed`].
    pub fleet_seed: u64,
    /// Per-node vibration-environment factory.
    pub environment: FleetEnvironment,
    /// PPU solver mode for every node simulation.
    pub solver: SolverMode,
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Number of route epochs the run is sliced into (≥ 1, and at most
    /// the tick count of the longest node run). At 1 the run
    /// reproduces the original static-routing accounting bit for bit;
    /// larger values buy mid-run route repair around browned-out
    /// relays. The node phase still runs once, snapshotting at every
    /// epoch boundary, so `E` epochs cost one node phase plus `E`
    /// accounting passes.
    pub route_epochs: usize,
    /// What to do when an epoch's routing leaves nodes stranded.
    pub on_partition: PartitionPolicy,
}

impl FleetSpec {
    /// A homogeneous fleet: one config replicated over `positions`.
    pub fn homogeneous(
        config: NodeConfig,
        positions: Vec<Point>,
        sink: Point,
        range_m: f64,
        duration_s: f64,
    ) -> Self {
        FleetSpec {
            nodes: positions
                .into_iter()
                .map(|position| FleetNode {
                    config: config.clone(),
                    position,
                })
                .collect(),
            sink,
            range_m,
            radio: RadioEnergyModel::typical(),
            payload_bits: 1024,
            routing: RoutingPolicy::EnergyAware,
            fleet_seed: 0x5EED_F1EE,
            environment: FleetEnvironment::factory_floor(),
            solver: SolverMode::Exact,
            duration_s,
            route_epochs: 1,
            on_partition: PartitionPolicy::Tolerate,
        }
    }
}

/// Node-phase dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Batched chunks of up to [`MAX_BATCH_WIDTH`] nodes per tick
    /// group (the default).
    Auto,
    /// One-node chunks, each running its own [`PreparedSimulator`]
    /// (a test option: the per-sim side of the differential suites).
    PerSim,
}

/// Network-layer per-node account after a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeNetStats {
    /// Packets the node's own simulation delivered into the network.
    pub originated: f64,
    /// Packets from this node that reached the sink (fluid count).
    pub delivered: f64,
    /// Route length in hops, `None` if the sink is unreachable.
    pub hops_to_sink: Option<usize>,
    /// Relay energy demanded of this node by others' traffic (J).
    pub relay_demand_j: f64,
    /// Relay energy actually spent (after forwarding scaling) (J).
    pub relay_spent_j: f64,
    /// Energy headroom above brown-out at end of run (J); zero if the
    /// node browned out during the run.
    pub headroom_j: f64,
    /// Headroom left after relay spending (J).
    pub residual_j: f64,
    /// Whether the node browned out during its own simulation.
    pub browned_out: bool,
    /// Whether relay demand exhausted the node's headroom.
    pub dead: bool,
    /// Extrapolated relay-exhaustion time (s), when `dead`.
    pub death_s: Option<f64>,
}

/// Fleet-level indicators of one run — the DoE response record.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Fleet size.
    pub n_nodes: usize,
    /// Total packets originated by node simulations.
    pub packets_originated: f64,
    /// Total packets that reached the sink (fluid count).
    pub packets_delivered: f64,
    /// `packets_delivered / packets_originated` (1 when nothing was
    /// originated).
    pub delivery_fraction: f64,
    /// Total relay energy spent fleet-wide (J).
    pub relay_energy_j: f64,
    /// Mean relay energy per forwarded packet-hop (J).
    pub mean_hop_relay_energy_j: f64,
    /// Earliest relay-exhaustion time (s); `duration_s` if no node
    /// died relaying.
    pub first_death_s: f64,
    /// Nodes whose relay demand exhausted their headroom.
    pub dead_nodes: u32,
    /// Nodes that browned out during their own simulation.
    pub browned_out_nodes: u32,
    /// Nodes with no route to the sink.
    pub unreachable_nodes: u32,
    /// Mean end-of-run residual headroom (J).
    pub residual_mean_j: f64,
    /// Population standard deviation of residual headroom (J) — the
    /// energy-balance spread across the fleet.
    pub residual_spread_j: f64,
    /// Worst per-node brown-out margin `min_v_store − v_off` (V).
    pub min_brownout_margin_v: f64,
    /// Mean per-node uptime fraction.
    pub mean_uptime_fraction: f64,
    /// Epoch boundaries at which routes were actually recomputed
    /// (exclusion set changed); 0 for a static-routing run.
    pub route_repairs: u32,
    /// The epoch-by-epoch audit trail (one entry per route epoch).
    pub epochs: Vec<EpochAudit>,
}

/// Everything a fleet run produces: raw node metrics, the network
/// accounts, and the fleet-level indicator record.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Phase-1 node-simulation metrics, node-indexed.
    pub per_node: Vec<NodeMetrics>,
    /// Phase-2 network accounts, node-indexed.
    pub net: Vec<NodeNetStats>,
    /// Fleet-level indicators.
    pub metrics: FleetMetrics,
}

/// What the network accounting reads of one node at one epoch
/// boundary — all a run keeps of an intermediate snapshot.
#[derive(Debug, Clone, Copy)]
struct EpochSample {
    packets_delivered: u64,
    final_v_store: f64,
    browned: bool,
}

impl From<&NodeMetrics> for EpochSample {
    fn from(m: &NodeMetrics) -> Self {
        EpochSample {
            packets_delivered: m.packets_delivered,
            final_v_store: m.final_v_store,
            browned: m.brownout_count > 0,
        }
    }
}

/// Prepared, validated fleet: every node's simulator constructed once,
/// vibration streams split, topology built.
pub struct FleetSimulator {
    spec: FleetSpec,
    prepared: Vec<PreparedSimulator>,
    sources: Vec<Arc<dyn VibrationSource>>,
    topology: Topology,
}

impl FleetSimulator {
    /// Validates the spec, prepares every node simulator, derives
    /// per-node vibration streams and builds the topology — on one
    /// thread. Equivalent to [`FleetSimulator::prepare`]`(spec, 1)`.
    ///
    /// # Errors
    ///
    /// As [`FleetSimulator::prepare`].
    pub fn new(spec: FleetSpec) -> Result<Self> {
        Self::prepare(spec, 1)
    }

    /// Validates the spec and prepares every node — simulator
    /// construction *and* vibration-source instantiation fused into
    /// one per-node job — on the deterministic self-scheduling queue
    /// across `threads` workers, and builds the topology (grid-bucket,
    /// `O(n + links)`) on one more thread alongside them when `threads`
    /// exceeds 1.
    ///
    /// **Determinism contract**: per-node preparation is *total* — a
    /// failure at node `i` never abandons the validation of any node
    /// `j > i` — and the surfaced error is always the **smallest
    /// failing node index**, whatever the thread count. (A node's
    /// config error takes precedence over its own environment error,
    /// since the config is validated first within the fused job; across
    /// nodes, only the index decides.)
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidParameter`] for an empty fleet, a
    /// non-positive payload, an invalid duration, zero route epochs or
    /// more route epochs than the longest node run has ticks, an
    /// invalid topology, or an environment-factory failure (smallest
    /// failing node); [`NetError::Node`] (smallest failing index) if a
    /// node config fails preparation or its run would exceed
    /// [`ehsim_node::MAX_TICKS`].
    pub fn prepare(spec: FleetSpec, threads: usize) -> Result<Self> {
        if spec.nodes.is_empty() {
            return Err(NetError::invalid("fleet needs at least one node"));
        }
        if spec.payload_bits == 0 {
            return Err(NetError::invalid("payload must be at least one bit"));
        }
        if !(spec.duration_s > 0.0) || !spec.duration_s.is_finite() {
            return Err(NetError::invalid(format!(
                "duration must be positive and finite, got {}",
                spec.duration_s
            )));
        }
        if spec.route_epochs == 0 {
            return Err(NetError::invalid(
                "route_epochs must be at least 1 (1 = static routing)",
            ));
        }
        // Total validation: the queue runs every node's job, and the
        // ascending scan below makes the smallest-failing-node error
        // thread-count-invariant.
        let prep_node = |i: usize| {
            let prepared =
                PreparedSimulator::with_solver(spec.nodes[i].config.clone(), spec.solver)
                    .map_err(|source| NetError::Node { node: i, source })?;
            let ticks = tick_count(spec.duration_s, prepared.config().tick_s)
                .map_err(|source| NetError::Node { node: i, source })?;
            let source = spec
                .environment
                .source_for(crate::node_seed(spec.fleet_seed, i))
                .map_err(|e| NetError::invalid(format!("node {i}: {e}")))?;
            Ok((prepared, ticks, source))
        };
        // With more than one worker the topology builds alongside node
        // prep; its error still ranks after every node error.
        let positions: Vec<Point> = spec.nodes.iter().map(|n| n.position).collect();
        let build_topology = || Topology::new(positions, spec.sink, spec.range_m);
        let (results, topology) = if threads > 1 {
            std::thread::scope(|scope| {
                let topology = scope.spawn(build_topology);
                let results = run_jobs(spec.nodes.len(), threads, prep_node);
                (results, topology.join())
            })
        } else {
            let results = run_jobs(spec.nodes.len(), threads, prep_node);
            (results, Ok(build_topology()))
        };
        let topology = topology.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let mut sources: Vec<Arc<dyn VibrationSource>> = Vec::with_capacity(spec.nodes.len());
        let mut max_ticks = 0;
        // Collected in place: the simulators reuse the results buffer,
        // and the smaller elements leave a tail that is given back below.
        let mut prepared = results
            .into_iter()
            .map(|r| {
                let (p, ticks, s) = r?;
                max_ticks = max_ticks.max(ticks);
                sources.push(s);
                Ok(p)
            })
            .collect::<Result<Vec<_>>>()?;
        prepared.shrink_to_fit();
        // An epoch needs at least one tick of some node: this bounds
        // every per-epoch allocation by the work of the node phase.
        if spec.route_epochs > max_ticks {
            return Err(NetError::invalid(format!(
                "route_epochs = {} exceeds the {max_ticks} ticks of the fleet's longest \
                 node run",
                spec.route_epochs
            )));
        }
        let topology = topology?;
        Ok(FleetSimulator {
            spec,
            prepared,
            sources,
            topology,
        })
    }

    /// The spec this simulator was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Fleet size.
    pub fn node_count(&self) -> usize {
        self.prepared.len()
    }

    /// The prepared per-node simulators (oracle access for the
    /// differential suite).
    pub fn prepared(&self) -> &[PreparedSimulator] {
        &self.prepared
    }

    /// The per-node vibration sources, node-indexed (oracle access
    /// for the differential suite).
    pub fn sources(&self) -> &[Arc<dyn VibrationSource>] {
        &self.sources
    }

    /// Runs phase 1 only, returning each node's own `Result` — lane
    /// failures do not disturb other nodes.
    ///
    /// # Errors
    ///
    /// None for a prepared fleet; the `Result` reports a node phase
    /// that could not be set up.
    pub fn run_nodes(
        &self,
        threads: usize,
        dispatch: Dispatch,
    ) -> Result<Vec<ehsim_node::Result<NodeMetrics>>> {
        self.run_nodes_for(threads, dispatch, self.spec.duration_s)
    }

    /// Phase 1 truncated to `duration_s` — the prefix oracle runs this
    /// at every epoch boundary.
    fn run_nodes_for(
        &self,
        threads: usize,
        dispatch: Dispatch,
        duration_s: f64,
    ) -> Result<Vec<ehsim_node::Result<NodeMetrics>>> {
        let lanes = self.node_phase(threads, dispatch, &[duration_s])?;
        Ok(lanes.into_iter().map(|lane| lane.result).collect())
    }

    /// Phase 1 to the last of `bounds` in one pass on the node crate's
    /// lane dispatcher, in node order. Each node reduces its snapshots
    /// at the earlier bounds to compact samples and keeps full metrics
    /// only at the last.
    fn node_phase(
        &self,
        threads: usize,
        dispatch: Dispatch,
        bounds: &[f64],
    ) -> Result<Vec<LaneRun<EpochSample>>> {
        let max_width = match dispatch {
            Dispatch::Auto => MAX_BATCH_WIDTH,
            Dispatch::PerSim => 1,
        };
        let sources: Vec<&dyn VibrationSource> = self.sources.iter().map(|s| s.as_ref()).collect();
        run_lanes(
            &self.prepared,
            Excitation::PerLane {
                sources: &sources,
                bounds,
            },
            threads,
            max_width,
            |m| EpochSample::from(m),
        )
        .map_err(|e| NetError::invalid(format!("node phase: {e}")))
    }

    /// Runs the fleet with auto dispatch.
    ///
    /// # Errors
    ///
    /// [`NetError::Node`] with the **smallest failing node index** if
    /// any node simulation fails.
    pub fn run(&self, threads: usize) -> Result<FleetOutcome> {
        self.run_with_dispatch(threads, Dispatch::Auto)
    }

    /// Runs the fleet with an explicit dispatch strategy.
    ///
    /// # Errors
    ///
    /// [`NetError::Node`] for the **earliest epoch** in which a node
    /// simulation fails, and the smallest node failing in it — what
    /// the prefix oracle ([`FleetSimulator::run_reference`]) reports.
    pub fn run_with_dispatch(&self, threads: usize, dispatch: Dispatch) -> Result<FleetOutcome> {
        let bounds = self.epoch_bounds();
        let inner = bounds.len() - 1;
        let lanes = self.node_phase(threads, dispatch, &bounds)?;

        // The prefix loop's error contract: the first epoch at which
        // any node has failed, then the smallest node failing there. A
        // failed lane's snapshot count is that epoch.
        let mut per_node = Vec::with_capacity(lanes.len());
        let mut samples = Vec::with_capacity(lanes.len());
        let mut failed: Option<(usize, usize, ehsim_node::NodeError)> = None;
        for (node, lane) in lanes.into_iter().enumerate() {
            let epoch = lane.snapshots.len();
            match lane.result {
                Ok(m) => per_node.push(m),
                Err(source) => {
                    if failed.as_ref().is_none_or(|f| epoch < f.0) {
                        failed = Some((epoch, node, source));
                    }
                }
            }
            samples.push(lane.snapshots);
        }
        if let Some((_, node, source)) = failed {
            return Err(NetError::Node { node, source });
        }
        let (net, metrics) = self.network_accounting(&bounds, &per_node, |e, i| {
            if e == inner {
                EpochSample::from(&per_node[i])
            } else {
                samples[i][e]
            }
        })?;
        Ok(FleetOutcome {
            per_node,
            net,
            metrics,
        })
    }

    /// The prefix-re-run oracle for [`FleetSimulator::run_with_dispatch`]:
    /// one full node phase per epoch boundary, each truncated to the
    /// boundary, then the same network accounting. Costs about
    /// `(E+1)/2` node phases and holds every snapshot; kept only for
    /// the differential suites.
    ///
    /// # Errors
    ///
    /// As [`FleetSimulator::run_with_dispatch`].
    #[doc(hidden)]
    pub fn run_reference(&self, threads: usize, dispatch: Dispatch) -> Result<FleetOutcome> {
        let bounds = self.epoch_bounds();
        let mut snapshots: Vec<Vec<NodeMetrics>> = Vec::with_capacity(bounds.len());
        for &t_end in &bounds {
            let lanes = self.run_nodes_for(threads, dispatch, t_end)?;
            let mut snap = Vec::with_capacity(lanes.len());
            for (i, lane) in lanes.into_iter().enumerate() {
                match lane {
                    Ok(m) => snap.push(m),
                    Err(source) => return Err(NetError::Node { node: i, source }),
                }
            }
            snapshots.push(snap);
        }
        let Some(per_node) = snapshots.last() else {
            // route_epochs ≥ 1 is validated at prep; unreachable.
            return Err(NetError::invalid("fleet run produced no snapshots"));
        };
        let (net, metrics) = self.network_accounting(&bounds, per_node, |e, i| {
            EpochSample::from(&snapshots[e][i])
        })?;
        Ok(FleetOutcome {
            per_node: per_node.clone(),
            net,
            metrics,
        })
    }

    /// The epoch boundaries `t_1 … t_E` (s). The last is `duration_s`
    /// itself — not `duration_s·E/E`, which need not round to the same
    /// bits.
    fn epoch_bounds(&self) -> Vec<f64> {
        let epochs = self.spec.route_epochs;
        let duration_s = self.spec.duration_s;
        (1..=epochs)
            .map(|e| {
                if e == epochs {
                    duration_s
                } else {
                    duration_s * e as f64 / epochs as f64
                }
            })
            .collect()
    }

    /// The network phase: a sequential energy-accounting pass per
    /// route epoch, in epoch order, over each node's sample at the
    /// epoch's end boundary (`sample(e, i)`; `bounds[e]` is that
    /// boundary, and `per_node` holds the full-run metrics).
    ///
    /// With one epoch this is exactly the original single-pass
    /// accounting — every epoch-generalised expression reduces bit
    /// for bit to its static form (pinned by
    /// `tests/fleet_equivalence.rs`).
    fn network_accounting(
        &self,
        bounds: &[f64],
        per_node: &[NodeMetrics],
        sample: impl Fn(usize, usize) -> EpochSample,
    ) -> Result<(Vec<NodeNetStats>, FleetMetrics)> {
        let n = per_node.len();
        let sink = self.topology.sink_index();
        let duration_s = self.spec.duration_s;
        let radio = &self.spec.radio;
        let bits = self.spec.payload_bits;

        let vpos = |v: usize| {
            if v == sink {
                self.topology.sink()
            } else {
                self.topology.position(v)
            }
        };
        let rx_e = radio.rx_energy_j(bits);

        // Cumulative state threaded across epochs.
        let mut spent = vec![0.0f64; n];
        let mut originated_total = vec![0.0f64; n];
        let mut delivered_total = vec![0.0f64; n];
        let mut demand_total = vec![0.0f64; n];
        let mut death_s: Vec<Option<f64>> = vec![None; n];
        let mut first_death_s = duration_s;
        let mut relay_hops = 0.0f64;
        let mut prev_packets: Vec<u64> = vec![0; n];
        let mut prev_browned = vec![false; n];
        let mut prev_reachable: Vec<bool> = Vec::new();
        // Each node's path under the current routes, and the
        // per-packet energy of relaying through it — receive then
        // transmit (`hop_e`), transmit alone (`tx_e`) — over its first
        // hop; recomputed only with the routes.
        let mut paths: Vec<Option<Vec<usize>>> = Vec::new();
        let mut hop_e = vec![0.0f64; n];
        let mut tx_e = vec![0.0f64; n];
        let mut route_repairs = 0u32;
        let mut audits: Vec<EpochAudit> = Vec::with_capacity(bounds.len());
        let mut t_prev = 0.0f64;
        let mut last_headroom = vec![0.0f64; n];

        for (e, &t_end) in bounds.iter().enumerate() {
            let snap: Vec<EpochSample> = (0..n).map(|i| sample(e, i)).collect();
            // Brown-outs are cumulative (each snapshot is a prefix of
            // the next), so `browned` only ever grows across epochs.
            let browned: Vec<bool> = snap.iter().map(|m| m.browned).collect();
            let newly_browned: Vec<usize> =
                (0..n).filter(|&i| browned[i] && !prev_browned[i]).collect();

            // Route repair: energy-aware routes are recomputed
            // whenever the exclusion set changed; min-hop stays the
            // static baseline (computed once, never repaired).
            let recompute = e == 0
                || (self.spec.routing == RoutingPolicy::EnergyAware && browned != prev_browned);
            let rerouted = recompute && e > 0;
            if recompute {
                let r = match self.spec.routing {
                    RoutingPolicy::MinHop => self.topology.min_hop_routes(),
                    RoutingPolicy::EnergyAware => {
                        self.topology.energy_aware_routes(radio, bits, &browned)?
                    }
                };
                if rerouted {
                    route_repairs += 1;
                }
                paths = (0..n).map(|i| r.path(i).ok()).collect();
                for (u, path) in paths.iter().enumerate() {
                    if let Some(&next) = path.as_ref().and_then(|p| p.get(1)) {
                        let d = vpos(u).distance_m(&vpos(next));
                        hop_e[u] = radio.hop_energy_j(bits, d);
                        tx_e[u] = radio.tx_energy_j(bits, d);
                    }
                }
            }
            if self.spec.on_partition == PartitionPolicy::Error {
                if let Some(node) = (0..n).find(|&i| paths[i].is_none()) {
                    return Err(NetError::Partitioned { epoch: e, node });
                }
            }
            let newly_stranded: Vec<usize> = if e == 0 {
                Vec::new()
            } else {
                (0..n)
                    .filter(|&i| prev_reachable[i] && paths[i].is_none())
                    .collect()
            };

            // Headroom at this epoch's boundary: stored energy above
            // the brown-out threshold (zero once browned out), less
            // what earlier epochs' relaying already spent.
            let headroom: Vec<f64> = (0..n)
                .map(|i| {
                    if browned[i] {
                        0.0
                    } else {
                        let cfg = self.prepared[i].config();
                        (cfg.storage.energy_j(snap[i].final_v_store)
                            - cfg.storage.energy_j(cfg.thresholds.v_off))
                        .max(0.0)
                    }
                })
                .collect();
            let available: Vec<f64> = (0..n).map(|u| (headroom[u] - spent[u]).max(0.0)).collect();

            // Packets this epoch: exact prefix deltas.
            let originated: Vec<f64> = (0..n)
                .map(|i| snap[i].packets_delivered.saturating_sub(prev_packets[i]) as f64)
                .collect();

            // Pass 1 — relay demand at full (unscaled) epoch traffic.
            let mut demand = vec![0.0f64; n];
            for i in 0..n {
                let Some(path) = &paths[i] else { continue };
                for &u in &path[1..path.len() - 1] {
                    demand[u] += originated[i] * hop_e[u];
                }
            }

            // Forwarding fraction: what share of its demanded traffic
            // each relay can still afford.
            let scale: Vec<f64> = (0..n)
                .map(|u| {
                    if demand[u] > available[u] && demand[u] > 0.0 {
                        available[u] / demand[u]
                    } else {
                        1.0
                    }
                })
                .collect();

            // Pass 2 — fluid flow: each stream attenuates through its
            // relays' forwarding fractions; relays pay rx on what
            // arrives and tx on what they forward.
            let mut delivered = vec![0.0f64; n];
            for i in 0..n {
                let Some(path) = &paths[i] else { continue };
                let mut flow = originated[i];
                for &u in &path[1..path.len() - 1] {
                    let arriving = flow;
                    flow *= scale[u];
                    spent[u] += arriving * rx_e + flow * tx_e[u];
                    relay_hops += arriving;
                }
                delivered[i] = flow;
            }

            // Relay death: extrapolated exhaustion time, within this
            // epoch, of over-demanded relays that had survived their
            // own duty cycle. First death wins per node.
            for u in 0..n {
                if !browned[u] && demand[u] > available[u] && death_s[u].is_none() {
                    let t = t_prev + (t_end - t_prev) * available[u] / demand[u];
                    if t < first_death_s {
                        first_death_s = t;
                    }
                    death_s[u] = Some(t);
                }
            }

            for i in 0..n {
                originated_total[i] += originated[i];
                delivered_total[i] += delivered[i];
                demand_total[i] += demand[i];
            }
            audits.push(EpochAudit {
                epoch: e,
                t_start_s: t_prev,
                t_end_s: t_end,
                excluded_relays: match self.spec.routing {
                    RoutingPolicy::MinHop => 0,
                    RoutingPolicy::EnergyAware => browned.iter().filter(|&&b| b).count() as u32,
                },
                newly_browned,
                rerouted,
                unreachable_nodes: paths.iter().filter(|p| p.is_none()).count() as u32,
                newly_stranded,
                packets_originated: originated.iter().sum(),
                packets_delivered: delivered.iter().sum(),
            });

            prev_reachable = paths.iter().map(|p| p.is_some()).collect();
            for i in 0..n {
                prev_packets[i] = snap[i].packets_delivered;
            }
            prev_browned = browned;
            last_headroom = headroom;
            t_prev = t_end;
        }

        let residual: Vec<f64> = (0..n)
            .map(|u| (last_headroom[u] - spent[u]).max(0.0))
            .collect();
        let residual_mean = residual.iter().sum::<f64>() / n as f64;
        let residual_spread = (residual
            .iter()
            .map(|r| (r - residual_mean) * (r - residual_mean))
            .sum::<f64>()
            / n as f64)
            .sqrt();

        let packets_originated: f64 = originated_total.iter().sum();
        let packets_delivered: f64 = delivered_total.iter().sum();
        let relay_energy_j: f64 = spent.iter().sum();
        let dead_nodes = death_s.iter().filter(|d| d.is_some()).count() as u32;
        let min_brownout_margin_v = (0..n)
            .map(|i| per_node[i].min_v_store - self.prepared[i].config().thresholds.v_off)
            .fold(f64::INFINITY, f64::min);
        let mean_uptime_fraction =
            per_node.iter().map(|m| m.uptime_fraction).sum::<f64>() / n as f64;

        let net: Vec<NodeNetStats> = (0..n)
            .map(|i| NodeNetStats {
                originated: originated_total[i],
                delivered: delivered_total[i],
                hops_to_sink: paths[i].as_ref().map(|p| p.len() - 1),
                relay_demand_j: demand_total[i],
                relay_spent_j: spent[i],
                headroom_j: last_headroom[i],
                residual_j: residual[i],
                browned_out: prev_browned[i],
                dead: death_s[i].is_some(),
                death_s: death_s[i],
            })
            .collect();

        let metrics = FleetMetrics {
            duration_s,
            n_nodes: n,
            packets_originated,
            packets_delivered,
            delivery_fraction: if packets_originated > 0.0 {
                packets_delivered / packets_originated
            } else {
                1.0
            },
            relay_energy_j,
            mean_hop_relay_energy_j: if relay_hops > 0.0 {
                relay_energy_j / relay_hops
            } else {
                0.0
            },
            first_death_s,
            dead_nodes,
            browned_out_nodes: prev_browned.iter().filter(|&&b| b).count() as u32,
            unreachable_nodes: paths.iter().filter(|p| p.is_none()).count() as u32,
            residual_mean_j: residual_mean,
            residual_spread_j: residual_spread,
            min_brownout_margin_v,
            mean_uptime_fraction,
            route_repairs,
            epochs: audits,
        };
        Ok((net, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn tiny_spec(n: usize, duration_s: f64) -> FleetSpec {
        let positions = Placement::UniformRandom {
            n,
            width_m: 60.0,
            height_m: 60.0,
            seed: 11,
        }
        .positions()
        .unwrap();
        let mut cfg = NodeConfig::default_node();
        cfg.tick_s = 0.5;
        FleetSpec::homogeneous(cfg, positions, Point::new(30.0, 30.0), 25.0, duration_s)
    }

    #[test]
    fn fleet_runs_and_accounts() {
        let fleet = FleetSimulator::new(tiny_spec(12, 30.0)).unwrap();
        let out = fleet.run(2).unwrap();
        assert_eq!(out.per_node.len(), 12);
        assert_eq!(out.net.len(), 12);
        let m = &out.metrics;
        assert!(m.packets_delivered <= m.packets_originated);
        assert!((0.0..=1.0).contains(&m.delivery_fraction));
        assert!(m.first_death_s <= m.duration_s);
        assert!(m.relay_energy_j >= 0.0);
    }

    #[test]
    fn thread_count_and_dispatch_do_not_change_bits() {
        let fleet = FleetSimulator::new(tiny_spec(10, 30.0)).unwrap();
        let base = fleet.run_with_dispatch(1, Dispatch::PerSim).unwrap();
        for (threads, dispatch) in [
            (1, Dispatch::Auto),
            (4, Dispatch::Auto),
            (4, Dispatch::PerSim),
        ] {
            let out = fleet.run_with_dispatch(threads, dispatch).unwrap();
            assert_eq!(
                base.metrics.packets_delivered.to_bits(),
                out.metrics.packets_delivered.to_bits()
            );
            assert_eq!(
                base.metrics.residual_spread_j.to_bits(),
                out.metrics.residual_spread_j.to_bits()
            );
            for (a, b) in base.per_node.iter().zip(&out.per_node) {
                assert_eq!(a.final_v_store.to_bits(), b.final_v_store.to_bits());
            }
        }
    }

    /// More route epochs than the longest node run has ticks is a
    /// typed error at prep — never a capacity overflow at run time.
    #[test]
    fn route_epochs_bounded_by_longest_node_run() {
        // 30 s at 0.5 s = 60 ticks; one node at 0.25 s runs 120.
        for (fine_node, ticks) in [(false, 60), (true, 120)] {
            let mut spec = tiny_spec(6, 30.0);
            if fine_node {
                spec.nodes[4].config.tick_s = 0.25;
            }
            for bad in [usize::MAX, ticks + 1] {
                spec.route_epochs = bad;
                match FleetSimulator::new(spec.clone()) {
                    Err(NetError::InvalidParameter { message }) => {
                        assert!(message.contains("route_epochs"), "{message}")
                    }
                    Err(other) => panic!("route_epochs = {bad}: got {other:?}"),
                    Ok(_) => panic!("route_epochs = {bad} accepted"),
                }
            }
            spec.route_epochs = ticks;
            let fleet = FleetSimulator::new(spec).unwrap();
            let out = fleet.run(2).unwrap();
            let oracle = fleet.run_reference(1, Dispatch::PerSim).unwrap();
            assert_eq!(out.metrics.epochs.len(), ticks);
            assert_eq!(format!("{out:?}"), format!("{oracle:?}"));
        }
    }

    #[test]
    fn empty_fleet_and_zero_payload_rejected() {
        let mut spec = tiny_spec(3, 10.0);
        spec.payload_bits = 0;
        assert!(FleetSimulator::new(spec).is_err());
        let mut spec = tiny_spec(3, 10.0);
        spec.nodes.clear();
        assert!(FleetSimulator::new(spec).is_err());
        let mut spec = tiny_spec(3, 10.0);
        spec.duration_s = f64::INFINITY;
        assert!(FleetSimulator::new(spec).is_err());
    }
}
