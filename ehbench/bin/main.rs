//! `ehbench`: the repository benchmark.
//!
//! ```text
//! ehbench --workload <paper_flow|fleet_epochs|sequential_ensemble>
//!         --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from
//! the seed, times the set-up several times, runs one unmeasured
//! reference iteration through the library's own composite entry
//! points, then repeats the measured iteration for `--seconds`. Every
//! iteration must reproduce the reference digest bit for bit. With
//! `--trace 1` the time is split between an untraced and a traced pass,
//! and layer probes run after them. The last line of standard output is
//! the JSON result; `README.md` beside this file documents the metrics.

mod fleet_epochs;
mod paper_flow;
mod probe;
mod sequential;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (reported with `--trace 0`), with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported with `--trace 1`), with their units. A
/// layer that a workload never calls reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("node.ns_per_tick", "ns"),
    ("node.batch_ns_per_lane_tick", "ns"),
    ("node.phase_s", "s"),
    ("node.brownouts", "count"),
    ("node.retunes", "count"),
    ("vibration.envelope_ns", "ns"),
    ("harvester.thevenin_ns", "ns"),
    ("harvester.input_change_frac", "ratio"),
    ("power.ppu_solve_ns", "ns"),
    ("tick.replay_coverage", "ratio"),
    ("core.campaign_s", "s"),
    ("core.validate_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.eval_batches", "count"),
    ("core.eval_batch_points_mean", "count"),
    ("core.narrow_batches", "count"),
    ("core.cache_hits", "count"),
    ("core.sims", "count"),
    ("doe.design_s", "s"),
    ("doe.fit_s", "s"),
    ("doe.optimize_s", "s"),
    ("doe.predict_s", "s"),
    ("doe.refine_self_s", "s"),
    ("doe.refine_iterations", "count"),
    ("rsm_eval_ns_p50", "ns"),
    ("rsm_eval_ns_p99", "ns"),
    ("rsm_eval_samples", "count"),
    ("surrogate_rmse_pct", "%"),
    ("net.topology_s", "s"),
    ("net.routes_s", "s"),
    ("net.run_s", "s"),
    ("net.epoch_rerun_ratio", "ratio"),
    ("net.snapshot_bytes_computed", "B"),
    ("net.links", "count"),
    ("net.route_repairs", "count"),
    ("net.browned_out_nodes", "count"),
    ("bench.check_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.traced_iterations", "count"),
    ("run.threads", "count"),
    ("run.nproc", "count"),
];

/// Span name → per-layer self-time metric.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("core.campaign", "core.campaign_s"),
    ("core.validate", "core.validate_s"),
    ("core.evaluate", "core.evaluate_s"),
    ("doe.design", "doe.design_s"),
    ("doe.fit", "doe.fit_s"),
    ("doe.optimize", "doe.optimize_s"),
    ("doe.predict", "doe.predict_s"),
    ("doe.refine", "doe.refine_self_s"),
    ("net.run", "net.run_s"),
    ("bench.check", "bench.check_s"),
];

/// Set-up runs in two bursts, one before the measurement and one after
/// the untraced pass, so that its samples see the host at both ends of
/// the run as the iterations do. Each burst runs at least
/// `SETUP_MIN_REPS` times and for `SETUP_MIN_S`, and at most
/// `SETUP_MAX_REPS` times. `setup_s` is the fastest repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 2000;
/// Minimum untraced iterations per run, whatever `--seconds` says.
const MIN_UNTRACED: usize = 3;

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Bit digest of the iteration's results.
    pub digest: u64,
    /// Operations attempted: simulations, or fleet nodes.
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Useful node-ticks simulated (prefix re-runs excluded).
    pub useful_ticks: f64,
    /// Deterministic per-layer counts.
    pub counts: Metrics,
    /// Surrogate query latency samples (ns per query).
    pub rsm_samples_ns: Vec<f64>,
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub threads: usize,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds fixtures and inputs (timed as `setup_s`).
    fn setup(cfg: &RunConfig) -> Result<Self, String>;
    /// The unmeasured warm-up: the library's own composite entry points.
    /// Its digest is the one every measured iteration must reproduce.
    fn reference(&self) -> Result<Outcome, String>;
    /// One measured iteration, built from the public per-layer calls
    /// with a span around each.
    fn run(&self) -> Result<Outcome, String>;
    /// Layer probes, traced pass only, outside the timed iterations.
    fn probes(&self, out: &mut Metrics) -> Result<(), String>;
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    pub fn all(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        xs.iter().for_each(|x| self.f64(*x));
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: derives independent sub-seeds from the workload
/// seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts non-finite values as failures.
pub fn count_non_finite(xs: &[f64]) -> u64 {
    xs.iter().filter(|x| !x.is_finite()).count() as u64
}

/// Linear-interpolated quantile `q` of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fastest of a run's repetitions. Interference from other tenants
/// of a shared host only ever adds time, and it comes in bursts that
/// last seconds to minutes, so the fastest repetition is the steadiest
/// estimate of the program's own cost from run to run.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable line {line:?}"))?;
    Ok(kb * 1024.0 / 1e6)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

/// Where the traced pass writes its spans.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("ehbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Tallies of a whole run.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    /// Accounts one iteration and checks its digest against the
    /// reference.
    fn add(&mut self, label: &str, out: &Outcome, reference: u64) {
        self.attempted += out.ops;
        self.failed += out.failed;
        if out.failed > 0 {
            println!(
                "{label}: {} of {} operations failed their checks",
                out.failed, out.ops
            );
            self.correct = false;
        }
        if out.digest != reference {
            println!(
                "{label}: digest {:016x} != reference {reference:016x}",
                out.digest
            );
            self.correct = false;
        }
    }

    /// Accounts an iteration or probe that ended in a typed error.
    fn error(&mut self, e: &str) {
        println!("failed: {e}");
        self.attempted += 1;
        self.failed += 1;
        self.correct = false;
    }
}

/// Times one burst of set-ups and returns the last instance.
fn time_setups<W: Workload>(cfg: &RunConfig, times: &mut Vec<f64>) -> Result<W, String> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let w = W::setup(cfg)?;
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MAX_REPS
            || (reps >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S)
        {
            return Ok(w);
        }
    }
}

fn bench<W: Workload>(
    args: &Args,
    cfg: &RunConfig,
    nproc: usize,
) -> Result<(Tally, Metrics), String> {
    let mut setup_times = Vec::new();
    let w = time_setups::<W>(cfg, &mut setup_times)?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let mut metrics = Metrics::new();
    if let Err(e) = measure(
        &w,
        args,
        cfg,
        nproc,
        &mut setup_times,
        &mut tally,
        &mut metrics,
    ) {
        tally.error(&e);
    }
    println!(
        "set-up ran {} times, median {:.9} s",
        setup_times.len(),
        quantile(&setup_times, 0.5)
    );
    metrics.insert("setup_s", fastest(&setup_times));
    Ok((tally, metrics))
}

/// The reference iteration, the untraced pass and, with `--trace 1`,
/// the traced pass and the probes. A typed error ends the measurement.
fn measure<W: Workload>(
    w: &W,
    args: &Args,
    cfg: &RunConfig,
    nproc: usize,
    setup_times: &mut Vec<f64>,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let reference = w.reference()?;
    println!("reference digest {:016x}", reference.digest);
    tally.add("reference", &reference, reference.digest);

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut run_times = Vec::new();
    let mut ticks = Vec::new();
    let mut rsm_samples = Vec::new();
    while run_times.len() < MIN_UNTRACED || start.elapsed().as_secs_f64() < untraced_budget {
        let t0 = Instant::now();
        let out = w.run()?;
        let dt = t0.elapsed().as_secs_f64();
        tally.add("untraced iteration", &out, reference.digest);
        println!("untraced iteration {}: {dt:.6} s", run_times.len());
        run_times.push(dt);
        ticks.push(out.useful_ticks / dt);
        rsm_samples.extend(out.rsm_samples_ns);
    }
    let run_s = fastest(&run_times);
    println!("untraced median {:.6} s", quantile(&run_times, 0.5));
    // Read the peak before the second set-up burst can raise it.
    let peak_rss = peak_rss_mb()?;
    time_setups::<W>(cfg, setup_times)?;
    if !args.trace {
        metrics.insert("run_s", run_s);
        metrics.insert("sim_ticks_per_s", ticks.iter().copied().fold(0.0, f64::max));
        metrics.insert("peak_rss_mb", peak_rss);
        return Ok(());
    }

    // Traced pass: the same iteration with spans on.
    trace::enable();
    let start = Instant::now();
    let mut traced_times = Vec::new();
    let mut last = None;
    while traced_times.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        trace::set_iteration(traced_times.len() + 1);
        let (out, dt) = probe::timed("run", || w.run());
        let out = out?;
        tally.add("traced iteration", &out, reference.digest);
        println!("traced iteration {}: {dt:.6} s", traced_times.len());
        traced_times.push(dt);
        last = Some(out);
    }
    let last = last.ok_or("no traced iteration ran")?;
    let n_traced = traced_times.len() as f64;

    let spans = trace::spans();
    let in_run = |s: &trace::Span| s.iteration > 0;
    let by_name = trace::self_time_by_name(&spans, in_run);
    for (span_name, metric) in SPAN_METRICS {
        metrics.insert(
            metric,
            by_name.get(span_name).copied().unwrap_or(0.0) / n_traced,
        );
    }
    let roots: Vec<usize> = spans
        .iter()
        .filter(|s| in_run(s) && s.parent.is_none())
        .map(|s| s.id)
        .collect();
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(trace::Span::duration_s)
        .sum();
    let root_total: f64 = roots.iter().map(|&r| spans[r].duration_s()).sum();
    let traced_run_s = fastest(&traced_times);
    metrics.insert("trace.coverage", covered / root_total);
    metrics.insert("trace.overhead_pct", 100.0 * (traced_run_s - run_s) / run_s);
    metrics.insert("trace.untraced_run_s", run_s);
    metrics.insert("trace.traced_run_s", traced_run_s);
    metrics.insert("trace.traced_iterations", n_traced);
    metrics.insert("run.threads", cfg.threads as f64);
    metrics.insert("run.nproc", nproc as f64);
    metrics.insert("rsm_eval_ns_p50", quantile(&rsm_samples, 0.5));
    metrics.insert("rsm_eval_ns_p99", quantile(&rsm_samples, 0.99));
    metrics.insert("rsm_eval_samples", rsm_samples.len() as f64);
    for (k, v) in &last.counts {
        metrics.insert(k, *v);
    }

    trace::set_iteration(0);
    let probed = probe::timed("probe", || w.probes(metrics)).0;
    trace::disable();
    let spans = trace::spans();
    let path = trace_path(&args.workload, args.seed);
    trace::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    probed
}

fn json_result(tally: &Tally, metrics: &Metrics, trace: bool) -> Result<String, String> {
    if let Some(name) = metrics
        .keys()
        .find(|k| !PER_LAYER.iter().chain(&END_TO_END).any(|(n, _)| n == *k))
    {
        return Err(format!("metric {name} is not declared"));
    }
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut parts = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        parts.join(", ")
    ))
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ehbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads must be in 1..={nproc} (nproc), got {threads}"
        ));
    }
    let cfg = RunConfig {
        seed: args.seed,
        threads,
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let started = Instant::now();
    let (tally, metrics) = match args.workload.as_str() {
        "paper_flow" => bench::<paper_flow::PaperFlow>(&args, &cfg, nproc)?,
        "fleet_epochs" => bench::<fleet_epochs::FleetEpochs>(&args, &cfg, nproc)?,
        "sequential_ensemble" => bench::<sequential::SequentialEnsemble>(&args, &cfg, nproc)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let line = json_result(&tally, &metrics, args.trace)?;
    println!("total wall {:.3} s", started.elapsed().as_secs_f64());
    println!("{line}");
    Ok(())
}
