//! The deterministic job queue and the lane dispatcher every campaign
//! and fleet runs its node simulations through.
//!
//! [`run_jobs`] is a self-scheduling queue: workers claim the next
//! job, and the output slot it writes, from one shared iterator, so a
//! worker that drew short jobs picks up more work at once. Every job
//! runs, and the output — in job order — is independent of the thread
//! count and of which worker ran which job.
//!
//! [`run_lanes`] runs prepared lanes on that queue. It groups the
//! lanes by tick program, cuts each group into chunks, and runs one
//! job per (chunk × excitation): a chunk of several lanes goes through
//! the SoA batch kernel, and a chunk of one runs its
//! [`PreparedSimulator`] directly. The kernel is bit-identical to the
//! per-sim path lane for lane, so each lane's result does not depend
//! on the chunking, the thread count or the grouping.

use crate::batch::{run_kernel, LaneConst, SourceBind};
use crate::sim::{NodeMetrics, PreparedSimulator};
use crate::Result;
use ehsim_vibration::VibrationSource;
use std::sync::{Mutex, PoisonError};

/// Upper bound on the lane width of one batch chunk. Wide enough to
/// keep the lock-step PPU rounds full of independent chains, small
/// enough that a chunk's SoA state stays cache-resident and the chunk
/// count still load-balances across the queue.
pub const MAX_BATCH_WIDTH: usize = 64;

/// Runs `job(0) … job(n_jobs - 1)` across up to `threads` scoped
/// workers and returns their outputs in job order.
///
/// Every job runs, whatever the others return: a job that yields an
/// `Err` never abandons the rest, so a caller that scans the output
/// for its first error gets the same answer at every thread count.
/// With one thread the jobs run in order on the calling thread.
pub fn run_jobs<T: Send>(n_jobs: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n_jobs.max(1));
    if threads == 1 {
        return (0..n_jobs).map(job).collect();
    }
    // The queue hands out each job's output slot once, in job order,
    // so a slot's claimer is its only writer.
    let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
    let queue = Mutex::new(slots.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // `next` cannot leave the iterator half-updated, so the
                // guard of a poisoned lock is still sound.
                let claim = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((j, slot)) = claim else { break };
                *slot = Some(job(j));
            });
        }
    });
    // A worker that panicked re-raises when the scope ends, so every
    // slot is full here. `map_while` collects in place, in the slots'
    // own buffer.
    slots.into_iter().map_while(|slot| slot).collect()
}

/// What excites the lanes of a [`run_lanes`] dispatch.
#[derive(Clone, Copy)]
pub enum Excitation<'a> {
    /// Campaign shape: every lane runs against each scenario, a
    /// `(source, duration_s)` pair whose source all lanes share.
    Scenarios(&'a [(&'a dyn VibrationSource, f64)]),
    /// Fleet shape: `sources[i]` excites lane `i` to the last of
    /// `bounds` (simulated times, s), with a snapshot at each earlier
    /// bound.
    PerLane {
        /// One source per lane, in lane order.
        sources: &'a [&'a dyn VibrationSource],
        /// Snapshot boundaries; the run ends at the last.
        bounds: &'a [f64],
    },
}

/// One lane's run against one excitation.
#[derive(Debug)]
pub struct LaneRun<S> {
    /// The reduced snapshot at each earlier boundary the lane reached,
    /// in boundary order. A failed lane stops at its failing tick, so
    /// the count is the index of the first boundary whose prefix run
    /// fails too. Always empty for [`Excitation::Scenarios`].
    pub snapshots: Vec<S>,
    /// The lane's metrics at the last boundary, or its own error.
    pub result: Result<NodeMetrics>,
}

/// Runs every lane against `excitation` on [`run_jobs`] and returns
/// one [`LaneRun`] per (lane, scenario) pair, lane-major: the run of
/// lane `i` against scenario `s` is at `i * n_scenarios + s` (for
/// [`Excitation::PerLane`], at `i`).
///
/// Lanes are grouped by tick program — `tick_s` compared bitwise, and
/// solver mode — and each group is cut into contiguous chunks of
/// `⌈group size / threads⌉` lanes, at most `max_width` and never more
/// than [`MAX_BATCH_WIDTH`]. Each (chunk × excitation) pair is one job.
/// `max_width = 1` runs every lane on its own [`PreparedSimulator`].
/// `snapshot` reduces each snapshot to what the caller keeps.
///
/// Each lane's result is bit-identical to running its
/// [`PreparedSimulator`] alone, for any thread count, width and
/// grouping; a lane's failure never disturbs another lane. A whole
/// job that fails (an invalid duration or boundary list) fails each
/// of its lanes with that error, which is the error each lane's own
/// run would return.
///
/// # Errors
///
/// [`crate::NodeError::InvalidParameter`] if an
/// [`Excitation::PerLane`] has a source count other than the lane
/// count. Per-lane failures are inside the returned runs.
pub fn run_lanes<S: Send>(
    lanes: &[PreparedSimulator],
    excitation: Excitation<'_>,
    threads: usize,
    max_width: usize,
    snapshot: impl Fn(&NodeMetrics) -> S + Sync,
) -> Result<Vec<LaneRun<S>>> {
    let n_exc = match excitation {
        Excitation::Scenarios(scenarios) => scenarios.len(),
        Excitation::PerLane { sources, .. } if sources.len() != lanes.len() => {
            return Err(crate::NodeError::invalid(format!(
                "got {} sources for {} lanes",
                sources.len(),
                lanes.len()
            )))
        }
        Excitation::PerLane { .. } => 1,
    };

    // A stable sort keeps each tick group in lane order.
    let program = |i: &usize| {
        let lane = &lanes[*i];
        (lane.cfg.tick_s.to_bits(), lane.mode as u8)
    };
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    order.sort_by_key(program);
    let mut chunks: Vec<&[usize]> = Vec::new();
    for group in order.chunk_by(|a, b| program(a) == program(b)) {
        let width = group
            .len()
            .div_ceil(threads.clamp(1, group.len()))
            .clamp(1, max_width.clamp(1, MAX_BATCH_WIDTH));
        chunks.extend(group.chunks(width));
    }

    let runs = run_jobs(chunks.len() * n_exc, threads, |j| {
        let (chunk, e) = (chunks[j / n_exc], j % n_exc);
        let gathered: Vec<&dyn VibrationSource>;
        let (bind, bounds) = match excitation {
            Excitation::Scenarios(scenarios) => (
                SourceBind::Shared(scenarios[e].0),
                std::slice::from_ref(&scenarios[e].1),
            ),
            Excitation::PerLane { sources, bounds } => {
                gathered = chunk.iter().map(|&i| sources[i]).collect();
                (SourceBind::PerLane(&gathered), bounds)
            }
        };
        let mut snapshots: Vec<Vec<S>> = chunk.iter().map(|_| Vec::new()).collect();
        let mut keep = |_: usize, lane: usize, m: &NodeMetrics| snapshots[lane].push(snapshot(m));
        let results = match (chunk, bind) {
            (&[i], SourceBind::Shared(source) | SourceBind::PerLane(&[source])) => {
                let lane = &lanes[i];
                Ok(vec![lane.run_with_snapshots(
                    source,
                    bounds,
                    &mut |b, m| keep(b, 0, m),
                )])
            }
            _ => {
                let consts: Vec<LaneConst> = chunk
                    .iter()
                    .map(|&i| LaneConst::from_prepared(&lanes[i]))
                    .collect();
                let first = &lanes[chunk[0]];
                run_kernel(
                    &consts,
                    first.cfg.tick_s,
                    first.mode,
                    bind,
                    bounds,
                    &mut keep,
                )
            }
        };
        let results =
            results.unwrap_or_else(|err| chunk.iter().map(|_| Err(err.clone())).collect());
        chunk
            .iter()
            .zip(results.into_iter().zip(snapshots))
            .map(|(&i, (result, snapshots))| (i * n_exc + e, LaneRun { snapshots, result }))
            .collect::<Vec<_>>()
    });
    // Each (lane, excitation) index occurs once: sorting by it restores
    // lane order across the tick groups.
    let mut runs: Vec<(usize, LaneRun<S>)> = runs.into_iter().flatten().collect();
    runs.sort_unstable_by_key(|&(i, _)| i);
    Ok(runs.into_iter().map(|(_, run)| run).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeConfig, NodeError, SolverMode};
    use ehsim_vibration::Sine;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn flaky(j: usize) -> std::result::Result<usize, String> {
        if j % 5 == 2 {
            Err(format!("job {j}"))
        } else {
            Ok(j * j)
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let job = |j: usize| -> std::result::Result<f64, String> {
            if j % 11 == 4 {
                Err(format!("job {j}"))
            } else {
                Ok((j as f64).sqrt())
            }
        };
        let seq = run_jobs(97, 1, job);
        for threads in [2, 3, 8] {
            let par = run_jobs(97, threads, job);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                match (a, b) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    other => panic!("{threads} threads: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_job_runs_despite_failures() {
        for threads in [1, 2, 8] {
            let out = run_jobs(31, threads, flaky);
            assert_eq!(out.len(), 31);
            for (j, r) in out.iter().enumerate() {
                assert_eq!(*r, flaky(j), "{threads} threads, job {j}");
            }
        }
    }

    #[test]
    fn smallest_failing_job_wins_sequentially() {
        let job = |j: usize| if j % 7 == 3 { Err(j) } else { Ok(j) };
        for threads in [1, 2, 8] {
            let first = run_jobs(40, threads, job).into_iter().find_map(|r| r.err());
            assert_eq!(first, Some(3), "{threads} threads");
        }
    }

    #[test]
    fn no_jobs_give_no_output() {
        for threads in [0, 1, 4] {
            assert!(run_jobs(0, threads, flaky).is_empty());
        }
    }

    #[test]
    fn more_threads_than_jobs_still_run_each_job_once() {
        let calls = AtomicUsize::new(0);
        let out = run_jobs(3, 8, |j| {
            calls.fetch_add(1, Ordering::Relaxed);
            flaky(j)
        });
        assert_eq!(calls.into_inner(), 3);
        assert_eq!(out, vec![flaky(0), flaky(1), flaky(2)]);
    }

    /// Mixed-tick lanes through every width and thread count: each
    /// lane's run — metrics, error and snapshots — equals its own
    /// per-sim run, in lane order.
    #[test]
    fn lanes_match_their_own_runs_across_tick_groups() {
        let ticks = [0.5, 0.25, 0.5, 0.2, 0.25, 0.5, 0.5];
        let lanes: Vec<PreparedSimulator> = ticks
            .iter()
            .enumerate()
            .map(|(i, &tick_s)| {
                let mut cfg = NodeConfig::default_node();
                cfg.tick_s = tick_s;
                cfg.storage.capacitance = 0.05 + 0.02 * i as f64;
                PreparedSimulator::with_solver(cfg, SolverMode::Exact).unwrap()
            })
            .collect();
        let a = Sine::new(0.9, 64.0).unwrap();
        let b = Sine::new(0.6, 61.0).unwrap();
        let scenarios: [(&dyn VibrationSource, f64); 2] = [(&a, 40.0), (&b, 25.0)];
        let sources: Vec<&dyn VibrationSource> = (0..lanes.len())
            .map(|i| if i % 2 == 0 { &a as _ } else { &b as _ })
            .collect();
        let bounds = [10.0, 10.1, 30.0];
        let bits = |r: &Result<NodeMetrics>| format!("{r:?}");
        for threads in [1, 2, 8] {
            for max_width in [1, 3, MAX_BATCH_WIDTH] {
                let label = format!("{threads} threads, width {max_width}");
                let runs = run_lanes(
                    &lanes,
                    Excitation::Scenarios(&scenarios),
                    threads,
                    max_width,
                    |_| (),
                )
                .unwrap();
                assert_eq!(runs.len(), lanes.len() * 2, "{label}");
                for (j, run) in runs.iter().enumerate() {
                    let (source, duration_s) = scenarios[j % 2];
                    let want = lanes[j / 2].run(source, duration_s);
                    assert_eq!(bits(&run.result), bits(&want), "{label}: run {j}");
                    assert!(run.snapshots.is_empty());
                }

                let runs = run_lanes(
                    &lanes,
                    Excitation::PerLane {
                        sources: &sources,
                        bounds: &bounds,
                    },
                    threads,
                    max_width,
                    |m| m.final_v_store.to_bits(),
                )
                .unwrap();
                for (i, run) in runs.iter().enumerate() {
                    let mut want_snaps = Vec::new();
                    let want = lanes[i].run_with_snapshots(sources[i], &bounds, &mut |_, m| {
                        want_snaps.push(m.final_v_store.to_bits())
                    });
                    assert_eq!(bits(&run.result), bits(&want), "{label}: lane {i}");
                    assert_eq!(run.snapshots, want_snaps, "{label}: lane {i} snapshots");
                }
            }
        }
    }

    /// A job-level failure (here a duration past the tick bound) fails
    /// every lane with the error its own run returns; a source count
    /// that does not match the lanes is refused up front.
    #[test]
    fn invalid_excitation_fails_each_lane_or_the_dispatch() {
        let lanes: Vec<PreparedSimulator> = [0.5, 0.25, 0.5]
            .iter()
            .map(|&tick_s| {
                let mut cfg = NodeConfig::default_node();
                cfg.tick_s = tick_s;
                PreparedSimulator::new(cfg).unwrap()
            })
            .collect();
        let src = Sine::new(0.9, 64.0).unwrap();
        let scenarios: [(&dyn VibrationSource, f64); 1] = [(&src, f64::MAX)];
        for threads in [1, 2] {
            let runs = run_lanes(
                &lanes,
                Excitation::Scenarios(&scenarios),
                threads,
                64,
                |_| (),
            )
            .unwrap();
            for (lane, run) in lanes.iter().zip(&runs) {
                let want = lane.run(&src, f64::MAX).unwrap_err().to_string();
                match &run.result {
                    Err(e) => assert_eq!(e.to_string(), want),
                    Ok(_) => panic!("an over-long run succeeded"),
                }
            }
        }
        let sources: [&dyn VibrationSource; 2] = [&src, &src];
        let refused = run_lanes(
            &lanes,
            Excitation::PerLane {
                sources: &sources,
                bounds: &[10.0],
            },
            2,
            64,
            |_| (),
        );
        assert!(matches!(refused, Err(NodeError::InvalidParameter { .. })));
    }
}
