//! Lock-step batched PPU fixed-point solves.
//!
//! The scalar [`PreparedPpu`] solve is a damped fixed-point iteration
//! whose per-iteration arithmetic (a handful of multiplies, ~3 divides
//! and a complex magnitude) forms one long serial dependency chain —
//! the cold solve is *latency*-bound, not throughput-bound. When many
//! independent simulations step together (the batched SoA tick kernel
//! in `ehsim-node`), iterating **all unconverged lanes once per round**
//! fills the pipeline with independent chains and converts the solve to
//! throughput-bound, which is where the batched kernel's campaign
//! speed-up comes from.
//!
//! The lanes still iterating are stored column by column in blocks of
//! four, and each round runs every block as one group: the iteration
//! body is a run of short per-element loops over `[f64; N]` columns,
//! with every branch of the scalar code written as a select, so
//! optimised builds pack it into SIMD (`divpd`, `sqrtpd`, `maxpd` on
//! baseline x86-64). Its one former libm call, the complex magnitude,
//! is the inline port [`ehsim_numeric::complex::hypot_lanes`], which
//! packs like the rest. Blocks of four fill two SSE2 registers per
//! column; wider groups spill registers and measured slower.
//!
//! # Bit-exactness contract
//!
//! The iteration body is written once, generic over the lane count:
//! [`PreparedPpu`]'s scalar solve is its width-1 instance, and both
//! share the straight-line prefix (validation, dead zone, seed
//! resolution). Packing a lane with others changes nothing in its
//! float-operation sequence: lanes never exchange data, and a select
//! evaluates both arms of the scalar code's branch but keeps the arm
//! the scalar code takes. Both solves share one iteration budget: a
//! lane that has not converged when it runs the budget's last
//! iteration retires there with that iteration's operating point,
//! which is exactly what the scalar solve returns when its loop runs
//! out. So every lane's result is bit-identical to the scalar solve by
//! construction — asserted by the property suite below at every group
//! shape and by the `ehsim-node` batch-equivalence suite on whole runs.
//! Because the two solves share their body, the suite also checks both
//! against an independent transcription of the pre-refactor scalar
//! solve, and on x86-64 glibc against that solve with libm's `hypot`.

use crate::{PpuOperatingPoint, PreparedPpu, Start, MAX_ITERS};
use ehsim_numeric::complex::{hypot_lanes, Complex};
use std::hint::select_unpredictable as select;

/// Lanes per packed group: two SSE2 vectors of two `f64` per column.
const GROUP: usize = 4;

/// `N` lanes of the fixed point, one column per field: each lane's
/// inputs and tick-invariant constants, and the amplitude its next
/// iteration starts from. `Lanes<1>` is one lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<const N: usize> {
    pub(crate) n2: [f64; N],
    pub(crate) v_d: [f64; N],
    /// `n2 · v_d`, the diode-loss factor of every iteration.
    pub(crate) n2_v_d: [f64; N],
    pub(crate) r_droop: [f64; N],
    pub(crate) v_oc: [f64; N],
    pub(crate) v_store: [f64; N],
    /// `z_src.re` and `z_src.im + 0.0`: the components of
    /// `z_src + Complex::real(r_eq)` that do not depend on `r_eq`.
    pub(crate) z_re: [f64; N],
    pub(crate) z_im: [f64; N],
    pub(crate) v_pk: [f64; N],
}

/// One iteration's outcome, per lane.
struct Step<const N: usize> {
    converged: [bool; N],
    /// The pump could not push charge: the operating point is idle.
    unloaded: [bool; N],
    /// Loaded operating point (meaningless where `unloaded`).
    p_store: [f64; N],
    i_out: [f64; N],
    p_in: [f64; N],
    /// The damped amplitude the next iteration starts from.
    v_pk_next: [f64; N],
}

impl<const N: usize> Lanes<N> {
    /// Lanes `start..start + len` (`1 <= len <= M`) as an `M`-wide
    /// group, padded by repeating the last of them; the padding's
    /// results are ignored.
    #[inline(always)]
    fn group<const M: usize>(&self, start: usize, len: usize) -> Lanes<M> {
        let col = |c: &[f64; N]| per_lane(|k| c[start + k.min(len - 1)]);
        Lanes {
            n2: col(&self.n2),
            v_d: col(&self.v_d),
            n2_v_d: col(&self.n2_v_d),
            r_droop: col(&self.r_droop),
            v_oc: col(&self.v_oc),
            v_store: col(&self.v_store),
            z_re: col(&self.z_re),
            z_im: col(&self.z_im),
            v_pk: col(&self.v_pk),
        }
    }

    /// Overwrites lane `k` with `lane`.
    fn set(&mut self, k: usize, lane: &Lanes<1>) {
        self.n2[k] = lane.n2[0];
        self.v_d[k] = lane.v_d[0];
        self.n2_v_d[k] = lane.n2_v_d[0];
        self.r_droop[k] = lane.r_droop[0];
        self.v_oc[k] = lane.v_oc[0];
        self.v_store[k] = lane.v_store[0];
        self.z_re[k] = lane.z_re[0];
        self.z_im[k] = lane.z_im[0];
        self.v_pk[k] = lane.v_pk[0];
    }

    /// One damped fixed-point iteration for every lane: `v_pk` → pump
    /// current → equivalent input resistance → loaded `v_pk`.
    ///
    /// Each step is its own short loop over the lanes, and each branch
    /// of the scalar solve is a select between two arms computed for
    /// every lane, so optimised builds pack every step.
    #[inline(always)]
    fn iterate(&self) -> Step<N> {
        let c = self;
        let i_out: [f64; N] = per_lane(|k| {
            let v_out_oc = c.n2[k] * (c.v_pk[k] - c.v_d[k]).max(0.0);
            ((v_out_oc - c.v_store[k]) / c.r_droop[k]).max(0.0)
        });
        // The pump cannot push charge at this storage voltage; unloaded,
        // the input floats back towards open circuit. Unloaded lanes run
        // the loaded arm too (on NaN or infinity) and select the other.
        let unloaded: [bool; N] = per_lane(|k| i_out[k] <= 0.0);
        let p_store: [f64; N] = per_lane(|k| c.v_store[k] * i_out[k]);
        let p_in: [f64; N] = per_lane(|k| {
            let p_diode = c.n2_v_d[k] * i_out[k];
            let p_droop = i_out[k] * i_out[k] * c.r_droop[k];
            p_store[k] + p_diode + p_droop
        });
        // Equivalent fundamental input resistance.
        let r_eq: [f64; N] = per_lane(|k| {
            let r_eq = (c.v_pk[k] * c.v_pk[k] / (2.0 * p_in[k])).max(1e-3);
            select(p_in[k] > 0.0, r_eq, f64::INFINITY)
        });
        // `|z_src + Complex::real(r_eq)|`.
        let z_load: [f64; N] = hypot_lanes(per_lane(|k| c.z_re[k] + r_eq[k]), c.z_im);
        let v_next: [f64; N] = per_lane(|k| {
            let v_loaded = c.v_oc[k] * r_eq[k] / z_load[k];
            select(unloaded[k], c.v_oc[k], v_loaded)
        });
        let converged: [bool; N] = per_lane(|k| {
            let tol = select(unloaded[k], 1e-12, 1e-9 * c.v_pk[k].max(1e-9));
            (v_next[k] - c.v_pk[k]).abs() < tol
        });
        Step {
            converged,
            unloaded,
            p_store,
            i_out,
            p_in,
            v_pk_next: per_lane(|k| 0.5 * (c.v_pk[k] + v_next[k])),
        }
    }
}

/// `[f(0), …, f(N - 1)]`: one short per-element loop.
#[inline(always)]
fn per_lane<const N: usize, T: Copy + Default>(f: impl Fn(usize) -> T) -> [T; N] {
    let mut a = [T::default(); N];
    for (k, x) in a.iter_mut().enumerate() {
        *x = f(k);
    }
    a
}

impl<const N: usize> Step<N> {
    /// Lane `k`'s operating point at input amplitude `v_pk`.
    fn point(&self, k: usize, v_pk: f64) -> PpuOperatingPoint {
        if self.unloaded[k] {
            return PpuOperatingPoint {
                p_store_w: 0.0,
                i_out_a: 0.0,
                v_in_amp: v_pk,
                p_in_w: 0.0,
                efficiency: 0.0,
            };
        }
        let (p_store, p_in) = (self.p_store[k], self.p_in[k]);
        PpuOperatingPoint {
            p_store_w: p_store,
            i_out_a: self.i_out[k],
            v_in_amp: v_pk,
            p_in_w: p_in,
            efficiency: if p_in > 0.0 { p_store / p_in } else { 0.0 },
        }
    }
}

/// The scalar fixed point: the width-1 instance of the lock-step
/// rounds, iterating until the lane converges or the budget runs out.
/// Always inlined: behind a call, the loop measured ~10 % slower.
#[inline(always)]
pub(crate) fn solve_lane(mut c: Lanes<1>) -> PpuOperatingPoint {
    let mut step = c.iterate();
    for _ in 1..MAX_ITERS {
        if step.converged[0] {
            break;
        }
        c.v_pk = step.v_pk_next;
        step = c.iterate();
    }
    step.point(0, c.v_pk[0])
}

/// Runs one iteration of the `len` lanes of block `g` as one `N`-wide
/// group. Retiring lanes write their point to `out`; the others move,
/// in order, to slot `kept` onwards. Returns the new `kept`.
fn round_group<const N: usize>(
    it: &mut Iterating,
    g: usize,
    len: usize,
    mut kept: usize,
    last: bool,
    out: &mut [PpuOperatingPoint],
) -> usize {
    let c: Lanes<N> = it.blocks[g].group(0, len);
    let step = c.iterate();
    for k in 0..len {
        let j = g * GROUP + k;
        if last || step.converged[k] {
            out[it.index[j]] = step.point(k, c.v_pk[k]);
            continue;
        }
        // Until a lane ahead of it retires, a lane keeps its slot and
        // only its amplitude changes; moving every lane every round
        // measured ~10 % slower on 64-lane batches.
        if kept == j {
            it.blocks[g].v_pk[k] = step.v_pk_next[k];
        } else {
            let mut lane: Lanes<1> = it.blocks[g].group(k, 1);
            lane.v_pk = [step.v_pk_next[k]];
            it.blocks[kept / GROUP].set(kept % GROUP, &lane);
            it.index[kept] = it.index[j];
        }
        kept += 1;
    }
    kept
}

/// The lanes still iterating, in lane order: lane `index[j]` is slot
/// `j % GROUP` of `blocks[j / GROUP]`, so a group's columns load
/// contiguously.
#[derive(Debug, Default)]
struct Iterating {
    index: Vec<usize>,
    blocks: Vec<Lanes<GROUP>>,
}

impl Iterating {
    fn push(&mut self, i: usize, lane: Lanes<1>) {
        let j = self.index.len();
        if j.is_multiple_of(GROUP) {
            self.blocks.push(lane.group(0, 1));
        } else {
            self.blocks[j / GROUP].set(j % GROUP, &lane);
        }
        self.index.push(i);
    }
}

/// Reusable lock-step solver: scratch state for `W` lanes, reused
/// across calls (a per-tick caller pays no per-call allocation once the
/// vectors have grown to the batch width).
#[derive(Debug, Default)]
pub struct BatchPpuSolver {
    /// Lanes still iterating — compacted as lanes retire so late
    /// rounds touch only the unconverged lanes instead of scanning the
    /// whole width.
    iterating: Iterating,
}

impl BatchPpuSolver {
    /// An empty solver; scratch buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves every lane `i` with `active[i]` in lock-step.
    ///
    /// Inputs are parallel slices of one logical lane array: per-lane
    /// solver constants (`ppus`), Thevenin drive (`v_oc`, `z_src`,
    /// `freq_hz`), storage voltage (`v_store`) and warm-start seed
    /// (`seed[i]`; any non-finite or non-positive value — use
    /// `f64::NAN` — selects the cold start, mirroring
    /// [`PreparedPpu::operating_point_from`]).
    ///
    /// On return, for every active lane, `ok[i]` says whether the
    /// lane's inputs passed the scalar solve's validation; if so
    /// `out[i]` holds its operating point, bit-identical to the scalar
    /// solve of the same inputs. Inactive lanes are left untouched.
    /// Callers wanting the scalar path's error message for an `!ok[i]`
    /// lane can re-run [`PreparedPpu::operating_point`] on that lane —
    /// the error path is cold by contract.
    ///
    /// # Panics
    ///
    /// If the input slices are not all of the same length.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        ppus: &[PreparedPpu],
        v_oc: &[f64],
        z_src: &[Complex],
        freq_hz: &[f64],
        v_store: &[f64],
        seed: &[f64],
        active: &[bool],
        out: &mut [PpuOperatingPoint],
        ok: &mut [bool],
    ) {
        let w = ppus.len();
        assert!(
            [
                v_oc.len(),
                z_src.len(),
                freq_hz.len(),
                v_store.len(),
                seed.len(),
                active.len(),
                out.len(),
                ok.len(),
            ]
            .iter()
            .all(|&l| l == w),
            "batched solve lane arrays must share one width"
        );
        let it = &mut self.iterating;
        it.index.clear();
        it.blocks.clear();
        for i in 0..w {
            if !active[i] {
                continue;
            }
            let start = ppus[i].start(v_oc[i], z_src[i], freq_hz[i], v_store[i], seed[i]);
            ok[i] = start.is_ok();
            match start {
                Ok(Start::Idle(op)) => out[i] = op,
                Ok(Start::Iterate(lane)) => it.push(i, lane),
                Err(_) => {}
            }
        }

        // Lock-step rounds: round r runs iteration r of the fixed point
        // for every lane still iterating, one packed group per block. A
        // tail block of one or two lanes runs as a group of that width
        // (a lone lane is the scalar solve's own instance); one of
        // three lanes is padded to four by repeating its last lane. A
        // lane retires when it converges or on the last round, whose
        // point is the one the scalar solve returns after exhausting
        // its budget; compaction keeps lane order.
        for round in 0..MAX_ITERS {
            let n = it.index.len();
            if n == 0 {
                break;
            }
            let last = round + 1 == MAX_ITERS;
            let mut kept = 0;
            for g in 0..n.div_ceil(GROUP) {
                let len = (n - g * GROUP).min(GROUP);
                let group = match len {
                    1 => round_group::<1>,
                    2 => round_group::<2>,
                    _ => round_group::<GROUP>,
                };
                kept = group(it, g, len, kept, last, out);
            }
            it.index.truncate(kept);
            it.blocks.truncate(kept.div_ceil(GROUP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Multiplier;

    fn op_bits(op: &PpuOperatingPoint) -> [u64; 5] {
        [
            op.p_store_w.to_bits(),
            op.i_out_a.to_bits(),
            op.v_in_amp.to_bits(),
            op.p_in_w.to_bits(),
            op.efficiency.to_bits(),
        ]
    }

    /// Solves the `active` lanes in one batch call and asserts each
    /// result is bit-identical to the scalar solve of the same inputs:
    /// the cold entry point for a NaN seed, the warm one otherwise.
    /// Inactive lanes must come back untouched.
    #[allow(clippy::too_many_arguments)]
    fn assert_batch_matches_scalar(
        solver: &mut BatchPpuSolver,
        ppus: &[PreparedPpu],
        v_oc: &[f64],
        z_src: &[Complex],
        freq: &[f64],
        v_store: &[f64],
        seed: &[f64],
        active: &[bool],
    ) -> Vec<PpuOperatingPoint> {
        let w = ppus.len();
        let unset = PpuOperatingPoint {
            p_store_w: -1.0,
            i_out_a: -1.0,
            v_in_amp: -1.0,
            p_in_w: -1.0,
            efficiency: -1.0,
        };
        let (mut out, mut ok) = (vec![unset; w], vec![false; w]);
        solver.solve(
            ppus, v_oc, z_src, freq, v_store, seed, active, &mut out, &mut ok,
        );
        for i in 0..w {
            if !active[i] {
                assert_eq!(op_bits(&out[i]), op_bits(&unset), "inactive lane {i}");
                assert!(!ok[i], "inactive lane {i}");
                continue;
            }
            assert!(ok[i], "lane {i}");
            let scalar = if seed[i].is_nan() {
                ppus[i].operating_point(v_oc[i], z_src[i], freq[i], v_store[i])
            } else {
                ppus[i].operating_point_from(seed[i], v_oc[i], z_src[i], freq[i], v_store[i])
            };
            let want = op_bits(&scalar.unwrap());
            assert_eq!(op_bits(&out[i]), want, "lane {i}, seed {}", seed[i]);
        }
        out
    }

    /// Drives the batch solver over a grid of heterogeneous lanes and
    /// asserts bit-identity against the scalar solve, cold and warm.
    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let ppus: Vec<PreparedPpu> = (1..=8)
            .map(|stages| {
                Multiplier {
                    stages,
                    ..Multiplier::default()
                }
                .prepared()
                .unwrap()
            })
            .collect();
        let w = ppus.len();
        // Deterministic but varied drive conditions, including the dead
        // zone (lane 0) and the unloaded ceiling (lane 7).
        let v_oc: Vec<f64> = (0..w).map(|i| 0.2 + 0.45 * i as f64).collect();
        let z_src: Vec<Complex> = (0..w)
            .map(|i| Complex::new(500.0 + 700.0 * i as f64, 100.0 * i as f64))
            .collect();
        let freq: Vec<f64> = (0..w).map(|i| 45.0 + 7.0 * i as f64).collect();
        let v_store: Vec<f64> = (0..w)
            .map(|i| if i == 7 { 40.0 } else { 0.5 * i as f64 })
            .collect();
        let mut solver = BatchPpuSolver::new();
        let active = vec![true; w];
        let mut check = |seed: &[f64]| {
            assert_batch_matches_scalar(
                &mut solver,
                &ppus,
                &v_oc,
                &z_src,
                &freq,
                &v_store,
                seed,
                &active,
            )
        };

        // Cold start, then warm from each lane's converged amplitude
        // (plus a non-positive seed that must fall back to cold).
        let cold = check(&vec![f64::NAN; w]);
        let mut seed: Vec<f64> = cold.iter().map(|op| op.v_in_amp).collect();
        seed[3] = -1.0;
        check(&seed);
    }

    #[test]
    fn invalid_and_inactive_lanes() {
        let ppu = Multiplier::default().prepared().unwrap();
        let ppus = vec![ppu; 3];
        let v_oc = vec![1.5, f64::INFINITY, 1.5];
        let z_src = vec![Complex::real(2e3); 3];
        let freq = vec![60.0; 3];
        let v_store = vec![1.0; 3];
        let seed = vec![f64::NAN; 3];
        let active = vec![true, true, false];
        let sentinel = PpuOperatingPoint {
            p_store_w: -7.0,
            i_out_a: -7.0,
            v_in_amp: -7.0,
            p_in_w: -7.0,
            efficiency: -7.0,
        };
        let mut out = vec![sentinel; 3];
        let mut ok = vec![true; 3];
        BatchPpuSolver::new().solve(
            &ppus, &v_oc, &z_src, &freq, &v_store, &seed, &active, &mut out, &mut ok,
        );
        assert!(ok[0]);
        assert!(!ok[1], "infinite v_oc must fail validation");
        assert!(
            ppu.operating_point(v_oc[1], z_src[1], freq[1], v_store[1])
                .is_err(),
            "scalar path agrees the lane is invalid"
        );
        // The inactive lane is untouched.
        assert_eq!(op_bits(&out[2]), op_bits(&sentinel));
    }

    /// Test-local copy of the scalar fixed point that reports how the
    /// loop ended: `Some(n)` if the convergence test held on iteration
    /// `n`, `None` if the budget ran out, plus whether the last
    /// iteration took the loaded branch.
    fn scalar_iterations(
        ppu: &PreparedPpu,
        seed: f64,
        v_oc: f64,
        z_src: Complex,
        freq_hz: f64,
        v_store: f64,
    ) -> (Option<usize>, bool) {
        let r_droop = ppu.droop_resistance(freq_hz);
        let (n2, v_d) = (ppu.n2, ppu.v_d);
        let mut v_pk = if seed.is_finite() && seed > 0.0 {
            seed
        } else {
            v_oc
        };
        let mut loaded = false;
        for n in 1..=MAX_ITERS {
            let i_out = ((n2 * (v_pk - v_d).max(0.0) - v_store) / r_droop).max(0.0);
            loaded = i_out > 0.0;
            let v_next = if loaded {
                let p_in = v_store * i_out + n2 * v_d * i_out + i_out * i_out * r_droop;
                let r_eq = (v_pk * v_pk / (2.0 * p_in)).max(1e-3);
                let v_next = v_oc * r_eq / (z_src + Complex::real(r_eq)).abs();
                if (v_next - v_pk).abs() < 1e-9 * v_pk.max(1e-9) {
                    return (Some(n), loaded);
                }
                v_next
            } else {
                if (v_oc - v_pk).abs() < 1e-12 {
                    return (Some(n), loaded);
                }
                v_oc
            };
            v_pk = 0.5 * (v_pk + v_next);
        }
        (None, loaded)
    }

    /// Lanes in the fixed point's non-contracting corner (a slow,
    /// non-periodic oscillation near the dead-zone crossing, measured
    /// under a fading machine) use the whole iteration budget and
    /// retire on the last round. Mixed with converging and dead-zone
    /// lanes, cold and warm, every lane must still match the scalar
    /// solve bit for bit.
    #[test]
    fn batch_budget_exhausted_lanes_match_scalar_bit_for_bit() {
        let ppu = Multiplier::default().prepared().unwrap();
        assert_eq!((ppu.n2, ppu.v_d), (6.0, 0.3));
        let corner_z = Complex::new(31949.36212934818, 201.06192982974676);
        // (v_oc, z_src, v_store, corner?) — corner lanes interleaved
        // with a converging loaded lane, an unloaded lane that
        // converges at once, and a dead-zone lane.
        let lanes = [
            (0.8335905792668576, corner_z, 3.185, true),
            (1.5, Complex::real(2e3), 1.0, false),
            (0.8335905792668576, corner_z, 3.10, true),
            (0.8335905792668576, corner_z, 3.30, false),
            (0.8335905792668576, corner_z, 3.15, true),
            (0.2, corner_z, 3.185, false),
            (0.8335905792668576, corner_z, 3.20, true),
        ];
        let w = lanes.len();
        let v_oc: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let z_src: Vec<Complex> = lanes.iter().map(|l| l.1).collect();
        let v_store: Vec<f64> = lanes.iter().map(|l| l.2).collect();
        let (ppus, freq) = (vec![ppu; w], vec![64.0; w]);
        let mut solver = BatchPpuSolver::new();
        let active = vec![true; w];
        let mut run = |seed: &[f64]| {
            assert_batch_matches_scalar(
                &mut solver,
                &ppus,
                &v_oc,
                &z_src,
                &freq,
                &v_store,
                seed,
                &active,
            )
        };

        // Cold, then warm from each lane's own cold point and from a
        // fixed amplitude.
        let cold = vec![f64::NAN; w];
        let own: Vec<f64> = run(&cold).iter().map(|op| op.v_in_amp).collect();
        let mut last_branches = Vec::new();
        for seed in [cold, own, vec![0.8; w]] {
            run(&seed);
            for (i, lane) in lanes.iter().enumerate().filter(|(_, l)| l.0 > ppu.v_d) {
                let (converged, loaded) =
                    scalar_iterations(&ppu, seed[i], v_oc[i], z_src[i], 64.0, v_store[i]);
                assert_eq!(converged.is_none(), lane.3, "lane {i}, seed {}", seed[i]);
                if lane.3 {
                    last_branches.push(loaded);
                }
            }
        }
        // The last round retires lanes from both branches of the body.
        assert!(last_branches.contains(&true) && last_branches.contains(&false));
    }

    /// One lane of each kind the batch must handle: `(v_oc, z_src,
    /// v_store)` for the default 3-stage multiplier at 64 Hz.
    fn lane_kinds() -> Vec<(f64, Complex, f64)> {
        let corner_z = Complex::new(31949.36212934818, 201.06192982974676);
        vec![
            // Dead zone: the idle point, no iteration.
            (0.2, corner_z, 3.185),
            // Budget-exhausted corner lanes (retire on the last round).
            (0.8335905792668576, corner_z, 3.185),
            (0.8335905792668576, corner_z, 3.10),
            // Converging loaded lanes.
            (1.5, Complex::new(2e3, 350.0), 1.0),
            (2.4, Complex::new(25e3, 180.0), 2.2),
            // Unloaded: the pump cannot reach the storage voltage.
            (1.5, Complex::new(2e3, 100.0), 40.0),
            // Converges near the dead-zone crossing.
            (0.8335905792668576, corner_z, 3.30),
            // A real source, whose magnitude takes `hypot`'s
            // out-of-line `ax + ay` path, and one whose reactance
            // exceeds the loaded resistance (the unordered path).
            (1.1, Complex::real(5e3), 0.5),
            (1.8, Complex::new(10.0, 9e4), 0.8),
        ]
    }

    /// Every batch width from 1 to 19 — full groups, padded tails and
    /// lone lanes — over a rotating mix of lane kinds with inactive
    /// lanes interleaved, cold, warm from each lane's own point and
    /// warm from a fixed amplitude.
    #[test]
    fn batch_matches_scalar_at_every_width() {
        let ppu = Multiplier::default().prepared().unwrap();
        let kinds = lane_kinds();
        let mut solver = BatchPpuSolver::new();
        for w in 1..=19 {
            let lanes: Vec<_> = (0..w).map(|j| kinds[(3 * j + w) % kinds.len()]).collect();
            let v_oc: Vec<f64> = lanes.iter().map(|l| l.0).collect();
            let z_src: Vec<Complex> = lanes.iter().map(|l| l.1).collect();
            let v_store: Vec<f64> = lanes.iter().map(|l| l.2).collect();
            let (ppus, freq) = (vec![ppu; w], vec![64.0; w]);
            let active: Vec<bool> = (0..w).map(|j| w == 1 || j % 4 != 2).collect();
            let mut run = |seed: &[f64]| {
                assert_batch_matches_scalar(
                    &mut solver,
                    &ppus,
                    &v_oc,
                    &z_src,
                    &freq,
                    &v_store,
                    seed,
                    &active,
                )
            };
            let cold = run(&vec![f64::NAN; w]);
            let own: Vec<f64> = cold.iter().map(|op| op.v_in_amp).collect();
            run(&own);
            run(&vec![0.8; w]);
        }
    }

    /// The pre-refactor scalar fixed point, verbatim: an oracle for the
    /// iteration body, which the scalar and batched solves now share.
    /// `magnitude` is the complex magnitude's `hypot`.
    fn legacy_operating_point(
        ppu: &PreparedPpu,
        seed: f64,
        (v_oc, z_src, v_store): (f64, Complex, f64),
        freq_hz: f64,
        magnitude: fn(f64, f64) -> f64,
    ) -> PpuOperatingPoint {
        let (n2, v_d, r_droop) = (ppu.n2, ppu.v_d, ppu.droop_resistance(freq_hz));
        let mut op = PpuOperatingPoint {
            p_store_w: 0.0,
            i_out_a: 0.0,
            v_in_amp: v_oc,
            p_in_w: 0.0,
            efficiency: 0.0,
        };
        if v_oc <= v_d {
            return op;
        }
        let mut v_pk = if seed.is_finite() && seed > 0.0 {
            seed
        } else {
            v_oc
        };
        for _ in 0..MAX_ITERS {
            let v_out_oc = n2 * (v_pk - v_d).max(0.0);
            let i_out = ((v_out_oc - v_store) / r_droop).max(0.0);
            if i_out <= 0.0 {
                op = PpuOperatingPoint {
                    p_store_w: 0.0,
                    i_out_a: 0.0,
                    v_in_amp: v_pk,
                    p_in_w: 0.0,
                    efficiency: 0.0,
                };
                if (v_oc - v_pk).abs() < 1e-12 {
                    break;
                }
                v_pk = 0.5 * (v_pk + v_oc);
                continue;
            }
            let p_store = v_store * i_out;
            let p_diode = n2 * v_d * i_out;
            let p_droop = i_out * i_out * r_droop;
            let p_in = p_store + p_diode + p_droop;
            let r_eq = if p_in > 0.0 {
                (v_pk * v_pk / (2.0 * p_in)).max(1e-3)
            } else {
                f64::INFINITY
            };
            let z = z_src + Complex::real(r_eq);
            let v_next = v_oc * r_eq / magnitude(z.re, z.im);
            op = PpuOperatingPoint {
                p_store_w: p_store,
                i_out_a: i_out,
                v_in_amp: v_pk,
                p_in_w: p_in,
                efficiency: if p_in > 0.0 { p_store / p_in } else { 0.0 },
            };
            if (v_next - v_pk).abs() < 1e-9 * v_pk.max(1e-9) {
                break;
            }
            v_pk = 0.5 * (v_pk + v_next);
        }
        op
    }

    /// Solves every lane kind three times over (blocks of four plus a
    /// tail of three) at varied frequencies, cold and warm, and asserts
    /// the legacy solve's bits.
    fn assert_batch_matches_legacy(magnitude: fn(f64, f64) -> f64) {
        let ppu = Multiplier::default().prepared().unwrap();
        let kinds = lane_kinds();
        let w = 3 * kinds.len();
        let lanes: Vec<_> = (0..w).map(|j| kinds[j % kinds.len()]).collect();
        let v_oc: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let z_src: Vec<Complex> = lanes.iter().map(|l| l.1).collect();
        let v_store: Vec<f64> = lanes.iter().map(|l| l.2).collect();
        let freq: Vec<f64> = (0..w)
            .map(|j| 50.0 + 7.0 * (j / kinds.len()) as f64)
            .collect();
        let unset = PpuOperatingPoint {
            p_store_w: -1.0,
            i_out_a: -1.0,
            v_in_amp: -1.0,
            p_in_w: -1.0,
            efficiency: -1.0,
        };
        let mut solver = BatchPpuSolver::new();
        for seed in [f64::NAN, 0.8] {
            let (mut out, mut ok) = (vec![unset; w], vec![false; w]);
            solver.solve(
                &vec![ppu; w],
                &v_oc,
                &z_src,
                &freq,
                &v_store,
                &vec![seed; w],
                &vec![true; w],
                &mut out,
                &mut ok,
            );
            for i in 0..w {
                let legacy = legacy_operating_point(&ppu, seed, lanes[i], freq[i], magnitude);
                assert_eq!(op_bits(&out[i]), op_bits(&legacy), "lane {i}, seed {seed}");
            }
        }
    }

    /// The shared iteration body against an independent transcription
    /// of the pre-refactor solve, with the ported `hypot`: a fault in
    /// the body would otherwise reach the scalar and the batched solve
    /// alike and hide from the tests that compare the two.
    #[test]
    fn batch_matches_legacy_scalar_solve() {
        assert_batch_matches_legacy(ehsim_numeric::complex::hypot);
    }

    /// Where the platform libm is glibc on x86-64, whose `hypot` the
    /// port reproduces, the packed solve returns the legacy libm-based
    /// solve's bits: vectorising the rounds changed no result.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn batch_matches_legacy_libm_solve() {
        assert_batch_matches_legacy(f64::hypot);
    }
}
