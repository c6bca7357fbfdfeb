//! The *flexible multiserver queue* of Section 4.2.
//!
//! External scheduling with parameter MPL = m is an unbounded FIFO queue
//! feeding a processor-sharing server that at most `m` jobs may share
//! (Fig. 8). The paper represents it as an equivalent "flexible multiserver
//! queue" whose number of servers fluctuates between 1 and `m` while the
//! *sum* of service rates stays equal to the single PS server's rate
//! (Fig. 9). With Poisson(λ) arrivals and 2-phase hyperexponential job
//! sizes the state `(n, j)` — `n` jobs in system, `j` of the
//! `k = min(n, m)` in-service jobs in phase 1 — is a level-independent
//! quasi-birth-death (QBD) process for `n ≥ m`, which we solve exactly with
//! the matrix-geometric method (Neuts; Latouche & Ramaswami, both cited by
//! the paper).
//!
//! The solve has two stages, each linear in the number of levels it
//! touches rather than in the number of states:
//!
//! * the rate matrix `R` of the repeating part comes from logarithmic
//!   reduction ([`FlexServer::solve_r`]), which doubles the levels it
//!   spans per step and converges in about a dozen steps where
//!   functional iteration needs thousands at high C² and load;
//! * the boundary levels `0..=m` are reduced backward one level at a
//!   time from the top block `A1 + R·A2`, then propagated up from level
//!   0 and normalised — one `(n+1)`-square inverse per level instead of
//!   one LU over all `(m+1)(m+2)/2` boundary states. The down-transition
//!   blocks have two diagonals, so each level's reduced block is built
//!   from them in O(n²), not by a dense O(n³) product, with the same bits.
//!
//! Together they make a solve at the MPLs the jump-start visits (50–95
//! on the heavy-tailed setups) cost milliseconds to a few tenths of a
//! second rather than seconds.
//!
//! Transitions from `(n, j)`, with `k = min(n, m)` and server speed 1 split
//! equally (each in-service job is served at rate `1/k`, so a phase-`i` job
//! completes at rate `μᵢ/k`):
//!
//! * arrival, rate λ: if `n < m` the job enters service and draws its phase
//!   (`j+1` w.p. `p`, else `j`); if `n ≥ m` it waits (`j` unchanged);
//! * phase-1 completion, rate `j·μ₁/k`: if `n > m` the head-of-line waiter
//!   enters service and draws its phase (net `j` w.p. `p`, `j−1` w.p. `q`);
//!   otherwise `j−1`;
//! * phase-2 completion, rate `(k−j)·μ₂/k`: if `n > m`, net `j+1` w.p. `p`,
//!   `j` w.p. `q`; otherwise `j`.
//!
//! MPL = 1 makes this M/H2/1-FIFO (checked against Pollaczek–Khinchine);
//! MPL → ∞ makes it M/H2/∞-style PS (checked against `E[S]/(1−ρ)`); and
//! with C² = 1 it collapses to M/M/1 for *every* MPL (checked too).

use crate::h2::H2;
use crate::linalg::Mat;

/// The flexible multiserver queue: Poisson arrivals, H2 job sizes, at most
/// `mpl` jobs sharing a unit-speed PS server.
#[derive(Debug, Clone)]
pub struct FlexServer {
    /// Arrival rate λ (jobs/second).
    pub lambda: f64,
    /// Job-size distribution.
    pub job_size: H2,
    /// Multi-programming limit m ≥ 1.
    pub mpl: u32,
}

/// Steady-state solution of a [`FlexServer`].
#[derive(Debug, Clone)]
pub struct FlexSolution {
    /// Mean number of jobs in the system (in service + waiting).
    pub mean_jobs: f64,
    /// Mean number of jobs waiting in the external FIFO queue.
    pub mean_waiting: f64,
    /// Mean response time `E[T] = E[N]/λ` (Little's law), seconds.
    pub mean_response_time: f64,
    /// Probability that the system is empty.
    pub p_empty: f64,
    /// Probability that an arriving job must wait (n ≥ mpl).
    pub p_wait: f64,
    /// Offered load ρ = λ·`E[S]`.
    pub rho: f64,
    /// Logarithmic-reduction steps (level doublings) `R` needed.
    pub r_iterations: u32,
}

impl FlexServer {
    /// Create a model; panics if unstable (ρ ≥ 1) or `mpl == 0`.
    pub fn new(lambda: f64, job_size: H2, mpl: u32) -> FlexServer {
        assert!(mpl >= 1, "MPL must be at least 1");
        let rho = lambda * job_size.mean();
        assert!(
            rho < 1.0,
            "unstable flexible multiserver queue (rho = {rho})"
        );
        FlexServer {
            lambda,
            job_size,
            mpl,
        }
    }

    /// Offered load ρ = λ·`E[S]`.
    pub fn rho(&self) -> f64 {
        self.lambda * self.job_size.mean()
    }

    /// The repeating QBD blocks `(A0, A1, A2)` for levels `n ≥ m+1`,
    /// each `(m+1) × (m+1)` over phase index `j = 0..=m`.
    pub fn repeating_blocks(&self) -> (Mat, Mat, Mat) {
        let m = self.mpl as usize;
        let (p, mu1, mu2) = (self.job_size.p, self.job_size.mu1, self.job_size.mu2);
        let q = 1.0 - p;
        let lam = self.lambda;
        let sz = m + 1;

        let a0 = Mat::identity(sz).scale(lam);
        let mut a1 = Mat::zeros(sz, sz);
        let mut a2 = Mat::zeros(sz, sz);
        for j in 0..=m {
            let c1 = j as f64 * mu1 / m as f64;
            let c2 = (m - j) as f64 * mu2 / m as f64;
            a1[(j, j)] = -(lam + c1 + c2);
            // Phase-1 completion; HOL waiter backfills and draws a phase.
            if c1 > 0.0 {
                a2[(j, j)] += c1 * p;
                a2[(j, j - 1)] += c1 * q;
            }
            // Phase-2 completion; backfill likewise.
            if c2 > 0.0 {
                if j < m {
                    a2[(j, j + 1)] += c2 * p;
                }
                a2[(j, j)] += c2 * q;
            }
        }
        (a0, a1, a2)
    }

    /// Up-transition block from boundary level `n < m` (size
    /// `(n+1) × (n+2)`): arrival enters service and draws its phase.
    pub(crate) fn boundary_up(&self, n: usize) -> Mat {
        let p = self.job_size.p;
        let lam = self.lambda;
        let mut up = Mat::zeros(n + 1, n + 2);
        for j in 0..=n {
            up[(j, j + 1)] += lam * p;
            up[(j, j)] += lam * (1.0 - p);
        }
        up
    }

    /// Down-transition block from level `1 ≤ n ≤ m` (size `(n+1) × n`):
    /// completion with no queue to backfill from.
    pub(crate) fn boundary_down(&self, n: usize) -> Mat {
        let (mu1, mu2) = (self.job_size.mu1, self.job_size.mu2);
        let mut down = Mat::zeros(n + 1, n);
        for j in 0..=n {
            let c1 = j as f64 * mu1 / n as f64;
            let c2 = (n - j) as f64 * mu2 / n as f64;
            if c1 > 0.0 {
                down[(j, j - 1)] += c1;
            }
            if c2 > 0.0 && j < n {
                down[(j, j)] += c2;
            }
        }
        down
    }

    /// Diagonal of the local block at boundary level `n ≤ m`.
    pub(crate) fn boundary_diag(&self, n: usize) -> Vec<f64> {
        let (mu1, mu2) = (self.job_size.mu1, self.job_size.mu2);
        let lam = self.lambda;
        (0..=n)
            .map(|j| {
                if n == 0 {
                    -lam
                } else {
                    let c1 = j as f64 * mu1 / n as f64;
                    let c2 = (n - j) as f64 * mu2 / n as f64;
                    -(lam + c1 + c2)
                }
            })
            .collect()
    }

    /// Compute the minimal nonnegative solution `R` of
    /// `A0 + R·A1 + R²·A2 = 0` by logarithmic reduction (Latouche &
    /// Ramaswami, 1993). Returns `(R, reduction steps)`.
    ///
    /// The reduction first finds `G`, the minimal solution of
    /// `A2 + A1·G + A0·G² = 0` (the first-passage matrix one level down).
    /// Step `k` folds the chain onto every `2^k`-th level, so `G`'s row
    /// sums reach 1 — the QBD is positive recurrent for ρ < 1 — in a few
    /// tens of steps even where functional iteration needs thousands.
    /// Then `R = A0·(−(A1 + A0·G))⁻¹`. Panics if 64 doublings do not
    /// bring `‖1 − G·1‖∞` to 1e-14.
    pub fn solve_r(&self) -> (Mat, u32) {
        let (a0, a1, a2) = self.repeating_blocks();
        let sz = a0.rows();
        // B0 = (−A1)⁻¹A0 and B2 = (−A1)⁻¹A2; A1 is diagonal, so these
        // are row scalings.
        let scaled = |a: &Mat| Mat::from_fn(sz, sz, |i, j| a[(i, j)] / -a1[(i, i)]);
        let (mut b0, mut b2) = (scaled(&a0), scaled(&a2));
        let mut g = b2.clone();
        let mut t = b0.clone();
        let ones = vec![1.0; sz];
        for step in 1..=64 {
            let u = b0.mul(&b2).add(&b2.mul(&b0));
            let (b00, b22) = (b0.mul(&b0), b2.mul(&b2));
            // I − U, with each diagonal entry rebuilt from the row's other
            // mass (U, B0², B2² rows sum to 1 together) so that the
            // cancellation in 1 − U_ii never enters the inverse.
            let mut imu = u.scale(-1.0);
            for i in 0..sz {
                let off: f64 = (0..sz).filter(|&j| j != i).map(|j| u[(i, j)]).sum();
                let rest: f64 = (0..sz).map(|j| b00[(i, j)] + b22[(i, j)]).sum();
                imu[(i, i)] = off + rest;
            }
            let inv = imu.inverse();
            b0 = inv.mul(&b00);
            b2 = inv.mul(&b22);
            g = g.add(&t.mul(&b2));
            t = t.mul(&b0);
            let defect = g
                .mul_vec(&ones)
                .iter()
                .fold(0.0f64, |d, row| d.max((1.0 - row).abs()));
            if defect <= 1e-14 {
                let r = a0.mul(&a1.add(&a0.mul(&g)).scale(-1.0).inverse());
                return (r, step);
            }
        }
        panic!(
            "logarithmic reduction did not converge in 64 doublings \
             (lambda = {}, job size {:?}, mpl = {})",
            self.lambda, self.job_size, self.mpl
        );
    }

    /// Solve for the steady state and return the summary metrics.
    pub fn solve(&self) -> FlexSolution {
        self.solve_with(self.solve_r())
    }

    /// The summary metrics given `(R, reduction steps)`.
    fn solve_with(&self, (r, r_iterations): (Mat, u32)) -> FlexSolution {
        let m = self.mpl as usize;
        let st = self.stationary(r);
        let ones = vec![1.0; m + 1];

        // Moments. Tail sums: Σ_{k≥0} π_m R^k = π_m (I−R)⁻¹;
        // Σ_{k≥0} k·π_m R^k = π_m R (I−R)⁻².
        let pi_m = &st.levels[m];
        let dot = |w: Vec<f64>| -> f64 { pi_m.iter().zip(&w).map(|(p, w)| p * w).sum() };
        let tail_mass = dot(st.inv_imr.mul_vec(&ones));
        let tail_excess = dot(st.r.mul(&st.inv_imr.mul(&st.inv_imr)).mul_vec(&ones));

        let mut mean_jobs: f64 = st.levels[..m]
            .iter()
            .enumerate()
            .map(|(n, lvl)| n as f64 * lvl.iter().sum::<f64>())
            .sum();
        // Levels ≥ m: Σ (m+k) π_{m+k}·1 = m·tail_mass + tail_excess.
        mean_jobs += m as f64 * tail_mass + tail_excess;

        FlexSolution {
            mean_jobs,
            mean_waiting: tail_excess, // Σ (n−m)⁺ π_n·1
            mean_response_time: mean_jobs / self.lambda,
            p_empty: st.levels[0][0],
            p_wait: tail_mass, // P(n ≥ m): arrival waits (PASTA).
            rho: self.rho(),
            r_iterations,
        }
    }

    /// Mean response time (convenience).
    pub fn mean_response_time(&self) -> f64 {
        self.solve().mean_response_time
    }

    /// Steady-state distribution of the number of jobs in the system,
    /// `P(N = n)` for `n = 0..len`, computed to at least `1 - epsilon`
    /// total mass (the geometric tail is rolled out level by level).
    pub fn queue_length_distribution(&self, epsilon: f64) -> Vec<f64> {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let m = self.mpl as usize;
        let st = self.stationary(self.solve_r().0);
        let mut out: Vec<f64> = st.levels.iter().map(|v| v.iter().sum()).collect();
        // Roll the geometric tail: π_{m+k} = π_m R^k.
        let mut tail = st.levels[m].clone();
        let mut covered: f64 = out.iter().sum();
        while covered < 1.0 - epsilon && out.len() < 100_000 {
            tail = st.r.vec_mul(&tail);
            let mass: f64 = tail.iter().sum();
            out.push(mass);
            covered += mass;
            if mass < 1e-18 {
                break;
            }
        }
        out
    }

    /// The stationary distribution given `R`: the normalised boundary
    /// level vectors `π_0 .. π_m` (levels above `m` follow from
    /// `π_{m+k} = π_m·R^k`) together with `R` and `(I−R)⁻¹`.
    ///
    /// The boundary is solved level by level, as in
    /// [`crate::ctmc::solve_truncated`]: level `m` balances
    /// `π_{m−1}·Up(m−1) + π_m·(A1 + R·A2) = 0`, so reducing backward with
    /// `S_{n−1} = −Up(n−1)·(L(n) + S_n·Down(n+1))⁻¹` (with `S_m = R`)
    /// gives `π_{n+1} = π_n·S_n`. Propagating up from `π_0 = 1` and
    /// normalising by `Σ_{n<m} π_n·1 + π_m·(I−R)⁻¹·1` finishes the solve
    /// with one `(n+1)`-square inverse per level.
    fn stationary(&self, r: Mat) -> Stationary {
        let m = self.mpl as usize;
        let (_, a1, a2) = self.repeating_blocks();
        // Level m's local block is the repeating A1.
        debug_assert!((0..=m).all(|j| (self.boundary_diag(m)[j] - a1[(j, j)]).abs() < 1e-9));

        // Backward reduction; s[n] maps π_n to π_{n+1}, pushed top-down.
        let mut s: Vec<Mat> = Vec::with_capacity(m);
        let mut block = a1.add(&r.mul(&a2));
        for n in (1..=m).rev() {
            let s_below = self.boundary_up(n - 1).mul(&block.inverse()).scale(-1.0);
            if n > 1 {
                block = self.reduced_block(n, &s_below);
            }
            s.push(s_below);
        }
        s.reverse();

        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        levels.push(vec![1.0]);
        for s_n in &s {
            let next = s_n.vec_mul(levels.last().expect("level 0 is seeded"));
            levels.push(next);
        }
        let inv_imr = Mat::identity(m + 1).sub(&r).inverse();
        let total: f64 = levels[..m].iter().flatten().sum::<f64>()
            + levels[m]
                .iter()
                .zip(inv_imr.mul_vec(&vec![1.0; m + 1]))
                .map(|(p, w)| p * w)
                .sum::<f64>();
        for x in levels.iter_mut().flatten() {
            *x /= total;
        }
        Stationary { levels, r, inv_imr }
    }

    /// Level `n − 1`'s reduced block `L(n−1) + S·Down(n)`, where `S` is
    /// the `n × (n+1)` map from level `n − 1` to level `n`.
    ///
    /// `Down(n)` has two diagonals: column `c` holds the phase-2
    /// completion rate of row `c` and the phase-1 completion rate of row
    /// `c + 1`. So each element is `0 + S[i][c]·d[c] + S[i][c+1]·e[c]`
    /// — the dense product's nonzero terms in its order. The dense
    /// product's other terms are `S[i][k]·0 = ±0`, and adding ±0 to an
    /// accumulator that starts at +0 changes no bit, so this is the dense
    /// `Mat::diag(L).add(&S.mul(&Down))` at O(n²) instead of O(n³).
    fn reduced_block(&self, n: usize, s: &Mat) -> Mat {
        debug_assert_eq!((s.rows(), s.cols()), (n, n + 1));
        let (mu1, mu2) = (self.job_size.mu1, self.job_size.mu2);
        // `Down(n)[c][c]` and `Down(n)[c+1][c]`, built as `boundary_down`
        // builds them.
        let phase2: Vec<f64> = (0..n).map(|c| (n - c) as f64 * mu2 / n as f64).collect();
        let phase1: Vec<f64> = (0..n).map(|c| (c + 1) as f64 * mu1 / n as f64).collect();
        let diag = self.boundary_diag(n - 1);
        Mat::from_fn(n, n, |i, c| {
            let local = if i == c { diag[i] } else { 0.0 };
            local + (0.0 + s[(i, c)] * phase2[c] + s[(i, c + 1)] * phase1[c])
        })
    }
}

/// What [`FlexServer::stationary`] hands to the summary and distribution
/// views.
struct Stationary {
    /// Normalised `π_0 .. π_m`; level `n` has `min(n, m) + 1` phases.
    levels: Vec<Vec<f64>>,
    r: Mat,
    /// `(I − R)⁻¹`.
    inv_imr: Mat,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg1;

    /// The functional iteration `R ← −(A0 + R²·A2)·A1⁻¹` the solver used
    /// before logarithmic reduction — kept as an independent oracle.
    fn reference_solve_r(fs: &FlexServer) -> (Mat, u32) {
        let (a0, a1, a2) = fs.repeating_blocks();
        let sz = a0.rows();
        let inv_diag: Vec<f64> = (0..sz).map(|j| -1.0 / a1[(j, j)]).collect();
        let mut r = Mat::zeros(sz, sz);
        let mut iters = 0;
        loop {
            iters += 1;
            let r2a2 = r.mul(&r).mul(&a2);
            let mut next = a0.add(&r2a2);
            // next ← next · (−A1)⁻¹ (diagonal).
            for i in 0..sz {
                for j in 0..sz {
                    next[(i, j)] *= inv_diag[j];
                }
            }
            let delta = next.sub(&r).max_abs();
            r = next;
            if delta < 1e-13 || iters >= 500_000 {
                break;
            }
        }
        (r, iters)
    }

    /// `(C², ρ, MPL)` points for the oracle checks: low and high
    /// variability, moderate and jump-start-capped load.
    const ORACLE_CASES: [(f64, f64, u32); 5] = [
        (2.0, 0.7, 5),
        (5.0, 0.9, 8),
        (15.0, 0.7, 10),
        (15.0, 0.95, 12),
        (1.29, 0.95, 20),
    ];

    #[test]
    fn log_reduction_r_solves_the_matrix_quadratic() {
        for (c2, rho, mpl) in ORACLE_CASES.into_iter().chain([(15.0, 0.95, 65)]) {
            let fs = FlexServer::new(rho / 0.1, H2::fit(0.1, c2), mpl);
            let (a0, a1, a2) = fs.repeating_blocks();
            let (r, steps) = fs.solve_r();
            let residual = a0.add(&r.mul(&a1)).add(&r.mul(&r).mul(&a2)).max_abs();
            assert!(
                residual <= 1e-12,
                "C2={c2} rho={rho} mpl={mpl}: residual {residual:e}"
            );
            assert!(steps <= 30, "C2={c2} rho={rho} mpl={mpl}: {steps} steps");
        }
    }

    #[test]
    fn response_time_matches_functional_iteration() {
        for (c2, rho, mpl) in ORACLE_CASES {
            let fs = FlexServer::new(rho / 0.1, H2::fit(0.1, c2), mpl);
            let got = fs.solve();
            let want = fs.solve_with(reference_solve_r(&fs));
            let rel =
                (got.mean_response_time - want.mean_response_time).abs() / want.mean_response_time;
            assert!(rel <= 1e-9, "C2={c2} rho={rho} mpl={mpl}: rel err {rel:e}");
            assert!(
                got.r_iterations < want.r_iterations / 10,
                "{} reduction steps vs {} functional iterations",
                got.r_iterations,
                want.r_iterations
            );
        }
    }

    #[test]
    fn mm1_for_any_mpl_when_c2_is_one() {
        // With exponential job sizes the flexible multiserver queue is an
        // M/M/1 regardless of the MPL: total service rate is constant.
        let h2 = H2::exponential(0.1);
        let lambda = 7.0;
        let want = mg1::mm1_response_time(lambda, 0.1);
        for mpl in [1u32, 2, 5, 20] {
            let fs = FlexServer::new(lambda, h2, mpl);
            let got = fs.mean_response_time();
            assert!(
                (got - want).abs() / want < 1e-6,
                "mpl={mpl}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn mpl_one_is_mg1_fifo() {
        for &c2 in &[2.0, 5.0, 10.0] {
            for &rho in &[0.5, 0.7, 0.9] {
                let h2 = H2::fit(0.1, c2);
                let lambda = rho / 0.1;
                let fs = FlexServer::new(lambda, h2, 1);
                let got = fs.mean_response_time();
                let want = mg1::mg1_fifo_response_time_h2(lambda, &h2);
                assert!(
                    (got - want).abs() / want < 1e-6,
                    "c2={c2} rho={rho}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn large_mpl_approaches_ps() {
        let h2 = H2::fit(0.1, 10.0);
        let lambda = 7.0;
        let ps = mg1::mg1_ps_response_time(lambda, 0.1);
        let fs = FlexServer::new(lambda, h2, 80);
        let got = fs.mean_response_time();
        assert!(
            (got - ps).abs() / ps < 0.03,
            "MPL=80 should be within 3% of PS: got {got}, ps {ps}"
        );
    }

    #[test]
    fn response_time_decreases_with_mpl_for_high_c2() {
        let h2 = H2::fit(0.1, 15.0);
        let lambda = 7.0;
        let t1 = FlexServer::new(lambda, h2, 1).mean_response_time();
        let t5 = FlexServer::new(lambda, h2, 5).mean_response_time();
        let t20 = FlexServer::new(lambda, h2, 20).mean_response_time();
        assert!(t1 > t5 && t5 > t20, "{t1} {t5} {t20}");
    }

    #[test]
    fn higher_load_needs_higher_mpl() {
        // Fig. 10: at load 0.9 the curve flattens much later than at 0.7.
        let h2 = H2::fit(0.1, 15.0);
        let gap = |rho: f64, mpl: u32| {
            let lambda = rho / 0.1;
            let ps = mg1::mg1_ps_response_time(lambda, 0.1);
            (FlexServer::new(lambda, h2, mpl).mean_response_time() - ps) / ps
        };
        // With MPL = 10 the 0.7-load system is much closer to PS than the
        // 0.9-load system.
        assert!(gap(0.7, 10) < 0.5 * gap(0.9, 10));
    }

    #[test]
    fn solution_probabilities_are_sane() {
        let h2 = H2::fit(0.2, 5.0);
        let fs = FlexServer::new(3.5, h2, 4); // rho = 0.7
        let sol = fs.solve();
        assert!(sol.p_empty > 0.0 && sol.p_empty < 1.0);
        assert!(sol.p_wait > 0.0 && sol.p_wait < 1.0);
        assert!(sol.mean_waiting >= 0.0);
        assert!(sol.mean_jobs >= sol.mean_waiting);
        assert!((sol.rho - 0.7).abs() < 1e-12);
    }

    #[test]
    fn r_is_nonnegative_with_spectral_radius_below_one() {
        let h2 = H2::fit(0.1, 10.0);
        let fs = FlexServer::new(9.0, h2, 6); // rho = 0.9
        let (r, _) = fs.solve_r();
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                assert!(r[(i, j)] >= -1e-12, "negative R entry at ({i},{j})");
            }
        }
        // Row sums of R^k must vanish: check spectral radius via power.
        let mut pow = r.clone();
        for _ in 0..200 {
            pow = pow.mul(&r);
        }
        assert!(pow.max_abs() < 1.0, "R^201 should be contracting");
    }

    #[test]
    fn queue_length_distribution_normalizes_and_matches_moments() {
        let h2 = H2::fit(0.1, 5.0);
        let fs = FlexServer::new(7.0, h2, 4);
        let dist = fs.queue_length_distribution(1e-10);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "mass {total}");
        let mean: f64 = dist.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
        let sol = fs.solve();
        assert!(
            (mean - sol.mean_jobs).abs() < 1e-6,
            "distribution mean {mean} vs solver {}",
            sol.mean_jobs
        );
        assert!((dist[0] - sol.p_empty).abs() < 1e-10);
    }

    #[test]
    fn queue_length_distribution_mm1_geometric() {
        // M/M/1: P(N = n) = (1-rho) rho^n.
        let fs = FlexServer::new(6.0, H2::exponential(0.1), 3);
        let dist = fs.queue_length_distribution(1e-12);
        for (n, p) in dist.iter().take(20).enumerate() {
            let want = 0.4 * 0.6f64.powi(n as i32);
            assert!((p - want).abs() < 1e-9, "n={n}: {p} vs {want}");
        }
    }

    #[test]
    fn reduced_block_matches_the_dense_product_bit_for_bit() {
        let fs = FlexServer::new(9.0, H2::fit(0.1, 15.0), 12);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for n in 1..=12 {
            // Signs, magnitudes and exact zeros mixed.
            let s = Mat::from_fn(n, n + 1, |_, _| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if x >> 62 == 0 {
                    0.0
                } else {
                    ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3
                }
            });
            let dense = Mat::diag(&fs.boundary_diag(n - 1)).add(&s.mul(&fs.boundary_down(n)));
            let fast = fs.reduced_block(n, &s);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        fast[(i, j)].to_bits(),
                        dense[(i, j)].to_bits(),
                        "n={n} ({i},{j}): {} vs {}",
                        fast[(i, j)],
                        dense[(i, j)]
                    );
                }
            }
        }
    }

    /// Every bit of 180 solves over the jump-start's range (C² from
    /// exponential to browsing, ρ up to 0.95, MPL up to 95), folded into
    /// one FNV-1a digest: a kernel rewrite that moves any output bit of
    /// any solve changes it.
    #[test]
    fn qbd_grid_digest_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c2 in [1.0, 1.29, 2.0, 5.0, 15.0] {
            for rho in [0.3, 0.7, 0.9, 0.95] {
                for m in [1, 2, 3, 7, 10, 25, 50, 65, 95] {
                    let s = FlexServer::new(rho / 0.1, H2::fit(0.1, c2), m).solve();
                    for x in [
                        s.mean_jobs,
                        s.mean_waiting,
                        s.mean_response_time,
                        s.p_empty,
                        s.p_wait,
                    ] {
                        for b in x.to_le_bytes() {
                            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0x3d4d_8244_e4d1_1c45, "digest {h:#018x}");
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn overload_rejected() {
        FlexServer::new(11.0, H2::exponential(0.1), 4);
    }

    #[test]
    #[should_panic(expected = "MPL must be at least 1")]
    fn zero_mpl_rejected() {
        FlexServer::new(1.0, H2::exponential(0.1), 0);
    }
}
