//! Exact solution of the *truncated* flexible multiserver chain.
//!
//! Cross-check for the matrix-geometric solver in [`crate::flex`]: the same
//! CTMC truncated at a finite level `N` (arrivals at level `N` are dropped,
//! i.e. a finite buffer) is block tridiagonal and can be solved exactly by
//! backward level reduction — compute matrices `S_n` with
//! `π_{n+1} = π_n · S_n` from the top down, then propagate from level 0 and
//! normalize. For truncation levels well above the typical backlog the two
//! solvers agree to many digits; the tests enforce that.

use crate::flex::FlexServer;
use crate::linalg::Mat;

/// Solution of the truncated chain.
#[derive(Debug, Clone)]
pub struct TruncatedSolution {
    /// Mean number in system.
    pub mean_jobs: f64,
    /// Mean response time by Little's law with the *effective* arrival rate
    /// `λ·(1 − P(level = N))`.
    pub mean_response_time: f64,
    /// Probability mass at the truncation level (should be ≈ 0 for a valid
    /// truncation; callers can assert on it).
    pub truncation_mass: f64,
    /// Per-level total probabilities.
    pub level_probs: Vec<f64>,
}

/// Solve the flexible multiserver queue truncated at level `n_max`
/// (`n_max ≥ mpl + 1`).
pub fn solve_truncated(fs: &FlexServer, n_max: usize) -> TruncatedSolution {
    let m = fs.mpl as usize;
    assert!(n_max > m, "truncation must exceed the MPL");
    let (a0, a1, a2) = fs.repeating_blocks();
    let sz = m + 1;

    // Per-level blocks. Level n has width w(n) = min(n, m) + 1.
    let width = |n: usize| n.min(m) + 1;

    // Local (diagonal) block of level n. For the truncated top level the
    // arrival rate is removed from the diagonal so rows still sum to zero.
    let local = |n: usize| -> Mat {
        if n <= m {
            let d = fs_boundary_diag(fs, n, n == n_max);
            Mat::diag(&d)
        } else {
            let mut d = a1.clone();
            if n == n_max {
                for j in 0..sz {
                    d[(j, j)] += fs.lambda;
                }
            }
            d
        }
    };
    // Up block from level n to n+1 (only defined for n < n_max).
    let up = |n: usize| -> Mat {
        if n < m {
            fs_boundary_up(fs, n)
        } else {
            a0.clone()
        }
    };
    // Down block from level n to n−1 (n ≥ 1).
    let down = |n: usize| -> Mat {
        if n <= m {
            fs_boundary_down(fs, n)
        } else {
            a2.clone()
        }
    };

    // Backward reduction: S_{n} with π_{n+1} = π_n S_n.
    // At the top: π_{N−1}·Up(N−1) + π_N·Local(N) = 0
    //   ⇒ S_{N−1} = −Up(N−1)·Local(N)⁻¹.
    // Inner:      π_{n−1}·Up(n−1) + π_n·(Local(n) + S_n·Down(n+1)) = 0
    //   ⇒ S_{n−1} = −Up(n−1)·(Local(n) + S_n·Down(n+1))⁻¹.
    let mut s: Vec<Mat> = vec![Mat::zeros(0, 0); n_max];
    s[n_max - 1] = up(n_max - 1).scale(-1.0).mul(&local(n_max).inverse());
    for n in (1..n_max).rev() {
        let inner = local(n).add(&s[n].mul(&down(n + 1)));
        s[n - 1] = up(n - 1).scale(-1.0).mul(&inner.inverse());
    }

    // Level 0 is a single state; π_0 fixed by normalization.
    let mut pis: Vec<Vec<f64>> = Vec::with_capacity(n_max + 1);
    pis.push(vec![1.0]);
    for n in 0..n_max {
        let next = s[n].vec_mul(&pis[n]);
        debug_assert_eq!(next.len(), width(n + 1));
        pis.push(next);
    }
    let total: f64 = pis.iter().map(|v| v.iter().sum::<f64>()).sum();
    for v in pis.iter_mut() {
        for x in v.iter_mut() {
            *x /= total;
        }
    }

    let level_probs: Vec<f64> = pis.iter().map(|v| v.iter().sum()).collect();
    let mean_jobs: f64 = level_probs
        .iter()
        .enumerate()
        .map(|(n, p)| n as f64 * p)
        .sum();
    let truncation_mass = level_probs[n_max];
    let lambda_eff = fs.lambda * (1.0 - truncation_mass);
    TruncatedSolution {
        mean_jobs,
        mean_response_time: mean_jobs / lambda_eff,
        truncation_mass,
        level_probs,
    }
}

// Thin wrappers so this module can reuse FlexServer's boundary blocks
// without widening their visibility beyond the crate.
fn fs_boundary_up(fs: &FlexServer, n: usize) -> Mat {
    fs.boundary_up(n)
}
fn fs_boundary_down(fs: &FlexServer, n: usize) -> Mat {
    fs.boundary_down(n)
}
fn fs_boundary_diag(fs: &FlexServer, n: usize, top: bool) -> Vec<f64> {
    let mut d = fs.boundary_diag(n);
    if top {
        for x in d.iter_mut() {
            *x += fs.lambda;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h2::H2;
    use crate::mg1;

    #[test]
    fn truncated_mm1_matches_closed_form() {
        // M/M/1 with finite buffer N: for N large it converges to M/M/1.
        let fs = FlexServer::new(5.0, H2::exponential(0.1), 1);
        let sol = solve_truncated(&fs, 200);
        let want = mg1::mm1_response_time(5.0, 0.1);
        assert!(sol.truncation_mass < 1e-12);
        assert!(
            (sol.mean_response_time - want).abs() / want < 1e-9,
            "got {} want {want}",
            sol.mean_response_time
        );
    }

    #[test]
    fn agrees_with_matrix_geometric() {
        // (C², ρ, MPL, truncation level). The last case is the range the
        // jump-start visits on the heavy-tailed browsing setups — MPL 65
        // at the 0.95 load cap — where the tail decays so slowly that the
        // chain must be truncated thousands of levels deep.
        for &(c2, rho, mpl, n_max) in &[
            (2.0, 0.7, 3u32, 800),
            (5.0, 0.7, 6, 800),
            (10.0, 0.8, 4, 800),
            (15.0, 0.7, 10, 800),
            (15.0, 0.95, 65, 4_000),
        ] {
            let h2 = H2::fit(0.1, c2);
            let lambda = rho / 0.1;
            let fs = FlexServer::new(lambda, h2, mpl);
            let qbd = fs.solve();
            let trunc = solve_truncated(&fs, n_max);
            assert!(trunc.truncation_mass < 1e-13, "truncation too low");
            let rel = (qbd.mean_response_time - trunc.mean_response_time).abs()
                / trunc.mean_response_time;
            assert!(
                rel <= 1e-9,
                "c2={c2} rho={rho} mpl={mpl}: qbd {} vs truncated {}",
                qbd.mean_response_time,
                trunc.mean_response_time
            );
        }
    }

    #[test]
    fn level_probabilities_sum_to_one_and_decay() {
        let fs = FlexServer::new(6.0, H2::fit(0.1, 5.0), 4);
        let sol = solve_truncated(&fs, 400);
        let total: f64 = sol.level_probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        // Geometric tail: deep levels carry exponentially less mass.
        assert!(sol.level_probs[300] < sol.level_probs[30]);
    }

    #[test]
    #[should_panic(expected = "truncation must exceed")]
    fn rejects_tiny_truncation() {
        let fs = FlexServer::new(1.0, H2::exponential(0.1), 5);
        solve_truncated(&fs, 4);
    }
}
