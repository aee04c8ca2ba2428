//! Eigenvalue routines: a cyclic Jacobi solver for symmetric matrices and a
//! power-iteration helper.
//!
//! The MQMApprox bound (Lemma 4.8 of the paper) needs the *eigengap*
//! `min { 1 - |lambda| : lambda eigenvalue of P P*, |lambda| < 1 }`. `P P*`
//! (the multiplicative reversibilization of a chain) is reversible with
//! respect to the stationary distribution `pi`, so
//! `D^{1/2} (P P*) D^{-1/2}` (with `D = diag(pi)`) is symmetric and a
//! symmetric eigensolver suffices. The same trick applies to a reversible `P`
//! itself (Lemma C.1).

use crate::{LinalgError, Matrix, Result, Vector};

/// Maximum number of Jacobi sweeps before giving up.
const MAX_JACOBI_SWEEPS: usize = 100;

/// Off-diagonal magnitude at which the Jacobi iteration stops.
const JACOBI_TOLERANCE: f64 = 1e-12;

/// Computes all eigenvalues of a symmetric matrix using the cyclic Jacobi
/// method. The returned eigenvalues are sorted in descending order.
///
/// The sweep runs on the connected components of the matrix's nonzero
/// pattern, each held as its own dense block. An entry between two
/// components is an exact zero that no rotation changes, so the blocks
/// replay the sweep over the whole matrix bit for bit while each rotation
/// touches only its block's rows: a block-diagonal matrix, such as the
/// `AᵀA` of a tridiagonal `A` (its even and odd indices), costs the sum of
/// its blocks, and a dense matrix is one block.
///
/// # Errors
/// * [`LinalgError::NotSquare`] if the matrix is not square.
/// * [`LinalgError::NonFinite`] if an entry is not finite.
/// * [`LinalgError::Empty`] for a 0 × 0 matrix.
/// * [`LinalgError::DidNotConverge`] if the sweeps fail to reduce the
///   off-diagonal mass below tolerance.
///
/// Small asymmetries (round-off) are averaged away; a matrix that is far
/// from symmetric is a caller bug and yields meaningless eigenvalues.
pub fn symmetric_eigenvalues(a: &Matrix) -> Result<Vec<f64>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite {
            context: "symmetric_eigenvalues",
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if n == 1 {
        return Ok(vec![a[(0, 0)]]);
    }

    let mut blocks = Blocks::new(a);
    for _sweep in 0..MAX_JACOBI_SWEEPS {
        if blocks.off_diagonal_norm() < JACOBI_TOLERANCE {
            let mut eigs = blocks.diagonal();
            eigs.sort_by(|a, b| b.partial_cmp(a).expect("finite eigenvalues"));
            return Ok(eigs);
        }
        // A rotation reads and writes only its own block, so sweeping the
        // blocks one after another performs each block's rotations in the
        // order of the whole-matrix sweep (pairs `p < q` in index order).
        for block in &mut blocks.blocks {
            let k = block.rows();
            for p in 0..k {
                for q in (p + 1)..k {
                    if block[(p, q)].abs() < JACOBI_TOLERANCE * 1e-3 {
                        continue;
                    }
                    jacobi_rotate(block, p, q);
                }
            }
        }
    }
    Err(LinalgError::DidNotConverge {
        routine: "jacobi eigenvalue iteration",
        iterations: MAX_JACOBI_SWEEPS,
    })
}

/// Returns the largest eigenvalue of a symmetric matrix.
///
/// # Errors
/// Same failure modes as [`symmetric_eigenvalues`].
pub fn largest_eigenvalue_symmetric(a: &Matrix) -> Result<f64> {
    let eigs = symmetric_eigenvalues(a)?;
    eigs.into_iter().reduce(f64::max).ok_or(LinalgError::Empty)
}

/// A symmetrised square matrix held as one dense block per connected
/// component of its nonzero pattern (`a[(i, j)] != 0` or `a[(j, i)] != 0`).
///
/// Each block lists its indices in increasing order, so a block's pairs
/// `p < q` are the matrix's pairs between those indices, in index order.
/// Every entry between two components symmetrises to an exact zero, and a
/// rotation of a block multiplies the zeros of the other components' rows
/// and columns into zeros, so the components never merge; those zeros add
/// nothing to the off-diagonal sum and are never rotated.
struct Blocks {
    /// `(block, position within the block)` of each matrix index.
    place: Vec<(usize, usize)>,
    blocks: Vec<Matrix>,
}

impl Blocks {
    fn new(a: &Matrix) -> Self {
        let n = a.rows();
        let mut place = vec![(usize::MAX, 0); n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for root in 0..n {
            if place[root].0 != usize::MAX {
                continue;
            }
            // Label the component of `root`, the lowest unlabelled index,
            // by a walk over the pattern.
            let block = members.len();
            place[root].0 = block;
            let (mut group, mut stack) = (Vec::new(), vec![root]);
            while let Some(i) = stack.pop() {
                group.push(i);
                for j in 0..n {
                    if place[j].0 == usize::MAX && (a[(i, j)] != 0.0 || a[(j, i)] != 0.0) {
                        place[j].0 = block;
                        stack.push(j);
                    }
                }
            }
            group.sort_unstable();
            members.push(group);
        }
        let blocks = members
            .iter()
            .map(|group| {
                let mut block = Matrix::zeros(group.len(), group.len());
                for (p, &i) in group.iter().enumerate() {
                    place[i].1 = p;
                    block[(p, p)] = a[(i, i)];
                    for (q, &j) in group.iter().enumerate().skip(p + 1) {
                        // Round-off asymmetry averages away.
                        let avg = 0.5 * (a[(i, j)] + a[(j, i)]);
                        block[(p, q)] = avg;
                        block[(q, p)] = avg;
                    }
                }
                block
            })
            .collect();
        Blocks { place, blocks }
    }

    /// The off-diagonal Frobenius norm of the upper triangle, summed in
    /// the matrix's index order.
    fn off_diagonal_norm(&self) -> f64 {
        let mut sum = 0.0;
        for &(block, p) in &self.place {
            let block = &self.blocks[block];
            for q in (p + 1)..block.rows() {
                sum += block[(p, q)] * block[(p, q)];
            }
        }
        sum.sqrt()
    }

    /// The diagonal, in the matrix's index order.
    fn diagonal(&self) -> Vec<f64> {
        self.place
            .iter()
            .map(|&(block, p)| self.blocks[block][(p, p)])
            .collect()
    }
}

/// One Jacobi rotation zeroing out the (p, q) entry of a symmetric matrix.
fn jacobi_rotate(m: &mut Matrix, p: usize, q: usize) {
    let n = m.rows();
    let apq = m[(p, q)];
    if apq == 0.0 {
        return;
    }
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let theta = (aqq - app) / (2.0 * apq);
    // Numerically stable tangent of the rotation angle.
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;

    for k in 0..n {
        let mkp = m[(k, p)];
        let mkq = m[(k, q)];
        m[(k, p)] = c * mkp - s * mkq;
        m[(k, q)] = s * mkp + c * mkq;
    }
    for k in 0..n {
        let mpk = m[(p, k)];
        let mqk = m[(q, k)];
        m[(p, k)] = c * mpk - s * mqk;
        m[(q, k)] = s * mpk + c * mqk;
    }
}

/// Options controlling [`power_iteration`].
#[derive(Debug, Clone, Copy)]
pub struct PowerIterationOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the change of the iterate (L1).
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iterations: 100_000,
            tolerance: 1e-14,
        }
    }
}

/// Left power iteration `x_{k+1} = normalize(x_k^T A)` starting from `start`.
///
/// When `A` is the transition matrix of an irreducible, aperiodic Markov chain
/// and `start` is a probability vector, this converges to the stationary
/// distribution. The iterate is re-normalised in L1 at every step.
///
/// # Errors
/// * [`LinalgError::NotSquare`] / dimension mismatches for malformed input.
/// * [`LinalgError::DidNotConverge`] if the tolerance is not reached within
///   `options.max_iterations`.
pub fn power_iteration(
    a: &Matrix,
    start: &Vector,
    options: PowerIterationOptions,
) -> Result<Vector> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if start.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            operation: "power iteration",
            expected: a.rows(),
            found: start.len(),
        });
    }
    let mut x = start.clone();
    let norm = x.l1_norm();
    if norm == 0.0 {
        return Err(LinalgError::Empty);
    }
    x = x.scaled(1.0 / norm);

    for _ in 0..options.max_iterations {
        let mut next = a.left_mul(&x)?;
        let norm = next.l1_norm();
        if norm == 0.0 || !norm.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "power iteration",
            });
        }
        next = next.scaled(1.0 / norm);
        let delta = next.l1_distance(&x)?;
        x = next;
        if delta < options.tolerance {
            return Ok(x);
        }
    }
    Err(LinalgError::DidNotConverge {
        routine: "power iteration",
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let d = Matrix::diagonal(&[3.0, 1.0, -2.0]);
        let eigs = symmetric_eigenvalues(&d).unwrap();
        assert!(approx_eq(eigs[0], 3.0, 1e-10));
        assert!(approx_eq(eigs[1], 1.0, 1e-10));
        assert!(approx_eq(eigs[2], -2.0, 1e-10));
    }

    #[test]
    fn eigenvalues_of_known_symmetric_matrix() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eigs = symmetric_eigenvalues(&a).unwrap();
        assert!(approx_eq(eigs[0], 3.0, 1e-10));
        assert!(approx_eq(eigs[1], 1.0, 1e-10));
        assert!(approx_eq(
            largest_eigenvalue_symmetric(&a).unwrap(),
            3.0,
            1e-10
        ));
    }

    #[test]
    fn one_by_one_and_error_cases() {
        let a = Matrix::from_rows(&[vec![7.0]]).unwrap();
        assert_eq!(symmetric_eigenvalues(&a).unwrap(), vec![7.0]);
        assert!(symmetric_eigenvalues(&Matrix::zeros(2, 3)).is_err());
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert!(symmetric_eigenvalues(&nan).is_err());
    }

    /// The Jacobi sweep over the whole dense matrix, as it ran before the
    /// sweep was split into component blocks: the oracle the block sweep
    /// must match bit for bit.
    fn dense_symmetric_eigenvalues(a: &Matrix) -> Result<Vec<f64>> {
        let n = a.rows();
        if n == 1 {
            return Ok(vec![a[(0, 0)]]);
        }
        let mut m = a.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        for _sweep in 0..MAX_JACOBI_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() < JACOBI_TOLERANCE {
                let mut eigs: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
                eigs.sort_by(|a, b| b.partial_cmp(a).expect("finite eigenvalues"));
                return Ok(eigs);
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    if m[(p, q)].abs() < JACOBI_TOLERANCE * 1e-3 {
                        continue;
                    }
                    jacobi_rotate(&mut m, p, q);
                }
            }
        }
        Err(LinalgError::DidNotConverge {
            routine: "jacobi eigenvalue iteration",
            iterations: MAX_JACOBI_SWEEPS,
        })
    }

    fn assert_matches_dense(a: &Matrix, what: &str) {
        let bits = |eigs: Result<Vec<f64>>| eigs.map(|e| e.iter().map(|x| x.to_bits()).collect());
        let blocks: Result<Vec<u64>> = bits(symmetric_eigenvalues(a));
        assert_eq!(blocks, bits(dense_symmetric_eigenvalues(a)), "{what}");
    }

    #[test]
    fn block_sweep_matches_the_dense_sweep_on_random_block_patterns() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for trial in 0..1_000 {
            let n = rng.gen_range(2..=32usize);
            // Indices draw one of a few labels; entries join equal labels
            // only, some of them zero, with round-off asymmetry.
            let labels = rng.gen_range(1..=4usize);
            let label: Vec<usize> = (0..n).map(|_| rng.gen_range(0..labels)).collect();
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = rng.gen_range(-3.0..3.0);
                for j in (i + 1)..n {
                    if label[i] != label[j] || rng.gen_range(0.0..1.0) < 0.3 {
                        continue;
                    }
                    let value = rng.gen_range(-2.0..2.0);
                    a[(i, j)] = value;
                    a[(j, i)] = value * (1.0 + 1e-15 * rng.gen_range(-1.0..1.0));
                }
            }
            assert_matches_dense(&a, &format!("trial {trial}, n {n}"));
        }
    }

    #[test]
    fn block_sweep_matches_the_dense_sweep_on_tridiagonal_gram_matrices() {
        // GK16's influence matrix: constant super-diagonal `forward` and
        // sub-diagonal `backward`; its `AᵀA` splits by index parity. Every
        // length up to 64, then every fourth (the dense oracle's cost grows
        // as T³), plus the odd lengths 99 and 255.
        let pairs = [(1.5f64.ln(), 1.5f64.ln()), (0.3, 0.45), (0.0, 2.2e-16)];
        let lengths = (2..=64).chain((68..=256).step_by(4)).chain([99, 255]);
        for length in lengths {
            let (forward, backward) = pairs[length % pairs.len()];
            let mut a = Matrix::zeros(length, length);
            for t in 0..length - 1 {
                a[(t, t + 1)] = forward;
                a[(t + 1, t)] = backward;
            }
            let gram = a.transpose().matmul(&a).unwrap();
            assert_matches_dense(&gram, &format!("T {length}"));
        }
    }

    #[test]
    fn power_iteration_finds_stationary_distribution() {
        let p = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap();
        let start = Vector::from(vec![0.5, 0.5]);
        let pi = power_iteration(&p, &start, PowerIterationOptions::default()).unwrap();
        assert!(approx_eq(pi[0], 0.8, 1e-8));
        assert!(approx_eq(pi[1], 0.2, 1e-8));
    }

    #[test]
    fn power_iteration_error_cases() {
        let p = Matrix::identity(2);
        assert!(power_iteration(&p, &Vector::zeros(3), PowerIterationOptions::default()).is_err());
        assert!(power_iteration(&p, &Vector::zeros(2), PowerIterationOptions::default()).is_err());
        assert!(
            power_iteration(&Matrix::zeros(2, 3), &Vector::zeros(2), Default::default()).is_err()
        );
        // A periodic chain (swap states each step) does not converge from a
        // non-uniform start.
        let periodic = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let start = Vector::from(vec![1.0, 0.0]);
        let opts = PowerIterationOptions {
            max_iterations: 50,
            tolerance: 1e-12,
        };
        assert!(matches!(
            power_iteration(&periodic, &start, opts),
            Err(LinalgError::DidNotConverge { .. })
        ));
    }

    proptest! {
        /// Eigenvalues of random symmetric matrices have a trace equal to the
        /// matrix trace, and their count equals the dimension.
        #[test]
        fn prop_trace_preserved(entries in proptest::collection::vec(-5.0f64..5.0, 9)) {
            let raw = Matrix::from_flat(3, 3, entries).unwrap();
            // Symmetrise.
            let sym = raw.try_add(&raw.transpose()).unwrap().scaled(0.5);
            let eigs = symmetric_eigenvalues(&sym).unwrap();
            prop_assert_eq!(eigs.len(), 3);
            let trace: f64 = (0..3).map(|i| sym[(i, i)]).sum();
            let eig_sum: f64 = eigs.iter().sum();
            prop_assert!((trace - eig_sum).abs() < 1e-8);
            // Sorted descending.
            prop_assert!(eigs[0] >= eigs[1] && eigs[1] >= eigs[2]);
        }

        /// The largest eigenvalue of A^T A equals the squared spectral norm,
        /// which is always at least the largest squared column norm / n... we
        /// simply check non-negativity and finiteness here.
        #[test]
        fn prop_gram_matrix_eigenvalues_nonnegative(entries in proptest::collection::vec(-3.0f64..3.0, 9)) {
            let a = Matrix::from_flat(3, 3, entries).unwrap();
            let gram = a.transpose().matmul(&a).unwrap();
            let eigs = symmetric_eigenvalues(&gram).unwrap();
            for e in eigs {
                prop_assert!(e > -1e-8);
                prop_assert!(e.is_finite());
            }
        }
    }
}
