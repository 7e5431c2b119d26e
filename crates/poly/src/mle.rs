//! Multilinear extensions stored as evaluation ("MLE") tables.
//!
//! HyperPlonk stores every polynomial as the table of its evaluations over
//! the Boolean hypercube (Section 2.3 of the zkSpeed paper). This module is
//! the functional home of the three MLE kernels the accelerator builds units
//! for:
//!
//! * **Build MLE** — [`MultilinearPoly::eq_mle`], the `eq(X, r)` table built
//!   from `μ` challenges with `2^{μ+1} − 4` multiplications via the forward
//!   tree (Multifunction Tree unit, forward mode);
//! * **MLE Evaluate** — [`MultilinearPoly::evaluate`], compressing a table to
//!   one value (Multifunction Tree unit, inverse mode);
//! * **MLE Update** — [`MultilinearPoly::fix_first_variable`], the
//!   `t'[i] = (t[2i+1] − t[2i])·r + t[2i]` halving applied between SumCheck
//!   rounds (MLE Update unit).
//!
//! # Index convention
//!
//! Tables are indexed LSB-first: entry `i` holds the evaluation at the point
//! `(x₁, …, x_μ)` with `x₁ = i & 1`, `x₂ = (i >> 1) & 1`, and so on. Fixing
//! the *first* variable therefore merges index pairs `(2i, 2i + 1)`, exactly
//! matching Eq. (2) of the paper.

use core::fmt;
use core::ops::Index;
use std::sync::Arc;

use zkspeed_field::Fr;
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::Rng;

/// A multilinear polynomial in `μ` variables represented by its `2^μ`
/// evaluations over the Boolean hypercube.
///
/// # Examples
///
/// ```
/// use zkspeed_field::Fr;
/// use zkspeed_poly::MultilinearPoly;
///
/// // f(x1, x2) with f(0,0)=1, f(1,0)=2, f(0,1)=3, f(1,1)=4.
/// let f = MultilinearPoly::new(vec![
///     Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(4),
/// ]);
/// assert_eq!(f.num_vars(), 2);
/// // At a Boolean point the extension agrees with the table.
/// assert_eq!(f.evaluate(&[Fr::from_u64(1), Fr::from_u64(0)]), Fr::from_u64(2));
/// ```
/// The evaluation table is stored behind an [`Arc`], so cloning a polynomial
/// is O(1) — the prover freely shares selector and witness tables between
/// virtual polynomials, keys and worker jobs without copying `2^μ` field
/// elements. Mutation goes through [`MultilinearPoly::evaluations_mut`],
/// which copies on write only when the table is actually shared.
#[derive(Clone, PartialEq, Eq)]
pub struct MultilinearPoly {
    num_vars: usize,
    evals: Arc<Vec<Fr>>,
}

impl fmt::Debug for MultilinearPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultilinearPoly(μ={}, 2^μ={})",
            self.num_vars,
            self.evals.len()
        )
    }
}

impl MultilinearPoly {
    /// Creates an MLE from its evaluation table.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or is zero.
    pub fn new(evals: Vec<Fr>) -> Self {
        assert!(!evals.is_empty(), "MLE table must be non-empty");
        assert!(
            evals.len().is_power_of_two(),
            "MLE table length must be a power of two"
        );
        let num_vars = evals.len().trailing_zeros() as usize;
        Self {
            num_vars,
            evals: Arc::new(evals),
        }
    }

    /// Creates the constant polynomial `c` in `num_vars` variables.
    pub fn constant(c: Fr, num_vars: usize) -> Self {
        Self {
            num_vars,
            evals: Arc::new(vec![c; 1 << num_vars]),
        }
    }

    /// Creates the zero polynomial in `num_vars` variables.
    pub fn zero(num_vars: usize) -> Self {
        Self::constant(Fr::zero(), num_vars)
    }

    /// Builds an MLE by evaluating `f` at every hypercube index.
    pub fn from_fn(num_vars: usize, f: impl FnMut(usize) -> Fr) -> Self {
        Self {
            num_vars,
            evals: Arc::new((0..1usize << num_vars).map(f).collect()),
        }
    }

    /// Samples an MLE with uniformly random evaluations.
    pub fn random<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Self {
        Self::from_fn(num_vars, |_| Fr::random(rng))
    }

    /// Number of variables `μ`.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of table entries, `2^μ`.
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// Returns `true` if the table has a single entry (`μ = 0`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The raw evaluation table.
    pub fn evaluations(&self) -> &[Fr] {
        self.evals.as_slice()
    }

    /// The evaluation table as a shareable handle; worker jobs clone this
    /// instead of copying the table.
    pub fn shared_evaluations(&self) -> Arc<Vec<Fr>> {
        Arc::clone(&self.evals)
    }

    /// Mutable access to the evaluation table (used by the circuit builder).
    /// Copies the table first if it is currently shared.
    pub fn evaluations_mut(&mut self) -> &mut [Fr] {
        Arc::make_mut(&mut self.evals).as_mut_slice()
    }

    /// Builds the `eq(X, point)` table (the paper's **Build MLE**), where
    /// `eq(x, r) = Π_j (x_j·r_j + (1−x_j)(1−r_j))`.
    ///
    /// The construction processes one challenge per tree level, doubling the
    /// table each time, for a total of `2^{μ+1} − 4` multiplications (each
    /// level needs one multiplication per output pair because
    /// `old·(1−r) = old − old·r`).
    pub fn eq_mle(point: &[Fr]) -> Self {
        let mu = point.len();
        let mut evals = Vec::with_capacity(1 << mu);
        evals.push(Fr::one());
        for r in point.iter() {
            let half = evals.len();
            let mut next = vec![Fr::zero(); half * 2];
            for i in 0..half {
                let hi = evals[i] * *r;
                next[i] = evals[i] - hi; // old·(1 − r) without a second modmul
                next[i + half] = hi;
            }
            evals = next;
        }
        Self {
            num_vars: mu,
            evals: Arc::new(evals),
        }
    }

    /// [`Self::eq_mle`] on an explicit execution backend: each doubling
    /// level fans its index space out over the backend's workers once the
    /// table is large enough to be worth it. Chunk results are concatenated
    /// in order, so the table is bit-identical to the serial construction.
    pub fn eq_mle_on(point: &[Fr], backend: &dyn Backend) -> Self {
        /// Below this many output pairs a level stays on the calling thread.
        const MIN_CHUNK: usize = 1 << 12;
        let mu = point.len();
        let mut evals = Vec::with_capacity(1 << mu);
        evals.push(Fr::one());
        for r in point.iter() {
            let half = evals.len();
            if half < MIN_CHUNK || backend.threads() == 1 {
                let mut next = vec![Fr::zero(); half * 2];
                for i in 0..half {
                    let hi = evals[i] * *r;
                    next[i] = evals[i] - hi;
                    next[i + half] = hi;
                }
                evals = next;
            } else {
                let cur = Arc::new(std::mem::take(&mut evals));
                let r = *r;
                let parts = pool::map_ranges(backend, half, MIN_CHUNK, move |range| {
                    let mut lo = Vec::with_capacity(range.len());
                    let mut hi = Vec::with_capacity(range.len());
                    for i in range {
                        let h = cur[i] * r;
                        lo.push(cur[i] - h);
                        hi.push(h);
                    }
                    (lo, hi)
                });
                let mut next = Vec::with_capacity(half * 2);
                let mut highs = Vec::with_capacity(half);
                for (lo, hi) in parts {
                    next.extend(lo);
                    highs.push(hi);
                }
                for hi in highs {
                    next.extend(hi);
                }
                evals = next;
            }
        }
        Self {
            num_vars: mu,
            evals: Arc::new(evals),
        }
    }

    /// Evaluates `eq(x, y)` for two points of equal length.
    pub fn eq_eval(x: &[Fr], y: &[Fr]) -> Fr {
        assert_eq!(x.len(), y.len(), "eq_eval: length mismatch");
        let mut acc = Fr::one();
        for (a, b) in x.iter().zip(y.iter()) {
            let ab = *a * *b;
            acc *= ab + ab + Fr::one() - *a - *b; // a·b + (1−a)(1−b)
        }
        acc
    }

    /// **MLE Update** (Eq. 2 of the paper): fixes the first variable to `r`,
    /// halving the table: `t'[i] = (t[2i+1] − t[2i])·r + t[2i]`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has no variables left.
    pub fn fix_first_variable(&self, r: Fr) -> Self {
        assert!(self.num_vars > 0, "cannot fix a variable of a constant");
        let half = self.evals.len() / 2;
        let mut next = Vec::with_capacity(half);
        for i in 0..half {
            let lo = self.evals[2 * i];
            let hi = self.evals[2 * i + 1];
            next.push((hi - lo) * r + lo);
        }
        Self {
            num_vars: self.num_vars - 1,
            evals: Arc::new(next),
        }
    }

    /// [`Self::fix_first_variable`] on an explicit execution backend: large
    /// tables fan their index space out over the backend's workers, with
    /// chunk results concatenated in order (bit-identical to the serial
    /// halving at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has no variables left.
    pub fn fix_first_variable_on(&self, r: Fr, backend: &dyn Backend) -> Self {
        /// Below this many output entries the halving stays serial.
        const MIN_CHUNK: usize = 1 << 12;
        assert!(self.num_vars > 0, "cannot fix a variable of a constant");
        let half = self.evals.len() / 2;
        if half < MIN_CHUNK || backend.threads() == 1 {
            return self.fix_first_variable(r);
        }
        let evals = self.shared_evaluations();
        let parts = pool::map_ranges(backend, half, MIN_CHUNK, move |range| {
            range
                .map(|i| {
                    let lo = evals[2 * i];
                    let hi = evals[2 * i + 1];
                    (hi - lo) * r + lo
                })
                .collect::<Vec<Fr>>()
        });
        let mut next = Vec::with_capacity(half);
        for chunk in parts {
            next.extend(chunk);
        }
        Self {
            num_vars: self.num_vars - 1,
            evals: Arc::new(next),
        }
    }

    /// Fixes the first `point.len()` variables, in order.
    pub fn fix_first_variables(&self, point: &[Fr]) -> Self {
        let mut cur = self.clone();
        for r in point {
            cur = cur.fix_first_variable(*r);
        }
        cur
    }

    /// **MLE Evaluate**: evaluates the multilinear extension at an arbitrary
    /// point of `μ` field elements.
    ///
    /// # Panics
    ///
    /// Panics if the point length does not match the number of variables.
    pub fn evaluate(&self, point: &[Fr]) -> Fr {
        assert_eq!(
            point.len(),
            self.num_vars,
            "evaluate: point length must equal the number of variables"
        );
        let reduced = self.fix_first_variables(point);
        reduced.evals[0]
    }

    /// Sums the table over the whole Boolean hypercube.
    pub fn sum_over_hypercube(&self) -> Fr {
        self.evals.iter().sum()
    }

    /// Adds another MLE of the same size element-wise.
    ///
    /// # Panics
    ///
    /// Panics on a variable-count mismatch.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.num_vars, other.num_vars, "add: variable mismatch");
        Self {
            num_vars: self.num_vars,
            evals: Arc::new(
                self.evals
                    .iter()
                    .zip(other.evals.iter())
                    .map(|(a, b)| *a + *b)
                    .collect(),
            ),
        }
    }

    /// Scales every evaluation by `c`.
    pub fn scale(&self, c: Fr) -> Self {
        Self {
            num_vars: self.num_vars,
            evals: Arc::new(self.evals.iter().map(|a| *a * c).collect()),
        }
    }

    /// Element-wise (Hadamard) product with another MLE of the same size.
    ///
    /// Note that the result is the table of products, i.e. the MLE that
    /// agrees with `f·g` on the hypercube, not the (higher-degree) product
    /// polynomial itself.
    ///
    /// # Panics
    ///
    /// Panics on a variable-count mismatch.
    pub fn hadamard(&self, other: &Self) -> Self {
        assert_eq!(self.num_vars, other.num_vars, "hadamard: variable mismatch");
        Self {
            num_vars: self.num_vars,
            evals: Arc::new(
                self.evals
                    .iter()
                    .zip(other.evals.iter())
                    .map(|(a, b)| *a * *b)
                    .collect(),
            ),
        }
    }

    /// Computes a linear combination `Σ cᵢ·fᵢ` of same-sized MLEs.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, are empty, or the MLEs
    /// disagree on the number of variables.
    pub fn linear_combination(coeffs: &[Fr], polys: &[&Self]) -> Self {
        assert_eq!(
            coeffs.len(),
            polys.len(),
            "linear_combination: length mismatch"
        );
        assert!(!polys.is_empty(), "linear_combination: empty input");
        let num_vars = polys[0].num_vars;
        let mut evals = vec![Fr::zero(); 1 << num_vars];
        for (c, p) in coeffs.iter().zip(polys.iter()) {
            assert_eq!(
                p.num_vars, num_vars,
                "linear_combination: variable mismatch"
            );
            for (e, v) in evals.iter_mut().zip(p.evals.iter()) {
                *e += *c * *v;
            }
        }
        Self {
            num_vars,
            evals: Arc::new(evals),
        }
    }
}

impl Index<usize> for MultilinearPoly {
    type Output = Fr;
    fn index(&self, index: usize) -> &Fr {
        &self.evals[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0005)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    #[test]
    fn construction_and_accessors() {
        let f = MultilinearPoly::new(vec![u(1), u(2), u(3), u(4)]);
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.len(), 4);
        assert_eq!(f[2], u(3));
        assert_eq!(f.evaluations().len(), 4);
        let c = MultilinearPoly::constant(u(7), 3);
        assert_eq!(c.len(), 8);
        assert_eq!(c.sum_over_hypercube(), u(56));
        let z = MultilinearPoly::zero(2);
        assert_eq!(z.sum_over_hypercube(), Fr::zero());
        let g = MultilinearPoly::from_fn(3, |i| u(i as u64));
        assert_eq!(g[5], u(5));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = MultilinearPoly::new(vec![u(1), u(2), u(3)]);
    }

    #[test]
    fn boolean_points_match_table() {
        let f = MultilinearPoly::new(vec![u(10), u(20), u(30), u(40), u(50), u(60), u(70), u(80)]);
        for i in 0..8usize {
            let point: Vec<Fr> = (0..3).map(|j| u(((i >> j) & 1) as u64)).collect();
            assert_eq!(f.evaluate(&point), f[i], "index {i}");
        }
    }

    #[test]
    fn evaluation_is_multilinear() {
        // A multilinear function is affine in each variable:
        // f(r, y) = (1-r)·f(0, y) + r·f(1, y).
        let mut r = rng();
        let f = MultilinearPoly::random(4, &mut r);
        let rest: Vec<Fr> = (0..3).map(|_| Fr::random(&mut r)).collect();
        let t = Fr::random(&mut r);
        let mut p0 = vec![Fr::zero()];
        p0.extend_from_slice(&rest);
        let mut p1 = vec![Fr::one()];
        p1.extend_from_slice(&rest);
        let mut pt = vec![t];
        pt.extend_from_slice(&rest);
        let expect = (Fr::one() - t) * f.evaluate(&p0) + t * f.evaluate(&p1);
        assert_eq!(f.evaluate(&pt), expect);
    }

    #[test]
    fn fix_first_variable_matches_formula() {
        let f = MultilinearPoly::new(vec![u(1), u(2), u(3), u(4)]);
        let r = u(5);
        let g = f.fix_first_variable(r);
        assert_eq!(g.num_vars(), 1);
        assert_eq!(g[0], (u(2) - u(1)) * r + u(1));
        assert_eq!(g[1], (u(4) - u(3)) * r + u(3));
    }

    #[test]
    fn fix_then_evaluate_consistency() {
        let mut r = rng();
        let f = MultilinearPoly::random(5, &mut r);
        let point: Vec<Fr> = (0..5).map(|_| Fr::random(&mut r)).collect();
        let direct = f.evaluate(&point);
        let fixed = f.fix_first_variables(&point[..3]);
        assert_eq!(fixed.num_vars(), 2);
        assert_eq!(fixed.evaluate(&point[3..]), direct);
    }

    #[test]
    fn eq_mle_has_unit_hypercube_sum_and_point_selectivity() {
        let mut r = rng();
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let eq = MultilinearPoly::eq_mle(&point);
        assert_eq!(eq.num_vars(), 4);
        // Σ_x eq(x, r) = 1.
        assert_eq!(eq.sum_over_hypercube(), Fr::one());
        // eq(x, r) evaluated back at r over the boolean x-table reproduces
        // eq_eval.
        for i in 0..16usize {
            let x: Vec<Fr> = (0..4).map(|j| u(((i >> j) & 1) as u64)).collect();
            assert_eq!(eq[i], MultilinearPoly::eq_eval(&x, &point), "index {i}");
        }
        // And eq(r, r') == eq_eval(r, r') for random r'.
        let other: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        assert_eq!(
            eq.evaluate(&other),
            MultilinearPoly::eq_eval(&other, &point)
        );
    }

    #[test]
    fn eq_mle_at_boolean_point_is_indicator() {
        // At a Boolean point b the table is the indicator of index(b).
        let b = [u(1), u(0), u(1)]; // index 0b101 = 5
        let eq = MultilinearPoly::eq_mle(&b);
        for i in 0..8usize {
            let expect = if i == 5 { Fr::one() } else { Fr::zero() };
            assert_eq!(eq[i], expect, "index {i}");
        }
    }

    #[test]
    fn linear_ops() {
        let mut r = rng();
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut r)).collect();
        let sum = f.add(&g);
        assert_eq!(
            sum.evaluate(&point),
            f.evaluate(&point) + g.evaluate(&point)
        );
        let scaled = f.scale(u(3));
        assert_eq!(scaled.evaluate(&point), f.evaluate(&point) * u(3));
        let lc = MultilinearPoly::linear_combination(&[u(2), u(5)], &[&f, &g]);
        assert_eq!(
            lc.evaluate(&point),
            u(2) * f.evaluate(&point) + u(5) * g.evaluate(&point)
        );
        // Hadamard agrees with products on the hypercube only.
        let h = f.hadamard(&g);
        for i in 0..8 {
            assert_eq!(h[i], f[i] * g[i]);
        }
    }

    #[test]
    fn backend_kernels_match_serial_bitwise() {
        use zkspeed_rt::pool::{Serial, ThreadPool};
        let mut r = rng();
        // 2^13 entries: large enough to cross the parallel threshold.
        let f = MultilinearPoly::random(13, &mut r);
        let point: Vec<Fr> = (0..13).map(|_| Fr::random(&mut r)).collect();
        let c = Fr::random(&mut r);
        let pool = ThreadPool::new(4);
        assert_eq!(f.fix_first_variable_on(c, &Serial), f.fix_first_variable(c));
        assert_eq!(f.fix_first_variable_on(c, &pool), f.fix_first_variable(c));
        assert_eq!(
            MultilinearPoly::eq_mle_on(&point, &Serial),
            MultilinearPoly::eq_mle(&point)
        );
        assert_eq!(
            MultilinearPoly::eq_mle_on(&point, &pool),
            MultilinearPoly::eq_mle(&point)
        );
    }

    mod properties {
        use super::*;

        fn arb_fr(r: &mut StdRng) -> Fr {
            Fr::from_u64(r.gen())
        }

        fn arb_mle(num_vars: usize, r: &mut StdRng) -> MultilinearPoly {
            MultilinearPoly::new((0..1usize << num_vars).map(|_| arb_fr(r)).collect())
        }

        fn arb_point(len: usize, r: &mut StdRng) -> Vec<Fr> {
            (0..len).map(|_| arb_fr(r)).collect()
        }

        #[test]
        fn sum_splits_by_first_variable() {
            let mut r = StdRng::seed_from_u64(0x5eed_0005_0001);
            for _ in 0..24 {
                // Σ_x f(x) = Σ_y f(0, y) + Σ_y f(1, y)
                let f = arb_mle(4, &mut r);
                let f0 = f.fix_first_variable(Fr::zero());
                let f1 = f.fix_first_variable(Fr::one());
                assert_eq!(
                    f.sum_over_hypercube(),
                    f0.sum_over_hypercube() + f1.sum_over_hypercube()
                );
            }
        }

        #[test]
        fn evaluate_agrees_with_eq_inner_product() {
            let mut r = StdRng::seed_from_u64(0x5eed_0005_0002);
            for _ in 0..24 {
                // f(r) = Σ_x f(x)·eq(x, r)
                let f = arb_mle(3, &mut r);
                let p = arb_point(3, &mut r);
                let eq = MultilinearPoly::eq_mle(&p);
                let inner: Fr = f
                    .evaluations()
                    .iter()
                    .zip(eq.evaluations().iter())
                    .map(|(a, b)| *a * *b)
                    .sum();
                assert_eq!(f.evaluate(&p), inner);
            }
        }

        #[test]
        fn fixing_all_variables_is_evaluation() {
            let mut r = StdRng::seed_from_u64(0x5eed_0005_0003);
            for _ in 0..24 {
                let f = arb_mle(3, &mut r);
                let p = arb_point(3, &mut r);
                assert_eq!(f.fix_first_variables(&p).evaluations()[0], f.evaluate(&p));
            }
        }
    }
}
