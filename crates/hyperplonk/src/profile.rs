//! Kernel-level profiling of the HyperPlonk prover (Table 1 of the zkSpeed
//! paper).
//!
//! Table 1 characterizes twelve kernels by modular-multiplication count,
//! input/output size and arithmetic intensity (modmuls per byte). Because
//! every field multiplication in this repository passes through the counted
//! Montgomery multipliers ([`zkspeed_field::counters`]), the profile below is
//! measured, not estimated: each kernel is run in isolation at the requested
//! problem size and its counters and table sizes are recorded.
//!
//! The paper profiles at 2^20 gates; the functional layer here profiles at
//! whatever size the caller asks for (the figures harness uses 2^12–2^14 and
//! reports both the measured values and an O(n) extrapolation to 2^20, since
//! every kernel except the MSMs is linear in the number of gates).

use zkspeed_field::{modmul_count, reset_modmul_count, Fr};
use zkspeed_poly::{fraction_mle, product_mle, MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::par::with_threads;
use zkspeed_rt::Rng;
use zkspeed_sumcheck::round_polynomial;

use crate::mock::{mock_circuit, SparsityProfile};
use crate::prover::{GATE_SUMCHECK_DEGREE, OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE};

/// Bytes per MLE table entry (one 255-bit field element packed into 32 B).
pub const BYTES_PER_FIELD_ELEMENT: usize = 32;
/// Bytes per affine G1 point as stored off-chip (two 381-bit coordinates,
/// 48 B each — the paper's reduced (X, Y, 1) representation).
pub const BYTES_PER_G1_POINT: usize = 96;

/// One row of the Table 1 reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (matching the paper's row labels).
    pub kernel: &'static str,
    /// Modular multiplications (255-bit and 381-bit combined).
    pub modmuls: u64,
    /// Input bytes read by the kernel.
    pub input_bytes: u64,
    /// Output bytes produced by the kernel.
    pub output_bytes: u64,
}

impl KernelProfile {
    /// Arithmetic intensity in modmuls per byte of input + output traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.input_bytes + self.output_bytes).max(1);
        self.modmuls as f64 / bytes as f64
    }
}

/// Profiles the twelve Table 1 kernels at `2^num_vars` gates.
///
/// Runs each kernel functionally (with the real field arithmetic) and
/// records its measured modmul count together with its input/output table
/// sizes. Rows are returned sorted by arithmetic intensity, matching the
/// paper's presentation.
///
/// The modmul counters are thread-local, so every kernel runs on the calling
/// thread (under [`with_threads(1, …)`](with_threads)); the counts are then
/// exact and identical at any `ZKSPEED_THREADS`.
///
/// # Panics
///
/// Panics if `num_vars < 2`.
pub fn profile_kernels<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Vec<KernelProfile> {
    assert!(num_vars >= 2, "profiling needs at least 4 gates");
    with_threads(1, || profile_on_this_thread(num_vars, rng))
}

fn profile_on_this_thread<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Vec<KernelProfile> {
    let n = 1usize << num_vars;
    let fe = BYTES_PER_FIELD_ELEMENT as u64;
    let (circuit, witness) = mock_circuit(num_vars, SparsityProfile::paper_default(), rng);
    let mut rows = Vec::new();

    // --- MSM kernels -------------------------------------------------------
    // MSMs are profiled through their operation counts (the points live in
    // the 381-bit field); the paper's three MSM rows are witness commits,
    // wiring-identity commits and polynomial-opening commits.
    let g = zkspeed_curve::G1Projective::generator();
    let points: Vec<zkspeed_curve::G1Affine> = {
        // A small synthetic basis is enough for counting: op counts depend on
        // the number of scalars and the window configuration only.
        let proj: Vec<zkspeed_curve::G1Projective> = (0..n)
            .map(|i| g.mul_scalar(&Fr::from_u64(i as u64 + 1)))
            .collect();
        zkspeed_curve::G1Projective::batch_to_affine(&proj)
    };

    reset_modmul_count();
    let before = modmul_count();
    for col in &witness.columns {
        let _ = zkspeed_curve::sparse_msm(&points, col.evaluations());
    }
    rows.push(KernelProfile {
        kernel: "Witness MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 3 * n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // Wiring identity MSMs: dense commitments to φ and π.
    let beta = Fr::random(rng);
    let gamma = Fr::random(rng);
    let ids = circuit.identity_mles();
    let sigmas = circuit.sigma_mles();
    let numerator = MultilinearPoly::from_fn(num_vars, |i| {
        (0..3)
            .map(|j| witness.columns[j][i] + beta * ids[j][i] + gamma)
            .product()
    });
    let denominator = MultilinearPoly::from_fn(num_vars, |i| {
        (0..3)
            .map(|j| witness.columns[j][i] + beta * sigmas[j][i] + gamma)
            .product()
    });
    let phi = fraction_mle(&numerator, &denominator);
    let pi = product_mle(&phi);

    let before = modmul_count();
    let _ = zkspeed_curve::msm(&points, phi.evaluations());
    let _ = zkspeed_curve::msm(&points, pi.evaluations());
    rows.push(KernelProfile {
        kernel: "Wire Identity MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 2 * n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // Polynomial-opening MSMs: the halving sequence 2^{μ-1} … 2^0.
    let before = modmul_count();
    {
        let mut size = n / 2;
        let mut offset = 0usize;
        while size >= 1 {
            let scalars: Vec<Fr> = phi.evaluations()[..size].to_vec();
            let _ = zkspeed_curve::msm(&points[offset..offset + size], &scalars);
            offset = 0;
            if size == 1 {
                break;
            }
            size /= 2;
        }
    }
    rows.push(KernelProfile {
        kernel: "Poly Open MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // --- SumCheck-round kernels --------------------------------------------
    // One representative round at full problem size for each flavour; a full
    // run executes μ rounds of geometrically decreasing size, i.e. ≈2× the
    // first round, which the caller can extrapolate.
    let challenges: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
    let eq = MultilinearPoly::eq_mle(&challenges);

    // ZeroCheck (gate identity, Eq. 3).
    let mut f_gate = VirtualPolynomial::new(num_vars);
    let idx: Vec<usize> = circuit
        .selectors()
        .iter()
        .chain(witness.columns.iter())
        .map(|m| f_gate.add_mle(m.clone()))
        .collect();
    let eq_idx = f_gate.add_mle(eq.clone());
    f_gate.add_term(Fr::one(), vec![idx[0], idx[5], eq_idx]);
    f_gate.add_term(Fr::one(), vec![idx[1], idx[6], eq_idx]);
    f_gate.add_term(Fr::one(), vec![idx[2], idx[5], idx[6], eq_idx]);
    f_gate.add_term(-Fr::one(), vec![idx[3], idx[7], eq_idx]);
    f_gate.add_term(Fr::one(), vec![idx[4], eq_idx]);
    let before = modmul_count();
    let _ = round_polynomial(&f_gate, GATE_SUMCHECK_DEGREE);
    rows.push(KernelProfile {
        kernel: "ZeroCheck Rounds",
        modmuls: 2 * modmul_count().since(&before).total(),
        input_bytes: 2 * f_gate.table_entries() as u64 * fe,
        output_bytes: 0,
    });

    // PermCheck (Eq. 4): ten distinct MLEs of degree up to 5.
    let (p1, p2) = zkspeed_poly::split_even_odd(&phi, &pi);
    let alpha = Fr::random(rng);
    let mut f_perm = VirtualPolynomial::new(num_vars);
    let pii = f_perm.add_mle(pi.clone());
    let p1i = f_perm.add_mle(p1);
    let p2i = f_perm.add_mle(p2);
    let phii = f_perm.add_mle(phi.clone());
    let d1 = f_perm.add_mle(denominator.clone());
    let n1 = f_perm.add_mle(numerator.clone());
    let eqi = f_perm.add_mle(eq.clone());
    f_perm.add_term(Fr::one(), vec![pii, eqi]);
    f_perm.add_term(-Fr::one(), vec![p1i, p2i, eqi]);
    f_perm.add_term(alpha, vec![phii, d1, d1, d1, eqi]);
    f_perm.add_term(-alpha, vec![n1, n1, n1, eqi]);
    let before = modmul_count();
    let _ = round_polynomial(&f_perm, PERM_SUMCHECK_DEGREE + 1);
    rows.push(KernelProfile {
        kernel: "PermCheck Rounds",
        modmuls: 2 * modmul_count().since(&before).total(),
        input_bytes: 2 * f_perm.table_entries() as u64 * fe,
        output_bytes: 0,
    });

    // OpenCheck (Eq. 5): six degree-2 products.
    let mut f_open = VirtualPolynomial::new(num_vars);
    for _ in 0..6 {
        let y = f_open.add_mle(MultilinearPoly::random(num_vars, rng));
        let k = f_open.add_mle(eq.clone());
        f_open.add_term(Fr::random(rng), vec![y, k]);
    }
    let before = modmul_count();
    let _ = round_polynomial(&f_open, OPENCHECK_DEGREE);
    rows.push(KernelProfile {
        kernel: "OpenCheck Rounds",
        modmuls: 2 * modmul_count().since(&before).total(),
        input_bytes: 2 * f_open.table_entries() as u64 * fe,
        output_bytes: 0,
    });

    // --- MLE construction kernels -------------------------------------------
    let before = modmul_count();
    let _ = fraction_mle(&numerator, &denominator);
    rows.push(KernelProfile {
        kernel: "Fraction MLE",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 0,
        output_bytes: n as u64 * fe,
    });

    let before = modmul_count();
    let _ = product_mle(&phi);
    rows.push(KernelProfile {
        kernel: "Product MLE",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 0,
        output_bytes: n as u64 * fe,
    });

    let before = modmul_count();
    let _n_tables: Vec<MultilinearPoly> = (0..3)
        .map(|j| {
            MultilinearPoly::from_fn(num_vars, |i| {
                witness.columns[j][i] + beta * ids[j][i] + gamma
            })
        })
        .chain((0..3).map(|j| {
            MultilinearPoly::from_fn(num_vars, |i| {
                witness.columns[j][i] + beta * sigmas[j][i] + gamma
            })
        }))
        .collect();
    rows.push(KernelProfile {
        kernel: "Construct N & D",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: (6 * n) as u64 / 8, // witness/σ indices are compressible
        output_bytes: 8 * n as u64 * fe,
    });

    // Batch evaluations: 21 MLE evaluations among 13 polynomials.
    let point: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
    let before = modmul_count();
    for _ in 0..2 {
        for m in circuit.selectors().iter() {
            let _ = m.evaluate(&point);
        }
        for m in witness.columns.iter() {
            let _ = m.evaluate(&point);
        }
        let _ = phi.evaluate(&point);
        let _ = pi.evaluate(&point);
        let _ = sigmas[0].evaluate(&point);
    }
    rows.push(KernelProfile {
        kernel: "Batch Evaluations",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 13 * n as u64 * fe / 4,
        output_bytes: 0,
    });

    // Linear Combine (MLE Combine unit).
    let before = modmul_count();
    let all: Vec<&MultilinearPoly> = circuit
        .selectors()
        .iter()
        .chain(witness.columns.iter())
        .collect();
    let coeffs: Vec<Fr> = (0..all.len()).map(|_| Fr::random(rng)).collect();
    let _ = MultilinearPoly::linear_combination(&coeffs, &all);
    let _ = MultilinearPoly::linear_combination(&coeffs[..3], &all[..3]);
    rows.push(KernelProfile {
        kernel: "Linear Combine",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: all.len() as u64 * n as u64 * fe / 4,
        output_bytes: 2 * n as u64 * fe,
    });

    // MLE Updates: fixing one variable of every table across all three
    // SumChecks (≈ 2× the first-round cost over all rounds).
    let before = modmul_count();
    for vp in [&f_gate, &f_perm, &f_open] {
        for m in vp.mles() {
            let _ = m.fix_first_variable(point[0]);
        }
    }
    rows.push(KernelProfile {
        kernel: "All MLE Updates",
        modmuls: 2 * modmul_count().since(&before).total(),
        input_bytes: 2
            * (f_gate.table_entries() + f_perm.table_entries() + f_open.table_entries()) as u64
            * fe,
        output_bytes: (f_gate.table_entries() + f_perm.table_entries() + f_open.table_entries())
            as u64
            * fe,
    });

    rows.sort_by(|a, b| {
        b.arithmetic_intensity()
            .partial_cmp(&a.arithmetic_intensity())
            .unwrap()
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    #[test]
    fn profile_reproduces_table1_shape() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        let rows = profile_kernels(7, &mut rng);
        assert_eq!(rows.len(), 12);
        // Every kernel does real work.
        for row in &rows {
            assert!(row.modmuls > 0, "{} has zero modmuls", row.kernel);
            assert!(row.input_bytes + row.output_bytes > 0, "{}", row.kernel);
        }
        // The MSM kernels must dominate arithmetic intensity (the paper's
        // headline observation) and MLE Updates must be near the bottom.
        let top3: Vec<&str> = rows[..3].iter().map(|r| r.kernel).collect();
        assert!(top3.iter().all(|k| k.contains("MSM")), "top rows: {top3:?}");
        assert_eq!(rows.last().unwrap().kernel, "All MLE Updates");
        // Intensities are sorted.
        for pair in rows.windows(2) {
            assert!(pair[0].arithmetic_intensity() >= pair[1].arithmetic_intensity());
        }
    }
}
