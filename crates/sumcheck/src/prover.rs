//! The unified SumCheck prover.
//!
//! One prover handles all three HyperPlonk SumCheck flavours (ZeroCheck,
//! PermCheck, OpenCheck), mirroring zkSpeed's unified SumCheck PE (Section
//! 4.1.4). Each round is computed exactly the way the SumCheck Round PE of
//! Figure 4 does it:
//!
//! 1. **Per-MLE evaluations** — for every distinct MLE and every boolean
//!    hypercube instance, evaluate the univariate restriction at
//!    `X₁ = 0, 1, 2, …, d` by repeated addition of the slope
//!    (`t[2i+1] − t[2i]`), so repeated polynomials are extended once, not
//!    once per term;
//! 2. **Per-term products** — multiply the per-MLE evaluations term by term;
//! 3. **Sum of products** — accumulate across hypercube instances;
//! 4. **MLE Update** — fix the first variable to the verifier challenge
//!    (Eq. 2) and move to the next round.

use zkspeed_field::Fr;
use zkspeed_poly::VirtualPolynomial;
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::trace::TraceSink;
use zkspeed_transcript::Transcript;

/// A SumCheck proof: one univariate round polynomial per variable, each given
/// by its evaluations at `0, 1, …, degree`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumcheckProof {
    /// `round_evaluations[i]` holds the evaluations of the round-`i`
    /// univariate polynomial at `0..=degree`.
    pub round_evaluations: Vec<Vec<Fr>>,
}

impl SumcheckProof {
    /// Number of rounds (= number of variables of the proved polynomial).
    pub fn num_rounds(&self) -> usize {
        self.round_evaluations.len()
    }

    /// Size of the proof in field elements.
    pub fn size_in_field_elements(&self) -> usize {
        self.round_evaluations.iter().map(Vec::len).sum()
    }

    /// Appends the canonical encoding: a `u32` round count, then per round a
    /// `u32` evaluation count followed by 32-byte little-endian canonical
    /// field elements.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.round_evaluations.len() as u32).to_le_bytes());
        for round in &self.round_evaluations {
            out.extend_from_slice(&(round.len() as u32).to_le_bytes());
            for e in round {
                out.extend_from_slice(&e.to_bytes_le());
            }
        }
    }

    /// Reads a canonical encoding produced by [`Self::write_canonical`],
    /// rejecting non-canonical field elements.
    pub fn read_canonical(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let rounds = reader.count(4, "sumcheck rounds")?;
        let mut round_evaluations = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let evals = reader.count(32, "sumcheck round evaluations")?;
            let mut round = Vec::with_capacity(evals);
            for _ in 0..evals {
                round.push(read_fr(reader)?);
            }
            round_evaluations.push(round);
        }
        Ok(Self { round_evaluations })
    }
}

/// Reads one canonical 32-byte little-endian field element.
pub(crate) fn read_fr(reader: &mut Reader<'_>) -> Result<Fr, DecodeError> {
    let bytes = reader.take(32)?;
    Fr::from_bytes_le(bytes).ok_or(DecodeError::InvalidValue {
        what: "non-canonical Fr element",
    })
}

/// Everything the prover produces: the proof, the verifier challenges bound
/// into the transcript, and the per-MLE evaluations at the final point (which
/// downstream steps feed into batch evaluation / opening).
#[derive(Clone, Debug)]
pub struct ProverOutput {
    /// The round polynomials.
    pub proof: SumcheckProof,
    /// The challenge point `(r₁, …, r_μ)` fixed during the run.
    pub point: Vec<Fr>,
    /// The evaluation of every registered MLE at `point`, in registration
    /// order.
    pub mle_evaluations: Vec<Fr>,
}

/// Runs the SumCheck prover on `poly`, binding messages to `transcript`.
///
/// Returns the proof together with the challenge point. The claimed sum is
/// *not* appended here; callers append it (or know it to be zero, as in
/// ZeroCheck) before invoking the prover so prover and verifier transcripts
/// stay aligned.
///
/// # Panics
///
/// Panics if `poly` has no variables or no terms.
pub fn prove(poly: &VirtualPolynomial, transcript: &mut Transcript) -> ProverOutput {
    prove_on(poly, transcript, &pool::Ambient)
}

/// [`prove`] on an explicit execution backend: both the round-polynomial
/// extension and the between-round MLE Update fan out over the backend's
/// workers, producing a proof bit-identical to the serial run.
///
/// # Panics
///
/// Panics if `poly` has no variables or no terms.
pub fn prove_on(
    poly: &VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
) -> ProverOutput {
    prove_traced_on(poly, transcript, backend, &TraceSink::disabled(), "round")
}

/// [`prove_on`] with per-round tracing: every round records a `round_label`
/// span (category `"sumcheck"`, tagged with its round index) into `trace`.
/// A disabled sink makes this identical to [`prove_on`] — tracing observes
/// wall time only and never touches the transcript, so the proof is
/// bit-identical with tracing on or off.
///
/// # Panics
///
/// Panics if `poly` has no variables or no terms.
pub fn prove_traced_on(
    poly: &VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
    trace: &TraceSink,
    round_label: &'static str,
) -> ProverOutput {
    assert!(
        poly.num_vars() > 0,
        "sumcheck: polynomial must have variables"
    );
    assert!(
        !poly.terms().is_empty(),
        "sumcheck: polynomial must have terms"
    );

    let num_rounds = poly.num_vars();
    let degree = poly.degree();
    let mut current = poly.clone();
    let mut round_evaluations = Vec::with_capacity(num_rounds);
    let mut point = Vec::with_capacity(num_rounds);

    for round in 0..num_rounds {
        let _round_span = trace.span_with(round_label, "sumcheck", &[("round", round as u64)]);
        let evals = round_polynomial_on(&current, degree, backend);
        transcript.append_scalars(b"sumcheck-round", &evals);
        let challenge = transcript.challenge_scalar(b"sumcheck-challenge");
        point.push(challenge);
        current = current.fix_first_variable_on(challenge, backend);
        round_evaluations.push(evals);
    }

    // After fixing all variables every MLE is a single value.
    let mle_evaluations: Vec<Fr> = current.mles().iter().map(|m| m[0]).collect();

    ProverOutput {
        proof: SumcheckProof { round_evaluations },
        point,
        mle_evaluations,
    }
}

/// Computes the round polynomial `g(t) = Σ_{x₂..x_v ∈ {0,1}} P(t, x₂, …)` as
/// its evaluations at `t = 0, 1, …, degree`.
///
/// This is the functional model of one pass of the SumCheck Round PE.
/// Parallel fan-out follows the ambient configuration; use
/// [`round_polynomial_on`] to pin an explicit backend.
pub fn round_polynomial(poly: &VirtualPolynomial, degree: usize) -> Vec<Fr> {
    round_polynomial_on(poly, degree, &pool::Ambient)
}

/// [`round_polynomial`] on an explicit execution backend.
///
/// The hypercube instances are split into contiguous chunks that fan out
/// over the backend's workers; each worker accumulates a local partial sum
/// and the partials are added in chunk order. Field addition is exact mod
/// p, so any chunking is bit-identical to the serial sweep. Inputs below an
/// internal chunk floor never leave the calling thread.
pub fn round_polynomial_on(
    poly: &VirtualPolynomial,
    degree: usize,
    backend: &dyn Backend,
) -> Vec<Fr> {
    const MIN_CHUNK: usize = 256;
    let half = 1usize << (poly.num_vars() - 1);
    let num_points = degree + 1;

    // Small rounds (the tail of every sumcheck) and serial backends stay on
    // the calling thread, borrowing the polynomial directly.
    if half <= MIN_CHUNK || backend.threads() == 1 {
        return round_partial(poly.mles(), poly.terms(), 0..half, num_points);
    }

    // Jobs may run on pool workers, so they capture shared handles to the
    // MLE list (Arc clones) and term list instead of borrowing.
    let mles = poly.mles().to_vec();
    let terms = poly.terms().to_vec();
    let partials = pool::map_ranges(backend, half, MIN_CHUNK, move |range| {
        round_partial(&mles, &terms, range, num_points)
    });

    let mut acc = vec![Fr::zero(); num_points];
    for partial in partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            *a += p;
        }
    }
    acc
}

/// Accumulates the round-polynomial contribution of one contiguous range of
/// hypercube instances (the per-chunk worker body, also the whole serial
/// sweep when the range covers everything).
fn round_partial(
    mles: &[std::sync::Arc<zkspeed_poly::MultilinearPoly>],
    terms: &[zkspeed_poly::Term],
    range: std::ops::Range<usize>,
    num_points: usize,
) -> Vec<Fr> {
    let mut acc = vec![Fr::zero(); num_points];
    // Scratch: per-MLE evaluations at t = 0..=degree for one hypercube
    // instance.
    let mut mle_evals = vec![vec![Fr::zero(); num_points]; mles.len()];
    for i in range {
        // Per-MLE extension: evaluations at t = 0, 1 are table reads; the
        // rest follow by repeatedly adding the slope.
        for (m, evals) in mles.iter().zip(mle_evals.iter_mut()) {
            let lo = m[2 * i];
            let hi = m[2 * i + 1];
            let diff = hi - lo;
            let mut v = lo;
            evals[0] = v;
            for e in evals.iter_mut().skip(1) {
                v += diff;
                *e = v;
            }
        }
        // Per-term products and accumulation.
        for term in terms {
            for (t, a) in acc.iter_mut().enumerate() {
                let mut prod = term.coefficient;
                for &mi in &term.mle_indices {
                    prod *= mle_evals[mi][t];
                }
                *a += prod;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_poly::MultilinearPoly;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0008)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    fn random_product_poly(num_vars: usize, rng: &mut StdRng) -> VirtualPolynomial {
        let f = MultilinearPoly::random(num_vars, rng);
        let g = MultilinearPoly::random(num_vars, rng);
        let h = MultilinearPoly::random(num_vars, rng);
        let mut vp = VirtualPolynomial::new(num_vars);
        let fi = vp.add_mle(f);
        let gi = vp.add_mle(g);
        let hi = vp.add_mle(h);
        vp.add_term(u(3), vec![fi, gi, hi]);
        vp.add_term(-u(2), vec![fi, hi]);
        vp.add_term(u(1), vec![gi]);
        vp
    }

    #[test]
    fn round_polynomial_is_consistent_with_partial_sums() {
        let mut r = rng();
        let vp = random_product_poly(4, &mut r);
        let degree = vp.degree();
        let evals = round_polynomial(&vp, degree);
        assert_eq!(evals.len(), degree + 1);
        // g(0) + g(1) must equal the full hypercube sum.
        assert_eq!(evals[0] + evals[1], vp.sum_over_hypercube());
        // g(t) for small integer t must match fixing the first variable to t.
        for (t, eval) in evals.iter().enumerate() {
            let fixed = vp.fix_first_variable(u(t as u64));
            assert_eq!(*eval, fixed.sum_over_hypercube(), "t = {t}");
        }
    }

    #[test]
    fn prover_produces_expected_shape() {
        let mut r = rng();
        let vp = random_product_poly(5, &mut r);
        let mut transcript = Transcript::new(b"test");
        let out = prove(&vp, &mut transcript);
        assert_eq!(out.proof.num_rounds(), 5);
        assert_eq!(out.point.len(), 5);
        assert_eq!(out.mle_evaluations.len(), 3);
        assert_eq!(out.proof.size_in_field_elements(), 5 * (vp.degree() + 1));
        // The recorded MLE evaluations really are the MLEs at the point.
        for (m, e) in vp.mles().iter().zip(out.mle_evaluations.iter()) {
            assert_eq!(m.evaluate(&out.point), *e);
        }
    }

    #[test]
    fn prover_is_deterministic_given_transcript() {
        let mut r = rng();
        let vp = random_product_poly(3, &mut r);
        let mut t1 = Transcript::new(b"same");
        let mut t2 = Transcript::new(b"same");
        let o1 = prove(&vp, &mut t1);
        let o2 = prove(&vp, &mut t2);
        assert_eq!(o1.proof, o2.proof);
        assert_eq!(o1.point, o2.point);
        // A different transcript domain produces different challenges.
        let mut t3 = Transcript::new(b"other");
        let o3 = prove(&vp, &mut t3);
        assert_ne!(o1.point, o3.point);
    }

    #[test]
    #[should_panic(expected = "must have variables")]
    fn zero_variable_polynomial_is_rejected() {
        let mut vp = VirtualPolynomial::new(0);
        let i = vp.add_mle(MultilinearPoly::constant(u(1), 0));
        vp.add_term(u(1), vec![i]);
        let mut transcript = Transcript::new(b"t");
        let _ = prove(&vp, &mut transcript);
    }
}
