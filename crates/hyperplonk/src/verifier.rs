//! The HyperPlonk verifier.
//!
//! The verifier replays the prover's transcript, checks the three SumCheck
//! instances (Gate Identity, Wiring Identity, OpenCheck), discharges their
//! sub-claims against the claimed batch evaluations, checks the grand
//! product, and finally checks the single polynomial-commitment opening that
//! binds every claimed evaluation.

use core::fmt;

use zkspeed_field::Fr;
use zkspeed_pcs::{verify_opening, Commitment};
use zkspeed_poly::MultilinearPoly;
use zkspeed_sumcheck::{verify as sumcheck_verify, verify_zerocheck, SumcheckError};
use zkspeed_transcript::Transcript;

use crate::keys::VerifyingKey;
use crate::proof::{query_groups, PolyLabel, Proof};
use crate::prover::{powers, GATE_SUMCHECK_DEGREE, OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE};

/// Reasons a proof can be rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The Gate Identity ZeroCheck failed.
    GateZerocheck(SumcheckError),
    /// The Gate Identity sub-claim does not match the claimed evaluations.
    GateIdentityMismatch,
    /// The Wiring Identity ZeroCheck failed.
    PermZerocheck(SumcheckError),
    /// The Wiring Identity sub-claim does not match the claimed evaluations.
    PermIdentityMismatch,
    /// The grand product of the Fraction MLE is not one.
    GrandProductMismatch,
    /// The claimed batch evaluations have the wrong shape.
    MalformedEvaluations,
    /// The OpenCheck SumCheck failed.
    OpenCheck(SumcheckError),
    /// The OpenCheck sub-claim does not match the claimed combined
    /// evaluations.
    CombinedEvaluationMismatch,
    /// The final polynomial-commitment opening failed.
    OpeningFailed,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::GateZerocheck(e) => write!(f, "gate identity zerocheck failed: {e}"),
            VerifyError::GateIdentityMismatch => write!(f, "gate identity evaluation mismatch"),
            VerifyError::PermZerocheck(e) => write!(f, "wiring identity zerocheck failed: {e}"),
            VerifyError::PermIdentityMismatch => write!(f, "wiring identity evaluation mismatch"),
            VerifyError::GrandProductMismatch => write!(f, "grand product is not one"),
            VerifyError::MalformedEvaluations => write!(f, "malformed batch evaluations"),
            VerifyError::OpenCheck(e) => write!(f, "opencheck failed: {e}"),
            VerifyError::CombinedEvaluationMismatch => {
                write!(f, "combined evaluation mismatch at the opencheck point")
            }
            VerifyError::OpeningFailed => write!(f, "polynomial opening verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a HyperPlonk proof against a verifying key.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first check that failed.
pub fn verify(vk: &VerifyingKey, proof: &Proof) -> Result<(), VerifyError> {
    let mu = vk.num_vars;
    let n = 1u64 << mu;
    let mut transcript = Transcript::new(b"zkspeed-hyperplonk");
    vk.bind_to_transcript(&mut transcript);

    // ----- Step 1: Witness commitments -------------------------------------
    for com in &proof.witness_commitments {
        transcript.append_message(b"witness-commitment", &com.to_transcript_bytes());
    }

    // ----- Step 2: Gate Identity -------------------------------------------
    let gate_sub = verify_zerocheck(
        mu,
        GATE_SUMCHECK_DEGREE,
        &proof.gate_zerocheck,
        &mut transcript,
    )
    .map_err(VerifyError::GateZerocheck)?;
    let gate_point = gate_sub.point.clone();

    // ----- Step 3: Wiring Identity ------------------------------------------
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");
    transcript.append_message(
        b"phi-commitment",
        &proof.phi_commitment.to_transcript_bytes(),
    );
    transcript.append_message(b"pi-commitment", &proof.pi_commitment.to_transcript_bytes());
    let alpha = transcript.challenge_scalar(b"alpha");
    let perm_sub = verify_zerocheck(
        mu,
        PERM_SUMCHECK_DEGREE,
        &proof.perm_zerocheck,
        &mut transcript,
    )
    .map_err(VerifyError::PermZerocheck)?;
    let perm_point = perm_sub.point.clone();

    // ----- Step 4: Batch evaluations ----------------------------------------
    let groups = query_groups(&gate_point, &perm_point);
    if proof.evaluations.values.len() != groups.len()
        || proof
            .evaluations
            .values
            .iter()
            .zip(groups.iter())
            .any(|(vals, g)| vals.len() != g.labels.len())
    {
        return Err(VerifyError::MalformedEvaluations);
    }
    transcript.append_scalars(b"batch-evaluations", &proof.evaluations.flatten());

    let eval_of = |group: usize, label: PolyLabel| -> Fr {
        let idx = groups[group]
            .labels
            .iter()
            .position(|l| *l == label)
            .expect("label present in group");
        proof.evaluations.values[group][idx]
    };

    // Gate Identity sub-claim: f_gate(a) · eq(a, r_gate) must equal the
    // zerocheck's expected evaluation.
    {
        let ql = eval_of(0, PolyLabel::QL);
        let qr = eval_of(0, PolyLabel::QR);
        let qm = eval_of(0, PolyLabel::QM);
        let qo = eval_of(0, PolyLabel::QO);
        let qc = eval_of(0, PolyLabel::QC);
        let w1 = eval_of(0, PolyLabel::W1);
        let w2 = eval_of(0, PolyLabel::W2);
        let w3 = eval_of(0, PolyLabel::W3);
        let f_gate = ql * w1 + qr * w2 + qm * w1 * w2 - qo * w3 + qc;
        let eq = MultilinearPoly::eq_eval(&gate_point, &gate_sub.build_mle_challenges);
        if f_gate * eq != gate_sub.expected_evaluation {
            return Err(VerifyError::GateIdentityMismatch);
        }
    }

    // Wiring Identity sub-claim: Eq. (4) evaluated at s.
    {
        let w = [
            eval_of(1, PolyLabel::W1),
            eval_of(1, PolyLabel::W2),
            eval_of(1, PolyLabel::W3),
        ];
        let sigma = [
            eval_of(1, PolyLabel::Sigma1),
            eval_of(1, PolyLabel::Sigma2),
            eval_of(1, PolyLabel::Sigma3),
        ];
        let phi_s = eval_of(1, PolyLabel::Phi);
        let pi_s = eval_of(1, PolyLabel::Pi);
        // The identity MLE id_j evaluates to j·2^μ + Σ_k 2^k·s_k.
        let index_eval: Fr = perm_point
            .iter()
            .enumerate()
            .map(|(k, s_k)| Fr::from_u64(1u64 << k) * *s_k)
            .sum();
        let mut d_eval = [Fr::zero(); 3];
        let mut n_eval = [Fr::zero(); 3];
        for j in 0..3 {
            let id_j = Fr::from_u64(j as u64 * n) + index_eval;
            n_eval[j] = w[j] + beta * id_j + gamma;
            d_eval[j] = w[j] + beta * sigma[j] + gamma;
        }
        // p1(s), p2(s) from the shifted-point evaluations of φ and π.
        let s_last = *perm_point.last().expect("μ ≥ 1");
        let phi_s0 = eval_of(2, PolyLabel::Phi);
        let pi_s0 = eval_of(2, PolyLabel::Pi);
        let phi_s1 = eval_of(3, PolyLabel::Phi);
        let pi_s1 = eval_of(3, PolyLabel::Pi);
        let one = Fr::one();
        let p1_s = (one - s_last) * phi_s0 + s_last * pi_s0;
        let p2_s = (one - s_last) * phi_s1 + s_last * pi_s1;
        let f_perm = pi_s - p1_s * p2_s
            + alpha
                * (phi_s * d_eval[0] * d_eval[1] * d_eval[2] - n_eval[0] * n_eval[1] * n_eval[2]);
        let eq = MultilinearPoly::eq_eval(&perm_point, &perm_sub.build_mle_challenges);
        if f_perm * eq != perm_sub.expected_evaluation {
            return Err(VerifyError::PermIdentityMismatch);
        }
    }

    // Grand product: π evaluated at the fixed point must be exactly one.
    if eval_of(4, PolyLabel::Pi) != Fr::one() {
        return Err(VerifyError::GrandProductMismatch);
    }

    // ----- Step 5: Polynomial opening ----------------------------------------
    // Per-group RLC challenges; combined claimed values and commitments.
    let commitment_of = |label: PolyLabel| -> Commitment {
        match label {
            PolyLabel::QL => vk.selector_commitments[0],
            PolyLabel::QR => vk.selector_commitments[1],
            PolyLabel::QM => vk.selector_commitments[2],
            PolyLabel::QO => vk.selector_commitments[3],
            PolyLabel::QC => vk.selector_commitments[4],
            PolyLabel::W1 => proof.witness_commitments[0],
            PolyLabel::W2 => proof.witness_commitments[1],
            PolyLabel::W3 => proof.witness_commitments[2],
            PolyLabel::Sigma1 => vk.sigma_commitments[0],
            PolyLabel::Sigma2 => vk.sigma_commitments[1],
            PolyLabel::Sigma3 => vk.sigma_commitments[2],
            PolyLabel::Phi => proof.phi_commitment,
            PolyLabel::Pi => proof.pi_commitment,
        }
    };
    let mut combined_values = Vec::with_capacity(groups.len());
    let mut combined_commitments = Vec::with_capacity(groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let e = transcript.challenge_scalar(b"rlc-challenge");
        let coeffs = powers(e, group.labels.len());
        let v: Fr = coeffs
            .iter()
            .zip(proof.evaluations.values[gi].iter())
            .map(|(c, val)| *c * *val)
            .sum();
        combined_values.push(v);
        let coms: Vec<Commitment> = group.labels.iter().map(|l| commitment_of(*l)).collect();
        combined_commitments.push(Commitment::linear_combination(&coeffs, &coms));
    }
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let c_powers = powers(c, groups.len());
    let claim: Fr = c_powers
        .iter()
        .zip(combined_values.iter())
        .map(|(cp, v)| *cp * *v)
        .sum();
    let open_sub = sumcheck_verify(
        claim,
        mu,
        OPENCHECK_DEGREE,
        &proof.opencheck,
        &mut transcript,
    )
    .map_err(VerifyError::OpenCheck)?;
    let rho = open_sub.point.clone();

    if proof.combined_evaluations.len() != groups.len() {
        return Err(VerifyError::MalformedEvaluations);
    }
    transcript.append_scalars(b"combined-evaluations", &proof.combined_evaluations);
    // The OpenCheck sub-claim must match Σ_i cⁱ·yᵢ(ρ)·eq(pᵢ, ρ).
    let reconstructed: Fr = groups
        .iter()
        .zip(c_powers.iter().zip(proof.combined_evaluations.iter()))
        .map(|(group, (cp, y_rho))| *cp * *y_rho * MultilinearPoly::eq_eval(&group.point, &rho))
        .sum();
    if reconstructed != open_sub.expected_evaluation {
        return Err(VerifyError::CombinedEvaluationMismatch);
    }

    // Final combined polynomial g′ and its opening.
    let d = transcript.challenge_scalars(b"gprime-challenge", groups.len());
    let gprime_commitment = Commitment::linear_combination(&d, &combined_commitments);
    let gprime_value: Fr = d
        .iter()
        .zip(proof.combined_evaluations.iter())
        .map(|(di, yi)| *di * *yi)
        .sum();
    if !verify_opening(
        &vk.srs,
        &gprime_commitment,
        &rho,
        gprime_value,
        &proof.gprime_opening,
    ) {
        return Err(VerifyError::OpeningFailed);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::try_preprocess;
    use crate::mock::{mock_circuit, SparsityProfile};
    use crate::prover::{prove_on, prove_unchecked_traced_on};
    use zkspeed_pcs::Srs;
    use zkspeed_rt::pool;
    use zkspeed_rt::trace::TraceSink;

    fn backend() -> std::sync::Arc<dyn zkspeed_rt::pool::Backend> {
        pool::ambient()
    }
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0011)
    }

    #[test]
    fn honest_proof_verifies_across_sizes() {
        let mut r = rng();
        for mu in [1usize, 2, 4, 6] {
            let srs = Srs::setup(mu, &mut r);
            let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
            let (pk, vk) = try_preprocess(circuit, &srs).unwrap();
            let proof = prove_on(&pk, &witness, &backend()).expect("valid witness");
            assert_eq!(verify(&vk, &proof), Ok(()), "mu = {mu}");
        }
    }

    #[test]
    fn gate_violation_is_rejected() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, mut witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = try_preprocess(circuit, &srs).unwrap();
        // Break one gate output.
        witness.columns[2].evaluations_mut()[3] += Fr::one();
        let (msm, off) = (zkspeed_curve::MsmConfig::default(), TraceSink::disabled());
        let (proof, _) = prove_unchecked_traced_on(&pk, &witness, &backend(), msm, &off, 0);
        assert!(verify(&vk, &proof).is_err());
    }

    #[test]
    fn tampered_proof_fields_are_rejected() {
        let mut r = rng();
        let mu = 3;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = try_preprocess(circuit, &srs).unwrap();
        let proof = prove_on(&pk, &witness, &backend()).expect("valid witness");

        // Tamper with a claimed evaluation.
        let mut p1 = proof.clone();
        p1.evaluations.values[0][5] += Fr::one();
        assert!(verify(&vk, &p1).is_err());

        // Tamper with a witness commitment.
        let mut p2 = proof.clone();
        p2.witness_commitments[0] =
            Commitment(p2.witness_commitments[0].0 + zkspeed_curve::G1Projective::generator());
        assert!(verify(&vk, &p2).is_err());

        // Tamper with the combined evaluations.
        let mut p3 = proof.clone();
        p3.combined_evaluations[2] += Fr::one();
        assert!(verify(&vk, &p3).is_err());

        // Tamper with a zerocheck round polynomial.
        let mut p4 = proof.clone();
        p4.perm_zerocheck.round_evaluations[0][0] += Fr::one();
        assert!(verify(&vk, &p4).is_err());

        // Truncate the batch evaluations.
        let mut p5 = proof.clone();
        p5.evaluations.values.pop();
        assert_eq!(verify(&vk, &p5), Err(VerifyError::MalformedEvaluations));
    }

    #[test]
    fn proof_is_not_transferable_across_circuits() {
        let mut r = rng();
        let mu = 3;
        let srs = Srs::setup(mu, &mut r);
        let (circuit_a, witness_a) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (circuit_b, _) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk_a, _vk_a) = try_preprocess(circuit_a, &srs).unwrap();
        let (_pk_b, vk_b) = try_preprocess(circuit_b, &srs).unwrap();
        let proof = prove_on(&pk_a, &witness_a, &backend()).expect("valid witness");
        assert!(verify(&vk_b, &proof).is_err());
    }

    #[test]
    fn error_display_strings() {
        assert!(VerifyError::GrandProductMismatch
            .to_string()
            .contains("grand product"));
        assert!(VerifyError::OpeningFailed.to_string().contains("opening"));
        assert!(
            VerifyError::GateZerocheck(SumcheckError::FinalEvaluationMismatch)
                .to_string()
                .contains("gate identity")
        );
    }
}
