//! The session-oriented proving API: a [`ProofSystem`] owns the universal
//! SRS and an execution backend, and hands out long-lived
//! [`ProverHandle`] / [`VerifierHandle`] pairs per circuit.
//!
//! The paper's Figure-2 pipeline is a long-lived system — one universal
//! setup, one preprocessing pass per circuit, then many proofs. The free
//! functions of the component crates re-derive nothing, but they force
//! every caller to carry keys around and they spin parallelism up from the
//! ambient configuration on every call. The session API fixes both: keys
//! live inside the handles (`Arc`-shared, cheap to clone), and one
//! reusable [`Backend`] worker pool serves every proof of the session.
//!
//! ```
//! use zkspeed::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let srs = Srs::try_setup(4, &mut rng)?;
//! let system = ProofSystem::setup(srs);
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let (prover, verifier) = system.preprocess(circuit)?;
//!
//! let proof = prover.prove(&witness)?;
//! verifier.verify(&proof)?;
//!
//! // Proofs ship as canonical bytes.
//! let bytes = proof.to_bytes();
//! verifier.verify(&Proof::from_bytes(&bytes)?)?;
//! # Ok::<(), zkspeed::Error>(())
//! ```

use std::sync::Arc;

use zkspeed_curve::MsmConfig;
use zkspeed_hyperplonk::{
    prove_batch_with_reports_traced_on, prove_unchecked_traced_on, try_preprocess_with_budget_on,
    verify, Circuit, Proof, ProveError, ProverReport, ProvingKey, VerifyingKey, Witness,
};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::trace::TraceSink;
use zkspeed_svc::{ProvingService, ServiceConfig};

use crate::error::Error;

/// The session entry point: owns the universal SRS plus the execution
/// backend and MSM engine configuration every derived handle will prove
/// with.
#[derive(Clone, Debug)]
pub struct ProofSystem {
    srs: Arc<Srs>,
    backend: Arc<dyn Backend>,
    msm_config: MsmConfig,
    precompute: PrecomputeBudget,
}

impl ProofSystem {
    /// Wraps a universal setup with the default backend: the process-wide
    /// shared worker pool, sized by `ZKSPEED_THREADS` (falling back to the
    /// hardware parallelism).
    pub fn setup(srs: Srs) -> Self {
        Self {
            srs: Arc::new(srs),
            backend: pool::ambient(),
            msm_config: MsmConfig::default(),
            precompute: PrecomputeBudget::default(),
        }
    }

    /// Wraps a universal setup with an explicit execution backend
    /// (`Arc<Serial>`, a dedicated `ThreadPool`, or any custom [`Backend`]).
    pub fn setup_with_backend(srs: Srs, backend: Arc<dyn Backend>) -> Self {
        Self {
            srs: Arc::new(srs),
            backend,
            msm_config: MsmConfig::default(),
            precompute: PrecomputeBudget::default(),
        }
    }

    /// Replaces the execution backend, keeping the SRS.
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the MSM engine configuration (window size, signed digits,
    /// work-decomposition schedule, batch-affine threshold) used by every
    /// commitment and opening of handles derived from this session. Any
    /// configuration produces bit-identical proof encodings; only the
    /// operation schedule differs.
    pub fn with_msm_config(mut self, msm_config: MsmConfig) -> Self {
        self.msm_config = msm_config;
        self
    }

    /// Opts the session into precomputed multi-base commit tables: every
    /// subsequent [`ProofSystem::preprocess`] builds per-level window tables
    /// over the SRS Lagrange bases within `budget` and stores them on the
    /// proving key, and every commit and opening at a level with a table
    /// consumes it — zero doublings per scalar instead of one doubling per
    /// bit. Proof bytes are identical either way; only the operation
    /// schedule changes. A disabled budget (the default) builds no tables.
    pub fn with_precompute(mut self, budget: PrecomputeBudget) -> Self {
        self.precompute = budget;
        self
    }

    /// The precomputed-table budget applied at preprocessing.
    pub fn precompute(&self) -> PrecomputeBudget {
        self.precompute
    }

    /// The MSM engine configuration derived handles will prove with.
    pub fn msm_config(&self) -> MsmConfig {
        self.msm_config
    }

    /// The universal SRS this session proves against.
    pub fn srs(&self) -> &Srs {
        &self.srs
    }

    /// The execution backend handles derived from this session will use.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Starts a long-running [`ProvingService`] over this session's SRS and
    /// MSM configuration: circuits register as sessions keyed by digest,
    /// jobs queue with priorities and backpressure, and shard workers pack
    /// them into `prove_batch` waves (see [`zkspeed_svc`]). The service
    /// builds its own per-shard backend pools as configured.
    pub fn serve(&self, config: ServiceConfig) -> ProvingService {
        ProvingService::start(
            Arc::clone(&self.srs),
            config
                .with_msm_config(self.msm_config)
                .with_precompute(self.precompute),
        )
    }

    /// Preprocesses (indexes) a circuit: commits to its selector and wiring
    /// tables once, yielding a long-lived prover/verifier handle pair. The
    /// eight table commitments fan out across the session backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Preprocess`] if the circuit needs more variables
    /// than the SRS supports.
    pub fn preprocess(&self, circuit: Circuit) -> Result<(ProverHandle, VerifierHandle), Error> {
        let (pk, vk) =
            try_preprocess_with_budget_on(circuit, &self.srs, &self.backend, &self.precompute)?;
        Ok((
            ProverHandle {
                pk: Arc::new(pk),
                backend: Arc::clone(&self.backend),
                msm_config: self.msm_config,
            },
            VerifierHandle { vk: Arc::new(vk) },
        ))
    }
}

/// A long-lived prover for one circuit: owns the proving key, the execution
/// backend and the MSM engine configuration, so each
/// [`ProverHandle::prove`] call is pure compute with no per-call setup.
/// Cloning the handle shares the key and backend.
#[derive(Clone, Debug)]
pub struct ProverHandle {
    pk: Arc<ProvingKey>,
    backend: Arc<dyn Backend>,
    msm_config: MsmConfig,
}

impl ProverHandle {
    /// Proves that `witness` satisfies the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] if the witness fails the circuit's gate or
    /// wiring constraints.
    pub fn prove(&self, witness: &Witness) -> Result<Proof, Error> {
        Ok(self.prove_with_report(witness)?.0)
    }

    /// Like [`ProverHandle::prove`], additionally returning wall-clock and
    /// operation-count measurements per protocol step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] if the witness is invalid.
    pub fn prove_with_report(&self, witness: &Witness) -> Result<(Proof, ProverReport), Error> {
        self.pk
            .circuit
            .check_witness(witness)
            .map_err(ProveError::UnsatisfiedWitness)?;
        Ok(self.prove_unchecked(witness))
    }

    /// Proves a batch of witnesses, fanning the independent proofs (and the
    /// three witness commits inside each) out across the backend's worker
    /// pool. Proofs come back in input order and are bit-identical to
    /// individual [`ProverHandle::prove`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] for the first invalid witness; no proving
    /// work starts in that case.
    pub fn prove_batch(&self, witnesses: &[Witness]) -> Result<Vec<Proof>, Error> {
        let proved = prove_batch_with_reports_traced_on(
            &self.pk,
            witnesses,
            &self.backend,
            self.msm_config,
            &TraceSink::disabled(),
            &[],
        )?;
        Ok(proved.into_iter().map(|(proof, _)| proof).collect())
    }

    /// Runs the prover without checking witness satisfiability first (used
    /// by soundness tests: an unsatisfied witness yields a proof the
    /// verifier rejects).
    pub fn prove_unchecked(&self, witness: &Witness) -> (Proof, ProverReport) {
        let disabled = TraceSink::disabled();
        prove_unchecked_traced_on(
            &self.pk,
            witness,
            &self.backend,
            self.msm_config,
            &disabled,
            0,
        )
    }

    /// The MSM engine configuration this handle proves with.
    pub fn msm_config(&self) -> MsmConfig {
        self.msm_config
    }

    /// The proving key (circuit tables plus SRS).
    pub fn proving_key(&self) -> &ProvingKey {
        &self.pk
    }

    /// The execution backend this handle proves on.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Number of variables `μ` of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.pk.circuit.num_vars()
    }
}

/// A long-lived verifier for one circuit: owns the verifying key. Cloning
/// the handle shares it.
#[derive(Clone, Debug)]
pub struct VerifierHandle {
    vk: Arc<VerifyingKey>,
}

impl VerifierHandle {
    /// Verifies a proof against this circuit's verifying key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] describing the first failed check.
    pub fn verify(&self, proof: &Proof) -> Result<(), Error> {
        Ok(verify(&self.vk, proof)?)
    }

    /// The verifying key (for serialization via
    /// [`VerifyingKey::to_bytes`]).
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// Rebuilds a verifier handle from a serialized verifying key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] if the bytes are malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        Ok(Self {
            vk: Arc::new(VerifyingKey::from_bytes(bytes)?),
        })
    }

    /// Number of variables `μ` of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.vk.num_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_hyperplonk::{mock_circuit, SparsityProfile};
    use zkspeed_pcs::SetupError;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    #[test]
    fn session_roundtrip_and_batch() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0001);
        let srs = Srs::try_setup(4, &mut rng).expect("small setup");
        let system = ProofSystem::setup_with_backend(srs, Arc::new(ThreadPool::new(4)));
        let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        assert_eq!(prover.num_vars(), 4);
        assert_eq!(verifier.num_vars(), 4);

        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("honest proof verifies");

        let batch = prover
            .prove_batch(&[witness.clone(), witness.clone()])
            .expect("valid batch");
        assert_eq!(batch.len(), 2);
        for p in &batch {
            assert_eq!(*p, proof);
        }

        // Handles are cheap to clone and share state.
        let prover2 = prover.clone();
        assert_eq!(prover2.prove(&witness).expect("still proves"), proof);
    }

    #[test]
    fn precompute_session_matches_default_proofs() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0004);
        let srs = Srs::try_setup(6, &mut rng).expect("small setup");
        let (circuit, witness) = mock_circuit(6, SparsityProfile::paper_default(), &mut rng);

        let plain = ProofSystem::setup_with_backend(srs.clone(), Arc::new(Serial));
        let (plain_prover, _) = plain.preprocess(circuit.clone()).expect("fits");
        assert!(plain_prover.proving_key().commit_tables.is_none());
        let reference = plain_prover.prove(&witness).expect("valid witness");
        let circuit_again = circuit.clone();

        let fast = ProofSystem::setup_with_backend(srs, Arc::new(ThreadPool::new(4)))
            .with_precompute(PrecomputeBudget::unlimited());
        assert!(fast.precompute().is_enabled());
        assert_eq!(fast.msm_config(), MsmConfig::default());
        let (prover, verifier) = fast.preprocess(circuit).expect("fits");
        let tables = prover
            .proving_key()
            .commit_tables
            .as_ref()
            .expect("unlimited budget builds tables");
        assert!(tables.size_in_bytes() > 0);
        let proof = prover.prove(&witness).expect("valid witness");
        assert_eq!(proof, reference, "table proofs must be byte-identical");
        verifier.verify(&proof).expect("verifies");
        // The budget alone switched the tables on: the wiring commits ran on
        // the zero-doubling engine.
        let (_, report) = prover.prove_with_report(&witness).expect("valid witness");
        assert_eq!(report.wiring_msm.doublings, 0);

        let reverted = fast.with_precompute(PrecomputeBudget::disabled());
        assert!(!reverted.precompute().is_enabled());
        let (plain_prover, _) = reverted.preprocess(circuit_again).expect("fits");
        assert!(plain_prover.proving_key().commit_tables.is_none());
    }

    #[test]
    fn session_errors_are_structured() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0002);
        let srs = Srs::try_setup(2, &mut rng).expect("small setup");
        let system = ProofSystem::setup(srs).with_backend(Arc::new(Serial));
        let (circuit, _) = mock_circuit(3, SparsityProfile::paper_default(), &mut rng);
        let err = system.preprocess(circuit).unwrap_err();
        assert!(matches!(err, Error::Preprocess(_)));
        assert!(err.to_string().contains("SRS supports up to 2^2"));

        assert!(matches!(
            Srs::try_setup(64, &mut rng).map(ProofSystem::setup),
            Err(SetupError::TooManyVariables { .. })
        ));
    }

    #[test]
    fn verifier_handle_roundtrips_through_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0003);
        let srs = Srs::try_setup(3, &mut rng).expect("small setup");
        let system = ProofSystem::setup_with_backend(srs, Arc::new(Serial));
        let (circuit, witness) = mock_circuit(3, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");

        let vk_bytes = verifier.verifying_key().to_bytes();
        let restored = VerifierHandle::from_bytes(&vk_bytes).expect("valid key bytes");
        restored.verify(&proof).expect("proof verifies");
        assert!(matches!(
            VerifierHandle::from_bytes(&vk_bytes[..10]),
            Err(Error::Decode(_))
        ));
    }
}
