//! End-to-end HyperPlonk prover and verifier benchmarks (the CPU baseline
//! this repository measures directly, at laptop-scale problem sizes),
//! driven through the backend-threaded session entry points so key setup
//! happens once per size.

use std::sync::Arc;

use zkspeed_curve::MsmConfig;
use zkspeed_hyperplonk::{
    mock_circuit, prove_batch_with_reports_traced_on, prove_on, try_preprocess, verify,
    SparsityProfile,
};
use zkspeed_pcs::Srs;
use zkspeed_rt::bench::Harness;
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::trace::TraceSink;
use zkspeed_rt::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut h = Harness::new("hyperplonk");
    let backend: Arc<dyn Backend> = pool::ambient();
    for num_vars in [6usize, 8] {
        let srs = Srs::try_setup(num_vars, &mut rng).expect("setup fits");
        let (circuit, witness) = mock_circuit(num_vars, SparsityProfile::paper_default(), &mut rng);
        let (pk, vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        h.bench(format!("prove/{}", 1 << num_vars), || {
            prove_on(&pk, &witness, &backend).expect("valid witness")
        });
        let witnesses = vec![
            witness.clone(),
            witness.clone(),
            witness.clone(),
            witness.clone(),
        ];
        let (msm, disabled) = (MsmConfig::default(), TraceSink::disabled());
        h.bench(format!("prove_batch4/{}", 1 << num_vars), || {
            prove_batch_with_reports_traced_on(&pk, &witnesses, &backend, msm, &disabled, &[])
                .expect("valid witnesses")
        });
        let proof = prove_on(&pk, &witness, &backend).expect("valid witness");
        h.bench(format!("verify/{}", 1 << num_vars), || {
            verify(&vk, &proof).expect("valid proof")
        });
        h.bench(format!("proof_to_bytes/{}", 1 << num_vars), || {
            proof.to_bytes()
        });
    }
    h.finish();
}
