//! `prove-mock-mu16`: one closed-loop caller proving the paper's synthetic
//! 45/45/10 mock circuit at μ = 16 through the session API
//! (`ProofSystem` → `ProverHandle::prove` → `to_bytes` → `from_bytes` →
//! `VerifierHandle::verify`).

use std::sync::Arc;
use std::time::Instant;

use zkspeed::hyperplonk::Proof;
use zkspeed::prelude::*;

use crate::layers::{self, ProveLayers};
use crate::serve::{self, check_bit_flip, check_service, ServiceLayers, Serving};
use crate::stats::{median, quantile, supported_percentile};
use crate::{sub_seed, Args, Report, SETUP_REPS};

const MU: usize = 16;
/// Latency limit of one closed-loop proof, call to verified proof.
pub const LIMIT_S: f64 = 10.0;
/// Fewest proofs a run makes, however short `--seconds` is.
const MIN_PROOFS: usize = 3;
/// Extra verifications after each proof, spread over the run so that
/// `verify_ms` does not hang on one moment's machine load.
const EXTRA_VERIFIES: usize = 3;

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (circuit, witness) = mock_circuit(
        MU,
        SparsityProfile::paper_default(),
        &mut StdRng::seed_from_u64(sub_seed(args.seed, 1)),
    );

    // Set-up: SRS at μ = 16 plus preprocessing, repeated.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let (mut srs_s, mut preprocess_s) = (0.0, 0.0);
    let mut handles = None;
    for _ in 0..reps {
        let t = Instant::now();
        let srs = Srs::try_setup(MU, &mut StdRng::seed_from_u64(sub_seed(args.seed, 2)))
            .map_err(|e| e.to_string())?;
        srs_s = t.elapsed().as_secs_f64();
        let system = ProofSystem::setup(srs);
        let t_pre = Instant::now();
        let (prover, verifier) = system
            .preprocess(circuit.clone())
            .map_err(|e| e.to_string())?;
        preprocess_s = t_pre.elapsed().as_secs_f64();
        setup_s.push(t.elapsed().as_secs_f64());
        handles = Some((system, prover, verifier));
    }
    let (system, prover, verifier) = handles.expect("one set-up");

    // The closed loop: prove, encode, decode, verify.
    let mut prove_s = Vec::new();
    let mut verify_ms = Vec::new();
    let mut latency = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let loop_start = Instant::now();
    // Another proof starts only if it should end within `--seconds`.
    let fits = |done: &[f64]| {
        let per_proof = done.iter().sum::<f64>() / done.len().max(1) as f64;
        loop_start.elapsed().as_secs_f64() + per_proof <= args.seconds
    };
    while (report.attempted as usize) < MIN_PROOFS || fits(&latency) {
        report.attempted += 1;
        let t = Instant::now();
        let proved = prover.prove(&witness);
        let proved_at = Instant::now();
        let Ok(proof) = proved else {
            report.failed += 1;
            report
                .problems
                .push(format!("prove failed: {:?}", proved.err()));
            continue;
        };
        let bytes = proof.to_bytes();
        let t_verify = Instant::now();
        let ok = Proof::from_bytes(&bytes)
            .map(|p| verifier.verify(&p).is_ok())
            .unwrap_or(false);
        let done = Instant::now();
        prove_s.push((proved_at - t).as_secs_f64());
        verify_ms.push((done - t_verify).as_secs_f64() * 1e3);
        if ok {
            latency.push((done - t).as_secs_f64());
        } else {
            report.failed += 1;
            report.problems.push("proof failed verification".into());
        }
        for _ in 0..EXTRA_VERIFIES {
            let t = Instant::now();
            let ok = Proof::from_bytes(&bytes).map(|p| verifier.verify(&p).is_ok());
            verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(ok == Ok(true), || "proof failed re-verification".into());
        }
        match &first {
            None => first = Some(bytes),
            Some(f) => report.check(*f == bytes, || "proofs of one witness differ".into()),
        }
        if args.trace {
            break;
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let bytes = first.ok_or("no proof was produced")?;
    let proof = Proof::from_bytes(&bytes).map_err(|e| e.to_string())?;
    check_bit_flip(&mut report, &bytes, &verifier, sub_seed(args.seed, 4));
    report.note("latency_limit_s", LIMIT_S);
    report.note(
        "latency_supported_percentile",
        supported_percentile(latency.len()).map_or("none".into(), |p| format!("p{p}")),
    );

    if args.trace {
        let pk = prover.proving_key();
        let msm = prover.msm_config();
        let tp = layers::traced_prove(pk, &witness, prover.backend(), msm);
        let replay = layers::replay(
            pk,
            &witness,
            prover.backend(),
            msm,
            tp.report.transcript_hashes,
            sub_seed(args.seed, 10),
        );
        let after_ms = layers::prove_ms_on(pk, &witness, prover.backend(), msm);
        let prove_ms = median(&[prove_s[0] * 1e3, tp.untraced_ms, after_ms]);
        layers::print_side_by_side(&format!("mock μ={MU}"), &replay, &tp.rows, prove_ms);
        let serial: Arc<dyn Backend> = Arc::new(Serial);
        let serial_s = layers::prove_ms_on(pk, &witness, &serial, msm) / 1e3;
        let service = serve_one(&mut report, &system, &circuit, &witness, &verifier, &bytes)?;
        check_service(&mut report, &service.metrics);
        layers::emit_prove_layers(
            &mut report,
            &ProveLayers {
                replay,
                traced: vec![tp],
                prove_ms,
                serial_s,
                srs_setup_s: srs_s,
                preprocess_s,
                proofs: vec![proof],
                seed: args.seed,
            },
        );
        serve::emit_service_layers(&mut report, &service);
    } else {
        let verified = latency.len();
        let attempted = report.attempted as usize;
        report.metric("setup_s", median(&setup_s), "s", setup_s.len());
        report.metric("prove_s", median(&prove_s), "s", prove_s.len());
        report.metric("verify_ms", median(&verify_ms), "ms", verify_ms.len());
        report.metric("proof_bytes", bytes.len() as f64, "bytes", 1);
        report.metric("peak_rss_mib", crate::peak_rss_mib(), "MiB", 1);
        report.metric(
            "verified_share",
            verified as f64 / attempted as f64,
            "share",
            attempted,
        );
        report.metric("latency_p50_s", median(&latency), "s", verified);
        report.metric("latency_p90_s", quantile(&latency, 0.9), "s", verified);
        report.metric(
            "slo_share",
            latency.iter().filter(|&&l| l <= LIMIT_S).count() as f64 / attempted as f64,
            "share",
            attempted,
        );
        report.metric("jobs_per_s", verified as f64 / loop_s, "1/s", verified);
    }
    Ok(report)
}

/// Proves the workload's witness once through the service and the TCP
/// transport, for the `svc.*` and `net.*` layers.
fn serve_one(
    report: &mut Report,
    system: &ProofSystem,
    circuit: &Circuit,
    witness: &Witness,
    verifier: &VerifierHandle,
    reference: &[u8],
) -> Result<ServiceLayers, String> {
    let serving = Serving::start(system, std::slice::from_ref(circuit))?;
    let witness_bytes = witness.to_bytes();
    let driven = serve::drive(
        serving.server.local_addr(),
        &serve::plan(&[0.0]),
        &serving.digests,
        std::slice::from_ref(&witness_bytes),
        std::slice::from_ref(verifier),
    )?;
    report.attempted += 1;
    report.failed += u64::from(driven.latency[0].is_none());
    report.problems.extend(driven.errors.iter().cloned());
    report.check(driven.proofs[0].as_deref() == Some(reference), || {
        "served proof missing or different from the offline proof".into()
    });
    Ok(ServiceLayers {
        register_s: serving.register_s,
        submit_ms: driven.submit_ms,
        poll_ms: driven.poll_ms,
        bytes_per_job: serve::job_frame_bytes(serving.digests[0], &witness_bytes, reference) as f64,
        metrics: serving.finish()?,
    })
}
