//! End-to-end tests of the proving service (ISSUE 5 acceptance criteria):
//! multiple registered sessions, concurrent clients across all three
//! PR 4 workloads, proof determinism regardless of queue order, priority
//! ordering within a scheduling round, and queue backpressure.

use std::collections::HashMap;
use std::sync::Arc;

use zkspeed::prelude::*;
use zkspeed::svc::wire;
use zkspeed::svc::{JobState, Request, Response};
use zkspeed_hyperplonk::workloads::WorkloadSpec;

/// One shared μ = 14 setup for every test in this file (the dominant cost;
/// built once thanks to the fixed-base setup tables).
fn shared_srs() -> Arc<Srs> {
    use std::sync::OnceLock;
    static SRS: OnceLock<Arc<Srs>> = OnceLock::new();
    SRS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5e27_1ce0);
        Arc::new(Srs::try_setup(14, &mut rng).expect("μ=14 setup fits"))
    })
    .clone()
}

fn service(config: ServiceConfig) -> ProvingService {
    ProvingService::start(shared_srs(), config)
}

/// The three PR 4 workload families at the smallest sizes they support, so
/// a 36-proof service run stays fast on one core. (The `workloads` bench
/// suite and examples exercise the full test/example-scale specs.)
fn workload_instances() -> Vec<(Circuit, Witness)> {
    use zkspeed_hyperplonk::workloads::{HashChainSpec, MerkleSpec, StateTransitionSpec};
    let mut rng = StdRng::seed_from_u64(0xabcd);
    vec![
        WorkloadSpec::HashChain(HashChainSpec {
            links: 1,
            rounds: 1,
        })
        .build(&mut rng),
        WorkloadSpec::MerkleMembership(MerkleSpec {
            depth: 1,
            rounds: 1,
        })
        .build(&mut rng),
        WorkloadSpec::StateTransition(StateTransitionSpec {
            transfers: 4,
            balance_bits: 16,
        })
        .build(&mut rng),
    ]
}

#[test]
fn interleaved_concurrent_clients_across_sessions() {
    // ≥2 sessions (three here), ≥32 jobs, ≥4 client threads, all three
    // workloads interleaved; every proof verifies against its session's VK
    // and identical submissions yield byte-identical proofs regardless of
    // queue order.
    let svc = Arc::new(service(
        ServiceConfig::default()
            .with_shards(2)
            .with_threads_per_shard(2)
            .with_wave_size(3)
            .with_queue_capacity(64),
    ));
    let instances = workload_instances();
    let mut digests = Vec::new();
    let mut verifiers = HashMap::new();
    let mut witnesses = HashMap::new();
    for (circuit, witness) in instances {
        let digest = svc.register_circuit(circuit).expect("fits μ=14 SRS");
        verifiers.insert(digest, svc.verifying_key(&digest).expect("registered"));
        witnesses.insert(digest, witness);
        digests.push(digest);
    }
    assert_eq!(digests.len(), 3);
    assert_eq!(svc.shard_count(), 2);

    // 4 clients × 9 jobs = 36 interleaved submissions, mixed priorities.
    let clients: Vec<_> = (0..4)
        .map(|client: usize| {
            let svc = Arc::clone(&svc);
            let digests = digests.clone();
            let witnesses = witnesses.clone();
            std::thread::spawn(move || {
                let mut jobs = Vec::new();
                for i in 0..9usize {
                    let digest = digests[(client + i) % digests.len()];
                    let priority = Priority::ALL[(client + i) % 3];
                    let job = svc
                        .submit(&digest, witnesses[&digest].clone(), priority)
                        .expect("parking submit succeeds");
                    jobs.push((digest, job));
                }
                jobs.into_iter()
                    .map(|(digest, job)| (digest, svc.wait(job).expect("job completes").to_vec()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut proofs_by_digest: HashMap<[u8; 32], Vec<Vec<u8>>> = HashMap::new();
    for client in clients {
        for (digest, proof) in client.join().expect("client thread") {
            proofs_by_digest.entry(digest).or_default().push(proof);
        }
    }
    let total: usize = proofs_by_digest.values().map(Vec::len).sum();
    assert_eq!(total, 36);

    for (digest, proofs) in &proofs_by_digest {
        let verifier = &verifiers[digest];
        // Identical (circuit, witness) submissions → byte-identical proofs,
        // regardless of wave packing, priority or queue order.
        for proof in proofs {
            assert_eq!(proof, &proofs[0], "proof bytes diverged within session");
        }
        let proof = Proof::from_bytes(&proofs[0]).expect("canonical bytes");
        zkspeed_hyperplonk::verify(verifier, &proof).expect("proof verifies");
        // Cross-session keys must reject it.
        for (other, other_vk) in &verifiers {
            if other != digest {
                assert!(
                    zkspeed_hyperplonk::verify(other_vk, &proof).is_err(),
                    "proof verified under the wrong session"
                );
            }
        }
    }

    let metrics = svc.metrics();
    assert_eq!(metrics.completed, 36);
    assert_eq!(metrics.submitted, 36);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.sessions_registered, 3);
    assert!(metrics.waves > 0);
    assert!(metrics.mean_wave_occupancy >= 1.0);
    assert!(metrics.msm.fq_muls() > 0, "MSM rollups were recorded");
    assert_eq!(metrics.sessions.len(), 3);
    for session in &metrics.sessions {
        assert!(session.p50_ms > 0.0);
        assert!(session.p99_ms >= session.p50_ms);
    }
}

#[test]
fn priority_completion_order_is_observable() {
    // Deterministic variant: one serial shard and a blocked worker; after
    // the warmup job drains, the two highs must finish strictly before the
    // two lows even though the lows were queued first. We verify by
    // waiting on the *lows* and asserting the highs are already done.
    let svc = service(
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_wave_size(4)
            .with_starvation_limit(100),
    );
    let (circuit, witness) = workload_instances().swap_remove(0);
    let digest = svc.register_circuit(circuit).expect("fits");

    let warm = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("submit");
    // Close the submission race: only queue the contending jobs once the
    // worker is provably inside the warmup proof (hundreds of ms), so both
    // lows and highs are enqueued in the same scheduling round.
    while svc.status(warm) != Some(JobState::Running) {
        std::thread::yield_now();
    }
    let lows: Vec<u64> = (0..2)
        .map(|_| {
            svc.submit(&digest, witness.clone(), Priority::Low)
                .expect("submit")
        })
        .collect();
    let highs: Vec<u64> = (0..2)
        .map(|_| {
            svc.submit(&digest, witness.clone(), Priority::High)
                .expect("submit")
        })
        .collect();
    svc.wait(warm).expect("warmup completes");

    // Wait for the first low job; by strict priority the high wave ran
    // first, so both highs must already be Done.
    for low in &lows {
        svc.wait(*low).expect("low completes");
        for high in &highs {
            assert_eq!(
                svc.status(*high),
                Some(JobState::Done),
                "a high-priority job completed after a same-round low"
            );
        }
    }
}

#[test]
fn bounded_queue_rejects_and_parks_when_full() {
    // Capacity 2 on one serial shard: while the worker chews the first
    // job, the queue fills; try_submit must bounce with QueueFull and the
    // parking submit must deliver once space frees up.
    let svc = Arc::new(service(
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_wave_size(1)
            .with_queue_capacity(2),
    ));
    let (circuit, witness) = workload_instances().swap_remove(1);
    let digest = svc.register_circuit(circuit).expect("fits");

    let mut accepted = Vec::new();
    let mut bounced = 0usize;
    // Saturate: the worker takes jobs off the queue as we push, so push
    // until we have observed at least one backpressure rejection.
    for _ in 0..200 {
        match svc.try_submit(&digest, witness.clone(), Priority::Normal) {
            Ok(job) => accepted.push(job),
            Err(ServiceError::QueueFull) => {
                bounced += 1;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(bounced > 0, "bounded queue never pushed back");

    // The parking submit succeeds despite the full queue.
    let parked = {
        let svc = Arc::clone(&svc);
        let witness = witness.clone();
        std::thread::spawn(move || svc.submit(&digest, witness, Priority::Normal))
    };
    let parked_job = parked
        .join()
        .expect("thread")
        .expect("parked submit delivers");
    for job in accepted {
        svc.wait(job).expect("accepted job completes");
    }
    svc.wait(parked_job).expect("parked job completes");

    let metrics = svc.metrics();
    assert!(metrics.rejected_queue_full >= 1);
    assert!(metrics.peak_queue_depth >= 2);
}

#[test]
fn wire_protocol_full_cycle() {
    // SubmitCircuit → SubmitJob → JobStatus (poll) → ProofReady → Metrics,
    // entirely through byte frames.
    let svc = service(
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(2),
    );
    let (circuit, witness) = workload_instances().swap_remove(2);
    let expected_mu = circuit.num_vars() as u32;
    let vk_digest = circuit.digest();

    let response = roundtrip(
        &svc,
        &Request::SubmitCircuit {
            circuit: circuit.to_bytes(),
        },
    );
    let digest = match response {
        Response::CircuitRegistered { digest, num_vars } => {
            assert_eq!(num_vars, expected_mu);
            assert_eq!(digest, vk_digest);
            digest
        }
        other => panic!("expected CircuitRegistered, got {other:?}"),
    };

    let response = roundtrip(
        &svc,
        &Request::SubmitJob {
            circuit: digest,
            priority: Priority::High,
            deadline_ms: 0,
            witness: witness.to_bytes(),
        },
    );
    let job = match response {
        Response::JobAccepted { job } => job,
        other => panic!("expected JobAccepted, got {other:?}"),
    };

    // Poll until the proof streams back.
    let proof_bytes = loop {
        match roundtrip(&svc, &Request::JobStatus { job }) {
            Response::ProofReady { job: id, proof } => {
                assert_eq!(id, job);
                break proof;
            }
            Response::Status { state, .. } => {
                assert!(matches!(state, JobState::Queued | JobState::Running));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            other => panic!("expected status/proof, got {other:?}"),
        }
    };
    let proof = Proof::from_bytes(&proof_bytes).expect("canonical proof bytes");
    let vk = svc.verifying_key(&digest).expect("registered");
    zkspeed_hyperplonk::verify(&vk, &proof).expect("streamed proof verifies");

    // In-process API produces the same bytes for the same submission.
    let job2 = svc.submit(&digest, witness, Priority::Low).expect("submit");
    assert_eq!(*svc.wait(job2).expect("completes"), proof_bytes);

    match roundtrip(&svc, &Request::Metrics) {
        Response::Metrics { json } => {
            assert!(json.contains("proofs_per_second"));
            assert!(json.contains("completed"));
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
}

#[test]
fn precompute_accounting_flows_through_the_metrics() {
    // A service with an opt-in precompute budget builds the session tables
    // at registration and reports their footprint and build time, both in
    // the in-process snapshot and over the wire Metrics frame.
    let svc = service(
        ServiceConfig::default()
            .with_shards(1)
            .with_precompute(PrecomputeBudget::unlimited()),
    );
    let (circuit, witness) = workload_instances().swap_remove(0);
    let digest = svc.register_circuit(circuit).expect("fits");
    let job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("submit");
    svc.wait(job).expect("completes");

    let metrics = svc.metrics();
    assert_eq!(metrics.sessions.len(), 1);
    let session = &metrics.sessions[0];
    assert!(
        session.precompute_table_bytes > 0,
        "tables were built at registration"
    );
    assert!(session.precompute_build_ms > 0.0);
    // The budget alone switches the tables on: the prover consumed them, and
    // the table engine does no doublings.
    assert_eq!(
        metrics.msm.wiring.doublings, 0,
        "the prover must commit through the session tables"
    );

    match roundtrip(&svc, &Request::Metrics) {
        Response::Metrics { json } => {
            assert!(json.contains("precompute_table_bytes"));
            assert!(json.contains("precompute_build_ms"));
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    // The default budget is disabled: registration builds nothing and the
    // per-session accounting stays zero.
    let off = service(ServiceConfig::default().with_shards(1));
    let (circuit, _) = workload_instances().swap_remove(1);
    off.register_circuit(circuit).expect("fits");
    let metrics = off.metrics();
    assert_eq!(metrics.sessions.len(), 1);
    assert_eq!(metrics.sessions[0].precompute_table_bytes, 0);
    assert_eq!(metrics.sessions[0].precompute_build_ms, 0.0);
}

#[test]
fn wire_protocol_rejects_garbage_and_unknowns() {
    let svc = service(ServiceConfig::default().with_shards(1));

    // Garbage frames answer with Rejected, never panic.
    for garbage in [
        &[][..],
        &[1, 2, 3][..],
        &[255u8; 64][..],
        &Request::Metrics.to_bytes()[..], // unframed message
    ] {
        let response = Response::from_bytes(
            zkspeed_rt::codec::Reader::new(&svc.handle_frame(garbage))
                .frame()
                .expect("framed response"),
        )
        .expect("decodable response");
        assert!(
            matches!(
                response,
                Response::Rejected {
                    code: wire::RejectCode::Malformed,
                    ..
                }
            ),
            "got {response:?}"
        );
    }

    // Unknown circuit digest.
    let response = roundtrip(
        &svc,
        &Request::SubmitJob {
            circuit: [9u8; 32],
            priority: Priority::Normal,
            deadline_ms: 0,
            witness: workload_instances().swap_remove(0).1.to_bytes(),
        },
    );
    assert!(matches!(
        response,
        Response::Rejected {
            code: wire::RejectCode::UnknownCircuit,
            ..
        }
    ));

    // Unknown job id.
    let response = roundtrip(&svc, &Request::JobStatus { job: 123456 });
    assert!(matches!(
        response,
        Response::Rejected {
            code: wire::RejectCode::UnknownJob,
            ..
        }
    ));

    let metrics = svc.metrics();
    assert!(metrics.rejected_invalid >= 1);
}

#[test]
fn failing_witness_fails_its_job_but_not_its_wavemates() {
    let svc = service(
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(2)
            .with_wave_size(4),
    );
    let (circuit, witness) = workload_instances().swap_remove(0);
    let digest = svc.register_circuit(circuit).expect("fits");

    // Corrupt one witness bit (0 ↔ 1): structurally valid, semantically
    // wrong — the violation surfaces through the constraints that consume
    // the flipped value (same pattern as the workload soundness tests).
    let mut bad = witness.clone();
    let old = bad.columns[2][0];
    bad.columns[2].evaluations_mut()[0] = zkspeed_field::Fr::one() - old;

    let good_job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("submit");
    let bad_job = svc.submit(&digest, bad, Priority::Normal).expect("submit");

    assert!(svc.wait(good_job).is_ok(), "good wave-mate completes");
    match svc.wait(bad_job) {
        Err(ServiceError::JobFailed(msg)) => {
            assert!(msg.contains("constraint"), "{msg}");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    // Terminal outcomes are consumed on delivery: the ids are forgotten.
    assert_eq!(svc.status(bad_job), None);
    assert_eq!(svc.status(good_job), None);
    let metrics = svc.metrics();
    assert_eq!(metrics.failed, 1);
}

#[test]
fn proof_system_serve_integration() {
    // The umbrella session API spawns the service with its SRS and MSM
    // config; proofs served over the queue match the session handles'.
    // Srs clones share the Arc'd point tables, so this is cheap.
    let system =
        ProofSystem::setup_with_backend((*shared_srs()).clone(), Arc::new(ThreadPool::new(2)));
    let (circuit, witness) = workload_instances().swap_remove(1);
    let (prover, verifier) = system.preprocess(circuit.clone()).expect("fits");
    let direct = prover.prove(&witness).expect("valid witness");

    let svc = system.serve(ServiceConfig::default().with_shards(1));
    let digest = svc.register_circuit(circuit).expect("fits");
    let job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("submit");
    let served = svc.wait(job).expect("completes");
    assert_eq!(
        *served,
        direct.to_bytes(),
        "service proofs are byte-identical to session-handle proofs"
    );
    verifier
        .verify(&Proof::from_bytes(&served).expect("decodes"))
        .expect("verifies");
}

fn roundtrip(svc: &ProvingService, request: &Request) -> Response {
    let frame = svc.handle_frame(&request.to_frame());
    let mut reader = zkspeed_rt::codec::Reader::new(&frame);
    let payload = reader.frame().expect("framed response");
    reader.finish().expect("single frame");
    Response::from_bytes(payload).expect("canonical response")
}
