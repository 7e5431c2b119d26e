//! `serve-poisson` and `serve-burst`: the proving service as `zkspeed
//! serve` ships it (`ServiceConfig::default()` behind a `NetServer` on
//! 127.0.0.1), driven over TCP by one submitting and one polling
//! connection with the `WorkloadSpec::test_suite()` circuits.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkspeed::hyperplonk::Proof;
use zkspeed::prelude::*;
use zkspeed::rt::Rng;
use zkspeed::svc::{Request, Response};

use crate::json::Json;
use crate::layers::{self, Replay};
use crate::stats::{mean, median, poisson_schedule, quantile, supported_percentile};
use crate::{sub_seed, Args, Report, SETUP_REPS};

pub enum Shape {
    /// Open loop: seeded Poisson arrivals at [`RATE_JOBS_PER_S`].
    Poisson,
    /// A block of [`BURST_JOBS`] submitted at once, then waited for.
    Burst,
}

const RATE_JOBS_PER_S: f64 = 0.75;
/// Latency limit of `serve-poisson`, from a job's due send time.
const POISSON_LIMIT_S: f64 = 4.0;
const BURST_JOBS: usize = 32;
/// Latency limit of `serve-burst`, from the burst start: about three times
/// the block's span on a 2-vCPU host, so it flags a collapse, not noise.
const BURST_LIMIT_S: f64 = 90.0;
/// Offline proves per circuit for the byte-identity references.
const REFERENCE_PROVES: usize = 2;
/// Extra verifications of each reference proof, for a steady `verify_ms`.
const EXTRA_VERIFIES: usize = 20;
const SRS_VARS: usize = 14;
/// Pause between polling rounds over all outstanding jobs. Each poll is a
/// request the server answers on its own thread, so a tighter loop over a
/// 32-job backlog would take CPU from the provers it measures.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// How long after the last due time outstanding jobs are waited for
/// before they count as failed.
const COLLECT_GRACE: Duration = Duration::from_secs(120);
const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

/// A running server with the circuits registered.
pub struct Serving {
    pub server: NetServer,
    pub digests: Vec<[u8; 32]>,
    /// Seconds spent in the `register_circuit` calls.
    pub register_s: f64,
}

impl Serving {
    /// Binds a `ServiceConfig::default()` server over `system` and registers
    /// `circuits` over the wire.
    pub fn start(system: &ProofSystem, circuits: &[Circuit]) -> Result<Self, String> {
        let server = NetServer::bind(
            system.serve(ServiceConfig::default()),
            ServerConfig::new("127.0.0.1:0"),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let mut client = connect(server.local_addr())?;
        let t = Instant::now();
        let digests = circuits
            .iter()
            .map(|c| {
                client
                    .register_circuit(&c.to_bytes())
                    .map(|(d, _)| d)
                    .map_err(|e| format!("register: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            server,
            digests,
            register_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Fetches and parses the service metrics, then drains the server.
    /// (A fresh connection: the server closes connections idle longer
    /// than its idle timeout, which a run can outlast.)
    pub fn finish(self) -> Result<Json, String> {
        let text = connect(self.server.local_addr())?
            .metrics()
            .map_err(|e| format!("metrics: {e}"))?;
        self.server.shutdown();
        Json::parse(&text)
    }
}

/// Per-request I/O timeout. Registration preprocesses the circuit before
/// it answers, which at μ = 16 outlasts the client's default.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(
        addr,
        b"",
        ClientConfig::default().with_io_timeout(IO_TIMEOUT),
    )
    .map_err(|e| format!("connect: {e}"))
}

/// One job of a traffic plan.
pub struct Planned {
    pub circuit: usize,
    pub priority: Priority,
    /// Due send time, seconds after the plan's start.
    pub due: f64,
}

/// Circuits rotate 1:1:1 and priorities rotate High/Normal/Low every
/// three jobs, so each (circuit, priority) pair recurs every nine jobs.
pub fn plan(due: &[f64]) -> Vec<Planned> {
    due.iter()
        .enumerate()
        .map(|(i, &due)| Planned {
            circuit: i % 3,
            priority: PRIORITIES[(i / 3) % 3],
            due,
        })
        .collect()
}

/// What happened to each planned job, in plan order.
#[derive(Default)]
pub struct Driven {
    /// Seconds from due time to a verified proof, when one arrived.
    pub latency: Vec<Option<f64>>,
    pub proofs: Vec<Option<Vec<u8>>>,
    pub errors: Vec<String>,
    /// Seconds the generator sent each job after its due time.
    pub lateness: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    /// Jobs queued when the last job had been sent.
    pub depth_at_end: f64,
    /// Seconds from the plan's start to the last verified proof.
    pub span_s: f64,
}

/// Sends `plan` on schedule over one connection while a second one polls
/// for proofs and verifies each against the benchmark's own keys.
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    digests: &[[u8; 32]],
    witnesses: &[Vec<u8>],
    verifiers: &[VerifierHandle],
) -> Result<Driven, String> {
    let mut submitter = connect(addr)?;
    let mut poller = connect(addr)?;
    let n = plan.len();
    let mut out = Driven {
        latency: vec![None; n],
        proofs: vec![None; n],
        ..Driven::default()
    };
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = plan.iter().map(|p| p.due).fold(0.0, f64::max);
    let give_up = start + Duration::from_secs_f64(last_due) + COLLECT_GRACE;
    let due_at = |i: usize| start + Duration::from_secs_f64(plan[i].due);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();

    std::thread::scope(|scope| -> Result<(), String> {
        let polling = scope.spawn(move || {
            let mut latency = vec![None; n];
            let mut proofs = vec![None; n];
            let mut errors = Vec::new();
            let mut poll_ms = Vec::new();
            let mut last_done = start;
            let mut outstanding: Vec<(usize, u64)> = Vec::new();
            let mut sending = true;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(job) => outstanding.push(job),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            sending = false;
                            break;
                        }
                    }
                }
                if outstanding.is_empty() && !sending {
                    break;
                }
                if Instant::now() > give_up {
                    for (i, job) in outstanding.drain(..) {
                        errors.push(format!("job {i} (id {job}) not done in time"));
                    }
                    break;
                }
                let mut k = 0;
                while k < outstanding.len() {
                    let (i, job) = outstanding[k];
                    let t = Instant::now();
                    let polled = poller.poll(job);
                    poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    match polled {
                        Ok(Err(_pending)) => k += 1,
                        Ok(Ok(bytes)) => {
                            outstanding.swap_remove(k);
                            let verified = Proof::from_bytes(&bytes)
                                .map_err(|e| e.to_string())
                                .and_then(|p| {
                                    verifiers[plan[i].circuit]
                                        .verify(&p)
                                        .map_err(|e| e.to_string())
                                });
                            let now = Instant::now();
                            match verified {
                                Ok(()) => {
                                    latency[i] = Some((now - due_at(i)).as_secs_f64());
                                    last_done = last_done.max(now);
                                }
                                Err(e) => errors.push(format!("job {i}: proof rejected: {e}")),
                            }
                            proofs[i] = Some(bytes);
                        }
                        Err(e) => {
                            outstanding.swap_remove(k);
                            errors.push(format!("job {i}: {e}"));
                        }
                    }
                }
                std::thread::sleep(POLL_EVERY);
            }
            (latency, proofs, errors, poll_ms, last_done)
        });

        for (i, job) in plan.iter().enumerate() {
            let due = due_at(i);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            out.lateness.push((sent - due).as_secs_f64());
            match submitter.submit(digests[job.circuit], job.priority, &witnesses[job.circuit]) {
                Ok(id) => {
                    out.submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    tx.send((i, id))
                        .map_err(|_| "poller stopped early".to_string())?;
                }
                Err(e) => out.errors.push(format!("job {i}: submit: {e}")),
            }
        }
        drop(tx);
        let metrics = submitter.metrics().map_err(|e| format!("metrics: {e}"))?;
        let metrics = Json::parse(&metrics)?;
        out.depth_at_end = ["depth_high", "depth_normal", "depth_low"]
            .iter()
            .map(|k| metrics.num(&format!("queue/{k}")).unwrap_or(f64::NAN))
            .sum();
        let (latency, proofs, errors, poll_ms, last_done) =
            polling.join().map_err(|_| "poller panicked".to_string())?;
        out.latency = latency;
        out.proofs = proofs;
        out.errors.extend(errors);
        out.poll_ms = poll_ms;
        out.span_s = (last_done - start).as_secs_f64();
        Ok(())
    })?;
    Ok(out)
}

/// Quantile `q` of the merged per-class queue-wait histograms (bucket
/// upper bounds, nearest rank, as the service's own histograms report).
fn queue_wait_ms(metrics: &Json, q: f64) -> f64 {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for class in ["high", "normal", "low"] {
        if let Some(Json::Arr(items)) = metrics.at(&format!("queue/wait_ms/{class}/buckets")) {
            for item in items {
                if let Json::Arr(pair) = item {
                    if let [Json::Num(upper), Json::Num(count)] = pair.as_slice() {
                        buckets.push((*upper, *count));
                    }
                }
            }
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = buckets.iter().map(|b| b.1).sum();
    let rank = (q * total).ceil().max(1.0);
    let mut seen = 0.0;
    for (upper, count) in buckets {
        seen += count;
        if seen >= rank {
            return upper;
        }
    }
    f64::NAN
}

/// Per-layer numbers measured through the service and the transport.
pub struct ServiceLayers {
    pub register_s: f64,
    pub metrics: Json,
    pub submit_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    /// Frame bytes of one submit request plus its `ProofReady` answer.
    pub bytes_per_job: f64,
}

/// Frame bytes a job moves: its submit request and the proof response.
pub fn job_frame_bytes(digest: [u8; 32], witness: &[u8], proof: &[u8]) -> usize {
    let submit = Request::SubmitJob {
        circuit: digest,
        priority: Priority::Normal,
        deadline_ms: 0,
        witness: witness.to_vec(),
    };
    let ready = Response::ProofReady {
        job: 0,
        proof: proof.to_vec(),
    };
    submit.to_frame().len() + ready.to_frame().len()
}

pub fn emit_service_layers(report: &mut Report, s: &ServiceLayers) {
    let m = &s.metrics;
    let num = |path: &str| m.num(path).unwrap_or(f64::NAN);
    report.metric("svc.register_s", s.register_s, "s", 1);
    report.metric("svc.queue_wait_p50_ms", queue_wait_ms(m, 0.5), "ms", 1);
    report.metric("svc.queue_wait_p90_ms", queue_wait_ms(m, 0.9), "ms", 1);
    report.metric(
        "svc.prove_p50_ms",
        num("phases/prove_total/p50_ms"),
        "ms",
        1,
    );
    report.metric("svc.wave_occupancy", num("waves/mean_occupancy"), "jobs", 1);
    report.metric("svc.waves", num("waves/count"), "count", 1);
    report.metric("svc.peak_queue_depth", num("queue/peak_depth"), "jobs", 1);
    report.metric(
        "net.submit_ms",
        median(&s.submit_ms),
        "ms",
        s.submit_ms.len(),
    );
    report.metric("net.poll_ms", median(&s.poll_ms), "ms", s.poll_ms.len());
    report.metric("net.bytes_per_job", s.bytes_per_job, "bytes", 1);
}

/// Checks every service-side invariant the benchmark relies on.
pub fn check_service(report: &mut Report, metrics: &Json) {
    let hits = metrics.num("proof_cache/hits").unwrap_or(f64::NAN);
    report.check(hits == 0.0, || {
        format!("svc.proof_cache_hits = {hits}: a cache hit measures a lookup, not a proof")
    });
    report.note("svc.proof_cache_hits", hits);
}

/// Flips one bit of a valid proof and checks the verifier rejects it.
pub fn check_bit_flip(report: &mut Report, bytes: &[u8], verifier: &VerifierHandle, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bit = rng.gen_range(0..bytes.len() * 8);
    let mut forged = bytes.to_vec();
    forged[bit / 8] ^= 1 << (bit % 8);
    let accepted = Proof::from_bytes(&forged)
        .map(|p| verifier.verify(&p).is_ok())
        .unwrap_or(false);
    report.check(!accepted, || {
        format!("proof with bit {bit} flipped was accepted")
    });
    report.note("bit_flip.bit", bit);
}

pub fn run(args: &Args, shape: Shape) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 1));
    let suite: Vec<(Circuit, Witness)> = WorkloadSpec::test_suite()
        .iter()
        .map(|spec| spec.build(&mut rng))
        .collect();
    let circuits: Vec<Circuit> = suite.iter().map(|(c, _)| c.clone()).collect();
    let witnesses: Vec<Vec<u8>> = suite.iter().map(|(_, w)| w.to_bytes()).collect();

    // Set-up: SRS, server bind and circuit registration, repeated.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut srs_s = 0.0;
    let mut serving = None;
    let mut system = None;
    for _ in 0..reps {
        if let Some(previous) = serving.take() {
            Serving::finish(previous)?;
        }
        let t = Instant::now();
        let srs = Srs::try_setup(SRS_VARS, &mut StdRng::seed_from_u64(sub_seed(args.seed, 2)))
            .map_err(|e| e.to_string())?;
        srs_s = t.elapsed().as_secs_f64();
        let sys = ProofSystem::setup(srs);
        serving = Some(Serving::start(&sys, &circuits)?);
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some(sys);
    }
    let (serving, system) = (serving.expect("one set-up"), system.expect("one set-up"));

    // The benchmark's own keys over the same SRS: verifiers for every
    // served proof, provers for the byte-identity references.
    let own = ProofSystem::setup(system.srs().clone());
    let handles: Vec<(ProverHandle, VerifierHandle)> = circuits
        .iter()
        .map(|c| own.preprocess(c.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let verifiers: Vec<VerifierHandle> = handles.iter().map(|(_, v)| v.clone()).collect();

    let addr = serving.server.local_addr();
    let mut runs: Vec<(Vec<Planned>, Driven)> = Vec::new();
    let started = Instant::now();
    match shape {
        Shape::Poisson => {
            let due = poisson_schedule(RATE_JOBS_PER_S, args.seconds, sub_seed(args.seed, 3));
            let p = plan(&due);
            let d = drive(addr, &p, &serving.digests, &witnesses, &verifiers)?;
            runs.push((p, d));
        }
        Shape::Burst => loop {
            let p = plan(&[0.0; BURST_JOBS]);
            let d = drive(addr, &p, &serving.digests, &witnesses, &verifiers)?;
            let took = d.span_s;
            runs.push((p, d));
            if started.elapsed().as_secs_f64() + took > args.seconds {
                break;
            }
        },
    }

    // Offline references: each served proof must equal the offline proof
    // of the same (circuit, witness, SRS). `prove_s` is the mix's mean
    // over circuits of each circuit's median offline prove.
    let mut prove_s = Vec::new();
    let mut references = Vec::new();
    for ((prover, _), (_, w)) in handles.iter().zip(&suite) {
        let mut secs = Vec::new();
        let mut proofs = Vec::new();
        for _ in 0..REFERENCE_PROVES {
            let t = Instant::now();
            let proof = prover.prove(w).map_err(|e| e.to_string())?;
            secs.push(t.elapsed().as_secs_f64());
            proofs.push(proof.to_bytes());
        }
        report.check(proofs.windows(2).all(|p| p[0] == p[1]), || {
            "offline proofs of one witness differ".into()
        });
        prove_s.push(median(&secs));
        references.push(proofs.swap_remove(0));
    }

    let mut latencies = Vec::new();
    let mut proof_bytes = Vec::new();
    let mut within_limit = 0usize;
    let mut jobs_per_s = Vec::new();
    let limit = match shape {
        Shape::Poisson => POISSON_LIMIT_S,
        Shape::Burst => BURST_LIMIT_S,
    };
    for (p, d) in &runs {
        report.attempted += p.len() as u64;
        report.failed += d.latency.iter().filter(|l| l.is_none()).count() as u64;
        for e in &d.errors {
            report.problems.push(e.clone());
        }
        for (i, job) in p.iter().enumerate() {
            if let Some(l) = d.latency[i] {
                latencies.push(l);
                within_limit += usize::from(l <= limit);
            }
            if let Some(bytes) = &d.proofs[i] {
                report.check(*bytes == references[job.circuit], || {
                    format!("job {i}: served proof differs from the offline proof")
                });
                proof_bytes.push(bytes.len() as f64);
            }
        }
        let verified = d.latency.iter().flatten().count();
        jobs_per_s.push(verified as f64 / d.span_s);
    }
    // Decode + verify, timed apart from the run so nothing else competes;
    // `verify_ms` is the mix's mean of per-circuit medians.
    let mut verify_ms = vec![Vec::new(); 3];
    for (p, d) in &runs {
        for (job, bytes) in p
            .iter()
            .zip(&d.proofs)
            .filter_map(|(j, b)| Some((j, b.as_ref()?)))
        {
            let t = Instant::now();
            let ok = Proof::from_bytes(bytes)
                .map(|proof| verifiers[job.circuit].verify(&proof).is_ok())
                .unwrap_or(false);
            verify_ms[job.circuit].push(t.elapsed().as_secs_f64() * 1e3);
            report.check(ok, || "served proof failed re-verification".into());
        }
    }
    for ((bytes, verifier), times) in references.iter().zip(&verifiers).zip(&mut verify_ms) {
        for _ in 0..EXTRA_VERIFIES {
            let t = Instant::now();
            let ok = Proof::from_bytes(bytes).map(|p| verifier.verify(&p).is_ok());
            times.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(ok == Ok(true), || {
                "reference proof failed verification".into()
            });
        }
    }
    check_bit_flip(
        &mut report,
        &references[0],
        &verifiers[0],
        sub_seed(args.seed, 4),
    );

    let first = &runs[0].1;
    let lateness = &first.lateness;
    let lateness_max = lateness.iter().copied().fold(0.0, f64::max);
    report.note("generator_lateness_p50_s", median(lateness));
    report.note("generator_lateness_max_s", lateness_max);
    report.note("queue_depth_at_end", first.depth_at_end);
    if let Shape::Poisson = shape {
        report.note("generator_fell_behind", lateness_max > 0.25);
        report.note("backlog_grew", first.depth_at_end > 4.0);
    }
    report.note("latency_samples", latencies.len());
    report.note(
        "latency_supported_percentile",
        supported_percentile(latencies.len()).map_or("none".into(), |p| format!("p{p}")),
    );
    report.note("latency_limit_s", limit);

    let service = ServiceLayers {
        register_s: serving.register_s,
        submit_ms: runs.iter().flat_map(|(_, d)| d.submit_ms.clone()).collect(),
        poll_ms: runs.iter().flat_map(|(_, d)| d.poll_ms.clone()).collect(),
        bytes_per_job: (0..3)
            .map(|c| job_frame_bytes(serving.digests[c], &witnesses[c], &references[c]) as f64)
            .sum::<f64>()
            / 3.0,
        metrics: serving.finish()?,
    };
    check_service(&mut report, &service.metrics);

    if args.trace {
        let mut replays = Vec::new();
        let mut traced = Vec::new();
        let mut prove_ms = Vec::new();
        let mut serial_s = Vec::new();
        let serial: Arc<dyn Backend> = Arc::new(Serial);
        for (i, ((prover, _), (_, w))) in handles.iter().zip(&suite).enumerate() {
            let (pk, msm) = (prover.proving_key(), prover.msm_config());
            let tp = layers::traced_prove(pk, w, prover.backend(), msm);
            let r = layers::replay(
                pk,
                w,
                prover.backend(),
                msm,
                tp.report.transcript_hashes,
                sub_seed(args.seed, 10 + i as u64),
            );
            let after_ms = layers::prove_ms_on(pk, w, prover.backend(), msm);
            let basis = median(&[prove_s[i] * 1e3, tp.untraced_ms, after_ms]);
            layers::print_side_by_side(&format!("circuit {i}"), &r, &tp.rows, basis);
            prove_ms.push(basis);
            serial_s.push(layers::prove_ms_on(pk, w, &serial, msm) / 1e3);
            replays.push(r);
            traced.push(tp);
        }
        let proofs: Vec<Proof> = references
            .iter()
            .map(|b| Proof::from_bytes(b).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let layer = layers::ProveLayers {
            replay: Replay::mean(&replays),
            traced,
            prove_ms: mean(&prove_ms),
            serial_s: mean(&serial_s),
            srs_setup_s: srs_s,
            preprocess_s: preprocess_all_s(&own, &circuits)?,
            proofs,
            seed: args.seed,
        };
        layers::emit_prove_layers(&mut report, &layer);
        emit_service_layers(&mut report, &service);
    } else {
        report.note(
            "threads_per_shard",
            ServiceConfig::default().threads_per_shard,
        );
        report.metric("setup_s", median(&setup_s), "s", setup_s.len());
        report.metric(
            "prove_s",
            mean(&prove_s),
            "s",
            REFERENCE_PROVES * prove_s.len(),
        );
        report.metric(
            "verify_ms",
            mean(&verify_ms.iter().map(|v| median(v)).collect::<Vec<_>>()),
            "ms",
            verify_ms.iter().map(Vec::len).sum(),
        );
        report.metric(
            "proof_bytes",
            median(&proof_bytes),
            "bytes",
            proof_bytes.len(),
        );
        report.metric("peak_rss_mib", crate::peak_rss_mib(), "MiB", 1);
        report.metric(
            "verified_share",
            latencies.len() as f64 / report.attempted.max(1) as f64,
            "share",
            report.attempted as usize,
        );
        report.metric("latency_p50_s", median(&latencies), "s", latencies.len());
        report.metric(
            "latency_p90_s",
            quantile(&latencies, 0.9),
            "s",
            latencies.len(),
        );
        report.metric(
            "slo_share",
            within_limit as f64 / report.attempted.max(1) as f64,
            "share",
            report.attempted as usize,
        );
        report.metric("jobs_per_s", median(&jobs_per_s), "1/s", jobs_per_s.len());
    }
    Ok(report)
}

/// Seconds to preprocess the suite's circuits once more (the
/// `hyperplonk.preprocess_s` layer, summed over the three circuits).
fn preprocess_all_s(system: &ProofSystem, circuits: &[Circuit]) -> Result<f64, String> {
    let t = Instant::now();
    for c in circuits {
        system.preprocess(c.clone()).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64())
}
