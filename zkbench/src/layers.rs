//! Per-layer replay: times each crate's public calls on one workload
//! circuit, in the order and with the fan-out the prover uses, and reduces
//! a traced prove of the same inputs so the two views sit side by side.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use zkspeed::curve::{msm_with_config_on, sparse_msm_with_config_on, MsmConfig};
use zkspeed::field::{Field, Fq, Fr};
use zkspeed::hyperplonk::{
    prove_unchecked_msm_on, prove_unchecked_traced_on, query_groups, PolyLabel, ProverReport,
    ProvingKey, Witness,
};
use zkspeed::pcs::{commit_sparse_with_tables_on, commit_with_tables_on, open_with_tables_on};
use zkspeed::poly::{
    fraction_mle, product_mle, split_even_odd, MultilinearPoly, VirtualPolynomial,
};
use zkspeed::rt::pool::{self, Backend, Serial};
use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::trace::TraceSink;
use zkspeed::rt::SeedableRng;
use zkspeed::sumcheck::{prove_on as sumcheck_prove_on, prove_zerocheck_on};
use zkspeed::transcript::Transcript;

use crate::selftime::{self, SpanRec};
use crate::stats::median;

fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Nanoseconds per field multiplication: the median of three timed chains
/// of dependent multiplications. The multiplier cycles through 256 random
/// elements so the cost is not that of one operand's reduction pattern.
fn mul_ns<F: Field>(rng: &mut StdRng, n: u32) -> f64 {
    let ys: Vec<F> = (0..256).map(|_| F::random(rng)).collect();
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut x = black_box(F::random(rng));
            let t = Instant::now();
            for i in 0..n {
                x *= ys[i as usize & 255];
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e9 / f64::from(n)
        })
        .collect();
    median(&runs)
}

/// Fr and Fq multiplication cost, in ns.
pub fn field_ns(seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        mul_ns::<Fr>(&mut rng, 1 << 21),
        mul_ns::<Fq>(&mut rng, 1 << 20),
    )
}

/// Replayed layer times for one circuit, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// One dense `2^μ` MSM on the whole backend (the φ/π/opening shape).
    pub msm_dense_ms: f64,
    /// One witness column's sparse MSM, serial (the prover runs the three
    /// columns as concurrent serial jobs); mean over the columns.
    pub msm_sparse_ms: f64,
    pub commit_witness_ms: f64,
    pub construct_nd_ms: f64,
    pub frac_prod_ms: f64,
    pub commit_wiring_ms: f64,
    pub gate_ms: f64,
    pub perm_ms: f64,
    pub batch_eval_ms: f64,
    /// MLE combine, `eq` tables, combined evaluations and `g′`.
    pub combine_ms: f64,
    pub open_sumcheck_ms: f64,
    pub open_ms: f64,
    pub transcript_ms: f64,
}

impl Replay {
    /// Element-wise mean of several replays.
    pub fn mean(all: &[Replay]) -> Replay {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&Replay) -> f64| all.iter().map(f).sum::<f64>() / n;
        Replay {
            msm_dense_ms: avg(|r| r.msm_dense_ms),
            msm_sparse_ms: avg(|r| r.msm_sparse_ms),
            commit_witness_ms: avg(|r| r.commit_witness_ms),
            construct_nd_ms: avg(|r| r.construct_nd_ms),
            frac_prod_ms: avg(|r| r.frac_prod_ms),
            commit_wiring_ms: avg(|r| r.commit_wiring_ms),
            gate_ms: avg(|r| r.gate_ms),
            perm_ms: avg(|r| r.perm_ms),
            batch_eval_ms: avg(|r| r.batch_eval_ms),
            combine_ms: avg(|r| r.combine_ms),
            open_sumcheck_ms: avg(|r| r.open_sumcheck_ms),
            open_ms: avg(|r| r.open_ms),
            transcript_ms: avg(|r| r.transcript_ms),
        }
    }
}

/// Replays the prover's layer calls on `pk`/`witness`. Challenges come
/// from a seeded generator instead of the prover's transcript: the work
/// per call depends only on the shapes, not on the challenge values.
pub fn replay(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
    transcript_hashes: u64,
    seed: u64,
) -> Replay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Replay::default();
    let mu = pk.circuit.num_vars();
    let tables = pk.commit_tables.clone();
    let basis = pk.srs.lagrange_basis(pk.srs.num_vars() - mu);

    // Witness commits: three concurrent serial sparse MSMs.
    let (srs, cols, t) = (pk.srs.clone(), witness.columns.clone(), tables.clone());
    r.commit_witness_ms = ms(|| {
        pool::map_indices_on(&**backend, 3, move |j| {
            commit_sparse_with_tables_on(&Serial, &srs, &cols[j], msm, t.as_deref()).0
        })
    })
    .1;
    r.msm_sparse_ms = witness
        .columns
        .iter()
        .map(|c| ms(|| sparse_msm_with_config_on(&Serial, basis, c.evaluations(), msm)).1)
        .sum::<f64>()
        / 3.0;

    // Wiring identity: N & D, FracMLE/ProdMLE, φ/π commits, PermCheck.
    let beta = Fr::random(&mut rng);
    let gamma = Fr::random(&mut rng);
    let ids = pk.circuit.identity_mles();
    let sigmas = pk.circuit.sigma_mles();
    let ((numerators, denominators, n_mle, d_mle), t_nd) = ms(|| {
        let nd = |perm: &[MultilinearPoly; 3]| -> Vec<MultilinearPoly> {
            (0..3)
                .map(|j| {
                    MultilinearPoly::from_fn(mu, |i| {
                        witness.columns[j][i] + beta * perm[j][i] + gamma
                    })
                })
                .collect()
        };
        let num = nd(&ids);
        let den = nd(&sigmas);
        let n_mle = num[0].hadamard(&num[1]).hadamard(&num[2]);
        let d_mle = den[0].hadamard(&den[1]).hadamard(&den[2]);
        (num, den, n_mle, d_mle)
    });
    r.construct_nd_ms = t_nd;
    let ((phi, pi), t_frac) = ms(|| {
        let phi = fraction_mle(&n_mle, &d_mle);
        let pi = product_mle(&phi);
        (phi, pi)
    });
    r.frac_prod_ms = t_frac;
    let (srs, polys, t, inner) = (
        pk.srs.clone(),
        [phi.clone(), pi.clone()],
        tables.clone(),
        Arc::clone(backend),
    );
    r.commit_wiring_ms = ms(|| {
        pool::map_indices_on(&**backend, 2, move |j| {
            commit_with_tables_on(&*inner, &srs, &polys[j], msm, t.as_deref()).0
        })
    })
    .1;
    r.msm_dense_ms = ms(|| msm_with_config_on(&**backend, basis, phi.evaluations(), msm)).1;

    // Gate identity ZeroCheck.
    let mut transcript = Transcript::new(b"zkbench-replay");
    let sel = pk.circuit.selectors();
    let w = &witness.columns;
    let (gate_point, t_gate) = ms(|| {
        let mut f = VirtualPolynomial::new(mu);
        let idx: Vec<usize> = sel
            .iter()
            .chain(w.iter())
            .map(|m| f.add_mle(m.clone()))
            .collect();
        f.add_term(Fr::one(), vec![idx[0], idx[5]]);
        f.add_term(Fr::one(), vec![idx[1], idx[6]]);
        f.add_term(Fr::one(), vec![idx[2], idx[5], idx[6]]);
        f.add_term(-Fr::one(), vec![idx[3], idx[7]]);
        f.add_term(Fr::one(), vec![idx[4]]);
        prove_zerocheck_on(&f, &mut transcript, &**backend)
            .sumcheck
            .point
    });
    r.gate_ms = t_gate;
    let alpha = Fr::random(&mut rng);
    let (perm_point, t_perm) = ms(|| {
        let (p1, p2) = split_even_odd(&phi, &pi);
        let mut f = VirtualPolynomial::new(mu);
        let pi_i = f.add_mle(pi.clone());
        let p1_i = f.add_mle(p1);
        let p2_i = f.add_mle(p2);
        let phi_i = f.add_mle(phi.clone());
        let d: Vec<usize> = denominators.iter().map(|m| f.add_mle(m.clone())).collect();
        let n: Vec<usize> = numerators.iter().map(|m| f.add_mle(m.clone())).collect();
        f.add_term(Fr::one(), vec![pi_i]);
        f.add_term(-Fr::one(), vec![p1_i, p2_i]);
        f.add_term(alpha, vec![phi_i, d[0], d[1], d[2]]);
        f.add_term(-alpha, vec![n[0], n[1], n[2]]);
        prove_zerocheck_on(&f, &mut transcript, &**backend)
            .sumcheck
            .point
    });
    r.perm_ms = t_perm;

    // Batch evaluations: the 21 queried (polynomial, point) pairs.
    let groups = query_groups(&gate_point, &perm_point);
    let resolve = |label: PolyLabel| -> MultilinearPoly {
        match label {
            PolyLabel::QL => sel[0].clone(),
            PolyLabel::QR => sel[1].clone(),
            PolyLabel::QM => sel[2].clone(),
            PolyLabel::QO => sel[3].clone(),
            PolyLabel::QC => sel[4].clone(),
            PolyLabel::W1 => w[0].clone(),
            PolyLabel::W2 => w[1].clone(),
            PolyLabel::W3 => w[2].clone(),
            PolyLabel::Sigma1 => sigmas[0].clone(),
            PolyLabel::Sigma2 => sigmas[1].clone(),
            PolyLabel::Sigma3 => sigmas[2].clone(),
            PolyLabel::Phi => phi.clone(),
            PolyLabel::Pi => pi.clone(),
        }
    };
    let queries: Vec<(MultilinearPoly, Vec<Fr>)> = groups
        .iter()
        .flat_map(|g| g.labels.iter().map(|l| (resolve(*l), g.point.clone())))
        .collect();
    r.batch_eval_ms = ms(|| {
        pool::map_indices_on(&**backend, queries.len(), move |i| {
            queries[i].0.evaluate(&queries[i].1)
        })
    })
    .1;

    // Polynomial opening: MLE combine, OpenCheck, g′ and the halving MSMs.
    let coeffs: Vec<Vec<Fr>> = groups
        .iter()
        .map(|g| (0..g.labels.len()).map(|_| Fr::random(&mut rng)).collect())
        .collect();
    let inputs: Vec<(Vec<Fr>, Vec<MultilinearPoly>)> = groups
        .iter()
        .zip(coeffs)
        .map(|(g, c)| (c, g.labels.iter().map(|l| resolve(*l)).collect()))
        .collect();
    let ((combined, f_open), t_combine) = ms(|| {
        let combined = pool::map_indices_on(&**backend, inputs.len(), move |i| {
            let (c, polys) = &inputs[i];
            MultilinearPoly::linear_combination(c, &polys.iter().collect::<Vec<_>>())
        });
        let mut f = VirtualPolynomial::new(mu);
        for (g, y) in groups.iter().zip(&combined) {
            let y_i = f.add_mle(y.clone());
            let k_i = f.add_mle(MultilinearPoly::eq_mle_on(&g.point, &**backend));
            f.add_term(Fr::one(), vec![y_i, k_i]);
        }
        (combined, f)
    });
    let (rho, t_open_sc) = ms(|| sumcheck_prove_on(&f_open, &mut transcript, &**backend).point);
    r.open_sumcheck_ms = t_open_sc;
    let d: Vec<Fr> = (0..combined.len()).map(|_| Fr::random(&mut rng)).collect();
    let (gprime, t_gprime) = ms(|| {
        let polys = combined.clone();
        let point = rho.clone();
        black_box(pool::map_indices_on(&**backend, polys.len(), move |i| {
            polys[i].evaluate(&point)
        }));
        MultilinearPoly::linear_combination(&d, &combined.iter().collect::<Vec<_>>())
    });
    r.combine_ms = t_combine + t_gprime;
    r.open_ms =
        ms(|| open_with_tables_on(&**backend, &pk.srs, &gprime, &rho, msm, tables.as_deref())).1;

    // Transcript: as many hash invocations as the prover made.
    r.transcript_ms = ms(|| {
        let mut t = Transcript::new(b"zkbench-transcript");
        while t.hash_invocations() < transcript_hashes {
            t.append_message(b"commitment", &[7u8; 96]);
            black_box(t.challenge_scalar(b"challenge"));
        }
    })
    .1;
    r
}

/// A traced prove next to an untraced one on the same inputs.
pub struct TracedProve {
    pub report: ProverReport,
    pub untraced_ms: f64,
    pub traced_ms: f64,
    /// Self-time rows of the traced prove, `parent/name` → ms.
    pub rows: Vec<(String, f64)>,
}

/// Proves once untraced and once with an enabled [`TraceSink`] passed to
/// the prover's existing spans, and reduces the trace to self time.
pub fn traced_prove(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> TracedProve {
    let ((_, report), untraced_ms) = ms(|| prove_unchecked_msm_on(pk, witness, backend, msm));
    let sink = TraceSink::enabled();
    let (_, traced_ms) = ms(|| prove_unchecked_traced_on(pk, witness, backend, msm, &sink, 1));
    let spans: Vec<SpanRec> = selftime::spans_of(&sink);
    TracedProve {
        report,
        untraced_ms,
        traced_ms,
        rows: selftime::self_time_ms(&spans),
    }
}

/// Milliseconds of one untraced prove on `backend`.
pub fn prove_ms_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> f64 {
    ms(|| prove_unchecked_msm_on(pk, witness, backend, msm)).1
}

impl Replay {
    /// Each prove-path layer: its metric name, replayed time, and the
    /// prover span rows (`parent/name`) that cover the same work.
    pub fn prove_path(&self) -> [(&'static str, f64, &'static [&'static str]); 11] {
        [
            (
                "pcs.commit_witness_ms",
                self.commit_witness_ms,
                &["witness-commit/msm-witness"],
            ),
            (
                "poly.construct_nd_ms",
                self.construct_nd_ms,
                &["wire-identity/construct-nd"],
            ),
            (
                "poly.frac_prod_ms",
                self.frac_prod_ms,
                &["wire-identity/frac-prod-mle"],
            ),
            (
                "pcs.commit_wiring_ms",
                self.commit_wiring_ms,
                &["wire-identity/msm-wiring"],
            ),
            (
                "sumcheck.gate_ms",
                self.gate_ms,
                &["gate-identity/gate-round", "gate-identity/build-mle"],
            ),
            (
                "sumcheck.perm_ms",
                self.perm_ms,
                &["wire-identity/perm-round", "wire-identity/build-mle"],
            ),
            (
                "poly.batch_eval_ms",
                self.batch_eval_ms,
                &["batch-evaluation"],
            ),
            ("poly.combine_ms", self.combine_ms, &["polynomial-opening"]),
            (
                "sumcheck.open_ms",
                self.open_sumcheck_ms,
                &["polynomial-opening/open-round"],
            ),
            (
                "pcs.open_ms",
                self.open_ms,
                &["polynomial-opening/msm-opening"],
            ),
            ("transcript.ms", self.transcript_ms, &[]),
        ]
    }

    /// The replayed prove-path layers, summed.
    pub fn prove_path_ms(&self) -> f64 {
        self.prove_path().iter().map(|(_, ms, _)| ms).sum()
    }
}

/// Prints the replayed layer times next to the prover's own span self
/// times, plus the full self-time table, to stderr.
pub fn print_side_by_side(label: &str, replay: &Replay, rows: &[(String, f64)], prove_ms: f64) {
    eprintln!("-- {label}: replayed layer vs prover span self time (ms) --");
    eprintln!("{:<24} {:>10} {:>10}  spans", "layer", "replay", "span");
    for (name, ms, keys) in replay.prove_path() {
        eprintln!(
            "{:<24} {:>10.2} {:>10.2}  {}",
            name,
            ms,
            if keys.is_empty() {
                f64::NAN
            } else {
                selftime::sum_rows(rows, keys)
            },
            keys.join(" + ")
        );
    }
    eprintln!(
        "{:<24} {:>10.2} {:>10.2}  (replayed path / median untraced prove)",
        "total",
        replay.prove_path_ms(),
        prove_ms
    );
    eprintln!("-- {label}: prover span self time (ms) --");
    for (key, v) in rows {
        eprintln!("{key:<40} {v:>10.2}");
    }
}

/// Everything the per-layer table of one workload is computed from.
pub struct ProveLayers {
    /// Replayed layer times, averaged over the workload's circuits.
    pub replay: Replay,
    /// One traced and one untraced prove per circuit.
    pub traced: Vec<TracedProve>,
    /// Mean over the circuits of the median untraced prove, in ms: the
    /// base of the replay coverage and the parallel efficiency.
    pub prove_ms: f64,
    /// Mean seconds of a single-threaded prove over the circuits.
    pub serial_s: f64,
    pub srs_setup_s: f64,
    pub preprocess_s: f64,
    /// One proof per circuit, for the codec timings.
    pub proofs: Vec<zkspeed::hyperplonk::Proof>,
    pub seed: u64,
}

/// Median microseconds of `f` over `reps` calls.
fn us_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..reps).map(|_| ms(&mut f).1 * 1e3).collect();
    median(&runs)
}

pub fn emit_prove_layers(report: &mut crate::Report, l: &ProveLayers) {
    let (fr_ns, fq_ns) = field_ns(crate::sub_seed(l.seed, 20));
    let n = l.traced.len() as f64;
    let mean = |f: &dyn Fn(&TracedProve) -> f64| l.traced.iter().map(f).sum::<f64>() / n;
    let untraced_ms = mean(&|t| t.untraced_ms);
    let r = &l.replay;
    let (dense, total) = l.traced.iter().fold((0usize, 0usize), |(d, t), tp| {
        let w = &tp.report.witness_msm;
        (d + w.dense, t + w.zeros + w.ones + w.dense)
    });
    let encoded: Vec<Vec<u8>> = l.proofs.iter().map(|p| p.to_bytes()).collect();
    let encode_us = median(
        &l.proofs
            .iter()
            .map(|p| us_median(50, || p.to_bytes()))
            .collect::<Vec<_>>(),
    );
    let decode_us = median(
        &encoded
            .iter()
            .map(|b| us_median(50, || zkspeed::hyperplonk::Proof::from_bytes(b)))
            .collect::<Vec<_>>(),
    );
    let threads = zkspeed::rt::par::current_threads() as f64;
    let c = l.traced.len();

    report.metric("field.fr_mul_ns", fr_ns, "ns", 3);
    report.metric("field.fq_mul_ns", fq_ns, "ns", 3);
    report.metric("curve.msm_dense_ms", r.msm_dense_ms, "ms", c);
    report.metric("curve.msm_sparse_ms", r.msm_sparse_ms, "ms", 3 * c);
    report.metric(
        "curve.msm_fq_muls",
        mean(&|t| {
            (t.report.witness_msm.ops.fq_muls()
                + t.report.wiring_msm.fq_muls()
                + t.report.opening_msm.fq_muls()) as f64
        }),
        "count",
        c,
    );
    report.metric(
        "curve.witness_dense_share",
        dense as f64 / total.max(1) as f64,
        "share",
        c,
    );
    report.metric("pcs.srs_setup_s", l.srs_setup_s, "s", 1);
    report.metric("pcs.commit_witness_ms", r.commit_witness_ms, "ms", c);
    report.metric("pcs.commit_wiring_ms", r.commit_wiring_ms, "ms", c);
    report.metric("pcs.open_ms", r.open_ms, "ms", c);
    report.metric(
        "pcs.witness_commit_share",
        mean(&|t| t.report.step_seconds[0] / t.report.total_seconds()),
        "share",
        c,
    );
    report.metric("poly.construct_nd_ms", r.construct_nd_ms, "ms", c);
    report.metric("poly.frac_prod_ms", r.frac_prod_ms, "ms", c);
    report.metric("poly.batch_eval_ms", r.batch_eval_ms, "ms", c);
    report.metric("poly.combine_ms", r.combine_ms, "ms", c);
    report.metric("sumcheck.gate_ms", r.gate_ms, "ms", c);
    report.metric("sumcheck.perm_ms", r.perm_ms, "ms", c);
    report.metric("sumcheck.open_ms", r.open_sumcheck_ms, "ms", c);
    report.metric(
        "transcript.hashes",
        mean(&|t| t.report.transcript_hashes as f64),
        "count",
        c,
    );
    report.metric("transcript.ms", r.transcript_ms, "ms", c);
    report.metric("hyperplonk.preprocess_s", l.preprocess_s, "s", 1);
    report.metric("hyperplonk.encode_us", encode_us, "us", 50 * c);
    report.metric("hyperplonk.decode_us", decode_us, "us", 50 * c);
    report.metric(
        "rt.parallel_efficiency",
        l.serial_s / (threads * l.prove_ms / 1e3),
        "ratio",
        c,
    );
    report.metric(
        "trace.overhead_share",
        mean(&|t| t.traced_ms) / untraced_ms - 1.0,
        "share",
        c,
    );
    report.metric(
        "trace.replay_coverage",
        r.prove_path_ms() / l.prove_ms,
        "share",
        c,
    );
}
