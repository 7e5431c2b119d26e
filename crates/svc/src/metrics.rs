//! Service observability: counters, queue gauges, wave occupancy,
//! per-session latency histograms, per-phase prove-time histograms and
//! MSM-statistics rollups, snapshotted into a [`ServiceMetrics`] document
//! that renders via [`ToJson`].
//!
//! The live side ([`MetricsRecorder`]) is cheap on the serving path —
//! atomics for counters, one short-held mutex for latency histograms and
//! MSM rollups. Quantiles are computed at snapshot time, not on the hot
//! path.
//!
//! Latency is tracked in log-bucketed [`Histogram`]s rather than bounded
//! sample windows: histograms never drop samples, their counts and means
//! are exact, quantiles carry a bounded (≤ 6.3%) relative error, and —
//! crucial for the shard rebalancer — merging two sessions' histograms is
//! bucket-wise addition, so a shard's merged p99 is computed over *every*
//! completion, not whatever subset survived a sliding window.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::store::{SessionInfo, SessionState};
use crate::sync::lock;

use zkspeed_curve::MsmStats;
use zkspeed_hyperplonk::ProverReport;
use zkspeed_rt::trace::Histogram;
use zkspeed_rt::{JsonValue, ToJson};

/// Per-phase prove-time histograms (milliseconds), one per protocol step
/// plus the whole-proof total. Filled from each completion's
/// [`ProverReport`] step timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseHistograms {
    /// Step 1: sparse-MSM witness commits.
    pub witness_commit: Histogram,
    /// Step 2: Gate Identity ZeroCheck.
    pub gate_identity: Histogram,
    /// Step 3: Wire Identity (N&D, Frac/Prod MLEs, φ/π commits, PermCheck).
    pub wire_identity: Histogram,
    /// Step 4: the batched polynomial evaluations.
    pub batch_evaluation: Histogram,
    /// Step 5: polynomial opening (MLE Combine, OpenCheck, halving MSMs).
    pub polynomial_opening: Histogram,
    /// Whole-proof wall time (sum of the five steps).
    pub prove_total: Histogram,
}

impl PhaseHistograms {
    fn record_report(&mut self, report: &ProverReport) {
        let ms = |s: f64| s * 1e3;
        self.witness_commit.record(ms(report.step_seconds[0]));
        self.gate_identity.record(ms(report.step_seconds[1]));
        self.wire_identity.record(ms(report.step_seconds[2]));
        self.batch_evaluation.record(ms(report.step_seconds[3]));
        self.polynomial_opening.record(ms(report.step_seconds[4]));
        self.prove_total.record(ms(report.total_seconds()));
    }

    /// The phases as `(name, histogram)` pairs, in protocol order.
    pub fn named(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("witness_commit", &self.witness_commit),
            ("gate_identity", &self.gate_identity),
            ("wire_identity", &self.wire_identity),
            ("batch_evaluation", &self.batch_evaluation),
            ("polynomial_opening", &self.polynomial_opening),
            ("prove_total", &self.prove_total),
        ]
    }
}

/// Rolled-up MSM operation counts across every proof the service produced.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmRollup {
    /// Sparse witness-commit scalars that were zero (skipped).
    pub witness_zeros: u64,
    /// Sparse witness-commit scalars that were one (tree-added).
    pub witness_ones: u64,
    /// Sparse witness-commit scalars that were dense (Pippenger).
    pub witness_dense: u64,
    /// Witness-commit MSM operation counts.
    pub witness: MsmStats,
    /// Wiring-identity (φ/π commit) MSM operation counts.
    pub wiring: MsmStats,
    /// Polynomial-opening MSM operation counts.
    pub opening: MsmStats,
}

impl MsmRollup {
    fn merge_report(&mut self, report: &ProverReport) {
        self.witness_zeros += report.witness_msm.zeros as u64;
        self.witness_ones += report.witness_msm.ones as u64;
        self.witness_dense += report.witness_msm.dense as u64;
        self.witness.merge(&report.witness_msm.ops);
        self.wiring.merge(&report.wiring_msm);
        self.opening.merge(&report.opening_msm);
    }

    /// Total Fq multiplications across all rolled-up MSMs.
    pub fn fq_muls(&self) -> u64 {
        self.witness.fq_muls() + self.wiring.fq_muls() + self.opening.fq_muls()
    }
}

/// Worker-supervision counters: how often shard workers panicked or died,
/// and how much of the restart budget the service has consumed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionMetrics {
    /// Shard workers currently alive (equals `workers_configured` on a
    /// healthy service; lower when a shard exhausted its restart budget).
    pub workers_alive: usize,
    /// Shard workers the service was configured with (one per shard).
    pub workers_configured: usize,
    /// Proving waves that panicked; their jobs were failed individually and
    /// the worker kept serving.
    pub wave_panics: u64,
    /// Shard worker threads that died and were respawned by the
    /// supervisor.
    pub worker_restarts: u64,
    /// Respawns each shard is allowed over the service lifetime; once
    /// exhausted the shard goes dark and its backlog is failed.
    pub restart_budget_per_shard: u32,
}

/// Transport-level connection counters, filled in by a socket transport
/// (`zkspeed-net`) through the [`crate::ProvingService`] recording hooks.
/// All zeros for an in-process service that never saw a socket.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ConnectionMetrics {
    /// Connections currently open.
    pub open: u64,
    /// Connections accepted over the service lifetime.
    pub total: u64,
    /// Connections closed after a failed auth handshake.
    pub rejected_bad_auth: u64,
    /// Connections turned away at the connection cap (the backpressure
    /// tier above the job queue).
    pub rejected_over_capacity: u64,
    /// Connections closed by the per-connection idle timeout.
    pub idle_timeouts: u64,
}

/// Session-lifecycle counters from the service's session store:
/// how many sessions are provisioned vs evicted, and how often the LRU
/// budget forced an eviction or a resubmitted circuit re-provisioned one.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionLifecycleMetrics {
    /// Sessions currently provisioned (proving key resident).
    pub active: usize,
    /// Sessions evicted but remembered (verifying key + digest retained).
    pub evicted: usize,
    /// Configured active-session capacity (0 = unlimited).
    pub capacity: usize,
    /// Sessions evicted by the LRU capacity/byte budget (lifetime).
    pub evictions: u64,
    /// Evicted sessions transparently re-provisioned by a resubmitted
    /// `SubmitCircuit` (lifetime).
    pub reprovisions: u64,
    /// Job submissions rejected because their session was evicted.
    pub rejected_evicted: u64,
}

/// Proof-cache counters and gauges (all zero while the cache is disabled).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofCacheMetrics {
    /// Submissions answered from the cache without queueing.
    pub hits: u64,
    /// Cache lookups that missed (the job proceeded to the queue).
    pub misses: u64,
    /// Proofs inserted after a completed wave.
    pub insertions: u64,
    /// Entries LRU-evicted under the byte bound.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Proof bytes resident right now.
    pub bytes: u64,
    /// Configured byte bound (0 = disabled).
    pub capacity_bytes: u64,
}

/// Shard-rebalancing counters: how often the p99-driven pass ran and how
/// many sessions it moved off an overloaded shard.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceMetrics {
    /// Rebalance passes executed (periodic or explicit).
    pub passes: u64,
    /// Sessions reassigned to a less-loaded shard.
    pub moves: u64,
}

/// Point-in-time gauges the service hands to [`MetricsRecorder::snapshot`]
/// alongside the recorder's own counters.
#[derive(Clone, Debug, Default)]
pub(crate) struct SnapshotGauges {
    pub(crate) queue_depths: [usize; 3],
    pub(crate) peak_queue_depth: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) sessions_registered: usize,
    pub(crate) workers_alive: usize,
    pub(crate) workers_configured: usize,
    pub(crate) restart_budget_per_shard: u32,
    pub(crate) lifecycle: SessionLifecycleMetrics,
    pub(crate) proof_cache: ProofCacheMetrics,
    /// Lifecycle rows from the session store, merged into the per-session
    /// metrics by digest.
    pub(crate) store_sessions: Vec<SessionInfo>,
    /// Queue-wait histograms per priority class (high, normal, low),
    /// merged across shards by the service at snapshot time.
    pub(crate) queue_waits: [Histogram; 3],
}

/// The live recorder owned by the service.
pub(crate) struct MetricsRecorder {
    started: Instant,
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) rejected_draining: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) failed_deadline: AtomicU64,
    pub(crate) wave_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) conn_opened: AtomicU64,
    pub(crate) conn_closed: AtomicU64,
    pub(crate) conn_bad_auth: AtomicU64,
    pub(crate) conn_over_capacity: AtomicU64,
    pub(crate) conn_idle_timeouts: AtomicU64,
    pub(crate) rebalance_passes: AtomicU64,
    pub(crate) rebalance_moves: AtomicU64,
    waves: AtomicU64,
    wave_jobs: AtomicU64,
    max_wave: AtomicU64,
    rollup: Mutex<MsmRollup>,
    /// Per-session submit→proof latency histograms. Never cleared, so an
    /// evicted session keeps its historical row; bounded in memory by the
    /// histogram's logarithmic bucket count, not by dropping samples.
    latencies: Mutex<HashMap<[u8; 32], Histogram>>,
    /// Per-phase prove-time histograms across every completion.
    phases: Mutex<PhaseHistograms>,
    /// Per-session precompute accounting recorded at registration:
    /// `(table_bytes, build_ms)`. Zero bytes means the session registered
    /// without precomputed commit tables.
    precompute: Mutex<HashMap<[u8; 32], (u64, f64)>>,
}

impl MetricsRecorder {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            failed_deadline: AtomicU64::new(0),
            wave_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            conn_opened: AtomicU64::new(0),
            conn_closed: AtomicU64::new(0),
            conn_bad_auth: AtomicU64::new(0),
            conn_over_capacity: AtomicU64::new(0),
            conn_idle_timeouts: AtomicU64::new(0),
            rebalance_passes: AtomicU64::new(0),
            rebalance_moves: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            wave_jobs: AtomicU64::new(0),
            max_wave: AtomicU64::new(0),
            rollup: Mutex::new(MsmRollup::default()),
            latencies: Mutex::new(HashMap::new()),
            phases: Mutex::new(PhaseHistograms::default()),
            precompute: Mutex::new(HashMap::new()),
        }
    }

    /// Records a session registration's precompute accounting: the bytes of
    /// commit tables built for it (0 when precomputation is disabled or the
    /// budget built nothing) and the registration preprocess wall time that
    /// included the one-time build.
    pub(crate) fn record_precompute(&self, session: [u8; 32], table_bytes: u64, build_ms: f64) {
        lock(&self.precompute).insert(session, (table_bytes, build_ms));
    }

    pub(crate) fn record_wave(&self, jobs: usize) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.wave_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
        self.max_wave.fetch_max(jobs as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_completion(
        &self,
        session: [u8; 32],
        latency_ms: f64,
        report: &ProverReport,
    ) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        lock(&self.rollup).merge_report(report);
        lock(&self.phases).record_report(report);
        lock(&self.latencies)
            .entry(session)
            .or_default()
            .record(latency_ms);
    }

    /// Per-session completion totals (for the wire session listing).
    pub(crate) fn completions_by_session(&self) -> HashMap<[u8; 32], u64> {
        lock(&self.latencies)
            .iter()
            .map(|(digest, hist)| (*digest, hist.count()))
            .collect()
    }

    /// A copy of every session's latency histogram (for the p99-driven
    /// rebalancer). Histograms merge losslessly, so a shard's p99 over its
    /// sessions' merged histograms covers every completion ever recorded —
    /// not a bounded sample window.
    pub(crate) fn latency_histograms(&self) -> HashMap<[u8; 32], Histogram> {
        lock(&self.latencies)
            .iter()
            .map(|(digest, hist)| (*digest, hist.clone()))
            .collect()
    }

    pub(crate) fn snapshot(&self, gauges: SnapshotGauges) -> ServiceMetrics {
        let waves = self.waves.load(Ordering::Relaxed);
        let wave_jobs = self.wave_jobs.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime = self.started.elapsed().as_secs_f64();
        let sessions = {
            // Union-merge across three sources: a session appears once it
            // has completed a job (latency histogram), been registered
            // (precompute accounting) or is known to the session store —
            // and it keeps its historical latency/table-bytes row after
            // eviction, because neither recorder map is ever cleared.
            let latencies = lock(&self.latencies);
            let precompute = lock(&self.precompute);
            let store: HashMap<[u8; 32], &SessionInfo> = gauges
                .store_sessions
                .iter()
                .map(|info| (info.digest, info))
                .collect();
            let mut digests: Vec<[u8; 32]> = latencies
                .keys()
                .chain(precompute.keys())
                .copied()
                .chain(store.keys().copied())
                .collect();
            digests.sort_unstable();
            digests.dedup();
            digests
                .into_iter()
                .map(|digest| {
                    let (precompute_table_bytes, precompute_build_ms) =
                        precompute.get(&digest).copied().unwrap_or((0, 0.0));
                    let latency = latencies.get(&digest).cloned().unwrap_or_default();
                    let info = store.get(&digest);
                    SessionMetrics {
                        digest,
                        num_vars: info.map_or(0, |i| i.num_vars),
                        state: info.map(|i| i.state),
                        shard: info.map(|i| i.shard),
                        resident_bytes: info.map_or(0, |i| i.resident_bytes),
                        jobs_completed: latency.count(),
                        p50_ms: latency.quantile(0.50),
                        p99_ms: latency.quantile(0.99),
                        max_ms: latency.max_ms(),
                        latency,
                        precompute_table_bytes,
                        precompute_build_ms,
                    }
                })
                .collect()
        };
        let SnapshotGauges {
            queue_depths,
            peak_queue_depth,
            queue_capacity,
            sessions_registered,
            workers_alive,
            workers_configured,
            restart_budget_per_shard,
            lifecycle,
            proof_cache,
            queue_waits,
            ..
        } = gauges;
        let conn_opened = self.conn_opened.load(Ordering::Relaxed);
        let conn_closed = self.conn_closed.load(Ordering::Relaxed);
        ServiceMetrics {
            uptime_seconds: uptime,
            sessions_registered,
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            failed_deadline: self.failed_deadline.load(Ordering::Relaxed),
            supervision: SupervisionMetrics {
                workers_alive,
                workers_configured,
                wave_panics: self.wave_panics.load(Ordering::Relaxed),
                worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
                restart_budget_per_shard,
            },
            connections: ConnectionMetrics {
                open: conn_opened.saturating_sub(conn_closed),
                total: conn_opened,
                rejected_bad_auth: self.conn_bad_auth.load(Ordering::Relaxed),
                rejected_over_capacity: self.conn_over_capacity.load(Ordering::Relaxed),
                idle_timeouts: self.conn_idle_timeouts.load(Ordering::Relaxed),
            },
            lifecycle,
            proof_cache,
            rebalance: RebalanceMetrics {
                passes: self.rebalance_passes.load(Ordering::Relaxed),
                moves: self.rebalance_moves.load(Ordering::Relaxed),
            },
            queue_depths,
            peak_queue_depth,
            queue_capacity,
            queue_waits,
            phases: lock(&self.phases).clone(),
            waves,
            mean_wave_occupancy: if waves == 0 {
                0.0
            } else {
                wave_jobs as f64 / waves as f64
            },
            max_wave_occupancy: self.max_wave.load(Ordering::Relaxed) as usize,
            proofs_per_second: if uptime > 0.0 {
                completed as f64 / uptime
            } else {
                0.0
            },
            msm: *lock(&self.rollup),
            sessions,
        }
    }
}

/// Latency summary of one session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionMetrics {
    /// The session's circuit digest.
    pub digest: [u8; 32],
    /// The session circuit's `μ` (0 when the session store did not
    /// contribute a row, e.g. in recorder-only unit tests).
    pub num_vars: usize,
    /// Lifecycle state from the session store; `None` when unknown.
    pub state: Option<SessionState>,
    /// The session's shard assignment; `None` when unknown.
    pub shard: Option<usize>,
    /// Estimated resident proving-key bytes (0 once evicted).
    pub resident_bytes: u64,
    /// Proofs completed for this session (lifetime; equals the latency
    /// histogram's exact count).
    pub jobs_completed: u64,
    /// Median submit→proof latency (ms) from the histogram (≤ 6.3% high).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms) from the histogram (≤ 6.3% high).
    pub p99_ms: f64,
    /// Exact worst latency ever recorded (ms).
    pub max_ms: f64,
    /// The full submit→proof latency histogram (every completion, never
    /// sampled or windowed).
    pub latency: Histogram,
    /// Bytes of precomputed commit tables built for this session at
    /// registration (0 when precomputation was disabled or the budget built
    /// nothing).
    pub precompute_table_bytes: u64,
    /// Wall-clock time of the registration preprocess that included the
    /// one-time table build (ms); 0 when no tables were built.
    pub precompute_build_ms: f64,
}

/// A point-in-time service metrics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceMetrics {
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Number of registered sessions (circuits).
    pub sessions_registered: usize,
    /// Jobs accepted into the queue (lifetime).
    pub submitted: u64,
    /// Jobs bounced by backpressure (queue at capacity).
    pub rejected_queue_full: u64,
    /// Submissions rejected for structural reasons (unknown circuit, shape
    /// mismatch, malformed bytes).
    pub rejected_invalid: u64,
    /// Submissions turned away because the service was draining for
    /// shutdown.
    pub rejected_draining: u64,
    /// Proofs produced.
    pub completed: u64,
    /// Jobs whose witness failed the circuit at proving time — including
    /// jobs failed by an injected or real wave panic, a dead worker, or an
    /// expired deadline.
    pub failed: u64,
    /// The subset of `failed` that expired queue-side: their deadline
    /// passed before a worker ever proved them.
    pub failed_deadline: u64,
    /// Worker-supervision counters (panicked waves, respawns, liveness).
    pub supervision: SupervisionMetrics,
    /// Transport connection counters (all zero without a socket transport).
    pub connections: ConnectionMetrics,
    /// Session-lifecycle counters (active/evicted sessions, LRU activity).
    pub lifecycle: SessionLifecycleMetrics,
    /// Proof-cache counters and gauges (all zero while disabled).
    pub proof_cache: ProofCacheMetrics,
    /// Shard-rebalancing counters.
    pub rebalance: RebalanceMetrics,
    /// Current queue depth per priority class (high, normal, low), summed
    /// over shards.
    pub queue_depths: [usize; 3],
    /// The deepest any single shard queue has ever been (shard peaks are
    /// reached at different times, so summing them would report a backlog
    /// the service never actually had).
    pub peak_queue_depth: usize,
    /// Total queue capacity across shards.
    pub queue_capacity: usize,
    /// Queue-wait histograms per priority class (high, normal, low),
    /// merged across shards: how long jobs of each class sat queued before
    /// their wave was assembled.
    pub queue_waits: [Histogram; 3],
    /// Per-phase prove-time histograms across every completed proof.
    pub phases: PhaseHistograms,
    /// `prove_batch` waves executed.
    pub waves: u64,
    /// Mean jobs per wave (the batching win over one-job-at-a-time).
    pub mean_wave_occupancy: f64,
    /// Largest wave executed.
    pub max_wave_occupancy: usize,
    /// Completed proofs divided by uptime.
    pub proofs_per_second: f64,
    /// MSM operation rollups across every proof.
    pub msm: MsmRollup,
    /// Per-session latency summaries, ordered by digest.
    pub sessions: Vec<SessionMetrics>,
}

fn msm_stats_json(stats: &MsmStats) -> JsonValue {
    JsonValue::Object(vec![
        ("total_adds".into(), JsonValue::UInt(stats.total_adds())),
        ("doublings".into(), JsonValue::UInt(stats.doublings)),
        (
            "batch_inversions".into(),
            JsonValue::UInt(stats.batch_inversions),
        ),
        ("fq_muls".into(), JsonValue::UInt(stats.fq_muls())),
    ])
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl ToJson for ServiceMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "uptime_seconds".into(),
                JsonValue::Float(self.uptime_seconds),
            ),
            (
                "sessions_registered".into(),
                JsonValue::UInt(self.sessions_registered as u64),
            ),
            (
                "jobs".into(),
                JsonValue::Object(vec![
                    ("submitted".into(), JsonValue::UInt(self.submitted)),
                    (
                        "rejected_queue_full".into(),
                        JsonValue::UInt(self.rejected_queue_full),
                    ),
                    (
                        "rejected_invalid".into(),
                        JsonValue::UInt(self.rejected_invalid),
                    ),
                    (
                        "rejected_draining".into(),
                        JsonValue::UInt(self.rejected_draining),
                    ),
                    ("completed".into(), JsonValue::UInt(self.completed)),
                    ("failed".into(), JsonValue::UInt(self.failed)),
                    (
                        "failed_deadline".into(),
                        JsonValue::UInt(self.failed_deadline),
                    ),
                ]),
            ),
            (
                "supervision".into(),
                JsonValue::Object(vec![
                    (
                        "workers_alive".into(),
                        JsonValue::UInt(self.supervision.workers_alive as u64),
                    ),
                    (
                        "workers_configured".into(),
                        JsonValue::UInt(self.supervision.workers_configured as u64),
                    ),
                    (
                        "wave_panics".into(),
                        JsonValue::UInt(self.supervision.wave_panics),
                    ),
                    (
                        "worker_restarts".into(),
                        JsonValue::UInt(self.supervision.worker_restarts),
                    ),
                    (
                        "restart_budget_per_shard".into(),
                        JsonValue::UInt(self.supervision.restart_budget_per_shard as u64),
                    ),
                ]),
            ),
            (
                "connections".into(),
                JsonValue::Object(vec![
                    ("open".into(), JsonValue::UInt(self.connections.open)),
                    ("total".into(), JsonValue::UInt(self.connections.total)),
                    (
                        "rejected_bad_auth".into(),
                        JsonValue::UInt(self.connections.rejected_bad_auth),
                    ),
                    (
                        "rejected_over_capacity".into(),
                        JsonValue::UInt(self.connections.rejected_over_capacity),
                    ),
                    (
                        "idle_timeouts".into(),
                        JsonValue::UInt(self.connections.idle_timeouts),
                    ),
                ]),
            ),
            (
                "session_lifecycle".into(),
                JsonValue::Object(vec![
                    (
                        "active".into(),
                        JsonValue::UInt(self.lifecycle.active as u64),
                    ),
                    (
                        "evicted".into(),
                        JsonValue::UInt(self.lifecycle.evicted as u64),
                    ),
                    (
                        "capacity".into(),
                        JsonValue::UInt(self.lifecycle.capacity as u64),
                    ),
                    (
                        "evictions".into(),
                        JsonValue::UInt(self.lifecycle.evictions),
                    ),
                    (
                        "reprovisions".into(),
                        JsonValue::UInt(self.lifecycle.reprovisions),
                    ),
                    (
                        "rejected_evicted".into(),
                        JsonValue::UInt(self.lifecycle.rejected_evicted),
                    ),
                ]),
            ),
            (
                "proof_cache".into(),
                JsonValue::Object(vec![
                    ("hits".into(), JsonValue::UInt(self.proof_cache.hits)),
                    ("misses".into(), JsonValue::UInt(self.proof_cache.misses)),
                    (
                        "insertions".into(),
                        JsonValue::UInt(self.proof_cache.insertions),
                    ),
                    (
                        "evictions".into(),
                        JsonValue::UInt(self.proof_cache.evictions),
                    ),
                    (
                        "entries".into(),
                        JsonValue::UInt(self.proof_cache.entries as u64),
                    ),
                    ("bytes".into(), JsonValue::UInt(self.proof_cache.bytes)),
                    (
                        "capacity_bytes".into(),
                        JsonValue::UInt(self.proof_cache.capacity_bytes),
                    ),
                ]),
            ),
            (
                "rebalance".into(),
                JsonValue::Object(vec![
                    ("passes".into(), JsonValue::UInt(self.rebalance.passes)),
                    ("moves".into(), JsonValue::UInt(self.rebalance.moves)),
                ]),
            ),
            (
                "queue".into(),
                JsonValue::Object(vec![
                    (
                        "depth_high".into(),
                        JsonValue::UInt(self.queue_depths[0] as u64),
                    ),
                    (
                        "depth_normal".into(),
                        JsonValue::UInt(self.queue_depths[1] as u64),
                    ),
                    (
                        "depth_low".into(),
                        JsonValue::UInt(self.queue_depths[2] as u64),
                    ),
                    (
                        "peak_depth".into(),
                        JsonValue::UInt(self.peak_queue_depth as u64),
                    ),
                    (
                        "capacity".into(),
                        JsonValue::UInt(self.queue_capacity as u64),
                    ),
                    (
                        "wait_ms".into(),
                        JsonValue::Object(vec![
                            ("high".into(), self.queue_waits[0].to_json()),
                            ("normal".into(), self.queue_waits[1].to_json()),
                            ("low".into(), self.queue_waits[2].to_json()),
                        ]),
                    ),
                ]),
            ),
            (
                "phases".into(),
                JsonValue::Object(
                    self.phases
                        .named()
                        .into_iter()
                        .map(|(name, hist)| (name.to_string(), hist.to_json()))
                        .collect(),
                ),
            ),
            (
                "waves".into(),
                JsonValue::Object(vec![
                    ("count".into(), JsonValue::UInt(self.waves)),
                    (
                        "mean_occupancy".into(),
                        JsonValue::Float(self.mean_wave_occupancy),
                    ),
                    (
                        "max_occupancy".into(),
                        JsonValue::UInt(self.max_wave_occupancy as u64),
                    ),
                ]),
            ),
            (
                "proofs_per_second".into(),
                JsonValue::Float(self.proofs_per_second),
            ),
            (
                "msm".into(),
                JsonValue::Object(vec![
                    (
                        "witness_scalars".into(),
                        JsonValue::Object(vec![
                            ("zeros".into(), JsonValue::UInt(self.msm.witness_zeros)),
                            ("ones".into(), JsonValue::UInt(self.msm.witness_ones)),
                            ("dense".into(), JsonValue::UInt(self.msm.witness_dense)),
                        ]),
                    ),
                    ("witness".into(), msm_stats_json(&self.msm.witness)),
                    ("wiring".into(), msm_stats_json(&self.msm.wiring)),
                    ("opening".into(), msm_stats_json(&self.msm.opening)),
                    ("fq_muls_total".into(), JsonValue::UInt(self.msm.fq_muls())),
                ]),
            ),
            (
                "sessions".into(),
                JsonValue::Array(
                    self.sessions
                        .iter()
                        .map(|s| {
                            JsonValue::Object(vec![
                                ("digest".into(), JsonValue::Str(hex(&s.digest[..8]))),
                                ("num_vars".into(), JsonValue::UInt(s.num_vars as u64)),
                                (
                                    "state".into(),
                                    JsonValue::Str(
                                        s.state.map_or("unknown", |st| st.label()).into(),
                                    ),
                                ),
                                ("shard".into(), JsonValue::UInt(s.shard.unwrap_or(0) as u64)),
                                ("resident_bytes".into(), JsonValue::UInt(s.resident_bytes)),
                                ("jobs_completed".into(), JsonValue::UInt(s.jobs_completed)),
                                ("p50_ms".into(), JsonValue::Float(s.p50_ms)),
                                ("p99_ms".into(), JsonValue::Float(s.p99_ms)),
                                ("max_ms".into(), JsonValue::Float(s.max_ms)),
                                ("latency_ms".into(), s.latency.to_json()),
                                (
                                    "precompute_table_bytes".into(),
                                    JsonValue::UInt(s.precompute_table_bytes),
                                ),
                                (
                                    "precompute_build_ms".into(),
                                    JsonValue::Float(s.precompute_build_ms),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(
        queue_depths: [usize; 3],
        peak_queue_depth: usize,
        queue_capacity: usize,
        sessions_registered: usize,
        workers_alive: usize,
        workers_configured: usize,
        restart_budget_per_shard: u32,
    ) -> SnapshotGauges {
        SnapshotGauges {
            queue_depths,
            peak_queue_depth,
            queue_capacity,
            sessions_registered,
            workers_alive,
            workers_configured,
            restart_budget_per_shard,
            ..SnapshotGauges::default()
        }
    }

    #[test]
    fn recorder_rolls_up_and_snapshots() {
        let rec = MetricsRecorder::new();
        rec.submitted.fetch_add(3, Ordering::Relaxed);
        rec.record_wave(2);
        rec.record_wave(1);
        let mut report = ProverReport::default();
        report.witness_msm.zeros = 10;
        report.witness_msm.ones = 5;
        report.wiring_msm.bucket_adds = 7;
        report.step_seconds = [0.010, 0.020, 0.030, 0.001, 0.040];
        rec.record_completion([1u8; 32], 12.0, &report);
        rec.record_completion([1u8; 32], 18.0, &report);
        rec.record_completion([2u8; 32], 40.0, &report);

        let snap = rec.snapshot(gauges([1, 0, 0], 4, 64, 2, 2, 2, 3));
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.waves, 2);
        assert!((snap.mean_wave_occupancy - 1.5).abs() < 1e-9);
        assert_eq!(snap.max_wave_occupancy, 2);
        assert_eq!(snap.msm.witness_zeros, 30);
        assert_eq!(snap.msm.witness_ones, 15);
        assert_eq!(snap.msm.wiring.bucket_adds, 21);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].digest, [1u8; 32]);
        assert_eq!(snap.sessions[0].jobs_completed, 2);
        // Histogram quantiles over-report by at most one sub-bucket
        // (≤ 6.3%) and never exceed the exact maximum.
        let p50 = snap.sessions[0].p50_ms;
        assert!((12.0..=12.0 * 1.07).contains(&p50), "p50 {p50}");
        let p99 = snap.sessions[0].p99_ms;
        assert!((18.0..=18.0 * 1.07).contains(&p99), "p99 {p99}");
        assert_eq!(snap.sessions[0].max_ms, 18.0);
        assert_eq!(snap.sessions[0].latency.count(), 2);

        // The per-phase histograms saw every completion.
        assert_eq!(snap.phases.prove_total.count(), 3);
        assert_eq!(snap.phases.witness_commit.count(), 3);
        let wc = snap.phases.witness_commit.quantile(0.5);
        assert!((10.0..=10.0 * 1.07).contains(&wc), "witness commit {wc}");

        // The JSON document renders with the expected top-level keys.
        let json = snap.to_json().render();
        for key in [
            "uptime_seconds",
            "jobs",
            "queue",
            "wait_ms",
            "phases",
            "prove_total",
            "latency_ms",
            "waves",
            "proofs_per_second",
            "msm",
            "sessions",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn precompute_accounting_is_reported_per_session() {
        let rec = MetricsRecorder::new();
        // Session [1;32] registers with tables and completes a job; session
        // [2;32] registers (no tables) and never proves anything — it must
        // still appear in the snapshot with zeroed latency fields.
        rec.record_precompute([1u8; 32], 4096, 12.5);
        rec.record_precompute([2u8; 32], 0, 0.0);
        rec.record_completion([1u8; 32], 20.0, &ProverReport::default());

        let snap = rec.snapshot(gauges([0, 0, 0], 0, 64, 2, 1, 1, 3));
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].digest, [1u8; 32]);
        assert_eq!(snap.sessions[0].precompute_table_bytes, 4096);
        assert!((snap.sessions[0].precompute_build_ms - 12.5).abs() < 1e-9);
        assert_eq!(snap.sessions[0].jobs_completed, 1);
        assert_eq!(snap.sessions[1].digest, [2u8; 32]);
        assert_eq!(snap.sessions[1].precompute_table_bytes, 0);
        assert_eq!(snap.sessions[1].jobs_completed, 0);
        assert_eq!(snap.sessions[1].p50_ms, 0.0);

        let json = snap.to_json().render();
        assert!(json.contains("precompute_table_bytes"));
        assert!(json.contains("precompute_build_ms"));
    }

    #[test]
    fn evicted_sessions_keep_their_historical_rows() {
        let rec = MetricsRecorder::new();
        rec.record_precompute([1u8; 32], 2048, 3.0);
        rec.record_completion([1u8; 32], 25.0, &ProverReport::default());
        // The store reports the session as evicted: its latency and
        // precompute history must survive in the merged row, alongside the
        // lifecycle state. A store-only session (never proved) also appears.
        let mut g = gauges([0, 0, 0], 0, 64, 2, 1, 1, 3);
        g.store_sessions = vec![
            SessionInfo {
                digest: [1u8; 32],
                num_vars: 6,
                state: SessionState::Evicted,
                shard: 1,
                resident_bytes: 0,
            },
            SessionInfo {
                digest: [5u8; 32],
                num_vars: 4,
                state: SessionState::Active,
                shard: 0,
                resident_bytes: 777,
            },
        ];
        g.lifecycle.evictions = 1;
        let snap = rec.snapshot(g);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].digest, [1u8; 32]);
        assert_eq!(snap.sessions[0].state, Some(SessionState::Evicted));
        assert_eq!(snap.sessions[0].num_vars, 6);
        assert_eq!(snap.sessions[0].jobs_completed, 1);
        assert_eq!(snap.sessions[0].precompute_table_bytes, 2048);
        let p50 = snap.sessions[0].p50_ms;
        assert!((25.0..=25.0 * 1.07).contains(&p50), "p50 {p50}");
        assert_eq!(snap.sessions[1].state, Some(SessionState::Active));
        assert_eq!(snap.sessions[1].resident_bytes, 777);
        assert_eq!(snap.lifecycle.evictions, 1);
        let json = snap.to_json().render();
        for key in ["session_lifecycle", "proof_cache", "rebalance", "evicted"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn latency_histograms_never_drop_samples() {
        // The old sliding window capped each session at 4096 samples; the
        // histogram keeps an exact count (and bounded quantile error) no
        // matter how many completions a long-running session accumulates.
        let rec = MetricsRecorder::new();
        let n = 10_000u64;
        for i in 0..n {
            rec.record_completion([9u8; 32], i as f64, &ProverReport::default());
        }
        let hists = rec.latency_histograms();
        let hist = hists.get(&[9u8; 32]).expect("session recorded");
        assert_eq!(hist.count(), n);
        assert_eq!(hist.max_ms(), (n - 1) as f64);
        let exact_p99 = 9900.0; // nearest-rank over 0..9999
        let p99 = hist.quantile(0.99);
        assert!(
            p99 >= exact_p99 && p99 <= exact_p99 * 1.07,
            "p99 {p99} vs exact {exact_p99}"
        );
        assert_eq!(
            rec.completions_by_session().get(&[9u8; 32]).copied(),
            Some(n)
        );
    }

    #[test]
    fn rebalance_decision_is_exact_at_window_overflow() {
        // Regression for the sliding-window rebalancer: with per-session
        // latency capped at the most recent 4096 samples, a slow burst that
        // scrolled out of the window became invisible and the rebalancer
        // decided "balanced" even though the shard's true p99 was 50× the
        // other's. Histograms keep every completion, so the decision
        // computed from them must match the decision computed from the
        // exact, uncapped sample lists.
        let nearest_rank_p99 = |samples: &mut Vec<f64>| -> f64 {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let rank = (samples.len() as f64 * 0.99).ceil() as usize;
            samples[rank.saturating_sub(1)]
        };
        // Mirrors rebalance_pass's guard: the worst shard must exceed
        // 1.25× the best shard's p99 for a move to fire.
        let decide = |p99: [f64; 2]| -> Option<usize> {
            let (worst, best) = if p99[0] >= p99[1] { (0, 1) } else { (1, 0) };
            (p99[worst] > p99[best] * 1.25).then_some(worst)
        };

        let rec = MetricsRecorder::new();
        let report = ProverReport::default();
        let mut exact = [Vec::new(), Vec::new()];
        // Shard 0's session: a 2000-sample slow burst, then 5000 fast
        // completions — more than enough to scroll the burst past the old
        // 4096-sample cap. Shard 1's session: uniformly fast.
        for _ in 0..2000 {
            rec.record_completion([1u8; 32], 400.0, &report);
            exact[0].push(400.0);
        }
        for _ in 0..5000 {
            rec.record_completion([1u8; 32], 8.0, &report);
            exact[0].push(8.0);
        }
        for _ in 0..7000 {
            rec.record_completion([2u8; 32], 8.0, &report);
            exact[1].push(8.0);
        }

        // Snapshot the old window's view (most recent 4096, arrival order)
        // before the p99 helper sorts the sample lists in place.
        let mut windowed: Vec<f64> = exact[0][exact[0].len() - 4096..].to_vec();
        let exact_p99s = [
            nearest_rank_p99(&mut exact[0]),
            nearest_rank_p99(&mut exact[1]),
        ];
        let hists = rec.latency_histograms();
        let hist_p99s = [
            hists.get(&[1u8; 32]).expect("session").quantile(0.99),
            hists.get(&[2u8; 32]).expect("session").quantile(0.99),
        ];
        // The exact decision: shard 0 is hot and must shed a session.
        assert_eq!(decide(exact_p99s), Some(0), "exact p99s {exact_p99s:?}");
        assert_eq!(
            decide(hist_p99s),
            decide(exact_p99s),
            "histogram p99s {hist_p99s:?} vs exact {exact_p99s:?}"
        );
        // Sanity that the regression has teeth: the old bounded window
        // (most recent 4096 samples) saw only fast completions on shard 0
        // and would have declined to move anything.
        let window_p99s = [nearest_rank_p99(&mut windowed), exact_p99s[1]];
        assert_eq!(decide(window_p99s), None, "windowed p99s {window_p99s:?}");
    }
}
