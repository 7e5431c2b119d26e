//! Multi-scalar multiplication (MSM) kernels.
//!
//! MSMs — dot products `Σ sᵢ·Pᵢ` between scalar vectors and G1 point vectors
//! — implement the polynomial commitments of HyperPlonk and are the largest
//! compute consumer in the protocol (Table 1 of the zkSpeed paper). This
//! module provides:
//!
//! * [`naive_msm`] — the double-and-add reference used as a test oracle;
//! * [`msm`] / [`msm_with_config_on`] — Pippenger's bucket algorithm on one
//!   fixed schedule, with two optimizations selected by [`MsmConfig`]:
//!   - **signed-digit window recoding** (digits in `[−2^{w−1}, 2^{w−1}]`,
//!     using the free affine negation `−(x, y) = (x, −y)`), halving the
//!     bucket count and the aggregation adds per window;
//!   - **batch-affine bucket accumulation** — buckets accumulate through
//!     affine additions whose inversions are amortized by
//!     [`zkspeed_field::batch_invert`], cutting the per-add Fq
//!     multiplications from 13 (mixed) to ~6;
//! * the schedule itself: the point array is split into
//!   [`auto_intra_window_chunks`] chunks (one below 4096 points), each
//!   `(window, chunk)` pair fills a private bucket set, partial buckets are
//!   tree-combined, and every window aggregates with zkSpeed's grouped
//!   schedule (groups of 16, Fig. 5);
//! * [`sparse_msm`] — the Sparse MSM used for Witness Commits, where scalars
//!   that are 0 or 1 bypass Pippenger entirely (Section 3.3.1);
//! * [`msm_precomputed_on`] / [`sparse_msm_precomputed_on`] — the same sums
//!   over a precomputed [`MultiBaseTable`], with zero doublings;
//! * operation counters ([`MsmStats`]) that feed the hardware cost model.
//!
//! Every configuration computes the same group element, and proof encodings
//! normalize points to affine, so proofs are bit-identical across
//! configurations and backends. Work splitting is derived from the problem
//! size (never from the backend's thread count), so results and operation
//! counters are also identical at any thread count.

use std::ops::Range;
use std::sync::Arc;

use zkspeed_field::{batch_invert, Fq, Fr};
use zkspeed_rt::pool::{self, Backend};

use crate::g1::{G1Affine, G1Projective};
use crate::multi_base::MultiBaseTable;

/// Buckets per group of zkSpeed's grouped bucket aggregation (the paper
/// selects 16, Fig. 5).
const AGGREGATION_GROUP_SIZE: usize = 16;

/// Configuration for a Pippenger MSM run.
///
/// [`MsmConfig::default`] is [`MsmConfig::optimized`] — signed digits and
/// batch-affine accumulation on. [`MsmConfig::classic`] is the unsigned
/// baseline (mixed additions into projective buckets).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MsmConfig {
    /// Window (bucket index) size in bits (0 = auto from the problem size).
    pub window_bits: usize,
    /// Recode scalars into signed digits in `[−2^{w−1}, 2^{w−1}]`, halving
    /// the bucket count (negative digits add the negated point — free in
    /// affine coordinates).
    pub signed_digits: bool,
    /// Minimum points in a `(window, chunk)` segment for the batch-affine
    /// accumulation path; smaller segments use mixed additions into
    /// projective buckets. `usize::MAX` disables batch-affine entirely.
    pub batch_affine_min_points: usize,
}

/// Default [`MsmConfig::batch_affine_min_points`]: below this many points a
/// segment's batch-inversion rounds cost more than they amortize.
pub const BATCH_AFFINE_DEFAULT_MIN_POINTS: usize = 32;

impl MsmConfig {
    /// The unsigned baseline: unsigned windows, mixed additions into
    /// projective buckets. Kept as the baseline the bench suite compares
    /// against and as the apples-to-apples counterpart of the hardware
    /// model's Pippenger unit.
    pub fn classic() -> Self {
        Self {
            window_bits: 0,
            signed_digits: false,
            batch_affine_min_points: usize::MAX,
        }
    }

    /// Both optimizations on: signed digits and batch-affine bucket
    /// accumulation.
    pub fn optimized() -> Self {
        Self {
            window_bits: 0,
            signed_digits: true,
            batch_affine_min_points: BATCH_AFFINE_DEFAULT_MIN_POINTS,
        }
    }

    /// Returns the config with an explicit window size.
    pub fn with_window_bits(mut self, window_bits: usize) -> Self {
        self.window_bits = window_bits;
        self
    }

    /// Returns the config with signed-digit recoding switched on or off.
    pub fn with_signed_digits(mut self, signed: bool) -> Self {
        self.signed_digits = signed;
        self
    }

    /// Returns the config with the given batch-affine threshold
    /// (`usize::MAX` disables batch-affine accumulation).
    pub fn with_batch_affine_min_points(mut self, min_points: usize) -> Self {
        self.batch_affine_min_points = min_points;
        self
    }
}

impl Default for MsmConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

/// Operation counts of an MSM execution, used by the zkSpeed hardware model
/// to translate functional work into PADD-unit cycles and modmuls.
///
/// Additions are counted by kind so the cost model can charge each at its
/// true Fq-multiplication price: mixed additions
/// ([`crate::g1::PADD_MIXED_FQ_MULS`]) while filling buckets, batch-affine
/// additions ([`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]), and full projective
/// additions ([`crate::g1::PADD_FQ_MULS`]) everywhere two projective points
/// meet (aggregation, partial-bucket combines, window combines).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmStats {
    /// Mixed (projective + affine) additions performed while filling
    /// projective buckets.
    pub bucket_adds: u64,
    /// Batch-affine additions performed while filling buckets on the
    /// amortized-inversion path.
    pub affine_adds: u64,
    /// Shared batch-inversion rounds amortized over the affine additions
    /// (each is one BEEA inversion — shift/subtract-based, no multiplier
    /// use — plus the per-element muls already folded into
    /// [`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]).
    pub batch_inversions: u64,
    /// Full projective additions performed during bucket aggregation.
    pub aggregation_adds: u64,
    /// Full projective additions tree-combining per-chunk partial buckets
    /// (MSMs of 4096 points or more, which split into several chunks).
    pub partial_combine_adds: u64,
    /// Full projective additions performed while combining windows /
    /// tree-summing.
    pub combine_adds: u64,
    /// Point doublings performed while combining windows.
    pub doublings: u64,
    /// Scalars recoded into signed window digits.
    pub recoded_scalars: u64,
}

impl MsmStats {
    /// Total point additions of any kind (excluding doublings).
    pub fn total_adds(&self) -> u64 {
        self.bucket_adds
            + self.affine_adds
            + self.aggregation_adds
            + self.partial_combine_adds
            + self.combine_adds
    }

    /// Total Fq modular multiplications implied by the counted operations,
    /// charging each addition kind at its own price. BEEA inversions and
    /// scalar recoding use no Fq multipliers and contribute nothing here.
    pub fn fq_muls(&self) -> u64 {
        self.bucket_adds * crate::g1::PADD_MIXED_FQ_MULS as u64
            + self.affine_adds * crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64
            + (self.aggregation_adds + self.partial_combine_adds + self.combine_adds)
                * crate::g1::PADD_FQ_MULS as u64
            + self.doublings * crate::g1::PDBL_FQ_MULS as u64
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &MsmStats) {
        self.bucket_adds += other.bucket_adds;
        self.affine_adds += other.affine_adds;
        self.batch_inversions += other.batch_inversions;
        self.aggregation_adds += other.aggregation_adds;
        self.partial_combine_adds += other.partial_combine_adds;
        self.combine_adds += other.combine_adds;
        self.doublings += other.doublings;
        self.recoded_scalars += other.recoded_scalars;
    }
}

/// Statistics of a sparse MSM split (Witness Commit step).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseMsmStats {
    /// Number of zero scalars (skipped entirely).
    pub zeros: usize,
    /// Number of one scalars (handled by the tree adder).
    pub ones: usize,
    /// Number of dense (full-width) scalars handled by Pippenger.
    pub dense: usize,
    /// Operation counts of the overall computation.
    pub ops: MsmStats,
}

/// Reference MSM: independent double-and-add per term. `O(n·255)` point
/// operations; used only as a correctness oracle in tests and for tiny MSMs.
pub fn naive_msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(points.len(), scalars.len(), "length mismatch");
    let mut acc = G1Projective::identity();
    for (p, s) in points.iter().zip(scalars.iter()) {
        acc += p.to_projective().mul_scalar(s);
    }
    acc
}

/// Selects a window size from the problem size, mirroring the usual
/// `log₂(n)`-driven heuristic (clamped to the 7–10 bit range the zkSpeed DSE
/// explores for its MSM unit, Table 2).
pub fn auto_window_bits(n: usize) -> usize {
    if n < 32 {
        3
    } else {
        let log = usize::BITS as usize - n.leading_zeros() as usize; // ~ceil(log2)
        (log.saturating_sub(3)).clamp(7, 10).min(16)
    }
}

/// Selects the intra-window chunk count from the problem size (never from
/// the thread count, so results and counters are backend-invariant). Chunks
/// of ≥ 2048 points keep per-segment overhead negligible while exposing
/// `windows × chunks` units of parallel work.
pub fn auto_intra_window_chunks(n: usize) -> usize {
    (n / 2048).clamp(1, 16)
}

/// Computes `Σ sᵢ·Pᵢ` with Pippenger's algorithm using default configuration.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
///
/// # Examples
///
/// ```
/// use zkspeed_curve::{msm, G1Affine, G1Projective};
/// use zkspeed_field::Fr;
///
/// let g = G1Projective::generator();
/// let points = vec![g.to_affine(), g.double().to_affine()];
/// let scalars = vec![Fr::from_u64(3), Fr::from_u64(5)];
/// // 3·G + 5·(2G) = 13·G
/// assert_eq!(msm(&points, &scalars), g.mul_scalar(&Fr::from_u64(13)));
/// ```
pub fn msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    msm_with_config_on(&pool::Ambient, points, scalars, MsmConfig::default()).0
}

/// Computes `Σ sᵢ·Pᵢ` with Pippenger's algorithm on an explicit execution
/// backend and configuration, returning the result together with operation
/// counts. Pass [`pool::Ambient`] to follow the ambient thread count
/// (`ZKSPEED_THREADS`, [`zkspeed_rt::par::with_threads`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm_with_config_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    let chunks = auto_intra_window_chunks(scalars.len());
    let points = PointSource::Borrowed(points);
    msm_impl(backend, points, scalars, config, chunks)
}

/// [`msm_with_config_on`] over a shared point vector: when the backend goes
/// parallel the `Arc` is cloned into the worker jobs instead of copying the
/// points, so SRS-basis commitments fan out with zero point copies.
///
/// # Panics
///
/// Panics if the lengths mismatch.
pub fn msm_with_config_shared(
    backend: &dyn Backend,
    points: &Arc<Vec<G1Affine>>,
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    let chunks = auto_intra_window_chunks(scalars.len());
    let points = PointSource::Shared(points);
    msm_impl(backend, points, scalars, config, chunks)
}

/// How an MSM receives its point vector: borrowed (copied into an `Arc` only
/// if the run actually fans out) or already shared.
enum PointSource<'a> {
    Borrowed(&'a [G1Affine]),
    Shared(&'a Arc<Vec<G1Affine>>),
}

impl PointSource<'_> {
    fn as_slice(&self) -> &[G1Affine] {
        match self {
            PointSource::Borrowed(p) => p,
            PointSource::Shared(a) => a.as_slice(),
        }
    }

    fn to_shared(&self) -> Arc<Vec<G1Affine>> {
        match self {
            // One pass of memcpy (~10 ns/point) against hundreds of point
            // additions per point of MSM work; hot callers that own an Arc
            // (SRS-basis commits) take the Shared arm and copy nothing.
            PointSource::Borrowed(p) => Arc::new(p.to_vec()),
            PointSource::Shared(a) => Arc::clone(a),
        }
    }
}

// ------------------------------------------------------------- recoding ----

/// Per-scalar carry bits of the signed-digit recoding, one bit per window
/// (≤ 256 windows even at `w = 1`). Window `i`'s digit is
/// `c = bits[i·w .. i·w+w] + carry(i)`, mapped to `c − 2^w` (and a carry
/// into window `i+1`) whenever `c > 2^{w−1}`, so digits lie in
/// `[−2^{w−1}, 2^{w−1}]` and the bucket count halves. One extra top window
/// absorbs the final carry (scalars are < 2^255 but their signed form can
/// need 256 bits).
type CarryMask = [u64; 4];

fn recode_carries(limbs: &[u64; 4], w: usize, num_windows: usize) -> CarryMask {
    debug_assert!(num_windows <= 256);
    let half = 1u64 << (w - 1);
    let mut carry = 0u64;
    let mut mask = [0u64; 4];
    for i in 0..num_windows {
        if carry == 1 {
            mask[i / 64] |= 1 << (i % 64);
        }
        let c = extract_window(limbs, i * w, w) as u64 + carry;
        carry = u64::from(c > half);
    }
    debug_assert_eq!(carry, 0, "signed-digit carry escaped the top window");
    mask
}

/// The signed digit of `window` for a recoded scalar, in
/// `[−2^{w−1}, 2^{w−1}]`.
fn signed_window_digit(limbs: &[u64; 4], carries: &CarryMask, window: usize, w: usize) -> i64 {
    let carry = (carries[window / 64] >> (window % 64)) & 1;
    let c = extract_window(limbs, window * w, w) as i64 + carry as i64;
    if c > (1i64 << (w - 1)) {
        c - (1i64 << w)
    } else {
        c
    }
}

// ---------------------------------------------------------- bucket fill ----

/// Immutable inputs of one MSM run, shared by every fill/reduce job.
struct MsmInstance {
    points: Arc<Vec<G1Affine>>,
    scalar_limbs: Arc<Vec<[u64; 4]>>,
    /// Signed-digit carry masks; `None` runs unsigned windows.
    carries: Option<Arc<Vec<CarryMask>>>,
    w: usize,
    num_buckets: usize,
    config: MsmConfig,
    /// Contiguous point ranges, one per intra-window chunk.
    chunk_ranges: Vec<Range<usize>>,
}

/// One fill job's private bucket set plus its counters: a `(window, chunk)`
/// segment of the table-free engine or a bucket range of the table engine.
struct FilledSegment {
    buckets: Vec<G1Projective>,
    nonempty: bool,
    /// Fill counters: `bucket_adds`, `affine_adds` and `batch_inversions`.
    ops: MsmStats,
}

impl MsmInstance {
    /// The (bucket index, sign-adjusted point) of term `i` in `window`, or
    /// `None` for zero digits and identity points.
    fn bucket_entry(&self, i: usize, window: usize) -> Option<(u32, G1Affine)> {
        let point = self.points[i];
        if point.infinity {
            return None;
        }
        let limbs = &self.scalar_limbs[i];
        match &self.carries {
            Some(carries) => {
                let d = signed_window_digit(limbs, &carries[i], window, self.w);
                match d.cmp(&0) {
                    core::cmp::Ordering::Equal => None,
                    core::cmp::Ordering::Greater => Some((d as u32 - 1, point)),
                    core::cmp::Ordering::Less => Some(((-d) as u32 - 1, point.neg())),
                }
            }
            None => {
                let idx = extract_window(limbs, window * self.w, self.w);
                (idx != 0).then(|| (idx as u32 - 1, point))
            }
        }
    }

    /// Fills one `(window, chunk)` segment's private bucket set.
    fn fill_segment(&self, window: usize, chunk: usize) -> FilledSegment {
        let range = self.chunk_ranges[chunk].clone();
        let batch_affine = range.len() >= self.config.batch_affine_min_points;
        let mut entries = Vec::with_capacity(range.len());
        entries.extend(range.filter_map(|i| self.bucket_entry(i, window)));
        fill_buckets(self.num_buckets, entries, batch_affine)
    }

    /// Tree-combines one window's per-chunk partial buckets and aggregates
    /// them into the window sum, returning it with the window's counters.
    fn reduce_window(&self, segments: &[FilledSegment]) -> (G1Projective, MsmStats) {
        let mut ops = MsmStats::default();
        for seg in segments {
            ops.merge(&seg.ops);
        }
        if !segments.iter().any(|seg| seg.nonempty) {
            // Every digit of this window was zero: skip the aggregation
            // chain entirely (the always-zero top window of the signed
            // recoding takes this path on typical inputs).
            return (G1Projective::identity(), ops);
        }
        let (sum, agg_adds) = if segments.len() == 1 {
            // Single segment (the fused path): aggregate its buckets in
            // place, no combine and no copy.
            aggregate_buckets(&segments[0].buckets)
        } else {
            let (buckets, combine_adds) = tree_combine_buckets(segments);
            ops.partial_combine_adds = combine_adds;
            aggregate_buckets(&buckets)
        };
        ops.aggregation_adds = agg_adds;
        (sum, ops)
    }
}

/// Tree-combines per-chunk partial bucket sets bucket-wise, skipping
/// identity operands; returns the combined buckets and the additions used.
fn tree_combine_buckets(segments: &[FilledSegment]) -> (Vec<G1Projective>, u64) {
    debug_assert!(segments.len() > 1);
    let mut adds = 0u64;
    let combine = |a: &[G1Projective], b: &[G1Projective], adds: &mut u64| -> Vec<G1Projective> {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| {
                if x.is_identity() {
                    *y
                } else if y.is_identity() {
                    *x
                } else {
                    *adds += 1;
                    *x + *y
                }
            })
            .collect()
    };
    // First level reads the borrowed segments; later levels fold owned vecs.
    let mut layer: Vec<Vec<G1Projective>> = segments
        .chunks(2)
        .map(|pair| {
            if pair.len() == 2 {
                combine(&pair[0].buckets, &pair[1].buckets, &mut adds)
            } else {
                pair[0].buckets.clone()
            }
        })
        .collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    combine(&pair[0], &pair[1], &mut adds)
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    (layer.pop().expect("nonempty layer"), adds)
}

/// Accumulates `(bucket, affine point)` entries into a bucket set of
/// `num_buckets`: through [`batch_affine_bucket_sums`] when `batch_affine`,
/// otherwise with mixed additions into projective buckets. Both engines fill
/// their buckets here; each decides `batch_affine` from its own segment size.
fn fill_buckets(
    num_buckets: usize,
    entries: Vec<(u32, G1Affine)>,
    batch_affine: bool,
) -> FilledSegment {
    let nonempty = !entries.is_empty();
    let mut ops = MsmStats::default();
    let buckets = if batch_affine {
        let (buckets, affine_adds, batch_inversions) =
            batch_affine_bucket_sums(num_buckets, entries);
        ops.affine_adds = affine_adds;
        ops.batch_inversions = batch_inversions;
        buckets
    } else {
        let mut buckets = vec![G1Projective::identity(); num_buckets];
        for (bucket, point) in entries {
            let slot = &mut buckets[bucket as usize];
            if slot.is_identity() {
                // First touch costs nothing: the bucket simply becomes the
                // point.
                *slot = point.to_projective();
            } else {
                *slot = slot.add_mixed(&point);
                ops.bucket_adds += 1;
            }
        }
        buckets
    };
    FilledSegment {
        buckets,
        nonempty,
        ops,
    }
}

/// Reduces a multiset of `(bucket, affine point)` entries to one affine
/// point per bucket using batched affine additions: each round pairs up the
/// pending entries of every bucket, computes all the pair sums with a single
/// shared [`batch_invert`], and repeats until every bucket holds at most one
/// point. Returns the buckets (lifted to projective for aggregation), the
/// affine additions performed, and the batch-inversion rounds used.
fn batch_affine_bucket_sums(
    num_buckets: usize,
    entries: Vec<(u32, G1Affine)>,
) -> (Vec<G1Projective>, u64, u64) {
    /// A pair scheduled for one batched affine addition.
    struct AddJob {
        /// Index into the next round's entry list where the result lands.
        slot: usize,
        a: G1Affine,
        b: G1Affine,
        /// True for the doubling form (`a == b`): λ = 3x²/2y instead of
        /// Δy/Δx.
        double: bool,
    }

    // Stable counting sort by bucket so each bucket's entries are
    // contiguous (and in input order, keeping rounds deterministic).
    let mut counts = vec![0u32; num_buckets + 1];
    for (bucket, _) in &entries {
        counts[*bucket as usize + 1] += 1;
    }
    for b in 0..num_buckets {
        counts[b + 1] += counts[b];
    }
    let mut cursor = counts.clone();
    let mut sorted = vec![(0u32, G1Affine::identity()); entries.len()];
    for entry in entries {
        let pos = &mut cursor[entry.0 as usize];
        sorted[*pos as usize] = entry;
        *pos += 1;
    }

    let mut affine_adds = 0u64;
    let mut inversions = 0u64;
    loop {
        let mut next: Vec<(u32, G1Affine)> = Vec::with_capacity(sorted.len().div_ceil(2));
        let mut jobs: Vec<AddJob> = Vec::new();
        let mut any_pair = false;
        let mut i = 0;
        while i < sorted.len() {
            let bucket = sorted[i].0;
            let mut run_end = i + 1;
            while run_end < sorted.len() && sorted[run_end].0 == bucket {
                run_end += 1;
            }
            while i + 1 < run_end {
                let (a, b) = (sorted[i].1, sorted[i + 1].1);
                i += 2;
                any_pair = true;
                if a.infinity {
                    next.push((bucket, b));
                } else if b.infinity {
                    next.push((bucket, a));
                } else if a.x == b.x {
                    if a.y == b.y {
                        jobs.push(AddJob {
                            slot: next.len(),
                            a,
                            b,
                            double: true,
                        });
                        next.push((bucket, G1Affine::identity()));
                    } else {
                        // a = −b: the pair cancels to the identity.
                        next.push((bucket, G1Affine::identity()));
                    }
                } else {
                    jobs.push(AddJob {
                        slot: next.len(),
                        a,
                        b,
                        double: false,
                    });
                    next.push((bucket, G1Affine::identity()));
                }
            }
            if i < run_end {
                next.push(sorted[i]);
                i += 1;
            }
        }
        if !jobs.is_empty() {
            inversions += 1;
            // One shared inversion amortized over every pair of the round.
            // Denominators are never zero: Δx ≠ 0 by classification and
            // 2y ≠ 0 because the prime-order subgroup has no 2-torsion.
            let mut denoms: Vec<Fq> = jobs
                .iter()
                .map(|j| {
                    if j.double {
                        j.a.y + j.a.y
                    } else {
                        j.b.x - j.a.x
                    }
                })
                .collect();
            batch_invert(&mut denoms);
            for (job, inv) in jobs.iter().zip(denoms.iter()) {
                let lambda = if job.double {
                    let x2 = job.a.x.square();
                    (x2 + x2 + x2) * *inv
                } else {
                    (job.b.y - job.a.y) * *inv
                };
                let x3 = lambda.square() - job.a.x - job.b.x;
                let y3 = lambda * (job.a.x - x3) - job.a.y;
                next[job.slot].1 = G1Affine {
                    x: x3,
                    y: y3,
                    infinity: false,
                };
                affine_adds += 1;
            }
        }
        sorted = next;
        if !any_pair {
            break;
        }
    }

    let mut buckets = vec![G1Projective::identity(); num_buckets];
    for (bucket, point) in sorted {
        if !point.infinity {
            buckets[bucket as usize] = point.to_projective();
        }
    }
    (buckets, affine_adds, inversions)
}

// ---------------------------------------------------------------- engine ----

/// The table-free engine. `chunks` is the number of point chunks each
/// window's bucket fill splits into: public callers pass
/// [`auto_intra_window_chunks`], unit tests force the multi-chunk path at
/// small `n`.
fn msm_impl(
    backend: &dyn Backend,
    points: PointSource<'_>,
    scalars: &[Fr],
    config: MsmConfig,
    chunks: usize,
) -> (G1Projective, MsmStats) {
    let point_slice = points.as_slice();
    assert_eq!(point_slice.len(), scalars.len(), "length mismatch");
    let n = point_slice.len();
    let mut stats = MsmStats::default();
    if n == 0 {
        return (G1Projective::identity(), stats);
    }
    let w = if config.window_bits == 0 {
        auto_window_bits(n)
    } else {
        config.window_bits
    };
    assert!((1..=16).contains(&w), "window size out of range");

    let scalar_limbs: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical_limbs()).collect();
    let num_bits = Fr::NUM_BITS as usize;
    // Signed recoding halves the buckets but needs one extra window for the
    // final carry (typically all-zero and skipped by the empty-window check).
    let (num_windows, num_buckets) = if config.signed_digits {
        (num_bits.div_ceil(w) + 1, 1usize << (w - 1))
    } else {
        (num_bits.div_ceil(w), (1usize << w) - 1)
    };
    let carries: Option<Vec<CarryMask>> = config.signed_digits.then(|| {
        stats.recoded_scalars = n as u64;
        scalar_limbs
            .iter()
            .map(|limbs| recode_carries(limbs, w, num_windows))
            .collect()
    });
    let chunk_ranges = zkspeed_rt::par::split_ranges(n, chunks);
    let num_chunks = chunk_ranges.len();

    let instance = MsmInstance {
        points: points.to_shared(),
        scalar_limbs: Arc::new(scalar_limbs),
        carries: carries.map(Arc::new),
        w,
        num_buckets,
        config,
        chunk_ranges,
    };

    // Every (window, chunk) segment is independent, so segments fan out over
    // the backend's workers; the per-window reduction and the serial window
    // combine below consume them in deterministic order, so results and
    // operation counts are bit-identical to a serial run at any thread
    // count. MSMs below PAR_MIN_POINTS (the tail of the halving-MSM
    // sequence, tiny commits) stay on the calling thread: fan-out overhead
    // would dwarf the microseconds of useful work per segment.
    const PAR_MIN_POINTS: usize = 256;
    let parallel = n >= PAR_MIN_POINTS && backend.threads() > 1 && num_windows * num_chunks > 1;

    let window_sums: Vec<(G1Projective, MsmStats)> = if num_chunks == 1 {
        // Fused path: one job per window fills and aggregates directly.
        let run = move |instance: &MsmInstance, window: usize| {
            let segment = instance.fill_segment(window, 0);
            instance.reduce_window(&[segment])
        };
        if parallel {
            let instance = Arc::new(instance);
            pool::map_indices_on(backend, num_windows, move |window| run(&instance, window))
        } else {
            (0..num_windows)
                .map(|window| run(&instance, window))
                .collect()
        }
    } else {
        // Two-phase path: fill (windows × chunks jobs), then reduce
        // (one job per window).
        let instance = Arc::new(instance);
        let fill_instance = Arc::clone(&instance);
        let fill = move |job: usize| fill_instance.fill_segment(job / num_chunks, job % num_chunks);
        let segments: Vec<FilledSegment> = if parallel {
            pool::map_indices_on(backend, num_windows * num_chunks, fill)
        } else {
            (0..num_windows * num_chunks).map(fill).collect()
        };
        // Window `i` owns segments `i·chunks .. (i+1)·chunks`.
        let segments = Arc::new(segments);
        let reduce = move |window: usize| {
            instance.reduce_window(&segments[window * num_chunks..(window + 1) * num_chunks])
        };
        if parallel {
            pool::map_indices_on(backend, num_windows, reduce)
        } else {
            (0..num_windows).map(reduce).collect()
        }
    };

    // Serial top-down window combine: w doublings between windows (skipped
    // while the accumulator is still the identity, so the signed recoding's
    // empty top window costs nothing), one addition per non-empty window.
    let mut acc = G1Projective::identity();
    for (sum, window_ops) in window_sums.iter().rev() {
        if !acc.is_identity() {
            for _ in 0..w {
                acc = acc.double();
                stats.doublings += 1;
            }
        }
        stats.merge(window_ops);
        if !sum.is_identity() {
            if acc.is_identity() {
                acc = *sum;
            } else {
                acc += *sum;
                stats.combine_adds += 1;
            }
        }
    }
    (acc, stats)
}

// ----------------------------------------------------------- aggregation ----

/// Aggregates bucket sums into `Σ (i+1)·buckets[i]` with zkSpeed's grouped
/// schedule, returning the total and the number of point additions used.
/// Additions whose operand is the identity are skipped (and not counted).
fn aggregate_buckets(buckets: &[G1Projective]) -> (G1Projective, u64) {
    aggregate_grouped(buckets, AGGREGATION_GROUP_SIZE)
}

/// The grouped schedule (adapted from PriorMSM): buckets are split into
/// groups of `group_size`, partial sums are computed per group (in parallel
/// in hardware), and the group results are combined at the end.
fn aggregate_grouped(buckets: &[G1Projective], group_size: usize) -> (G1Projective, u64) {
    if buckets.is_empty() {
        return (G1Projective::identity(), 0);
    }
    // Write Σ_{i=1}^{M} i·B_i with i = g·s + j (j = 1..s within group g):
    //   Σ_g [ Σ_j j·B_{g·s+j} ]  +  s · Σ_g g·( Σ_j B_{g·s+j} )
    // Each group's inner running sum is independent (parallel in hardware);
    // the cross-group term is itself a small running sum over group totals.
    let s = group_size;
    let mut adds = 0u64;
    let num_groups = buckets.len().div_ceil(s);
    let mut inner_weighted = Vec::with_capacity(num_groups); // Σ_j j·B within group
    let mut group_totals = Vec::with_capacity(num_groups); // Σ_j B within group
    for g in 0..num_groups {
        let chunk = &buckets[g * s..((g + 1) * s).min(buckets.len())];
        let mut running = G1Projective::identity();
        let mut weighted = G1Projective::identity();
        // Highest j first so the running sum accumulates the right weights.
        for b in chunk.iter().rev() {
            if !b.is_identity() {
                running += *b;
                adds += 1;
            }
            if !running.is_identity() {
                weighted += running;
                adds += 1;
            }
        }
        inner_weighted.push(weighted);
        group_totals.push(running);
    }
    // Cross-group term: s · Σ_g g·T_g, computed with a running sum over
    // groups from the highest index down to group 1 (group 0 contributes 0).
    let mut running = G1Projective::identity();
    let mut cross = G1Projective::identity();
    for t in group_totals.iter().skip(1).rev() {
        if !t.is_identity() {
            running += *t;
            adds += 1;
        }
        if !running.is_identity() {
            cross += running;
            adds += 1;
        }
    }
    // Multiply the cross-group sum by s via double-and-add (s is tiny).
    let mut s_times_cross = G1Projective::identity();
    if !cross.is_identity() {
        let mut bit = usize::BITS - s.leading_zeros();
        while bit > 0 {
            bit -= 1;
            s_times_cross = s_times_cross.double();
            if (s >> bit) & 1 == 1 {
                s_times_cross += cross;
                adds += 1;
            }
        }
    }
    let mut total = G1Projective::identity();
    for wsum in inner_weighted.iter() {
        if !wsum.is_identity() {
            total += *wsum;
            adds += 1;
        }
    }
    if !s_times_cross.is_identity() {
        total += s_times_cross;
        adds += 1;
    }
    (total, adds)
}

// ------------------------------------------------------------ sparse MSM ----

/// Computes a Sparse MSM as in the Witness Commit step: points whose scalar
/// is exactly 0 are skipped, points whose scalar is exactly 1 are summed with
/// a tree reduction, and the remaining dense scalars go through Pippenger.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sparse_msm(points: &[G1Affine], scalars: &[Fr]) -> (G1Projective, SparseMsmStats) {
    sparse_msm_with_config_on(&pool::Ambient, points, scalars, MsmConfig::default())
}

/// [`sparse_msm`] on an explicit execution backend, running the dense
/// remainder through an explicit [`MsmConfig`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sparse_msm_with_config_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, SparseMsmStats) {
    assert_eq!(points.len(), scalars.len(), "length mismatch");
    sparse_split(
        scalars,
        |i| points[i].to_projective(),
        |dense_indices, dense_scalars| {
            let dense_points = dense_indices.iter().map(|&i| points[i as usize]).collect();
            msm_with_config_shared(backend, &Arc::new(dense_points), &dense_scalars, config)
        },
    )
}

/// The 0/1/dense split both Sparse MSM engines share: 0-scalars are
/// skipped, the points of 1-scalars (`one_point(i)`) are tree-summed, and
/// the dense remainder — its scalar indices and values — goes to `dense`.
fn sparse_split(
    scalars: &[Fr],
    one_point: impl Fn(usize) -> G1Projective,
    dense: impl FnOnce(Vec<u32>, Vec<Fr>) -> (G1Projective, MsmStats),
) -> (G1Projective, SparseMsmStats) {
    let one = Fr::one();
    let zero = Fr::zero();
    let mut ones_points = Vec::new();
    let mut dense_indices = Vec::new();
    let mut dense_scalars = Vec::new();
    let mut stats = SparseMsmStats::default();
    for (i, s) in scalars.iter().enumerate() {
        if *s == zero {
            stats.zeros += 1;
        } else if *s == one {
            stats.ones += 1;
            ones_points.push(one_point(i));
        } else {
            stats.dense += 1;
            dense_indices.push(i as u32);
            dense_scalars.push(*s);
        }
    }
    // Tree reduction of the 1-valued points (maps to the pipelined PADD tree
    // in the MSM unit's sparse mode).
    let (ones_sum, tree_adds) = tree_sum(&ones_points);
    stats.ops.combine_adds += tree_adds;

    let (dense_sum, dense_stats) = dense(dense_indices, dense_scalars);
    stats.ops.merge(&dense_stats);
    let total = ones_sum + dense_sum;
    stats.ops.combine_adds += 1;
    (total, stats)
}

// ------------------------------------------------------ precomputed MSM ----

/// Selects the number of bucket-range jobs for the precomputed engine from
/// the problem size (`total_entries = n · num_windows` digit slots) — never
/// from the backend's thread count, so results and counters are
/// thread-count invariant. Each job re-scans the digit vector (cheap
/// integer work) but fills a disjoint bucket slice, so jobs need no
/// combine additions; ~4096 entries per job keep the scan overhead small.
fn auto_precomputed_jobs(total_entries: usize, num_buckets: usize) -> usize {
    (total_entries / 4096).clamp(1, 32).min(num_buckets)
}

/// Computes `Σ sᵢ·Bᵢ` over the fixed bases covered by a precomputed
/// [`MultiBaseTable`]: every scalar is signed-digit recoded at the table's
/// window width, each nonzero digit contributes one shifted base
/// `±2^{w·j}·Bᵢ` to a single flat bucket set of `2^{w−1}` buckets, and one
/// aggregation pass finishes the sum — **zero doublings** and no window
/// combine, the whole point of precomputing the session's bases.
///
/// `config` supplies only the batch-affine threshold; `config.window_bits`
/// and `config.signed_digits` are ignored (the table's width wins and
/// recoding is always signed). Work is split over size-derived bucket
/// ranges, each job filling a disjoint bucket slice, so results stay
/// thread-count invariant. The result is the same group element the
/// table-free engine computes.
///
/// # Panics
///
/// Panics if `scalars` is longer than the table's base count (shorter is
/// fine: a prefix MSM, as the halving openings need).
pub fn msm_precomputed_on(
    backend: &dyn Backend,
    table: &Arc<MultiBaseTable>,
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    assert!(
        scalars.len() <= table.num_bases(),
        "more scalars than precomputed bases"
    );
    msm_precomputed_impl(backend, table, None, scalars, config)
}

/// The Sparse MSM of the Witness Commit step over precomputed tables:
/// 0-scalars are skipped, 1-scalars are tree-summed directly from the
/// table's base entries, and the dense remainder runs through the
/// precomputed bucket engine (the dense bases are non-contiguous, so their
/// table rows are addressed through an index vector).
///
/// # Panics
///
/// Panics if `scalars` is longer than the table's base count.
pub fn sparse_msm_precomputed_on(
    backend: &dyn Backend,
    table: &Arc<MultiBaseTable>,
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, SparseMsmStats) {
    assert!(
        scalars.len() <= table.num_bases(),
        "more scalars than precomputed bases"
    );
    sparse_split(
        scalars,
        |i| table.base(i).to_projective(),
        |dense_indices, dense_scalars| {
            let indices = Some(Arc::new(dense_indices));
            msm_precomputed_impl(backend, table, indices, &dense_scalars, config)
        },
    )
}

/// Immutable inputs of one precomputed MSM run, shared by every
/// bucket-range job.
struct PrecomputedInstance {
    table: Arc<MultiBaseTable>,
    /// Table row of each scalar (`None` = identity mapping, the dense case).
    indices: Option<Arc<Vec<u32>>>,
    scalar_limbs: Arc<Vec<[u64; 4]>>,
    carries: Arc<Vec<CarryMask>>,
    config: MsmConfig,
    /// Disjoint bucket index ranges, one per job.
    bucket_ranges: Vec<Range<usize>>,
}

impl PrecomputedInstance {
    /// Fills one job's bucket slice: scans every (scalar, window) digit and
    /// keeps only the entries whose bucket falls in the job's range. The
    /// scan repeats cheap integer recoding per job; all the point
    /// arithmetic is disjoint across jobs, so no combine pass follows.
    fn fill_bucket_range(&self, job: usize) -> FilledSegment {
        let range = self.bucket_ranges[job].clone();
        let w = self.table.window_bits();
        let num_windows = self.table.num_windows();
        let mut entries: Vec<(u32, G1Affine)> = Vec::new();
        for (i, limbs) in self.scalar_limbs.iter().enumerate() {
            let carries = &self.carries[i];
            let base = self.indices.as_ref().map_or(i, |idx| idx[i] as usize);
            for window in 0..num_windows {
                let d = signed_window_digit(limbs, carries, window, w);
                if d == 0 {
                    continue;
                }
                let bucket = d.unsigned_abs() as usize - 1;
                if !range.contains(&bucket) {
                    continue;
                }
                let point = self.table.entry(base, window);
                if point.infinity {
                    continue;
                }
                let point = if d < 0 { point.neg() } else { *point };
                entries.push(((bucket - range.start) as u32, point));
            }
        }
        let batch_affine = entries.len() >= self.config.batch_affine_min_points;
        fill_buckets(range.len(), entries, batch_affine)
    }
}

fn msm_precomputed_impl(
    backend: &dyn Backend,
    table: &Arc<MultiBaseTable>,
    indices: Option<Arc<Vec<u32>>>,
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    let n = scalars.len();
    let mut stats = MsmStats::default();
    if n == 0 {
        return (G1Projective::identity(), stats);
    }
    let w = table.window_bits();
    let num_windows = table.num_windows();
    let num_buckets = 1usize << (w - 1);
    let scalar_limbs: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical_limbs()).collect();
    let carries: Vec<CarryMask> = scalar_limbs
        .iter()
        .map(|limbs| recode_carries(limbs, w, num_windows))
        .collect();
    stats.recoded_scalars = n as u64;

    let total_entries = n * num_windows;
    let jobs = auto_precomputed_jobs(total_entries, num_buckets);
    let bucket_ranges = zkspeed_rt::par::split_ranges(num_buckets, jobs);
    let num_jobs = bucket_ranges.len();
    let instance = PrecomputedInstance {
        table: Arc::clone(table),
        indices,
        scalar_limbs: Arc::new(scalar_limbs),
        carries: Arc::new(carries),
        config,
        bucket_ranges,
    };

    // Same fan-out policy as `msm_impl`: below the parallel floor the work
    // stays on the calling thread.
    const PAR_MIN_POINTS: usize = 256;
    let parallel = total_entries >= PAR_MIN_POINTS && backend.threads() > 1 && num_jobs > 1;
    let segments: Vec<FilledSegment> = if parallel {
        let instance = Arc::new(instance);
        pool::map_indices_on(backend, num_jobs, move |job| {
            instance.fill_bucket_range(job)
        })
    } else {
        (0..num_jobs)
            .map(|job| instance.fill_bucket_range(job))
            .collect()
    };

    // Concatenate the disjoint bucket slices in range order (zero combine
    // additions) and finish with the single aggregation pass.
    let mut buckets = Vec::with_capacity(num_buckets);
    let mut any = false;
    for segment in segments {
        stats.merge(&segment.ops);
        any |= segment.nonempty;
        buckets.extend(segment.buckets);
    }
    if !any {
        return (G1Projective::identity(), stats);
    }
    let (sum, agg_adds) = aggregate_buckets(&buckets);
    stats.aggregation_adds = agg_adds;
    (sum, stats)
}

/// Sums a slice of points with a binary-tree reduction, returning the sum and
/// the number of point additions.
pub fn tree_sum(points: &[G1Projective]) -> (G1Projective, u64) {
    if points.is_empty() {
        return (G1Projective::identity(), 0);
    }
    let mut layer: Vec<G1Projective> = points.to_vec();
    let mut adds = 0u64;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for chunk in layer.chunks(2) {
            if chunk.len() == 2 {
                next.push(chunk[0] + chunk[1]);
                adds += 1;
            } else {
                next.push(chunk[0]);
            }
        }
        layer = next;
    }
    (layer[0], adds)
}

/// Extracts `width` bits starting at bit offset `offset` from a canonical
/// 4-limb scalar.
fn extract_window(limbs: &[u64; 4], offset: usize, width: usize) -> usize {
    if offset >= 256 {
        return 0;
    }
    let limb_idx = offset / 64;
    let bit_idx = offset % 64;
    let mut value = limbs[limb_idx] >> bit_idx;
    if bit_idx + width > 64 && limb_idx + 1 < 4 {
        value |= limbs[limb_idx + 1] << (64 - bit_idx);
    }
    (value & ((1u64 << width) - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0004)
    }

    fn random_points(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
        G1Projective::batch_to_affine(&proj)
    }

    /// Every meaningfully distinct engine path (signedness × accumulation ×
    /// chunk count), used by the equivalence tests. The chunk count forces
    /// the two-phase multi-chunk path, which public callers reach only from
    /// 4096 points on.
    fn all_configs() -> Vec<(&'static str, MsmConfig, usize)> {
        vec![
            ("classic", MsmConfig::classic(), 1),
            ("signed", MsmConfig::classic().with_signed_digits(true), 1),
            ("chunked", MsmConfig::classic(), 3),
            (
                "batch-affine",
                MsmConfig::classic().with_batch_affine_min_points(0),
                1,
            ),
            ("optimized", MsmConfig::optimized(), 1),
            (
                "optimized-forced",
                MsmConfig::optimized().with_batch_affine_min_points(0),
                4,
            ),
        ]
    }

    /// The table-free engine with an explicit chunk count.
    fn msm_chunked(
        backend: &dyn Backend,
        points: &[G1Affine],
        scalars: &[Fr],
        config: MsmConfig,
        chunks: usize,
    ) -> (G1Projective, MsmStats) {
        let points = PointSource::Borrowed(points);
        msm_impl(backend, points, scalars, config, chunks)
    }

    /// The serial running sum SZKP aggregates with, highest bucket first
    /// (`running += B_i; total += running`): the oracle for the grouped
    /// schedule.
    fn aggregate_serial(buckets: &[G1Projective]) -> (G1Projective, u64) {
        let mut running = G1Projective::identity();
        let mut total = G1Projective::identity();
        let mut adds = 0u64;
        for b in buckets.iter().rev() {
            if !b.is_identity() {
                running += *b;
                adds += 1;
            }
            if !running.is_identity() {
                total += running;
                adds += 1;
            }
        }
        (total, adds)
    }

    #[test]
    fn empty_msm_is_identity() {
        for (name, config, chunks) in all_configs() {
            let (r, stats) = msm_chunked(&Serial, &[], &[], config, chunks);
            assert_eq!(r, G1Projective::identity(), "{name}");
            assert_eq!(stats, MsmStats::default(), "{name}");
        }
        assert_eq!(msm(&[], &[]), G1Projective::identity());
        let (r, s) = sparse_msm(&[], &[]);
        assert_eq!(r, G1Projective::identity());
        assert_eq!(s.zeros + s.ones + s.dense, 0);
    }

    #[test]
    fn pippenger_matches_naive_small() {
        let mut r = rng();
        for n in [1usize, 2, 3, 7, 16, 33] {
            let points = random_points(n, &mut r);
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
            let expect = naive_msm(&points, &scalars);
            assert_eq!(msm(&points, &scalars), expect, "n = {n}");
            for (name, config, chunks) in all_configs() {
                let (res, _) = msm_chunked(&Serial, &points, &scalars, config, chunks);
                assert_eq!(res, expect, "n = {n}, config = {name}");
            }
        }
    }

    #[test]
    fn pippenger_matches_naive_across_windows_and_schedules() {
        let mut r = rng();
        let n = 40;
        let points = random_points(n, &mut r);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let expect = naive_msm(&points, &scalars);
        for w in [2usize, 4, 7, 8, 9, 10, 13] {
            for (name, base, chunks) in all_configs() {
                let cfg = base.with_window_bits(w);
                let (res, stats) = msm_chunked(&Serial, &points, &scalars, cfg, chunks);
                assert_eq!(res, expect, "w = {w}, config = {name}");
                assert!(stats.total_adds() > 0);
                assert!(stats.fq_muls() > 0);
            }
        }
    }

    #[test]
    fn signed_digits_match_naive_across_every_window_size() {
        // window_bits ∈ {1..16} exercises the recoding boundaries: w = 1
        // (256 windows, digits {0, 1}), the auto range 7–10, and w = 16
        // (the extended top window absorbing the final carry).
        let mut r = rng();
        let n = 5;
        let points = random_points(n, &mut r);
        // Include the carry-heavy extremes alongside random scalars.
        let scalars = vec![
            Fr::zero(),
            Fr::one(),
            -Fr::one(),       // r − 1: every signed window carries
            -Fr::from_u64(2), // r − 2
            Fr::random(&mut r),
        ];
        let expect = naive_msm(&points, &scalars);
        for w in 1..=16usize {
            for config in [
                MsmConfig::classic()
                    .with_signed_digits(true)
                    .with_window_bits(w),
                MsmConfig::optimized()
                    .with_batch_affine_min_points(0)
                    .with_window_bits(w),
            ] {
                let (res, stats) = msm_with_config_on(&Serial, &points, &scalars, config);
                assert_eq!(res, expect, "w = {w}, config = {config:?}");
                assert_eq!(stats.recoded_scalars, n as u64);
            }
        }
    }

    #[test]
    fn single_point_and_extreme_scalars() {
        let mut r = rng();
        let point = random_points(1, &mut r);
        for scalar in [Fr::zero(), Fr::one(), -Fr::one(), Fr::random(&mut r)] {
            let expect = naive_msm(&point, &[scalar]);
            for (name, config, chunks) in all_configs() {
                let (res, _) = msm_chunked(&Serial, &point, &[scalar], config, chunks);
                assert_eq!(res, expect, "scalar = {scalar}, config = {name}");
            }
        }
    }

    #[test]
    fn special_scalars() {
        let mut r = rng();
        let points = random_points(5, &mut r);
        // All zeros: no window is ever touched, no ops are counted.
        let zeros = vec![Fr::zero(); 5];
        for (name, config, chunks) in all_configs() {
            let (res, stats) = msm_chunked(&Serial, &points, &zeros, config, chunks);
            assert_eq!(res, G1Projective::identity(), "{name}");
            assert_eq!(stats.total_adds(), 0, "{name}");
            assert_eq!(stats.doublings, 0, "{name}");
        }
        // All ones: MSM equals the plain sum.
        let ones = vec![Fr::one(); 5];
        let sum: G1Projective = points.iter().map(|p| p.to_projective()).sum();
        assert_eq!(msm(&points, &ones), sum);
        // Scalar with every window populated (r - 1).
        let big = vec![-Fr::one(); 5];
        assert_eq!(msm(&points, &big), naive_msm(&points, &big));
    }

    #[test]
    fn identity_points_are_skipped() {
        let mut r = rng();
        let mut points = random_points(6, &mut r);
        points[1] = G1Affine::identity();
        points[4] = G1Affine::identity();
        let scalars: Vec<Fr> = (0..6).map(|_| Fr::random(&mut r)).collect();
        let expect = naive_msm(&points, &scalars);
        for (name, config, chunks) in all_configs() {
            let (res, _) = msm_chunked(&Serial, &points, &scalars, config, chunks);
            assert_eq!(res, expect, "config = {name}");
        }
    }

    #[test]
    fn batch_affine_handles_equal_and_inverse_points() {
        // Equal scalars land every point in the same bucket per window, so
        // the batch-affine rounds must take the doubling (P + P) and the
        // cancellation (P + (−P)) branches.
        let g = G1Projective::generator();
        let g2 = g.double();
        let points = vec![
            g.to_affine(),
            g.to_affine(),       // doubling pair
            g.neg().to_affine(), // cancels one g
            g2.to_affine(),
            G1Affine::identity(), // identity input passes through
            g2.neg().to_affine(), // cancels g2
        ];
        let mut r = rng();
        for scalar in [Fr::from_u64(5), Fr::random(&mut r), -Fr::one()] {
            let scalars = vec![scalar; points.len()];
            let expect = naive_msm(&points, &scalars);
            for signed in [false, true] {
                let config = MsmConfig::classic()
                    .with_signed_digits(signed)
                    .with_batch_affine_min_points(0);
                let (res, stats) = msm_with_config_on(&Serial, &points, &scalars, config);
                assert_eq!(res, expect, "scalar = {scalar}, signed = {signed}");
                assert!(stats.affine_adds > 0 || stats.total_adds() == 0);
                assert_eq!(stats.bucket_adds, 0, "all fills must be batch-affine");
            }
        }
    }

    #[test]
    fn schedules_are_backend_invariant() {
        // 512 points exceed PAR_MIN_POINTS, so the pool genuinely fans out;
        // results AND counters must match the serial run for every config.
        let mut r = rng();
        let n = 512;
        let points = random_points(n, &mut r);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let expect = naive_msm(&points, &scalars);
        let pool = ThreadPool::new(8);
        for (name, config, chunks) in all_configs() {
            let serial = msm_chunked(&Serial, &points, &scalars, config, chunks);
            let pooled = msm_chunked(&pool, &points, &scalars, config, chunks);
            assert_eq!(serial.0, expect, "{name}: serial result");
            assert_eq!(pooled.0, serial.0, "{name}: pooled result drifted");
            assert_eq!(pooled.1, serial.1, "{name}: pooled stats drifted");
        }
    }

    #[test]
    fn optimized_engine_reduces_fq_muls() {
        let mut r = rng();
        let n = 1 << 10;
        let points = random_points(n, &mut r);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let (classic_res, classic) = msm_with_config_on(
            &Serial,
            &points,
            &scalars,
            MsmConfig::classic().with_window_bits(8),
        );
        let (optimized_res, optimized) = msm_with_config_on(
            &Serial,
            &points,
            &scalars,
            MsmConfig::optimized().with_window_bits(8),
        );
        assert_eq!(classic_res, optimized_res);
        assert!(
            optimized.fq_muls() * 10 < classic.fq_muls() * 8,
            "expected ≥20% fewer Fq muls: classic {} vs optimized {}",
            classic.fq_muls(),
            optimized.fq_muls()
        );
        assert!(optimized.affine_adds > 0);
        assert!(optimized.batch_inversions > 0);
        assert_eq!(optimized.recoded_scalars, n as u64);
    }

    #[test]
    fn sparse_msm_matches_dense_reference() {
        let mut r = rng();
        let n = 64;
        let points = random_points(n, &mut r);
        // 45% zeros, 45% ones, 10% dense — the paper's witness statistics.
        let mut scalars: Vec<Fr> = Vec::with_capacity(n);
        for _ in 0..n {
            let roll: f64 = r.gen();
            let s = if roll < 0.45 {
                Fr::zero()
            } else if roll < 0.90 {
                Fr::one()
            } else {
                Fr::random(&mut r)
            };
            scalars.push(s);
        }
        let expect = naive_msm(&points, &scalars);
        let (result, stats) = sparse_msm(&points, &scalars);
        assert_eq!(result, expect);
        assert_eq!(stats.zeros + stats.ones + stats.dense, n);
        assert!(stats.ones > 0);
        assert!(stats.zeros > 0);
        // An explicit config on the dense remainder agrees.
        let (classic, _) =
            sparse_msm_with_config_on(&Serial, &points, &scalars, MsmConfig::classic());
        assert_eq!(classic, expect);
    }

    #[test]
    fn aggregation_schedules_agree() {
        let mut r = rng();
        let buckets: Vec<G1Projective> = (0..31).map(|_| G1Projective::random(&mut r)).collect();
        let (serial, serial_adds) = aggregate_serial(&buckets);
        for gs in [1usize, 2, 3, 4, 8, 16, 31, 64] {
            let (grouped, _) = aggregate_grouped(&buckets, gs);
            assert_eq!(grouped, serial, "group_size = {gs}");
        }
        assert_eq!(aggregate_buckets(&buckets).0, serial);
        assert_eq!(serial_adds, 2 * 31);
        // Identity buckets are skipped and not counted.
        let mut sparse = buckets.clone();
        sparse[3] = G1Projective::identity();
        sparse[17] = G1Projective::identity();
        let (sparse_serial, sparse_adds) = aggregate_serial(&sparse);
        assert_eq!(sparse_adds, 2 * 31 - 2);
        let (sparse_grouped, _) = aggregate_grouped(&sparse, 4);
        assert_eq!(sparse_grouped, sparse_serial);
    }

    #[test]
    fn aggregation_weights_are_correct() {
        // Buckets holding i·G should aggregate to Σ i²·G.
        let g = G1Projective::generator();
        let buckets: Vec<G1Projective> = (1..=10u64)
            .map(|i| g.mul_scalar(&Fr::from_u64(i)))
            .collect();
        let expect = g.mul_scalar(&Fr::from_u64((1..=10u64).map(|i| i * i).sum()));
        assert_eq!(aggregate_serial(&buckets).0, expect);
        assert_eq!(aggregate_grouped(&buckets, 4).0, expect);
        assert_eq!(aggregate_buckets(&buckets).0, expect);
    }

    #[test]
    fn tree_sum_matches_linear_sum() {
        let mut r = rng();
        for n in [0usize, 1, 2, 5, 16, 17] {
            let points: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(&mut r)).collect();
            let linear: G1Projective = points.iter().copied().sum();
            let (tree, adds) = tree_sum(&points);
            assert_eq!(tree, linear, "n = {n}");
            assert_eq!(adds, n.saturating_sub(1) as u64);
        }
    }

    #[test]
    fn window_extraction() {
        let limbs = [0xffff_ffff_ffff_ffffu64, 0x1, 0, 0];
        assert_eq!(extract_window(&limbs, 0, 8), 0xff);
        assert_eq!(extract_window(&limbs, 60, 8), 0x1f);
        assert_eq!(extract_window(&limbs, 64, 8), 0x01);
        assert_eq!(extract_window(&limbs, 300, 8), 0);
    }

    #[test]
    fn signed_recoding_reconstructs_the_scalar() {
        // Σ dᵢ·2^{wi} recovered over the integers must equal the canonical
        // scalar, and every digit must lie in [−2^{w−1}, 2^{w−1}].
        let mut r = rng();
        let mut scalars = vec![Fr::zero(), Fr::one(), -Fr::one(), -Fr::from_u64(2)];
        scalars.extend((0..4).map(|_| Fr::random(&mut r)));
        for w in [1usize, 3, 8, 13, 16] {
            let num_windows = (Fr::NUM_BITS as usize).div_ceil(w) + 1;
            let half = 1i64 << (w - 1);
            for s in &scalars {
                let limbs = s.to_canonical_limbs();
                let carries = recode_carries(&limbs, w, num_windows);
                // Reconstruct as an Fr Horner sum: Σ dᵢ·2^{wi}.
                let two_pow_w = Fr::from_u64(1u64 << w);
                let mut acc = Fr::zero();
                for i in (0..num_windows).rev() {
                    let d = signed_window_digit(&limbs, &carries, i, w);
                    assert!((-half..=half).contains(&d), "w = {w}, digit {d}");
                    acc *= two_pow_w;
                    if d >= 0 {
                        acc += Fr::from_u64(d as u64);
                    } else {
                        acc -= Fr::from_u64((-d) as u64);
                    }
                }
                assert_eq!(acc, *s, "w = {w}, scalar {s}");
            }
        }
    }

    #[test]
    fn auto_window_is_in_explored_range() {
        assert!(auto_window_bits(16) <= 10);
        for n in [1usize << 10, 1 << 16, 1 << 20] {
            let w = auto_window_bits(n);
            assert!((7..=10).contains(&w), "n = {n}, w = {w}");
        }
        assert_eq!(auto_intra_window_chunks(1), 1);
        assert_eq!(auto_intra_window_chunks(1 << 12), 2);
        assert_eq!(auto_intra_window_chunks(1 << 20), 16);
    }

    #[test]
    fn precomputed_matches_naive_across_window_bits() {
        let mut r = rng();
        let n = 40;
        let points = random_points(n, &mut r);
        let shared = Arc::new(points.clone());
        // Edge scalars exercise the recoding carries; random fill the rest.
        let mut scalars = vec![Fr::zero(), Fr::one(), -Fr::one(), -Fr::from_u64(2)];
        scalars.extend((4..n).map(|_| Fr::random(&mut r)));
        let expect = naive_msm(&points, &scalars);
        for w in [1usize, 4, 8, 12, 16] {
            let table = Arc::new(MultiBaseTable::build_on(&shared, w, &Serial));
            for min_points in [0usize, usize::MAX] {
                let config = MsmConfig::default().with_batch_affine_min_points(min_points);
                let (res, stats) = msm_precomputed_on(&Serial, &table, &scalars, config);
                assert_eq!(res, expect, "w = {w}, min_points = {min_points}");
                assert_eq!(stats.doublings, 0, "precomputed engine never doubles");
                assert_eq!(stats.combine_adds, 0);
                assert_eq!(stats.partial_combine_adds, 0);
                assert_eq!(stats.recoded_scalars, n as u64);
            }
        }
        // Prefix MSMs (fewer scalars than bases) are allowed.
        let table = Arc::new(MultiBaseTable::build_on(&shared, 8, &Serial));
        let (prefix, _) = msm_precomputed_on(&Serial, &table, &scalars[..7], MsmConfig::default());
        assert_eq!(prefix, naive_msm(&points[..7], &scalars[..7]));
        // Empty input.
        let (empty, empty_stats) = msm_precomputed_on(&Serial, &table, &[], MsmConfig::default());
        assert_eq!(empty, G1Projective::identity());
        assert_eq!(empty_stats, MsmStats::default());
    }

    #[test]
    fn precomputed_is_thread_count_invariant() {
        // Enough entries that the bucket-range jobs genuinely fan out.
        let mut r = rng();
        let n = 512;
        let points = Arc::new(random_points(n, &mut r));
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let table = Arc::new(MultiBaseTable::build_on(&points, 10, &Serial));
        let config = MsmConfig::default();
        let serial = msm_precomputed_on(&Serial, &table, &scalars, config);
        assert_eq!(serial.0, naive_msm(&points, &scalars));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let pooled = msm_precomputed_on(&pool, &table, &scalars, config);
            assert_eq!(pooled.0, serial.0, "threads = {threads}: result drifted");
            assert_eq!(pooled.1, serial.1, "threads = {threads}: stats drifted");
        }
    }

    #[test]
    fn sparse_precomputed_matches_dense_reference() {
        let mut r = rng();
        let n = 300;
        let points = Arc::new(random_points(n, &mut r));
        // Witness-like sparsity so all three classes are populated.
        let scalars: Vec<Fr> = (0..n)
            .map(|i| match i % 10 {
                0..=3 => Fr::zero(),
                4..=8 => Fr::one(),
                _ => Fr::random(&mut r),
            })
            .collect();
        let expect = naive_msm(&points, &scalars);
        let table = Arc::new(MultiBaseTable::build_on(&points, 9, &Serial));
        let config = MsmConfig::default();
        let serial = sparse_msm_precomputed_on(&Serial, &table, &scalars, config);
        assert_eq!(serial.0, expect);
        assert!(serial.1.zeros > 0 && serial.1.ones > 0 && serial.1.dense > 0);
        assert_eq!(serial.1.ops.doublings, 0);
        let pooled = sparse_msm_precomputed_on(&ThreadPool::new(8), &table, &scalars, config);
        assert_eq!(pooled.0, serial.0);
        assert_eq!(pooled.1, serial.1);
    }

    #[test]
    fn precomputed_engine_reduces_fq_muls() {
        // The whole point: at session sizes the table engine beats the best
        // table-free schedule on Fq multiplications (no doublings, one
        // aggregation for the whole MSM instead of one per window).
        let mut r = rng();
        let n = 1 << 10;
        let points = Arc::new(random_points(n, &mut r));
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let (opt_res, optimized) =
            msm_with_config_on(&Serial, &points, &scalars, MsmConfig::optimized());
        let table = Arc::new(MultiBaseTable::build_on(
            &points,
            crate::MULTI_BASE_DEFAULT_WINDOW_BITS,
            &Serial,
        ));
        let (pre_res, precomputed) =
            msm_precomputed_on(&Serial, &table, &scalars, MsmConfig::default());
        assert_eq!(pre_res, opt_res);
        assert!(
            precomputed.fq_muls() * 4 < optimized.fq_muls() * 3,
            "expected ≥25% fewer Fq muls: optimized {} vs precomputed {}",
            optimized.fq_muls(),
            precomputed.fq_muls()
        );
        assert_eq!(precomputed.doublings, 0);
        assert!(precomputed.affine_adds > 0);
    }

    #[test]
    fn auto_precomputed_jobs_scale_with_problem_size() {
        assert_eq!(auto_precomputed_jobs(100, 2048), 1);
        assert_eq!(auto_precomputed_jobs(16 * 4096, 2048), 16);
        assert_eq!(auto_precomputed_jobs(1 << 24, 2048), 32);
        // Never more jobs than buckets.
        assert_eq!(auto_precomputed_jobs(1 << 24, 4), 4);
    }
}
