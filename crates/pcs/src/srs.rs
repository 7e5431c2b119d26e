//! The structured reference string (universal setup) for the multilinear
//! polynomial commitment scheme.
//!
//! HyperPlonk's headline property is its *universal* trusted setup: one
//! ceremony produces parameters reusable by every circuit up to a maximum
//! size (Section 1 of the zkSpeed paper). The SRS here contains, for every
//! prefix length `k ≤ μ`, the Lagrange-basis points
//! `L^{(k)}_i = eq((τ_{k+1}, …, τ_μ), bits(i)) · G` over the *suffix* of the
//! secret point τ. Level 0 commits full-size MLEs; levels 1…μ commit the
//! successively halved quotient polynomials produced during opening — the
//! `2^{μ−1}, 2^{μ−2}, …, 2^0`-point MSM sequence of Section 3.3.5.
//!
//! # Trapdoor substitution
//!
//! The real scheme verifies openings with BLS12-381 pairings. Pairings are
//! verifier-side only and contribute nothing to the prover workload the
//! zkSpeed accelerator models, so this reproduction keeps the toxic waste τ
//! inside [`Srs`] and verifies the *same algebraic identity* the pairing
//! would check, but in G1 (see `open::verify_opening`). This is a documented
//! substitution; all prover-side computation (the MSMs) is identical to the
//! real scheme.

use core::fmt;
use std::sync::Arc;

use zkspeed_curve::{FixedBaseTable, G1Affine, G1Projective};
use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{self, DecodeError, Reader};
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::Rng;

/// Artifact kind tag of an encoded [`Srs`] (see [`zkspeed_rt::codec`]).
pub const KIND_SRS: u8 = codec::Kind::Srs as u8;

/// The largest `num_vars` a setup will accept: `2^{MAX_NUM_VARS+1}` G1
/// points must fit in memory, and the paper-scale sizes beyond this are
/// exercised through the analytical hardware model instead.
pub const MAX_NUM_VARS: usize = 28;

/// Why a universal setup request was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// The requested size exceeds [`MAX_NUM_VARS`].
    TooManyVariables {
        /// The requested number of variables.
        requested: usize,
        /// The maximum supported.
        max: usize,
    },
    /// An explicit τ does not have one coordinate per variable.
    TauLengthMismatch {
        /// The expected length (`num_vars`).
        expected: usize,
        /// The length supplied.
        found: usize,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::TooManyVariables { requested, max } => write!(
                f,
                "setup: {requested} variables exceed the supported maximum of {max}"
            ),
            SetupError::TauLengthMismatch { expected, found } => write!(
                f,
                "setup: τ length must equal num_vars (expected {expected}, got {found})"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// Structured reference string for committing to multilinear polynomials of
/// up to `num_vars` variables.
///
/// The Lagrange bases are stored behind `Arc`s, so cloning an SRS (the
/// proving and verifying keys each hold one) shares the point tables
/// instead of copying `2^{μ+1}` G1 points.
#[derive(Clone, Debug)]
pub struct Srs {
    num_vars: usize,
    /// The generator G.
    g: G1Affine,
    /// `lagrange_bases[k][i] = eq((τ_{k+1}, …, τ_μ), bits(i)) · G`, of length
    /// `2^{μ−k}`.
    lagrange_bases: Vec<Arc<Vec<G1Affine>>>,
    /// The secret evaluation point τ (retained only for the trapdoor
    /// verification substitution described in the module docs).
    tau: Vec<Fr>,
}

impl Srs {
    /// Runs the (mock) universal setup for polynomials of up to `num_vars`
    /// variables.
    ///
    /// Setup cost is `O(2^μ)` group scalar multiplications; for the problem
    /// sizes used in tests and examples (μ ≤ 12) this completes quickly,
    /// while the paper-scale sizes (μ = 17–24) are exercised through the
    /// analytical hardware model rather than the functional layer.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds [`MAX_NUM_VARS`]; use [`Srs::try_setup`]
    /// for a `Result`-returning variant.
    pub fn setup<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Self {
        match Self::try_setup(num_vars, rng) {
            Ok(srs) => srs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating universal setup: rejects sizes beyond [`MAX_NUM_VARS`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::TooManyVariables`] if the size is unsupported.
    pub fn try_setup<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Result<Self, SetupError> {
        let tau: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
        Self::try_setup_with_tau(num_vars, tau)
    }

    /// Deterministic setup from an explicit τ (used by tests and by the
    /// repository's examples so results are reproducible).
    ///
    /// # Panics
    ///
    /// Panics if τ has the wrong length or `num_vars` exceeds
    /// [`MAX_NUM_VARS`]; use [`Srs::try_setup_with_tau`] for a
    /// `Result`-returning variant.
    pub fn setup_with_tau(num_vars: usize, tau: Vec<Fr>) -> Self {
        match Self::try_setup_with_tau(num_vars, tau) {
            Ok(srs) => srs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating deterministic setup from an explicit τ.
    ///
    /// # Errors
    ///
    /// Returns a [`SetupError`] if τ has the wrong length or the size is
    /// unsupported.
    pub fn try_setup_with_tau(num_vars: usize, tau: Vec<Fr>) -> Result<Self, SetupError> {
        Self::try_setup_with_tau_on(num_vars, tau, &pool::Ambient)
    }

    /// [`Srs::try_setup_with_tau`] on an explicit execution backend: the
    /// `2^μ` basis scalar multiplications of each level fan out over the
    /// backend's workers (the dominant cost of setup).
    ///
    /// # Errors
    ///
    /// Returns a [`SetupError`] if τ has the wrong length or the size is
    /// unsupported.
    pub fn try_setup_with_tau_on(
        num_vars: usize,
        tau: Vec<Fr>,
        backend: &dyn Backend,
    ) -> Result<Self, SetupError> {
        /// Scalar multiplications per worker job at minimum; each one costs
        /// hundreds of point operations, so even small chunks parallelize
        /// profitably.
        const MIN_CHUNK: usize = 32;
        if num_vars > MAX_NUM_VARS {
            return Err(SetupError::TooManyVariables {
                requested: num_vars,
                max: MAX_NUM_VARS,
            });
        }
        if tau.len() != num_vars {
            return Err(SetupError::TauLengthMismatch {
                expected: num_vars,
                found: tau.len(),
            });
        }
        let g = G1Affine::generator();
        // One fixed-base window table of the generator serves every basis
        // point of every level: each of the 2^{μ+1} scalar multiplications
        // becomes ⌈255/w⌉ table lookups + mixed additions instead of a full
        // double-and-add ladder (the dominant cost of setup).
        let table = Arc::new(FixedBaseTable::for_generator());
        let mut lagrange_bases = Vec::with_capacity(num_vars + 1);
        for k in 0..=num_vars {
            let suffix = &tau[k..];
            let eq = MultilinearPoly::eq_mle_on(suffix, backend);
            let scalars = eq.shared_evaluations();
            let table = Arc::clone(&table);
            let chunks = pool::map_ranges(backend, scalars.len(), MIN_CHUNK, move |range| {
                let points: Vec<G1Projective> = range.map(|i| table.mul(&scalars[i])).collect();
                G1Projective::batch_to_affine(&points)
            });
            let mut level = Vec::with_capacity(1usize << (num_vars - k));
            for chunk in chunks {
                level.extend(chunk);
            }
            lagrange_bases.push(Arc::new(level));
        }
        Ok(Self {
            num_vars,
            g,
            lagrange_bases,
            tau,
        })
    }

    /// Maximum number of variables this SRS supports.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The group generator.
    pub fn generator(&self) -> G1Affine {
        self.g
    }

    /// The Lagrange basis used to commit polynomials with `num_vars - level`
    /// variables (level 0 = full size).
    ///
    /// # Panics
    ///
    /// Panics if `level > num_vars`.
    pub fn lagrange_basis(&self, level: usize) -> &[G1Affine] {
        &self.lagrange_bases[level]
    }

    /// The Lagrange basis of `level` as a shareable handle; MSM worker jobs
    /// clone the handle instead of copying the points.
    ///
    /// # Panics
    ///
    /// Panics if `level > num_vars`.
    pub fn shared_lagrange_basis(&self, level: usize) -> &Arc<Vec<G1Affine>> {
        &self.lagrange_bases[level]
    }

    /// The secret point τ (trapdoor), exposed for the mock verification path
    /// and for tests only.
    pub fn trapdoor(&self) -> &[Fr] {
        &self.tau
    }

    /// A cheap `num_vars`-variable view of this SRS, sharing the point
    /// tables instead of rerunning setup.
    ///
    /// The full SRS's level `k` basis encodes `eq` over the τ-suffix of
    /// length `μ − k`; the `ν`-variable prefix SRS's level `j` needs `eq`
    /// over a suffix of length `ν − j` — which is exactly the full SRS's
    /// level `μ − ν + j`. The view therefore reuses the `Arc`-shared levels
    /// `μ − ν ..= μ` (and the matching τ suffix) verbatim: commitments,
    /// openings and trapdoor verification against the prefix produce the
    /// same group elements as against the full SRS, so one largest setup
    /// serves every smaller circuit byte-identically.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds this SRS's size.
    pub fn prefix(&self, num_vars: usize) -> Srs {
        assert!(
            num_vars <= self.num_vars,
            "prefix of {num_vars} variables exceeds the SRS's {}",
            self.num_vars
        );
        let skip = self.num_vars - num_vars;
        Srs {
            num_vars,
            g: self.g,
            lagrange_bases: self.lagrange_bases[skip..].to_vec(),
            tau: self.tau[skip..].to_vec(),
        }
    }

    /// Total number of G1 points stored in the SRS.
    pub fn size_in_points(&self) -> usize {
        self.lagrange_bases.iter().map(|b| b.len()).sum()
    }

    /// Canonical versioned byte encoding: the shared header (kind
    /// [`KIND_SRS`]), `num_vars`, τ, the generator, and every Lagrange-basis
    /// level in order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.size_in_points() * 97);
        codec::write_header(&mut out, KIND_SRS);
        out.extend_from_slice(&(self.num_vars as u32).to_le_bytes());
        for t in &self.tau {
            out.extend_from_slice(&t.to_bytes_le());
        }
        self.g.write_canonical(&mut out);
        for level in &self.lagrange_bases {
            out.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for p in level.iter() {
                p.write_canonical(&mut out);
            }
        }
        out
    }

    /// Decodes a byte string produced by [`Srs::to_bytes`], validating the
    /// header, every point (canonical coordinates, on-curve) and the
    /// level-size structure.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        let srs = Self::read_canonical(&mut reader)?;
        reader.finish()?;
        Ok(srs)
    }

    fn read_canonical(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.header(KIND_SRS)?;
        let num_vars = reader.u32()? as usize;
        if num_vars > MAX_NUM_VARS {
            return Err(DecodeError::InvalidLength {
                what: "SRS num_vars",
                expected: MAX_NUM_VARS,
                found: num_vars,
            });
        }
        let mut tau = Vec::with_capacity(num_vars);
        for _ in 0..num_vars {
            let t = Fr::from_bytes_le(reader.take(32)?).ok_or(DecodeError::InvalidValue {
                what: "non-canonical τ coordinate",
            })?;
            tau.push(t);
        }
        let g = G1Affine::read_canonical(reader)?;
        let mut lagrange_bases = Vec::with_capacity(num_vars + 1);
        for k in 0..=num_vars {
            let len = reader.count(97, "SRS basis level")?;
            let expected = 1usize << (num_vars - k);
            if len != expected {
                return Err(DecodeError::InvalidLength {
                    what: "SRS basis level",
                    expected,
                    found: len,
                });
            }
            let mut level = Vec::with_capacity(len);
            for _ in 0..len {
                level.push(G1Affine::read_canonical(reader)?);
            }
            lagrange_bases.push(Arc::new(level));
        }
        Ok(Self {
            num_vars,
            g,
            lagrange_bases,
            tau,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_000b)
    }

    #[test]
    fn setup_shapes() {
        let mut r = rng();
        let srs = Srs::setup(4, &mut r);
        assert_eq!(srs.num_vars(), 4);
        assert_eq!(srs.lagrange_basis(0).len(), 16);
        assert_eq!(srs.lagrange_basis(1).len(), 8);
        assert_eq!(srs.lagrange_basis(4).len(), 1);
        // 16 + 8 + 4 + 2 + 1
        assert_eq!(srs.size_in_points(), 31);
        assert_eq!(srs.trapdoor().len(), 4);
    }

    #[test]
    fn lagrange_basis_sums_to_generator() {
        // Σ_i eq(τ, i) = 1, so the basis points sum to G.
        let mut r = rng();
        let srs = Srs::setup(3, &mut r);
        for level in 0..=3 {
            let sum: G1Projective = srs
                .lagrange_basis(level)
                .iter()
                .map(|p| p.to_projective())
                .sum();
            assert_eq!(sum, G1Projective::generator(), "level {level}");
        }
    }

    #[test]
    fn basis_encodes_eq_values() {
        let tau = vec![Fr::from_u64(3), Fr::from_u64(5)];
        let srs = Srs::setup_with_tau(2, tau.clone());
        let eq = MultilinearPoly::eq_mle(&tau);
        for i in 0..4 {
            assert_eq!(
                srs.lagrange_basis(0)[i].to_projective(),
                G1Projective::generator().mul_scalar(&eq[i])
            );
        }
        // Level 1 uses the suffix (τ₂).
        let eq1 = MultilinearPoly::eq_mle(&tau[1..]);
        for i in 0..2 {
            assert_eq!(
                srs.lagrange_basis(1)[i].to_projective(),
                G1Projective::generator().mul_scalar(&eq1[i])
            );
        }
    }

    #[test]
    #[should_panic(expected = "τ length")]
    fn setup_rejects_mismatched_tau() {
        let _ = Srs::setup_with_tau(3, vec![Fr::one()]);
    }

    #[test]
    fn try_setup_surfaces_validation_errors() {
        let mut r = rng();
        assert_eq!(
            Srs::try_setup(MAX_NUM_VARS + 1, &mut r).unwrap_err(),
            SetupError::TooManyVariables {
                requested: MAX_NUM_VARS + 1,
                max: MAX_NUM_VARS
            }
        );
        assert_eq!(
            Srs::try_setup_with_tau(3, vec![Fr::one()]).unwrap_err(),
            SetupError::TauLengthMismatch {
                expected: 3,
                found: 1
            }
        );
        assert!(Srs::try_setup(2, &mut r).is_ok());
        assert!(SetupError::TooManyVariables {
            requested: 99,
            max: MAX_NUM_VARS
        }
        .to_string()
        .contains("99"));
    }

    #[test]
    fn backend_setup_matches_ambient() {
        use zkspeed_rt::pool::{Serial, ThreadPool};
        let tau: Vec<Fr> = (0..5).map(|i| Fr::from_u64(i as u64 + 11)).collect();
        let base = Srs::setup_with_tau(5, tau.clone());
        for backend in [
            &Serial as &dyn zkspeed_rt::pool::Backend,
            &ThreadPool::new(4),
        ] {
            let srs = Srs::try_setup_with_tau_on(5, tau.clone(), backend).unwrap();
            for level in 0..=5 {
                assert_eq!(srs.lagrange_basis(level), base.lagrange_basis(level));
            }
        }
    }

    #[test]
    fn prefix_levels_match_a_direct_suffix_setup_and_share_points() {
        let tau: Vec<Fr> = (0..5).map(|i| Fr::from_u64(7 * i as u64 + 3)).collect();
        let full = Srs::setup_with_tau(5, tau.clone());
        for nu in 0..=5usize {
            let view = full.prefix(nu);
            assert_eq!(view.num_vars(), nu);
            assert_eq!(view.generator(), full.generator());
            assert_eq!(view.trapdoor(), &tau[5 - nu..]);
            let direct = Srs::setup_with_tau(nu, tau[5 - nu..].to_vec());
            for level in 0..=nu {
                assert_eq!(
                    view.lagrange_basis(level),
                    direct.lagrange_basis(level),
                    "prefix ν={nu} level {level}"
                );
                // The view shares the full SRS's point tables (no copy).
                assert!(Arc::ptr_eq(
                    view.shared_lagrange_basis(level),
                    full.shared_lagrange_basis(5 - nu + level)
                ));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the SRS")]
    fn prefix_rejects_oversized_views() {
        let srs = Srs::setup_with_tau(2, vec![Fr::from_u64(1), Fr::from_u64(2)]);
        let _ = srs.prefix(3);
    }

    #[test]
    fn commitments_through_a_prefix_view_match_the_full_srs() {
        use crate::{commit, open, verify_opening};
        let mut r = rng();
        let full = Srs::setup(6, &mut r);
        let view = full.prefix(4);
        let f = MultilinearPoly::random(4, &mut r);
        // A 4-variable polynomial commits at level 2 of the full SRS and at
        // level 0 of the view — the same Lagrange basis either way.
        let com_full = commit(&full, &f);
        let com_view = commit(&view, &f);
        assert_eq!(com_full, com_view);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let (value_full, proof_full, _) = open(&full, &f, &point);
        let (value_view, proof_view, _) = open(&view, &f, &point);
        assert_eq!(value_full, value_view);
        let (mut bytes_full, mut bytes_view) = (Vec::new(), Vec::new());
        proof_full.write_canonical(&mut bytes_full);
        proof_view.write_canonical(&mut bytes_view);
        assert_eq!(bytes_full, bytes_view);
        // Proofs verify against either SRS.
        assert!(verify_opening(
            &view,
            &com_view,
            &point,
            value_view,
            &proof_view
        ));
        assert!(verify_opening(
            &full,
            &com_full,
            &point,
            value_full,
            &proof_view
        ));
    }

    #[test]
    fn srs_byte_encoding_roundtrips() {
        let tau: Vec<Fr> = vec![Fr::from_u64(3), Fr::from_u64(9), Fr::from_u64(27)];
        let srs = Srs::setup_with_tau(3, tau);
        let bytes = srs.to_bytes();
        let back = Srs::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(back.num_vars(), srs.num_vars());
        assert_eq!(back.trapdoor(), srs.trapdoor());
        for level in 0..=3 {
            assert_eq!(back.lagrange_basis(level), srs.lagrange_basis(level));
        }
        // Corrupt header magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Srs::from_bytes(&bad),
            Err(DecodeError::BadMagic { .. })
        ));
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Srs::from_bytes(&long),
            Err(DecodeError::TrailingBytes { .. })
        ));
        // Truncation is rejected.
        assert!(Srs::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
