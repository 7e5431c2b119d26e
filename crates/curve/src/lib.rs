//! BLS12-381 G1 group arithmetic and multi-scalar multiplication for the
//! zkSpeed HyperPlonk reproduction.
//!
//! HyperPlonk commits to every MLE table with an MSM over BLS12-381 G1, and
//! the zkSpeed paper identifies these MSMs as the single largest consumer of
//! compute (Table 1) and of chip area (64.6% of compute area in the
//! highlighted design). This crate provides the functional counterpart of
//! that MSM unit:
//!
//! * [`G1Affine`] / [`G1Projective`] — the group, with complete full and
//!   mixed addition formulas (the PADD datapath);
//! * [`msm`] / [`msm_with_config_on`] — Pippenger's algorithm with configurable
//!   window size, signed-digit recoding and batch-affine bucket
//!   accumulation (see [`MsmConfig`]), on one schedule: size-derived point
//!   chunks per window and zkSpeed's grouped bucket aggregation (Fig. 5 of
//!   the paper);
//! * [`sparse_msm`] — the Sparse MSM used by the Witness Commit step;
//! * [`MsmStats`] — per-addition-kind operation counters consumed by the
//!   hardware cost model.
//!
//! # Examples
//!
//! ```
//! use zkspeed_curve::{msm, G1Affine, G1Projective};
//! use zkspeed_field::{Field, Fr};
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let points: Vec<G1Affine> = (0..8)
//!     .map(|_| G1Projective::random(&mut rng).to_affine())
//!     .collect();
//! let scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
//! let commitment = msm(&points, &scalars);
//! assert!(commitment.is_on_curve());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed_base;
mod g1;
mod msm;
mod multi_base;

pub use fixed_base::{FixedBaseTable, FIXED_BASE_DEFAULT_WINDOW_BITS};
pub use g1::{
    G1Affine, G1Projective, BATCH_AFFINE_ADD_FQ_MULS, G1_ENCODED_BYTES, PADD_FQ_MULS,
    PADD_MIXED_FQ_MULS, PDBL_FQ_MULS,
};
pub use msm::{
    auto_intra_window_chunks, auto_window_bits, msm, msm_precomputed_on, msm_with_config_on,
    msm_with_config_shared, naive_msm, sparse_msm, sparse_msm_precomputed_on,
    sparse_msm_with_config_on, tree_sum, MsmConfig, MsmStats, SparseMsmStats,
    BATCH_AFFINE_DEFAULT_MIN_POINTS,
};
pub use multi_base::{MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS};
