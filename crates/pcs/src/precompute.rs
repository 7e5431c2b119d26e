//! Per-session precomputed commit tables: shifted-base window tables
//! ([`MultiBaseTable`]) over the SRS Lagrange bases, built once per
//! preprocessing pass and consumed by every subsequent commitment and
//! opening of the session.
//!
//! A session's bases never change after `preprocess`, so the Pippenger
//! window doublings every `commit` repeats are pure waste on the serving
//! path. With the tables built, the table engine
//! ([`zkspeed_curve::msm_precomputed_on`]) commits with zero doublings and a
//! single bucket-aggregation pass. The tables cost `O(n·⌈255/w⌉)` points of
//! memory, so they are **opt-in** via a [`PrecomputeBudget`] — the only
//! switch: small or one-shot sessions keep the default (disabled) budget and
//! skip the build entirely.

use std::sync::Arc;

use zkspeed_curve::{MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS};
use zkspeed_rt::pool::Backend;

use crate::srs::Srs;

/// Opt-in memory budget for per-session precomputed commit tables.
///
/// The default budget is **disabled** (`max_bytes == 0`): sessions build no
/// tables and commit through the table-free engine. Long-lived sessions
/// that amortize the one-time build over many proofs opt in with
/// [`PrecomputeBudget::unlimited`] or an explicit byte cap.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PrecomputeBudget {
    /// Maximum bytes of table memory to build (0 disables precomputation).
    max_bytes: u64,
    /// Window width for the tables (0 selects
    /// [`MULTI_BASE_DEFAULT_WINDOW_BITS`]).
    window_bits: usize,
}

impl Default for PrecomputeBudget {
    fn default() -> Self {
        Self::disabled()
    }
}

impl PrecomputeBudget {
    /// No precomputation: sessions commit through the table-free engine.
    pub fn disabled() -> Self {
        Self {
            max_bytes: 0,
            window_bits: 0,
        }
    }

    /// Build tables for every SRS level the session can commit at,
    /// regardless of memory (`(⌈255/w⌉+1)·2^{μ+1}` points in total — about
    /// 20 MB at `μ = 12` with 12-bit windows).
    pub fn unlimited() -> Self {
        Self {
            max_bytes: u64::MAX,
            window_bits: 0,
        }
    }

    /// Build tables greedily (largest level first) while their cumulative
    /// size stays within `max_bytes`.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Use an explicit window width instead of
    /// [`MULTI_BASE_DEFAULT_WINDOW_BITS`].
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is greater than 16 (0 keeps the default).
    pub fn with_window_bits(mut self, window_bits: usize) -> Self {
        assert!(window_bits <= 16, "window bits must be in 0..=16");
        self.window_bits = window_bits;
        self
    }

    /// Whether any table building is allowed.
    pub fn is_enabled(&self) -> bool {
        self.max_bytes > 0
    }

    /// The byte cap (0 = disabled).
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// The effective window width tables will be built with.
    pub fn window_bits(&self) -> usize {
        if self.window_bits == 0 {
            MULTI_BASE_DEFAULT_WINDOW_BITS
        } else {
            self.window_bits
        }
    }
}

/// Precomputed [`MultiBaseTable`]s over a session's SRS Lagrange bases,
/// one per covered level, `Arc`-shared like the bases themselves.
///
/// Built by [`CommitTables::build_on`] within a [`PrecomputeBudget`];
/// consumed by [`crate::commit_with_tables_on`] /
/// [`crate::commit_sparse_with_tables_on`] / [`crate::open_with_tables_on`]
/// for every level that has a table. Levels without a table (budget
/// exhausted, or below the build floor) transparently fall back to the
/// table-free engine.
#[derive(Clone, Debug)]
pub struct CommitTables {
    window_bits: usize,
    /// `tables[level]` covers the SRS basis of `2^{μ−level}` points.
    tables: Vec<Option<Arc<MultiBaseTable>>>,
}

/// Levels with fewer bases than this get no table: their MSMs are so small
/// that the table build (255 doublings per base) could never amortize, and
/// the engine's fallback handles them at full precision.
const MIN_TABLE_BASES: usize = 32;

impl CommitTables {
    /// Builds tables for the SRS levels, largest (level 0) first, while the
    /// cumulative table size fits the budget. Returns `None` if the budget
    /// is disabled or too small for even the level-0 table — callers then
    /// keep the table-free path with zero overhead.
    pub fn build_on(srs: &Srs, budget: &PrecomputeBudget, backend: &dyn Backend) -> Option<Self> {
        if !budget.is_enabled() {
            return None;
        }
        let w = budget.window_bits();
        let mut spent: u64 = 0;
        let mut tables: Vec<Option<Arc<MultiBaseTable>>> = Vec::with_capacity(srs.num_vars() + 1);
        for level in 0..=srs.num_vars() {
            let bases = srs.shared_lagrange_basis(level);
            let planned = MultiBaseTable::planned_bytes(bases.len(), w) as u64;
            if bases.len() < MIN_TABLE_BASES || spent.saturating_add(planned) > budget.max_bytes {
                tables.push(None);
                continue;
            }
            spent += planned;
            tables.push(Some(Arc::new(MultiBaseTable::build_on(bases, w, backend))));
        }
        // A budget too small for the level-0 table precomputes nothing that
        // matters; report "no tables" so callers skip the plumbing.
        tables[0].is_some().then_some(Self {
            window_bits: w,
            tables,
        })
    }

    /// The table covering `level` of the SRS, if built.
    pub fn level(&self, level: usize) -> Option<&Arc<MultiBaseTable>> {
        self.tables.get(level).and_then(Option::as_ref)
    }

    /// The window width all tables share.
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// Number of levels with a built table.
    pub fn levels_covered(&self) -> usize {
        self.tables.iter().filter(|t| t.is_some()).count()
    }

    /// Total in-memory size of the built tables in bytes.
    pub fn size_in_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .map(|t| t.size_in_bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn srs() -> Srs {
        let mut rng = StdRng::seed_from_u64(0x5eed_0099);
        Srs::setup(7, &mut rng)
    }

    #[test]
    fn disabled_budget_builds_nothing() {
        let srs = srs();
        assert!(CommitTables::build_on(&srs, &PrecomputeBudget::default(), &Serial).is_none());
        assert!(!PrecomputeBudget::default().is_enabled());
    }

    #[test]
    fn unlimited_budget_covers_all_large_levels() {
        let srs = srs();
        let tables = CommitTables::build_on(&srs, &PrecomputeBudget::unlimited(), &Serial)
            .expect("unlimited budget builds");
        // Levels 0, 1, 2 have 128/64/32 bases (≥ the 32-base floor);
        // levels 3..=7 are below it.
        assert_eq!(tables.levels_covered(), 3);
        assert!(tables.level(0).is_some());
        assert!(tables.level(2).is_some());
        assert!(tables.level(3).is_none());
        assert!(tables.level(99).is_none());
        assert_eq!(tables.window_bits(), MULTI_BASE_DEFAULT_WINDOW_BITS);
        let expected: u64 = (0..=2)
            .map(|l| {
                MultiBaseTable::planned_bytes(1 << (7 - l), MULTI_BASE_DEFAULT_WINDOW_BITS) as u64
            })
            .sum();
        assert_eq!(tables.size_in_bytes(), expected);
        // Level tables cover exactly their basis.
        assert_eq!(tables.level(1).unwrap().num_bases(), 64);
        assert_eq!(tables.level(0).unwrap().base(5), &srs.lagrange_basis(0)[5]);
    }

    #[test]
    fn budget_caps_the_covered_levels() {
        let srs = srs();
        let w = MULTI_BASE_DEFAULT_WINDOW_BITS;
        let level0 = MultiBaseTable::planned_bytes(128, w) as u64;
        // Exactly level 0 fits; level 1 would exceed the cap.
        let budget = PrecomputeBudget::disabled().with_max_bytes(level0);
        let tables = CommitTables::build_on(&srs, &budget, &Serial).expect("level 0 fits");
        assert_eq!(tables.levels_covered(), 1);
        assert!(tables.level(0).is_some());
        assert!(tables.level(1).is_none());
        // A cap below the level-0 table builds nothing at all.
        let tiny = PrecomputeBudget::disabled().with_max_bytes(level0 - 1);
        assert!(CommitTables::build_on(&srs, &tiny, &Serial).is_none());
    }

    #[test]
    fn explicit_window_bits_are_honored() {
        let srs = srs();
        let budget = PrecomputeBudget::unlimited().with_window_bits(8);
        let tables = CommitTables::build_on(&srs, &budget, &Serial).expect("builds");
        assert_eq!(tables.window_bits(), 8);
        assert_eq!(tables.level(0).unwrap().window_bits(), 8);
    }
}
