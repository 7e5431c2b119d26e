//! Global (thread-local) modular-multiplication counters.
//!
//! Table 1 of the zkSpeed paper characterizes every HyperPlonk kernel by its
//! modmul count and arithmetic intensity. Because every field multiplication
//! in this repository funnels through the Montgomery multipliers generated by
//! [`impl_montgomery_field!`], counting them here gives exact per-kernel
//! modmul counts: the profiling harness resets the counters around each
//! protocol step and reads them back afterwards.
//!
//! The counters are thread-local, so concurrent tests do not interfere. A
//! count is exact only for work that runs on the calling thread: multiplies
//! done by pool workers land in the workers' counters. Profile on the
//! [`Serial`] backend or under [`with_threads(1, …)`] — as
//! `zkspeed_hyperplonk::profile_kernels` does — when every modmul must be
//! seen.
//!
//! [`Serial`]: zkspeed_rt::pool::Serial
//! [`with_threads(1, …)`]: zkspeed_rt::par::with_threads
//! [`impl_montgomery_field!`]: crate::impl_montgomery_field

use core::cell::Cell;

thread_local! {
    static FR_MULS: Cell<u64> = const { Cell::new(0) };
    static FQ_MULS: Cell<u64> = const { Cell::new(0) };
}

/// Records one modular multiplication for a field with the given limb count
/// (4 limbs = 255-bit Fr, 6 limbs = 381-bit Fq).
#[doc(hidden)]
#[inline]
pub fn record(limbs: usize) {
    if limbs == 4 {
        FR_MULS.with(|c| c.set(c.get() + 1));
    } else {
        FQ_MULS.with(|c| c.set(c.get() + 1));
    }
}

/// A snapshot of the modmul counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ModmulCount {
    /// 255-bit (Fr) Montgomery multiplications.
    pub fr: u64,
    /// 381-bit (Fq) Montgomery multiplications.
    pub fq: u64,
}

impl ModmulCount {
    /// Total multiplications of either width.
    pub fn total(&self) -> u64 {
        self.fr + self.fq
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &ModmulCount) -> ModmulCount {
        ModmulCount {
            fr: self.fr - earlier.fr,
            fq: self.fq - earlier.fq,
        }
    }
}

/// Reads the current thread's counters.
pub fn modmul_count() -> ModmulCount {
    ModmulCount {
        fr: FR_MULS.with(Cell::get),
        fq: FQ_MULS.with(Cell::get),
    }
}

/// Resets the current thread's counters to zero.
pub fn reset_modmul_count() {
    FR_MULS.with(|c| c.set(0));
    FQ_MULS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fq, Fr};

    #[test]
    fn counters_track_multiplications() {
        reset_modmul_count();
        let before = modmul_count();
        let a = Fr::from_u64(3); // from_u64 costs one Fr mul (by R²)
        let b = Fr::from_u64(5);
        let _ = a * b;
        let x = Fq::from_u64(7);
        let _ = x * x;
        let after = modmul_count();
        let delta = after.since(&before);
        assert!(delta.fr >= 3, "expected ≥3 Fr muls, got {}", delta.fr);
        assert!(delta.fq >= 2, "expected ≥2 Fq muls, got {}", delta.fq);
        assert_eq!(delta.total(), delta.fr + delta.fq);
        reset_modmul_count();
        assert_eq!(modmul_count(), ModmulCount::default());
    }
}
