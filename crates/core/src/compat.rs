//! The last traces of the removed invariant tiers, kept for the repository
//! benchmark.
//!
//! The invariant engine has one precision level. The benchmark harness in
//! `diffbench/` is built against the public API and still names the tier it
//! analyzes at, so this module keeps exactly what it uses: the one-value
//! [`InvariantTier`] (the type of [`AnalysisOptions::invariant_tier`]) and two
//! `*_at_tier` forwards on [`AnalyzedProgram`]. None of it selects anything.
//! It goes with the benchmark change of ROADMAP item 5, which moves the harness
//! to [`AnalyzedProgram::from_lowered`] and [`AnalyzedProgram::split_phases`].
//!
//! [`AnalysisOptions::invariant_tier`]: crate::AnalysisOptions::invariant_tier

use dca_lang::LoweredProgram;

use crate::program::AnalyzedProgram;

/// The invariant engine's precision level: there is only the one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantTier {
    /// The invariant engine of [`dca_invariants::InvariantAnalysis`].
    Baseline,
}

impl AnalyzedProgram {
    /// Forwards to [`AnalyzedProgram::from_lowered`].
    pub fn from_lowered_at_tier(lowered: &LoweredProgram, _tier: InvariantTier) -> AnalyzedProgram {
        AnalyzedProgram::from_lowered(lowered)
    }

    /// Forwards to [`AnalyzedProgram::split_phases`].
    pub fn split_phases_at_tier(&self, _tier: InvariantTier) -> Option<(AnalyzedProgram, usize)> {
        self.split_phases()
    }
}
