//! A program prepared for analysis: transition system plus invariants.

use dca_invariants::{InvariantAnalysis, InvariantMap};
use dca_ir::{LocId, TransitionSystem};
use dca_lang::LoweredProgram;
use dca_poly::LinExpr;

/// A transition system bundled with the affine invariants the synthesis consumes.
///
/// This corresponds to the input the paper's algorithm expects: the program model plus
/// the invariants produced by an off-the-shelf generator (Aspic/Sting in the paper, the
/// [`dca_invariants`] crate here), optionally strengthened by user annotations.
///
/// The program remembers the user annotations it was strengthened with, so the
/// phase-split copy (see [`AnalyzedProgram::split_phases`]) keeps them.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The transition system.
    pub ts: TransitionSystem,
    /// Affine invariants, one conjunction per location.
    pub invariants: InvariantMap,
    /// `invariant(...)` source annotations, replayed onto the phase-split copies.
    annotations: Vec<(LocId, Vec<LinExpr>)>,
}

impl AnalyzedProgram {
    /// Runs invariant generation on a transition system.
    pub fn from_ts(ts: TransitionSystem) -> AnalyzedProgram {
        let invariants = InvariantAnalysis.analyze(&ts);
        AnalyzedProgram { ts, invariants, annotations: Vec::new() }
    }

    /// Runs invariant generation on a lowered program and conjoins its `invariant(...)`
    /// annotations (mirroring the manual strengthening of the paper's `*` benchmarks).
    pub fn from_lowered(lowered: &LoweredProgram) -> AnalyzedProgram {
        let mut analyzed = AnalyzedProgram::from_ts(lowered.ts.clone());
        analyzed.annotations = lowered.annotations.clone();
        analyzed.apply_annotations();
        analyzed
    }

    /// Parses, lowers and analyzes a source program in one step.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if parsing or lowering fails.
    pub fn from_source(source: &str) -> Result<AnalyzedProgram, String> {
        let lowered = dca_lang::compile(source)?;
        Ok(AnalyzedProgram::from_lowered(&lowered))
    }

    fn apply_annotations(&mut self) {
        for (loc, constraints) in &self.annotations {
            self.invariants.strengthen(*loc, constraints);
        }
    }

    /// Applies loop-phase splitting ([`dca_ir::split_phases`]) to this program and
    /// re-analyzes the split system, so every phase copy gets its own invariants
    /// (and, downstream, its own potential template).
    ///
    /// Source `invariant(...)` annotations are replayed onto *every* phase copy of
    /// their location: an annotation holds at a location of the original system,
    /// and each copy only sees a subset of the runs that reach that location.
    ///
    /// Returns the split program together with the number of loop splits applied,
    /// or `None` when the program has no detectable phase structure.
    pub fn split_phases(&self) -> Option<(AnalyzedProgram, usize)> {
        let split = dca_ir::split_phases(&self.ts)?;
        let splits = split.splits.len();
        let annotations: Vec<(LocId, Vec<LinExpr>)> = self
            .annotations
            .iter()
            .flat_map(|(loc, constraints)| {
                split
                    .copies_of(*loc)
                    .iter()
                    .map(|copy| (*copy, constraints.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut analyzed = AnalyzedProgram::from_ts(split.ts);
        analyzed.annotations = annotations;
        analyzed.apply_annotations();
        Some((analyzed, splits))
    }

    /// The program name (from the `proc` declaration or the builder).
    pub fn name(&self) -> &str {
        self.ts.name()
    }

    /// The canonical, display-name-independent rendering this program is
    /// fingerprinted from: the transition system's [`dca_ir::canonical_form`]
    /// followed by the source annotations. Invariants are a deterministic function
    /// of this form, so it identifies the analyzed program too.
    pub fn canonical_form(&self) -> String {
        use std::fmt::Write as _;
        let mut out = dca_ir::canonical_form(&self.ts);
        for (loc, constraints) in &self.annotations {
            let rendered: Vec<String> =
                constraints.iter().map(|c| c.to_string(self.ts.pool())).collect();
            let _ = writeln!(out, "inv@{loc}:{}", rendered.join(" /\\ "));
        }
        out
    }

    /// A stable 64-bit structural fingerprint (FNV-1a of
    /// [`canonical_form`](AnalyzedProgram::canonical_form)). Equal programs always
    /// collide; unequal programs collide with negligible but nonzero probability,
    /// so cache layers verify the canonical strings on every hit.
    pub fn fingerprint(&self) -> u64 {
        dca_ir::fingerprint::fnv1a(self.canonical_form().as_bytes())
    }

    /// Per-location structural sub-fingerprints (indexed by [`LocId`] index): the
    /// transition system's location fingerprints, each folded with the source
    /// annotations attached to that location. A location with an unchanged
    /// sub-fingerprint between two programs contributes identical constraints to
    /// the encoding, which is what lets a near-repeat query re-solve from its
    /// ancestor's basis and re-derive only the edited locations' rows.
    pub fn location_fingerprints(&self) -> Vec<u64> {
        let mut fps = dca_ir::fingerprint_system(&self.ts).locations;
        for (loc, constraints) in &self.annotations {
            if let Some(fp) = fps.get_mut(loc.index()) {
                for c in constraints {
                    *fp = dca_ir::fingerprint::fnv1a_extend(
                        *fp,
                        c.to_string(self.ts.pool()).as_bytes(),
                    );
                }
            }
        }
        fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::LinExpr;

    const SOURCE: &str = r#"
        proc count(n) {
            assume(n >= 1 && n <= 100);
            i = 0;
            while (i < n) invariant(i >= 0) { tick(1); i = i + 1; }
        }
    "#;

    #[test]
    fn from_source_produces_invariants() {
        let analyzed = AnalyzedProgram::from_source(SOURCE).unwrap();
        assert_eq!(analyzed.name(), "count");
        let n = analyzed.ts.pool().lookup("n").unwrap();
        // Every reachable location must know n >= 1.
        for loc in analyzed.ts.locations() {
            let invariant = analyzed.invariants.at(loc);
            if !invariant.is_bottom() && loc != analyzed.ts.initial() {
                assert!(
                    invariant.entails(&(LinExpr::var(n) - LinExpr::from_int(1))),
                    "location {} misses n >= 1",
                    analyzed.ts.location_name(loc)
                );
            }
        }
    }

    #[test]
    fn from_source_reports_errors() {
        assert!(AnalyzedProgram::from_source("proc broken {").is_err());
        assert!(AnalyzedProgram::from_source("proc f(n) { x = nondet() * 2; }").is_err());
    }
}
