//! Fault injection at solve-phase boundaries.
//!
//! The pipeline calls [`enter`] at the start of every phase (compilation, invariant
//! analysis, encoding, and each LP stage). In production that is one relaxed atomic
//! load and a thread-local store; under `DCA_FAULT=<phase>:<kind>[:<nth>]` the `nth`
//! entry into `<phase>` (1-based, default 1) triggers `<kind>`:
//!
//! * `panic` — panics right there, exercising the batch engine's containment;
//! * `deadline` — reports simulated budget exhaustion, which the caller translates
//!   into cancelling its [`Deadline`](crate::Deadline), exercising the real
//!   cooperative-cancellation path;
//! * `numeric` — reports a forced numeric rejection; the LP driver treats the current
//!   float result as uncertifiable and falls back to exact arithmetic, which must
//!   still produce the fault-free answer.
//!
//! The thread-local phase marker doubles as the crash-site record: when a worker's
//! `catch_unwind` fires, [`current_phase`] names the phase that was running.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// The phases of one differential-cost solve, in pipeline order. Used both as fault
/// injection points and as the `phase` of timeout/panic error reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolvePhase {
    /// Parsing and lowering the two program sources.
    Compile,
    /// Numeric invariant analysis over the lowered transition systems.
    Invariants,
    /// Handelman encoding of the potential/anti-potential constraint system.
    Encode,
    /// The `f64` phase of the float-first LP driver.
    LpFloat,
    /// Exact-rational certification of a proposed basis.
    LpCertify,
    /// The uncapped exact simplex run after a rejected or undecided float phase.
    LpRepair,
    /// A stage of lazy-column row generation (core, then full).
    LpRowGen,
}

impl SolvePhase {
    /// All phases, in pipeline order (the fault-injection test matrix iterates this).
    pub const ALL: [SolvePhase; 7] = [
        SolvePhase::Compile,
        SolvePhase::Invariants,
        SolvePhase::Encode,
        SolvePhase::LpFloat,
        SolvePhase::LpCertify,
        SolvePhase::LpRepair,
        SolvePhase::LpRowGen,
    ];

    /// The stable machine-readable name (used in `DCA_FAULT`, JSON rows and errors).
    pub fn as_str(self) -> &'static str {
        match self {
            SolvePhase::Compile => "compile",
            SolvePhase::Invariants => "invariants",
            SolvePhase::Encode => "encode",
            SolvePhase::LpFloat => "lp-float",
            SolvePhase::LpCertify => "lp-certify",
            SolvePhase::LpRepair => "lp-repair",
            SolvePhase::LpRowGen => "lp-rowgen",
        }
    }

    /// Parses a phase name as spelled by [`SolvePhase::as_str`].
    pub fn parse(name: &str) -> Option<SolvePhase> {
        SolvePhase::ALL.into_iter().find(|p| p.as_str() == name)
    }
}

impl std::fmt::Display for SolvePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an injected fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the phase boundary.
    Panic,
    /// Simulated deadline exhaustion (the caller cancels its `Deadline`).
    Deadline,
    /// Forced numeric rejection (the LP driver discards the float result).
    Numeric,
}

impl FaultKind {
    /// The spelling used in `DCA_FAULT`.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Deadline => "deadline",
            FaultKind::Numeric => "numeric",
        }
    }

    /// Parses a kind name as spelled by [`FaultKind::as_str`].
    pub fn parse(name: &str) -> Option<FaultKind> {
        [FaultKind::Panic, FaultKind::Deadline, FaultKind::Numeric]
            .into_iter()
            .find(|k| k.as_str() == name)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parsed `DCA_FAULT` directive: trigger `kind` on the `nth` entry into `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The phase whose boundary triggers the fault.
    pub phase: SolvePhase,
    /// What to inject.
    pub kind: FaultKind,
    /// Which entry into the phase triggers (1-based; 1 = the first).
    pub nth: usize,
}

impl FaultSpec {
    /// Parses `<phase>:<kind>[:<nth>]` (the `DCA_FAULT` syntax).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut parts = spec.split(':');
        let phase = parts
            .next()
            .and_then(SolvePhase::parse)
            .ok_or_else(|| format!("DCA_FAULT: unknown phase in {spec:?}"))?;
        let kind = parts
            .next()
            .and_then(FaultKind::parse)
            .ok_or_else(|| format!("DCA_FAULT: unknown kind in {spec:?}"))?;
        let nth = match parts.next() {
            None => 1,
            Some(n) => n
                .parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("DCA_FAULT: invalid nth in {spec:?}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("DCA_FAULT: trailing fields in {spec:?}"));
        }
        Ok(FaultSpec { phase, kind, nth })
    }
}

/// The armed fault plus its hit counter (how many times its phase was entered).
struct Armed {
    spec: FaultSpec,
    hits: AtomicUsize,
}

/// The installed fault, if any. Process-global: `DCA_FAULT` is read once on first
/// use; tests overwrite it through [`install`] (serially — the harness's fault
/// matrix runs in one test function).
static ARMED: RwLock<Option<Armed>> = RwLock::new(None);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Arms the fault named by `DCA_FAULT`, once per process; later calls do nothing.
/// [`enter`] calls it on first use, and the batch engine and the serve loops call it
/// before their first pair or request, so a bad spec is caught before anything runs.
///
/// A malformed (or empty) spec prints one message naming it and exits the process
/// with code 2. A mistyped injection must not be a silent no-op — the harness would
/// read a green matrix that never injected anything — nor a panic, which every
/// later phase entry would repeat and the containment would report per pair.
pub fn arm_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(value) = std::env::var("DCA_FAULT") {
            match FaultSpec::parse(&value) {
                Ok(spec) => install(Some(spec)),
                Err(message) => {
                    eprintln!("error: {message}");
                    std::process::exit(2);
                }
            }
        }
    });
}

/// Installs (or clears) the armed fault, resetting its hit counter. Public for the
/// fault-matrix tests; production arms itself from `DCA_FAULT` instead.
pub fn install(spec: Option<FaultSpec>) {
    let mut armed = ARMED.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    *armed = spec.map(|spec| Armed { spec, hits: AtomicUsize::new(0) });
}

/// `true` once the armed fault has fired (its phase reached its `nth` entry). The
/// fault-matrix tests use this to tell "the cell passed" apart from "the fault never
/// triggered because the targeted phase was never entered" (e.g. `lp-repair` on an
/// instance whose first basis certifies cleanly).
pub fn triggered() -> bool {
    let armed = ARMED.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    armed
        .as_ref()
        .is_some_and(|armed| armed.hits.load(Ordering::Relaxed) >= armed.spec.nth)
}

thread_local! {
    static CURRENT_PHASE: Cell<SolvePhase> = const { Cell::new(SolvePhase::Compile) };
}

/// The phase this thread most recently entered (the crash site, when a panic is
/// caught). Defaults to [`SolvePhase::Compile`], the first phase of every solve.
pub fn current_phase() -> SolvePhase {
    CURRENT_PHASE.with(Cell::get)
}

/// Marks the start of `phase` on this thread and returns the fault to inject, if the
/// armed `DCA_FAULT` directive names this phase and this is its `nth` entry.
/// [`FaultKind::Panic`] is executed here; the other kinds are returned for the
/// caller to simulate (cancel the deadline / reject the float result).
pub fn enter(phase: SolvePhase) -> Option<FaultKind> {
    CURRENT_PHASE.with(|current| current.set(phase));
    arm_from_env();
    let armed = ARMED.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    let armed = armed.as_ref()?;
    if armed.spec.phase != phase {
        return None;
    }
    let hit = armed.hits.fetch_add(1, Ordering::Relaxed) + 1;
    if hit != armed.spec.nth {
        return None;
    }
    if armed.spec.kind == FaultKind::Panic {
        panic!("injected fault: panic at phase {phase}");
    }
    Some(armed.spec.kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(
            FaultSpec::parse("lp-repair:deadline"),
            Ok(FaultSpec {
                phase: SolvePhase::LpRepair,
                kind: FaultKind::Deadline,
                nth: 1
            })
        );
        assert_eq!(
            FaultSpec::parse("encode:panic:3"),
            Ok(FaultSpec { phase: SolvePhase::Encode, kind: FaultKind::Panic, nth: 3 })
        );
        assert!(FaultSpec::parse("bogus:panic").is_err());
        assert!(FaultSpec::parse("encode:bogus").is_err());
        assert!(FaultSpec::parse("encode:panic:0").is_err());
        assert!(FaultSpec::parse("encode:panic:1:extra").is_err());
        for phase in SolvePhase::ALL {
            assert_eq!(SolvePhase::parse(phase.as_str()), Some(phase));
        }
    }

    #[test]
    fn entering_a_phase_records_it_for_the_crash_report() {
        // No fault is installed in the test process, so `enter` is marker-only.
        assert_eq!(enter(SolvePhase::LpCertify), None);
        assert_eq!(current_phase(), SolvePhase::LpCertify);
        assert_eq!(enter(SolvePhase::Compile), None);
        assert_eq!(current_phase(), SolvePhase::Compile);
    }
}
