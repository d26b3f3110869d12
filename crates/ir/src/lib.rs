//! Program model for the diffcost analyzer: integer transition systems.
//!
//! Programs are modelled exactly as in Section 3 of the paper: a *transition system*
//! `T = (L, V, →, ℓ0, Θ0)` with
//!
//! * a finite set of locations `L` (with a distinguished terminal location `ℓ_out`),
//! * a finite set of integer program variables `V` containing the special `cost` variable,
//! * transitions `(ℓ, ℓ', G, Up)` whose guards `G` are conjunctions of affine
//!   inequalities and whose updates `Up` map each variable to a polynomial over `V` or to
//!   a non-deterministic value,
//! * an initial location `ℓ0` and a set of initial valuations `Θ0` given by a conjunction
//!   of affine inequalities (with `cost = 0`).
//!
//! Besides the data structures, the crate provides a reference [`Interpreter`] and an
//! exhaustive [`CostExplorer`] used by the test-suite and by the result verifier to check
//! computed thresholds against concrete executions.
//!
//! # Example
//!
//! ```
//! use dca_ir::{TsBuilder, Update};
//! use dca_poly::{LinExpr, Polynomial};
//! use dca_numeric::Rational;
//!
//! // while (i < n) { i++; cost++ }
//! let mut b = TsBuilder::new();
//! let i = b.var("i");
//! let n = b.var("n");
//! let cost = b.cost_var();
//! let head = b.location("head");
//! b.set_initial(head);
//! b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));      // n >= 1
//! b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));    // n <= 100
//! b.add_theta0_eq(LinExpr::var(i));                          // i == 0
//! let out = b.terminal();
//! // loop transition: guard i <= n - 1, update i' = i + 1, cost' = cost + 1
//! b.transition(head, head)
//!     .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
//!     .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
//!     .update(cost, Update::assign(Polynomial::var(cost) + Polynomial::from_int(1)))
//!     .finish();
//! // exit transition: guard i >= n
//! b.transition(head, out)
//!     .guard(LinExpr::var(i) - LinExpr::var(n))
//!     .finish();
//! let ts = b.build().unwrap();
//! assert_eq!(ts.locations().len(), 2);
//! # let _ = Rational::one();
//! ```

mod explore;
pub mod fingerprint;
mod generate;
mod interp;
mod loops;
mod rng;
mod split;
mod state;
mod system;

pub use explore::{enumerate_box, sample_initial_states, CostBounds, CostExplorer};
pub use fingerprint::{canonical_form, location_fingerprints};
pub use generate::{
    generate_pair, GeneratedPair, PairKind, ShapeParams, MAX_BLOCK_STATEMENTS,
};
pub use loops::{BackEdge, LoopNest};
pub use rng::SmallRng;
pub use split::{detect_phase_splits, split_phases, PhaseSplit, SplitSystem};
pub use interp::{FixedOracle, Interpreter, NondetOracle, RandomOracle, RunOutcome, RunResult};
pub use state::{
    eval_polynomial, eval_polynomial_int, satisfies, satisfies_all, to_rational_valuation,
    IntValuation, State,
};
pub use system::{
    LocId, Transition, TransitionBuilder, TransitionSystem, TsBuilder, TsError, Update,
};
