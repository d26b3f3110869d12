//! Affine invariant generation for transition systems.
//!
//! The synthesis algorithm (Section 5 of the paper) assumes that every location comes
//! with an *affine invariant*: a conjunction of affine inequalities over-approximating
//! the reachable states at that location. The paper obtains these from the off-the-shelf
//! tools Aspic and Sting; this crate provides the equivalent substrate:
//!
//! * [`Polyhedron`] — a conjunction of affine inequalities with emptiness and entailment
//!   checks, Fourier–Motzkin projection, a sound (weak) join and widening. Queries whose
//!   answer follows from the operands' structure are decided exactly without an LP (an
//!   entailment `expr ≥ 0` where `expr − c` is a non-negative constant for a conjunct
//!   `c`; the non-emptiness of a join, widening or affine image of a nonempty operand).
//!   Every other emptiness and entailment check is exact with no tolerance,
//!   including [`Polyhedron::is_empty`], the encoder's pruning verdict. One analysis
//!   keeps one exact LP session per constraint list: a query it already decided is
//!   recalled, a known exact point of the polyhedron refutes an entailment or
//!   proves non-emptiness, and only the rest run an exact LP, warm-started from
//!   the session's last basis;
//! * [`InvariantAnalysis`] — a forward abstract-interpretation fixpoint over a
//!   [`TransitionSystem`](dca_ir::TransitionSystem) producing an [`InvariantMap`].
//!   Widening fires only along the back edges reported by [`dca_ir::LoopNest`], so
//!   facts established before a loop (or by an earlier loop) survive into it.
//!   [`InvariantMap::lp_queries`] counts the exact LPs the analysis solved
//!   (recalled and point-decided queries are not LPs);
//! * support for merging user-supplied invariants, mirroring the paper's manual
//!   strengthening of the `*`-marked benchmarks.
//!
//! The produced invariants are *sound over-approximations*: every reachable state
//! satisfies them. Soundness of the differential-cost result only depends on this
//! property (Theorem 5.1), not on their precision; precision decides which thresholds
//! the Handelman certificates can reach.
//!
//! # Example
//!
//! ```
//! use dca_invariants::InvariantAnalysis;
//! use dca_ir::{TsBuilder, Update};
//! use dca_poly::{LinExpr, Polynomial};
//!
//! // while (i < n) { i++; cost++ } with 1 <= n <= 100, i = 0 initially.
//! let mut b = TsBuilder::new();
//! let i = b.var("i");
//! let n = b.var("n");
//! let head = b.location("head");
//! let out = b.terminal();
//! b.set_initial(head);
//! b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
//! b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));
//! b.add_theta0_eq(LinExpr::var(i));
//! b.transition(head, head)
//!     .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
//!     .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
//!     .tick(1)
//!     .finish();
//! b.transition(head, out).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
//! let ts = b.build().unwrap();
//!
//! let invariants = InvariantAnalysis.analyze(&ts);
//! // The loop-head invariant entails i >= 0.
//! assert!(invariants.entails(head, &LinExpr::var(i)));
//! ```

#![deny(missing_docs)]

mod analysis;
mod polyhedron;
mod queries;

pub use analysis::{InvariantAnalysis, InvariantMap};
pub use polyhedron::{interval, Polyhedron};
