//! Analysis-as-a-service: the persistent `dca serve` daemon.
//!
//! The daemon keeps a [`ProgramCache`](dca_core::ProgramCache) (hash-consed
//! compilation + invariant analysis) and a [`SolveCache`](dca_core::SolveCache)
//! (certified results keyed by structural pair fingerprint) alive across requests,
//! so repeated program-pair queries are answered pivot-free from the cache and
//! *edited* pairs re-solve from the nearest cached basis instead of from scratch.
//! A repeat copies nothing: both caches hand out their entries behind an
//! [`Arc`](std::sync::Arc), and every cache key (canonical form, fingerprints) was
//! computed once, when its program was compiled, so a hit costs about a
//! microsecond on a small pair (its `"seconds"` prints as, e.g., `0.0000012`).
//!
//! The protocol is line-delimited JSON over TCP or stdin/stdout — one request per
//! line in, one or more frames per line out (see [`protocol`]); there are no
//! external crates, the [`json`] module hand-rolls the parsing. Long solves can
//! stream incremental anytime frames (`{upper, lower, gap}`, reported by the
//! running exact simplex of the request's one solve) before the final result.
//!
//! Fault isolation is the batch engine's own: a request compiles through
//! [`dca_core::batch::compile_contained`] (entering the compile phase, so
//! `DCA_FAULT=compile:*` and crash-site attribution work as in a batch) and runs
//! its one solve, streamed or not, through [`dca_core::batch::contained`],
//! under a [scoped](dca_lp::Deadline::scoped) child of the daemon deadline. One
//! poisoned request reports an error frame while the daemon — and every
//! concurrent sibling request — keeps running.

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod json;
pub mod protocol;
pub mod server;

pub use engine::Engine;
pub use protocol::{AnalyzeRequest, Frame, Request, ResultFrame};
pub use server::{serve_connection, serve_stdio, serve_tcp};
