//! Shared solve deadlines with cooperative cancellation.
//!
//! A [`Deadline`] pairs an optional wall-clock cutoff with an atomic cancel flag that
//! is *shared across clones*: a solver hands the same flag to every phase of a
//! solve (invariant analysis, encoding, and each LP loop), so a single [`cancel`]
//! call — or the clock running out — stops all of them within one polling stride.
//! Polling is a relaxed atomic load plus (at most) one `Instant::now()` call, cheap
//! enough for the inner simplex loops to check every few dozen pivots.
//!
//! [`cancel`]: Deadline::cancel

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock cutoff plus a shared cancellation flag.
///
/// Clones share the flag but carry the cutoff by value, so a clone can be
/// [tightened](Deadline::tightened) for a sub-task while external cancellation still
/// reaches it. A [scoped](Deadline::scoped) child owns a *fresh* flag but keeps
/// observing its parent's: the serve daemon hands each request a scoped child of its
/// shutdown deadline, so cancelling one request's solve leaves its siblings running
/// while a shutdown still stops everything.
#[derive(Debug, Clone)]
pub struct Deadline {
    at: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    parent: Option<Box<Deadline>>,
}

impl Deadline {
    /// A deadline that never expires on its own (it can still be cancelled).
    pub fn unlimited() -> Deadline {
        Deadline { at: None, cancelled: Arc::new(AtomicBool::new(false)), parent: None }
    }

    /// A deadline expiring at the given instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at), cancelled: Arc::new(AtomicBool::new(false)), parent: None }
    }

    /// A deadline expiring `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline::at(Instant::now() + budget)
    }

    /// This deadline's cutoff instant, if it has one.
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// A copy sharing this deadline's cancel flag whose cutoff is the *earlier* of
    /// the two (`None` keeps the existing cutoff). A solve's time budget, or a serve
    /// request's budget, tightens a shared deadline this way.
    pub fn tightened(&self, at: Option<Instant>) -> Deadline {
        let at = match (self.at, at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Deadline { at, cancelled: Arc::clone(&self.cancelled), parent: self.parent.clone() }
    }

    /// A child with the same cutoff but its *own* cancel flag, still observing this
    /// deadline's cancellation (transitively). Cancelling the child stops only the
    /// work polling it; cancelling `self` stops the child too. The serve daemon
    /// scopes its shutdown deadline per request this way, so one request's
    /// cancellation — fault-injected or otherwise — cannot take down its siblings.
    pub fn scoped(&self) -> Deadline {
        Deadline {
            at: self.at,
            cancelled: Arc::new(AtomicBool::new(false)),
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Requests cooperative cancellation: every clone sharing this flag — and every
    /// [scoped](Deadline::scoped) descendant — reports [`expired`](Deadline::expired)
    /// from now on. Parents and siblings are unaffected.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once this deadline (or a deadline it is [scoped](Deadline::scoped)
    /// under) was cancelled, or its cutoff has passed. This is the poll the
    /// long-running loops call; the cancel-flag loads come first so a cancelled
    /// solve stops without touching the clock.
    pub fn expired(&self) -> bool {
        self.is_cancelled() || self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// This deadline's flag, or any ancestor's (the chain is at most two deep in
    /// practice: daemon deadline → per-request scope).
    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|parent| parent.is_cancelled())
    }

    /// Time left until the cutoff (`None` = unlimited; zero once expired or
    /// cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.is_cancelled() {
            return Some(Duration::ZERO);
        }
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }
}

impl Default for Deadline {
    fn default() -> Deadline {
        Deadline::unlimited()
    }
}

/// Deadlines compare by cutoff only: the cancel flag is runtime state, not identity.
impl PartialEq for Deadline {
    fn eq(&self, other: &Deadline) -> bool {
        self.at == other.at
    }
}
impl Eq for Deadline {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires_until_cancelled() {
        let deadline = Deadline::unlimited();
        assert!(!deadline.expired());
        assert_eq!(deadline.remaining(), None);
        deadline.cancel();
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn clones_share_the_cancel_flag() {
        let deadline = Deadline::after(Duration::from_secs(3600));
        let clone = deadline.clone();
        assert!(!clone.expired());
        deadline.cancel();
        assert!(clone.expired(), "cancellation must reach every clone");
    }

    #[test]
    fn past_cutoff_expires() {
        let deadline = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn scoped_children_isolate_their_cancellation_but_observe_the_parent() {
        let batch = Deadline::unlimited();
        let job_a = batch.scoped();
        let job_b = batch.scoped();
        // Cancelling one job stops that job only.
        job_a.cancel();
        assert!(job_a.expired());
        assert!(!job_b.expired(), "a sibling's cancellation must not leak");
        assert!(!batch.expired(), "a child's cancellation must not reach the parent");
        // Cancelling the batch stops every job, even through a tightened copy.
        let tightened_b = job_b.tightened(Some(Instant::now() + Duration::from_secs(3600)));
        batch.cancel();
        assert!(job_b.expired());
        assert!(tightened_b.expired(), "tightening must preserve the parent link");
        assert_eq!(job_b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn tightening_keeps_the_earlier_cutoff_and_the_shared_flag() {
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(1);
        let outer = Deadline::at(far);
        let tightened = outer.tightened(Some(near));
        assert_eq!(tightened.instant(), Some(near));
        // Tightening with a *later* cutoff keeps the existing one.
        assert_eq!(outer.tightened(Some(far + Duration::from_secs(1))).instant(), Some(far));
        // `None` leaves the cutoff alone; unlimited adopts the new cutoff.
        assert_eq!(outer.tightened(None).instant(), Some(far));
        assert_eq!(Deadline::unlimited().tightened(Some(near)).instant(), Some(near));
        // The flag is shared through tightening.
        outer.cancel();
        assert!(tightened.expired());
    }
}
