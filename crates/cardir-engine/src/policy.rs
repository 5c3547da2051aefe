//! Fault-tolerant execution policy and the outcome types it produces.
//!
//! A production service cannot promise a relation for every pair: a pair
//! may panic, a tenant's deadline may pass, or the caller may cancel.
//! [`RunPolicy`] makes the failure handling explicit, and
//! [`BatchOutcome`] makes the result honest: one [`PairOutcome`] per
//! requested pair — `Ok`, `Failed`, or `Skipped` — plus a
//! [`CompletionStatus`] for the run as a whole. The accounting invariant
//! `succeeded + failed + skipped == total` always holds.
//!
//! With the default policy nothing is ever skipped and results are
//! bit-identical to the naive per-pair loop; the policy only changes what
//! happens when something goes wrong.

use crate::batch::{BatchStats, PairRelation};
use cardir_faults::FaultPlan;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cooperative cancellation handle: clone it, hand one side to the batch
/// run (via [`RunPolicy::with_cancel`]) and keep the other; calling
/// [`cancel`](CancelToken::cancel) makes workers stop claiming work at
/// the next chunk boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// How a batch run handles faults: panic isolation, bounded retries with
/// deterministic backoff, a wall-clock deadline, and cooperative
/// cancellation. The default policy isolates panics, never retries,
/// never stops early, and carries no fault plan.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Wall-clock budget measured from the start of the exact pass;
    /// checked between chunks. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle, checked between chunks.
    pub cancel: Option<CancelToken>,
    /// Retries per pair after its first failed attempt (so a pair runs at
    /// most `retries + 1` times).
    pub retries: u32,
    /// Base backoff slept before retry `k` (1-based): `backoff · 2^(k−1)`,
    /// exponent capped at [`RunPolicy::BACKOFF_CAP_EXP`]. Deterministic —
    /// no jitter — so seeded tests replay exactly.
    pub backoff: Duration,
    /// Run each pair attempt under `catch_unwind`, converting panics into
    /// [`PairFailure::Panicked`] instead of aborting the batch. Disabling
    /// this restores fail-fast propagation out of the worker scope.
    pub panic_isolation: bool,
    /// Failpoints this run obeys (`engine.pair.compute`,
    /// `engine.chunk.claim`); `None` injects nothing. Runs under other
    /// plans, or none, never see these faults.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            deadline: None,
            cancel: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            panic_isolation: true,
            faults: None,
        }
    }
}

impl RunPolicy {
    /// Cap on the backoff exponent: delays never exceed `backoff · 2^6`.
    pub const BACKOFF_CAP_EXP: u32 = 6;

    /// The default policy (alias for `RunPolicy::default()`).
    pub fn new() -> Self {
        RunPolicy::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the per-pair retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the base backoff duration (use `Duration::ZERO` in tests to
    /// retry without sleeping).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Enables or disables per-pair panic isolation.
    pub fn with_panic_isolation(mut self, isolate: bool) -> Self {
        self.panic_isolation = isolate;
        self
    }

    /// Runs under `plan`'s failpoints.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The deterministic delay before retry `attempt` (1-based):
    /// exponential in the attempt number, capped, no jitter.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(Self::BACKOFF_CAP_EXP);
        self.backoff.saturating_mul(1u32 << exp)
    }
}

/// Why one pair failed permanently (its retry budget included).
#[derive(Debug, Clone, PartialEq)]
pub enum PairFailure {
    /// The computation panicked; the payload message is preserved.
    Panicked(String),
    /// An armed failpoint injected this failure.
    Injected(String),
}

impl fmt::Display for PairFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            PairFailure::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

/// A pair that exhausted its attempts without producing a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairError {
    /// Index of the primary region in the cache.
    pub primary: usize,
    /// Index of the reference region in the cache.
    pub reference: usize,
    /// The final failure (earlier attempts may have failed differently).
    pub failure: PairFailure,
    /// Attempts consumed (1 means the first try failed with no retries).
    pub attempts: u32,
}

impl fmt::Display for PairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pair ({}, {}) failed after {} attempt(s): {}",
            self.primary, self.reference, self.attempts, self.failure
        )
    }
}

impl std::error::Error for PairError {}

/// The per-pair slot of a [`BatchOutcome`], in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// Computed successfully — bit-identical to the naive loop.
    Ok(PairRelation),
    /// Failed permanently (panic, injected fault, or compute error).
    Failed(PairError),
    /// Never attempted: the deadline passed or the run was cancelled
    /// before this pair's chunk was claimed.
    Skipped {
        /// Index of the primary region in the cache.
        primary: usize,
        /// Index of the reference region in the cache.
        reference: usize,
    },
}

impl PairOutcome {
    /// The computed relation, when this pair succeeded.
    pub fn ok(&self) -> Option<&PairRelation> {
        match self {
            PairOutcome::Ok(pr) => Some(pr),
            _ => None,
        }
    }

    /// The `(primary, reference)` indices of this slot, whatever its
    /// outcome.
    pub fn indices(&self) -> (usize, usize) {
        match self {
            PairOutcome::Ok(pr) => (pr.primary, pr.reference),
            PairOutcome::Failed(e) => (e.primary, e.reference),
            PairOutcome::Skipped { primary, reference } => (*primary, *reference),
        }
    }
}

/// How a policy-driven batch run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Every pair computed successfully.
    Complete,
    /// Every pair was attempted, but some failed permanently (isolated
    /// panics or injected faults).
    PartialPanics,
    /// The deadline passed; unclaimed chunks were skipped.
    DeadlineExceeded,
    /// The cancel token fired; unclaimed chunks were skipped.
    Cancelled,
}

impl fmt::Display for CompletionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompletionStatus::Complete => "complete",
            CompletionStatus::PartialPanics => "partial (isolated failures)",
            CompletionStatus::DeadlineExceeded => "deadline exceeded",
            CompletionStatus::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Result of a policy-driven batch run: one outcome per requested pair,
/// in request order, plus completion accounting and the run's stats.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One entry per requested pair, in request order.
    pub pairs: Vec<PairOutcome>,
    /// How the run ended.
    pub status: CompletionStatus,
    /// Pairs that produced a relation.
    pub succeeded: usize,
    /// Pairs that failed permanently.
    pub failed: usize,
    /// Pairs never attempted (deadline/cancel).
    pub skipped: usize,
    /// The run's counters, stage timings, per-worker load and fault
    /// counters.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// `true` when every pair computed successfully.
    pub fn is_complete(&self) -> bool {
        self.status == CompletionStatus::Complete
    }

    /// The successful relations, in request order.
    pub fn relations(&self) -> impl Iterator<Item = &PairRelation> {
        self.pairs.iter().filter_map(PairOutcome::ok)
    }

    /// The permanent failures, in request order.
    pub fn failures(&self) -> impl Iterator<Item = &PairError> {
        self.pairs.iter().filter_map(|p| match p {
            PairOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_round_trip() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones share the flag");
        clone.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn default_policy_is_isolating_and_unbounded() {
        let p = RunPolicy::default();
        assert!(p.panic_isolation);
        assert_eq!(p.retries, 0);
        assert!(p.deadline.is_none());
        assert!(p.cancel.is_none());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RunPolicy::new().with_backoff(Duration::from_millis(2));
        assert_eq!(p.backoff_delay(1), Duration::from_millis(2));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(4));
        assert_eq!(p.backoff_delay(4), Duration::from_millis(16));
        // Exponent caps at 2^6 no matter how many attempts.
        assert_eq!(p.backoff_delay(100), Duration::from_millis(2 * 64));
        let zero = RunPolicy::new().with_backoff(Duration::ZERO);
        assert_eq!(zero.backoff_delay(50), Duration::ZERO);
    }

    #[test]
    fn displays_are_informative() {
        let err = PairError {
            primary: 3,
            reference: 7,
            failure: PairFailure::Panicked("boom".into()),
            attempts: 2,
        };
        let text = err.to_string();
        assert!(text.contains("(3, 7)"), "{text}");
        assert!(text.contains("2 attempt(s)"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert_eq!(
            PairFailure::Injected("x".into()).to_string(),
            "injected fault: x"
        );
        assert_eq!(
            CompletionStatus::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
    }

    #[test]
    fn pair_outcome_accessors() {
        let skipped = PairOutcome::Skipped {
            primary: 1,
            reference: 2,
        };
        assert_eq!(skipped.indices(), (1, 2));
        assert!(skipped.ok().is_none());
        let failed = PairOutcome::Failed(PairError {
            primary: 4,
            reference: 5,
            failure: PairFailure::Injected("f".into()),
            attempts: 1,
        });
        assert_eq!(failed.indices(), (4, 5));
    }
}
