//! Fault-tolerant execution policy and the outcome types it produces.
//!
//! A production service cannot promise a relation for every pair: a pair
//! may panic, or a tenant's deadline may pass. Every pair runs under
//! `catch_unwind`, and [`BatchOutcome`] makes the result honest: one
//! [`PairOutcome`] per requested pair — `Ok`, `Failed`, or `Skipped` —
//! plus a [`CompletionStatus`] for the run as a whole. The accounting
//! invariant `succeeded + failed + skipped == total` always holds.
//! [`RunPolicy`] carries the two things a caller sets: a deadline and a
//! fault plan.
//!
//! With the default policy nothing is ever skipped and results are
//! bit-identical to the naive per-pair loop; the policy only changes what
//! happens when something goes wrong.

use crate::batch::{BatchStats, PairRelation};
use cardir_faults::FaultPlan;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What a batch run may spend and which faults it obeys. The default
/// policy never stops early and carries no fault plan. Each pair runs
/// once under `catch_unwind` whatever the policy: the kernels are
/// deterministic, so a second attempt would compute the same thing.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Wall-clock budget measured from the start of the exact pass;
    /// checked between chunks. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Failpoints this run obeys (`engine.pair.compute`,
    /// `engine.chunk.claim`); `None` injects nothing. Runs under other
    /// plans, or none, never see these faults.
    pub faults: Option<Arc<FaultPlan>>,
}

impl RunPolicy {
    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Runs under `plan`'s failpoints.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Why one pair failed.
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

/// A pair whose one attempt produced no relation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairError {
    /// Index of the primary region in the cache.
    pub primary: usize,
    /// Index of the reference region in the cache.
    pub reference: usize,
    /// What went wrong.
    pub failure: PairFailure,
}

impl fmt::Display for PairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pair ({}, {}) failed: {}",
            self.primary, self.reference, self.failure
        )
    }
}

impl std::error::Error for PairError {}

/// The per-pair slot of a [`BatchOutcome`], in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// Computed successfully — bit-identical to the naive loop.
    Ok(PairRelation),
    /// Failed (a panic or an injected fault).
    Failed(PairError),
    /// Never attempted: the deadline passed before this pair's chunk was
    /// claimed.
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
    /// Every pair was attempted, but some failed (isolated panics or
    /// injected faults).
    PartialPanics,
    /// The deadline passed; unclaimed chunks were skipped.
    DeadlineExceeded,
}

impl fmt::Display for CompletionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompletionStatus::Complete => "complete",
            CompletionStatus::PartialPanics => "partial (isolated failures)",
            CompletionStatus::DeadlineExceeded => "deadline exceeded",
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
    /// Pairs that failed.
    pub failed: usize,
    /// Pairs never attempted (deadline).
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

    /// The failures, in request order.
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
    fn default_policy_is_isolating_and_unbounded() {
        let p = RunPolicy::default();
        assert!(p.deadline.is_none());
        assert!(p.faults.is_none());
    }

    #[test]
    fn displays_are_informative() {
        let err = PairError {
            primary: 3,
            reference: 7,
            failure: PairFailure::Panicked("boom".into()),
        };
        assert_eq!(err.to_string(), "pair (3, 7) failed: panicked: boom");
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
        });
        assert_eq!(failed.indices(), (4, 5));
    }
}
