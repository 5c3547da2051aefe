//! Process-global counter of edge-list flattenings.
//!
//! [`Polygon::edges`](crate::Polygon::edges) and
//! [`Region::edges`](crate::Region::edges) materialise `Segment`s from
//! the stored vertex lists on every call — cheap once, expensive when a
//! batch engine does it per *pair*. The engine caches flattened edges in
//! struct-of-arrays form precisely so its exact loops never call these
//! constructors again; this counter makes that claim checkable: a test
//! snapshots [`events`] around an exact pass and asserts the delta is
//! zero. Same pattern as [`crate::robust::stats`] — a relaxed atomic the
//! hot path bumps for a few cycles, drained as a delta by the telemetry
//! export point in the engine crate.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Records one flattening (an edge-iterator construction).
#[inline]
pub(crate) fn record() {
    EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Total `Polygon::edges` / `Region::edges` iterator constructions since
/// process start. Monotone; consumers diff two snapshots.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use crate::Polygon;

    #[test]
    fn edge_iterators_are_counted() {
        let p = Polygon::from_coords([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]).unwrap();
        let before = super::events();
        let n = p.edges().count();
        assert_eq!(n, 4);
        assert!(
            super::events() > before,
            "Polygon::edges must record a flatten event"
        );
    }
}
