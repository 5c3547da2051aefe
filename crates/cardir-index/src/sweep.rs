//! Plane-sweep interval stabbing: the bulk primitive behind the spatial
//! join.
//!
//! The join has to answer one question for every region pair: does the
//! primary's closed MBB interval (on either axis) contain one of the
//! reference's grid coordinates? Asked pair by pair that is Θ(n²); asked
//! all at once it is a batch *stabbing* problem — `n` closed intervals,
//! `q` query points, report every containment — which one left-to-right
//! sweep answers in `O((n + q)·log(n + q) + K)` where `K` is the number
//! of containments reported.
//!
//! The sweep keeps closed-interval semantics throughout: a point equal
//! to an endpoint *is* contained, zero-width intervals `[v, v]` stab
//! exactly the points equal to `v`, and duplicate coordinates are each
//! reported. That is precisely the conservative contact behaviour the
//! spatial join needs — a box that merely touches a grid line must be
//! routed to the exact pipeline, so the sweep must report the touch.

/// A closed interval `[lo, hi]` on one axis.
///
/// Intervals with `lo > hi` are permitted and contain nothing (the sweep
/// never reports them); NaN endpoints are not supported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint (inclusive).
    pub lo: f64,
    /// Upper endpoint (inclusive).
    pub hi: f64,
}

impl Interval {
    /// A closed interval `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// Closed containment: `lo <= p && p <= hi`.
    #[inline]
    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// Reports every `(interval, point)` containment pair with one sweep:
/// `visit(i, p)` is called exactly once for each `i`, `p` with
/// `intervals[i].contains(points[p])`, grouped by ascending point value
/// (ties in input order); within one point the interval order is
/// unspecified.
///
/// Cost: two interval sorts, one point sort, then `O(1)` amortised per
/// activation/deactivation and `O(1)` per reported containment.
pub fn sweep_stabs<F: FnMut(usize, usize)>(intervals: &[Interval], points: &[f64], visit: &mut F) {
    if intervals.is_empty() || points.is_empty() {
        return;
    }
    debug_assert!(
        intervals.iter().all(|iv| !iv.lo.is_nan() && !iv.hi.is_nan())
            && points.iter().all(|p| !p.is_nan()),
        "sweep_stabs does not support NaN coordinates"
    );
    // Inverted intervals contain nothing, and worse: their `hi` event
    // would retire before their `lo` event activates, leaving them stuck
    // in the active set forever once activated. Drop them up front. The
    // numeric comparison (not total_cmp) is deliberate — it keeps
    // `[0.0, -0.0]`, which contains 0 under closed `<=` containment.
    let live: Vec<u32> = (0..intervals.len() as u32)
        .filter(|&i| intervals[i as usize].lo <= intervals[i as usize].hi)
        .collect();
    let mut by_lo = live.clone();
    by_lo.sort_unstable_by(|&a, &b| intervals[a as usize].lo.total_cmp(&intervals[b as usize].lo));
    let mut by_hi = live;
    by_hi.sort_unstable_by(|&a, &b| intervals[a as usize].hi.total_cmp(&intervals[b as usize].hi));
    let mut pt_order: Vec<u32> = (0..points.len() as u32).collect();
    pt_order.sort_unstable_by(|&a, &b| points[a as usize].total_cmp(&points[b as usize]));

    // Active set as a dense vector plus a position index, so
    // deactivation is O(1) via swap_remove.
    const INACTIVE: u32 = u32::MAX;
    let mut active: Vec<u32> = Vec::new();
    let mut pos: Vec<u32> = vec![INACTIVE; intervals.len()];
    let (mut next_lo, mut next_hi) = (0usize, 0usize);
    for &p_idx in &pt_order {
        let p = points[p_idx as usize];
        // Activate before deactivating: an interval with lo <= p <= hi
        // must be visible at p even if this is the first point past lo.
        // Since lo <= hi for every live interval, an interval due for
        // deactivation (hi < p) has always been activated already.
        while next_lo < by_lo.len() && intervals[by_lo[next_lo] as usize].lo <= p {
            let i = by_lo[next_lo];
            pos[i as usize] = active.len() as u32;
            active.push(i);
            next_lo += 1;
        }
        while next_hi < by_hi.len() && intervals[by_hi[next_hi] as usize].hi < p {
            let i = by_hi[next_hi];
            next_hi += 1;
            let at = pos[i as usize];
            debug_assert_ne!(at, INACTIVE, "live intervals activate before they retire");
            let last = *active.last().expect("an active slot exists at `at`");
            active.swap_remove(at as usize);
            pos[last as usize] = at;
            pos[i as usize] = INACTIVE;
        }
        for &i in &active {
            visit(i as usize, p_idx as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every containment exactly once, cross-checked against the
    /// quadratic oracle.
    fn assert_matches_oracle(intervals: &[Interval], points: &[f64]) {
        let mut reported = Vec::new();
        sweep_stabs(intervals, points, &mut |i, p| reported.push((i, p)));
        let mut seen = BTreeSet::new();
        for &(i, p) in &reported {
            assert!(
                intervals[i].contains(points[p]),
                "spurious report: interval {i} {:?} does not contain point {p} = {}",
                intervals[i],
                points[p]
            );
            assert!(seen.insert((i, p)), "duplicate report ({i}, {p})");
        }
        for (i, iv) in intervals.iter().enumerate() {
            for (p, &v) in points.iter().enumerate() {
                if iv.contains(v) {
                    assert!(seen.contains(&(i, p)), "missed containment ({i}, {p}): {iv:?} ∋ {v}");
                }
            }
        }
    }

    /// Tiny deterministic LCG so the test needs no workload dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn coord(&mut self) -> f64 {
            // Half-integer lattice in [-16, 16]: plenty of exact ties.
            (self.next() % 65) as f64 / 2.0 - 16.0
        }
    }

    #[test]
    fn random_lattice_matches_quadratic_oracle() {
        let mut rng = Lcg(2004);
        for round in 0..50 {
            let n = 1 + (rng.next() % 12) as usize;
            let q = 1 + (rng.next() % 20) as usize;
            let intervals: Vec<Interval> = (0..n)
                .map(|_| {
                    let (a, b) = (rng.coord(), rng.coord());
                    // Mix proper, zero-width, and (rarely) inverted.
                    match rng.next() % 8 {
                        0 => Interval::new(a, a),
                        1 => Interval::new(a.max(b) + 0.5, a.min(b)), // inverted: empty
                        _ => Interval::new(a.min(b), a.max(b)),
                    }
                })
                .collect();
            let points: Vec<f64> = (0..q).map(|_| rng.coord()).collect();
            assert_matches_oracle(&intervals, &points);
            let _ = round;
        }
    }

    #[test]
    fn zero_width_interval_stabs_exactly_its_point() {
        let intervals = [Interval::new(3.0, 3.0)];
        let points = [2.0, 3.0, 3.0, 4.0];
        let mut hits = Vec::new();
        sweep_stabs(&intervals, &points, &mut |i, p| hits.push((i, p)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(0, 1), (0, 2)], "both duplicate points at 3.0, nothing else");
    }

    #[test]
    fn boundary_contact_is_closed_on_both_ends() {
        let intervals = [Interval::new(1.0, 5.0)];
        let points = [0.5, 1.0, 3.0, 5.0, 5.5];
        let mut hits = Vec::new();
        sweep_stabs(&intervals, &points, &mut |_, p| hits.push(p));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2, 3], "lo and hi endpoints are contained, outside points not");
    }

    #[test]
    fn point_interval_on_point_query() {
        // The fully degenerate case: a point box meeting a point query.
        assert_matches_oracle(&[Interval::new(0.0, 0.0)], &[0.0]);
        let mut count = 0;
        sweep_stabs(&[Interval::new(0.0, 0.0)], &[0.0], &mut |_, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_inputs_visit_nothing() {
        let mut count = 0;
        sweep_stabs(&[], &[1.0], &mut |_, _| count += 1);
        sweep_stabs(&[Interval::new(0.0, 1.0)], &[], &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn shared_endpoints_all_report() {
        // Many intervals ending exactly where others begin, queried
        // exactly at the shared coordinate — the grid-line contact case.
        let intervals = [
            Interval::new(0.0, 2.0),
            Interval::new(2.0, 4.0),
            Interval::new(2.0, 2.0),
            Interval::new(-1.0, 1.0),
        ];
        let points = [2.0];
        let mut hit: Vec<usize> = Vec::new();
        sweep_stabs(&intervals, &points, &mut |i, _| hit.push(i));
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1, 2]);
    }

    #[test]
    fn negative_zero_counts_as_zero() {
        // total_cmp orders -0.0 < 0.0, but closed containment uses <=,
        // which treats them as equal; the sweep must agree with the
        // oracle on the mixed-zero case.
        assert_matches_oracle(&[Interval::new(-0.0, 0.0), Interval::new(0.0, 0.0)], &[-0.0, 0.0]);
    }
}
