//! Adaptive-precision geometric predicates — exact sign decisions on
//! `f64` input, standard library only.
//!
//! Every coordinate in this workspace is a finite `f64`, which makes
//! every sign decision a question about an *exactly representable*
//! polynomial in exactly representable numbers. Following Shewchuk
//! (*Adaptive Precision Floating-Point Arithmetic and Fast Robust
//! Geometric Predicates*, 1997), such a polynomial can be evaluated
//! without error as a floating-point **expansion** — a sum of
//! non-overlapping `f64` components — using error-free transforms:
//! [`two_sum`] and [`two_product`] return both the rounded result and
//! the exact round-off it discarded.
//!
//! [`orient2d`] uses the classic two-stage design:
//!
//! 1. a plain `f64` evaluation with a **static filter**: the determinant
//!    is trusted whenever its magnitude exceeds a proven bound on the
//!    worst-case rounding error (almost always, away from degeneracy);
//! 2. an **exact fallback** that re-evaluates the determinant as an
//!    expansion and reads the sign off its most significant component —
//!    exact for all finite `f64` input, no tolerance anywhere.
//!
//! The fallback count is observable: [`stats`] exposes cumulative
//! process-wide counters, so the filter hit-rate can be tracked in
//! production; the benches read them directly (`engine_throughput`'s
//! `geometry` record).
//!
//! Everything downstream that needs a *sign* — segment intersection,
//! point-on-segment, point-in-polygon parity — is built on these
//! predicates; the tuned-epsilon versions they replace are retired.

use crate::point::Point;
use std::sync::atomic::{AtomicU64, Ordering};

/// The sign of an exactly evaluated quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// The sign of a plain `f64` (which must not be NaN).
    #[inline]
    pub fn of(v: f64) -> Sign {
        if v > 0.0 {
            Sign::Positive
        } else if v < 0.0 {
            Sign::Negative
        } else {
            Sign::Zero
        }
    }

    /// The opposite sign.
    #[inline]
    pub fn flipped(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// `true` for [`Sign::Zero`].
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Sign::Zero
    }
}

// ---------------------------------------------------------------------------
// Error-free transforms
// ---------------------------------------------------------------------------

/// Knuth's TwoSum: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly. No assumption on the magnitudes of `a`, `b`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    let e = (a - av) + (b - bv);
    (s, e)
}

/// Dekker's FastTwoSum: like [`two_sum`] but requires `|a| >= |b|`
/// (or `a == 0`). One branchless op cheaper; used where ordering is known.
#[inline]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// TwoProduct via fused multiply-add: returns `(p, e)` with
/// `p = fl(a · b)` and `a · b = p + e` exactly.
///
/// `f64::mul_add` is specified to round once, so `fma(a, b, -p)`
/// recovers the exact round-off of the product — no Dekker splitting,
/// no magnitude restrictions short of overflow.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// An expansion: `len` non-overlapping components in `comp[..len]`,
/// stored in increasing order of magnitude. The represented value is
/// their exact sum. Capacity 12 covers the six-product `orient2d`
/// determinant.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    comp: [f64; 12],
    len: usize,
}

impl Expansion {
    const ZERO: Expansion = Expansion {
        comp: [0.0; 12],
        len: 0,
    };

    /// Adds a single `f64` to the expansion (Shewchuk's
    /// `grow_expansion` with zero elimination).
    fn grow(&mut self, b: f64) {
        let mut q = b;
        let mut out = 0usize;
        let comp = self.comp;
        for &c in &comp[..self.len] {
            let (sum, err) = two_sum(q, c);
            q = sum;
            if err != 0.0 {
                self.comp[out] = err;
                out += 1;
            }
        }
        if q != 0.0 || out == 0 {
            self.comp[out] = q;
            out += 1;
        }
        self.len = out;
    }

    /// Adds an exact product `a · b`.
    fn grow_product(&mut self, a: f64, b: f64) {
        let (p, e) = two_product(a, b);
        self.grow(e);
        self.grow(p);
    }

    /// The sign of the exact value: the sign of the most significant
    /// (largest magnitude, hence last stored) non-zero component.
    fn sign(&self) -> Sign {
        match self.comp[..self.len].iter().rfind(|c| **c != 0.0) {
            Some(c) => Sign::of(*c),
            None => Sign::Zero,
        }
    }

    /// An `f64` estimate of the exact value whose sign is exact: summing
    /// from the least significant component ends on the dominant one,
    /// and non-overlapping components make the rounded total carry the
    /// exact sign.
    fn estimate(&self) -> f64 {
        let mut s = 0.0;
        for &c in &self.comp[..self.len] {
            let (sum, _) = fast_two_sum(c, s);
            s = sum;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// orient2d
// ---------------------------------------------------------------------------

/// Worst-case relative rounding error of the filtered determinant —
/// Shewchuk's `ccwerrboundA` = `(3 + 16ε)ε` with `ε = 2⁻⁵³`.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);

static ORIENT_CALLS: AtomicU64 = AtomicU64::new(0);
static EXACT_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of the [`orient2d`] filter, process-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustStats {
    /// Total [`orient2d`] / [`orient2d_sign`] evaluations.
    pub orient_calls: u64,
    /// Evaluations the static filter could not decide — the exact
    /// expansion fallback ran.
    pub exact_fallbacks: u64,
}

impl RobustStats {
    /// Counter increments from `earlier` to `self` (saturating).
    pub fn since(&self, earlier: &RobustStats) -> RobustStats {
        RobustStats {
            orient_calls: self.orient_calls.saturating_sub(earlier.orient_calls),
            exact_fallbacks: self.exact_fallbacks.saturating_sub(earlier.exact_fallbacks),
        }
    }

    /// Fraction of calls the cheap filtered path decided, in `[0, 1]`;
    /// `1.0` when nothing ran.
    pub fn filter_hit_rate(&self) -> f64 {
        if self.orient_calls == 0 {
            return 1.0;
        }
        1.0 - self.exact_fallbacks as f64 / self.orient_calls as f64
    }
}

/// Current snapshot of the cumulative predicate counters.
pub fn stats() -> RobustStats {
    RobustStats {
        orient_calls: ORIENT_CALLS.load(Ordering::Relaxed),
        exact_fallbacks: EXACT_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Orientation of the ordered triple `(a, b, c)` with an **exact sign**:
/// positive when the triple turns counter-clockwise (`c` strictly left
/// of the directed line `a → b`), negative when clockwise, and zero
/// exactly when the three points are collinear.
///
/// The returned magnitude is an approximation of twice the signed
/// triangle area (exact whenever the filtered fast path decides); only
/// the sign carries the exactness guarantee. Same argument convention as
/// [`crate::point::orient`], which this predicate supersedes wherever a
/// *decision* is made on the sign.
pub fn orient2d(a: Point, b: Point, c: Point) -> f64 {
    ORIENT_CALLS.fetch_add(1, Ordering::Relaxed);
    let detleft = (b.x - a.x) * (c.y - a.y);
    let detright = (b.y - a.y) * (c.x - a.x);
    let det = detleft - detright;

    // The filter needs |det| compared against a bound proportional to
    // the magnitude of what was summed; when the two halves disagree in
    // sign the sign of their difference is already exact.
    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return det;
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return det;
        }
        -(detleft + detright)
    } else {
        return -detright;
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return det;
    }
    EXACT_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    orient2d_exact(a, b, c)
}

/// The exact sign of the orientation of `(a, b, c)`.
#[inline]
pub fn orient2d_sign(a: Point, b: Point, c: Point) -> Sign {
    Sign::of(orient2d(a, b, c))
}

/// Exact expansion evaluation of the orientation determinant.
///
/// Expanding `(b − a) × (c − a)` over the original coordinates, the
/// `a.x·a.y` terms cancel symbolically, leaving six products:
///
/// ```text
/// det = b.x·c.y − b.x·a.y − a.x·c.y − b.y·c.x + b.y·a.x + a.y·c.x
/// ```
///
/// Each product contributes its [`two_product`] pair to an expansion, so
/// the final sign is that of the exact real value — no differences of
/// rounded differences anywhere.
fn orient2d_exact(a: Point, b: Point, c: Point) -> f64 {
    let mut e = Expansion::ZERO;
    e.grow_product(b.x, c.y);
    e.grow_product(b.x, -a.y);
    e.grow_product(-a.x, c.y);
    e.grow_product(-b.y, c.x);
    e.grow_product(b.y, a.x);
    e.grow_product(a.y, c.x);
    let est = e.estimate();
    debug_assert_eq!(Sign::of(est), e.sign());
    est
}

/// Exact point-on-closed-segment test: `true` iff `p` lies on the
/// segment from `a` to `b` (endpoints included). Collinearity is decided
/// by the exact [`orient2d_sign`]; the along-the-segment range check is
/// a pair of exact coordinate comparisons.
pub fn on_segment(a: Point, b: Point, p: Point) -> bool {
    if a == b {
        return p == a;
    }
    if orient2d_sign(a, b, p) != Sign::Zero {
        return false;
    }
    // Collinear: membership reduces to the coordinate interval of the
    // dominant axis (using both axes also accepts degenerate queries).
    let in_x = (a.x.min(b.x)..=a.x.max(b.x)).contains(&p.x);
    let in_y = (a.y.min(b.y)..=a.y.max(b.y)).contains(&p.y);
    in_x && in_y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    /// Steps `x` by `k` ulps (positive `k` → towards +∞).
    fn ulps(x: f64, k: i64) -> f64 {
        let mut v = x;
        for _ in 0..k.abs() {
            v = if k > 0 { v.next_up() } else { v.next_down() };
        }
        v
    }

    #[test]
    fn two_sum_recovers_roundoff() {
        let (s, e) = two_sum(1.0, 1e-20);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-20);
        let (s, e) = two_sum(0.1, 0.2);
        // s + e == 0.1 + 0.2 exactly: e is the discarded round-off.
        assert_eq!(s, 0.1 + 0.2);
        assert_ne!(e, 0.0);
    }

    #[test]
    fn two_product_recovers_roundoff() {
        let (p, e) = two_product(0.1, 0.1);
        assert_eq!(p, 0.1 * 0.1);
        assert_ne!(e, 0.0); // 0.1² is not representable
        let (p, e) = two_product(3.0, 4.0);
        assert_eq!((p, e), (12.0, 0.0));
    }

    #[test]
    fn expansion_sums_exactly() {
        let mut e = Expansion::ZERO;
        e.grow(1e100);
        e.grow(1.0);
        e.grow(-1e100);
        assert_eq!(e.sign(), Sign::Positive);
        assert_eq!(e.estimate(), 1.0);
        e.grow(-1.0);
        assert_eq!(e.sign(), Sign::Zero);
    }

    #[test]
    fn orient_matches_naive_on_clear_cases() {
        let a = pt(0.0, 0.0);
        let b = pt(4.0, 0.0);
        assert!(orient2d(a, b, pt(1.0, 1.0)) > 0.0);
        assert!(orient2d(a, b, pt(1.0, -1.0)) < 0.0);
        assert_eq!(orient2d_sign(a, b, pt(9.0, 0.0)), Sign::Zero);
    }

    #[test]
    fn orient_sign_is_exact_at_one_ulp() {
        // A point one ulp off a diagonal: the naive determinant often
        // rounds to zero or the wrong sign; the predicate must not.
        let a = pt(0.0, 0.0);
        let b = pt(1.0e17, 1.0e17); // the diagonal y = x, huge magnitude
        for k in 1..=4i64 {
            let above = pt(0.5e17, ulps(0.5e17, k));
            let below = pt(0.5e17, ulps(0.5e17, -k));
            assert_eq!(orient2d_sign(a, b, above), Sign::Positive, "k = {k}");
            assert_eq!(orient2d_sign(a, b, below), Sign::Negative, "k = {k}");
        }
        assert_eq!(orient2d_sign(a, b, pt(0.5e17, 0.5e17)), Sign::Zero);
    }

    #[test]
    fn orient_is_antisymmetric_and_cyclic_under_perturbation() {
        // Exactness implies the algebraic identities hold as stated, even
        // in the region where the filter fails.
        let base = pt(12.25, -7.5);
        let dir = pt(3.0, 1.0);
        let far = pt(base.x + 1e8 * dir.x, base.y + 1e8 * dir.y);
        for k in -3..=3i64 {
            let c = pt(ulps(base.x + 5.0e7 * dir.x, k), base.y + 5.0e7 * dir.y);
            let s = orient2d_sign(base, far, c);
            assert_eq!(orient2d_sign(far, base, c), s.flipped());
            assert_eq!(orient2d_sign(c, base, far), s);
            assert_eq!(orient2d_sign(far, c, base), s);
        }
    }

    #[test]
    fn orient_exact_at_extreme_magnitudes() {
        for exp in [-40, 0, 40] {
            let s = 2f64.powi(exp);
            let a = pt(0.0, 0.0);
            let b = pt(3.0 * s, 3.0 * s);
            let on = pt(2.0 * s, 2.0 * s);
            assert_eq!(orient2d_sign(a, b, on), Sign::Zero, "exp = {exp}");
            let off = pt(2.0 * s, ulps(2.0 * s, 1));
            assert_eq!(orient2d_sign(a, b, off), Sign::Positive, "exp = {exp}");
        }
    }

    #[test]
    fn fallback_counter_advances() {
        let before = stats();
        // Clearly decided: filter path.
        let _ = orient2d(pt(0.0, 0.0), pt(1.0, 0.0), pt(0.0, 1.0));
        // Collinear at awkward magnitude: must fall back.
        let _ = orient2d(pt(0.1, 0.1), pt(0.2, 0.2), pt(0.3, 0.3));
        let after = stats();
        let delta = after.since(&before);
        assert!(delta.orient_calls >= 2);
        assert!(delta.exact_fallbacks >= 1);
        assert!(after.filter_hit_rate() <= 1.0);
    }

    #[test]
    fn on_segment_is_exact() {
        let a = pt(0.0, 0.0);
        let b = pt(4.0, 2.0);
        assert!(on_segment(a, b, pt(2.0, 1.0)));
        assert!(on_segment(a, b, a));
        assert!(on_segment(a, b, b));
        assert!(!on_segment(a, b, pt(6.0, 3.0))); // collinear, beyond b
        assert!(!on_segment(a, b, pt(-2.0, -1.0))); // collinear, before a
        assert!(!on_segment(a, b, pt(2.0, ulps(1.0, 1)))); // one ulp off
                                                           // Degenerate segment.
        assert!(on_segment(a, a, a));
        assert!(!on_segment(a, a, b));
        // Vertical and horizontal segments.
        assert!(on_segment(pt(1.0, 0.0), pt(1.0, 5.0), pt(1.0, 3.0)));
        assert!(!on_segment(
            pt(1.0, 0.0),
            pt(1.0, 5.0),
            pt(ulps(1.0, -1), 3.0)
        ));
    }

    #[test]
    fn on_segment_at_microscale_has_no_floor() {
        // The retired epsilon floor swallowed whole segments at 2^-40;
        // the exact test cannot.
        let s = 2f64.powi(-40);
        let a = pt(0.0, 0.0);
        let b = pt(4.0 * s, 2.0 * s);
        assert!(on_segment(a, b, pt(2.0 * s, s)));
        assert!(!on_segment(a, b, pt(2.0 * s, ulps(s, 2))));
        assert!(!on_segment(a, b, pt(100.0 * s, 50.0 * s)));
    }
}
