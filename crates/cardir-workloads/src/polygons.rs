//! Random simple-polygon generators.
//!
//! The complexity experiments (Theorems 1 and 2) need polygons with a
//! controlled edge count `k`; the comparison against clipping needs shapes
//! whose edges cross the reference grid lines often. Two generators cover
//! this:
//!
//! * [`star_polygon`] — a radial ("star-shaped") polygon: `n` vertices at
//!   strictly increasing angles around a centre, with jittered radii.
//!   Always simple, arbitrary `n`, organic-looking.
//! * [`comb_polygon`] — a comb with `teeth` prongs: adversarial input
//!   whose edges cross a horizontal line `2·teeth` times, maximising edge
//!   divisions and clipped fragments.

use crate::rng::SplitMix64;
use cardir_geometry::{Point, Polygon};

/// Generates a simple polygon with `n ≥ 3` vertices, star-shaped around
/// `center`, with radii drawn uniformly from `[r_min, r_max]`.
///
/// Vertices are placed at evenly spaced angles with ±40 % jitter, keeping
/// the angular order strictly increasing — which guarantees simplicity.
pub fn star_polygon(
    rng: &mut SplitMix64,
    center: Point,
    r_min: f64,
    r_max: f64,
    n: usize,
) -> Polygon {
    assert!(n >= 3, "a polygon needs at least 3 vertices");
    assert!(
        0.0 < r_min && r_min <= r_max,
        "radii must be positive and ordered"
    );
    let step = std::f64::consts::TAU / n as f64;
    let vertices = (0..n).map(|i| {
        let jitter = rng.random_range(-0.4..0.4) * step;
        let angle = i as f64 * step + jitter;
        let r = rng.random_range(r_min..=r_max);
        Point::new(center.x + r * angle.cos(), center.y + r * angle.sin())
    });
    Polygon::new(vertices).expect("star polygons are simple and non-degenerate")
}

/// Generates a comb-shaped simple polygon with the given number of teeth.
///
/// The comb spans `x ∈ [x0, x0 + 2·teeth·pitch]`; its back sits at
/// `y = y_base` and the teeth reach `y = y_tip`. Any horizontal line
/// strictly between base and tip crosses `2·teeth` edges — the worst case
/// for both edge division and clipping.
pub fn comb_polygon(x0: f64, y_base: f64, y_tip: f64, pitch: f64, teeth: usize) -> Polygon {
    assert!(teeth >= 1);
    assert!(pitch > 0.0);
    assert!(y_tip != y_base);
    let mut vs: Vec<Point> = Vec::with_capacity(4 * teeth + 2);
    let mut x = x0;
    for _ in 0..teeth {
        vs.push(Point::new(x, y_base));
        vs.push(Point::new(x, y_tip));
        vs.push(Point::new(x + pitch, y_tip));
        vs.push(Point::new(x + pitch, y_base));
        x += 2.0 * pitch;
    }
    // Close along the spine, slightly below the base.
    let spine = y_base - (y_tip - y_base).abs() * 0.25;
    vs.push(Point::new(x - pitch, spine));
    vs.push(Point::new(x0, spine));
    Polygon::new(vs).expect("comb polygons are simple and non-degenerate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_polygons_are_simple_with_exact_edge_count() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for n in [3, 8, 64, 257] {
            let p = star_polygon(&mut rng, Point::new(1.0, -2.0), 2.0, 5.0, n);
            assert_eq!(p.len(), n);
            assert!(p.is_simple(), "n = {n}");
            assert!(p.area() > 0.0);
        }
    }

    #[test]
    fn star_polygon_respects_radius_bounds() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let c = Point::new(0.0, 0.0);
        let p = star_polygon(&mut rng, c, 3.0, 4.0, 32);
        for v in p.vertices() {
            let r = v.distance(c);
            assert!((3.0..=4.0).contains(&r), "radius {r}");
        }
    }

    #[test]
    fn comb_polygon_crosses_a_line_2t_times() {
        let teeth = 5;
        let p = comb_polygon(0.0, 0.0, 4.0, 1.0, teeth);
        assert!(p.is_simple());
        let line = cardir_geometry::Line::Horizontal(2.0);
        let crossings = p.edges().filter(|e| e.crossed_by(line)).count();
        assert_eq!(crossings, 2 * teeth);
    }

    #[test]
    fn determinism_under_seed() {
        let mk = || {
            let mut rng = SplitMix64::seed_from_u64(42);
            star_polygon(&mut rng, Point::new(0.0, 0.0), 1.0, 2.0, 16)
        };
        assert_eq!(mk(), mk());
    }
}
