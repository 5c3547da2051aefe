//! Synthetic annotated maps for query-evaluation workloads.
//!
//! CARDIRECT queries join regions by thematic attributes and cardinal
//! direction predicates; evaluating them scales with the number of
//! annotated regions. These generators produce maps with `n` labelled,
//! coloured regions scattered over an extent — the workload for the
//! query-evaluation and R-tree ablation benchmarks.

use crate::polygons::star_polygon;
use crate::rng::SplitMix64;
use cardir_geometry::{BoundingBox, Point, Region};

/// One annotated region of a synthetic map.
#[derive(Debug, Clone)]
pub struct MapRegion {
    /// Unique identifier, `r0`, `r1`, ….
    pub id: String,
    /// Colour drawn from [`COLORS`].
    pub color: &'static str,
    /// Geometry.
    pub region: Region,
}

/// The colour palette used by generated maps.
pub const COLORS: [&str; 5] = ["blue", "red", "black", "green", "yellow"];

/// Generates a map of `n` star-shaped regions with random colours inside
/// `extent`. Regions are laid out on a jittered grid so they rarely
/// overlap, like annotated areas on a real map.
pub fn random_map(rng: &mut SplitMix64, n: usize, extent: BoundingBox) -> Vec<MapRegion> {
    assert!(n >= 1);
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let pitch_x = extent.width() / cols as f64;
    let pitch_y = extent.height() / rows as f64;
    (0..n)
        .map(|i| {
            let col = (i % cols) as f64;
            let row = (i / cols) as f64;
            let (color, region) = star_cell(
                rng,
                extent.min.x + (col + 0.5) * pitch_x,
                extent.min.y + (row + 0.5) * pitch_y,
                pitch_x,
                pitch_y,
            );
            MapRegion {
                id: format!("r{i}"),
                color,
                region,
            }
        })
        .collect()
}

/// Generates exactly one star-shaped region filling `extent`'s single
/// grid cell — the per-edit generator for scripted workloads.
///
/// The RNG draw sequence is the per-cell sequence of [`random_map`] and
/// is deliberately independent of `random_map`'s grid layout, so code
/// that consumes one region per draw (fuzz edit scripts with pinned
/// seeds) does not shift its RNG stream when the map generator's layout
/// internals change. `random_region(rng, extent)` is draw-for-draw
/// identical to `random_map(rng, 1, extent).remove(0)`.
pub fn random_region(rng: &mut SplitMix64, extent: BoundingBox) -> MapRegion {
    let pitch_x = extent.width();
    let pitch_y = extent.height();
    let (color, region) = star_cell(
        rng,
        extent.min.x + 0.5 * pitch_x,
        extent.min.y + 0.5 * pitch_y,
        pitch_x,
        pitch_y,
    );
    MapRegion {
        id: "r0".to_string(),
        color,
        region,
    }
}

/// One jittered star in the grid cell centred at `(cx, cy)` with the
/// given pitch: the shared draw sequence of [`random_map`] and
/// [`random_region`] — jitter-x, jitter-y, vertex count, colour, then
/// the [`star_polygon`] draws.
fn star_cell(
    rng: &mut SplitMix64,
    cx: f64,
    cy: f64,
    pitch_x: f64,
    pitch_y: f64,
) -> (&'static str, Region) {
    // Centres sit ≥ 0.4·pitch from the cell boundary after ±0.1·pitch
    // jitter, so radii up to 0.38·min-pitch keep regions inside.
    let r_max = pitch_x.min(pitch_y) * 0.38;
    let r_min = r_max * 0.3;
    let jx = rng.random_range(-0.1..0.1) * pitch_x;
    let jy = rng.random_range(-0.1..0.1) * pitch_y;
    let c = Point::new(cx + jx, cy + jy);
    let vertices = rng.random_range(6..=14usize);
    let color = COLORS[rng.random_range(0..COLORS.len())];
    (
        color,
        Region::single(star_polygon(rng, c, r_min, r_max, vertices)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0))
    }

    #[test]
    fn map_has_n_unique_regions_inside_extent() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let map = random_map(&mut rng, 40, extent());
        assert_eq!(map.len(), 40);
        let mut ids: Vec<_> = map.iter().map(|r| r.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 40);
        for r in &map {
            assert!(extent().contains_box(r.region.mbb()), "{}", r.id);
            assert!(COLORS.contains(&r.color));
        }
    }

    #[test]
    fn single_region_map() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let map = random_map(&mut rng, 1, extent());
        assert_eq!(map.len(), 1);
        assert_eq!(map[0].id, "r0");
    }

    #[test]
    fn random_region_is_draw_identical_to_a_single_region_map() {
        // The single-region generator exists so scripted workloads can
        // consume one region per draw without depending on random_map's
        // grid internals — but its RNG stream is pinned to the n=1 map's:
        // same seed, bit-identical geometry, colour, and RNG state after.
        for seed in [1u64, 9, 42, 0xdead_beef] {
            let mut a = SplitMix64::seed_from_u64(seed);
            let mut b = SplitMix64::seed_from_u64(seed);
            let via_map = random_map(&mut a, 1, extent()).remove(0);
            let direct = random_region(&mut b, extent());
            assert_eq!(direct.color, via_map.color);
            assert_eq!(direct.region.mbb(), via_map.region.mbb());
            assert_eq!(
                direct.region.polygons().len(),
                via_map.region.polygons().len()
            );
            // The RNG states must agree afterwards too, or the *next*
            // draw of a script would diverge.
            assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
        }
    }
}
