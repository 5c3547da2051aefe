//! Experiments E1–E3 and A1 (DESIGN.md): every worked example and stated
//! number in the paper, reproduced end to end through the public API.

use cardir::core::{
    clipping_cdr, compute_cdr, compute_cdr_pct, compute_cdr_with_mbb, CardinalRelation,
    CountingHook, DirectionMatrix, Tile,
};
use cardir::geometry::Region;
use cardir::workloads::paper;

/// `a R b` together with the edge counts of the pass: `edges_scanned` is
/// the input edge count and `sub_edges` the divided one.
fn counted(a: &Region, b: &Region) -> (CardinalRelation, CountingHook) {
    let mut counts = CountingHook::new();
    (compute_cdr_with_mbb(a, b.mbb(), &mut counts), counts)
}

/// E1 — Example 1 / Fig. 1: `a S b`, `c NE:E b`,
/// `d B:S:SW:W:NW:N:E:SE b`.
#[test]
fn e1_example_1_relations() {
    let b = paper::reference_b();
    assert_eq!(compute_cdr(&paper::fig1_a_south(), &b).to_string(), "S");
    assert_eq!(
        compute_cdr(&paper::fig1_c_northeast_east(), &b).to_string(),
        "NE:E"
    );
    assert_eq!(
        compute_cdr(&paper::fig1_d_composite(), &b).to_string(),
        "B:S:SW:W:NW:N:E:SE"
    );
}

/// E1 — the direction-relation matrices printed in Section 2.
#[test]
fn e1_direction_matrices() {
    let s: CardinalRelation = "S".parse().unwrap();
    assert_eq!(
        DirectionMatrix::from_relation(s).to_string(),
        "□□□\n□□□\n□■□"
    );
    let ne_e: CardinalRelation = "NE:E".parse().unwrap();
    assert_eq!(
        DirectionMatrix::from_relation(ne_e).to_string(),
        "□□■\n□□■\n□□□"
    );
    let big: CardinalRelation = "B:S:SW:W:NW:N:E:SE".parse().unwrap();
    assert_eq!(
        DirectionMatrix::from_relation(big).to_string(),
        "■■□\n■■■\n■■■"
    );
}

/// E2 — Section 2: region `c` is 50 % north-east and 50 % east of `b`,
/// matching the percentage matrix printed in the paper.
#[test]
fn e2_percentage_matrix_of_fig_1c() {
    let b = paper::reference_b();
    let m = compute_cdr_pct(&paper::fig1_c_northeast_east(), &b);
    assert_eq!(m.to_string(), "0% 0% 50%\n0% 0% 50%\n0% 0% 0%");
    assert!((m.sum() - 100.0).abs() < 1e-9);
}

/// A1 — Example 2 / Fig. 4: classifying vertices alone loses tiles; the
/// relation must include B, N and E although no vertex lies there.
#[test]
fn a1_example_2_vertices_alone_are_wrong() {
    let b = paper::reference_b();
    let quad = paper::example3_quadrangle();
    let mbb = b.mbb();
    // Which tiles do the four vertices hit? (W, NW, NW, NE as the paper
    // says.)
    let mut vertex_tiles = 0u16;
    for p in quad.polygons()[0].vertices() {
        let xb = cardir::geometry::band_of(p.x, mbb.min.x, mbb.max.x);
        let yb = cardir::geometry::band_of(p.y, mbb.min.y, mbb.max.y);
        vertex_tiles |= Tile::from_bands(xb, yb).bit();
    }
    let vertex_relation = CardinalRelation::from_bits(vertex_tiles).unwrap();
    let true_relation = compute_cdr(&quad, &b);
    assert_eq!(true_relation.to_string(), "B:W:NW:N:NE:E");
    assert_ne!(vertex_relation, true_relation);
    assert!(vertex_relation.is_subset_of(true_relation));
    // The vertices cover W/NW plus the closed-corner NE.
    assert!(vertex_relation.contains(Tile::W));
    assert!(vertex_relation.contains(Tile::NW));
    assert!(!vertex_relation.contains(Tile::B));
}

/// E3 — Example 3: the quadrangle divides into 9 edges (2 + 1 + 3 + 3),
/// against 19-ish for clipping.
#[test]
fn e3_example_3_edge_counts() {
    let b = paper::reference_b();
    let quad = paper::example3_quadrangle();
    let (rel, counts) = counted(&quad, &b);
    assert_eq!(rel.to_string(), "B:W:NW:N:NE:E");
    assert_eq!(counts.edges_scanned, 4);
    assert_eq!(counts.sub_edges, 9);
    let clipped = clipping_cdr(&quad, &b);
    assert_eq!(clipped.relation, rel);
    assert!(
        clipped.stats.output_edges > counts.sub_edges,
        "clipping must introduce more edges: {} vs {}",
        clipped.stats.output_edges,
        counts.sub_edges
    );
}

/// E3 — Fig. 3b: 8 divided edges vs 16 clipped edges.
#[test]
fn e3_fig_3b_edge_counts() {
    let b = paper::reference_b();
    let quad = paper::fig3b_quadrangle();
    let (_, counts) = counted(&quad, &b);
    assert_eq!(counts.sub_edges, 8);
    let clipped = clipping_cdr(&quad, &b);
    assert_eq!(clipped.stats.output_edges, 16);
    assert_eq!(clipped.stats.output_polygons, 4);
}

/// E3 — Fig. 3c: the worst-case triangle gives 11 divided edges vs ~35
/// clipped edges ("2 triangles, 6 quadrangles and 1 pentagon"; the paper
/// text says 34 in one place and 35 in another).
#[test]
fn e3_fig_3c_edge_counts() {
    let b = paper::reference_b();
    let tri = paper::fig3c_triangle();
    let (rel, counts) = counted(&tri, &b);
    assert_eq!(counts.edges_scanned, 3);
    assert_eq!(counts.sub_edges, 11);
    assert_eq!(rel, CardinalRelation::OMNI);
    let clipped = clipping_cdr(&tri, &b);
    assert_eq!(clipped.stats.output_polygons, 9);
    assert!(
        (30..=36).contains(&clipped.stats.output_edges),
        "expected ~34-35 clipped edges, got {}",
        clipped.stats.output_edges
    );
    // The paper's cost argument: clipping also scans every edge nine
    // times, division scans once.
    assert_eq!(clipped.stats.edges_scanned, 9 * 3);
}

/// E3 — the percentages of both algorithms agree on every paper shape.
#[test]
fn e3_baseline_and_fast_percentages_agree() {
    let b = paper::reference_b();
    for region in [
        paper::fig1_a_south(),
        paper::fig1_c_northeast_east(),
        paper::fig1_d_composite(),
        paper::fig3b_quadrangle(),
        paper::fig3c_triangle(),
        paper::example3_quadrangle(),
    ] {
        let fast = cardir::core::tile_areas(&region, &b);
        let clipped = clipping_cdr(&region, &b);
        for t in cardir::core::ALL_TILES {
            assert!(
                (fast.get(t) - clipped.areas.get(t)).abs() < 1e-9 * region.area(),
                "tile {t}: {} vs {}",
                fast.get(t),
                clipped.areas.get(t)
            );
        }
    }
}
