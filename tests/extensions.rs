//! Experiment A5 (DESIGN.md): the Section-5 future-work extensions —
//! topological and distance relations — validated against geometry and
//! against each other, over a fixed seeded case list.

use cardir::extensions::topology::topological_relation;
use cardir::extensions::{
    describe, min_distance, DistanceRelation, DistanceScheme, TopologicalRelation,
};
use cardir::geometry::{Point, Region};
use cardir::workloads::{star_polygon, SplitMix64};

fn random_star(rng: &mut SplitMix64) -> Region {
    let n = rng.random_range(3usize..24);
    let cx = rng.random_range(-8.0..8.0);
    let cy = rng.random_range(-8.0..8.0);
    let r = rng.random_range(0.5..5.0);
    Region::single(star_polygon(rng, Point::new(cx, cy), r * 0.4, r, n))
}

/// The topological relation and its converse are consistent.
#[test]
fn topology_converse_law() {
    let mut rng = SplitMix64::seed_from_u64(301);
    for case in 0..96 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let ab = topological_relation(&a, &b);
        let ba = topological_relation(&b, &a);
        assert_eq!(ab.converse(), ba, "case {case}");
    }
}

/// Minimum distance is symmetric, non-negative, and bounded by the
/// distance between any vertex pair.
#[test]
fn distance_laws() {
    let mut rng = SplitMix64::seed_from_u64(302);
    for case in 0..96 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let d_ab = min_distance(&a, &b);
        let d_ba = min_distance(&b, &a);
        assert!((d_ab - d_ba).abs() < 1e-12, "case {case}");
        assert!(d_ab >= 0.0, "case {case}");
        let va = a.polygons()[0].vertices()[0];
        let vb = b.polygons()[0].vertices()[0];
        assert!(d_ab <= va.distance(vb) + 1e-12, "case {case}");
    }
}

/// Cross-signal consistency: topology non-disjoint ⟺ separation 0, and
/// the combined description never panics across signals.
#[test]
fn combined_description_consistency() {
    let mut rng = SplitMix64::seed_from_u64(303);
    for case in 0..96 {
        let a = random_star(&mut rng);
        let b = random_star(&mut rng);
        let scheme = DistanceScheme::scaled_to(5.0);
        let d = describe(&a, &b, &scheme);
        let touching = d.topology != TopologicalRelation::Disjoint;
        assert_eq!(touching, d.separation == 0.0, "case {case}: {d}");
        assert_eq!(
            d.distance == DistanceRelation::Equal,
            touching,
            "case {case}"
        );
        // Equality of regions forces the direction relation B.
        if d.topology == TopologicalRelation::Equals {
            assert_eq!(d.direction.to_string(), "B", "case {case}");
        }
    }
}

/// Identity: every region equals itself, at distance zero.
#[test]
fn self_description() {
    let mut rng = SplitMix64::seed_from_u64(304);
    for case in 0..96 {
        let a = random_star(&mut rng);
        assert_eq!(
            topological_relation(&a, &a),
            TopologicalRelation::Equals,
            "case {case}"
        );
        assert_eq!(min_distance(&a, &a), 0.0, "case {case}");
    }
}

/// Containment chains: scaled-down copies nest.
#[test]
fn scaled_copies_nest() {
    let mut rng = SplitMix64::seed_from_u64(5);
    let outer_poly = star_polygon(&mut rng, Point::ORIGIN, 4.0, 6.0, 24);
    let inner_poly = outer_poly.scaled(0.5, Point::ORIGIN).unwrap();
    let outer = Region::single(outer_poly);
    let inner = Region::single(inner_poly);
    assert_eq!(
        topological_relation(&inner, &outer),
        TopologicalRelation::Inside
    );
    assert_eq!(
        topological_relation(&outer, &inner),
        TopologicalRelation::Contains
    );
    assert_eq!(min_distance(&inner, &outer), 0.0);
}

/// Direction and topology cooperate on the Greece scenario: regions with
/// a B tile in their relation are the only candidates for non-disjoint
/// topology (no two scenario regions overlap except by reconstruction).
#[test]
fn greece_topology_is_all_disjoint() {
    let regions = cardir::workloads::greece_scenario();
    for a in &regions {
        for b in &regions {
            if a.name == b.name {
                continue;
            }
            let t = topological_relation(&a.region, &b.region);
            assert_eq!(
                t,
                TopologicalRelation::Disjoint,
                "{} vs {}: {t} (landmasses should not overlap)",
                a.name,
                b.name
            );
        }
    }
}
