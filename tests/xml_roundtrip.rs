//! Experiment E9 (DESIGN.md): XML persistence per the paper's DTD —
//! export ≡ re-import, for the Greece scenario and seeded random
//! configurations.

use cardir::cardirect::{from_xml, to_xml, Configuration};
use cardir::geometry::{BoundingBox, Point};
use cardir::workloads::{greece, maps::random_map, SplitMix64};

fn greece_config() -> Configuration {
    let mut config = Configuration::new("Ancient Greece", "peloponnesian_war.png");
    for r in greece::scenario() {
        config
            .add_region(r.name.to_lowercase(), r.name, r.alliance.color(), r.region)
            .unwrap();
    }
    config
}

#[test]
fn greece_round_trip_exact() {
    let mut config = greece_config();
    config.compute_all_relations();
    let xml = to_xml(&config);
    let back = from_xml(&xml).unwrap();
    assert_eq!(back.name, config.name);
    assert_eq!(back.file, config.file);
    assert_eq!(back.len(), config.len());
    for (a, b) in back.regions().iter().zip(config.regions()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.name, b.name);
        assert_eq!(a.color, b.color);
        assert_eq!(
            a.region, b.region,
            "geometry of {} must survive exactly",
            a.id
        );
    }
    assert_eq!(back.relations(), config.relations());
    // Idempotence: exporting the re-import gives byte-identical XML.
    assert_eq!(to_xml(&back), xml);
}

#[test]
fn relations_survive_and_remain_correct() {
    let mut config = greece_config();
    config.compute_all_relations();
    let back = from_xml(&to_xml(&config)).unwrap();
    // The stored relation must equal what recomputation yields.
    for rel in back.relations() {
        let recomputed = cardir::core::compute_cdr(
            &back.region(&rel.primary).unwrap().region,
            &back.region(&rel.reference).unwrap().region,
        );
        assert_eq!(
            rel.relation, recomputed,
            "{} vs {}",
            rel.primary, rel.reference
        );
    }
}

/// Random generated maps round-trip exactly, including awkward f64
/// coordinates.
#[test]
fn random_configs_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(501);
    for case in 0..32 {
        let n = rng.random_range(1usize..24);
        let extent = BoundingBox::new(Point::new(-500.0, -400.0), Point::new(500.0, 400.0));
        let map = random_map(&mut rng, n, extent);
        let mut config = Configuration::new(format!("map-{case}"), "gen.png");
        for r in &map {
            config
                .add_region(
                    r.id.clone(),
                    format!("region {}", r.id),
                    r.color,
                    r.region.clone(),
                )
                .unwrap();
        }
        config.compute_all_relations();
        let xml = to_xml(&config);
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.len(), config.len(), "case {case}");
        for (a, b) in back.regions().iter().zip(config.regions()) {
            assert_eq!(&a.region, &b.region, "case {case}");
        }
        assert_eq!(back.relations(), config.relations(), "case {case}");
    }
}

#[test]
fn hostile_names_are_escaped() {
    let mut config = Configuration::new(r#"<war> & "peace""#, "a<b>.png");
    config
        .add_region(
            "r1",
            "Land of <angle> & 'quotes'",
            "dark\"red",
            cardir::geometry::Region::from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]).unwrap(),
        )
        .unwrap();
    let xml = to_xml(&config);
    let back = from_xml(&xml).unwrap();
    assert_eq!(back.name, config.name);
    assert_eq!(back.file, config.file);
    assert_eq!(back.regions()[0].name, config.regions()[0].name);
    assert_eq!(back.regions()[0].color, config.regions()[0].color);
}
