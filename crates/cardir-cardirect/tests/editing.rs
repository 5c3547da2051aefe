//! Configuration editing and extended thematic attributes — the tool
//! operations the paper names ("specify, edit and annotate regions") and
//! its Section-5 future work ("combining the underlying model with extra
//! thematic information and the enrichment of the employed query
//! language").

use cardir_cardirect::{evaluate, from_xml, parse_query, to_xml, ConfigError, Configuration};
use cardir_geometry::Region;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

fn sample() -> Configuration {
    let mut c = Configuration::new("edit-me", "map.png");
    c.add_region("a", "Alpha", "red", rect(0.0, 0.0, 1.0, 1.0))
        .unwrap();
    c.add_region("b", "Beta", "blue", rect(3.0, 0.0, 4.0, 1.0))
        .unwrap();
    c.add_region("c", "Gamma", "red", rect(6.0, 0.0, 7.0, 1.0))
        .unwrap();
    c.compute_all_relations();
    c
}

#[test]
fn remove_region_drops_its_relations() {
    let mut c = sample();
    assert_eq!(c.relations().len(), 6);
    let removed = c.remove_region("b").unwrap();
    assert_eq!(removed.name, "Beta");
    assert_eq!(c.len(), 2);
    assert_eq!(c.relations().len(), 2); // only a↔c remain
    assert!(c.region("b").is_none());
    // Index stays consistent: lookups and relations still work.
    assert_eq!(c.relation_between("a", "c").unwrap().to_string(), "W");
    assert!(matches!(
        c.remove_region("b"),
        Err(ConfigError::UnknownId(_))
    ));
}

#[test]
fn update_geometry_invalidates_stale_relations() {
    let mut c = sample();
    assert_eq!(c.relation_between("a", "b").unwrap().to_string(), "W");
    // Move region a to the east side of b.
    c.update_geometry("a", rect(5.0, 0.0, 5.5, 1.0)).unwrap();
    // Stored relations mentioning `a` were dropped; on-demand
    // computation sees the new geometry.
    assert_eq!(c.relation_between("a", "b").unwrap().to_string(), "E");
    // Relations between untouched regions survived.
    assert_eq!(
        c.relations()
            .iter()
            .filter(|r| r.primary == "b" || r.reference == "b")
            .count(),
        2
    );
    assert!(matches!(
        c.update_geometry("zz", rect(0.0, 0.0, 1.0, 1.0)),
        Err(ConfigError::UnknownId(_))
    ));
}

#[test]
fn custom_attributes_set_get_validate() {
    let mut c = sample();
    c.set_attribute("a", "population", "12000").unwrap();
    c.set_attribute("a", "terrain", "coastal").unwrap();
    assert_eq!(c.attribute("a", "population"), Some("12000"));
    assert_eq!(c.attribute("a", "terrain"), Some("coastal"));
    assert_eq!(c.attribute("b", "population"), None);
    // Built-ins still win.
    assert_eq!(c.attribute("a", "color"), Some("red"));
    // Attribute names must be XML-name-shaped.
    assert!(matches!(
        c.set_attribute("a", "has space", "x"),
        Err(ConfigError::InvalidId(_))
    ));
    assert!(matches!(
        c.set_attribute("zz", "k", "v"),
        Err(ConfigError::UnknownId(_))
    ));
    // Overwriting works.
    c.set_attribute("a", "population", "13000").unwrap();
    assert_eq!(c.attribute("a", "population"), Some("13000"));
}

#[test]
fn custom_attributes_queryable() {
    let mut c = sample();
    c.set_attribute("a", "terrain", "coastal").unwrap();
    c.set_attribute("c", "terrain", "inland").unwrap();
    let q = parse_query("{(x, y) | terrain(x) = coastal, terrain(y) = inland, x W y}").unwrap();
    let answers = evaluate(&q, &c).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].values, ["a", "c"]);
    // A custom attribute nobody defines is still an error (typo guard).
    let q = parse_query("{(x) | flavor(x) = sweet}").unwrap();
    assert!(evaluate(&q, &c).is_err());
}

#[test]
fn custom_attributes_survive_xml() {
    let mut c = sample();
    c.set_attribute("a", "terrain", "coastal & rocky").unwrap();
    c.set_attribute("b", "garrison", "300 \"hoplites\"")
        .unwrap();
    let xml = to_xml(&c);
    assert!(xml.contains("data-terrain="), "{xml}");
    let back = from_xml(&xml).unwrap();
    assert_eq!(back.attribute("a", "terrain"), Some("coastal & rocky"));
    assert_eq!(back.attribute("b", "garrison"), Some("300 \"hoplites\""));
    assert_eq!(back.attribute("c", "terrain"), None);
    // Round trip again: stable.
    assert_eq!(to_xml(&back), xml);
}

#[test]
fn edit_then_recompute_matches_fresh_configuration() {
    let mut c = sample();
    c.remove_region("b").unwrap();
    c.update_geometry("c", rect(-3.0, 0.0, -2.0, 1.0)).unwrap();
    c.compute_all_relations();

    let mut fresh = Configuration::new("edit-me", "map.png");
    fresh
        .add_region("a", "Alpha", "red", rect(0.0, 0.0, 1.0, 1.0))
        .unwrap();
    fresh
        .add_region("c", "Gamma", "red", rect(-3.0, 0.0, -2.0, 1.0))
        .unwrap();
    fresh.compute_all_relations();

    for r in fresh.relations() {
        assert_eq!(
            c.relation_between(&r.primary, &r.reference).unwrap(),
            r.relation
        );
    }
    assert_eq!(c.relations().len(), fresh.relations().len());
}
