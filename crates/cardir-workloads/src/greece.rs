//! The Ancient-Greece scenario of the paper's Fig. 11/12.
//!
//! The paper's CARDIRECT screenshots annotate a map of Greece at the time
//! of the Peloponnesian war with three sets of regions: the *Athenean
//! Alliance* (blue), the *Spartan Alliance* (red) and the *Pro-Spartan*
//! regions (black). The actual map image is unavailable, so the regions
//! are reconstructed on a 1000 × 800 coordinate space (x east, y north)
//! with the properties the paper states preserved exactly:
//!
//! * `Peloponnesos B:S:SW:W Attica` (left side of Fig. 12);
//! * Attica lies to the (north-)east of Peloponnesos, giving the
//!   NE/E-heavy percentage matrix on the right side of Fig. 12;
//! * the Section-4 query — Athenean regions surrounded by a Spartan
//!   region — has a non-empty answer: the island of *Aegina* sits in a
//!   bay of Peloponnesos that occupies all eight peripheral tiles around
//!   it (and Peloponnesos is modelled as a two-polygon `REG*` region,
//!   exercising composite-region support as Fig. 11's island chains do).

use cardir_geometry::{Polygon, Region};

/// Alliance colours as the paper uses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alliance {
    /// The Athenean Alliance — blue in Fig. 11.
    Athenean,
    /// The Spartan Alliance — red in Fig. 11.
    Spartan,
    /// Pro-Spartan regions — black in Fig. 11.
    ProSpartan,
}

impl Alliance {
    /// The colour name the paper's configuration uses.
    pub const fn color(self) -> &'static str {
        match self {
            Alliance::Athenean => "blue",
            Alliance::Spartan => "red",
            Alliance::ProSpartan => "black",
        }
    }
}

/// One annotated region of the scenario.
#[derive(Debug, Clone)]
pub struct GreeceRegion {
    /// Region name as in Fig. 11 (e.g. `"Attica"`).
    pub name: &'static str,
    /// Alliance membership (determines the colour).
    pub alliance: Alliance,
    /// The polygon geometry.
    pub region: Region,
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
    Polygon::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).expect("static geometry")
}

fn poly(coords: &[(f64, f64)]) -> Polygon {
    Polygon::from_coords(coords.iter().copied()).expect("static geometry")
}

/// Builds the full scenario: eleven named regions over the 1000 × 800 map.
pub fn scenario() -> Vec<GreeceRegion> {
    use Alliance::*;

    let attica = Region::single(poly(&[
        (470.0, 455.0),
        (505.0, 465.0),
        (530.0, 440.0),
        (515.0, 415.0),
        (484.0, 410.0),
    ]));

    // Peloponnesos: a blob spanning [330,477] × [300,430] with a
    // rectangular bay [450,475] × [385,410] holding Aegina. Decomposed
    // into two simple polygons (split at x = 462) — a REG* region. Its
    // east flank reaches into mbb(Attica) (x ≥ 470, y ≥ 410) without
    // touching Attica's polygon, which is what the B tile of Fig. 12's
    // `B:S:SW:W` needs.
    let peloponnesos = Region::new([
        poly(&[
            (330.0, 430.0),
            (462.0, 430.0),
            (462.0, 410.0),
            (450.0, 410.0),
            (450.0, 385.0),
            (462.0, 385.0),
            (462.0, 300.0),
            (330.0, 300.0),
        ]),
        poly(&[
            (462.0, 430.0),
            (477.0, 430.0),
            (477.0, 300.0),
            (462.0, 300.0),
            (462.0, 385.0),
            (475.0, 385.0),
            (475.0, 410.0),
            (462.0, 410.0),
        ]),
    ])
    .expect("static geometry");

    let aegina = Region::single(rect(455.0, 390.0, 470.0, 405.0));

    let beotia = Region::single(poly(&[
        (420.0, 470.0),
        (500.0, 475.0),
        (505.0, 515.0),
        (430.0, 520.0),
    ]));

    let macedonia = Region::single(poly(&[
        (350.0, 650.0),
        (600.0, 660.0),
        (590.0, 780.0),
        (360.0, 770.0),
    ]));

    // The Aegean islands: a disconnected REG* region (four islands).
    let islands = Region::new([
        rect(560.0, 380.0, 585.0, 402.0),
        rect(600.0, 340.0, 622.0, 360.0),
        rect(640.0, 395.0, 665.0, 420.0),
        rect(615.0, 295.0, 640.0, 318.0),
    ])
    .expect("static geometry");

    // The regions in the East (Ionian coast of Asia Minor).
    let east = Region::single(poly(&[
        (700.0, 350.0),
        (760.0, 345.0),
        (765.0, 550.0),
        (705.0, 555.0),
    ]));

    let corfu = Region::single(rect(180.0, 540.0, 220.0, 580.0));

    let south_italy = Region::single(poly(&[
        (60.0, 560.0),
        (160.0, 565.0),
        (150.0, 700.0),
        (70.0, 695.0),
    ]));

    let sicily = Region::single(poly(&[
        (40.0, 380.0),
        (140.0, 385.0),
        (135.0, 460.0),
        (45.0, 455.0),
    ]));

    let crete = Region::single(poly(&[
        (450.0, 120.0),
        (650.0, 125.0),
        (645.0, 160.0),
        (455.0, 155.0),
    ]));

    vec![
        GreeceRegion {
            name: "Attica",
            alliance: Athenean,
            region: attica,
        },
        GreeceRegion {
            name: "Islands",
            alliance: Athenean,
            region: islands,
        },
        GreeceRegion {
            name: "East",
            alliance: Athenean,
            region: east,
        },
        GreeceRegion {
            name: "Corfu",
            alliance: Athenean,
            region: corfu,
        },
        GreeceRegion {
            name: "SouthItaly",
            alliance: Athenean,
            region: south_italy,
        },
        GreeceRegion {
            name: "Aegina",
            alliance: Athenean,
            region: aegina,
        },
        GreeceRegion {
            name: "Peloponnesos",
            alliance: Spartan,
            region: peloponnesos,
        },
        GreeceRegion {
            name: "Beotia",
            alliance: Spartan,
            region: beotia,
        },
        GreeceRegion {
            name: "Crete",
            alliance: Spartan,
            region: crete,
        },
        GreeceRegion {
            name: "Sicily",
            alliance: Spartan,
            region: sicily,
        },
        GreeceRegion {
            name: "Macedonia",
            alliance: ProSpartan,
            region: macedonia,
        },
    ]
}

/// Looks up one region of the scenario by name.
pub fn region(name: &str) -> Option<GreeceRegion> {
    scenario().into_iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::{compute_cdr, compute_cdr_pct, CardinalRelation, Tile};

    #[test]
    fn fig12_peloponnesos_vs_attica() {
        let pel = region("Peloponnesos").unwrap().region;
        let att = region("Attica").unwrap().region;
        // The relation the paper reports verbatim.
        assert_eq!(compute_cdr(&pel, &att).to_string(), "B:S:SW:W");
    }

    #[test]
    fn fig12_attica_vs_peloponnesos_is_northeast_heavy() {
        let pel = region("Peloponnesos").unwrap().region;
        let att = region("Attica").unwrap().region;
        let m = compute_cdr_pct(&att, &pel);
        // Attica lies across the NE corner of mbb(Peloponnesos): the
        // percentage mass sits in B/N/NE/E with NE+E dominating.
        let northeastish = m.get(Tile::NE) + m.get(Tile::E) + m.get(Tile::N) + m.get(Tile::B);
        assert!((northeastish - 100.0).abs() < 1e-9, "{m:.1}");
        assert!(m.get(Tile::NE) + m.get(Tile::E) > 50.0, "{m:.1}");
    }

    #[test]
    fn aegina_is_surrounded_by_peloponnesos() {
        let pel = region("Peloponnesos").unwrap().region;
        let aeg = region("Aegina").unwrap().region;
        let surround: CardinalRelation = "S:SW:W:NW:N:NE:E:SE".parse().unwrap();
        assert_eq!(compute_cdr(&pel, &aeg), surround);
    }

    #[test]
    fn scenario_is_well_formed() {
        let regions = scenario();
        assert_eq!(regions.len(), 11);
        for r in &regions {
            assert!(r.region.area() > 0.0, "{}", r.name);
            for p in r.region.polygons() {
                assert!(p.is_simple(), "{}", r.name);
            }
        }
        // Names are unique.
        let mut names: Vec<_> = regions.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
        // Alliance colours match the paper.
        assert_eq!(Alliance::Athenean.color(), "blue");
        assert_eq!(Alliance::Spartan.color(), "red");
        assert_eq!(Alliance::ProSpartan.color(), "black");
    }

    #[test]
    fn macedonia_is_north_of_attica() {
        let mac = region("Macedonia").unwrap().region;
        let att = region("Attica").unwrap().region;
        let r = compute_cdr(&mac, &att);
        // Macedonia spans the whole north: N plus NW/NE flanks.
        assert!(r.contains(Tile::N), "{r}");
        assert!(!r.contains(Tile::S) && !r.contains(Tile::B), "{r}");
    }
}
