//! Experiment A4 (DESIGN.md): the segmentation substrate feeding the
//! CARDIRECT pipeline, checked over a fixed seeded case list.

use cardir::cardirect::{from_xml, to_xml, Configuration};
use cardir::core::compute_cdr;
use cardir::segment::{random_blobs, Connectivity, Raster};
use cardir::workloads::SplitMix64;

/// Region extraction preserves areas and produces valid regions for
/// every label of a random segmented image.
#[test]
fn extraction_preserves_areas() {
    let mut rng = SplitMix64::seed_from_u64(401);
    for case in 0..48 {
        let w = rng.random_range(8usize..48);
        let h = rng.random_range(8usize..32);
        let n_labels = rng.random_range(1u32..8);
        let growth = rng.random_range(5usize..80);
        let raster = random_blobs(&mut rng, w, h, n_labels, growth);
        for label in raster.labels() {
            let region = raster.extract_region(label).expect("label present");
            assert_eq!(
                region.area(),
                raster.count(label) as f64,
                "case {case}, label {label}"
            );
            // Every polygon is a valid simple rectangle tile.
            for p in region.polygons() {
                assert!(p.is_simple(), "case {case}");
                assert_eq!(p.len(), 4, "case {case}");
            }
            // The extracted region's mbb stays inside the raster extent.
            let mbb = region.mbb();
            assert!(mbb.min.x >= 0.0 && mbb.min.y >= 0.0, "case {case}");
            assert!(
                mbb.max.x <= w as f64 && mbb.max.y <= h as f64,
                "case {case}"
            );
        }
    }
}

/// Component analysis partitions the non-background cells.
#[test]
fn components_partition_cells() {
    let mut rng = SplitMix64::seed_from_u64(402);
    for case in 0..48 {
        let raster = random_blobs(&mut rng, 24, 24, 5, 40);
        let comps = raster.components(Connectivity::Four);
        let total: usize = comps.iter().map(|c| c.area()).sum();
        let nonbg: usize = raster.labels().iter().map(|&l| raster.count(l)).sum();
        assert_eq!(total, nonbg, "case {case}");
        // Cells are globally unique across components.
        let mut seen = std::collections::HashSet::new();
        for c in &comps {
            for cell in &c.cells {
                assert!(
                    seen.insert(*cell),
                    "case {case}: cell {cell:?} in two components"
                );
            }
        }
    }
}

/// Segmented configurations survive the XML round trip.
#[test]
fn segmented_configuration_round_trips() {
    let mut rng = SplitMix64::seed_from_u64(403);
    for case in 0..48 {
        let raster = random_blobs(&mut rng, 20, 16, 4, 30);
        let mut config = Configuration::new("seg", "img.png");
        for label in raster.labels() {
            let region = raster.extract_region(label).expect("present");
            config
                .add_region(
                    format!("seg{label}"),
                    format!("segment {label}"),
                    "blue",
                    region,
                )
                .expect("unique");
        }
        if config.is_empty() {
            continue;
        }
        config.compute_all_relations();
        let back = from_xml(&to_xml(&config)).expect("own export re-imports");
        assert_eq!(back.len(), config.len(), "case {case}");
        assert_eq!(back.relations(), config.relations(), "case {case}");
    }
}

/// Raster-level relations agree with the on-grid intuition: a label
/// translated strictly north-east of another computes NE.
#[test]
fn crafted_raster_relations() {
    let raster = Raster::from_text(
        "......22
         ......22
         ........
         11......
         11......",
    )
    .unwrap();
    let one = raster.extract_region(1).unwrap();
    let two = raster.extract_region(2).unwrap();
    assert_eq!(compute_cdr(&two, &one).to_string(), "NE");
    assert_eq!(compute_cdr(&one, &two).to_string(), "SW");
}

/// The display/parse pair of rasters round-trips.
#[test]
fn raster_text_round_trip() {
    let text = "12.\n.3a\nb..";
    let raster = Raster::from_text(text).unwrap();
    assert_eq!(raster.to_string(), text);
}
