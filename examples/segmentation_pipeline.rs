//! The paper's full usage scenario, end to end: "the user identifies and
//! annotates interesting areas in an image or a map (possibly with the
//! use of special segmentation software) and requires to retrieve
//! regions that satisfy (spatial and thematic) criteria."
//!
//! Here the segmentation software is `cardir-segment`: a synthetic
//! segmented image is generated, each label's cells are extracted as a
//! `REG*` region, the regions become a CARDIRECT configuration, all
//! relations are computed, the configuration is persisted as XML, and a
//! query retrieves region pairs.
//!
//! Run with: `cargo run --example segmentation_pipeline`

use cardir::cardirect::{evaluate, parse_query, Configuration};
use cardir::segment::{random_blobs, Connectivity};
use cardir::workloads::SplitMix64;

fn main() {
    // 1. "Segment" an image: 64×40 cells, 8 labelled areas.
    let mut rng = SplitMix64::seed_from_u64(329); // first page of the paper
    let raster = random_blobs(&mut rng, 64, 40, 8, 120);
    println!(
        "segmented image ({}×{} cells):",
        raster.width(),
        raster.height()
    );
    println!("{raster}\n");

    let components = raster.components(Connectivity::Four);
    println!(
        "{} connected components across {} labels",
        components.len(),
        raster.labels().len()
    );

    // 2. Extract each label as a polygonal region and annotate it.
    let palette = ["blue", "red", "black", "green", "yellow"];
    let mut config = Configuration::new("segmented survey", "survey.png");
    for label in raster.labels() {
        let region = raster.extract_region(label).expect("label is present");
        let color = palette[(label as usize - 1) % palette.len()];
        config
            .add_region(
                format!("seg{label}"),
                format!("segment {label}"),
                color,
                region,
            )
            .expect("labels are unique");
    }

    // 3. Compute every pairwise cardinal direction relation.
    config.compute_all_relations();
    println!(
        "\nannotated {} regions; computed {} relations",
        config.len(),
        config.relations().len()
    );

    // 4. Persist as the paper's XML (atomic save, `.bak` generation on
    //    re-save) and re-import via the recovery-aware loader.
    let path =
        std::env::temp_dir().join(format!("segmentation-pipeline-{}.xml", std::process::id()));
    let report = config.save_to(&path).expect("atomic save succeeds");
    let reloaded = Configuration::load_from(&path)
        .expect("saved file loads")
        .config;
    assert_eq!(reloaded.len(), config.len());
    println!("XML round-trip: {} bytes", report.bytes);
    let _ = std::fs::remove_file(&path);

    // 5. Retrieve combinations of interesting regions.
    let q = parse_query("{(x, y) | color(x) = red, x {N, NW, NE, NW:N, N:NE, NW:N:NE} y}")
        .expect("static query");
    let answers = evaluate(&q, &config).expect("evaluates");
    println!("\n{q}");
    for b in answers.iter().take(8) {
        let rel = config.relation_between(&b.values[0], &b.values[1]).unwrap();
        println!("  {} {} {}", b.values[0], rel, b.values[1]);
    }
    if answers.len() > 8 {
        println!("  … and {} more", answers.len() - 8);
    }
    println!("{} answer(s)", answers.len());
}
