//! Robustness: none of the text front ends (XML, query language, WKT,
//! relation parser, raster text) may panic on arbitrary input — they
//! return structured errors instead. Inputs come from a seeded
//! [`SplitMix64`] fuzzer, so every run replays the identical corpus.

use cardir::workloads::SplitMix64;

/// A random string of up to `max_len` chars drawn from `pool`.
fn fuzz(rng: &mut SplitMix64, max_len: usize, pool: &[char]) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| pool[rng.random_range(0..pool.len())])
        .collect()
}

/// A wide pool: ASCII text, XML/query metacharacters, whitespace,
/// controls, and multi-byte characters.
const WILD: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '1', '9', ' ', '\t', '\n', '\r', '<', '>', '&', ';', '"', '\'',
    '{', '}', '(', ')', '|', '=', ':', ',', '.', '-', '_', '/', '\\', '%', '#', '?', '!', '\0',
    'é', '名', '前', '🦀', '\u{7f}', '\u{2028}',
];

#[test]
fn xml_parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(201);
    for _ in 0..512 {
        let input = fuzz(&mut rng, 300, WILD);
        let _ = cardir::cardirect::from_xml(&input);
    }
}

/// Structured tag soup: random open/close/self-closing tags with random
/// attributes, interleaved with text — much likelier to reach deep parser
/// states than uniform noise.
#[test]
fn xml_parser_never_panics_on_tagged_soup() {
    let mut rng = SplitMix64::seed_from_u64(202);
    let names = ["Image", "Region", "Rel", "a", "polyGon", "x1y2"];
    let attrs = ["name", "file", "id", "x", "col"];
    for _ in 0..512 {
        let mut input = String::new();
        for _ in 0..rng.random_range(0usize..20) {
            match rng.random_range(0u32..4) {
                0 => {
                    input.push('<');
                    input.push_str(names[rng.random_range(0..names.len())]);
                    if rng.random_bool(0.5) {
                        let quote = if rng.random_bool(0.5) { '\'' } else { '"' };
                        input.push(' ');
                        input.push_str(attrs[rng.random_range(0..attrs.len())]);
                        input.push('=');
                        input.push(quote);
                        input.push_str(&fuzz(&mut rng, 6, WILD).replace(quote, ""));
                        input.push(quote);
                    }
                    if rng.random_bool(0.3) {
                        input.push('/');
                    }
                    input.push('>');
                }
                1 => {
                    input.push_str("</");
                    input.push_str(names[rng.random_range(0..names.len())]);
                    input.push('>');
                }
                _ => input.push_str(&fuzz(&mut rng, 12, WILD)),
            }
        }
        let _ = cardir::cardirect::from_xml(&input);
        let _ = cardir::cardirect::xml::parse_events(&input);
    }
}

#[test]
fn query_parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(203);
    for _ in 0..512 {
        let input = fuzz(&mut rng, 200, WILD);
        let _ = cardir::cardirect::parse_query(&input);
    }
}

/// Near-queries: the right shape (`{(...) | ...}`) with noisy bodies.
#[test]
fn query_parser_never_panics_on_near_queries() {
    let mut rng = SplitMix64::seed_from_u64(204);
    let body_pool: Vec<char> = "abcxyzNSEWB(){}=:, ".chars().collect();
    let var_pool: Vec<char> = "xyz, ".chars().collect();
    for _ in 0..512 {
        let input = format!(
            "{{({}) | {}}}",
            fuzz(&mut rng, 10, &var_pool),
            fuzz(&mut rng, 60, &body_pool)
        );
        let _ = cardir::cardirect::parse_query(&input);
    }
}

#[test]
fn wkt_parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(205);
    let pool: Vec<char> = "POLYGONMULTI()0123456789 .,-".chars().collect();
    for _ in 0..512 {
        let input = fuzz(&mut rng, 200, &pool);
        let _ = cardir::geometry::from_wkt(&input);
    }
}

#[test]
fn relation_parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(206);
    let pool: Vec<char> = "NSEWB: nswb,;".chars().collect();
    for _ in 0..512 {
        let _ = fuzz(&mut rng, 40, WILD).parse::<cardir::core::CardinalRelation>();
        let _ = fuzz(&mut rng, 40, &pool).parse::<cardir::core::CardinalRelation>();
    }
}

#[test]
fn raster_text_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(207);
    let pool: Vec<char> = " .0123456789abcxyz\n".chars().collect();
    for _ in 0..512 {
        let input = fuzz(&mut rng, 200, &pool);
        let _ = cardir::segment::Raster::from_text(&input);
    }
}

/// Round-trip law: whatever the writer emits, the parser accepts — for
/// configurations with hostile strings in every text field.
#[test]
fn xml_writer_output_always_parses() {
    let mut rng = SplitMix64::seed_from_u64(208);
    for case in 0..64 {
        let name = fuzz(&mut rng, 30, WILD);
        let file = fuzz(&mut rng, 30, WILD);
        let color = fuzz(&mut rng, 15, WILD);
        let mut config = cardir::cardirect::Configuration::new(name, file);
        let region =
            cardir::geometry::Region::from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]).unwrap();
        config.add_region("r1", "名前 <&>", color, region).unwrap();
        config.compute_all_relations();
        let xml = cardir::cardirect::to_xml(&config);
        let back = cardir::cardirect::from_xml(&xml).unwrap();
        assert_eq!(&back.name, &config.name, "case {case}");
        assert_eq!(&back.file, &config.file, "case {case}");
        assert_eq!(
            &back.regions()[0].color,
            &config.regions()[0].color,
            "case {case}"
        );
    }
}

/// WKT round-trip law over random star regions.
#[test]
fn wkt_round_trip_random_regions() {
    use cardir::geometry::{from_wkt, to_wkt, Point, Region};
    let mut rng = SplitMix64::seed_from_u64(209);
    for case in 0..64 {
        let n = rng.random_range(3usize..24);
        let k = rng.random_range(1usize..4);
        let polys: Vec<_> = (0..k)
            .map(|i| {
                cardir::workloads::star_polygon(
                    &mut rng,
                    Point::new(i as f64 * 20.0, 0.0),
                    1.0,
                    4.0,
                    n,
                )
            })
            .collect();
        let region = Region::new(polys).unwrap();
        let back = from_wkt(&to_wkt(&region)).unwrap();
        assert_eq!(back, region, "case {case}");
    }
}
