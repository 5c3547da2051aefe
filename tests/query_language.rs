//! Experiment E8 (DESIGN.md): the Section-4 query over the Fig. 11
//! scenario, plus broader query-language behaviour.

use cardir::cardirect::{evaluate, evaluate_indexed, parse_query, Configuration, RegionIndex};
use cardir::workloads::greece;

fn config() -> Configuration {
    let mut c = Configuration::new("Ancient Greece", "peloponnesian_war.png");
    for r in greece::scenario() {
        c.add_region(r.name.to_lowercase(), r.name, r.alliance.color(), r.region)
            .unwrap();
    }
    c.compute_all_relations();
    c
}

/// The paper's exact query: Athenean regions surrounded by a Spartan
/// region. Answer: Peloponnesos surrounds Aegina.
#[test]
fn e8_the_papers_query() {
    let c = config();
    let q =
        parse_query("{(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b}").unwrap();
    let answers = evaluate(&q, &c).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].values, ["peloponnesos", "aegina"]);
}

/// Fig. 12 content through the query layer: which regions are B:S:SW:W
/// of Attica?
#[test]
fn fig12_relation_as_query() {
    let c = config();
    let q = parse_query("{(x, y) | y = Attica, x B:S:SW:W y}").unwrap();
    let answers = evaluate(&q, &c).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].values, ["peloponnesos", "attica"]);
}

/// Thematic-only queries: alliance membership by colour.
#[test]
fn alliance_membership() {
    let c = config();
    let q = parse_query("{(x) | color(x) = blue}").unwrap();
    let answers = evaluate(&q, &c).unwrap();
    let ids: Vec<&str> = answers.iter().map(|b| b.values[0].as_str()).collect();
    assert_eq!(
        ids,
        ["attica", "islands", "east", "corfu", "southitaly", "aegina"]
    );
}

/// Disjunctive predicates: regions north or north-west of Attica.
#[test]
fn disjunctive_predicate() {
    let c = config();
    let q = parse_query("{(x, y) | y = Attica, x {N, NW, NW:N} y}").unwrap();
    let answers = evaluate(&q, &c).unwrap();
    assert!(!answers.is_empty());
    for b in &answers {
        let rel = c.relation_between(&b.values[0], "attica").unwrap();
        assert!(
            ["N", "NW", "NW:N"].contains(&rel.to_string().as_str()),
            "{rel}"
        );
    }
}

/// The indexed evaluator returns identical answers on every query — on a
/// configuration *without* precomputed relations, so the R-tree actually
/// prunes `compute_cdr` calls.
#[test]
fn indexed_matches_plain_without_stored_relations() {
    let mut c = Configuration::new("Ancient Greece", "map.png");
    for r in greece::scenario() {
        c.add_region(r.name.to_lowercase(), r.name, r.alliance.color(), r.region)
            .unwrap();
    }
    // No compute_all_relations here: relations are computed on demand.
    let index = RegionIndex::build(&c);
    for q_str in [
        "{(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b}",
        "{(x, y) | y = Attica, x B:S:SW:W y}",
        "{(x, y) | x NW y}",
        "{(x, y, z) | x W y, y W z, color(z) = blue}",
    ] {
        let q = parse_query(q_str).unwrap();
        let plain = evaluate(&q, &c).unwrap();
        let indexed = evaluate_indexed(&q, &c, &index).unwrap();
        assert_eq!(plain, indexed, "query: {q_str}");
    }
}

/// Quoted names resolve through identity conditions.
#[test]
fn identity_by_display_name() {
    let c = config();
    let q = parse_query(r#"{(x) | x = "Crete"}"#).unwrap();
    let answers = evaluate(&q, &c).unwrap();
    assert_eq!(answers[0].values, ["crete"]);
}

/// Queries against empty result sets are fine.
#[test]
fn empty_answer_sets() {
    let c = config();
    // Nothing is south of Crete in the scenario.
    let q = parse_query("{(x, y) | y = Crete, x S y}").unwrap();
    assert!(evaluate(&q, &c).unwrap().is_empty());
}
