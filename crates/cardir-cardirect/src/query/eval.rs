//! Query evaluation: backtracking join with unary pre-filtering, plus an
//! R-tree-accelerated variant.

use super::ast::{Condition, Query};
use crate::model::Configuration;
use cardir_core::CardinalRelation;
use cardir_geometry::{Band, BoundingBox, Point};
use cardir_index::RTree;
use cardir_reasoning::DisjunctiveRelation;
use std::collections::HashMap;
use std::fmt;

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An identity condition named a region that does not exist.
    UnknownRegion(String),
    /// An attribute condition used an attribute the model does not know.
    UnknownAttribute(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRegion(r) => write!(f, "unknown region {r:?}"),
            EvalError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// One answer tuple: region ids bound positionally to the query's head
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Region ids, aligned with [`Query::variables`].
    pub values: Vec<String>,
}

/// An R-tree over a configuration's region bounding boxes, used to prune
/// direction-condition candidates (the GIS filter step).
pub struct RegionIndex {
    tree: RTree<usize>,
}

impl RegionIndex {
    /// Builds the index for a configuration.
    pub fn build(config: &Configuration) -> Self {
        let mut tree = RTree::new();
        for (i, r) in config.regions().iter().enumerate() {
            tree.insert(r.region.mbb(), i);
        }
        RegionIndex { tree }
    }

    /// Candidate region indices whose mbb intersects the hull of the
    /// relation's tiles relative to `reference_mbb` — a necessary
    /// condition for `candidate R reference` with any `R` in the set.
    fn candidates(&self, relation: &DisjunctiveRelation, reference_mbb: BoundingBox) -> Vec<usize> {
        let hull = relation_hull(relation, reference_mbb);
        self.tree.search(hull).into_iter().copied().collect()
    }
}

/// The hull box of a disjunctive relation's tiles relative to a reference
/// box: the primary's mbb must lie inside it for at least one disjunct,
/// so searching the hull over-approximates the candidate set.
fn relation_hull(relation: &DisjunctiveRelation, mbb: BoundingBox) -> BoundingBox {
    let mut x_lo = f64::INFINITY;
    let mut x_hi = f64::NEG_INFINITY;
    let mut y_lo = f64::INFINITY;
    let mut y_hi = f64::NEG_INFINITY;
    for r in relation.iter() {
        let (lo, hi) = axis_hull(r, mbb.min.x, mbb.max.x, true);
        x_lo = x_lo.min(lo);
        x_hi = x_hi.max(hi);
        let (lo, hi) = axis_hull(r, mbb.min.y, mbb.max.y, false);
        y_lo = y_lo.min(lo);
        y_hi = y_hi.max(hi);
    }
    BoundingBox::new(Point::new(x_lo, y_lo), Point::new(x_hi, y_hi))
}

fn axis_hull(r: CardinalRelation, lo: f64, hi: f64, x_axis: bool) -> (f64, f64) {
    let mut any_lower = false;
    let mut any_middle = false;
    let mut any_upper = false;
    for t in r.tiles() {
        let (xb, yb) = t.bands();
        let b = if x_axis { xb } else { yb };
        match b {
            Band::Lower => any_lower = true,
            Band::Middle => any_middle = true,
            Band::Upper => any_upper = true,
        }
    }
    let min = if any_lower {
        f64::NEG_INFINITY
    } else if any_middle {
        lo
    } else {
        hi
    };
    let max = if any_upper {
        f64::INFINITY
    } else if any_middle {
        hi
    } else {
        lo
    };
    (min, max)
}

/// Evaluates a query over a configuration by backtracking join.
///
/// Unary conditions (identity, attribute) pre-filter each variable's
/// candidate list; direction conditions are checked as soon as both ends
/// are bound, using stored relations when available and `compute_cdr`
/// otherwise. Answers come out in region-declaration order, head variable
/// by head variable.
pub fn evaluate(query: &Query, config: &Configuration) -> Result<Vec<Binding>, EvalError> {
    evaluate_impl(query, config, None)
}

/// [`evaluate`], with R-tree pruning of direction-condition candidates.
pub fn evaluate_indexed(
    query: &Query,
    config: &Configuration,
    index: &RegionIndex,
) -> Result<Vec<Binding>, EvalError> {
    evaluate_impl(query, config, Some(index))
}

fn evaluate_impl(
    query: &Query,
    config: &Configuration,
    index: Option<&RegionIndex>,
) -> Result<Vec<Binding>, EvalError> {
    let n_vars = query.variables.len();
    let var_index: HashMap<&str, usize> = query
        .variables
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();

    // Unary pre-filtering.
    let mut candidates: Vec<Vec<usize>> = vec![(0..config.len()).collect(); n_vars];
    for cond in &query.conditions {
        match cond {
            Condition::Identity { variable, region } => {
                let id = config
                    .region(region)
                    .map(|r| r.id.clone())
                    .or_else(|| config.id_by_name(region).map(str::to_string))
                    .ok_or_else(|| EvalError::UnknownRegion(region.clone()))?;
                let target = config
                    .regions()
                    .iter()
                    .position(|r| r.id == id)
                    .expect("id resolved above");
                let v = var_index[variable.as_str()];
                candidates[v].retain(|&i| i == target);
            }
            Condition::Attribute {
                attribute,
                variable,
                value,
            } => {
                let known = matches!(attribute.as_str(), "color" | "name" | "id")
                    || config
                        .regions()
                        .iter()
                        .any(|r| r.attributes.contains_key(attribute));
                if !known {
                    return Err(EvalError::UnknownAttribute(attribute.clone()));
                }
                let v = var_index[variable.as_str()];
                candidates[v].retain(|&i| {
                    config
                        .attribute(&config.regions()[i].id, attribute)
                        .is_some_and(|a| a == value)
                });
            }
            Condition::Direction { .. } => {}
        }
    }

    // Binary conditions grouped by the later-bound variable, so each is
    // checked as soon as it becomes decidable.
    let directions: Vec<(usize, &DisjunctiveRelation, usize)> = query
        .conditions
        .iter()
        .filter_map(|c| match c {
            Condition::Direction {
                primary,
                relation,
                reference,
            } => Some((
                var_index[primary.as_str()],
                relation,
                var_index[reference.as_str()],
            )),
            _ => None,
        })
        .collect();

    let mut results = Vec::new();
    let mut binding: Vec<Option<usize>> = vec![None; n_vars];
    search(
        config,
        index,
        &candidates,
        &directions,
        &mut binding,
        0,
        &mut results,
    );

    let bindings = results
        .into_iter()
        .map(|tuple| Binding {
            values: tuple
                .into_iter()
                .map(|i| config.regions()[i].id.clone())
                .collect(),
        })
        .collect();
    Ok(bindings)
}

fn search(
    config: &Configuration,
    index: Option<&RegionIndex>,
    candidates: &[Vec<usize>],
    directions: &[(usize, &DisjunctiveRelation, usize)],
    binding: &mut Vec<Option<usize>>,
    var: usize,
    results: &mut Vec<Vec<usize>>,
) {
    if var == binding.len() {
        results.push(binding.iter().map(|b| b.expect("all bound")).collect());
        return;
    }
    // Candidate mask, optionally narrowed by the R-tree using direction
    // conditions whose other end is already bound.
    let mut narrowed: Option<Vec<bool>> = None;
    if let Some(idx) = index {
        for &(p, rel, r) in directions {
            if p == var {
                if let Some(Some(bound_ref)) = binding.get(r).copied() {
                    let mbb = config.regions()[bound_ref].region.mbb();
                    let mut mask = vec![false; config.len()];
                    for hit in idx.candidates(rel, mbb) {
                        mask[hit] = true;
                    }
                    narrowed = Some(match narrowed {
                        None => mask,
                        Some(prev) => prev.iter().zip(&mask).map(|(a, b)| *a && *b).collect(),
                    });
                }
            }
        }
    }

    for &cand in &candidates[var] {
        if let Some(mask) = &narrowed {
            if !mask[cand] {
                continue;
            }
        }
        binding[var] = Some(cand);
        let mut ok = true;
        for &(p, rel, r) in directions {
            if let (Some(pi), Some(ri)) = (binding[p], binding[r]) {
                if p != var && r != var {
                    continue; // checked when its later end was bound
                }
                let p_id = &config.regions()[pi].id;
                let r_id = &config.regions()[ri].id;
                let computed = config
                    .relation_between(p_id, r_id)
                    .expect("ids come from the configuration");
                if !rel.contains(computed) {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            search(
                config,
                index,
                candidates,
                directions,
                binding,
                var + 1,
                results,
            );
        }
        binding[var] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use cardir_geometry::Region;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// A 3×1 west-to-east strip of regions: left (red), mid (blue),
    /// right (red).
    fn strip() -> Configuration {
        let mut c = Configuration::new("strip", "map.png");
        c.add_region("left", "Left", "red", rect(0.0, 0.0, 1.0, 1.0))
            .unwrap();
        c.add_region("mid", "Middle", "blue", rect(2.0, 0.0, 3.0, 1.0))
            .unwrap();
        c.add_region("right", "Right", "red", rect(4.0, 0.0, 5.0, 1.0))
            .unwrap();
        c.compute_all_relations();
        c
    }

    fn ids(bindings: &[Binding]) -> Vec<Vec<&str>> {
        bindings
            .iter()
            .map(|b| b.values.iter().map(String::as_str).collect())
            .collect()
    }

    #[test]
    fn attribute_filtering() {
        let c = strip();
        let q = parse_query("{(x) | color(x) = red}").unwrap();
        assert_eq!(
            ids(&evaluate(&q, &c).unwrap()),
            vec![vec!["left"], vec!["right"]]
        );
    }

    #[test]
    fn identity_by_id_and_name() {
        let c = strip();
        for needle in ["mid", "Middle"] {
            let q = parse_query(&format!("{{(x) | x = {needle}}}")).unwrap();
            assert_eq!(ids(&evaluate(&q, &c).unwrap()), vec![vec!["mid"]]);
        }
        let q = parse_query("{(x) | x = Atlantis}").unwrap();
        assert!(matches!(evaluate(&q, &c), Err(EvalError::UnknownRegion(_))));
    }

    #[test]
    fn direction_join() {
        let c = strip();
        let q = parse_query("{(x, y) | x W y}").unwrap();
        let answers = evaluate(&q, &c).unwrap();
        assert_eq!(
            ids(&answers),
            vec![
                vec!["left", "mid"],
                vec!["left", "right"],
                vec!["mid", "right"]
            ]
        );
    }

    #[test]
    fn disjunctive_direction() {
        let c = strip();
        let q = parse_query("{(x, y) | y = mid, x {W, E} y}").unwrap();
        let answers = evaluate(&q, &c).unwrap();
        assert_eq!(
            ids(&answers),
            vec![vec!["left", "mid"], vec!["right", "mid"]]
        );
    }

    #[test]
    fn conjunction_of_attribute_and_direction() {
        let c = strip();
        let q = parse_query("{(x, y) | color(x) = red, color(y) = blue, x E y}").unwrap();
        assert_eq!(ids(&evaluate(&q, &c).unwrap()), vec![vec!["right", "mid"]]);
    }

    #[test]
    fn unknown_attribute_errors() {
        let c = strip();
        let q = parse_query("{(x) | flavor(x) = sweet}").unwrap();
        assert!(matches!(
            evaluate(&q, &c),
            Err(EvalError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn indexed_evaluation_matches_plain() {
        let c = strip();
        let index = RegionIndex::build(&c);
        for q_str in [
            "{(x, y) | x W y}",
            "{(x, y) | color(x) = red, x {W, E} y}",
            "{(x, y) | y = mid, x E y}",
            "{(x, y, z) | x W y, y W z}",
        ] {
            let q = parse_query(q_str).unwrap();
            let plain = evaluate(&q, &c).unwrap();
            let indexed = evaluate_indexed(&q, &c, &index).unwrap();
            assert_eq!(plain, indexed, "query {q_str}");
        }
        let q = parse_query("{(x, y, z) | x W y, y W z}").unwrap();
        assert_eq!(
            ids(&evaluate(&q, &c).unwrap()),
            vec![vec!["left", "mid", "right"]]
        );
    }

    /// The R-tree hull mask prunes: of the strip's three regions, only
    /// those whose box meets the hull west of `mid` come back as
    /// candidates, and pruning never changes an answer.
    #[test]
    fn region_index_prunes_the_w_hull() {
        let c = strip();
        let index = RegionIndex::build(&c);
        let w = DisjunctiveRelation::singleton("W".parse().unwrap());
        let hits = index.candidates(&w, c.regions()[1].region.mbb());
        assert!(
            hits.len() < c.len(),
            "the W hull must prune someone: {hits:?}"
        );
        assert!(hits.contains(&0) && !hits.contains(&2), "{hits:?}");
        // The primary binds after the reference, so the mask applies.
        let q = parse_query("{(x, y) | y W x}").unwrap();
        assert_eq!(
            evaluate_indexed(&q, &c, &index).unwrap(),
            evaluate(&q, &c).unwrap()
        );
    }

    #[test]
    fn relation_hull_boxes() {
        let mbb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        // W: west of the box, y within.
        let w = DisjunctiveRelation::singleton("W".parse().unwrap());
        let hull = relation_hull(&w, mbb);
        assert_eq!(hull.max.x, 0.0);
        assert_eq!(hull.min.x, f64::NEG_INFINITY);
        assert_eq!(hull.min.y, 0.0);
        assert_eq!(hull.max.y, 4.0);
        // B:N: inside the box columns, extending north.
        let bn = DisjunctiveRelation::singleton("B:N".parse().unwrap());
        let hull = relation_hull(&bn, mbb);
        assert_eq!(hull.min.x, 0.0);
        assert_eq!(hull.max.x, 4.0);
        assert_eq!(hull.min.y, 0.0);
        assert_eq!(hull.max.y, f64::INFINITY);
    }
}
