//! Query abstract syntax.

use cardir_reasoning::DisjunctiveRelation;
use std::fmt;

/// A conjunctive query `{(x1, …, xn) | φ}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The head variables, in declaration order; the answer tuples bind
    /// them positionally.
    pub variables: Vec<String>,
    /// The conjuncts of `φ`.
    pub conditions: Vec<Condition>,
}

/// One conjunct of a query condition (paper Section 4: the three forms
/// `x_i = a`, `f(x_i) = c`, `x_i R x_j`).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `x = Attica`: direct reference to a region by id or display name.
    Identity {
        /// The constrained variable.
        variable: String,
        /// Region id or display name.
        region: String,
    },
    /// `color(x) = blue`: thematic attribute restriction.
    Attribute {
        /// Attribute name (`color`, `name`, `id`).
        attribute: String,
        /// The constrained variable.
        variable: String,
        /// Required value.
        value: String,
    },
    /// `x R y` or `x {R1, R2} y`: a (possibly disjunctive) cardinal
    /// direction constraint.
    Direction {
        /// Primary variable.
        primary: String,
        /// The allowed basic relations.
        relation: DisjunctiveRelation,
        /// Reference variable.
        reference: String,
    },
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{(")?;
        for (i, v) in self.variables.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") | ")?;
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Identity { variable, region } => write!(f, "{variable} = {region}"),
            Condition::Attribute {
                attribute,
                variable,
                value,
            } => {
                write!(f, "{attribute}({variable}) = {value}")
            }
            Condition::Direction {
                primary,
                relation,
                reference,
            } => {
                if relation.len() == 1 {
                    let only = relation.iter().next().expect("len 1");
                    write!(f, "{primary} {only} {reference}")
                } else {
                    write!(f, "{primary} {relation} {reference}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::CardinalRelation;

    #[test]
    fn display_round_trips_visually() {
        let q = Query {
            variables: vec!["a".into(), "b".into()],
            conditions: vec![
                Condition::Attribute {
                    attribute: "color".into(),
                    variable: "a".into(),
                    value: "red".into(),
                },
                Condition::Direction {
                    primary: "a".into(),
                    relation: DisjunctiveRelation::singleton("S:SW".parse().unwrap()),
                    reference: "b".into(),
                },
                Condition::Identity {
                    variable: "b".into(),
                    region: "Attica".into(),
                },
            ],
        };
        assert_eq!(
            q.to_string(),
            "{(a, b) | color(a) = red, a S:SW b, b = Attica}"
        );
    }

    #[test]
    fn disjunctive_display_uses_braces() {
        let c = Condition::Direction {
            primary: "x".into(),
            relation: DisjunctiveRelation::from_relations([
                "N".parse::<CardinalRelation>().unwrap(),
                "W".parse::<CardinalRelation>().unwrap(),
            ]),
            reference: "y".into(),
        };
        assert_eq!(c.to_string(), "x {W, N} y");
    }
}
