//! Mapping between [`Configuration`] and the paper's XML vocabulary.

use super::escape::escape_attribute;
use super::parser::{Event, Parser};
use crate::model::{ConfigError, Configuration, StoredRelation};
use cardir_geometry::{Point, Polygon, Region};
use std::fmt;

/// Errors raised by XML import.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlError {
    /// Lexical/parse failure.
    Parse(super::parser::ParseError),
    /// The document does not follow the CARDIRECT DTD.
    Structure(String),
    /// The document was well-formed but violated a model invariant.
    Config(ConfigError),
    /// A coordinate attribute was not a finite number.
    BadNumber(String),
    /// A `Relation type` attribute was not a cardinal direction relation.
    BadRelation(String),
    /// A polygon was geometrically invalid (degenerate, < 3 edges, …).
    BadPolygon(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Parse(e) => write!(f, "{e}"),
            XmlError::Structure(s) => write!(f, "invalid CARDIRECT document: {s}"),
            XmlError::Config(e) => write!(f, "{e}"),
            XmlError::BadNumber(s) => write!(f, "invalid coordinate {s:?}"),
            XmlError::BadRelation(s) => write!(f, "invalid relation type {s:?}"),
            XmlError::BadPolygon(s) => write!(f, "invalid polygon: {s}"),
        }
    }
}

impl std::error::Error for XmlError {}

impl From<super::parser::ParseError> for XmlError {
    fn from(e: super::parser::ParseError) -> Self {
        XmlError::Parse(e)
    }
}

impl From<ConfigError> for XmlError {
    fn from(e: ConfigError) -> Self {
        XmlError::Config(e)
    }
}

/// Serialises a configuration to the paper's XML format.
pub fn to_xml(config: &Configuration) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(&format!(
        "<Image name=\"{}\" file=\"{}\">\n",
        escape_attribute(&config.name),
        escape_attribute(&config.file)
    ));
    for region in config.regions() {
        out.push_str(&format!(
            "  <Region id=\"{}\" name=\"{}\" color=\"{}\"",
            escape_attribute(&region.id),
            escape_attribute(&region.name),
            escape_attribute(&region.color)
        ));
        // Custom thematic attributes (extension beyond the printed DTD).
        for (key, value) in &region.attributes {
            out.push_str(&format!(" data-{}=\"{}\"", key, escape_attribute(value)));
        }
        out.push_str(">\n");
        for (i, polygon) in region.region.polygons().iter().enumerate() {
            out.push_str(&format!(
                "    <Polygon id=\"{}-{}\">\n",
                escape_attribute(&region.id),
                i
            ));
            for v in polygon.vertices() {
                out.push_str(&format!("      <Edge x=\"{}\" y=\"{}\"/>\n", v.x, v.y));
            }
            out.push_str("    </Polygon>\n");
        }
        out.push_str("  </Region>\n");
    }
    for rel in config.relations() {
        out.push_str(&format!(
            "  <Relation type=\"{}\" primary=\"{}\" reference=\"{}\"/>\n",
            rel.relation,
            escape_attribute(&rel.primary),
            escape_attribute(&rel.reference)
        ));
    }
    out.push_str("</Image>\n");
    out
}

fn attr<'a>(attributes: &'a [(String, String)], name: &str) -> Option<&'a str> {
    attributes
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn required<'a>(
    attributes: &'a [(String, String)],
    element: &str,
    name: &str,
) -> Result<&'a str, XmlError> {
    attr(attributes, name).ok_or_else(|| {
        XmlError::Structure(format!(
            "<{element}> is missing required attribute {name:?}"
        ))
    })
}

fn parse_coord(s: &str) -> Result<f64, XmlError> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| XmlError::BadNumber(s.to_string()))?;
    if !v.is_finite() {
        return Err(XmlError::BadNumber(s.to_string()));
    }
    Ok(v)
}

/// Parses a CARDIRECT XML document into a configuration.
///
/// Validates the DTD structure (one `Image` root holding `Region+` then
/// `Relation*`; each `Polygon` holding at least three `Edge`s) and the
/// model invariants (unique XML-name region ids, relation `IDREF`s
/// resolving, geometrically valid polygons).
pub fn from_xml(input: &str) -> Result<Configuration, XmlError> {
    let mut parser = Parser::new(input);

    // Root element.
    let (name, file) = match parser.next_event()? {
        Some(Event::Start {
            name,
            attributes,
            self_closing,
        }) if name == "Image" => {
            if self_closing {
                return Err(XmlError::Structure(
                    "<Image> must contain at least one <Region>".into(),
                ));
            }
            (
                attr(&attributes, "name").unwrap_or_default().to_string(),
                attr(&attributes, "file").unwrap_or_default().to_string(),
            )
        }
        other => {
            return Err(XmlError::Structure(format!(
                "expected <Image> root, found {other:?}"
            )))
        }
    };
    let mut config = Configuration::new(name, file);
    let mut relations: Vec<StoredRelation> = Vec::new();
    let mut seen_relation = false;

    loop {
        match parser.next_event()? {
            Some(Event::Start {
                name,
                attributes,
                self_closing,
            }) if name == "Region" => {
                if seen_relation {
                    return Err(XmlError::Structure(
                        "<Region> elements must precede <Relation> elements".into(),
                    ));
                }
                let id = required(&attributes, "Region", "id")?.to_string();
                let display = attr(&attributes, "name").unwrap_or(&id).to_string();
                let color = attr(&attributes, "color").unwrap_or_default().to_string();
                let custom: Vec<(String, String)> = attributes
                    .iter()
                    .filter_map(|(k, v)| {
                        k.strip_prefix("data-")
                            .map(|name| (name.to_string(), v.clone()))
                    })
                    .collect();
                let polygons = if self_closing {
                    Vec::new()
                } else {
                    read_polygons(&mut parser)?
                };
                if polygons.is_empty() {
                    return Err(XmlError::Structure(format!(
                        "region {id:?} has no polygons (regions are non-empty point sets)"
                    )));
                }
                let region =
                    Region::new(polygons).map_err(|e| XmlError::BadPolygon(e.to_string()))?;
                config.add_region(id.clone(), display, color, region)?;
                for (key, value) in custom {
                    config.set_attribute(&id, key, value)?;
                }
            }
            Some(Event::Start {
                name,
                attributes,
                self_closing,
            }) if name == "Relation" => {
                seen_relation = true;
                let type_str = required(&attributes, "Relation", "type")?;
                let relation = type_str
                    .parse()
                    .map_err(|_| XmlError::BadRelation(type_str.to_string()))?;
                relations.push(StoredRelation {
                    relation,
                    primary: required(&attributes, "Relation", "primary")?.to_string(),
                    reference: required(&attributes, "Relation", "reference")?.to_string(),
                });
                if !self_closing {
                    expect_end(&mut parser, "Relation")?;
                }
            }
            Some(Event::End { name }) if name == "Image" => break,
            Some(Event::Text(_)) => {}
            other => {
                return Err(XmlError::Structure(format!(
                    "unexpected content inside <Image>: {other:?}"
                )))
            }
        }
    }
    if config.is_empty() {
        return Err(XmlError::Structure(
            "<Image> must contain at least one <Region>".into(),
        ));
    }
    config.set_relations(relations)?;
    Ok(config)
}

fn read_polygons(parser: &mut Parser<'_>) -> Result<Vec<Polygon>, XmlError> {
    let mut polygons = Vec::new();
    loop {
        match parser.next_event()? {
            Some(Event::Start {
                name, self_closing, ..
            }) if name == "Polygon" => {
                if self_closing {
                    return Err(XmlError::Structure(
                        "<Polygon> needs at least three <Edge> children".into(),
                    ));
                }
                let mut vertices: Vec<Point> = Vec::new();
                loop {
                    match parser.next_event()? {
                        Some(Event::Start {
                            name,
                            attributes,
                            self_closing,
                        }) if name == "Edge" => {
                            let x = parse_coord(required(&attributes, "Edge", "x")?)?;
                            let y = parse_coord(required(&attributes, "Edge", "y")?)?;
                            vertices.push(Point::new(x, y));
                            if !self_closing {
                                expect_end(parser, "Edge")?;
                            }
                        }
                        Some(Event::End { name }) if name == "Polygon" => break,
                        Some(Event::Text(_)) => {}
                        other => {
                            return Err(XmlError::Structure(format!(
                                "unexpected content inside <Polygon>: {other:?}"
                            )))
                        }
                    }
                }
                if vertices.len() < 3 {
                    return Err(XmlError::Structure(
                        "<Polygon> needs at least three <Edge> children".into(),
                    ));
                }
                polygons
                    .push(Polygon::new(vertices).map_err(|e| XmlError::BadPolygon(e.to_string()))?);
            }
            Some(Event::End { name }) if name == "Region" => return Ok(polygons),
            Some(Event::Text(_)) => {}
            other => {
                return Err(XmlError::Structure(format!(
                    "unexpected content inside <Region>: {other:?}"
                )))
            }
        }
    }
}

fn expect_end(parser: &mut Parser<'_>, element: &str) -> Result<(), XmlError> {
    match parser.next_event()? {
        Some(Event::End { name }) if name == element => Ok(()),
        other => Err(XmlError::Structure(format!(
            "expected </{element}>, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    fn sample() -> Configuration {
        let mut c = Configuration::new("war map", "greece & islands.png");
        c.add_region("b", "Base <1>", "red", rect(0.0, 0.0, 4.0, 4.0))
            .unwrap();
        c.add_region("s", "South's", "blue", rect(1.25, -3.5, 3.0, -1.0))
            .unwrap();
        c.compute_all_relations();
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let xml = to_xml(&original);
        let parsed = from_xml(&xml).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.file, original.file);
        assert_eq!(parsed.len(), original.len());
        for (a, b) in parsed.regions().iter().zip(original.regions()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.color, b.color);
            assert_eq!(a.region, b.region); // exact coordinates (f64 round-trip)
        }
        assert_eq!(parsed.relations(), original.relations());
    }

    #[test]
    fn output_follows_the_dtd_vocabulary() {
        let xml = to_xml(&sample());
        assert!(xml.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"));
        for token in [
            "<Image ",
            "<Region ",
            "<Polygon ",
            "<Edge ",
            "<Relation ",
            "primary=",
            "reference=",
        ] {
            assert!(xml.contains(token), "missing {token} in:\n{xml}");
        }
        // Attribute values are escaped.
        assert!(xml.contains("greece &amp; islands.png"));
        assert!(xml.contains("Base &lt;1&gt;"));
        assert!(xml.contains("South&apos;s"));
    }

    #[test]
    fn import_validates_structure() {
        assert!(matches!(from_xml("<Wrong/>"), Err(XmlError::Structure(_))));
        assert!(matches!(
            from_xml("<Image name='x' file='y'></Image>"),
            Err(XmlError::Structure(_))
        ));
        // Region after Relation violates (Region+, Relation*).
        let bad_order = r#"<Image><Region id="a"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region><Relation type="S" primary="a" reference="a"/><Region id="b"><Polygon id="q"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region></Image>"#;
        assert!(matches!(from_xml(bad_order), Err(XmlError::Structure(_))));
        // Polygon with 2 edges violates (Edge, Edge, Edge, Edge*).
        let two_edges = r#"<Image><Region id="a"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/></Polygon></Region></Image>"#;
        assert!(matches!(from_xml(two_edges), Err(XmlError::Structure(_))));
    }

    #[test]
    fn import_validates_values() {
        let bad_coord = r#"<Image><Region id="a"><Polygon id="p"><Edge x="zero" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region></Image>"#;
        assert!(matches!(from_xml(bad_coord), Err(XmlError::BadNumber(_))));
        let bad_rel = r#"<Image><Region id="a"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region><Relation type="XYZ" primary="a" reference="a"/></Image>"#;
        assert!(matches!(from_xml(bad_rel), Err(XmlError::BadRelation(_))));
        let dangling = r#"<Image><Region id="a"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region><Relation type="S" primary="a" reference="ghost"/></Image>"#;
        assert!(matches!(
            from_xml(dangling),
            Err(XmlError::Config(ConfigError::UnknownId(_)))
        ));
        let degenerate = r#"<Image><Region id="a"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="1"/><Edge x="2" y="2"/></Polygon></Region></Image>"#;
        assert!(matches!(from_xml(degenerate), Err(XmlError::BadPolygon(_))));
    }

    #[test]
    fn import_accepts_non_self_closing_empty_elements() {
        let doc = r#"<Image name="n" file="f"><Region id="a"><Polygon id="p"><Edge x="0" y="0"></Edge><Edge x="1" y="0"></Edge><Edge x="0" y="1"></Edge></Polygon></Region><Relation type="S" primary="a" reference="a"></Relation></Image>"#;
        let c = from_xml(doc).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.relations().len(), 1);
    }

    #[test]
    fn multi_polygon_regions_round_trip() {
        let mut c = Configuration::new("m", "f");
        let region = Region::new(vec![
            rect(0.0, 0.0, 1.0, 1.0).polygons()[0].clone(),
            rect(2.0, 2.0, 3.0, 3.0).polygons()[0].clone(),
        ])
        .unwrap();
        c.add_region("islands", "Islands", "blue", region).unwrap();
        let back = from_xml(&to_xml(&c)).unwrap();
        assert_eq!(back.region("islands").unwrap().region.polygon_count(), 2);
    }
}
