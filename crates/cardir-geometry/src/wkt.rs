//! Well-Known Text (WKT) interchange for regions.
//!
//! The paper's regions are "sets of polygons (stored as lists of their
//! edges)" — exactly WKT's `POLYGON` / `MULTIPOLYGON` outer rings. This
//! module reads and writes that subset so regions can be exchanged with
//! standard GIS tooling:
//!
//! * a [`Region`] with one member serialises as `POLYGON ((x y, …))`;
//! * a composite region as `MULTIPOLYGON (((…)), ((…)))`.
//!
//! Interior rings (holes) are **rejected on input** rather than silently
//! dropped: the `REG*` representation models holes by decomposition into
//! simple polygons (paper Fig. 2), so a WKT polygon with holes has no
//! faithful single-polygon image here. Ring closure is normalised both
//! ways (WKT repeats the first vertex; [`Polygon`] does not store it).

use crate::point::Point;
use crate::polygon::Polygon;
use crate::region::Region;
use std::fmt;

/// Errors raised when parsing WKT.
#[derive(Debug, Clone, PartialEq)]
pub enum WktError {
    /// Geometry tag was not `POLYGON` or `MULTIPOLYGON`.
    UnsupportedGeometry(String),
    /// A polygon had interior rings (holes); see the module docs.
    InteriorRingsUnsupported,
    /// Structural problem (unbalanced parentheses, bad coordinates, …).
    Syntax(String),
    /// The rings were geometrically invalid (degenerate, < 3 points, …).
    InvalidGeometry(String),
}

impl fmt::Display for WktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WktError::UnsupportedGeometry(tag) => {
                write!(
                    f,
                    "unsupported WKT geometry {tag:?} (expected POLYGON or MULTIPOLYGON)"
                )
            }
            WktError::InteriorRingsUnsupported => write!(
                f,
                "WKT interior rings are unsupported: decompose holes into simple polygons (REG*)"
            ),
            WktError::Syntax(msg) => write!(f, "WKT syntax error: {msg}"),
            WktError::InvalidGeometry(msg) => write!(f, "invalid WKT geometry: {msg}"),
        }
    }
}

impl std::error::Error for WktError {}

/// Serialises a region as `POLYGON` (single member) or `MULTIPOLYGON`.
pub fn to_wkt(region: &Region) -> String {
    let ring = |p: &Polygon| {
        let mut s = String::from("(");
        for v in p.vertices() {
            s.push_str(&format!("{} {}, ", v.x, v.y));
        }
        // Close the ring by repeating the first vertex, per the WKT spec.
        let first = p.vertices()[0];
        s.push_str(&format!("{} {})", first.x, first.y));
        s
    };
    match region.polygons() {
        [single] => format!("POLYGON ({})", ring(single)),
        many => {
            let parts: Vec<String> = many.iter().map(|p| format!("({})", ring(p))).collect();
            format!("MULTIPOLYGON ({})", parts.join(", "))
        }
    }
}

/// Parses `POLYGON` / `MULTIPOLYGON` WKT into a region.
pub fn from_wkt(input: &str) -> Result<Region, WktError> {
    let trimmed = input.trim();
    let (tag, rest) = split_tag(trimmed)?;
    match tag.to_ascii_uppercase().as_str() {
        "POLYGON" => {
            let rings = parse_ring_group(rest)?;
            polygon_from_rings(rings).map(Region::single)
        }
        "MULTIPOLYGON" => {
            let groups = parse_group_list(rest)?;
            let polygons: Result<Vec<Polygon>, WktError> =
                groups.into_iter().map(polygon_from_rings).collect();
            Region::new(polygons?).map_err(|e| WktError::InvalidGeometry(e.to_string()))
        }
        other => Err(WktError::UnsupportedGeometry(other.to_string())),
    }
}

fn polygon_from_rings(rings: Vec<Vec<Point>>) -> Result<Polygon, WktError> {
    match rings.len() {
        0 => Err(WktError::Syntax("polygon with no rings".into())),
        1 => Polygon::new(rings.into_iter().next().expect("len checked"))
            .map_err(|e| WktError::InvalidGeometry(e.to_string())),
        _ => Err(WktError::InteriorRingsUnsupported),
    }
}

fn split_tag(s: &str) -> Result<(&str, &str), WktError> {
    let open = s
        .find('(')
        .ok_or_else(|| WktError::Syntax("missing '('".into()))?;
    let tag = s[..open].trim();
    if tag.is_empty() {
        return Err(WktError::Syntax("missing geometry tag".into()));
    }
    let body = s[open..].trim();
    Ok((tag, body))
}

/// Consumes a balanced `(…)` group starting at the first byte of `s`,
/// returning (inside, remainder-after-group).
fn take_group(s: &str) -> Result<(&str, &str), WktError> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'(') {
        return Err(WktError::Syntax(format!("expected '(' at {s:.20?}")));
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Ok((&s[1..i], &s[i + 1..]));
                }
            }
            _ => {}
        }
    }
    Err(WktError::Syntax("unbalanced parentheses".into()))
}

/// Parses `((ring), (ring), …)` — the body of a POLYGON: outer group
/// holding ring groups.
fn parse_ring_group(s: &str) -> Result<Vec<Vec<Point>>, WktError> {
    let (inside, rest) = take_group(s.trim())?;
    if !rest.trim().is_empty() {
        return Err(WktError::Syntax(format!(
            "trailing input {:.20?}",
            rest.trim()
        )));
    }
    let mut rings = Vec::new();
    let mut cursor = inside.trim();
    while !cursor.is_empty() {
        let (ring_text, rest) = take_group(cursor)?;
        rings.push(parse_coordinates(ring_text)?);
        cursor = rest.trim().strip_prefix(',').unwrap_or(rest.trim()).trim();
    }
    Ok(rings)
}

/// Parses `(((ring)), ((ring)), …)` — the body of a MULTIPOLYGON.
fn parse_group_list(s: &str) -> Result<Vec<Vec<Vec<Point>>>, WktError> {
    let (inside, rest) = take_group(s.trim())?;
    if !rest.trim().is_empty() {
        return Err(WktError::Syntax(format!(
            "trailing input {:.20?}",
            rest.trim()
        )));
    }
    let mut groups = Vec::new();
    let mut cursor = inside.trim();
    while !cursor.is_empty() {
        let (group_text, rest) = take_group(cursor)?;
        // group_text is `(ring), (ring)…` — reuse the ring scanner.
        let mut rings = Vec::new();
        let mut ring_cursor = group_text.trim();
        while !ring_cursor.is_empty() {
            let (ring_text, r) = take_group(ring_cursor)?;
            rings.push(parse_coordinates(ring_text)?);
            ring_cursor = r.trim().strip_prefix(',').unwrap_or(r.trim()).trim();
        }
        groups.push(rings);
        cursor = rest.trim().strip_prefix(',').unwrap_or(rest.trim()).trim();
    }
    Ok(groups)
}

fn parse_coordinates(s: &str) -> Result<Vec<Point>, WktError> {
    let mut points = Vec::new();
    for pair in s.split(',') {
        let mut nums = pair.split_whitespace();
        let x: f64 = nums
            .next()
            .ok_or_else(|| WktError::Syntax("missing x coordinate".into()))?
            .parse()
            .map_err(|_| WktError::Syntax(format!("bad coordinate in {pair:?}")))?;
        let y: f64 = nums
            .next()
            .ok_or_else(|| WktError::Syntax(format!("missing y coordinate in {pair:?}")))?
            .parse()
            .map_err(|_| WktError::Syntax(format!("bad coordinate in {pair:?}")))?;
        if nums.next().is_some() {
            return Err(WktError::Syntax(format!(
                "more than two coordinates in {pair:?}"
            )));
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(WktError::InvalidGeometry(format!(
                "non-finite coordinate in {pair:?}"
            )));
        }
        points.push(Point::new(x, y));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect_region(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    #[test]
    fn polygon_round_trip() {
        let r = rect_region(0.0, 0.0, 4.0, 2.5);
        let wkt = to_wkt(&r);
        assert!(wkt.starts_with("POLYGON (("), "{wkt}");
        let back = from_wkt(&wkt).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn multipolygon_round_trip() {
        let r = rect_region(0.0, 0.0, 1.0, 1.0).union(rect_region(3.0, 3.0, 5.0, 4.0));
        let wkt = to_wkt(&r);
        assert!(wkt.starts_with("MULTIPOLYGON ((("), "{wkt}");
        let back = from_wkt(&wkt).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parses_foreign_formatting() {
        // Lowercase tag, irregular whitespace, no closing-vertex issues.
        let r = from_wkt("  polygon( ( 0 0 , 4 0,4 4, 0 4 , 0 0 ) ) ").unwrap();
        assert_eq!(r.area(), 16.0);
        // Unclosed rings are accepted (Polygon normalises anyway).
        let r = from_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4))").unwrap();
        assert_eq!(r.area(), 16.0);
    }

    #[test]
    fn rejects_unsupported_and_malformed() {
        assert!(matches!(
            from_wkt("POINT (1 2)"),
            Err(WktError::UnsupportedGeometry(_))
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 0, 9 0, 9 9, 0 9), (3 3, 6 3, 6 6, 3 6))"),
            Err(WktError::InteriorRingsUnsupported)
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 0, 1 1"),
            Err(WktError::Syntax(_))
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 zero, 1 1, 2 0))"),
            Err(WktError::Syntax(_))
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 0 0, 1 1 1, 2 0 0))"),
            Err(WktError::Syntax(_))
        ));
        assert!(matches!(
            from_wkt("((0 0, 1 1, 2 0))"),
            Err(WktError::Syntax(_))
        ));
        assert!(matches!(
            from_wkt("POLYGON ((0 0, 1 1, 2 2))"),
            Err(WktError::InvalidGeometry(_))
        ));
        assert!(matches!(
            from_wkt("POLYGON (()) trailing"),
            Err(WktError::Syntax(_))
        ));
    }

    #[test]
    fn wkt_closes_rings() {
        let r = rect_region(1.0, 2.0, 3.0, 4.0);
        let wkt = to_wkt(&r);
        // First and last coordinate pair of the ring coincide.
        let inner = wkt.trim_start_matches("POLYGON ((").trim_end_matches("))");
        let coords: Vec<&str> = inner.split(", ").collect();
        assert_eq!(coords.first(), coords.last());
        assert_eq!(coords.len(), 5); // 4 vertices + closure
    }

    #[test]
    fn relations_survive_wkt_round_trip() {
        use crate::Region;
        let a = rect_region(5.0, 5.0, 7.0, 7.0);
        let b = rect_region(0.0, 0.0, 4.0, 4.0);
        let a2: Region = from_wkt(&to_wkt(&a)).unwrap();
        let b2: Region = from_wkt(&to_wkt(&b)).unwrap();
        assert_eq!(a2.mbb(), a.mbb());
        assert_eq!(b2.mbb(), b.mbb());
    }
}
