//! JSON request/response codecs over the workspace's own `Json` value.
//!
//! The wire vocabulary is deliberately small: regions are polygon
//! coordinate lists, edits are `{op, slot?, region?}` objects, and
//! relations travel in the paper's `"B:S:SW"` tile notation (the same
//! string `CardinalRelation` displays and parses). Every decode error
//! is a named [`ApiError`] that the server maps to a `400` with the
//! message in the body — bad payloads never panic a worker.

use cardir_core::{CardinalRelation, PercentageMatrix};
use cardir_engine::{Edit, PairRelation};
use cardir_geometry::Region;
use cardir_telemetry::Json;
use std::fmt;

/// A request payload the API cannot accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl ApiError {
    fn new(msg: impl Into<String>) -> ApiError {
        ApiError(msg.into())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

/// Per-slot annotation carried alongside a region: the id and colour a
/// session's query [`Configuration`](cardir_cardirect::Configuration)
/// is built from. Not journaled — a replayed session falls back to
/// default `r<slot>` ids (see DESIGN.md §14).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionMeta {
    /// XML-valid region id (defaults to `r<slot>`).
    pub id: Option<String>,
    /// Thematic colour for attribute queries.
    pub color: Option<String>,
}

impl RegionMeta {
    /// The id to use for the region in `slot`.
    pub fn id_for(&self, slot: u32) -> String {
        self.id.clone().unwrap_or_else(|| format!("r{slot}"))
    }
}

/// Encodes a region as `{"polygons": [[[x, y], ...], ...]}`.
pub fn region_to_json(region: &Region) -> Json {
    let polygons = region
        .polygons()
        .iter()
        .map(|p| {
            Json::Arr(
                p.vertices()
                    .iter()
                    .map(|v| Json::Arr(vec![Json::F64(v.x), Json::F64(v.y)]))
                    .collect(),
            )
        })
        .collect();
    Json::obj([("polygons", Json::Arr(polygons))])
}

/// Decodes a region from `{"polygons": [[[x, y], ...], ...]}`.
pub fn region_from_json(value: &Json) -> Result<Region, ApiError> {
    let polygons = match value.get("polygons") {
        Some(Json::Arr(polygons)) => polygons,
        _ => return Err(ApiError::new("region must carry a \"polygons\" array")),
    };
    let mut rings = Vec::with_capacity(polygons.len());
    for polygon in polygons {
        let vertices = match polygon {
            Json::Arr(vertices) => vertices,
            _ => {
                return Err(ApiError::new(
                    "each polygon must be an array of [x, y] pairs",
                ))
            }
        };
        let mut ring = Vec::with_capacity(vertices.len());
        for vertex in vertices {
            let pair = match vertex {
                Json::Arr(pair) if pair.len() == 2 => pair,
                _ => return Err(ApiError::new("each vertex must be a [x, y] pair")),
            };
            let x = pair[0].as_f64();
            let y = pair[1].as_f64();
            match (x, y) {
                (Some(x), Some(y)) if x.is_finite() && y.is_finite() => ring.push((x, y)),
                _ => return Err(ApiError::new("vertex coordinates must be finite numbers")),
            }
        }
        rings.push(ring);
    }
    Region::from_rings(rings).map_err(|e| ApiError::new(format!("invalid region: {e}")))
}

/// Decodes one edit object: `{"op": "insert", "region": {...}}`,
/// `{"op": "remove", "slot": N}`, or
/// `{"op": "replace", "slot": N, "region": {...}}`. Inserts and
/// replaces may carry optional `"id"` and `"color"` annotations.
pub fn edit_from_json(value: &Json) -> Result<(Edit, RegionMeta), ApiError> {
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new("edit must carry an \"op\" string"))?;
    let slot = || {
        value
            .get("slot")
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| ApiError::new(format!("\"{op}\" edit must carry a \"slot\" integer")))
    };
    let region = || {
        let json = value
            .get("region")
            .ok_or_else(|| ApiError::new(format!("\"{op}\" edit must carry a \"region\"")))?;
        region_from_json(json)
    };
    let meta = RegionMeta {
        id: value.get("id").and_then(Json::as_str).map(str::to_string),
        color: value
            .get("color")
            .and_then(Json::as_str)
            .map(str::to_string),
    };
    let edit = match op {
        "insert" => Edit::Insert(region()?),
        "remove" => Edit::Remove(slot()?),
        "replace" => Edit::Replace(slot()?, region()?),
        other => return Err(ApiError::new(format!("unknown edit op \"{other}\""))),
    };
    Ok((edit, meta))
}

/// Encodes a percentage matrix as nine-cell nested rows.
pub fn percentages_to_json(matrix: &PercentageMatrix) -> Json {
    Json::Arr(
        matrix
            .rows()
            .iter()
            .map(|row| Json::Arr(row.iter().map(|&v| Json::F64(v)).collect()))
            .collect(),
    )
}

/// Encodes one computed pair with slot ids already resolved by the
/// caller (engine pair indices are cache positions, not slots).
pub fn pair_to_json(primary: u32, reference: u32, pair: &PairRelation) -> Json {
    let mut fields = vec![
        ("primary".to_string(), Json::from(u64::from(primary))),
        ("reference".to_string(), Json::from(u64::from(reference))),
        (
            "relation".to_string(),
            Json::from(pair.relation.to_string().as_str()),
        ),
    ];
    if let Some(pct) = &pair.percentages {
        fields.push(("percentages".to_string(), percentages_to_json(pct)));
    }
    Json::Obj(fields)
}

/// Encodes a bare relation lookup result.
pub fn relation_to_json(primary: u32, reference: u32, relation: Option<CardinalRelation>) -> Json {
    Json::obj([
        ("primary", Json::from(u64::from(primary))),
        ("reference", Json::from(u64::from(reference))),
        (
            "relation",
            match relation {
                Some(r) => Json::from(r.to_string().as_str()),
                None => Json::Null,
            },
        ),
    ])
}

/// Standard error body: `{"error": kind, "detail": message}`.
pub fn error_body(kind: &str, detail: &str) -> String {
    Json::obj([("error", Json::from(kind)), ("detail", Json::from(detail))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::{BoundingBox, Point};
    use cardir_telemetry::parse_json;

    fn unit_square() -> Region {
        Region::rectangle(BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))).unwrap()
    }

    #[test]
    fn region_round_trips_through_json() {
        let region = unit_square();
        let json = region_to_json(&region);
        let back = region_from_json(&json).unwrap();
        assert_eq!(back.mbb(), region.mbb());
        assert_eq!(back.polygons().len(), 1);
    }

    #[test]
    fn edits_decode_with_annotations() {
        let insert = parse_json(
            "{\"op\":\"insert\",\"id\":\"athens\",\"color\":\"blue\",\
             \"region\":{\"polygons\":[[[0,0],[2,0],[2,2],[0,2]]]}}",
        )
        .unwrap();
        let (edit, meta) = edit_from_json(&insert).unwrap();
        assert!(matches!(edit, Edit::Insert(_)));
        assert_eq!(meta.id.as_deref(), Some("athens"));
        assert_eq!(meta.color.as_deref(), Some("blue"));

        let remove = parse_json("{\"op\":\"remove\",\"slot\":3}").unwrap();
        let (edit, meta) = edit_from_json(&remove).unwrap();
        assert_eq!(edit, Edit::Remove(3));
        assert_eq!(meta.id_for(3), "r3");
    }

    #[test]
    fn bad_payloads_are_named_errors_not_panics() {
        for raw in [
            "{\"op\":\"warp\"}",
            "{\"op\":\"remove\"}",
            "{\"op\":\"insert\"}",
            "{\"op\":\"insert\",\"region\":{\"polygons\":[[[1e999,0],[1,0],[1,1]]]}}",
            "{\"op\":\"insert\",\"region\":{\"polygons\":[[[0],[1,0],[1,1]]]}}",
        ] {
            let value = parse_json(raw).unwrap();
            assert!(edit_from_json(&value).is_err(), "{raw}");
        }
    }
}
