//! The CARDIRECT configuration model.
//!
//! Section 4 of the paper: "A configuration (Image) is defined upon an
//! image file (e.g., a map) and comprises a set of regions and a set of
//! relations among them. Each region comprises a set of polygons of the
//! same color … The direction relations among the different regions are
//! all stored in the XML description of the configuration."

use cardir_core::{compute_cdr, compute_cdr_pct, CardinalRelation, PercentageMatrix};
use cardir_engine::{BatchEngine, BatchStats, EngineMode, PairOutcome, RegionCache, RunPolicy};
use cardir_geometry::Region;
use std::collections::HashMap;
use std::fmt;

/// Errors raised while building or editing a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Region ids are XML `ID` attributes and must be unique.
    DuplicateId(String),
    /// A lookup or relation referenced an unknown region id.
    UnknownId(String),
    /// Region ids must be valid XML names (start with a letter or `_`,
    /// continue with letters, digits, `-`, `_`, `.`).
    InvalidId(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DuplicateId(id) => write!(f, "duplicate region id {id:?}"),
            ConfigError::UnknownId(id) => write!(f, "unknown region id {id:?}"),
            ConfigError::InvalidId(id) => write!(f, "invalid region id {id:?} (must be an XML name)"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A region annotated on the image: id, display name, colour, geometry.
#[derive(Debug, Clone)]
pub struct AnnotatedRegion {
    /// Unique XML `ID`.
    pub id: String,
    /// Human-readable name (the DTD's optional `name` attribute).
    pub name: String,
    /// Thematic colour (e.g. `"blue"` for the Athenean alliance).
    pub color: String,
    /// Geometry: a set of polygons, as in the paper.
    pub region: Region,
    /// Extra thematic attributes (the paper's future work: "combining the
    /// underlying model with extra thematic information"). Persisted in
    /// XML as `data-<key>` attributes — a documented extension beyond the
    /// printed DTD.
    pub attributes: std::collections::BTreeMap<String, String>,
}

/// A stored relation `primary R reference` between two annotated regions.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRelation {
    /// The computed cardinal direction relation.
    pub relation: CardinalRelation,
    /// Id of the primary region.
    pub primary: String,
    /// Id of the reference region.
    pub reference: String,
}

/// A CARDIRECT configuration: an annotated image plus its computed
/// relations.
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    /// Configuration name (the `Image`'s `name` attribute).
    pub name: String,
    /// Underlying image file reference (the `file` attribute; only the
    /// name is stored, exactly as in the paper's DTD).
    pub file: String,
    regions: Vec<AnnotatedRegion>,
    index: HashMap<String, usize>,
    relations: Vec<StoredRelation>,
    /// Fast lookup for stored relations, keyed by region indices.
    relation_map: HashMap<(usize, usize), CardinalRelation>,
}

/// Validates an XML-name-shaped id.
fn valid_id(id: &str) -> bool {
    let mut chars = id.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Configuration {
    /// Creates an empty configuration over an image file.
    pub fn new(name: impl Into<String>, file: impl Into<String>) -> Self {
        Configuration { name: name.into(), file: file.into(), ..Configuration::default() }
    }

    /// Adds an annotated region. Ids must be unique XML names.
    pub fn add_region(
        &mut self,
        id: impl Into<String>,
        name: impl Into<String>,
        color: impl Into<String>,
        region: Region,
    ) -> Result<(), ConfigError> {
        let id = id.into();
        if !valid_id(&id) {
            return Err(ConfigError::InvalidId(id));
        }
        if self.index.contains_key(&id) {
            return Err(ConfigError::DuplicateId(id));
        }
        self.index.insert(id.clone(), self.regions.len());
        self.regions.push(AnnotatedRegion {
            id,
            name: name.into(),
            color: color.into(),
            region,
            attributes: std::collections::BTreeMap::new(),
        });
        // Stored relations may be stale now; drop ones involving nothing —
        // adding a region never invalidates existing pairs, so keep them.
        Ok(())
    }

    /// All annotated regions, in insertion order.
    pub fn regions(&self) -> &[AnnotatedRegion] {
        &self.regions
    }

    /// Number of annotated regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` when no regions are annotated.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Looks up a region by id.
    pub fn region(&self, id: &str) -> Option<&AnnotatedRegion> {
        self.index.get(id).map(|&i| &self.regions[i])
    }

    /// Looks up a region id by display name (first match).
    pub fn id_by_name(&self, name: &str) -> Option<&str> {
        self.regions.iter().find(|r| r.name == name).map(|r| r.id.as_str())
    }

    /// The thematic attribute `f(region)` used by the query language:
    /// the built-ins `"color"`, `"name"`, `"id"`, or any custom attribute
    /// set via [`Configuration::set_attribute`].
    pub fn attribute(&self, id: &str, attr: &str) -> Option<&str> {
        let r = self.region(id)?;
        match attr {
            "color" => Some(r.color.as_str()),
            "name" => Some(r.name.as_str()),
            "id" => Some(r.id.as_str()),
            custom => r.attributes.get(custom).map(String::as_str),
        }
    }

    /// Sets a custom thematic attribute on a region (paper Section 5:
    /// "combining the underlying model with extra thematic information").
    /// Attribute names must be XML-name-shaped so they can persist as
    /// `data-<name>` XML attributes.
    pub fn set_attribute(
        &mut self,
        id: &str,
        attr: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<(), ConfigError> {
        let attr = attr.into();
        if !valid_id(&attr) {
            return Err(ConfigError::InvalidId(attr));
        }
        let &i = self.index.get(id).ok_or_else(|| ConfigError::UnknownId(id.to_string()))?;
        self.regions[i].attributes.insert(attr, value.into());
        Ok(())
    }

    /// Removes a region and every stored relation that mentions it.
    /// The paper's tool supports editing the annotated regions.
    pub fn remove_region(&mut self, id: &str) -> Result<AnnotatedRegion, ConfigError> {
        let i = *self.index.get(id).ok_or_else(|| ConfigError::UnknownId(id.to_string()))?;
        let removed = self.regions.remove(i);
        self.index.remove(id);
        for slot in self.index.values_mut() {
            if *slot > i {
                *slot -= 1;
            }
        }
        self.relations.retain(|r| r.primary != removed.id && r.reference != removed.id);
        self.rebuild_relation_map();
        Ok(removed)
    }

    /// Replaces a region's geometry, dropping the now-stale stored
    /// relations that mention it (recompute with
    /// [`Configuration::compute_all_relations`] or on demand).
    pub fn update_geometry(&mut self, id: &str, region: Region) -> Result<(), ConfigError> {
        let &i = self.index.get(id).ok_or_else(|| ConfigError::UnknownId(id.to_string()))?;
        self.regions[i].region = region;
        self.relations.retain(|r| r.primary != id && r.reference != id);
        self.rebuild_relation_map();
        Ok(())
    }

    fn rebuild_relation_map(&mut self) {
        self.relation_map = self
            .relations
            .iter()
            .map(|r| ((self.index[&r.primary], self.index[&r.reference]), r.relation))
            .collect();
    }

    /// Computes and stores the cardinal direction relation for **every**
    /// ordered pair of distinct regions — what the CARDIRECT GUI does when
    /// the user presses "compute relations". Replaces previously stored
    /// relations.
    ///
    /// Runs the batch engine's spatial join: per-region data is cached
    /// once, an MBB sweep finds the interacting pairs in
    /// `O(N log N + K)`, box-decided pairs are emitted straight from the
    /// boxes, and the exact passes run on all available cores. The
    /// stored relations are bit-identical to the naive `compute_cdr`
    /// double loop, in the same primary-major order.
    ///
    /// Returns the engine's counters (pairs, mask-emitted and exact
    /// pairs, edge scans) so callers can report what the press of the
    /// button cost.
    ///
    /// # Panics
    /// Re-raises the first pair failure, which only a bug in the kernels
    /// (or an armed failpoint) can cause — the default policy has no
    /// deadline and no cancel token, so nothing is skipped.
    pub fn compute_all_relations(&mut self) -> BatchStats {
        self.relations.clear();
        self.relation_map.clear();
        let cache = RegionCache::build(self.regions.iter().map(|r| &r.region));
        let outcome = BatchEngine::new()
            .with_mode(EngineMode::Qualitative)
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);
        self.relations.reserve(outcome.pairs.len());
        for pair in &outcome.pairs {
            let pr = match pair {
                PairOutcome::Ok(pr) => pr,
                PairOutcome::Failed(e) => panic!("{e}"),
                PairOutcome::Skipped { .. } => {
                    unreachable!("the default policy has no deadline and no cancel token")
                }
            };
            self.relations.push(StoredRelation {
                relation: pr.relation,
                primary: self.regions[pr.primary].id.clone(),
                reference: self.regions[pr.reference].id.clone(),
            });
            self.relation_map.insert((pr.primary, pr.reference), pr.relation);
        }
        outcome.metrics.stats
    }

    /// The stored relations (empty until [`Self::compute_all_relations`]
    /// runs or an XML import supplies them).
    pub fn relations(&self) -> &[StoredRelation] {
        &self.relations
    }

    /// Replaces the stored relations (used by the XML importer).
    pub fn set_relations(&mut self, relations: Vec<StoredRelation>) -> Result<(), ConfigError> {
        let mut map = HashMap::with_capacity(relations.len());
        for rel in &relations {
            for id in [&rel.primary, &rel.reference] {
                if !self.index.contains_key(id) {
                    return Err(ConfigError::UnknownId(id.clone()));
                }
            }
            map.insert((self.index[&rel.primary], self.index[&rel.reference]), rel.relation);
        }
        self.relations = relations;
        self.relation_map = map;
        Ok(())
    }

    /// The relation between two regions: the stored one when available
    /// (constant-time lookup), otherwise computed on the fly.
    pub fn relation_between(&self, primary: &str, reference: &str) -> Result<CardinalRelation, ConfigError> {
        let pi = *self.index.get(primary).ok_or_else(|| ConfigError::UnknownId(primary.to_string()))?;
        let qi = *self
            .index
            .get(reference)
            .ok_or_else(|| ConfigError::UnknownId(reference.to_string()))?;
        if let Some(&stored) = self.relation_map.get(&(pi, qi)) {
            return Ok(stored);
        }
        Ok(compute_cdr(&self.regions[pi].region, &self.regions[qi].region))
    }

    /// The cardinal direction relation *with percentages* between two
    /// regions (always computed on demand; the DTD does not store it).
    pub fn percentages_between(
        &self,
        primary: &str,
        reference: &str,
    ) -> Result<PercentageMatrix, ConfigError> {
        let p = self.region(primary).ok_or_else(|| ConfigError::UnknownId(primary.to_string()))?;
        let q = self
            .region(reference)
            .ok_or_else(|| ConfigError::UnknownId(reference.to_string()))?;
        Ok(compute_cdr_pct(&p.region, &q.region))
    }

    /// Saves this configuration to `path` with the crash-safe atomic
    /// protocol ([`save_xml_atomic`](crate::xml::save_xml_atomic)):
    /// write-temp / fsync / `.bak` generation / rename. A crash at any
    /// point leaves a loadable file on disk.
    pub fn save_to(&self, path: &std::path::Path) -> Result<crate::xml::SaveReport, crate::xml::PersistError> {
        crate::xml::save_xml_atomic(self, path)
    }

    /// Loads a configuration from `path`, recovering from the `.bak`
    /// generation when the primary is missing or torn
    /// ([`load_config`](crate::xml::load_config)).
    pub fn load_from(path: &std::path::Path) -> Result<crate::xml::Loaded, crate::xml::PersistError> {
        crate::xml::load_config(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    fn sample() -> Configuration {
        let mut c = Configuration::new("test", "map.png");
        c.add_region("b", "Base", "red", rect(0.0, 0.0, 4.0, 4.0)).unwrap();
        c.add_region("s", "Souther", "blue", rect(1.0, -3.0, 3.0, -1.0)).unwrap();
        c
    }

    #[test]
    fn id_validation() {
        let mut c = Configuration::new("t", "f");
        assert_eq!(
            c.add_region("1bad", "x", "red", rect(0.0, 0.0, 1.0, 1.0)).unwrap_err(),
            ConfigError::InvalidId("1bad".into())
        );
        assert_eq!(
            c.add_region("has space", "x", "red", rect(0.0, 0.0, 1.0, 1.0)).unwrap_err(),
            ConfigError::InvalidId("has space".into())
        );
        c.add_region("ok-id_1.x", "x", "red", rect(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert_eq!(
            c.add_region("ok-id_1.x", "y", "red", rect(0.0, 0.0, 1.0, 1.0)).unwrap_err(),
            ConfigError::DuplicateId("ok-id_1.x".into())
        );
    }

    #[test]
    fn lookups() {
        let c = sample();
        assert_eq!(c.len(), 2);
        assert_eq!(c.region("b").unwrap().name, "Base");
        assert!(c.region("zzz").is_none());
        assert_eq!(c.id_by_name("Souther"), Some("s"));
        assert_eq!(c.attribute("b", "color"), Some("red"));
        assert_eq!(c.attribute("b", "name"), Some("Base"));
        assert_eq!(c.attribute("b", "id"), Some("b"));
        assert_eq!(c.attribute("b", "flavor"), None);
    }

    #[test]
    fn compute_all_relations_covers_ordered_pairs() {
        let mut c = sample();
        let stats = c.compute_all_relations();
        assert_eq!(stats.pairs, 2);
        assert_eq!(stats.mask_emitted + stats.exact_pairs, stats.pairs);
        assert_eq!(c.relations().len(), 2);
        assert_eq!(c.relation_between("s", "b").unwrap().to_string(), "S");
        let inverse = c.relation_between("b", "s").unwrap();
        assert!(inverse.to_string().contains('N'), "{inverse}");
    }

    #[test]
    fn relation_on_demand_without_stored() {
        let c = sample();
        assert!(c.relations().is_empty());
        assert_eq!(c.relation_between("s", "b").unwrap().to_string(), "S");
        assert!(matches!(
            c.relation_between("s", "nope"),
            Err(ConfigError::UnknownId(_))
        ));
    }

    #[test]
    fn percentages_on_demand() {
        let c = sample();
        let m = c.percentages_between("s", "b").unwrap();
        assert!((m.get(cardir_core::Tile::S) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn set_relations_validates_ids() {
        let mut c = sample();
        let bad = vec![StoredRelation {
            relation: "S".parse().unwrap(),
            primary: "s".into(),
            reference: "ghost".into(),
        }];
        assert!(matches!(c.set_relations(bad), Err(ConfigError::UnknownId(_))));
    }
}
