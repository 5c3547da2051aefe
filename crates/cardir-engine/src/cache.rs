//! Per-region derived data, computed once per map instead of once per
//! pair.
//!
//! `Compute-CDR` / `Compute-CDR%` recompute `mbb(b)` (a reduce over the
//! reference region's polygons) on every call; over the `n·(n−1)` ordered
//! pairs of a map each region's box would be rebuilt `2·(n−1)` times.
//! [`RegionCache`] hoists that work: one pass computes every region's
//! MBB and edge count, and flattens every edge once into a shared
//! struct-of-arrays store ([`SoaStore`]). The MBBs feed the join's sweep;
//! the SoA store is what the exact loops scan — after the build, no
//! per-pair code path touches `Region` / `Polygon` edge iterators again
//! (`cardir_geometry::flatten::events` proves it).

use cardir_core::{EdgeSoa, SoaStore};
use cardir_geometry::{BoundingBox, Region};
use cardir_telemetry::trace::{phases, MAIN_TID};
use cardir_telemetry::Tracer;
use std::time::{Duration, Instant};

/// Immutable per-region derived data shared by every stage of a batch
/// computation. Borrows the regions; build it once per map.
#[derive(Debug)]
pub struct RegionCache<'a> {
    regions: Vec<&'a Region>,
    mbbs: Vec<BoundingBox>,
    edge_counts: Vec<usize>,
    soa: SoaStore,
    build_time: Duration,
}

impl<'a> RegionCache<'a> {
    /// Builds the cache over any collection of region references
    /// (a slice of regions, or e.g. an iterator over the geometry field
    /// of annotated map entries).
    pub fn build<I>(regions: I) -> Self
    where
        I: IntoIterator<Item = &'a Region>,
    {
        let start = Instant::now();
        let regions: Vec<&'a Region> = regions.into_iter().collect();
        let mbbs: Vec<BoundingBox> = regions.iter().map(|r| r.mbb()).collect();
        let edge_counts: Vec<usize> = regions.iter().map(|r| r.edge_count()).collect();
        let mut soa = SoaStore::new();
        for r in &regions {
            // Failpoint: a corrupt geometry blowing up mid-build.
            match cardir_faults::hit(cardir_faults::sites::ENGINE_CACHE_INSERT) {
                Some(cardir_faults::FaultAction::Panic(msg)) => {
                    panic!(
                        "injected panic at {}: {msg}",
                        cardir_faults::sites::ENGINE_CACHE_INSERT
                    )
                }
                Some(cardir_faults::FaultAction::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            soa.push_region(r);
        }
        let build_time = start.elapsed();
        RegionCache { regions, mbbs, edge_counts, soa, build_time }
    }

    /// [`RegionCache::build`] with a `cache_build` span recorded into
    /// `tracer` (under [`MAIN_TID`] — the build is single-threaded), so a
    /// Perfetto timeline of a batch run shows the per-map derived-data
    /// cost alongside the pass phases. The cache is identical to an
    /// untraced build.
    pub fn build_traced<I>(regions: I, tracer: &Tracer) -> Self
    where
        I: IntoIterator<Item = &'a Region>,
    {
        let mut trace = tracer.thread(MAIN_TID);
        let start = trace.begin();
        let cache = RegionCache::build(regions);
        trace.end(start, phases::CACHE_BUILD, None);
        cache
    }

    /// Wall time [`RegionCache::build`] took — per-map derived-data cost,
    /// surfaced so batch telemetry can report it alongside pass times.
    #[inline]
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of cached regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` when the cache holds no regions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region at `i`.
    #[inline]
    pub fn region(&self, i: usize) -> &'a Region {
        self.regions[i]
    }

    /// The cached `mbb(·)` of region `i` — bit-identical to
    /// `self.region(i).mbb()`.
    #[inline]
    pub fn mbb(&self, i: usize) -> BoundingBox {
        self.mbbs[i]
    }

    /// The cached edge count of region `i` (the paper's `k`).
    #[inline]
    pub fn edge_count(&self, i: usize) -> usize {
        self.edge_counts[i]
    }

    /// The struct-of-arrays edge view of region `i`, flattened once at
    /// build time in the canonical polygon-major order of
    /// [`Region::edges`]. This is what the exact loops feed to the fused
    /// kernels — borrowing it never re-derives geometry.
    #[inline]
    pub fn soa(&self, i: usize) -> EdgeSoa<'_> {
        self.soa.view(i)
    }

    /// Sum of all cached edge counts — the map's `Σ k`.
    pub fn total_edges(&self) -> usize {
        self.edge_counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::Region;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    #[test]
    fn cache_mirrors_region_accessors() {
        let regions = vec![rect(0.0, 0.0, 4.0, 4.0), rect(6.0, 1.0, 9.0, 2.0)];
        let cache = RegionCache::build(&regions);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(cache.mbb(i), r.mbb());
            assert_eq!(cache.edge_count(i), r.edge_count());
            assert_eq!(cache.soa(i).edge_count(), r.edge_count());
        }
        assert_eq!(cache.total_edges(), 8);
    }

    #[test]
    fn empty_cache() {
        let cache = RegionCache::build(std::iter::empty());
        assert!(cache.is_empty());
        assert_eq!(cache.total_edges(), 0);
    }
}
