//! Shared pre-processing cache.
//!
//! The paper's co-design premise is that pre-processing (geometry
//! voxelisation, partitioning) is a first-class cost, not an offline
//! footnote — and in a sweep it is a *repeated* cost: many jobs differ
//! only in physics parameters and share the same vasculature. The farm
//! therefore memoises the two expensive deterministic preprocessing
//! products, keyed exactly by their inputs:
//!
//! * the voxelised [`SparseGeometry`] per `(geometry params, dx)`, and
//! * the multilevel k-way owner map per `(geometry, rank count)`.
//!
//! A sequential "script" baseline (one `writeInput.py`-style run per
//! job) pays these per job; the farm pays them once per distinct key.
//! Hit/miss counters feed the farm report so the amortisation is
//! visible in `reproduce farm`.

use crate::spec::GeometryKind;
use hemelb_geometry::SparseGeometry;
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{MultilevelKWay, Partitioner};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One build-once cell per key.
type Cells<K, T> = Mutex<BTreeMap<K, Arc<OnceLock<Arc<T>>>>>;

/// Memoised pre-processing products shared by every job of a farm run.
#[derive(Debug, Default)]
pub struct PrepCache {
    geos: Cells<String, SparseGeometry>,
    /// Owner maps per `(geometry cache key, rank count)`.
    owners: Cells<(String, usize), Vec<usize>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PrepCache {
    /// An empty cache.
    pub fn new() -> Self {
        PrepCache::default()
    }

    /// The value under `key`, built by whichever lookup gets there
    /// first. Only the key's cell is inserted under the map lock; the
    /// build runs outside it, so a concurrent job wanting a *different*
    /// key does not serialise behind this build, while one wanting the
    /// *same* key waits in `get_or_init` for the one build there is.
    fn get_or_build<K: Ord, T>(
        &self,
        cells: &Cells<K, T>,
        key: K,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let cell = lock(cells).entry(key).or_default().clone();
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }

    /// The voxelised geometry for `(kind, dx)`, building it on first
    /// use.
    pub fn geometry(&self, kind: &GeometryKind, dx: f64) -> Arc<SparseGeometry> {
        self.get_or_build(&self.geos, kind.cache_key(dx), || kind.build(dx))
    }

    /// The multilevel k-way owner map for `(kind, dx, ranks)`, building
    /// it on first use. Single-rank jobs get the trivial map.
    pub fn owner(&self, kind: &GeometryKind, dx: f64, ranks: usize) -> Arc<Vec<usize>> {
        let geo = self.geometry(kind, dx);
        self.get_or_build(&self.owners, (kind.cache_key(dx), ranks), || {
            if ranks <= 1 {
                vec![0usize; geo.fluid_count()]
            } else {
                let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
                MultilevelKWay.partition(&graph, ranks)
            }
        })
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tube() -> GeometryKind {
        GeometryKind::Tube {
            length: 8.0,
            radius: 2.0,
        }
    }

    #[test]
    fn geometry_is_built_once_per_key() {
        let cache = PrepCache::new();
        let a = cache.geometry(&tube(), 1.0);
        let b = cache.geometry(&tube(), 1.0);
        assert!(Arc::ptr_eq(&a, &b), "second lookup is the same object");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        let c = cache.geometry(&tube(), 0.5);
        assert!(!Arc::ptr_eq(&a, &c), "different dx is a different key");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn owner_maps_cover_ranks_and_cache_per_rank_count() {
        let cache = PrepCache::new();
        let o2 = cache.owner(&tube(), 1.0, 2);
        let geo = cache.geometry(&tube(), 1.0);
        assert_eq!(o2.len(), geo.fluid_count());
        assert!(o2.iter().all(|&o| o < 2));
        assert!((0..2).all(|r| o2.contains(&r)));
        let o2b = cache.owner(&tube(), 1.0, 2);
        assert!(Arc::ptr_eq(&o2, &o2b));
        let o1 = cache.owner(&tube(), 1.0, 1);
        assert!(o1.iter().all(|&o| o == 0));
    }

    #[test]
    fn two_jobs_racing_on_one_key_build_it_once() {
        // Big enough that both builds would overlap if both ran.
        let kind = GeometryKind::Tube {
            length: 48.0,
            radius: 5.0,
        };
        let cache = PrepCache::new();
        let start = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let job = || {
                start.wait();
                cache.owner(&kind, 1.0, 2)
            };
            let (a, b) = (s.spawn(job), s.spawn(job));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2, "one geometry, one owner map");
        assert_eq!(cache.hits(), 2, "the other job waited for both");
    }
}
