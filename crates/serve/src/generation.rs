//! Dataset generations: the hot-swap cell behind `POST
//! /v1/admin/reload` and SIGHUP.
//!
//! The server's datasets live in an immutable [`Generation`] behind an
//! `Arc`. Every request clones the `Arc` once at dispatch and resolves
//! datasets through it, so a concurrent swap is invisible to in-flight
//! work: old requests drain on the old generation, and the old arenas
//! (including their file mappings) are released when the last clone
//! drops — no locks are held across geometry work, and nothing is ever
//! unmapped under a live reader.
//!
//! A reload loads the new files *outside* any lock (loading can take
//! seconds for a large STJD v2 file), then flips the `RwLock<Arc<..>>`
//! in a few instructions. Reloads are serialized by a dedicated mutex
//! so two concurrent `reload` calls cannot interleave path updates and
//! id allocation; the read path never touches that mutex.
//!
//! Files are expected to be replaced via `rename(2)` (the standard
//! atomic-deploy move): the old inode stays alive under the old
//! mapping until the drain finishes, so a swap never `SIGBUS`es an
//! in-flight request. Overwriting a dataset file in place while it is
//! being served is the same hazard it always was (see
//! `stj-store::Mapping`).

use crate::{load_datasets, LoadedDataset};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One immutable set of loaded datasets, tagged with a process-unique
/// id (1-based; exported in `/stats` and `/metrics`).
pub struct Generation {
    /// Generation id: 1 for the startup load, +1 per successful reload.
    pub id: u64,
    /// Loaded datasets, in `--data` order.
    pub datasets: Vec<LoadedDataset>,
}

impl Generation {
    /// Resolves a dataset by name, or by decimal index into the
    /// `--data` order.
    pub fn find_dataset(&self, key: &str) -> Option<(usize, &LoadedDataset)> {
        if let Some((i, ds)) = self
            .datasets
            .iter()
            .enumerate()
            .find(|(_, d)| d.name == key)
        {
            return Some((i, ds));
        }
        let i: usize = key.parse().ok()?;
        self.datasets.get(i).map(|d| (i, d))
    }
}

/// The swappable generation holder plus the reload machinery.
pub struct GenerationCell {
    current: RwLock<Arc<Generation>>,
    next_id: AtomicU64,
    /// Serializes reloads; never taken on the read path.
    reload_lock: Mutex<()>,
    /// The dataset file paths a reload re-reads. Empty for in-memory
    /// servers (tests, benches), which makes reload unavailable unless
    /// the request body supplies paths.
    paths: Mutex<Vec<PathBuf>>,
}

impl GenerationCell {
    /// Wraps the startup datasets as generation 1.
    pub fn new(datasets: Vec<LoadedDataset>) -> GenerationCell {
        GenerationCell {
            current: RwLock::new(Arc::new(Generation { id: 1, datasets })),
            next_id: AtomicU64::new(2),
            reload_lock: Mutex::new(()),
            paths: Mutex::new(Vec::new()),
        }
    }

    /// The live generation. Cheap (one `RwLock` read + `Arc` clone);
    /// callers hold the `Arc` for the duration of a request so the
    /// generation cannot be unloaded under them.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("generation lock"))
    }

    /// The live generation's id.
    pub fn id(&self) -> u64 {
        self.current().id
    }

    /// Sets the file paths reloads re-read (the `--data` arguments).
    pub fn set_paths(&self, paths: Vec<PathBuf>) {
        *self.paths.lock().expect("paths lock") = paths;
    }

    /// The configured reload paths.
    pub fn paths(&self) -> Vec<PathBuf> {
        self.paths.lock().expect("paths lock").clone()
    }

    /// Loads a new generation and flips it in.
    ///
    /// `override_paths` (from a reload request body) replaces the
    /// configured path set for this and future reloads; `None` re-reads
    /// the configured paths. On any load error the old generation stays
    /// live and untouched.
    pub fn reload(&self, override_paths: Option<Vec<PathBuf>>) -> Result<Arc<Generation>, String> {
        let _serialized = self.reload_lock.lock().expect("reload lock");
        let paths = match &override_paths {
            Some(p) if !p.is_empty() => p.clone(),
            Some(_) | None => {
                let configured = self.paths();
                if configured.is_empty() {
                    return Err(
                        "no dataset paths configured (in-memory datasets cannot be reloaded)"
                            .to_string(),
                    );
                }
                configured
            }
        };
        // The slow part — file reads, index builds — runs outside the
        // swap lock; readers keep flowing on the old generation.
        let datasets = load_datasets(&paths)?;
        let fresh = Arc::new(Generation {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            datasets,
        });
        if let Some(p) = override_paths {
            if !p.is_empty() {
                self.set_paths(p);
            }
        }
        *self.current.write().expect("generation lock") = Arc::clone(&fresh);
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stj_geom::{Polygon, Rect};
    use stj_index::Tiling;
    use stj_raster::Grid;

    fn loaded(name: &str, boxes: usize) -> LoadedDataset {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 6);
        let polys: Vec<Polygon> = (0..boxes)
            .map(|i| {
                let o = i as f64 * 5.0;
                Polygon::rect(Rect::from_coords(o, o, o + 4.0, o + 4.0))
            })
            .collect();
        let arena = stj_core::Dataset::build(name, polys, &grid).to_arena();
        let tiling = Tiling::for_probes(arena.mbrs());
        LoadedDataset {
            name: name.to_string(),
            arena,
            grid,
            tiling,
        }
    }

    #[test]
    fn startup_generation_is_one() {
        let cell = GenerationCell::new(vec![loaded("a", 3)]);
        let g = cell.current();
        assert_eq!(g.id, 1);
        assert_eq!(cell.id(), 1);
        assert_eq!(g.find_dataset("a").map(|(i, _)| i), Some(0));
        assert_eq!(g.find_dataset("0").map(|(i, _)| i), Some(0));
        assert!(g.find_dataset("nope").is_none());
    }

    #[test]
    fn reload_without_paths_is_an_error_and_keeps_generation() {
        let cell = GenerationCell::new(vec![loaded("a", 3)]);
        let err = match cell.reload(None) {
            Ok(_) => panic!("reload without paths must fail"),
            Err(e) => e,
        };
        assert!(err.contains("no dataset paths"), "{err}");
        assert_eq!(cell.id(), 1, "failed reload must not bump the id");
    }

    #[test]
    fn old_generation_survives_while_held() {
        let cell = GenerationCell::new(vec![loaded("a", 3)]);
        let held = cell.current();
        // Simulate a successful swap by writing a fresh generation in
        // directly (file-backed reloads are covered end-to-end).
        *cell.current.write().unwrap() = Arc::new(Generation {
            id: 2,
            datasets: vec![loaded("a", 5)],
        });
        assert_eq!(cell.id(), 2);
        assert_eq!(held.id, 1);
        assert_eq!(
            held.datasets[0].arena.len(),
            3,
            "drained requests keep the old data"
        );
        assert_eq!(cell.current().datasets[0].arena.len(), 5);
    }
}
