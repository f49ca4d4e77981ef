//! `stj-serve`: an online topology-query service over zero-copy arenas.
//!
//! The batch pipeline answers "join these two datasets"; this crate
//! answers the *online* variants a resident service gets asked:
//!
//! - **relate** — the most specific topological relation between an
//!   ad-hoc WKT polygon and every object in a loaded dataset. The probe
//!   is rasterized once per request ([`stj_raster::AprilApprox`] on the
//!   dataset's own grid), candidates come from a probe-side
//!   [`stj_index::Tiling`], and each candidate runs the full enhanced
//!   MBR → APRIL → DE-9IM pipeline — bit-identical to the offline path.
//! - **pair** — the relation between two stored objects by index.
//! - **join** — a bounded server-side [`stj_core::TopologyJoin`]
//!   (`run_bounded`: link cap + deadline) streamed as NDJSON.
//!
//! Serving machinery, all on `std`: a hand-rolled HTTP/1.1 codec with
//! keep-alive ([`http`]) sharing one dispatch layer with a
//! length-prefixed binary framing for batch clients ([`framing`]); a
//! fixed worker pool behind a bounded accept queue with 429 load
//! shedding ([`pool`]); per-request deadlines with partial-result
//! truncation flags; a sharded LRU over rendered probe responses
//! ([`cache`]); and full observability exported at `/stats` as a
//! versioned `stj-serve-report/v1` document ([`stats`]).

pub mod cache;
pub mod client;
pub mod conn;
pub mod discover;
pub mod framing;
pub mod generation;
pub mod http;
pub mod pool;
pub mod query;
pub mod reactor;
pub mod stats;

pub use cache::{ProbeCache, ProbeKey};
pub use client::Client;
pub use generation::{Generation, GenerationCell};
pub use pool::{install_signal_handlers, sighup_requested, Server, ShutdownFlag};
pub use query::{dispatch, Reply, Response};
pub use stats::{ConnState, Endpoint, ServeStats};

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stj_core::{AdaptiveMode, AdaptiveModel, DatasetArena};
use stj_geom::Polygon;
use stj_index::Tiling;
use stj_obs::Json;
use stj_raster::Grid;
use stj_store::open_arena;

/// Server configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads; 0 means available parallelism.
    pub threads: usize,
    /// Bounded accept-queue depth; beyond it connections are shed with
    /// a 429.
    pub queue_depth: usize,
    /// Probe-cache budget in mebibytes (0 disables the cache).
    pub cache_mb: usize,
    /// Per-request deadline in milliseconds (0 disables deadlines).
    pub deadline_ms: u64,
    /// Server-side cap on links returned by `/v1/join`.
    pub max_links: u64,
    /// Idle keep-alive deadline in milliseconds: a connection with no
    /// traffic for this long is closed (0 falls back to the default).
    pub idle_ms: u64,
    /// Header-read deadline in milliseconds: a connection that has
    /// started a request head must deliver the complete request within
    /// this window or be closed — the slow-loris bound. Activity does
    /// not reset it (that is exactly the attack), only request
    /// completion does. 0 falls back to the default.
    pub header_ms: u64,
    /// Adaptive filter-ordering mode (see [`stj_core::adaptive`]). The
    /// server keeps one resident model that warms across relate
    /// requests; `/v1/join` runs apply the same mode per run. Default
    /// on; `off` is bit-identical to the static pipeline.
    pub adaptive: AdaptiveMode,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            queue_depth: 64,
            cache_mb: 64,
            deadline_ms: 2000,
            max_links: 100_000,
            idle_ms: 5000,
            header_ms: 2000,
            adaptive: AdaptiveMode::On,
        }
    }
}

impl ServeConfig {
    /// Worker-thread count after resolving `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }

    /// The idle deadline after resolving `0` to the default.
    pub fn idle_deadline(&self) -> std::time::Duration {
        std::time::Duration::from_millis(if self.idle_ms > 0 { self.idle_ms } else { 5000 })
    }

    /// The header-read deadline after resolving `0` to the default.
    pub fn header_deadline(&self) -> std::time::Duration {
        std::time::Duration::from_millis(if self.header_ms > 0 {
            self.header_ms
        } else {
            2000
        })
    }

    /// The config block embedded in `/stats`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("addr", Json::str(self.addr.clone())),
            ("threads", Json::U64(self.effective_threads() as u64)),
            ("queue_depth", Json::U64(self.queue_depth as u64)),
            ("cache_mb", Json::U64(self.cache_mb as u64)),
            ("deadline_ms", Json::U64(self.deadline_ms)),
            ("max_links", Json::U64(self.max_links)),
            (
                "idle_ms",
                Json::U64(self.idle_deadline().as_millis() as u64),
            ),
            (
                "header_ms",
                Json::U64(self.header_deadline().as_millis() as u64),
            ),
            ("adaptive", Json::str(self.adaptive.label())),
        ])
    }
}

/// One dataset resident in the server: its arena (zero-copy when the
/// platform supports it), grid, and a probe-side tile index built once
/// at startup.
pub struct LoadedDataset {
    /// Dataset name (from the store header).
    pub name: String,
    /// The columnar object arena.
    pub arena: DatasetArena,
    /// The raster grid the arena was preprocessed on.
    pub grid: Grid,
    /// Tile index over the arena's MBRs, for ad-hoc probes.
    pub tiling: Tiling,
}

impl LoadedDataset {
    /// Loads one STJD v2 file and builds its probe index.
    pub fn open(path: &Path) -> Result<LoadedDataset, String> {
        let (arena, grid) = open_arena(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let tiling = Tiling::for_probes(arena.mbrs());
        Ok(LoadedDataset {
            name: arena.name().to_string(),
            arena,
            grid,
            tiling,
        })
    }

    /// Candidates of an ad-hoc probe: the ids the tile index returns for
    /// `polygon`'s MBR and, when there are any, the probe preprocessed on
    /// this dataset's grid into a one-row arena (`P`/`C` lists capped at
    /// `max_intervals`). The probe's interior point is computed once
    /// here, not once per candidate pair.
    pub(crate) fn probe(
        &self,
        polygon: &Polygon,
        max_intervals: usize,
    ) -> (Vec<u32>, Option<DatasetArena>) {
        let mut candidates = Vec::new();
        self.tiling
            .probe(polygon.mbr(), self.arena.mbrs(), &mut |id| {
                candidates.push(id)
            });
        let probe = (!candidates.is_empty()).then(|| {
            let polygons = std::slice::from_ref(polygon);
            DatasetArena::build("probe", polygons, &self.grid, max_intervals, 1)
        });
        (candidates, probe)
    }
}

/// Loads every `--data` file. Duplicate dataset names are rejected —
/// lookups are by name.
pub fn load_datasets(paths: &[impl AsRef<Path>]) -> Result<Vec<LoadedDataset>, String> {
    if paths.is_empty() {
        return Err("no datasets given".to_string());
    }
    let mut out: Vec<LoadedDataset> = Vec::with_capacity(paths.len());
    for p in paths {
        let ds = LoadedDataset::open(p.as_ref())?;
        if out.iter().any(|d| d.name == ds.name) {
            return Err(format!("duplicate dataset name {:?}", ds.name));
        }
        out.push(ds);
    }
    Ok(out)
}

/// Shared server state: config, the swappable dataset generation,
/// cache, metrics.
pub struct ServeCtx {
    /// The resolved configuration.
    pub config: ServeConfig,
    /// The live dataset generation (hot-swapped by reloads; requests
    /// pin the generation they started on via [`ServeCtx::generation`]).
    pub generations: GenerationCell,
    /// The probe-result cache.
    pub cache: ProbeCache,
    /// Service metrics backing `/stats`.
    pub stats: ServeStats,
    /// The resident adaptive model: relate requests feed it, so the
    /// APRIL-stage verdicts warm across the whole serving session
    /// rather than per request.
    pub adaptive: AdaptiveModel,
    /// Server start time (for `/stats` uptime).
    pub started: Instant,
}

impl ServeCtx {
    /// Builds the shared state; `datasets` becomes generation 1.
    pub fn new(config: ServeConfig, datasets: Vec<LoadedDataset>) -> ServeCtx {
        let ctx = ServeCtx {
            cache: ProbeCache::new(config.cache_mb),
            stats: ServeStats::new(),
            adaptive: AdaptiveModel::new(config.adaptive),
            started: Instant::now(),
            generations: GenerationCell::new(datasets),
            config,
        };
        ctx.stats.generation.set(1);
        ctx
    }

    /// The live generation, pinned for the caller's lifetime — a
    /// request resolves this once and serves entirely from it, so a
    /// concurrent hot-swap cannot mix generations within one response.
    pub fn generation(&self) -> Arc<Generation> {
        self.generations.current()
    }

    /// Hot-swaps in a freshly loaded generation (see
    /// [`GenerationCell::reload`]) and invalidates the probe cache. On
    /// error the old generation and cache stay untouched.
    pub fn reload(
        &self,
        override_paths: Option<Vec<std::path::PathBuf>>,
    ) -> Result<Arc<Generation>, String> {
        match self.generations.reload(override_paths) {
            Ok(fresh) => {
                // New lookups key on the new generation id already; the
                // clear just releases the old entries' memory promptly.
                self.cache.clear();
                self.stats.reloads.inc();
                self.stats.generation.set(fresh.id);
                Ok(fresh)
            }
            Err(e) => {
                self.stats.reload_errors.inc();
                Err(e)
            }
        }
    }
}
