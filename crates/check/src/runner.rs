//! The differential check runner: drives the adversarial corpus through
//! the invariants, sequentially or across scoped threads, and aggregates
//! a machine-readable report.

use crate::invariants::{check_pair, InvariantKind};
use crate::shrink::shrink_pair;
use std::time::Instant;
use stj_core::{
    relate_p_with, AdaptiveMode, DatasetArena, JoinMethod, JoinResult, Link, PairCtx,
    PipelineStats, RelateScratch, TopologyJoin, DEFAULT_MAX_INTERVALS,
};
use stj_datagen::adversarial::{adversarial_pair, adversarial_space, CATEGORIES};
use stj_de9im::TopoRelation;
use stj_geom::wkt::polygon_to_wkt;
use stj_index::mbr_join;
use stj_obs::{Json, Profiler, Recorder};
use stj_raster::Grid;
use stj_store::{external_join_files, write_sharded, ShardedDataset};

/// Cap on the dataset assembled for the executor-equivalence invariant
/// (f): the first `min(pairs, cap)` adversarial pairs contribute their
/// `a` polygons to the left dataset and `b` polygons to the right one.
/// The corpus packs every object into the same 1000×1000 space, so the
/// candidate count grows quadratically with the sample — the cap keeps
/// the dataset join a bounded fraction of the run while still exercising
/// skew-split tiles, replication dedup, and every adversarial category.
const EXEC_SAMPLE_CAP: u64 = 2048;

/// Shard count for the out-of-core equivalence invariant (g). Three
/// shards per side keeps the check cheap while exercising every driver
/// path: multi-shard overlap scheduling, id remapping, and the
/// cross-shard merge.
const SHARD_COUNT: usize = 3;

/// Configuration of a check run.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// RNG seed; a run is fully determined by `(seed, pairs)`.
    pub seed: u64,
    /// Number of adversarial pairs to generate and check.
    pub pairs: u64,
    /// Worker threads (1 = sequential). Results are identical for any
    /// thread count — per-pair seeding makes generation order-free.
    pub threads: usize,
    /// Hilbert grid order for the APRIL rasterization (paper default
    /// territory; 8 → 256×256 cells over the adversarial data space).
    pub grid_order: u32,
    /// Maximum violations to keep (with shrunk WKT) in the report;
    /// counting continues past the cap.
    pub max_violations: usize,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            seed: 0,
            pairs: 1000,
            threads: 1,
            grid_order: 8,
            max_violations: 16,
        }
    }
}

/// One recorded invariant violation, already shrunk.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Pair index under the run's seed (replayable).
    pub index: u64,
    /// Adversarial category that produced the pair.
    pub category: &'static str,
    /// The invariant broken.
    pub kind: InvariantKind,
    /// Human-readable mismatch description (from the *original* pair).
    pub detail: String,
    /// Shrunk first polygon, as WKT.
    pub a_wkt: String,
    /// Shrunk second polygon, as WKT.
    pub b_wkt: String,
}

/// Aggregated result of a check run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The configuration that produced this report.
    pub config: CheckConfig,
    /// Pairs checked.
    pub pairs: u64,
    /// Violation count per invariant kind (indexed by `InvariantKind::ALL`
    /// order); counts all violations, not just the retained ones.
    pub violation_counts: [u64; InvariantKind::ALL.len()],
    /// Retained (shrunk) violations, at most `config.max_violations`.
    pub violations: Vec<Violation>,
    /// Pairs checked per adversarial category.
    pub category_counts: [u64; CATEGORIES.len()],
    /// P+C decision-stage mix over the clean pairs.
    pub pipeline: PipelineStats,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: u64,
}

impl CheckReport {
    /// Total violations across all invariant kinds.
    pub fn total_violations(&self) -> u64 {
        self.violation_counts.iter().sum()
    }

    /// Whether the run found any invariant violation.
    pub fn has_violations(&self) -> bool {
        self.total_violations() > 0
    }

    /// Renders the `stj-check-report/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::Obj(vec![]);
        counts.push("total", Json::U64(self.total_violations()));
        for (kind, n) in InvariantKind::ALL.iter().zip(self.violation_counts) {
            counts.push(kind.name(), Json::U64(n));
        }
        let mut categories = Json::Obj(vec![]);
        for (name, n) in CATEGORIES.iter().zip(self.category_counts) {
            categories.push(name, Json::U64(n));
        }
        let failures: Vec<Json> = self
            .violations
            .iter()
            .map(|v| {
                Json::object([
                    ("index", Json::U64(v.index)),
                    ("category", Json::str(v.category)),
                    ("invariant", Json::str(v.kind.name())),
                    ("detail", Json::str(v.detail.clone())),
                    ("a_wkt", Json::str(v.a_wkt.clone())),
                    ("b_wkt", Json::str(v.b_wkt.clone())),
                ])
            })
            .collect();
        Json::object([
            ("schema", Json::str("stj-check-report/v1")),
            ("seed", Json::U64(self.config.seed)),
            ("pairs", Json::U64(self.pairs)),
            ("threads", Json::from(self.config.threads)),
            ("grid_order", Json::U64(self.config.grid_order as u64)),
            ("elapsed_ms", Json::U64(self.elapsed_ms)),
            ("violations", counts),
            ("categories", categories),
            (
                "pipeline",
                Json::object([
                    ("by_mbr", Json::U64(self.pipeline.by_mbr)),
                    ("by_intermediate", Json::U64(self.pipeline.by_intermediate)),
                    ("refined", Json::U64(self.pipeline.refined)),
                    (
                        "undetermined_pct",
                        Json::F64(self.pipeline.undetermined_pct()),
                    ),
                ]),
            ),
            ("failures", Json::Arr(failures)),
        ])
    }
}

/// Per-worker accumulator, merged after the scoped threads join.
#[derive(Default)]
struct WorkerState {
    violation_counts: [u64; InvariantKind::ALL.len()],
    violations: Vec<Violation>,
    category_counts: [u64; CATEGORIES.len()],
    pipeline: PipelineStats,
}

impl WorkerState {
    fn merge(&mut self, other: WorkerState) {
        for (a, b) in self.violation_counts.iter_mut().zip(other.violation_counts) {
            *a += b;
        }
        self.violations.extend(other.violations);
        for (a, b) in self.category_counts.iter_mut().zip(other.category_counts) {
            *a += b;
        }
        self.pipeline.merge(&other.pipeline);
    }
}

fn kind_slot(kind: InvariantKind) -> usize {
    InvariantKind::ALL.iter().position(|k| *k == kind).unwrap()
}

fn check_range(config: &CheckConfig, grid: &Grid, lo: u64, hi: u64) -> WorkerState {
    let mut state = WorkerState::default();
    for index in lo..hi {
        let pair = adversarial_pair(config.seed, index);
        state.category_counts[(index % CATEGORIES.len() as u64) as usize] += 1;
        match check_pair(&pair.a, &pair.b, grid) {
            Ok(outcome) => state.pipeline.record(outcome.determination),
            Err((kind, detail)) => {
                state.violation_counts[kind_slot(kind)] += 1;
                if state.violations.len() < config.max_violations {
                    let (sa, sb) = shrink_pair(&pair.a, &pair.b, grid, kind);
                    state.violations.push(Violation {
                        index,
                        category: pair.category,
                        kind,
                        detail,
                        a_wkt: polygon_to_wkt(&sa),
                        b_wkt: polygon_to_wkt(&sb),
                    });
                }
            }
        }
    }
    state
}

/// The sequential reference join the executor is checked against: the
/// full candidate list from [`mbr_join()`], then every pair through the
/// per-pair entry point ([`JoinMethod::find_relation`], or
/// [`relate_p_with`] for a predicate) with a [`Recorder`] profiler. It
/// shares no scheduling code with [`TopologyJoin`]; links come out in
/// candidate order, `sched`, `trace` and `adaptive` are `None`.
pub fn reference_join(
    left: &DatasetArena,
    right: &DatasetArena,
    method: JoinMethod,
    predicate: Option<TopoRelation>,
) -> JoinResult {
    let pairs = mbr_join(left.mbrs(), right.mbrs());
    let mut prof = Recorder::default();
    let mut ctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut prof,
        adaptive: None,
    };
    let mut links = Vec::new();
    let mut stats = PipelineStats::default();
    for &(i, j) in &pairs {
        let (r, s) = (left.object(i as usize), right.object(j as usize));
        let (determination, relation) = match predicate {
            None => {
                let out = method.find_relation(r, s, &mut ctx);
                let link = out.relation != TopoRelation::Disjoint;
                (out.determination, link.then_some(out.relation))
            }
            Some(p) => {
                let out = relate_p_with(r, s, p, &mut ctx);
                (out.determination, out.holds.then_some(p))
            }
        };
        stats.record(determination);
        if let Some(relation) = relation {
            links.push(Link {
                r: i,
                s: j,
                relation,
            });
        }
    }
    JoinResult {
        links,
        candidates: pairs.len() as u64,
        stats,
        profile: prof.finish(),
        sched: None,
        trace: None,
        adaptive: None,
    }
}

/// Invariant (f): over datasets assembled from the adversarial corpus
/// (pair `i`'s `a` polygon becomes left object `i`, its `b` polygon
/// right object `i`, capped at [`EXEC_SAMPLE_CAP`] pairs), the parallel
/// executor must reproduce the sequential [`reference_join`]'s links,
/// stats, and candidate count exactly — sequentially and at the run's
/// thread count.
fn check_exec_equivalence(config: &CheckConfig, grid: &Grid) -> Result<(), Violation> {
    let sample = config.pairs.min(EXEC_SAMPLE_CAP);
    if sample == 0 {
        return Ok(());
    }
    let (left, right) = sample_arenas(config, grid, sample);
    let threads = config.threads.max(1);

    let baseline = reference_join(&left, &right, JoinMethod::PC, None);
    let mut base_links = baseline.links.clone();
    base_links.sort_by_key(|l| (l.r, l.s));

    for t in [1, threads] {
        let got = TopologyJoin::new().threads(t).run(&left, &right);
        let mut got_links = got.links.clone();
        got_links.sort_by_key(|l| (l.r, l.s));
        let detail = if got.candidates != baseline.candidates {
            Some(format!(
                "executor({t} thread(s)) examined {} candidates, reference {}",
                got.candidates, baseline.candidates
            ))
        } else if got.stats != baseline.stats {
            Some(format!(
                "executor({t} thread(s)) stats {:?} != reference {:?}",
                got.stats, baseline.stats
            ))
        } else if got_links != base_links {
            Some(link_diff_detail(t, &base_links, &got_links))
        } else {
            None
        };
        if let Some(detail) = detail {
            // Repro geometry: the first divergent link's pair of objects
            // (left object i is adversarial pair i's `a`, right object j
            // is pair j's `b`), or pair 0 for stat-level mismatches.
            let (i, j) = first_link_diff(&base_links, &got_links).unwrap_or((0, 0));
            return Err(Violation {
                index: u64::from(i),
                category: "exec_dataset",
                kind: InvariantKind::ExecEquivalence,
                detail,
                a_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(i)).a),
                b_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(j)).b),
            });
        }
    }
    Ok(())
}

/// Assembles the invariant (f)/(g) sample datasets: adversarial pair
/// `i`'s `a` polygon becomes left object `i`, its `b` polygon right
/// object `i`.
fn sample_arenas(config: &CheckConfig, grid: &Grid, sample: u64) -> (DatasetArena, DatasetArena) {
    let mut lefts = Vec::with_capacity(sample as usize);
    let mut rights = Vec::with_capacity(sample as usize);
    for index in 0..sample {
        let pair = adversarial_pair(config.seed, index);
        lefts.push(pair.a);
        rights.push(pair.b);
    }
    let threads = config.threads.max(1);
    (
        DatasetArena::build("check-exec-a", &lefts, grid, DEFAULT_MAX_INTERVALS, threads),
        DatasetArena::build(
            "check-exec-b",
            &rights,
            grid,
            DEFAULT_MAX_INTERVALS,
            threads,
        ),
    )
}

/// Invariant (g): the out-of-core driver over [`SHARD_COUNT`] Hilbert
/// shards per side — real STJD/STJM files written to a temp directory
/// and reopened (mapped where supported) — must reproduce the
/// single-arena streaming join's links, stats, and candidate count
/// exactly, sequentially and at the run's thread count.
fn check_shard_equivalence(config: &CheckConfig, grid: &Grid) -> Result<(), Violation> {
    let sample = config.pairs.min(EXEC_SAMPLE_CAP);
    if sample == 0 {
        return Ok(());
    }
    let pair0 = adversarial_pair(config.seed, 0);
    let io_violation = |detail: String| Violation {
        index: 0,
        category: "shard_dataset",
        kind: InvariantKind::ShardEquivalence,
        detail,
        a_wkt: polygon_to_wkt(&pair0.a),
        b_wkt: polygon_to_wkt(&pair0.b),
    };

    let (left, right) = sample_arenas(config, grid, sample);
    let threads = config.threads.max(1);
    let baseline = TopologyJoin::new().threads(1).run(&left, &right);
    let mut base_links = baseline.links.clone();
    base_links.sort_by_key(|l| (l.r, l.s));

    let dir = std::env::temp_dir().join(format!(
        "stj-check-shards-{}-{:x}",
        std::process::id(),
        config.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Err(io_violation(format!("create {}: {e}", dir.display())));
    }
    let result = (|| {
        for (name, arena) in [("left", &left), ("right", &right)] {
            let path = dir.join(format!("{name}.stjm"));
            write_sharded(&path, arena, grid, SHARD_COUNT)
                .map_err(|e| io_violation(format!("shard {}: {e}", path.display())))?;
        }
        let open = |name: &str| {
            ShardedDataset::open(&dir.join(format!("{name}.stjm")))
                .map_err(|e| io_violation(format!("open sharded {name}: {e}")))
        };
        let (sleft, sright) = (open("left")?, open("right")?);
        for t in [1, threads] {
            let join = TopologyJoin::new().threads(t);
            let got = external_join_files(&join, &sleft, &sright)
                .map_err(|e| io_violation(format!("external join ({t} thread(s)): {e}")))?;
            // External links come back already sorted by `(r, s)`.
            let detail = if got.candidates != baseline.candidates {
                Some(format!(
                    "sharded({t} thread(s)) examined {} candidates, single-arena {}",
                    got.candidates, baseline.candidates
                ))
            } else if got.stats != baseline.stats {
                Some(format!(
                    "sharded({t} thread(s)) stats {:?} != single-arena {:?}",
                    got.stats, baseline.stats
                ))
            } else if got.links != base_links {
                let at = first_link_diff(&base_links, &got.links);
                Some(format!(
                    "sharded({t} thread(s)) produced {} links, single-arena {}; \
                     first divergence at {at:?}",
                    got.links.len(),
                    base_links.len()
                ))
            } else {
                None
            };
            if let Some(detail) = detail {
                let (i, j) = first_link_diff(&base_links, &got.links).unwrap_or((0, 0));
                return Err(Violation {
                    index: u64::from(i),
                    category: "shard_dataset",
                    kind: InvariantKind::ShardEquivalence,
                    detail,
                    a_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(i)).a),
                    b_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(j)).b),
                });
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Invariant (h): the adaptive pipeline — warm-up (`on`) and immediate
/// skip (`force-skip`) — must reproduce the static pipeline's links and
/// per-relation counts exactly over the adversarial sample, at one
/// thread and at the run's thread count. The pipeline's stage split
/// (`by_intermediate` vs `refined`) legitimately moves when a cell skips
/// the APRIL stage, so only order-independent outputs are compared:
/// candidate count, pair count, MBR-stage decisions, sorted links, and
/// the per-relation link histogram.
fn check_adaptive_equivalence(config: &CheckConfig, grid: &Grid) -> Result<(), Violation> {
    let sample = config.pairs.min(EXEC_SAMPLE_CAP);
    if sample == 0 {
        return Ok(());
    }
    let (left, right) = sample_arenas(config, grid, sample);
    let threads = config.threads.max(1);

    let baseline = TopologyJoin::new().threads(1).run(&left, &right);
    let mut base_links = baseline.links.clone();
    base_links.sort_by_key(|l| (l.r, l.s));
    let relation_counts = |links: &[Link]| {
        let mut counts = std::collections::BTreeMap::new();
        for l in links {
            *counts.entry(format!("{}", l.relation)).or_insert(0u64) += 1;
        }
        counts
    };
    let base_relations = relation_counts(&base_links);

    for mode in [AdaptiveMode::On, AdaptiveMode::ForceSkip] {
        for t in [1, threads] {
            let got = TopologyJoin::new()
                .adaptive(mode)
                .threads(t)
                .run(&left, &right);
            let mut got_links = got.links.clone();
            got_links.sort_by_key(|l| (l.r, l.s));
            let label = format!("adaptive {} ({t} thread(s))", mode.label());
            let detail = if got.candidates != baseline.candidates {
                Some(format!(
                    "{label} examined {} candidates, static {}",
                    got.candidates, baseline.candidates
                ))
            } else if got.stats.pairs != baseline.stats.pairs
                || got.stats.by_mbr != baseline.stats.by_mbr
            {
                Some(format!(
                    "{label} pair/MBR counts ({}, {}) != static ({}, {})",
                    got.stats.pairs, got.stats.by_mbr, baseline.stats.pairs, baseline.stats.by_mbr
                ))
            } else if relation_counts(&got_links) != base_relations {
                Some(format!(
                    "{label} relation histogram {:?} != static {base_relations:?}",
                    relation_counts(&got_links)
                ))
            } else if got_links != base_links {
                let at = first_link_diff(&base_links, &got_links);
                Some(format!(
                    "{label} produced {} links, static {}; first divergence at {at:?}",
                    got_links.len(),
                    base_links.len()
                ))
            } else {
                None
            };
            if let Some(detail) = detail {
                let (i, j) = first_link_diff(&base_links, &got_links).unwrap_or((0, 0));
                return Err(Violation {
                    index: u64::from(i),
                    category: "adaptive_dataset",
                    kind: InvariantKind::AdaptiveEquivalence,
                    detail,
                    a_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(i)).a),
                    b_wkt: polygon_to_wkt(&adversarial_pair(config.seed, u64::from(j)).b),
                });
            }
        }
    }
    Ok(())
}

/// The first `(r, s)` where the sorted link lists diverge.
fn first_link_diff(base: &[Link], got: &[Link]) -> Option<(u32, u32)> {
    for (a, b) in base.iter().zip(got) {
        if a != b {
            return Some((a.r, a.s));
        }
    }
    match base.len().cmp(&got.len()) {
        std::cmp::Ordering::Less => got.get(base.len()).map(|l| (l.r, l.s)),
        std::cmp::Ordering::Greater => base.get(got.len()).map(|l| (l.r, l.s)),
        std::cmp::Ordering::Equal => None,
    }
}

fn link_diff_detail(threads: usize, base: &[Link], got: &[Link]) -> String {
    let at = first_link_diff(base, got);
    format!(
        "executor({threads} thread(s)) produced {} links, reference {}; first divergence at {:?}",
        got.len(),
        base.len(),
        at
    )
}

/// Runs the differential check described by `config`.
pub fn run_check(config: &CheckConfig) -> CheckReport {
    let start = Instant::now();
    let grid = Grid::new(adversarial_space(), config.grid_order);
    let threads = config.threads.max(1);

    let mut state = WorkerState::default();
    if threads == 1 || config.pairs < 2 {
        state = check_range(config, &grid, 0, config.pairs);
    } else {
        let chunk = config.pairs.div_ceil(threads as u64);
        let grid_ref = &grid;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let lo = (t * chunk).min(config.pairs);
                    let hi = ((t + 1) * chunk).min(config.pairs);
                    scope.spawn(move || check_range(config, grid_ref, lo, hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check worker panicked"))
                .collect::<Vec<_>>()
        });
        for r in results {
            state.merge(r);
        }
    }

    // Invariants (f), (g), (h): dataset-level executor equivalence,
    // out-of-core shard equivalence, and adaptive-pipeline equivalence.
    for check in [
        check_exec_equivalence,
        check_shard_equivalence,
        check_adaptive_equivalence,
    ] {
        if let Err(v) = check(config, &grid) {
            state.violation_counts[kind_slot(v.kind)] += 1;
            state.violations.push(v);
        }
    }

    // Deterministic report order regardless of worker interleaving.
    state.violations.sort_by_key(|v| v.index);
    state.violations.truncate(config.max_violations);

    CheckReport {
        config: *config,
        pairs: config.pairs,
        violation_counts: state.violation_counts,
        violations: state.violations,
        category_counts: state.category_counts,
        pipeline: state.pipeline,
        elapsed_ms: start.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_covers_categories() {
        let report = run_check(&CheckConfig {
            seed: 0xA11CE,
            pairs: 110,
            ..CheckConfig::default()
        });
        assert_eq!(report.pairs, 110);
        assert_eq!(
            report.total_violations(),
            0,
            "violations: {:?}",
            report.violations
        );
        assert!(report.category_counts.iter().all(|&n| n >= 10));
        assert_eq!(report.pipeline.pairs, 110);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = CheckConfig {
            seed: 7,
            pairs: 66,
            ..CheckConfig::default()
        };
        let seq = run_check(&base);
        let par = run_check(&CheckConfig { threads: 4, ..base });
        assert_eq!(seq.violation_counts, par.violation_counts);
        assert_eq!(seq.category_counts, par.category_counts);
        assert_eq!(seq.pipeline, par.pipeline);
    }

    #[test]
    fn report_json_has_the_schema_and_counts() {
        let report = run_check(&CheckConfig {
            seed: 3,
            pairs: 22,
            ..CheckConfig::default()
        });
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"schema\": \"stj-check-report/v1\""));
        assert!(rendered.contains("\"pairs\": 22"));
        assert!(rendered.contains("\"method_agreement\""));
        assert!(rendered.contains("\"april_soundness\""));
        assert!(rendered.contains("\"storage_fidelity\""));
        assert!(rendered.contains("\"exec_equivalence\""));
        assert!(rendered.contains("\"shard_equivalence\""));
        assert!(rendered.contains("\"adaptive_equivalence\""));
        assert!(rendered.contains("\"shared_edge\""));
    }
}
