//! Adaptive filter ordering: a selectivity-driven cost model for the
//! MBR → APRIL → refine pipeline.
//!
//! The static pipeline runs the APRIL intermediate filter for every
//! candidate pair whose MBR classification cannot decide it, even for
//! MBR classes where APRIL almost never decides — pure overhead on the
//! hot path. This module learns, per (MBR class × query mode), whether
//! the intermediate stage pays for itself, and skips it for the rest of
//! the join when it does not:
//!
//! - **Counters** ([`AdaptiveWorker`] → [`AdaptiveModel`]): every pair
//!   that reaches the APRIL stage bumps per-worker local counters
//!   (pairs seen, pairs the stage decided). Stage costs are *sampled*:
//!   one pair in [`TIME_SAMPLE_PERIOD`] during warm-up takes two
//!   `Instant` reads around each stage. The counters are always on —
//!   they do not require the full `Profiler` — and workers fold them
//!   into the shared atomic model every `MERGE_PERIOD` (1024) pairs, so the
//!   per-pair path never touches shared cache lines.
//! - **Warm-up and verdict**: once a cell has observed
//!   [`WARMUP_SAMPLES`] pairs (and at least one timing sample), it
//!   settles a [`Verdict`]: *keep* the APRIL stage when its expected
//!   saving (`decisiveness × mean refine cost`) exceeds its cost
//!   (`mean APRIL cost`), *skip* it otherwise. The first worker to
//!   observe the threshold decides; all workers pick the verdict up at
//!   their next merge.
//! - **Post-skip audit**: warm-up refine times are measured under the
//!   filter, which narrows the candidate set even when inconclusive, so
//!   a skip verdict rests on an underestimate of the unfiltered refine
//!   cost. Skipped refinements keep being sampled (one in
//!   `POST_SAMPLE_PERIOD` = 64), and once `REVISIT_SAMPLES` (8) realized
//!   samples disagree — the full pipeline is cheaper than the skip
//!   path's actual refinement — the verdict flips back to *keep*,
//!   one-way, within a few dozen pairs per worker.
//! - **Soundness**: skipping is *always* sound. The intermediate filter
//!   only ever pre-empts DE-9IM refinement, and refinement is exact —
//!   a skipped pair goes straight to refinement over the MBR class's
//!   own candidate set and produces the identical relation. Only the
//!   stage-attribution split (`by_intermediate` vs `refined`) moves;
//!   links and relations are bit-identical to the static pipeline
//!   (enforced by `stj-check` invariant (h), `adaptive_equivalence`).
//!
//! The pipeline itself does not fork: [`crate::find_relation_with`] and
//! [`crate::relate_p_with`] take the worker through
//! [`crate::PairCtx::adaptive`] and ask it, per pair, whether to run the
//! intermediate stage and whether to time it; without a worker they
//! always run it, untimed.
//!
//! The model is shared state safe to hold across joins: `stj-serve`
//! keeps one resident [`AdaptiveModel`] and warms it across online
//! relate requests, and derives a probe-side APRIL interval cap from it
//! ([`AdaptiveModel::probe_interval_cap`]) once the verdicts say the
//! intermediate stage is not earning its precision.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;
use stj_de9im::TopoRelation;
use stj_index::MbrRelation;
use stj_obs::Json;

/// Pairs a cell must observe through the APRIL stage before its verdict
/// settles. Small enough to converge early in any join worth adapting,
/// large enough that decisiveness estimates are stable.
pub const WARMUP_SAMPLES: u64 = 512;

/// During warm-up, one pair in this many is timed (two `Instant` reads
/// around each stage); all other pairs only bump plain counters.
pub const TIME_SAMPLE_PERIOD: u64 = 8;

/// After a *skip* verdict, refinements are still timed — every one of
/// the first [`REVISIT_SAMPLES`] per worker, then one in this many.
/// The samples feed realized-savings reporting *and* the post-skip
/// audit: warm-up refine times are measured under the filter, whose
/// `IfOutcome::Refine` hands refinement a narrowed candidate set, so a
/// skip decision is made from an underestimate of the unfiltered refine
/// cost and must be auditable against realized samples.
const POST_SAMPLE_PERIOD: u64 = 64;

/// Post-skip refine samples a worker accumulates locally before folding
/// them in and re-examining the skip verdict. The first this-many skips
/// per cell are all timed, so a mis-skipped cell is caught within a
/// handful of pairs per worker.
const REVISIT_SAMPLES: u64 = 8;

/// Pairs a worker processes between folds of its local counters into the
/// shared model (and refreshes of its cached verdicts).
const MERGE_PERIOD: u32 = 1024;

/// Probe-side APRIL interval budget applied when the model has settled
/// on skipping the intermediate stage everywhere — rasterization
/// precision is wasted on a stage that no longer runs, so ad-hoc probes
/// are capped to a coarse approximation (still sound; see
/// [`stj_raster::AprilApprox::with_max_intervals`]).
pub const SKIP_PROBE_INTERVALS: usize = 256;

/// MBR classes tracked (all of `MbrRelation`; Disjoint/Cross never reach
/// the APRIL stage and their cells stay empty).
const CLASSES: usize = 6;

/// Query modes tracked: find-relation plus the eight `relate_p`
/// predicates.
const MODES: usize = 9;

const CELLS: usize = CLASSES * MODES;

/// The adaptive controller's operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdaptiveMode {
    /// Static pipeline, bit-identical to the pre-adaptive executor —
    /// stats, profiles, and links all match exactly. The library
    /// default (the `stj join` CLI defaults to [`AdaptiveMode::On`]).
    #[default]
    Off,
    /// Learn per-(class × mode) decisiveness during a warm-up window,
    /// then keep or skip the APRIL stage per cell.
    On,
    /// Skip the APRIL stage everywhere from the first pair (no
    /// warm-up). Links stay identical; useful for measuring the
    /// intermediate stage's gross cost.
    ForceSkip,
}

impl AdaptiveMode {
    /// Whether this mode needs a model at all.
    pub fn enabled(self) -> bool {
        self != AdaptiveMode::Off
    }

    /// Stable CLI/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            AdaptiveMode::Off => "off",
            AdaptiveMode::On => "on",
            AdaptiveMode::ForceSkip => "force-skip",
        }
    }

    /// Parses a CLI/API knob value (`on`, `off`, `force-skip`).
    pub fn parse(s: &str) -> Option<AdaptiveMode> {
        match s {
            "off" => Some(AdaptiveMode::Off),
            "on" => Some(AdaptiveMode::On),
            "force-skip" => Some(AdaptiveMode::ForceSkip),
            _ => None,
        }
    }
}

/// A cell's settled (or not-yet-settled) decision about the APRIL stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Still inside the warm-up window: run the full pipeline and
    /// sample stage costs.
    Warming,
    /// The stage pays for itself here: keep running it.
    Keep,
    /// The stage decides too little to cover its cost: go straight to
    /// refinement.
    Skip,
}

impl Verdict {
    fn from_u8(v: u8) -> Verdict {
        match v {
            1 => Verdict::Keep,
            2 => Verdict::Skip,
            _ => Verdict::Warming,
        }
    }

    /// Stable JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Warming => "warming",
            Verdict::Keep => "keep",
            Verdict::Skip => "skip",
        }
    }
}

/// One shared (class × mode) cell: always-on counts plus sampled stage
/// costs, all relaxed atomics (workers only ever fold deltas in).
#[derive(Default)]
struct SharedCell {
    /// Pairs that reached the APRIL stage.
    pairs: AtomicU64,
    /// ... of which the APRIL stage decided.
    decided: AtomicU64,
    /// Sampled intermediate-stage nanos and sample count.
    april_ns: AtomicU64,
    april_timed: AtomicU64,
    /// Sampled refinement nanos and sample count (warm-up window).
    refine_ns: AtomicU64,
    refine_timed: AtomicU64,
    /// Pairs routed straight to refinement under a skip verdict.
    skipped: AtomicU64,
    /// Sampled refinement nanos and count observed *after* the skip
    /// verdict (for realized-savings reporting).
    post_refine_ns: AtomicU64,
    post_refine_timed: AtomicU64,
    /// 0 = warming, 1 = keep, 2 = skip. Settled once out of warming;
    /// the post-skip audit may later revise 2 → 1 (never back), so a
    /// cell changes verdict at most twice over its lifetime.
    verdict: AtomicU8,
}

/// Plain per-worker counter deltas for one cell, folded into the shared
/// model at merge points.
#[derive(Clone, Copy, Default)]
struct LocalCell {
    pairs: u64,
    decided: u64,
    april_ns: u64,
    april_timed: u64,
    refine_ns: u64,
    refine_timed: u64,
    skipped: u64,
    post_refine_ns: u64,
    post_refine_timed: u64,
}

impl LocalCell {
    fn is_empty(&self) -> bool {
        self.pairs == 0 && self.skipped == 0
    }
}

/// The shared per-join (or, in `stj-serve`, per-process) decisiveness
/// model: one atomic cell per (MBR class × query mode). Safe to share
/// across worker threads; all operations are relaxed atomics off the
/// per-pair fast path.
pub struct AdaptiveModel {
    mode: AdaptiveMode,
    warmup: u64,
    cells: [SharedCell; CELLS],
}

/// Flat cell index for `(MBR class, query mode)`.
fn cell_index(class: usize, mode: usize) -> usize {
    debug_assert!(class < CLASSES && mode < MODES);
    class * MODES + mode
}

/// Query-mode index: 0 = find-relation, `1 + p` for predicate `p`.
fn mode_index(predicate: Option<TopoRelation>) -> usize {
    predicate.map_or(0, |p| 1 + p as usize)
}

/// The eight predicates in discriminant order — inverse of
/// [`mode_index`] for report labels.
const PREDICATES: [TopoRelation; 8] = [
    TopoRelation::Disjoint,
    TopoRelation::Intersects,
    TopoRelation::Meets,
    TopoRelation::Equals,
    TopoRelation::Inside,
    TopoRelation::Contains,
    TopoRelation::CoveredBy,
    TopoRelation::Covers,
];

impl AdaptiveModel {
    /// A fresh model with the default warm-up window.
    pub fn new(mode: AdaptiveMode) -> AdaptiveModel {
        AdaptiveModel::with_warmup(mode, WARMUP_SAMPLES)
    }

    /// A fresh model with an explicit warm-up window (tests use tiny
    /// windows to exercise post-verdict behavior on small corpora).
    pub fn with_warmup(mode: AdaptiveMode, warmup: u64) -> AdaptiveModel {
        let model = AdaptiveModel {
            mode,
            warmup: warmup.max(1),
            cells: std::array::from_fn(|_| SharedCell::default()),
        };
        if mode == AdaptiveMode::ForceSkip {
            for cell in &model.cells {
                cell.verdict.store(2, Ordering::Relaxed);
            }
        }
        model
    }

    /// The operating mode this model was created with.
    pub fn mode(&self) -> AdaptiveMode {
        self.mode
    }

    fn verdict(&self, idx: usize) -> Verdict {
        Verdict::from_u8(self.cells[idx].verdict.load(Ordering::Relaxed))
    }

    /// Folds one worker's local deltas into the shared cell, then
    /// settles the verdict if the warm-up threshold was just crossed.
    fn absorb(&self, idx: usize, local: &LocalCell) {
        let cell = &self.cells[idx];
        let pairs = cell.pairs.fetch_add(local.pairs, Ordering::Relaxed) + local.pairs;
        cell.decided.fetch_add(local.decided, Ordering::Relaxed);
        cell.april_ns.fetch_add(local.april_ns, Ordering::Relaxed);
        cell.april_timed
            .fetch_add(local.april_timed, Ordering::Relaxed);
        cell.refine_ns.fetch_add(local.refine_ns, Ordering::Relaxed);
        cell.refine_timed
            .fetch_add(local.refine_timed, Ordering::Relaxed);
        cell.skipped.fetch_add(local.skipped, Ordering::Relaxed);
        cell.post_refine_ns
            .fetch_add(local.post_refine_ns, Ordering::Relaxed);
        cell.post_refine_timed
            .fetch_add(local.post_refine_timed, Ordering::Relaxed);
        match cell.verdict.load(Ordering::Relaxed) {
            0 if pairs >= self.warmup => self.settle(cell),
            2 if self.mode == AdaptiveMode::On => self.revisit(cell),
            _ => {}
        }
    }

    /// Settles a warmed cell's verdict from its observed counters. Keep
    /// iff the stage's expected per-pair saving (`decisiveness × mean
    /// refine cost`) covers its per-pair cost (`mean APRIL cost`).
    fn settle(&self, cell: &SharedCell) {
        let pairs = cell.pairs.load(Ordering::Relaxed);
        let decided = cell.decided.load(Ordering::Relaxed);
        let april_timed = cell.april_timed.load(Ordering::Relaxed);
        if pairs == 0 || april_timed == 0 {
            // No cost evidence yet (timing is sampled): keep warming.
            return;
        }
        let refine_timed = cell.refine_timed.load(Ordering::Relaxed);
        let keep = if refine_timed == 0 {
            // The stage decided every sampled pair — clearly earning.
            true
        } else {
            let april = cell.april_ns.load(Ordering::Relaxed) as u128 / april_timed as u128;
            let refine = cell.refine_ns.load(Ordering::Relaxed) as u128 / refine_timed as u128;
            // decisiveness × refine ≥ april, in integers:
            decided as u128 * refine >= pairs as u128 * april
        };
        // First settler wins; later workers see it at their next merge.
        let _ = cell.verdict.compare_exchange(
            0,
            if keep { 1 } else { 2 },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Audits a settled *skip* verdict against realized refine samples.
    ///
    /// The warm-up's refine times are measured downstream of the filter,
    /// which narrows the DE-9IM candidate set even when it cannot
    /// decide — so refinement without the filter can be *more* expensive
    /// than the warm-up suggested (selection bias: only
    /// filter-inconclusive pairs were sampled). Once enough post-skip
    /// samples exist, re-run the comparison with the realized cost: flip
    /// back to *keep* when the full pipeline
    /// (`mean_april + (1 − decisiveness) × mean_warmup_refine`) is
    /// cheaper per pair than the skip path's realized refinement. The
    /// flip is one-way; a keep verdict is terminal.
    fn revisit(&self, cell: &SharedCell) {
        let post_timed = cell.post_refine_timed.load(Ordering::Relaxed);
        if post_timed < REVISIT_SAMPLES {
            return;
        }
        let pairs = cell.pairs.load(Ordering::Relaxed);
        let decided = cell.decided.load(Ordering::Relaxed);
        let april_timed = cell.april_timed.load(Ordering::Relaxed);
        if pairs == 0 || april_timed == 0 {
            return;
        }
        let mean = |ns: u64, n: u64| {
            if n == 0 {
                0u128
            } else {
                ns as u128 / n as u128
            }
        };
        let april = mean(cell.april_ns.load(Ordering::Relaxed), april_timed);
        let refine = mean(
            cell.refine_ns.load(Ordering::Relaxed),
            cell.refine_timed.load(Ordering::Relaxed),
        );
        let post = mean(cell.post_refine_ns.load(Ordering::Relaxed), post_timed);
        // keep_cost < skip_cost, cross-multiplied by pairs:
        let keep_cost = april * pairs as u128 + refine * (pairs - decided.min(pairs)) as u128;
        let skip_cost = post * pairs as u128;
        if keep_cost < skip_cost {
            let _ = cell
                .verdict
                .compare_exchange(2, 1, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// A probe-side APRIL interval cap derived from the settled
    /// verdicts: once every settled find-relation cell says *skip* (and
    /// at least one has settled), rasterization precision is wasted and
    /// ad-hoc probes can be built with a coarse
    /// [`SKIP_PROBE_INTERVALS`] budget. `None` means build at full
    /// budget.
    pub fn probe_interval_cap(&self) -> Option<usize> {
        match self.mode {
            AdaptiveMode::Off => None,
            AdaptiveMode::ForceSkip => Some(SKIP_PROBE_INTERVALS),
            AdaptiveMode::On => {
                let mut settled = 0;
                for class in 0..CLASSES {
                    match self.verdict(cell_index(class, 0)) {
                        Verdict::Keep => return None,
                        Verdict::Skip => settled += 1,
                        Verdict::Warming => {}
                    }
                }
                (settled > 0).then_some(SKIP_PROBE_INTERVALS)
            }
        }
    }

    /// Snapshots the decision trace: per-cell verdicts, warm-up sample
    /// counts, and estimated vs realized savings.
    pub fn report(&self) -> AdaptiveReport {
        let mut classes = Vec::new();
        for class_idx in 0..CLASSES {
            for mode in 0..MODES {
                let cell = &self.cells[cell_index(class_idx, mode)];
                let pairs = cell.pairs.load(Ordering::Relaxed);
                let skipped = cell.skipped.load(Ordering::Relaxed);
                if pairs == 0 && skipped == 0 {
                    continue;
                }
                let decided = cell.decided.load(Ordering::Relaxed);
                let mean = |ns: &AtomicU64, n: &AtomicU64| {
                    ns.load(Ordering::Relaxed)
                        .checked_div(n.load(Ordering::Relaxed))
                        .unwrap_or(0)
                };
                let mean_april_ns = mean(&cell.april_ns, &cell.april_timed);
                let mean_refine_ns = mean(&cell.refine_ns, &cell.refine_timed);
                let decisiveness = if pairs == 0 {
                    0.0
                } else {
                    decided as f64 / pairs as f64
                };
                // Counterfactual keep cost per pair vs the two refine
                // costs: the warm-up estimate and the sampled
                // post-verdict observation.
                let keep_cost = mean_april_ns as f64 + (1.0 - decisiveness) * mean_refine_ns as f64;
                let est_saved_ns = (skipped as f64 * (keep_cost - mean_refine_ns as f64)) as i64;
                let post_timed = cell.post_refine_timed.load(Ordering::Relaxed);
                let realized_saved_ns = if post_timed == 0 {
                    est_saved_ns
                } else {
                    let post_mean =
                        cell.post_refine_ns.load(Ordering::Relaxed) as f64 / post_timed as f64;
                    (skipped as f64 * (keep_cost - post_mean)) as i64
                };
                classes.push(AdaptiveCellReport {
                    class: MbrRelation::ALL[class_idx].name(),
                    predicate: (mode > 0).then(|| PREDICATES[mode - 1].to_string()),
                    verdict: self.verdict(cell_index(class_idx, mode)).label(),
                    samples: pairs,
                    april_decided: decided,
                    decisiveness_pct: decisiveness * 100.0,
                    mean_april_ns,
                    mean_refine_ns,
                    skipped_pairs: skipped,
                    est_saved_ns,
                    realized_saved_ns,
                });
            }
        }
        AdaptiveReport {
            mode: self.mode,
            warmup: self.warmup,
            classes,
        }
    }
}

/// The decision trace of one adaptive run — the `adaptive` block of
/// `--stats-json` and `/stats`.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// The controller mode the run used.
    pub mode: AdaptiveMode,
    /// Warm-up window (pairs per cell).
    pub warmup: u64,
    /// One entry per (MBR class × mode) cell that saw traffic.
    pub classes: Vec<AdaptiveCellReport>,
}

/// One cell of the decision trace.
#[derive(Clone, Debug)]
pub struct AdaptiveCellReport {
    /// MBR class label (`equal`, `inside`, `contains`, `overlap`, ...).
    pub class: &'static str,
    /// Predicate label in `relate_p` mode; `None` for find-relation.
    pub predicate: Option<String>,
    /// `warming`, `keep`, or `skip`.
    pub verdict: &'static str,
    /// Pairs observed through the APRIL stage.
    pub samples: u64,
    /// ... of which the stage decided.
    pub april_decided: u64,
    /// `april_decided / samples`, percent.
    pub decisiveness_pct: f64,
    /// Sampled mean APRIL-stage cost.
    pub mean_april_ns: u64,
    /// Sampled mean refinement cost (warm-up window).
    pub mean_refine_ns: u64,
    /// Pairs routed straight to refinement under a skip verdict.
    pub skipped_pairs: u64,
    /// Projected saving from skipping, from warm-up means.
    pub est_saved_ns: i64,
    /// Saving recomputed against post-verdict sampled refine costs
    /// (falls back to the estimate when no post samples were taken).
    pub realized_saved_ns: i64,
}

impl AdaptiveReport {
    /// Total pairs that bypassed the APRIL stage.
    pub fn skipped_pairs(&self) -> u64 {
        self.classes.iter().map(|c| c.skipped_pairs).sum()
    }

    /// Renders the `adaptive` JSON block.
    pub fn to_json(&self) -> Json {
        let classes: Vec<Json> = self
            .classes
            .iter()
            .map(|c| {
                Json::object([
                    ("class", Json::str(c.class)),
                    (
                        "predicate",
                        c.predicate
                            .as_ref()
                            .map_or(Json::Null, |p| Json::str(p.as_str())),
                    ),
                    ("verdict", Json::str(c.verdict)),
                    ("samples", Json::U64(c.samples)),
                    ("april_decided", Json::U64(c.april_decided)),
                    ("decisiveness_pct", Json::F64(c.decisiveness_pct)),
                    ("mean_april_ns", Json::U64(c.mean_april_ns)),
                    ("mean_refine_ns", Json::U64(c.mean_refine_ns)),
                    ("skipped_pairs", Json::U64(c.skipped_pairs)),
                    ("est_saved_ns", Json::I64(c.est_saved_ns)),
                    ("realized_saved_ns", Json::I64(c.realized_saved_ns)),
                ])
            })
            .collect();
        Json::object([
            ("mode", Json::str(self.mode.label())),
            ("warmup_pairs", Json::U64(self.warmup)),
            ("skipped_pairs", Json::U64(self.skipped_pairs())),
            (
                "est_saved_ns",
                Json::I64(self.classes.iter().map(|c| c.est_saved_ns).sum()),
            ),
            (
                "realized_saved_ns",
                Json::I64(self.classes.iter().map(|c| c.realized_saved_ns).sum()),
            ),
            ("classes", Json::Arr(classes)),
        ])
    }
}

/// One pair's route through the intermediate stage, read from the
/// worker's cached cell verdict by [`AdaptiveWorker::gate`].
#[derive(Clone, Copy)]
pub(crate) struct Gate {
    idx: usize,
    /// The cell's verdict is *skip*: go straight to refinement.
    pub(crate) skip: bool,
    /// Time this pair's stages: a warm-up sample, or a post-skip audit
    /// sample of its refinement.
    pub(crate) timed: bool,
}

/// Per-worker adaptive state: local counter deltas, cached verdicts,
/// and the merge cadence. Create one per worker from the shared model;
/// call [`AdaptiveWorker::flush`] before dropping it so the final
/// partial window reaches the model.
pub struct AdaptiveWorker<'a> {
    model: &'a AdaptiveModel,
    cells: [LocalCell; CELLS],
    verdicts: [Verdict; CELLS],
    since_merge: u32,
    ticks: u64,
    /// Post-skip refinements this worker has seen per cell (not reset at
    /// flush): the first [`REVISIT_SAMPLES`] are all timed so the audit
    /// gets its evidence within a few pairs of the skip verdict; after
    /// that, sampling backs off to one in [`POST_SAMPLE_PERIOD`].
    post_seen: [u32; CELLS],
}

impl<'a> AdaptiveWorker<'a> {
    /// A fresh worker view over `model`.
    pub fn new(model: &'a AdaptiveModel) -> AdaptiveWorker<'a> {
        let verdicts = std::array::from_fn(|i| model.verdict(i));
        AdaptiveWorker {
            model,
            cells: [LocalCell::default(); CELLS],
            verdicts,
            since_merge: 0,
            ticks: 0,
            post_seen: [0; CELLS],
        }
    }

    /// Folds all local deltas into the shared model and refreshes the
    /// cached verdicts.
    pub fn flush(&mut self) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if !cell.is_empty() {
                self.model.absorb(i, cell);
                *cell = LocalCell::default();
            }
        }
        for (i, v) in self.verdicts.iter_mut().enumerate() {
            *v = self.model.verdict(i);
        }
        self.since_merge = 0;
    }

    fn bump(&mut self) {
        self.since_merge += 1;
        if self.since_merge >= MERGE_PERIOD {
            self.flush();
        }
    }

    /// Whether the next pair through a warming cell should be timed.
    fn sample_timer(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks.is_multiple_of(TIME_SAMPLE_PERIOD)
    }

    /// Whether the next skipped pair's refinement should be timed: the
    /// first [`REVISIT_SAMPLES`] skips per cell always are (audit
    /// evidence), then one in [`POST_SAMPLE_PERIOD`].
    fn sample_post_timer(&mut self, idx: usize) -> bool {
        if self.post_seen[idx] < REVISIT_SAMPLES as u32 {
            self.post_seen[idx] += 1;
            return true;
        }
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks.is_multiple_of(POST_SAMPLE_PERIOD)
    }

    /// Routes one pair of MBR class `class` in query mode `predicate`
    /// (`None` = find-relation) by its cell's verdict.
    pub(crate) fn gate(&mut self, class: MbrRelation, predicate: Option<TopoRelation>) -> Gate {
        let idx = cell_index(class as usize, mode_index(predicate));
        match self.verdicts[idx] {
            Verdict::Skip => Gate {
                idx,
                skip: true,
                timed: self.sample_post_timer(idx),
            },
            verdict => Gate {
                idx,
                skip: false,
                timed: verdict == Verdict::Warming && self.sample_timer(),
            },
        }
    }

    /// Records a gated pair's outcome: whether the intermediate stage
    /// decided it, and the sampled stage costs (`None` when untimed).
    pub(crate) fn record(
        &mut self,
        gate: Gate,
        decided: bool,
        april_ns: Option<u64>,
        refine_ns: Option<u64>,
    ) {
        let idx = gate.idx;
        let cell = &mut self.cells[idx];
        if gate.skip {
            cell.skipped += 1;
            if let Some(ns) = refine_ns {
                cell.post_refine_ns += ns;
                cell.post_refine_timed += 1;
                // Enough local evidence to audit the skip verdict: fold
                // this cell in eagerly (the model revisits on absorb) and
                // pick up a possible skip → keep flip without waiting out
                // the merge period — a mis-skip costs real refinement
                // time every pair.
                if cell.post_refine_timed >= REVISIT_SAMPLES {
                    self.model.absorb(idx, cell);
                    self.cells[idx] = LocalCell::default();
                    self.verdicts[idx] = self.model.verdict(idx);
                }
            }
        } else {
            cell.pairs += 1;
            cell.decided += u64::from(decided);
            if let Some(ns) = april_ns {
                cell.april_ns += ns;
                cell.april_timed += 1;
            }
            if let Some(ns) = refine_ns {
                cell.refine_ns += ns;
                cell.refine_timed += 1;
            }
        }
        self.bump();
    }
}

/// Nanoseconds elapsed since `t0`, saturating.
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SpatialObject;
    use crate::pipeline::{find_relation, find_relation_with, PairCtx};
    use crate::relate_pred::{relate_p, relate_p_with};
    use stj_de9im::RelateScratch;
    use stj_geom::{Polygon, Rect};
    use stj_obs::Disabled;
    use stj_raster::Grid;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialObject {
        SpatialObject::build(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    /// A timed gate on cell `idx`, for feeding synthetic costs.
    fn gate(idx: usize, skip: bool) -> Gate {
        Gate {
            idx,
            skip,
            timed: true,
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [AdaptiveMode::Off, AdaptiveMode::On, AdaptiveMode::ForceSkip] {
            assert_eq!(AdaptiveMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(AdaptiveMode::parse("sometimes"), None);
        assert!(!AdaptiveMode::Off.enabled());
        assert!(AdaptiveMode::ForceSkip.enabled());
    }

    #[test]
    fn force_skip_matches_static_pipeline_answers() {
        let model = AdaptiveModel::new(AdaptiveMode::ForceSkip);
        let mut worker = AdaptiveWorker::new(&model);
        let mut scratch = RelateScratch::default();
        let objects = [
            obj(0.0, 0.0, 50.0, 50.0),
            obj(10.0, 10.0, 30.0, 30.0),
            obj(0.0, 0.0, 50.0, 50.0),
            obj(50.0, 0.0, 90.0, 50.0),
            obj(60.0, 60.0, 90.0, 90.0),
            obj(25.0, 25.0, 75.0, 75.0),
        ];
        for r in &objects {
            for s in &objects {
                let adaptive = find_relation_with(
                    r.view(),
                    s.view(),
                    &mut PairCtx {
                        scratch: &mut scratch,
                        prof: &mut Disabled,
                        adaptive: Some(&mut worker),
                    },
                );
                let st = find_relation(r.view(), s.view());
                assert_eq!(adaptive.relation, st.relation);
                for p in [
                    TopoRelation::Equals,
                    TopoRelation::Inside,
                    TopoRelation::Contains,
                    TopoRelation::Intersects,
                    TopoRelation::Meets,
                ] {
                    let ad = relate_p_with(
                        r.view(),
                        s.view(),
                        p,
                        &mut PairCtx {
                            scratch: &mut scratch,
                            prof: &mut Disabled,
                            adaptive: Some(&mut worker),
                        },
                    );
                    assert_eq!(ad.holds, relate_p(r.view(), s.view(), p).holds, "{p:?}");
                }
            }
        }
        worker.flush();
        let report = model.report();
        assert!(report.skipped_pairs() > 0, "force-skip must skip");
        assert!(report.classes.iter().all(|c| c.verdict == "skip"));
    }

    #[test]
    fn warmup_settles_a_verdict_and_reports_it() {
        // Tiny warm-up; a meets-heavy stream where APRIL never decides
        // (shared-edge rectangles) must settle on skip.
        let model = AdaptiveModel::with_warmup(AdaptiveMode::On, 8);
        let mut worker = AdaptiveWorker::new(&model);
        let mut scratch = RelateScratch::default();
        let a = obj(0.0, 0.0, 50.0, 50.0);
        let b = obj(50.0, 0.0, 90.0, 50.0);
        // 8 warming pairs settle the verdict; the last 4 skip. Stays
        // below REVISIT_SAMPLES post-skip samples so the audit (tested
        // separately with synthetic costs) cannot engage — with real
        // timings on tiny objects its flip direction is noise.
        for _ in 0..12 {
            let out = find_relation_with(
                a.view(),
                b.view(),
                &mut PairCtx {
                    scratch: &mut scratch,
                    prof: &mut Disabled,
                    adaptive: Some(&mut worker),
                },
            );
            assert_eq!(out.relation, TopoRelation::Meets);
            worker.flush();
        }
        let report = model.report();
        let cell = report
            .classes
            .iter()
            .find(|c| c.predicate.is_none())
            .expect("find-relation cell saw traffic");
        assert_eq!(cell.verdict, "skip", "0% decisive APRIL must be skipped");
        assert!(cell.skipped_pairs > 0);
        assert_eq!(cell.april_decided, 0);
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"mode\": \"on\""), "{rendered}");
        assert!(rendered.contains("\"verdict\": \"skip\""), "{rendered}");
    }

    #[test]
    fn post_skip_audit_flips_an_uneconomic_skip_to_keep() {
        // Warm-up counters fed directly so the costs are exact: APRIL
        // never decides and looks expensive next to the (filter-
        // narrowed) refine samples, so the cell settles on skip...
        let model = AdaptiveModel::with_warmup(AdaptiveMode::On, 8);
        let mut worker = AdaptiveWorker::new(&model);
        let idx = cell_index(MbrRelation::Equal as usize, mode_index(None));
        for _ in 0..8 {
            worker.record(gate(idx, false), false, Some(500), Some(100));
        }
        worker.flush();
        assert_eq!(model.verdict(idx), Verdict::Skip);
        assert_eq!(worker.verdicts[idx], Verdict::Skip);
        // ...but realized post-skip refinement is far more expensive
        // than the full pipeline was (5000 vs 500 + 100 per pair): the
        // audit must flip the verdict back to keep as soon as the
        // worker folds in REVISIT_SAMPLES realized samples, without
        // waiting for a merge period.
        for _ in 0..REVISIT_SAMPLES {
            worker.record(gate(idx, true), false, None, Some(5_000));
        }
        assert_eq!(model.verdict(idx), Verdict::Keep);
        assert_eq!(worker.verdicts[idx], Verdict::Keep, "eager refresh");
        // The flip is one-way: further cheap evidence cannot re-skip.
        for _ in 0..REVISIT_SAMPLES {
            worker.record(gate(idx, true), false, None, Some(1));
        }
        assert_eq!(model.verdict(idx), Verdict::Keep);
    }

    #[test]
    fn post_skip_audit_leaves_an_earning_skip_alone() {
        // Realized refinement matches the warm-up estimate, so the skip
        // keeps saving the APRIL cost every pair and must stand.
        let model = AdaptiveModel::with_warmup(AdaptiveMode::On, 8);
        let mut worker = AdaptiveWorker::new(&model);
        let idx = cell_index(MbrRelation::Overlap as usize, mode_index(None));
        for _ in 0..8 {
            worker.record(gate(idx, false), false, Some(500), Some(100));
        }
        worker.flush();
        assert_eq!(model.verdict(idx), Verdict::Skip);
        for _ in 0..4 * REVISIT_SAMPLES {
            worker.record(gate(idx, true), false, None, Some(100));
        }
        worker.flush();
        assert_eq!(model.verdict(idx), Verdict::Skip);
    }

    #[test]
    fn decisive_stream_settles_on_keep() {
        // Deep containment: APRIL decides every pair; the verdict must
        // be keep no matter the relative costs.
        let model = AdaptiveModel::with_warmup(AdaptiveMode::On, 8);
        let mut worker = AdaptiveWorker::new(&model);
        let mut scratch = RelateScratch::default();
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        for _ in 0..64 {
            let out = find_relation_with(
                inner.view(),
                outer.view(),
                &mut PairCtx {
                    scratch: &mut scratch,
                    prof: &mut Disabled,
                    adaptive: Some(&mut worker),
                },
            );
            assert_eq!(out.relation, TopoRelation::Inside);
            worker.flush();
        }
        let report = model.report();
        let cell = &report.classes[0];
        assert_eq!(cell.verdict, "keep");
        assert_eq!(cell.skipped_pairs, 0);
        assert!((cell.decisiveness_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn probe_cap_follows_verdicts() {
        assert_eq!(
            AdaptiveModel::new(AdaptiveMode::Off).probe_interval_cap(),
            None
        );
        assert_eq!(
            AdaptiveModel::new(AdaptiveMode::ForceSkip).probe_interval_cap(),
            Some(SKIP_PROBE_INTERVALS)
        );
        let on = AdaptiveModel::new(AdaptiveMode::On);
        assert_eq!(
            on.probe_interval_cap(),
            None,
            "unwarmed model keeps full budget"
        );
    }
}
