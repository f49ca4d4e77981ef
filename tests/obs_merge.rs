//! Observability invariants of the join executor: a profiled
//! multi-threaded run merges per-worker recorders into exactly the
//! aggregate a sequential run produces — same `PipelineStats`, same
//! per-stage decision counts and histogram totals, same per-MBR-class
//! breakdown. (Latency *values* differ run to run; everything counted
//! must not.)

use stjoin::core::{JoinMethod, TopologyJoin};
use stjoin::obs::{JoinProfile, Stage};
use stjoin::prelude::*;

fn datasets() -> (DatasetArena, DatasetArena) {
    let grid = Grid::new(Rect::from_coords(-50.0, -50.0, 1100.0, 1100.0), 10);
    let a = stjoin::datagen::generate(stjoin::datagen::DatasetId::OLE, 0.05);
    let b = stjoin::datagen::generate(stjoin::datagen::DatasetId::OPE, 0.05);
    (
        DatasetArena::build("lakes", &a, &grid, DEFAULT_MAX_INTERVALS, 1),
        DatasetArena::build("parks", &b, &grid, DEFAULT_MAX_INTERVALS, 1),
    )
}

fn assert_profiles_count_equal(seq: &JoinProfile, par: &JoinProfile, ctx: &str) {
    for stage in Stage::ALL {
        assert_eq!(
            seq.stage(stage).decided,
            par.stage(stage).decided,
            "{ctx}: decided mismatch at {stage:?}"
        );
        assert_eq!(
            seq.stage(stage).latency.count(),
            par.stage(stage).latency.count(),
            "{ctx}: histogram count mismatch at {stage:?}"
        );
    }
    assert_eq!(seq.classes, par.classes, "{ctx}: MBR class breakdown");
    assert_eq!(seq.pairs_decided(), par.pairs_decided(), "{ctx}");
}

#[test]
fn profiled_parallel_join_merges_exactly() {
    let (l, r) = datasets();
    let seq = TopologyJoin::new().profiled(true).threads(1).run(&l, &r);
    let seq_profile = seq.profile.expect("sequential profile");
    assert!(seq.candidates > 0, "scenario must produce candidates");

    for threads in [2, 3, 8] {
        let par = TopologyJoin::new()
            .profiled(true)
            .threads(threads)
            .run(&l, &r);
        assert_eq!(seq.stats, par.stats, "{threads} threads");
        assert_eq!(seq.links.len(), par.links.len(), "{threads} threads");
        let par_profile = par.profile.expect("parallel profile");
        assert_profiles_count_equal(&seq_profile, &par_profile, &format!("{threads} threads"));
    }
}

#[test]
fn profile_totals_are_consistent_with_stats() {
    let (l, r) = datasets();
    let out = TopologyJoin::new().profiled(true).threads(4).run(&l, &r);
    let profile = out.profile.expect("profile");

    // Stage decision counts are exactly the PipelineStats tallies.
    assert_eq!(profile.stage(Stage::MbrClassify).decided, out.stats.by_mbr);
    assert_eq!(
        profile.stage(Stage::IntermediateFilter).decided,
        out.stats.by_intermediate
    );
    assert_eq!(profile.stage(Stage::Refinement).decided, out.stats.refined);
    assert_eq!(profile.pairs_decided(), out.stats.pairs);

    // Every candidate is MBR-classified exactly once; later stages see
    // exactly the pairs earlier stages passed through.
    assert_eq!(
        profile.stage(Stage::MbrClassify).latency.count(),
        out.candidates
    );
    assert_eq!(
        profile.stage(Stage::IntermediateFilter).latency.count(),
        out.candidates - out.stats.by_mbr
    );
    assert_eq!(
        profile.stage(Stage::Refinement).latency.count(),
        out.stats.refined
    );

    // The class breakdown partitions the candidates; refinement counts
    // match the refined tally.
    let class_pairs: u64 = profile.classes.iter().map(|c| c.pairs).sum();
    let class_refined: u64 = profile.classes.iter().map(|c| c.refined).sum();
    assert_eq!(class_pairs, out.candidates);
    assert_eq!(class_refined, out.stats.refined);
}

#[test]
fn profiled_and_unprofiled_runs_agree() {
    let (l, r) = datasets();
    for threads in [1, 4] {
        let plain = TopologyJoin::new().threads(threads).run(&l, &r);
        let profiled = TopologyJoin::new()
            .profiled(true)
            .threads(threads)
            .run(&l, &r);
        assert_eq!(plain.stats, profiled.stats);
        let mut a = plain.links.clone();
        let mut b = profiled.links.clone();
        a.sort_by_key(|lk| (lk.r, lk.s));
        b.sort_by_key(|lk| (lk.r, lk.s));
        assert_eq!(a, b);
        assert!(plain.profile.is_none());
        assert!(profiled.profile.is_some());
    }
}

#[test]
fn predicate_mode_profiles_consistently() {
    let (l, r) = datasets();
    let seq = TopologyJoin::new()
        .predicate(TopoRelation::Inside)
        .profiled(true)
        .threads(1)
        .run(&l, &r);
    let par = TopologyJoin::new()
        .predicate(TopoRelation::Inside)
        .profiled(true)
        .threads(4)
        .run(&l, &r);
    assert_eq!(seq.stats, par.stats);
    assert_profiles_count_equal(
        &seq.profile.expect("seq"),
        &par.profile.expect("par"),
        "predicate mode",
    );
}

#[test]
fn baseline_methods_profile_whole_call_latency() {
    let (l, r) = datasets();
    let out = TopologyJoin::new()
        .method(JoinMethod::St2)
        .profiled(true)
        .run(&l, &r);
    let profile = out.profile.expect("profile");
    // Baselines time the whole per-pair call attributed to the deciding
    // stage: decided == histogram count per stage, no class breakdown.
    for stage in Stage::ALL {
        assert_eq!(
            profile.stage(stage).decided,
            profile.stage(stage).latency.count(),
            "{stage:?}"
        );
    }
    assert_eq!(profile.pairs_decided(), out.stats.pairs);
    assert!(profile.classes.iter().all(|c| c.pairs == 0));
}
