//! `stj-check`: the differential & metamorphic correctness harness.
//!
//! The pipeline's value proposition is deciding topological relations
//! *without* computing DE-9IM, so any silent disagreement with the ST2
//! oracle is a correctness bug. This crate systematically hunts for such
//! disagreements: a seeded adversarial pair corpus
//! ([`stj_datagen::adversarial`]) is pushed through every join method and
//! four invariants are enforced on each pair:
//!
//! - **(a) method agreement** — P+C, ST2, OP2 and APRIL all report the
//!   DE-9IM oracle's most specific relation;
//! - **(b) converse symmetry** — `find_relation(r, s)` is the converse
//!   of `find_relation(s, r)`;
//! - **(c) MBR-class admissibility** — the result is always in
//!   `MbrRelation::candidates()` for the pair's class;
//! - **(d) APRIL soundness** — `P ⊆ C` per object, no intermediate
//!   filter verdict contradicts refinement, and every `relate_p`
//!   predicate answer matches the DE-9IM semantics of the predicate.
//!
//! On failure the offending pair is shrunk to a (locally) minimal
//! counterexample and reported with WKT geometry so the repro can be
//! replayed (`stj relate` accepts the same WKT). Runs are deterministic
//! in the seed and independent of the thread count.

mod invariants;
mod report;
mod runner;
mod shrink;

pub use invariants::{check_pair, InvariantKind, PairVerdict};
pub use report::write_repro;
pub use runner::{reference_join, run_check, CheckConfig, CheckReport, Violation};
pub use shrink::shrink_pair;
