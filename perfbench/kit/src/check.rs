//! Checks the program's outputs against the oracle.
//!
//! An *operation* is one candidate pair decided by a join, or one relate
//! request. An operation *fails* when the program's answer disagrees with
//! the oracle; that is counted, not fatal. A *structural* problem — a
//! malformed or duplicated triple, a link between objects whose MBRs do
//! not meet, a candidate count that differs from the MBR-overlap count —
//! makes the run incorrect.

use crate::json::{self, Json};
use crate::oracle::Rel;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which kind of join produced the N-Triples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Default find-relation join: one link per non-disjoint pair, with
    /// the most specific relation's property.
    Relation,
    /// `--predicate intersects`: one `sfOverlaps` link per non-disjoint
    /// pair.
    Intersects,
}

const GEO: &str = "http://www.opengis.net/ont/geosparql#";

/// The property the program should write for a pair, if any.
pub fn expected_property(rel: Rel, mode: Mode) -> Option<&'static str> {
    match mode {
        Mode::Relation => rel.geosparql(),
        Mode::Intersects => (rel != Rel::Disjoint).then_some("sfOverlaps"),
    }
}

#[derive(Debug, Default)]
pub struct NtReport {
    /// Candidate pairs the join decided.
    pub attempted: u64,
    /// Candidate pairs whose link (or missing link) disagrees with the oracle.
    pub failed: u64,
    /// Of those, pairs outside the fixed part.
    pub failed_seeded: u64,
    pub links: u64,
    /// Structural problems (empty when the output is well formed).
    pub problems: Vec<String>,
    /// `"expected -> got"` counts of the failures.
    pub mismatches: BTreeMap<String, u64>,
}

/// Parses `<urn:stj:NAME:ID>`.
fn parse_iri(tok: &str, name: &str) -> Option<u32> {
    let inner = tok.strip_prefix('<')?.strip_suffix('>')?;
    let rest = inner
        .strip_prefix("urn:stj:")?
        .strip_prefix(name)?
        .strip_prefix(':')?;
    if rest.is_empty()
        || !rest.bytes().all(|b| b.is_ascii_digit())
        || (rest.len() > 1 && rest.starts_with('0'))
    {
        return None;
    }
    rest.parse().ok()
}

/// Checks one N-Triples output. `expected` maps every candidate pair
/// (left id, right id) to its oracle relation; `fixed_from` gives the
/// first left and right ids of the fixed part.
pub fn check_ntriples(
    text: &str,
    expected: &HashMap<(u32, u32), Rel>,
    (left, right): (&str, &str),
    mode: Mode,
    fixed_from: (u32, u32),
) -> NtReport {
    let mut rep = NtReport {
        attempted: expected.len() as u64,
        ..NtReport::default()
    };
    let mut got: HashMap<(u32, u32), String> = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        let toks: Vec<&str> = line.split(' ').collect();
        let parsed = match toks.as_slice() {
            [s, p, o, "."] => parse_iri(s, left).zip(parse_iri(o, right)).zip(
                p.strip_prefix('<')
                    .and_then(|p| p.strip_suffix('>'))
                    .and_then(|p| p.strip_prefix(GEO))
                    .filter(|p| {
                        p.starts_with("sf")
                            && p.len() > 2
                            && p.bytes().all(|b| b.is_ascii_alphabetic())
                    }),
            ),
            _ => None,
        };
        let Some(((i, j), prop)) = parsed else {
            rep.problems
                .push(format!("line {}: malformed triple {line:?}", n + 1));
            continue;
        };
        rep.links += 1;
        if !expected.contains_key(&(i, j)) {
            rep.problems.push(format!(
                "line {}: link ({i}, {j}) between objects whose MBRs do not meet",
                n + 1
            ));
            continue;
        }
        if got.insert((i, j), prop.to_string()).is_some() {
            rep.problems
                .push(format!("line {}: duplicate link ({i}, {j})", n + 1));
        }
    }
    for (&(i, j), &rel) in expected {
        let want = expected_property(rel, mode);
        let have = got.get(&(i, j)).map(String::as_str);
        if want != have {
            rep.failed += 1;
            if i < fixed_from.0 && j < fixed_from.1 {
                rep.failed_seeded += 1;
            }
            *rep.mismatches
                .entry(format!(
                    "{} -> {}",
                    want.unwrap_or("none"),
                    have.unwrap_or("none")
                ))
                .or_insert(0) += 1;
        }
    }
    rep
}

/// The verdict on one relate reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The request failed (status, truncation, limit, or wrong matches).
    Failed(String),
    /// The reply breaks a structural property.
    Broken(String),
}

/// Checks one `/v1/relate` reply against the probe's MBR-overlap count
/// and its oracle matches (`(stored id, relation)` of every non-disjoint
/// candidate).
pub fn check_relate(status: u16, body: &[u8], candidates: u64, expected: &[(u32, Rel)]) -> Verdict {
    if status != 200 {
        return Verdict::Failed(format!("status {status}"));
    }
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(e) => return Verdict::Broken(format!("unparsable reply: {e}")),
    };
    for flag in ["truncated", "limit_hit"] {
        match doc.get(flag) {
            Some(Json::Bool(false)) => {}
            Some(Json::Bool(true)) => return Verdict::Failed(format!("{flag} set")),
            _ => return Verdict::Broken(format!("reply lacks {flag}")),
        }
    }
    match doc.get("candidates").and_then(Json::as_f64) {
        Some(c) if c == candidates as f64 => {}
        other => {
            return Verdict::Broken(format!("candidates {other:?}, MBR overlaps {candidates}"))
        }
    }
    let Some(Json::Arr(matches)) = doc.get("matches") else {
        return Verdict::Broken("reply lacks matches".into());
    };
    let mut got: HashSet<(u32, Rel)> = HashSet::new();
    for m in matches {
        let id = m.get("id").and_then(Json::as_f64);
        let rel = m
            .get("relation")
            .and_then(Json::as_str)
            .and_then(Rel::parse);
        match (id, rel) {
            (Some(id), Some(rel)) if id >= 0.0 && id.fract() == 0.0 => {
                if !got.insert((id as u32, rel)) {
                    return Verdict::Broken(format!("duplicate match {id}"));
                }
            }
            _ => return Verdict::Broken(format!("bad match {}", m.render())),
        }
    }
    let want: HashSet<(u32, Rel)> = expected.iter().copied().collect();
    if got == want {
        Verdict::Ok
    } else {
        let mut diff: Vec<String> = want
            .symmetric_difference(&got)
            .map(|(id, rel)| {
                format!(
                    "{}{id}:{}",
                    if want.contains(&(*id, *rel)) {
                        "-"
                    } else {
                        "+"
                    },
                    rel.name()
                )
            })
            .collect();
        diff.sort();
        Verdict::Failed(diff.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(i: u32, prop: &str, j: u32) -> String {
        format!("<urn:stj:parks:{i}> <{GEO}{prop}> <urn:stj:buildings:{j}> .\n")
    }

    fn expected() -> HashMap<(u32, u32), Rel> {
        HashMap::from([
            ((0, 0), Rel::Contains),
            ((0, 1), Rel::Meets),
            ((1, 2), Rel::Intersects),
            ((1, 3), Rel::Disjoint),
            ((2, 4), Rel::Covers),
        ])
    }

    fn good() -> String {
        triple(0, "sfContains", 0)
            + &triple(0, "sfTouches", 1)
            + &triple(1, "sfOverlaps", 2)
            + &triple(2, "sfContains", 4)
    }

    #[test]
    fn exact_output_passes() {
        let r = check_ntriples(
            &good(),
            &expected(),
            ("parks", "buildings"),
            Mode::Relation,
            (100, 100),
        );
        assert_eq!((r.attempted, r.failed, r.links), (5, 0, 4));
        assert!(r.problems.is_empty());
    }

    #[test]
    fn changed_dropped_and_added_links_are_three_failures() {
        // Relation changed on (0, 1), (1, 2) dropped, (1, 3) added.
        let text = triple(0, "sfContains", 0)
            + &triple(0, "sfOverlaps", 1)
            + &triple(1, "sfOverlaps", 3)
            + &triple(2, "sfContains", 4);
        let r = check_ntriples(
            &text,
            &expected(),
            ("parks", "buildings"),
            Mode::Relation,
            (100, 100),
        );
        assert_eq!(r.failed, 3, "{:?}", r.mismatches);
        assert_eq!(r.failed_seeded, 3);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        let r = check_ntriples(
            &text,
            &expected(),
            ("parks", "buildings"),
            Mode::Relation,
            (1, 100),
        );
        assert_eq!(r.failed_seeded, 1);
    }

    #[test]
    fn predicate_mode_expects_overlaps_for_every_non_disjoint_pair() {
        let text = triple(0, "sfOverlaps", 0)
            + &triple(0, "sfOverlaps", 1)
            + &triple(1, "sfOverlaps", 2)
            + &triple(2, "sfOverlaps", 4);
        let r = check_ntriples(
            &text,
            &expected(),
            ("parks", "buildings"),
            Mode::Intersects,
            (100, 100),
        );
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn structural_problems_are_reported() {
        let text = good()
            + &triple(0, "sfTouches", 1)
            + &triple(5, "sfOverlaps", 5)
            + "garbage\n"
            + &triple(0, "sfWithin", 0).replace("buildings", "lakes");
        let r = check_ntriples(
            &text,
            &expected(),
            ("parks", "buildings"),
            Mode::Relation,
            (100, 100),
        );
        assert_eq!(r.problems.len(), 4, "{:?}", r.problems);
        assert!(r.problems[0].contains("duplicate"));
        assert!(r.problems[1].contains("MBRs do not meet"));
    }

    #[test]
    fn relate_replies() {
        let body = br#"{"dataset":"parks","candidates":3,"matches":[{"id":4,"relation":"inside","determination":"intermediate"},{"id":9,"relation":"meets","determination":"refinement"}],"truncated":false,"limit_hit":false}"#;
        let want = [(4, Rel::Inside), (9, Rel::Meets)];
        assert_eq!(check_relate(200, body, 3, &want), Verdict::Ok);
        // A wrong match fails the request.
        let wrong = [(4, Rel::Inside), (9, Rel::Intersects)];
        assert!(matches!(
            check_relate(200, body, 3, &wrong),
            Verdict::Failed(_)
        ));
        // A missing match too.
        assert!(matches!(
            check_relate(200, body, 3, &want[..1]),
            Verdict::Failed(_)
        ));
        assert!(matches!(
            check_relate(503, b"", 3, &want),
            Verdict::Failed(_)
        ));
        let truncated =
            String::from_utf8_lossy(body).replace("\"truncated\":false", "\"truncated\":true");
        assert!(matches!(
            check_relate(200, truncated.as_bytes(), 3, &want),
            Verdict::Failed(_)
        ));
        // A candidate count other than the MBR-overlap count is structural.
        assert!(matches!(
            check_relate(200, body, 2, &want),
            Verdict::Broken(_)
        ));
    }
}
