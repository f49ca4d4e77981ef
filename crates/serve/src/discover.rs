//! Bulk link discovery: a WKT probe set joined against a resident
//! dataset, produced in bounded-memory chunks.
//!
//! This is the serving-side form of the paper's headline workload —
//! interlinking an entire geometry set with a dataset — exposed two
//! ways that share one core:
//!
//! - `POST /v1/discover` streams results as NDJSON (or GeoSPARQL
//!   N-Triples with `format=nt`) over HTTP. The response has no
//!   `content-length`; the reactor writes one rendered chunk, waits for
//!   the socket to drain (write-readiness backpressure), and only then
//!   asks a worker for the next chunk — so server memory per job stays
//!   bounded at roughly one chunk no matter how slow the client reads.
//! - `stj discover` runs the same probe loop stdin→stdout against a
//!   local STJD file, matching `spatialjoin`'s pipe contract.
//!
//! Each probe runs the exact relate pipeline (tile-index candidates,
//! then MBR → APRIL → DE-9IM per candidate), so `format=nt` output is
//! byte-identical, after sorting, to offline `stj join` N-Triples over
//! the same preprocessed inputs.

use crate::{Generation, LoadedDataset, ServeCtx};
use std::fmt::Write as _;
use std::sync::Arc;
use stj_core::{
    find_relation_with, linking::geosparql_property, AdaptiveWorker, PairCtx, RelateScratch,
    DEFAULT_MAX_INTERVALS,
};
use stj_de9im::TopoRelation;
use stj_geom::Polygon;
use stj_obs::Disabled;

/// Target rendered size of one stream chunk. Chunks end on probe
/// boundaries, so a single probe with many links can overshoot — the
/// bound is per-probe output plus this, not a hard cap.
const CHUNK_TARGET_BYTES: usize = 32 * 1024;

/// Output serialization for a discover job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscoverFormat {
    /// One `{"probe":..,"id":..,"relation":".."}` object per link,
    /// then a final `{"summary":{..}}` line.
    Ndjson,
    /// GeoSPARQL N-Triples, one most-specific property per link (no
    /// summary line — the output loads directly into an RDF store).
    NTriples,
}

impl DiscoverFormat {
    /// Parses the `format` query/CLI parameter.
    pub fn parse(s: &str) -> Option<DiscoverFormat> {
        match s {
            "ndjson" => Some(DiscoverFormat::Ndjson),
            "nt" | "ntriples" => Some(DiscoverFormat::NTriples),
            _ => None,
        }
    }

    /// The response content type.
    pub fn content_type(self) -> &'static str {
        match self {
            DiscoverFormat::Ndjson => "application/x-ndjson",
            DiscoverFormat::NTriples => "application/n-triples",
        }
    }
}

/// Runs one probe polygon against a dataset and appends its output
/// lines to `out`. Returns `(candidates, links)` for this probe.
///
/// This is the shared core of the streaming endpoint and the CLI mode:
/// both produce output through this function, which is what makes the
/// online/offline equality contract testable.
pub fn discover_probe(
    ds: &LoadedDataset,
    probe_idx: u64,
    polygon: Polygon,
    probe_name: &str,
    format: DiscoverFormat,
    ctx: &mut PairCtx<'_, '_, Disabled>,
    out: &mut String,
) -> (u64, u64) {
    let (candidates, probe) = ds.probe(&polygon, DEFAULT_MAX_INTERVALS);
    let Some(probe) = probe else {
        return (0, 0); // no candidates
    };
    let mut links = 0u64;
    for &id in &candidates {
        let o = find_relation_with(probe.object(0), ds.arena.object(id as usize), ctx);
        if o.relation == TopoRelation::Disjoint {
            continue;
        }
        links += 1;
        match format {
            DiscoverFormat::Ndjson => {
                let _ = writeln!(
                    out,
                    "{{\"probe\":{probe_idx},\"id\":{id},\"relation\":\"{}\"}}",
                    o.relation
                );
            }
            DiscoverFormat::NTriples => {
                // Matches `stj join --ntriples` naming exactly:
                // urn:stj:<dataset-name>:<index>, most specific
                // property only.
                let _ = writeln!(
                    out,
                    "<urn:stj:{probe_name}:{probe_idx}> <{}> <urn:stj:{}:{id}> .",
                    geosparql_property(o.relation),
                    ds.name
                );
            }
        }
    }
    (candidates.len() as u64, links)
}

/// A discover job in flight: the parsed probe set plus a cursor. The
/// job pins the generation it started on — a concurrent hot-swap never
/// mixes generations inside one stream.
pub struct DiscoverStream {
    generation: Arc<Generation>,
    ds_idx: usize,
    probes: Vec<Polygon>,
    next: usize,
    format: DiscoverFormat,
    probe_name: String,
    candidates: u64,
    links: u64,
    finished: bool,
}

impl DiscoverStream {
    /// A job over `probes` against dataset `ds_idx` of `generation`.
    pub fn new(
        generation: Arc<Generation>,
        ds_idx: usize,
        probes: Vec<Polygon>,
        format: DiscoverFormat,
        probe_name: String,
    ) -> DiscoverStream {
        DiscoverStream {
            generation,
            ds_idx,
            probes,
            next: 0,
            format,
            probe_name,
            candidates: 0,
            links: 0,
            finished: false,
        }
    }

    /// The job's output content type.
    pub fn content_type(&self) -> &'static str {
        self.format.content_type()
    }

    /// Whether the job has produced its final chunk.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Renders the next chunk, or `None` once the job is done. A chunk
    /// covers whole probes up to roughly `CHUNK_TARGET_BYTES` (32 KiB); the
    /// final chunk carries the NDJSON summary line.
    ///
    /// Deliberately not deadline-bounded: a bulk job runs as long as it
    /// runs, the per-chunk granularity keeps workers responsive, and a
    /// vanished client tears the job down via the reactor.
    pub fn next_chunk(&mut self, ctx: &ServeCtx, scratch: &mut RelateScratch) -> Option<Vec<u8>> {
        if self.finished {
            return None;
        }
        let ds = &self.generation.datasets[self.ds_idx];
        // A fresh per-chunk view of the resident adaptive model: chunk
        // pairs feed the shared warm-up, settled verdicts apply.
        let mut adaptive = ctx
            .config
            .adaptive
            .enabled()
            .then(|| AdaptiveWorker::new(&ctx.adaptive));
        let mut pair_ctx = PairCtx {
            scratch,
            prof: &mut Disabled,
            adaptive: adaptive.as_mut(),
        };
        let mut out = String::with_capacity(CHUNK_TARGET_BYTES + 1024);
        while self.next < self.probes.len() && out.len() < CHUNK_TARGET_BYTES {
            let polygon = self.probes[self.next].clone();
            let (cand, links) = discover_probe(
                ds,
                self.next as u64,
                polygon,
                &self.probe_name,
                self.format,
                &mut pair_ctx,
                &mut out,
            );
            self.candidates += cand;
            self.links += links;
            self.next += 1;
        }
        if let Some(w) = &mut adaptive {
            w.flush();
        }
        if self.next >= self.probes.len() {
            self.finished = true;
            if self.format == DiscoverFormat::Ndjson {
                let _ = writeln!(
                    out,
                    "{{\"summary\":{{\"probes\":{},\"candidates\":{},\"links\":{}}}}}",
                    self.probes.len(),
                    self.candidates,
                    self.links,
                );
            }
        }
        Some(out.into_bytes())
    }

    /// Drives the whole job into one buffer (non-reactor fallbacks and
    /// `dispatch` callers; memory is unbounded here, which is exactly
    /// what the reactor path avoids).
    pub fn drain_to_vec(&mut self, ctx: &ServeCtx, scratch: &mut RelateScratch) -> Vec<u8> {
        let mut all = Vec::new();
        while let Some(chunk) = self.next_chunk(ctx, scratch) {
            all.extend_from_slice(&chunk);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, ServeCtx};
    use stj_geom::Rect;
    use stj_index::Tiling;
    use stj_raster::Grid;

    fn test_ctx() -> ServeCtx {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8);
        let polys = vec![
            Polygon::rect(Rect::from_coords(10.0, 10.0, 40.0, 40.0)),
            Polygon::rect(Rect::from_coords(20.0, 20.0, 30.0, 30.0)),
            Polygon::rect(Rect::from_coords(60.0, 60.0, 90.0, 90.0)),
        ];
        let arena = stj_core::DatasetArena::build(
            "boxes",
            &polys,
            &grid,
            stj_core::DEFAULT_MAX_INTERVALS,
            1,
        );
        let tiling = Tiling::for_probes(arena.mbrs());
        let loaded = LoadedDataset {
            name: "boxes".to_string(),
            arena,
            grid,
            tiling,
        };
        ServeCtx::new(ServeConfig::default(), vec![loaded])
    }

    fn probes() -> Vec<Polygon> {
        vec![
            // Inside boxes 0 and containing nothing.
            Polygon::rect(Rect::from_coords(22.0, 22.0, 28.0, 28.0)),
            // Far away from everything.
            Polygon::rect(Rect::from_coords(0.0, 90.0, 5.0, 95.0)),
        ]
    }

    #[test]
    fn ndjson_stream_ends_with_summary() {
        let ctx = test_ctx();
        let mut stream = DiscoverStream::new(
            ctx.generation(),
            0,
            probes(),
            DiscoverFormat::Ndjson,
            "probes".to_string(),
        );
        let mut scratch = RelateScratch::default();
        let body = stream.drain_to_vec(&ctx, &mut scratch);
        let text = std::str::from_utf8(&body).unwrap();
        let last = text.lines().last().expect("summary line");
        assert!(last.starts_with("{\"summary\":{\"probes\":2,"), "{text}");
        assert!(text.contains("\"relation\":\"inside\""), "{text}");
        // Exhausted streams yield no more chunks.
        assert!(stream.next_chunk(&ctx, &mut scratch).is_none());
    }

    #[test]
    fn ntriples_match_manual_relate() {
        let ctx = test_ctx();
        let mut stream = DiscoverStream::new(
            ctx.generation(),
            0,
            probes(),
            DiscoverFormat::NTriples,
            "probes".to_string(),
        );
        let mut scratch = RelateScratch::default();
        let body = stream.drain_to_vec(&ctx, &mut scratch);
        let text = std::str::from_utf8(&body).unwrap();
        for line in text.lines() {
            assert!(line.starts_with("<urn:stj:probes:"), "{line}");
            assert!(line.ends_with(" ."), "{line}");
            assert!(line.contains("geosparql#sf"), "{line}");
        }
        // Probe 0 is inside box 0 and box 1's square: sfWithin links.
        assert!(text.contains("<urn:stj:probes:0> <http://www.opengis.net/ont/geosparql#sfWithin> <urn:stj:boxes:0> ."), "{text}");
        // Probe 1 is disjoint from everything: no lines for it.
        assert!(!text.contains("probes:1"), "{text}");
    }

    #[test]
    fn chunking_covers_all_probes_exactly_once() {
        let ctx = test_ctx();
        // Many probes, so multiple chunks are produced.
        let many: Vec<Polygon> = (0..500)
            .map(|i| {
                let o = (i % 50) as f64;
                Polygon::rect(Rect::from_coords(o, o, o + 30.0, o + 30.0))
            })
            .collect();
        let n = many.len();
        let mut stream = DiscoverStream::new(
            ctx.generation(),
            0,
            many,
            DiscoverFormat::Ndjson,
            "probes".to_string(),
        );
        let mut scratch = RelateScratch::default();
        let mut chunks = 0;
        let mut all = String::new();
        while let Some(c) = stream.next_chunk(&ctx, &mut scratch) {
            chunks += 1;
            all.push_str(std::str::from_utf8(&c).unwrap());
        }
        assert!(chunks > 1, "500 probes must span multiple chunks");
        let summary = all.lines().last().unwrap();
        assert!(summary.contains(&format!("\"probes\":{n}")), "{summary}");
    }
}
