//! Request dispatch: the endpoint handlers shared by the HTTP and
//! binary-framing transports.
//!
//! Every handler is a pure function of `(ServeCtx, request)` →
//! [`Reply`]; transports only differ in how bytes get on and off the
//! wire. Most endpoints produce a buffered [`Response`]; `/v1/discover`
//! produces a [`Reply::Stream`] when the transport can stream (the
//! reactor's HTTP path), and is drained into a buffered response
//! everywhere else. Errors are structured JSON
//! (`{"error": {"code", "kind", "message"}}`) so clients can branch on
//! `kind` without parsing prose.
//!
//! Each dispatch pins the live dataset [`crate::Generation`] exactly
//! once and resolves everything through it, so a concurrent hot-swap
//! (`POST /v1/admin/reload`, SIGHUP) never mixes generations within one
//! response.

use crate::discover::{DiscoverFormat, DiscoverStream};
use crate::http::percent_decode;
use crate::{Endpoint, Generation, ProbeKey, ServeCtx};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stj_core::{
    find_relation_with, AdaptiveWorker, Determination, JoinBounds, JoinMethod, PairCtx,
    RelateScratch, TopologyJoin, DEFAULT_MAX_INTERVALS,
};
use stj_de9im::TopoRelation;
use stj_obs::Json;
use stj_store::read_wkt_polygons;

/// Default and maximum `limit` for `/v1/relate` matches.
pub const DEFAULT_RELATE_LIMIT: u64 = 1000;
const MAX_RELATE_LIMIT: u64 = 1_000_000;

/// A transport-independent response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code (embedded in the frame for framed clients).
    pub status: u16,
    /// MIME type.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the connection should close after this response
    /// (streaming joins close; everything else keeps alive).
    pub close: bool,
    /// Whether the response was truncated by a deadline or cap (for the
    /// truncation counter).
    pub truncated: bool,
}

impl Response {
    fn json(status: u16, doc: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: doc.render().into_bytes(),
            close: false,
            truncated: false,
        }
    }

    /// A structured JSON error.
    pub fn error(status: u16, kind: &str, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::object([(
                "error",
                Json::object([
                    ("code", Json::U64(status as u64)),
                    ("kind", Json::str(kind)),
                    ("message", Json::str(message.into())),
                ]),
            )]),
        )
    }
}

/// What a handler produced: a buffered response, or a streaming job the
/// transport pulls chunks from (only `/v1/discover` streams today, and
/// only over the reactor's HTTP path — chunked pull with
/// write-readiness backpressure is what keeps its memory bounded).
pub enum Reply {
    /// A fully rendered response.
    Full(Response),
    /// A chunk-at-a-time body; the head is `200` with the stream's
    /// content type, no `content-length`, and `connection: close`.
    Stream(DiscoverStream),
}

impl Reply {
    /// Collapses a stream into a buffered response (non-streaming
    /// transports and the plain [`dispatch`] entry point).
    pub fn into_response(self, ctx: &ServeCtx, scratch: &mut RelateScratch) -> Response {
        match self {
            Reply::Full(r) => r,
            Reply::Stream(mut s) => {
                let content_type = s.content_type();
                Response {
                    status: 200,
                    content_type,
                    body: s.drain_to_vec(ctx, scratch),
                    close: true,
                    truncated: false,
                }
            }
        }
    }
}

/// Which endpoint family a path belongs to (for per-endpoint latency).
pub fn endpoint_of(path: &str) -> Endpoint {
    match path {
        "/v1/relate" => Endpoint::Relate,
        "/v1/pair" => Endpoint::Pair,
        "/v1/join" => Endpoint::Join,
        "/v1/discover" => Endpoint::Discover,
        "/v1/admin/reload" => Endpoint::Admin,
        "/stats" | "/metrics" => Endpoint::Stats,
        _ => Endpoint::Other,
    }
}

/// Dispatches one request to its handler with one-shot scratch memory.
/// The pool's workers use [`dispatch_with`] with their per-worker
/// scratch instead.
pub fn dispatch(
    ctx: &ServeCtx,
    method: &str,
    path: &str,
    query: &[(String, String)],
    body: &[u8],
) -> Response {
    dispatch_with(
        ctx,
        method,
        path,
        query,
        body,
        &mut RelateScratch::default(),
    )
}

/// Dispatches one request to its handler, threading the caller's relate
/// scratch into the geometry-touching endpoints. Streams are drained
/// into a buffered response.
pub fn dispatch_with(
    ctx: &ServeCtx,
    method: &str,
    path: &str,
    query: &[(String, String)],
    body: &[u8],
    scratch: &mut RelateScratch,
) -> Response {
    dispatch_reply(ctx, method, path, query, body, scratch).into_response(ctx, scratch)
}

/// The full dispatcher. `/v1/discover` returns [`Reply::Stream`];
/// transports that can stream drive it chunk by chunk, everything else
/// collapses it with [`Reply::into_response`].
pub fn dispatch_reply(
    ctx: &ServeCtx,
    method: &str,
    path: &str,
    query: &[(String, String)],
    body: &[u8],
    scratch: &mut RelateScratch,
) -> Reply {
    // Pin the generation once; everything below resolves through it.
    let gen = ctx.generation();
    let full = |r: Response| Reply::Full(r);
    match (method, path) {
        ("GET", "/healthz") => full(Response::json(
            200,
            &Json::object([("ok", Json::Bool(true))]),
        )),
        ("GET", "/stats") => full(handle_stats(ctx, &gen)),
        ("GET", "/metrics") => full(handle_metrics(ctx, &gen)),
        ("GET", "/v1/datasets") => full(handle_datasets(&gen)),
        ("POST", "/v1/relate") => full(handle_relate(ctx, &gen, query, body, scratch)),
        ("GET", "/v1/pair") => full(handle_pair(&gen, query, scratch)),
        ("POST", "/v1/join") => full(handle_join(ctx, &gen, query)),
        ("POST", "/v1/discover") => handle_discover(gen, query, body),
        ("POST", "/v1/admin/reload") => full(handle_reload(ctx, body)),
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/v1/datasets" | "/v1/relate" | "/v1/pair"
            | "/v1/join" | "/v1/discover" | "/v1/admin/reload",
        ) => full(Response::error(
            405,
            "method_not_allowed",
            format!("{method} not allowed here"),
        )),
        _ => full(Response::error(
            404,
            "not_found",
            format!("no such endpoint: {path}"),
        )),
    }
}

/// Parses a framed request target (`/path?query`, still
/// percent-encoded) into dispatch inputs and runs it with one-shot
/// scratch memory.
pub fn dispatch_target(ctx: &ServeCtx, method: &str, target: &str, body: &[u8]) -> Response {
    dispatch_target_with(ctx, method, target, body, &mut RelateScratch::default())
}

/// [`dispatch_target`] threading the caller's relate scratch. Framed
/// transports never stream, so discover replies are drained.
pub fn dispatch_target_with(
    ctx: &ServeCtx,
    method: &str,
    target: &str,
    body: &[u8],
    scratch: &mut RelateScratch,
) -> Response {
    match parse_target(target) {
        Ok((path, query)) => dispatch_with(ctx, method, &path, &query, body, scratch),
        Err(r) => r,
    }
}

/// Splits and percent-decodes a request target into `(path, query)`.
pub fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), Response> {
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let Some(path) = percent_decode(path_raw) else {
        return Err(Response::error(
            400,
            "bad_target",
            "bad percent-encoding in path",
        ));
    };
    let mut query = Vec::new();
    if let Some(qs) = query_raw {
        for pair in qs.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            match (percent_decode(k), percent_decode(v)) {
                (Some(k), Some(v)) => query.push((k, v)),
                _ => {
                    return Err(Response::error(
                        400,
                        "bad_target",
                        "bad percent-encoding in query",
                    ))
                }
            }
        }
    }
    Ok((path, query))
}

fn handle_stats(ctx: &ServeCtx, gen: &Generation) -> Response {
    let datasets: Vec<(String, usize, bool, &'static str)> = gen
        .datasets
        .iter()
        .map(|d| {
            (
                d.name.clone(),
                d.arena.len(),
                d.arena.is_zero_copy(),
                d.arena.backing_kind(),
            )
        })
        .collect();
    let doc = ctx.stats.render(
        ctx.started,
        gen.id,
        &datasets,
        ctx.cache.to_json(),
        ctx.config.to_json(),
        ctx.adaptive.report().to_json(),
    );
    Response::json(200, &doc)
}

/// `GET /metrics`: the same counters as `/stats`, rendered in the
/// Prometheus text exposition format for scrapers.
fn handle_metrics(ctx: &ServeCtx, gen: &Generation) -> Response {
    let s = &ctx.stats;
    let mut w = stj_obs::PromWriter::new();
    w.gauge(
        "stj_serve_uptime_seconds",
        "Seconds since the server started.",
        &[],
        ctx.started.elapsed().as_secs_f64(),
    );
    w.gauge(
        "stj_serve_generation",
        "The live dataset generation id (bumped by each reload).",
        &[],
        gen.id as f64,
    );
    w.counter(
        "stj_serve_reloads_total",
        "Dataset reloads, by outcome.",
        &[("outcome", "ok")],
        s.reloads.get(),
    );
    w.counter(
        "stj_serve_reloads_total",
        "Dataset reloads, by outcome.",
        &[("outcome", "error")],
        s.reload_errors.get(),
    );
    w.counter(
        "stj_serve_requests_total",
        "Requests fully read and dispatched, by transport.",
        &[("transport", "http")],
        s.requests_http.get(),
    );
    w.counter(
        "stj_serve_requests_total",
        "Requests fully read and dispatched, by transport.",
        &[("transport", "framed")],
        s.requests_framed.get(),
    );
    for (class, counter) in [
        ("2xx", &s.responses_ok),
        ("4xx", &s.responses_client_error),
        ("5xx", &s.responses_server_error),
    ] {
        w.counter(
            "stj_serve_responses_total",
            "Responses written, by status class.",
            &[("class", class)],
            counter.get(),
        );
    }
    w.counter(
        "stj_serve_rejected_total",
        "Requests shed with 429 because the job queue was full.",
        &[],
        s.rejected_429.get(),
    );
    w.counter(
        "stj_serve_truncated_responses_total",
        "Responses truncated by a deadline or result cap.",
        &[],
        s.truncated_responses.get(),
    );
    w.counter(
        "stj_serve_slow_requests_total",
        "Requests slower than the slow-request log threshold.",
        &[],
        s.slow_requests.get(),
    );
    for (direction, counter) in [("in", &s.bytes_in), ("out", &s.bytes_out)] {
        w.counter(
            "stj_serve_bytes_total",
            "Bytes moved on the wire, by direction.",
            &[("direction", direction)],
            counter.get(),
        );
    }
    w.counter(
        "stj_serve_connections_total",
        "Connections accepted.",
        &[],
        s.connections.get(),
    );
    w.gauge(
        "stj_serve_open_connections",
        "Connections currently open (reactor transports).",
        &[],
        s.open_connections.get() as f64,
    );
    w.gauge(
        "stj_serve_write_backlog_bytes",
        "Bytes queued for write-out across open connections.",
        &[],
        s.write_backlog_bytes.get() as f64,
    );
    for (cause, counter) in [("idle", &s.idle_timeouts), ("header", &s.header_timeouts)] {
        w.counter(
            "stj_serve_connection_timeouts_total",
            "Connections closed by a deadline, by cause.",
            &[("cause", cause)],
            counter.get(),
        );
    }
    w.gauge(
        "stj_serve_queue_depth",
        "Job-queue depth between transports and the worker pool.",
        &[],
        s.queue_depth.get() as f64,
    );
    w.gauge(
        "stj_serve_queue_depth_peak",
        "High-water mark of the job-queue depth.",
        &[],
        s.queue_depth.peak() as f64,
    );
    w.gauge(
        "stj_serve_in_flight",
        "Requests currently being processed.",
        &[],
        s.in_flight.get() as f64,
    );
    w.gauge(
        "stj_serve_in_flight_peak",
        "High-water mark of in-flight requests.",
        &[],
        s.in_flight.peak() as f64,
    );
    for (event, counter) in [
        ("hit", &ctx.cache.hits),
        ("miss", &ctx.cache.misses),
        ("insertion", &ctx.cache.insertions),
        ("eviction", &ctx.cache.evictions),
        ("invalidation", &ctx.cache.invalidations),
    ] {
        w.counter(
            "stj_serve_cache_events_total",
            "Probe-cache events, by kind.",
            &[("event", event)],
            counter.get(),
        );
    }
    for d in &gen.datasets {
        w.gauge(
            "stj_serve_dataset_objects",
            "Objects loaded, per dataset.",
            &[("dataset", &d.name)],
            d.arena.len() as f64,
        );
    }
    for ep in Endpoint::ALL {
        w.histogram(
            "stj_serve_request_latency_ns",
            "Request latency in nanoseconds, by endpoint family.",
            &[("endpoint", ep.name())],
            &s.latency(ep).snapshot(),
        );
    }
    for st in crate::ConnState::ALL {
        w.histogram(
            "stj_serve_state_latency_ns",
            "Per-request lifecycle stage latency in nanoseconds.",
            &[("state", st.name())],
            &s.state_latency(st).snapshot(),
        );
    }
    Response {
        status: 200,
        content_type: stj_obs::prom::CONTENT_TYPE,
        body: w.finish().into_bytes(),
        close: false,
        truncated: false,
    }
}

fn handle_datasets(gen: &Generation) -> Response {
    let items: Vec<Json> = gen
        .datasets
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Json::object([
                ("index", Json::U64(i as u64)),
                ("name", Json::str(d.name.clone())),
                ("objects", Json::U64(d.arena.len() as u64)),
                ("grid_order", Json::U64(u64::from(d.grid.order()))),
                ("backing", Json::str(d.arena.backing_kind())),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::object([
            ("generation", Json::U64(gen.id)),
            ("datasets", Json::Arr(items)),
        ]),
    )
}

/// The deadline for a request starting now (None when disabled).
fn request_deadline(ctx: &ServeCtx) -> Option<Instant> {
    (ctx.config.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(ctx.config.deadline_ms))
}

fn determination_label(d: Determination) -> &'static str {
    match d {
        Determination::MbrFilter => "mbr_filter",
        Determination::IntermediateFilter => "intermediate_filter",
        Determination::Refinement => "refinement",
    }
}

/// First query value for `key`, if present.
fn qp<'a>(query: &'a [(String, String)], key: &str) -> Option<&'a str> {
    query
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn handle_relate(
    ctx: &ServeCtx,
    gen: &Generation,
    query: &[(String, String)],
    body: &[u8],
    scratch: &mut RelateScratch,
) -> Response {
    let q = |key: &str| qp(query, key);
    let Some(ds_key) = q("dataset") else {
        return Response::error(
            400,
            "missing_param",
            "query parameter `dataset` is required",
        );
    };
    let Some((ds_idx, ds)) = gen.find_dataset(ds_key) else {
        return Response::error(404, "unknown_dataset", format!("no dataset {ds_key:?}"));
    };
    let limit = match q("limit") {
        None => DEFAULT_RELATE_LIMIT,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n.min(MAX_RELATE_LIMIT),
            _ => return Response::error(400, "bad_param", format!("bad limit {v:?}")),
        },
    };

    let key = ProbeKey {
        generation: gen.id,
        dataset: ds_idx as u32,
        limit,
        wkt: body.to_vec(),
    };
    if let Some(cached) = ctx.cache.get(&key) {
        return Response {
            status: 200,
            content_type: "application/json",
            body: cached,
            close: false,
            truncated: false,
        };
    }

    // Parse the probe with the store's line-oriented WKT reader so
    // errors carry 1-based line numbers ("line 1: WKT syntax error:
    // ..."), exactly like `stj preprocess` on a bad input file.
    let polygons = match read_wkt_polygons(body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, "bad_wkt", e.to_string()),
    };
    let polygon = match polygons.len() {
        1 => polygons.into_iter().next().expect("len checked"),
        0 => return Response::error(400, "bad_wkt", "request body contains no polygon"),
        n => {
            return Response::error(
                400,
                "bad_wkt",
                format!("request body contains {n} polygons, expected exactly one"),
            )
        }
    };

    // Probe the tile index, preprocess the probe once (a one-row arena
    // on the dataset's own grid), then run the full pipeline per
    // candidate. Once the resident adaptive model has settled on
    // skipping the APRIL stage, probe rasterization precision is wasted
    // too — ad-hoc probes are built with a coarse interval budget (still
    // sound: coarsening only widens the approximation).
    let deadline = request_deadline(ctx);
    let budget = ctx
        .adaptive
        .probe_interval_cap()
        .unwrap_or(DEFAULT_MAX_INTERVALS);
    let (candidates, probe) = ds.probe(&polygon, budget);
    let probe = probe.as_ref().map(|a| a.object(0));

    // Per-request view of the resident model: this request's pairs feed
    // the shared warm-up, and settled skip verdicts apply immediately.
    let mut adaptive = ctx
        .config
        .adaptive
        .enabled()
        .then(|| AdaptiveWorker::new(&ctx.adaptive));
    let mut pair_ctx = PairCtx {
        scratch,
        prof: &mut stj_obs::Disabled,
        adaptive: adaptive.as_mut(),
    };
    let mut matches = Json::Arr(Vec::new());
    let mut match_count: u64 = 0;
    let mut truncated = false;
    let mut limit_hit = false;
    for (n, &id) in candidates.iter().enumerate() {
        if n % 256 == 255 && deadline.is_some_and(|d| Instant::now() >= d) {
            truncated = true;
            break;
        }
        let probe = probe.expect("a probe with candidates is built");
        let out = find_relation_with(probe, ds.arena.object(id as usize), &mut pair_ctx);
        if out.relation == TopoRelation::Disjoint {
            continue;
        }
        if match_count >= limit {
            limit_hit = true;
            break;
        }
        match_count += 1;
        if let Json::Arr(items) = &mut matches {
            items.push(Json::object([
                ("id", Json::U64(u64::from(id))),
                ("relation", Json::str(out.relation.to_string())),
                (
                    "determination",
                    Json::str(determination_label(out.determination)),
                ),
            ]));
        }
    }

    if let Some(w) = &mut adaptive {
        // Fold this request's partial window into the resident model so
        // warm-up progresses across requests.
        w.flush();
    }

    let doc = Json::object([
        ("dataset", Json::str(ds.name.clone())),
        ("candidates", Json::U64(candidates.len() as u64)),
        ("matches", matches),
        ("truncated", Json::Bool(truncated)),
        ("limit_hit", Json::Bool(limit_hit)),
    ]);
    let body_bytes = doc.render().into_bytes();
    // Truncated results depend on server load at request time; caching
    // them would pin a partial answer.
    if !truncated {
        ctx.cache.put(key, body_bytes.clone());
    }
    Response {
        status: 200,
        content_type: "application/json",
        body: body_bytes,
        close: false,
        truncated,
    }
}

/// Resolves a dataset and an object index within it.
fn resolve_object<'g>(
    gen: &'g Generation,
    query: &[(String, String)],
    ds_param: &str,
    idx_param: &str,
) -> Result<(&'g crate::LoadedDataset, usize), Response> {
    let q = |key: &str| qp(query, key);
    let Some(ds_key) = q(ds_param) else {
        return Err(Response::error(
            400,
            "missing_param",
            format!("query parameter `{ds_param}` is required"),
        ));
    };
    let Some((_, ds)) = gen.find_dataset(ds_key) else {
        return Err(Response::error(
            404,
            "unknown_dataset",
            format!("no dataset {ds_key:?}"),
        ));
    };
    let Some(idx_raw) = q(idx_param) else {
        return Err(Response::error(
            400,
            "missing_param",
            format!("query parameter `{idx_param}` is required"),
        ));
    };
    let Ok(idx) = idx_raw.parse::<usize>() else {
        return Err(Response::error(
            400,
            "bad_param",
            format!("bad object index {idx_raw:?}"),
        ));
    };
    if idx >= ds.arena.len() {
        return Err(Response::error(
            404,
            "object_out_of_range",
            format!(
                "index {idx} out of range for dataset {:?} ({} objects)",
                ds.name,
                ds.arena.len()
            ),
        ));
    }
    Ok((ds, idx))
}

fn handle_pair(
    gen: &Generation,
    query: &[(String, String)],
    scratch: &mut RelateScratch,
) -> Response {
    let (left, i) = match resolve_object(gen, query, "left", "i") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let (right, j) = match resolve_object(gen, query, "right", "j") {
        Ok(v) => v,
        Err(r) => return r,
    };
    if left.grid != right.grid {
        return Response::error(
            400,
            "grid_mismatch",
            "datasets were preprocessed on different grids; relations cannot be compared",
        );
    }
    let out = find_relation_with(
        left.arena.object(i),
        right.arena.object(j),
        &mut PairCtx {
            scratch,
            prof: &mut stj_obs::Disabled,
            adaptive: None,
        },
    );
    Response::json(
        200,
        &Json::object([
            ("left", Json::str(left.name.clone())),
            ("i", Json::U64(i as u64)),
            ("right", Json::str(right.name.clone())),
            ("j", Json::U64(j as u64)),
            ("relation", Json::str(out.relation.to_string())),
            (
                "determination",
                Json::str(determination_label(out.determination)),
            ),
        ]),
    )
}

fn handle_join(ctx: &ServeCtx, gen: &Generation, query: &[(String, String)]) -> Response {
    let q = |key: &str| qp(query, key);
    let resolve = |param: &str| -> Result<&crate::LoadedDataset, Response> {
        let Some(key) = q(param) else {
            return Err(Response::error(
                400,
                "missing_param",
                format!("query parameter `{param}` is required"),
            ));
        };
        gen.find_dataset(key)
            .map(|(_, d)| d)
            .ok_or_else(|| Response::error(404, "unknown_dataset", format!("no dataset {key:?}")))
    };
    let left = match resolve("left") {
        Ok(d) => d,
        Err(r) => return r,
    };
    let right = match resolve("right") {
        Ok(d) => d,
        Err(r) => return r,
    };
    if left.grid != right.grid {
        return Response::error(
            400,
            "grid_mismatch",
            "datasets were preprocessed on different grids and cannot be joined",
        );
    }
    let method = match q("method").unwrap_or("pc") {
        "pc" => JoinMethod::PC,
        "st2" => JoinMethod::St2,
        "op2" => JoinMethod::Op2,
        "april" => JoinMethod::April,
        other => return Response::error(400, "bad_param", format!("unknown method {other:?}")),
    };
    let predicate = match q("predicate") {
        None => None,
        Some(name) => match TopoRelation::parse(name) {
            Some(p) => Some(p),
            None => {
                return Response::error(400, "bad_param", format!("unknown predicate {name:?}"))
            }
        },
    };
    let max_links = match q("max_links") {
        None => ctx.config.max_links,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n.min(ctx.config.max_links),
            _ => return Response::error(400, "bad_param", format!("bad max_links {v:?}")),
        },
    };

    // Server-side joins honor the configured adaptive mode with a
    // per-run model (batch traffic would swamp the resident probe
    // model's verdicts with unrelated statistics).
    let mut join = TopologyJoin::new()
        .method(method)
        .adaptive(ctx.config.adaptive);
    if let Some(p) = predicate {
        join = join.predicate(p);
    }
    let bounds = JoinBounds {
        max_links: Some(max_links),
        deadline: request_deadline(ctx),
    };
    let bounded = join.run_bounded(&left.arena, &right.arena, bounds);

    // NDJSON: one compact link object per line, then a summary line.
    let mut body = String::with_capacity(bounded.result.links.len() * 40 + 256);
    for link in &bounded.result.links {
        let _ = writeln!(
            body,
            "{{\"r\":{},\"s\":{},\"relation\":\"{}\"}}",
            link.r, link.s, link.relation
        );
    }
    let _ = writeln!(
        body,
        "{{\"summary\":{{\"links\":{},\"candidates\":{},\"hit_link_cap\":{},\"hit_deadline\":{},\"truncated\":{}}}}}",
        bounded.result.links.len(),
        bounded.result.candidates,
        bounded.hit_link_cap,
        bounded.hit_deadline,
        bounded.truncated(),
    );
    Response {
        status: 200,
        content_type: "application/x-ndjson",
        body: body.into_bytes(),
        close: true,
        truncated: bounded.truncated(),
    }
}

/// `POST /v1/discover`: bulk link discovery of the WKT set in the body
/// against one dataset. Query parameters: `dataset` (required),
/// `format` (`ndjson` default, `nt` for GeoSPARQL N-Triples), `name`
/// (probe naming for N-Triples subjects, default `probes`).
fn handle_discover(gen: Arc<Generation>, query: &[(String, String)], body: &[u8]) -> Reply {
    let q = |key: &str| qp(query, key);
    let Some(ds_key) = q("dataset") else {
        return Reply::Full(Response::error(
            400,
            "missing_param",
            "query parameter `dataset` is required",
        ));
    };
    let Some((ds_idx, _)) = gen.find_dataset(ds_key) else {
        return Reply::Full(Response::error(
            404,
            "unknown_dataset",
            format!("no dataset {ds_key:?}"),
        ));
    };
    let format = match q("format") {
        None => DiscoverFormat::Ndjson,
        Some(f) => match DiscoverFormat::parse(f) {
            Some(f) => f,
            None => {
                return Reply::Full(Response::error(
                    400,
                    "bad_param",
                    format!("unknown format {f:?} (expected ndjson or nt)"),
                ))
            }
        },
    };
    let name = q("name").unwrap_or("probes").to_string();
    let probes = match read_wkt_polygons(body) {
        Ok(p) => p,
        Err(e) => return Reply::Full(Response::error(400, "bad_wkt", e.to_string())),
    };
    if probes.is_empty() {
        return Reply::Full(Response::error(
            400,
            "bad_wkt",
            "request body contains no polygons",
        ));
    }
    Reply::Stream(DiscoverStream::new(gen, ds_idx, probes, format, name))
}

/// `POST /v1/admin/reload`: hot-swap in a freshly loaded dataset
/// generation. An empty body re-reads the `--data` paths from startup;
/// a non-empty body is a newline-separated list of STJD paths that
/// replaces the configured set. Responds 200 with the new generation,
/// 409 when no paths are available (in-memory server), 500 when
/// loading failed (old generation stays live).
fn handle_reload(ctx: &ServeCtx, body: &[u8]) -> Response {
    let override_paths: Option<Vec<std::path::PathBuf>> = match std::str::from_utf8(body) {
        Ok(text) => {
            let paths: Vec<std::path::PathBuf> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(std::path::PathBuf::from)
                .collect();
            (!paths.is_empty()).then_some(paths)
        }
        Err(_) => {
            return Response::error(400, "bad_body", "reload body must be UTF-8 paths");
        }
    };
    match ctx.reload(override_paths) {
        Ok(fresh) => {
            let names: Vec<Json> = fresh
                .datasets
                .iter()
                .map(|d| Json::str(d.name.clone()))
                .collect();
            Response::json(
                200,
                &Json::object([
                    ("generation", Json::U64(fresh.id)),
                    ("datasets", Json::Arr(names)),
                ]),
            )
        }
        Err(e) if e.contains("no dataset paths") => Response::error(409, "reload_unavailable", e),
        Err(e) => Response::error(500, "reload_failed", e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadedDataset, ServeConfig, ServeCtx};
    use stj_core::{find_relation, DatasetArena};
    use stj_geom::{Polygon, Rect};
    use stj_index::Tiling;
    use stj_raster::Grid;

    fn test_ctx() -> ServeCtx {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8);
        let polys = vec![
            Polygon::rect(Rect::from_coords(10.0, 10.0, 40.0, 40.0)),
            Polygon::rect(Rect::from_coords(20.0, 20.0, 30.0, 30.0)),
            Polygon::rect(Rect::from_coords(60.0, 60.0, 90.0, 90.0)),
        ];
        let arena = DatasetArena::build("boxes", &polys, &grid, DEFAULT_MAX_INTERVALS, 1);
        let tiling = Tiling::for_probes(arena.mbrs());
        let loaded = LoadedDataset {
            name: "boxes".to_string(),
            arena,
            grid,
            tiling,
        };
        ServeCtx::new(ServeConfig::default(), vec![loaded])
    }

    fn body_str(r: &Response) -> &str {
        std::str::from_utf8(&r.body).expect("utf8 body")
    }

    #[test]
    fn healthz_and_unknown_paths() {
        let ctx = test_ctx();
        assert_eq!(dispatch(&ctx, "GET", "/healthz", &[], b"").status, 200);
        assert_eq!(dispatch(&ctx, "GET", "/nope", &[], b"").status, 404);
        assert_eq!(dispatch(&ctx, "DELETE", "/stats", &[], b"").status, 405);
        assert_eq!(dispatch(&ctx, "GET", "/v1/discover", &[], b"").status, 405);
        assert_eq!(
            dispatch(&ctx, "GET", "/v1/admin/reload", &[], b"").status,
            405
        );
    }

    #[test]
    fn endpoint_families_cover_new_paths() {
        assert_eq!(endpoint_of("/v1/discover"), Endpoint::Discover);
        assert_eq!(endpoint_of("/v1/admin/reload"), Endpoint::Admin);
        assert_eq!(endpoint_of("/v1/relate"), Endpoint::Relate);
        assert_eq!(endpoint_of("/elsewhere"), Endpoint::Other);
    }

    #[test]
    fn metrics_render_prometheus_text() {
        let ctx = test_ctx();
        ctx.stats.requests_http.add(3);
        ctx.stats.note_status(200);
        ctx.stats.latency(Endpoint::Relate).record(12_000);
        let r = dispatch(&ctx, "GET", "/metrics", &[], b"");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, stj_obs::prom::CONTENT_TYPE);
        let body = body_str(&r);
        assert!(
            body.contains("stj_serve_requests_total{transport=\"http\"} 3"),
            "{body}"
        );
        assert!(
            body.contains("stj_serve_responses_total{class=\"2xx\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("stj_serve_dataset_objects{dataset=\"boxes\"} 3"),
            "{body}"
        );
        assert!(
            body.contains("stj_serve_request_latency_ns_count{endpoint=\"relate\"} 1"),
            "{body}"
        );
        assert!(body.contains("stj_serve_generation 1"), "{body}");
        assert!(
            body.contains("stj_serve_state_latency_ns_count{state=\"queue\"}"),
            "{body}"
        );
        // Only GET is allowed.
        assert_eq!(dispatch(&ctx, "POST", "/metrics", &[], b"").status, 405);
    }

    #[test]
    fn relate_finds_containing_box() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "boxes".to_string())];
        // A probe inside both object 0 and object 1's neighbourhood.
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/relate",
            &q,
            b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))",
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        assert!(body.contains("\"inside\""), "{body}");
        assert!(body.contains("\"truncated\": false"), "{body}");
        // Object 2 is far away: must not appear.
        assert!(!body.contains("\"id\": 2"), "{body}");
    }

    #[test]
    fn adaptive_model_warms_across_relate_requests() {
        use stj_core::AdaptiveMode;
        // Cache off so every request actually runs the pipeline.
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8);
        let polys = vec![
            Polygon::rect(Rect::from_coords(10.0, 10.0, 40.0, 40.0)),
            Polygon::rect(Rect::from_coords(20.0, 20.0, 30.0, 30.0)),
        ];
        let arena = DatasetArena::build("boxes", &polys, &grid, DEFAULT_MAX_INTERVALS, 1);
        let tiling = Tiling::for_probes(arena.mbrs());
        let loaded = LoadedDataset {
            name: "boxes".to_string(),
            arena,
            grid,
            tiling,
        };
        let config = ServeConfig {
            cache_mb: 0,
            adaptive: AdaptiveMode::ForceSkip,
            ..ServeConfig::default()
        };
        let ctx = ServeCtx::new(config, vec![loaded]);
        let q = vec![("dataset".to_string(), "boxes".to_string())];
        for _ in 0..3 {
            let r = dispatch(
                &ctx,
                "POST",
                "/v1/relate",
                &q,
                b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))",
            );
            assert_eq!(r.status, 200, "{}", body_str(&r));
            // Relations are identical to the static pipeline; only the
            // deciding stage moves under force-skip.
            assert!(body_str(&r).contains("\"inside\""), "{}", body_str(&r));
        }
        let report = ctx.adaptive.report();
        assert!(
            report.skipped_pairs() > 0,
            "requests must feed the resident model"
        );
        let stats = dispatch(&ctx, "GET", "/stats", &[], b"");
        let body = body_str(&stats);
        assert!(body.contains("\"adaptive\""), "{body}");
        assert!(body.contains("\"force-skip\""), "{body}");
    }

    #[test]
    fn relate_bad_wkt_is_line_numbered_400() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "0".to_string())];
        let r = dispatch(&ctx, "POST", "/v1/relate", &q, b"POLYGON((not wkt");
        assert_eq!(r.status, 400);
        let body = body_str(&r);
        assert!(body.contains("\"kind\": \"bad_wkt\""), "{body}");
        assert!(body.contains("line 1:"), "{body}");
    }

    #[test]
    fn relate_caches_identical_probes() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "boxes".to_string())];
        let wkt = b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))";
        let first = dispatch(&ctx, "POST", "/v1/relate", &q, wkt);
        let second = dispatch(&ctx, "POST", "/v1/relate", &q, wkt);
        assert_eq!(first.body, second.body);
        assert_eq!(ctx.cache.hits.get(), 1);
        assert_eq!(ctx.cache.misses.get(), 1);
    }

    #[test]
    fn relate_unknown_dataset_404() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "nope".to_string())];
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/relate",
            &q,
            b"POLYGON((0 0,1 0,1 1,0 0))",
        );
        assert_eq!(r.status, 404);
        assert!(body_str(&r).contains("unknown_dataset"));
    }

    #[test]
    fn pair_matches_offline_pipeline() {
        let ctx = test_ctx();
        let q: Vec<(String, String)> = [
            ("left", "boxes"),
            ("i", "1"),
            ("right", "boxes"),
            ("j", "0"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let r = dispatch(&ctx, "GET", "/v1/pair", &q, b"");
        assert_eq!(r.status, 200);
        let gen = ctx.generation();
        let expect = find_relation(
            gen.datasets[0].arena.object(1),
            gen.datasets[0].arena.object(0),
        );
        assert!(
            body_str(&r).contains(&format!("\"relation\": \"{}\"", expect.relation)),
            "{}",
            body_str(&r)
        );
    }

    #[test]
    fn pair_out_of_range_404() {
        let ctx = test_ctx();
        let q: Vec<(String, String)> = [
            ("left", "boxes"),
            ("i", "99"),
            ("right", "boxes"),
            ("j", "0"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let r = dispatch(&ctx, "GET", "/v1/pair", &q, b"");
        assert_eq!(r.status, 404);
        assert!(body_str(&r).contains("object_out_of_range"));
    }

    #[test]
    fn join_streams_ndjson_with_summary() {
        let ctx = test_ctx();
        let q: Vec<(String, String)> = [("left", "boxes"), ("right", "boxes")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let r = dispatch(&ctx, "POST", "/v1/join", &q, b"");
        assert_eq!(r.status, 200);
        assert!(r.close, "join responses close the connection");
        let body = body_str(&r);
        let last = body.lines().last().expect("summary line");
        assert!(last.starts_with("{\"summary\":"), "{last}");
        assert!(
            body.lines().count() >= 2,
            "self-join must find links: {body}"
        );
    }

    #[test]
    fn join_max_links_caps_and_flags() {
        let ctx = test_ctx();
        let q: Vec<(String, String)> = [("left", "boxes"), ("right", "boxes"), ("max_links", "1")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let r = dispatch(&ctx, "POST", "/v1/join", &q, b"");
        assert_eq!(r.status, 200);
        assert!(r.truncated);
        let body = body_str(&r);
        assert_eq!(body.lines().count(), 2, "one link + summary: {body}");
        assert!(body.contains("\"hit_link_cap\":true"), "{body}");
    }

    #[test]
    fn dispatch_target_decodes_query() {
        let ctx = test_ctx();
        let r = dispatch_target(&ctx, "GET", "/v1/pair?left=boxes&i=0&right=boxes&j=0", b"");
        assert_eq!(r.status, 200);
        assert!(body_str(&r).contains("\"equals\""));
    }

    #[test]
    fn discover_buffers_when_not_streaming() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "boxes".to_string())];
        let body = b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))\nPOLYGON((0 90, 5 90, 5 95, 0 95, 0 90))";
        let r = dispatch(&ctx, "POST", "/v1/discover", &q, body);
        assert_eq!(r.status, 200, "{}", body_str(&r));
        assert_eq!(r.content_type, "application/x-ndjson");
        assert!(r.close, "discover responses close the connection");
        let text = body_str(&r);
        assert!(
            text.lines().last().unwrap().starts_with("{\"summary\":"),
            "{text}"
        );
        assert!(text.contains("\"relation\":\"inside\""), "{text}");
    }

    #[test]
    fn discover_nt_uses_geosparql_properties() {
        let ctx = test_ctx();
        let q = vec![
            ("dataset".to_string(), "boxes".to_string()),
            ("format".to_string(), "nt".to_string()),
            ("name".to_string(), "mine".to_string()),
        ];
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/discover",
            &q,
            b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))",
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        assert_eq!(r.content_type, "application/n-triples");
        let text = body_str(&r);
        assert!(text.contains("<urn:stj:mine:0>"), "{text}");
        assert!(text.contains("geosparql#sfWithin"), "{text}");
        assert!(!text.contains("summary"), "{text}");
    }

    #[test]
    fn discover_requires_probes_and_known_dataset() {
        let ctx = test_ctx();
        let q = vec![("dataset".to_string(), "boxes".to_string())];
        assert_eq!(dispatch(&ctx, "POST", "/v1/discover", &q, b"").status, 400);
        let q = vec![("dataset".to_string(), "nope".to_string())];
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/discover",
            &q,
            b"POLYGON((0 0,1 0,1 1,0 0))",
        );
        assert_eq!(r.status, 404);
        let q = vec![
            ("dataset".to_string(), "boxes".to_string()),
            ("format".to_string(), "xml".to_string()),
        ];
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/discover",
            &q,
            b"POLYGON((0 0,1 0,1 1,0 0))",
        );
        assert_eq!(r.status, 400);
        assert!(body_str(&r).contains("unknown format"), "{}", body_str(&r));
    }

    #[test]
    fn reload_without_paths_is_409_and_counted() {
        let ctx = test_ctx();
        let r = dispatch(&ctx, "POST", "/v1/admin/reload", &[], b"");
        assert_eq!(r.status, 409, "{}", body_str(&r));
        assert!(body_str(&r).contains("reload_unavailable"));
        assert_eq!(ctx.stats.reload_errors.get(), 1);
        // A bogus override path is a load failure, not unavailability.
        let r = dispatch(
            &ctx,
            "POST",
            "/v1/admin/reload",
            &[],
            b"/definitely/not/here.stjd\n",
        );
        assert_eq!(r.status, 500, "{}", body_str(&r));
        assert!(body_str(&r).contains("reload_failed"));
    }
}
