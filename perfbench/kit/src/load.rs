//! Closed-loop relate load: one client process, `conns` keep-alive HTTP
//! connections, each sending its next request only after the previous
//! reply arrived. Requests go in whole rounds (see [`crate::gen::round`]),
//! so every run sends the same mix of fixed, fresh and repeated probes.

use crate::check::{check_relate, Verdict};
use crate::gen::{self, Inputs, Probe};
use crate::geom::{Mbr, Poly};
use crate::json::{obj, Json};
use crate::oracle::{relate, Rel};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 14),
        })
    }

    /// Sends one request and reads its reply: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("reply without content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One sent request.
struct Sent {
    round: usize,
    slot: usize,
    latency: Duration,
    status: u16,
    body: Vec<u8>,
}

/// The oracle's answer for one probe: MBR-overlap count and matches.
type Answer = (u64, Vec<(u32, Rel)>);

/// A stored dataset with a uniform bucket grid over its MBRs.
struct Indexed<'a> {
    polys: &'a [Poly],
    mbrs: Vec<Mbr>,
    buckets: Vec<Vec<u32>>,
}

/// Buckets per side of the lattice square.
const BUCKETS: i64 = 128;
const BUCKET: i64 = crate::geom::LATTICE / BUCKETS;

fn bucket_range(m: &Mbr) -> impl Iterator<Item = usize> {
    let (x0, x1) = ((m.x0 / BUCKET).max(0), (m.x1 / BUCKET).min(BUCKETS - 1));
    let (y0, y1) = ((m.y0 / BUCKET).max(0), (m.y1 / BUCKET).min(BUCKETS - 1));
    (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| (y * BUCKETS + x) as usize))
}

impl<'a> Indexed<'a> {
    fn new(polys: &'a [Poly]) -> Indexed<'a> {
        let mbrs: Vec<Mbr> = polys.iter().map(Poly::mbr).collect();
        let mut buckets = vec![Vec::new(); (BUCKETS * BUCKETS) as usize];
        for (id, m) in mbrs.iter().enumerate() {
            for b in bucket_range(m) {
                buckets[b].push(id as u32);
            }
        }
        Indexed {
            polys,
            mbrs,
            buckets,
        }
    }

    fn answer(&self, probe: &Poly) -> Answer {
        let m = probe.mbr();
        let mut ids: Vec<u32> = bucket_range(&m)
            .flat_map(|b| self.buckets[b].iter().copied())
            .filter(|&id| self.mbrs[id as usize].intersects(&m))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let matches = ids
            .iter()
            .filter_map(|&id| {
                let rel = relate(probe, &self.polys[id as usize]);
                (rel != Rel::Disjoint).then_some((id, rel))
            })
            .collect();
        (ids.len() as u64, matches)
    }
}

/// Computes `f` over `items` on `threads` threads, keeping order.
pub fn par_map<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let start = next.fetch_add(64, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = (start + 64).min(items.len());
                let done: Vec<U> = items[start..end].iter().map(&f).collect();
                let mut o = out.lock().expect("a par_map worker panicked");
                for (k, u) in done.into_iter().enumerate() {
                    o[start + k] = Some(u);
                }
            });
        }
    });
    out.into_inner()
        .expect("a par_map worker panicked")
        .into_iter()
        .map(|u| u.expect("every item was mapped"))
        .collect()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let k = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[k]
}

/// Sends every slot of `round` over the pool; returns the replies and the
/// round's wall time.
fn send_round(
    pool: &mut [Conn],
    round: &gen::Round,
    r: usize,
) -> Result<(Vec<Sent>, Duration), String> {
    let targets = ["/v1/relate?dataset=parks", "/v1/relate?dataset=buildings"];
    let bodies: Vec<Vec<u8>> = round
        .probes
        .iter()
        .map(|p| p.poly.to_wkt().into_bytes())
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(gen::ROUND));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for conn in pool.iter_mut() {
            let (next, results, errors, bodies) = (&next, &results, &errors, &bodies);
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= round.slots.len() {
                        break;
                    }
                    let k = round.slots[slot];
                    let target = targets[usize::from(round.probes[k].to_buildings)];
                    let t = Instant::now();
                    match conn.request("POST", target, &bodies[k]) {
                        Ok((status, body)) => mine.push(Sent {
                            round: r,
                            slot,
                            latency: t.elapsed(),
                            status,
                            body,
                        }),
                        Err(e) => {
                            errors
                                .lock()
                                .expect("a load thread panicked")
                                .push(format!("slot {slot}: {e}"));
                            break;
                        }
                    }
                }
                results.lock().expect("a load thread panicked").extend(mine);
            });
        }
    });
    let wall = t0.elapsed();
    let errors = errors.into_inner().expect("a load thread panicked");
    if !errors.is_empty() {
        return Err(format!("round {r}: {}", errors.join("; ")));
    }
    Ok((results.into_inner().expect("a load thread panicked"), wall))
}

/// Sends whole rounds until `seconds` of sending have passed, then checks
/// every reply against the oracle. Prints nothing; returns the report.
pub fn run(
    inputs: &Inputs,
    seed: u64,
    addr: &str,
    conns: usize,
    seconds: f64,
) -> Result<Json, String> {
    let fixed = gen::fixed_probes(inputs);
    let mut pool: Vec<Conn> = (0..conns.max(1))
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rounds: Vec<gen::Round> = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    let mut busy = Duration::ZERO;
    while busy.as_secs_f64() < seconds {
        let r = rounds.len();
        let round = gen::round(inputs, &fixed, seed, r as u64);
        let (done, wall) = send_round(&mut pool, &round, r)?;
        busy += wall;
        sent.extend(done);
        rounds.push(round);
    }

    // Oracle answers: fixed probes once, fresh probes per round.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let datasets = [Indexed::new(&inputs.parks), Indexed::new(&inputs.buildings)];
    let answer = |p: &Probe| datasets[usize::from(p.to_buildings)].answer(&p.poly);
    let fixed_answers = par_map(&fixed, threads, answer);
    let fresh: Vec<(usize, usize)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(r, round)| (fixed.len()..round.probes.len()).map(move |k| (r, k)))
        .collect();
    let fresh_answers: HashMap<(usize, usize), Answer> = fresh
        .iter()
        .copied()
        .zip(par_map(&fresh, threads, |&(r, k)| {
            answer(&rounds[r].probes[k])
        }))
        .collect();

    let (mut failed, mut failed_seeded) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for s in &sent {
        let k = rounds[s.round].slots[s.slot];
        let (cands, want) = if k < fixed.len() {
            &fixed_answers[k]
        } else {
            &fresh_answers[&(s.round, k)]
        };
        match check_relate(s.status, &s.body, *cands, want) {
            Verdict::Ok => {}
            Verdict::Failed(why) => {
                failed += 1;
                if k >= fixed.len() {
                    failed_seeded += 1;
                }
                if failures.len() < 3 {
                    failures.push(format!("round {} slot {}: {why}", s.round, s.slot));
                }
            }
            Verdict::Broken(why) => {
                problems.push(format!("round {} slot {}: {why}", s.round, s.slot))
            }
        }
    }
    let mut lat: Vec<f64> = sent.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    lat.sort_by(f64::total_cmp);
    problems.truncate(5);
    Ok(obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Num(sent.len() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failed_seeded", Json::Num(failed_seeded as f64)),
        ("rounds", Json::Num(rounds.len() as f64)),
        ("busy_s", Json::Num(busy.as_secs_f64())),
        ("rps", Json::Num(sent.len() as f64 / busy.as_secs_f64())),
        ("p50_ms", Json::Num(percentile(&lat, 0.5))),
        ("p99_ms", Json::Num(percentile(&lat, 0.99))),
        (
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
    ]))
}
