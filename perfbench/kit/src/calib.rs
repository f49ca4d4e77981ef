//! The reference computation the joins' timings are scaled by.
//!
//! On a shared machine the same work can take 20 % more or less time from
//! one minute to the next. The benchmark runs a fixed amount of its own CPU
//! work — the oracle over the fixed part's candidate pairs, on as many
//! threads as the program uses — right after each measured join. Its wall
//! time tracks the machine's current speed and nothing else: it shares no
//! code with the program under test.

use crate::gen;
use crate::load::par_map;
use crate::oracle::relate;
use std::time::Instant;

/// Repetitions of the fixed part's 600 pairs per measurement (about
/// 0.1 s on the 2-vCPU machine of the README's reference figures).
const ROUNDS: usize = 12;

/// Wall seconds of one reference computation on `threads` threads.
pub fn reference_seconds(threads: usize) -> f64 {
    let (parks, buildings) = gen::fixed_part();
    let mut pairs = Vec::new();
    for (i, p) in parks.iter().enumerate() {
        for (j, b) in buildings.iter().enumerate() {
            if p.mbr().intersects(&b.mbr()) {
                pairs.push((i, j));
            }
        }
    }
    let work: Vec<(usize, usize)> = (0..ROUNDS).flat_map(|_| pairs.iter().copied()).collect();
    let t = Instant::now();
    let rels = par_map(&work, threads, |&(i, j)| relate(&parks[i], &buildings[j]));
    std::hint::black_box(rels);
    t.elapsed().as_secs_f64()
}
