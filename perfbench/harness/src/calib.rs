//! A fixed calibration kernel that gauges how fast the machine runs right
//! now.
//!
//! On a shared virtual machine the same repetition can take 30–45 % longer
//! for minutes at a time while neighbours load the core and its caches.
//! The kernel does the kinds of work the program does (allocating and
//! sorting strings, hashing them, cloning and sorting byte records,
//! streaming passes over a float array, ordered-map inserts) on fixed data,
//! and lives in the benchmark, so no change to the program moves it.
//! Timed right before each repetition, it slows down with the machine;
//! scaling the repetition by `REFERENCE_S / kernel time` gives the time the
//! repetition would take when the kernel takes `REFERENCE_S`.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// The kernel's time on a 2-vCPU Intel Xeon virtual machine in a quiet
/// period; the scale of every speed-corrected time.
pub const REFERENCE_S: f64 = 0.15;

/// Records per kernel step. The kernel's data (about 70 MB) must outgrow
/// the caches, as the workloads' data do: a kernel a tenth this size
/// stayed in cache, and tracked the workloads' slowdowns half as well.
const N: u64 = 150_000;

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20
}

/// Runs the kernel once; returns its time in seconds.
pub fn gauge_s() -> f64 {
    let t = Instant::now();
    let mut words: Vec<String> = (0..3 * N / 2).map(|i| format!("w{}", mix(i) % 5000)).collect();
    words.sort_unstable();
    let mut counts: HashMap<&str, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for w in &words {
        *counts.entry(w.as_str()).or_insert(0) += 1;
    }
    let records: Vec<Vec<u8>> = (0..N).map(|i| mix(i).to_le_bytes().repeat(12)).collect();
    let mut sorted = records.clone();
    sorted.sort_unstable();
    let demand: Vec<f64> = (0..13 * N).map(|i| (mix(i) % 1000) as f64 + 1.0).collect();
    let mut rate = vec![0.0f64; demand.len()];
    let mut share = 1.0;
    for _ in 0..4 {
        let mut sum = 0.0;
        for (r, d) in rate.iter_mut().zip(&demand) {
            *r = (d * share).min(500.0);
            sum += *r;
        }
        share = 1e6 / sum;
    }
    let mut tree = BTreeMap::new();
    for i in 0..N {
        tree.insert(mix(i), i);
    }
    std::hint::black_box((&counts, &sorted, &rate, &tree));
    t.elapsed().as_secs_f64()
}
