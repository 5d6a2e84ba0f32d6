//! The reference kernel that end-to-end times are scaled by.
//!
//! The benchmark shares its host with other machines' work, and the host
//! moves between a fast and a slow state (measured on the 2-core VM the
//! benchmark was built on: the same check takes 1.4× as long for minutes
//! at a time). A deterministic kernel of this package's own code — hash
//! map inserts and lookups, allocation churn, and a dependent walk over
//! 1 MiB, the kinds of work translation, search and proof checking do —
//! runs next to every measured operation. Each raw time is multiplied by
//! `NOMINAL_S / kernel time`, which reports it in seconds at the speed
//! the host has when the kernel takes `NOMINAL_S`. The kernel never calls
//! the program, so no change to the program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the build VM in its fast state, in seconds.
pub const NOMINAL_S: f64 = 0.06;

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_secs() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// `NOMINAL_S` over the mean of two kernel samples: the factor that
/// scales a time measured between them to the nominal speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

/// Fixed work: the same operations in the same order on every call, in
/// about 2 MiB, so the kernel does not set the process's peak memory.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..200_000 {
        *map.entry(next() % 40_000).or_insert(0) += 1;
    }
    let mut acc = 0u64;
    for _ in 0..400_000 {
        acc += map.get(&(next() % 80_000)).copied().unwrap_or(0);
    }
    let n: usize = 1 << 18;
    let walk: Vec<u32> = (0..n).map(|_| (next() % n as u64) as u32).collect();
    let mut i = 0u32;
    for _ in 0..4_000_000 {
        i = walk[i as usize];
        acc += u64::from(i);
    }
    let mut churn: Vec<Vec<u64>> = Vec::new();
    for j in 0..300_000u64 {
        churn.push(vec![j; (next() % 32) as usize]);
        if churn.len() > 256 {
            churn.clear();
        }
    }
    acc + map.len() as u64 + churn.len() as u64
}
