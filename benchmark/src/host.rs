//! A host-speed reference.
//!
//! The sandbox this benchmark runs in is a small VM on a shared host. For
//! minutes at a time everything in it — single-threaded table generation,
//! two-thread compresses, the client/server GET loop alike — runs
//! 30–50% slower, with nothing else running inside the VM (a fixed spin
//! loop logged for ten minutes shows the same). No amount of repetition
//! inside a 20 s run averages that away, and it would drown every
//! regression bound.
//!
//! So each block of timed ops is bracketed by a fixed reference kernel,
//! and its times are scaled to what they would be on a host where that
//! kernel takes [`NOMINAL_MS`]: `time × NOMINAL_MS ÷ kernel time`. A
//! change to the program leaves the kernel alone and shows in full; a
//! slow spell of the host slows both and cancels. The kernel lives here,
//! not under `crates/`, so no optimisation of the program can move it.

use std::time::Instant;

use crate::stats::median;

/// What [`kernel`] takes in this sandbox when the host is quiet. Only
/// ratios to it are ever used, so it fixes the scale of the reported
/// times, not their comparability.
pub const NOMINAL_MS: f64 = 3.5;

const FLOATS: usize = 16 << 10;
const BYTES: usize = 2 << 20;
const PASSES: usize = 400;
const REPS: usize = 5;

/// A fixed amount of float multiply-add and integer/memory work, of the
/// two sorts the program spends its time on.
fn kernel(floats: &mut [f32], bytes: &mut [u8]) -> u64 {
    for pass in 0..PASSES {
        let a = 1.0 + (pass as f32) * 1e-7;
        for x in floats.iter_mut() {
            *x = *x * a + 1e-3;
        }
    }
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for b in bytes.iter_mut() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        *b = (h >> 56) as u8;
    }
    h ^ u64::from(floats[0].to_bits())
}

/// Host speed right now relative to nominal: 1.0 on a quiet host, ~0.7
/// in a slow spell. Median of a few kernel runs, ~20 ms in all.
pub fn speed() -> f64 {
    let mut floats = vec![1.0f32; FLOATS];
    let mut bytes = vec![0u8; BYTES];
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel(&mut floats, &mut bytes));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    NOMINAL_MS / median(&times)
}
