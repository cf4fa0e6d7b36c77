//! A fixed reference computation, timed beside the program's steps.
//!
//! It calls no program code, so no change to the program moves its time:
//! when it slows, the host slowed. A 64×256×256 f32 matrix product with
//! a working set of about 320 KB takes about 0.5 ms on a 2 GHz x86-64
//! core.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

const M: usize = 64;
const K: usize = 256;
const N: usize = 256;

fn operands() -> &'static (Vec<f32>, Vec<f32>) {
    static OPS: OnceLock<(Vec<f32>, Vec<f32>)> = OnceLock::new();
    OPS.get_or_init(|| {
        let mut state = 0x9E37_79B9_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let a = (0..M * K).map(|_| next()).collect();
        let b = (0..K * N).map(|_| next()).collect();
        (a, b)
    })
}

/// Runs the reference once and returns its duration in ms.
pub fn time_ms() -> f64 {
    let (a, b) = operands();
    let t0 = Instant::now();
    let mut c = vec![0f32; M * N];
    for i in 0..M {
        let row = &mut c[i * N..(i + 1) * N];
        for k in 0..K {
            let aik = black_box(a)[i * K + k];
            for (cj, bj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *cj += aik * bj;
            }
        }
    }
    black_box(&c);
    t0.elapsed().as_secs_f64() * 1e3
}
