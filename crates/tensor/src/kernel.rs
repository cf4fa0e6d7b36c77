//! Runtime-dispatched CPU micro-kernels for the f32 hot loops.
//!
//! The PARO accelerator maps mixed-bitwidth blocks onto reconfigurable
//! multipliers; the software analogue on a CPU is per-ISA micro-kernels
//! picked once at startup. This module is the dispatch substrate shared
//! by every hot loop in the workspace: it detects the widest available
//! x86 vector extension (AVX2 > SSE4.1 > scalar), honors the
//! `PARO_KERNEL` environment variable as a downgrade override, and hosts
//! the f32 matmul drivers. The integer kernels in `paro-quant` dispatch
//! on the same [`Kernel`] value so one process always runs one
//! consistent kernel set.
//!
//! # Bit-identity contract
//!
//! Every SIMD driver produces **bit-identical** results to the scalar
//! reference:
//!
//! - integer kernels are exact by construction (i32 adds commute);
//! - the f32 matmul is register-blocked: each micro-tile of `out` (6×16
//!   on AVX2, 6×8 on SSE4.1, a 6×16 local array on scalar) keeps its
//!   accumulators in registers across all of `k`. Blocking only decides
//!   which outputs are computed together, never the order of one
//!   output's sum: every element starts at +0.0 and adds `a[i][p]·b[p][j]`
//!   in ascending `p`, ragged edge tiles included, with separate multiply
//!   and add (never FMA, which rounds once instead of twice). Outputs
//!   therefore equal a naive triple loop bit for bit on every kernel.
//!
//! The equivalence suites (`tensor/tests/matmul_kernels.rs`,
//! `quant/tests/kernel_equivalence.rs`) pin this contract on every
//! kernel the host can run.

// SIMD intrinsics are the one place the workspace needs `unsafe`; every
// block is bounded by explicit slice lengths checked in the safe callers.
#![allow(unsafe_code)]

use std::str::FromStr;
use std::sync::OnceLock;

/// A dispatchable micro-kernel implementation, ordered by preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Portable scalar reference — always available, the semantic ground
    /// truth every SIMD path must match bit for bit.
    Scalar,
    /// x86-64 SSE4.1: 4×f32 / 4×i32 lanes (`_mm_mullo_epi32` needs 4.1).
    Sse41,
    /// x86-64 AVX2: 8×f32 / 8×i32 lanes plus variable shifts for the
    /// packed-code unpack.
    Avx2,
}

impl Kernel {
    /// Every kernel this build knows about, in preference order
    /// (scalar first).
    pub const ALL: &'static [Kernel] = &[Kernel::Scalar, Kernel::Sse41, Kernel::Avx2];

    /// Stable lowercase name, as printed in reports and accepted by
    /// `PARO_KERNEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse41 => "sse4.1",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this kernel.
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Sse41 => is_x86_feature_detected!("sse4.1"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The kernels the running CPU supports, in preference order.
    pub fn supported() -> Vec<Kernel> {
        Kernel::ALL
            .iter()
            .copied()
            .filter(|k| k.is_supported())
            .collect()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError(pub String);

impl std::fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown kernel '{}' (use scalar, sse4.1 or avx2)",
            self.0
        )
    }
}

impl std::error::Error for ParseKernelError {}

impl FromStr for Kernel {
    type Err = ParseKernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Kernel::Scalar),
            "sse4.1" | "sse41" | "sse" => Ok(Kernel::Sse41),
            "avx2" => Ok(Kernel::Avx2),
            other => Err(ParseKernelError(other.to_string())),
        }
    }
}

/// The widest kernel the running CPU supports, ignoring any override.
pub fn detected() -> Kernel {
    *Kernel::ALL
        .iter()
        .rev()
        .find(|k| k.is_supported())
        .expect("scalar is always supported")
}

/// What [`active`] resolved and why — for reports that must show whether
/// the run was forced off the detected path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The kernel every dispatched hot loop runs.
    pub kernel: Kernel,
    /// `true` when `PARO_KERNEL` (or [`force`]) overrode detection.
    pub forced: bool,
}

fn env_dispatch() -> Dispatch {
    let best = detected();
    match std::env::var("PARO_KERNEL") {
        // The override can only *downgrade*: forcing a kernel the CPU
        // lacks would fault on the first intrinsic, so unknown names and
        // unsupported kernels clamp to the detected best.
        Ok(name) => match name.parse::<Kernel>() {
            Ok(k) if k.is_supported() => Dispatch {
                kernel: k.min(best),
                forced: k.min(best) != best,
            },
            Ok(_) | Err(_) => Dispatch {
                kernel: best,
                forced: false,
            },
        },
        Err(_) => Dispatch {
            kernel: best,
            forced: false,
        },
    }
}

/// Process-wide dispatch override installed by [`force`]; 0 = none,
/// otherwise `1 + kernel index`.
static FORCED: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Forces every subsequent [`active`] resolution to `kernel` (pass
/// `None` to restore `PARO_KERNEL`/detection). Benchmarks use this to
/// measure the scalar reference in the same process as the dispatched
/// path; the override is ignored if the CPU cannot run `kernel`.
pub fn force(kernel: Option<Kernel>) {
    let v = match kernel {
        Some(k) if k.is_supported() => 1 + k as u8,
        _ => 0,
    };
    FORCED.store(v, std::sync::atomic::Ordering::SeqCst);
}

/// The dispatch decision for this process: the forced kernel if [`force`]
/// is in effect, else the `PARO_KERNEL`-aware detection result (computed
/// once and cached).
pub fn active() -> Dispatch {
    match FORCED.load(std::sync::atomic::Ordering::SeqCst) {
        0 => {
            static ENV: OnceLock<Dispatch> = OnceLock::new();
            *ENV.get_or_init(env_dispatch)
        }
        v => Dispatch {
            kernel: match v - 1 {
                0 => Kernel::Scalar,
                1 => Kernel::Sse41,
                _ => Kernel::Avx2,
            },
            forced: true,
        },
    }
}

/// The kernel every dispatched hot loop currently runs.
pub fn active_kernel() -> Kernel {
    active().kernel
}

/// k-dimension tile edge of the f32/i32 GEMM drivers: the granularity of
/// the f32 GEMM's zero-segment bypass, and the segment the integer GEMM
/// streams its `B` panel in. 256 f32 values = 1 KiB per operand row
/// segment.
pub const TILE_K: usize = 256;

/// Micro-tile height of the f32 GEMM: rows of `a` (and of `out`) one
/// micro-kernel call covers, shared by every instantiation.
const MR: usize = 6;

/// Widest micro-tile (AVX2: two 8-lane vectors). The scalar tile uses it
/// as its width and serves as every kernel's ragged right edge, so its
/// accumulator array must hold this many columns.
const NR_MAX: usize = 16;

/// Shared register-blocked GEMM body: `out` is swept in row panels of
/// [`MR`] rows and, within a panel, column panels of `$nr` columns; each
/// `MR × $nr` micro-tile keeps its accumulators in registers across all
/// of `k` and stores them once. A panel's `TILE_K` segment whose `a`
/// values are all zero is bypassed on every column panel (the
/// block-sparse fast path — B0 blocks of a quantized map are stored as
/// zeros); `live[t]` records which segments survive. Columns past the
/// last full `$nr` panel go through [`tile_scalar`]. One body, three
/// instantiations — so the scalar reference and the SIMD drivers cannot
/// drift structurally.
macro_rules! matmul_body {
    ($tile:ident, $nr:expr, $a:ident, $b:ident, $out:ident, $m:ident, $k:ident, $n:ident, $skip:ident) => {{
        let mut live = vec![true; $k.div_ceil(TILE_K)];
        let mut i0 = 0usize;
        while i0 < $m {
            let rows = MR.min($m - i0);
            if $skip {
                // A zero segment contributes exactly nothing (b is finite
                // when skip_zeros holds, and an accumulator that starts
                // at +0.0 is unchanged by adding ±0), so its b panel is
                // never touched.
                for (t, l) in live.iter_mut().enumerate() {
                    let (k0, k1) = (t * TILE_K, ((t + 1) * TILE_K).min($k));
                    *l = (i0..i0 + rows)
                        .any(|r| $a[r * $k + k0..r * $k + k1].iter().any(|&v| v != 0.0));
                }
            }
            let mut j0 = 0usize;
            while j0 + $nr <= $n {
                $tile($a, $b, $out, i0, rows, j0, $k, $n, &live);
                j0 += $nr;
            }
            if j0 < $n {
                tile_scalar($a, $b, $out, i0, rows, j0, $n - j0, $k, $n, &live);
            }
            i0 += MR;
        }
    }};
}

/// Scalar micro-tile: `out[i0.., j0..j0+cols] = a[i0.., ..] · b[.., j0..]`
/// for `rows ≤ MR`, `cols ≤ NR_MAX`, accumulated in a local array —
/// each output starts at +0.0 and adds `a[i][p]·b[p][j]` (multiply, then
/// add) in ascending `p` over the live segments.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    j0: usize,
    cols: usize,
    k: usize,
    n: usize,
    live: &[bool],
) {
    let mut acc = [[0.0f32; NR_MAX]; MR];
    for (t, _) in live.iter().enumerate().filter(|(_, &l)| l) {
        for p in t * TILE_K..((t + 1) * TILE_K).min(k) {
            let brow = &b[p * n + j0..p * n + j0 + cols];
            for (r, accr) in acc[..rows].iter_mut().enumerate() {
                let av = a[(i0 + r) * k + p];
                for (o, &bv) in accr.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
    for (r, accr) in acc[..rows].iter().enumerate() {
        let o = (i0 + r) * n + j0;
        out[o..o + cols].copy_from_slice(&accr[..cols]);
    }
}

/// The scalar driver's full-width column panel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn panel_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    j0: usize,
    k: usize,
    n: usize,
    live: &[bool],
) {
    tile_scalar(a, b, out, i0, rows, j0, NR_MAX, k, n, live);
}

fn matmul_driver_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    skip_zeros: bool,
) {
    matmul_body!(panel_scalar, NR_MAX, a, b, out, m, k, n, skip_zeros)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{tile_scalar, MR, TILE_K};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Generates one ISA's micro-kernel: an `R × 2·LANES` tile held in
    /// `2R` vector accumulators across all of `k`. Per `p`, two vectors
    /// of `b`'s row are loaded once and every row's `a[i][p]` is
    /// broadcast against them; multiply and add are separate intrinsics
    /// (never FMA, which rounds once instead of twice), so every lane
    /// repeats the scalar tile's rounding exactly.
    macro_rules! simd_panel {
        ($name:ident, $feature:literal, $vec:ty, $lanes:expr, $zero:ident, $set1:ident, $load:ident, $store:ident, $mul:ident, $add:ident) => {
            /// # Safety
            /// Caller must ensure the CPU supports the named feature, and
            /// that rows `i0..i0+R` of `a` (`k` wide) and columns
            /// `j0..j0+2·LANES` of `b` and `out` (`n` wide) are in bounds.
            #[allow(clippy::too_many_arguments)]
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn $name<const R: usize>(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                i0: usize,
                j0: usize,
                k: usize,
                n: usize,
                live: &[bool],
            ) {
                debug_assert!((i0 + R) * k <= a.len());
                debug_assert!(j0 + 2 * $lanes <= n && k * n <= b.len());
                debug_assert!((i0 + R - 1) * n + j0 + 2 * $lanes <= out.len());
                let mut acc: [[$vec; 2]; R] = [[$zero(); 2]; R];
                let ap = a.as_ptr().add(i0 * k);
                let bp = b.as_ptr().add(j0);
                for (t, _) in live.iter().enumerate().filter(|(_, &l)| l) {
                    for p in t * TILE_K..((t + 1) * TILE_K).min(k) {
                        let brow = bp.add(p * n);
                        let b0 = $load(brow);
                        let b1 = $load(brow.add($lanes));
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = $set1(*ap.add(r * k + p));
                            accr[0] = $add(accr[0], $mul(av, b0));
                            accr[1] = $add(accr[1], $mul(av, b1));
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let op = out.as_mut_ptr().add((i0 + r) * n + j0);
                    $store(op, accr[0]);
                    $store(op.add($lanes), accr[1]);
                }
            }
        };
    }

    simd_panel!(
        panel_sse41_rows,
        "sse4.1",
        __m128,
        4,
        _mm_setzero_ps,
        _mm_set1_ps,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_mul_ps,
        _mm_add_ps
    );
    simd_panel!(
        panel_avx2_rows,
        "avx2",
        __m256,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );

    /// Picks the micro-kernel instantiation for a panel of `rows ≤ MR`
    /// rows, so ragged bottom panels stay vectorized.
    macro_rules! simd_panel_dispatch {
        ($name:ident, $feature:literal, $rows_fn:ident) => {
            /// # Safety
            /// As the micro-kernel it dispatches to.
            #[allow(clippy::too_many_arguments)]
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn $name(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                i0: usize,
                rows: usize,
                j0: usize,
                k: usize,
                n: usize,
                live: &[bool],
            ) {
                const _: () = assert!(MR == 6, "one arm per panel height");
                match rows {
                    6 => $rows_fn::<6>(a, b, out, i0, j0, k, n, live),
                    5 => $rows_fn::<5>(a, b, out, i0, j0, k, n, live),
                    4 => $rows_fn::<4>(a, b, out, i0, j0, k, n, live),
                    3 => $rows_fn::<3>(a, b, out, i0, j0, k, n, live),
                    2 => $rows_fn::<2>(a, b, out, i0, j0, k, n, live),
                    _ => $rows_fn::<1>(a, b, out, i0, j0, k, n, live),
                }
            }
        };
    }

    simd_panel_dispatch!(panel_sse41, "sse4.1", panel_sse41_rows);
    simd_panel_dispatch!(panel_avx2, "avx2", panel_avx2_rows);

    /// # Safety
    /// Caller must ensure the CPU supports SSE4.1 and the slice lengths
    /// match `m`, `k`, `n`.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn matmul_driver_sse41(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        skip_zeros: bool,
    ) {
        matmul_body!(panel_sse41, 8, a, b, out, m, k, n, skip_zeros)
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and the slice lengths
    /// match `m`, `k`, `n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_driver_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        skip_zeros: bool,
    ) {
        matmul_body!(panel_avx2, 16, a, b, out, m, k, n, skip_zeros)
    }
}

/// Register-blocked `out[m,n] = a[m,k] · b[k,n]` dispatched to `kernel`.
///
/// `skip_zeros` must be `false` when `b` contains non-finite values so
/// IEEE `0·NaN = NaN` propagation survives; the caller checks this once.
///
/// Every output element starts at +0.0 and adds `a[i][p]·b[p][j]`
/// (multiply, then add; no FMA) in ascending `p` on every kernel, edge
/// tiles included, so outputs are bit-identical across kernels and to a
/// naive triple loop.
///
/// # Panics
///
/// If the slice lengths do not match `m`, `k` and `n` — the SIMD
/// micro-kernels index by raw pointer, so this is checked in release
/// builds too.
#[allow(clippy::too_many_arguments)]
pub fn matmul_f32(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    skip_zeros: bool,
) {
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "matmul_f32 operand lengths do not match {m}x{k}x{n}"
    );
    match kernel {
        Kernel::Scalar => matmul_driver_scalar(a, b, out, m, k, n, skip_zeros),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Sse41 => {
            assert!(Kernel::Sse41.is_supported());
            // SAFETY: the feature was just checked, and the lengths were
            // asserted above; every micro-tile lies inside them.
            unsafe { x86::matmul_driver_sse41(a, b, out, m, k, n, skip_zeros) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Avx2 => {
            assert!(Kernel::Avx2.is_supported());
            // SAFETY: as above.
            unsafe { x86::matmul_driver_avx2(a, b, out, m, k, n, skip_zeros) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => matmul_driver_scalar(a, b, out, m, k, n, skip_zeros),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_roundtrip() {
        for &k in Kernel::ALL {
            assert_eq!(k.as_str().parse::<Kernel>().unwrap(), k);
        }
        assert_eq!("SSE41".parse::<Kernel>().unwrap(), Kernel::Sse41);
        assert!("neon".parse::<Kernel>().is_err());
        let err = "neon".parse::<Kernel>().unwrap_err();
        assert!(err.to_string().contains("neon"));
    }

    #[test]
    fn scalar_is_always_supported_and_detected_is_best() {
        assert!(Kernel::Scalar.is_supported());
        let best = detected();
        assert!(best.is_supported());
        for &k in Kernel::ALL {
            if k > best {
                assert!(!k.is_supported(), "{k} wider than detected best {best}");
            }
        }
        assert_eq!(Kernel::supported()[0], Kernel::Scalar);
    }

    #[test]
    fn force_overrides_and_restores() {
        force(Some(Kernel::Scalar));
        assert_eq!(active().kernel, Kernel::Scalar);
        assert!(active().forced);
        force(None);
        let d = active();
        assert!(d.kernel.is_supported());
        // Without PARO_KERNEL set, the cached resolution is the detected
        // best (the test environment does not set the variable).
        if std::env::var("PARO_KERNEL").is_err() {
            assert_eq!(d.kernel, detected());
            assert!(!d.forced);
        }
    }

    #[test]
    fn drivers_match_scalar_bit_for_bit() {
        let (m, k, n) = (5, TILE_K + 13, 11);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.37).sin()
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut want = vec![0.0f32; m * n];
        matmul_f32(Kernel::Scalar, &a, &b, &mut want, m, k, n, true);
        for kernel in Kernel::supported() {
            let mut got = vec![0.0f32; m * n];
            matmul_f32(kernel, &a, &b, &mut got, m, k, n, true);
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kernel}");
            }
        }
    }
}
