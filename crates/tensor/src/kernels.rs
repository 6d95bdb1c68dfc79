//! Cache-blocked, register-tiled matrix-product kernels.
//!
//! All three public products on [`crate::Matrix`] (`NN`, `TᴺN`, `NTᵀ`) lower
//! to one row-major GEMM core, [`gemm_nn`], which dispatches by size: large
//! products go through the packed-panel GEBP core in [`crate::packed`]
//! (cache-blocked, runtime-tuned — see that module), small ones stay on the
//! direct kernel in this module. The direct core tiles the output into
//! [`MR`]`×`[`NR`] register blocks: each block's accumulators live in vector
//! registers across the entire reduction (the row and lane loops have
//! constant trip counts, so the compiler fully unrolls them and promotes the
//! accumulator array out of memory), and every loaded `B` vector is reused
//! by all [`MR`] rows of the block. Against the naive triple loop this
//! removes the per-step output reload/store and cuts `B` traffic by `MR`×.
//!
//! Determinism: every output element accumulates its `k` terms in strictly
//! ascending order, and output rows are partitioned disjointly across
//! threads, so results are byte-identical run to run and for any thread
//! count. On FMA targets each product is rounded once (fused
//! multiply-add), so results differ from the two-rounding naive reference
//! only at the last-ulp level — and are slightly *more* accurate.
//!
//! Threading: on multi-core hosts, products above [`PARALLEL_FLOP_THRESHOLD`]
//! multiply-adds split the output rows across the persistent worker pool
//! ([`crate::pool`]) — parked threads woken per job instead of a fresh
//! spawn per product. Each chunk owns a disjoint `&mut` slice of the output
//! buffer, handed off through a once-claimable slot, and chunk boundaries
//! depend only on the requested worker count, so results are byte-identical
//! at any pool size.

use std::cell::RefCell;
use std::sync::Mutex;

/// Edge of the square tiles [`transpose_into`] moves: 16 `f32` are one
/// 64-byte cache line, so a tile reads 16 source lines and fills 16
/// destination lines completely while they are resident.
const TRANSPOSE_TILE: usize = 16;

thread_local! {
    /// Grow-only home of the transposed operand of [`gemm_tn`] / [`gemm_nt`].
    /// Its own cell, not [`crate::pool::with_scratch`]: the packed core
    /// borrows that arena for `A` panels while the transposed operand is
    /// still being read.
    static TRANSPOSED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows per register block. Tuned empirically on the AVX-512 host this
/// repo is benchmarked on: 8×16 accumulators occupy sixteen 256-bit
/// registers (one 512-bit register per row), leaving headroom for the `B`
/// vectors and broadcasts; larger blocks spill and run slower.
const MR: usize = 8;

/// Columns per register block.
const NR: usize = 16;

/// Minimum multiply-add count before the row-parallel path is worth the
/// dispatch overhead. Historically set against the ~10 µs/thread cost of a
/// fresh `thread::scope` spawn; the pooled wake is far cheaper, but the
/// threshold also guards the cache-sharing cost of splitting a product that
/// one core's private caches could serve, so it stays.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 22;

/// One multiply-accumulate step.
///
/// On targets with hardware FMA (guaranteed by the workspace's
/// `-C target-cpu=native` in `.cargo/config.toml` on x86-64) this fuses into
/// a single instruction with one rounding, which both doubles arithmetic
/// throughput and improves accuracy. The `cfg!` folds at compile time, so
/// non-FMA targets keep the plain multiply-add instead of calling the slow
/// `fmaf` soft-float routine.
#[inline(always)]
fn mac(acc: f32, s: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        s.mul_add(b, acc)
    } else {
        acc + s * b
    }
}

/// `out[i][j] += Σ_k a[i][k] · b[k][j]` for row-major `a` (`m×k`), `b`
/// (`k×n`) and zero-initialised `out` (`m×n`).
///
/// Dispatch: products at or above [`crate::packed::PACKED_FLOP_THRESHOLD`]
/// multiply-adds route through the packed-panel GEBP core
/// ([`crate::packed`]), which repacks both operands into cache-blocked
/// panels; smaller products keep the direct kernel below, whose dispatch
/// cost is one branch. Both paths accumulate every output element in
/// strictly ascending `k` order, so the choice never changes a single bit
/// of the result.
///
/// # Panics
///
/// Debug-asserts the buffer lengths; callers (the `Matrix` products) validate
/// shapes before dispatching.
pub(crate) fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops >= crate::packed::PACKED_FLOP_THRESHOLD {
        crate::packed::gemm_packed(m, k, n, a, b, out, max_threads(m, k, n));
        return;
    }
    gemm_nn_direct(m, k, n, a, b, out);
}

/// Writes the transpose of row-major `src` (`rows × cols`) into `dst`
/// (`cols × rows`), one [`TRANSPOSE_TILE`]-square tile at a time. A plain
/// row sweep stores one float into each of `cols` destination lines and
/// moves on, so every line is fetched again for each of its sixteen floats
/// once the destination outgrows L1: 155 µs for a 256×256 operand on the
/// benchmark host, four times the product it fed, against 37 µs tiled
/// (both including the result's allocation). Pure data movement — every
/// element lands where the plain sweep puts it.
pub(crate) fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source length");
    assert_eq!(dst.len(), rows * cols, "transpose destination length");
    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let r1 = (r0 + TRANSPOSE_TILE).min(rows);
        for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let c1 = (c0 + TRANSPOSE_TILE).min(cols);
            for r in r0..r1 {
                for (c, &v) in (c0..c1).zip(&src[r * cols + c0..r * cols + c1]) {
                    dst[c * rows + r] = v;
                }
            }
        }
    }
}

/// Runs `f` on the transpose of `src` (`rows × cols`), held in this thread's
/// reused [`TRANSPOSED`] buffer: steady-state callers allocate nothing.
fn with_transposed<R>(rows: usize, cols: usize, src: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    TRANSPOSED.with(|cell| {
        let buf = &mut *cell.borrow_mut();
        if buf.len() < src.len() {
            buf.resize(src.len(), 0.0);
        }
        transpose_into(rows, cols, src, &mut buf[..src.len()]);
        f(&buf[..src.len()])
    })
}

/// [`gemm_nn`] on `aᵀ`: `a` is stored `k × m`. The transposed operand is
/// materialised once per call into reused scratch and the product runs on
/// the one GEMM core, so the result is that of `gemm_nn` on an explicit
/// transpose, bit for bit.
pub(crate) fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    with_transposed(k, m, a, |at| gemm_nn(m, k, n, at, b, out));
}

/// [`gemm_nn`] on `bᵀ`: `b` is stored `n × k`. See [`gemm_tn`].
pub(crate) fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    with_transposed(n, k, b, |bt| gemm_nn(m, k, n, a, bt, out));
}

/// The direct (non-packing) kernel: register blocking only, `B` streamed
/// from the row-major operand. Public within the crate so the packed core's
/// bit-identity tests can pin packed ≡ direct explicitly.
pub(crate) fn gemm_nn_direct(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = max_threads(m, k, n);
    if threads <= 1 {
        gemm_rows(k, n, a, b, out);
        return;
    }

    // Split output rows into contiguous per-worker chunks (multiples of the
    // register block so only the last chunk carries a remainder block) and
    // dispatch them on the persistent pool. Each chunk's disjoint operand
    // and output slices sit in a once-claimable slot; the slot index is the
    // chunk's row range divided by the (identical) pool chunk length.
    let chunk_rows = crate::pool::aligned_chunk_len(m, threads, MR);
    let slots: Vec<ChunkSlot> = out
        .chunks_mut(chunk_rows * n)
        .enumerate()
        .map(|(chunk_idx, out_chunk)| {
            let row0 = chunk_idx * chunk_rows;
            let rows = out_chunk.len() / n;
            Mutex::new(Some((&a[row0 * k..(row0 + rows) * k], out_chunk)))
        })
        .collect();
    crate::pool::run_aligned_chunks(m, threads, MR, |rows| {
        let (a_chunk, out_chunk) = slots[rows.start / chunk_rows]
            .lock()
            .expect("row chunk slot lock")
            .take()
            .expect("each row chunk is claimed exactly once");
        gemm_rows(k, n, a_chunk, b, out_chunk);
    });
}

/// A once-claimable `(A rows, C rows)` slice pair for one pool chunk of a
/// row-partitioned product.
type ChunkSlot<'a> = Mutex<Option<(&'a [f32], &'a mut [f32])>>;

/// Decides the worker count for a product of the given shape.
fn max_threads(m: usize, k: usize, n: usize) -> usize {
    if crate::parallel::is_single_threaded() {
        // A caller (e.g. a parallel round executor) already owns the cores.
        return 1;
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    crate::pool::hardware_threads().min(m.div_ceil(MR))
}

/// Sequential GEMM over a row slice of the output: `a` holds `rows × k`
/// values, `out` holds `rows × n`.
fn gemm_rows(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let rows = out.len() / n;
    let main = rows - rows % MR;
    for (a_block, out_block) in a
        .chunks_exact(MR * k)
        .zip(out.chunks_exact_mut(MR * n))
        .take(main / MR)
    {
        gemm_row_block(k, n, a_block, b, out_block);
    }
    for (a_row, out_row) in a[main * k..]
        .chunks_exact(k)
        .zip(out[main * n..].chunks_exact_mut(n))
    {
        gemm_single_row(k, n, a_row, b, out_row);
    }
}

/// Computes an `MR`-row slab of the output: full-width register blocks, then
/// one narrower remainder block.
fn gemm_row_block(k: usize, n: usize, a_block: &[f32], b: &[f32], out_block: &mut [f32]) {
    let mut a_rows: [&[f32]; MR] = [&[]; MR];
    for (r, row) in a_rows.iter_mut().enumerate() {
        *row = &a_block[r * k..(r + 1) * k];
    }
    let j_main = n - n % NR;
    for j0 in (0..j_main).step_by(NR) {
        micro_kernel(k, n, &a_rows, b, j0, out_block);
    }
    if j_main < n {
        micro_kernel_edge(k, n, &a_rows, b, j_main, out_block);
    }
}

/// The register micro-kernel: accumulates the `MR × NR` output block at
/// column `j0` over the full reduction. All loops over rows and lanes have
/// constant bounds, so the accumulators are promoted to vector registers;
/// each `k` step costs two `B` vector loads and `MR` broadcast multiply-adds.
#[inline]
fn micro_kernel(k: usize, n: usize, a_rows: &[&[f32]; MR], b: &[f32], j0: usize, out: &mut [f32]) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bv: &[f32; NR] = b[kk * n + j0..kk * n + j0 + NR]
            .try_into()
            .expect("slice length is NR by construction");
        for r in 0..MR {
            let s = a_rows[r][kk];
            for l in 0..NR {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_row);
    }
}

/// Remainder columns (`n % NR`) of an `MR`-row slab, ascending-`k` per
/// element like every other path.
fn micro_kernel_edge(
    k: usize,
    n: usize,
    a_rows: &[&[f32]; MR],
    b: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    let jw = n - j0;
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bv = &b[kk * n + j0..kk * n + j0 + jw];
        for r in 0..MR {
            let s = a_rows[r][kk];
            for (al, &bl) in acc[r][..jw].iter_mut().zip(bv) {
                *al = mac(*al, s, bl);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + jw].copy_from_slice(&acc_row[..jw]);
    }
}

/// Fallback for the `rows % MR` remainder rows: one output row at a time,
/// four reduction steps fused per pass to limit output-row traffic.
fn gemm_single_row(k: usize, n: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let k_main = k - k % 4;
    for kk in (0..k_main).step_by(4) {
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        let (s0, s1, s2, s3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        for j in 0..n {
            // Nested ascending-k accumulation, fused per step.
            out_row[j] = mac(
                mac(mac(mac(out_row[j], s0, b0[j]), s1, b1[j]), s2, b2[j]),
                s3,
                b3[j],
            );
        }
    }
    for kk in k_main..k {
        let brow = &b[kk * n..kk * n + n];
        let s = a_row[kk];
        for (oj, &bj) in out_row.iter_mut().zip(brow) {
            *oj = mac(*oj, s, bj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference triple loop, ascending `k` per element.
    fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let s = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += s * b[kk * n + j];
                }
            }
        }
        out
    }

    fn pattern(len: usize, seed: u32) -> Vec<f32> {
        // Low-entropy but non-trivial deterministic values.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    }

    /// FMA builds round each product once instead of twice, so the tiled
    /// result can drift from the two-rounding naive reference by a few ulps
    /// per reduction step; the addition sequence itself is identical.
    fn assert_close(actual: &[f32], expected: &[f32], context: &str) {
        assert_eq!(actual.len(), expected.len(), "{context}");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() <= 1e-5,
                "{context}: element {i} differs: {a} vs {e}"
            );
        }
    }

    #[test]
    fn tiled_matches_naive_reference_on_awkward_shapes() {
        // Shapes straddling every remainder case of the register blocking.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 2),
            (3, 5, 7),
            (4, 4, 4),
            (5, 6, 9),
            (7, 13, 3),
            (8, 8, 8),
            (9, 17, 11),
            (8, 8, 32),
            (8, 8, 33),
            (16, 1, 16),
            (1, 16, 33),
            (17, 9, 37),
            (40, 40, 40),
        ] {
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            let expected = gemm_naive(m, k, n, &a, &b);
            assert_close(&out, &expected, &format!("shape ({m},{k},{n})"));
        }
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut out = vec![];
        gemm_nn(0, 3, 3, &[], &pattern(9, 0), &mut out);
        let mut out2 = vec![0.0; 9];
        gemm_nn(3, 0, 3, &[], &[], &mut out2);
        assert!(out2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn large_product_crosses_the_parallel_threshold_and_matches() {
        // 192³ > 2²² multiply-adds, so this exercises the threaded path on
        // multi-core hosts (and the sequential path on single-core ones —
        // both must produce the same ascending-k result).
        let (m, k, n) = (192, 192, 192);
        let a = pattern(m * k, 3);
        let b = pattern(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut out);
        assert_close(&out, &gemm_naive(m, k, n, &a, &b), "192^3");
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        // Determinism: the kernel must give byte-identical results run to
        // run, for any thread count — rows are partitioned, never reduced
        // across threads.
        let (m, k, n) = (64, 96, 80);
        let a = pattern(m * k, 5);
        let b = pattern(k * n, 6);
        let mut first = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut again);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn thread_count_respects_shape_and_threshold() {
        assert_eq!(max_threads(8, 8, 8), 1, "tiny products stay sequential");
        let big = max_threads(4096, 4096, 4096);
        assert!(big >= 1);
        assert!(big <= 4096 / MR);
    }
}
