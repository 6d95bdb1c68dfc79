//! Register-tiled matrix-product kernels.
//!
//! All three public products on [`crate::Matrix`] (`NN`, `TᴺN`, `NTᵀ`) lower to
//! one row-major GEMM core, [`gemm_nn`], and it has one route for every shape:
//! it streams `B` straight from the row-major operand and tiles the output into
//! [`MR`]-row register blocks, [`WIDE`] columns across a full slab (8×32 on
//! AVX-512, 8×16 elsewhere): each block's accumulators live in vector registers
//! across the entire reduction (the row and lane loops have constant trip
//! counts, so the compiler fully unrolls them and promotes the accumulator
//! array out of memory), every loaded `B` vector is reused by all [`MR`] rows
//! of the block, and on AVX-512 every broadcast `A` element by two `B` vectors.
//! Against the naive triple loop this removes the per-step output reload/store
//! and cuts `B` traffic by `MR`×.
//!
//! Partial tiles: there is no scalar path. A full slab runs [`WIDE`]-column
//! tiles, then at most one [`NR`]-column tile, then its column remainder. A
//! tile that hangs over the edge of the output runs the full `MR × NR`
//! arithmetic on padded operands and stores only its valid corner
//! ([`padded_tile`]): `B`'s last `n % NR` columns are copied once per product
//! into a zero-padded `k × NR` panel ([`with_edge_panel`]), and the missing
//! rows of a short last slab alias its last valid row. A product therefore
//! costs exactly `⌈m/MR⌉ · ⌈n/NR⌉` tiles of `MR × NR` (a wide tile is two),
//! each at a full tile's rate.
//!
//! Transposed products ([`gemm_tn`], [`gemm_nt`]) move their smaller side:
//! they transpose either the transposed operand, or the other operand and
//! the result, whichever touches fewer elements, into per-thread scratch and
//! run the one core.
//!
//! Determinism: every output element is one chain of multiply-adds from `+0.0`
//! over its `k` terms in strictly ascending order — in a full tile, a padded
//! one, and in either form of a transposed product (a multiply-add is
//! commutative in its factors) — and output rows are partitioned disjointly
//! across threads, so results are byte-identical run to run, for any thread
//! count and whichever side was moved. On FMA targets each product is rounded
//! once (fused multiply-add), so results differ from the two-rounding naive
//! reference only at the last-ulp level — and are slightly *more* accurate.
//!
//! Threading: on multi-core hosts, products above [`PARALLEL_FLOP_THRESHOLD`]
//! multiply-adds split the output rows across the persistent worker pool
//! ([`crate::pool`]) — parked threads woken per job instead of a fresh spawn
//! per product ([`for_each_row_chunk`]). Each chunk owns a disjoint `&mut`
//! slice of the output buffer, handed off through a once-claimable slot, and
//! chunk boundaries depend only on the requested worker count, so results are
//! byte-identical at any pool size.
//!
//! Code layout is part of the tuning. The direct loops are bound by the
//! load ports, so how they are compiled decides their speed as much as what
//! they compute. The `MR × NR` loop issues one `B` vector and [`MR`]
//! broadcasts per step for eight multiply-adds. Measured on the benchmark
//! host at 32×256×256 (43 µs as that loop first shipped): kept out of line
//! it takes 54 µs, and 107 µs without first trimming its `A` rows to `k`
//! (eight bounds checks per step, `B` re-read from memory by every
//! multiply-add); and because a `Vec<f32>` is rarely 64-byte aligned, every
//! `B` load straddles two cache lines, where the loop's speed follows the
//! number of loads a step issues — 9 loads 51 µs, 10 loads 43, 11 loads 45,
//! 12 loads 58 (37–38 µs for the 9- and the 10-load loop on aligned
//! operands).
//!
//! The 8×32 loop nearly halves the loads per multiply-add: two `B` vectors
//! and eight broadcasts feed sixteen multiply-adds. Each broadcast feeds two
//! of them, so it is one `vbroadcastss` into a register rather than a
//! memory operand folded into the multiply-add, and with the same two loop
//! invariants reloaded from the stack a step issues 12 loads: 0.75 a
//! multiply-add against the 8×16 loop's 1.375. At 32.7 µs for 32×256×256 it
//! is within 5% of the host's peak of two 16-lane FMAs a cycle.
//! Single-threaded, minimum of 3000 calls over alternated processes, 8×16 →
//! 8×32: 16×192×192 12.3 → 8.9 µs, 32×256×256 44.3 → 32.7 µs, a 32-row
//! `dW` of 256×256 (`matmul_tn`) 52.9 → 36.7 µs and its `dX` (`matmul_nt`)
//! 51.0 → 34.6 µs, 150×192×192 101 → 69 µs. The wide loop needs both FMA
//! ports: in a stretch when the vCPU's core was shared with a busy sibling,
//! 32×256×256 read 47–51 µs against the narrow loop's 44–46.
//!
//! Hence the shape below: [`micro_kernel`] at both widths inlined into
//! [`gemm_row_block`], whose eight independent row pointers make the
//! compiler reload two loop invariants per step (12 loads for the wide
//! loop, 11 for the `NR`-wide one), and every partial tile through the one
//! out-of-line [`padded_tile`] (9 loads). Read all three loops in the output
//! of `cargo rustc --release -p fedft-tensor --lib -- --emit asm` and
//! re-measure before moving any of them.
//!
//! Why the width is gated on `avx512f`: the 8×32 block needs sixteen
//! accumulators of sixteen lanes plus two `B` vectors and a broadcast, which
//! fit AVX-512's thirty-two 512-bit registers. An AVX2-only build
//! (`x86-64-v3`) has sixteen 256-bit registers, where the same loop needs
//! thirty-two accumulators and spills: forced to 8×32 there, 32×256×256
//! read 61–92 → 81–135 µs, 16×192×192 18–21 → 25–34 µs and the 64×48×256
//! pretraining product 26–34 → 37–61 µs. There [`WIDE`] is [`NR`] and the
//! direct core is the 8×16 one. The width is fixed at compile time, like
//! [`mac`]'s FMA fold; nothing selects it at run time.

use std::cell::RefCell;
use std::sync::Mutex;

/// Edge of the square tiles [`transpose_into`] moves: 16 `f32` are one
/// 64-byte cache line, so a tile reads 16 source lines and fills 16
/// destination lines completely while they are resident.
const TRANSPOSE_TILE: usize = 16;

thread_local! {
    /// Grow-only home of what [`gemm_tn`] / [`gemm_nt`] move: the transposed
    /// operand and, when the smaller side is the batch, the transposed
    /// result.
    static TRANSPOSED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };

    /// Grow-only home of [`with_edge_panel`]'s panel. Its own cell: a
    /// transposed product holds [`TRANSPOSED`] borrowed across the product
    /// that builds the panel.
    static EDGE_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Register tiles this thread's direct kernel has computed.
    static TILES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Rows per register block. Tuned empirically on the AVX-512 host this
/// repo is benchmarked on: an 8×32 block's accumulators occupy sixteen
/// 512-bit registers (two per row), leaving headroom for the two `B`
/// vectors and the broadcast; more rows spill and run slower.
const MR: usize = 8;

/// Columns of the narrow register block: one 512-bit (or two 256-bit)
/// vectors of `f32`. The unit of the edge panel, of every partial tile and
/// of the tile count: a product is `⌈m/MR⌉ · ⌈n/NR⌉` blocks of `MR × NR`.
const NR: usize = 16;

/// Columns of the full tile across a full slab: `2 ·` [`NR`] where
/// AVX-512's thirty-two vector registers hold its accumulators, [`NR`]
/// elsewhere (the module docs measure both).
const WIDE: usize = if cfg!(target_feature = "avx512f") {
    2 * NR
} else {
    NR
};

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

/// `out = a · b` for row-major `a` (`m×k`), `b` (`k×n`) and `out` (`m×n`).
/// Every element of `out` is overwritten when `k > 0`; an empty reduction
/// writes nothing, so callers hand in a zero-filled `out` for that case.
///
/// Register blocking only: each [`MR`]-row slab runs through
/// [`gemm_row_block`], reading `B` from the row-major operand and its column
/// remainder from the [`with_edge_panel`] panel; above
/// [`PARALLEL_FLOP_THRESHOLD`] the slabs are split across the pool
/// ([`for_each_row_chunk`]).
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
    with_edge_panel(k, n, b, |edge| {
        let threads = max_threads(m, k, n);
        for_each_row_chunk(m, threads, a, k, out, n, |a_chunk, out_chunk| {
            let slabs = a_chunk.chunks(MR * k).zip(out_chunk.chunks_mut(MR * n));
            for (a_block, out_block) in slabs {
                gemm_row_block(k, n, a_block, b, edge, out_block);
            }
        });
    });
}

/// Resizes a grow-only scratch buffer. Contents are overwritten before use
/// (by the transposes and the edge panel), so nothing is zeroed beyond what
/// growing writes.
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
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

/// Runs `f` on this thread's reused [`TRANSPOSED`] buffer, split into a
/// `moved`-long and a `result`-long part: steady-state callers allocate
/// nothing. Contents are whatever the last product left there.
fn with_transposed<R>(
    moved: usize,
    result: usize,
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    TRANSPOSED.with(|cell| {
        let buf = &mut *cell.borrow_mut();
        ensure_len(buf, moved + result);
        let (moved, rest) = buf.split_at_mut(moved);
        f(moved, &mut rest[..result])
    })
}

/// [`gemm_nn`] on `aᵀ`: `a` is stored `k × m` (`dW = Xᵀ·dY`). A transposed
/// product moves its smaller side: when transposing `b` and the result
/// touches fewer elements than transposing `a` (`n·(k+m) < m·k` — a
/// classifier head's `dW`), it computes `outᵀ = bᵀ·a`, reading `a` as stored;
/// otherwise it materialises `aᵀ`. Either way the moved operand goes once per
/// call into reused scratch and the product runs on the one GEMM core. Both
/// forms give every element the same ascending-`k` chain — a fused
/// multiply-add is commutative in its factors — so the result is that of
/// `gemm_nn` on an explicit transpose, bit for bit, whichever side moved.
pub(crate) fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if n.saturating_mul(k.saturating_add(m)) < m.saturating_mul(k) {
        with_transposed(k * n, n * m, |bt, out_t| {
            transpose_into(k, n, b, bt);
            gemm_nn(n, k, m, bt, a, out_t);
            transpose_into(n, m, out_t, out);
        });
    } else {
        with_transposed(k * m, 0, |at, _| {
            transpose_into(k, m, a, at);
            gemm_nn(m, k, n, at, b, out);
        });
    }
}

/// [`gemm_nn`] on `bᵀ`: `b` is stored `n × k` (`dX = dY·Wᵀ`). Computes
/// `outᵀ = b·aᵀ` — transposing the batch-sized `a` and the result instead of
/// the weight — when `m·(k+n) < n·k`; otherwise materialises `bᵀ`. See
/// [`gemm_tn`].
pub(crate) fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if m.saturating_mul(k.saturating_add(n)) < n.saturating_mul(k) {
        with_transposed(m * k, n * m, |at, out_t| {
            transpose_into(m, k, a, at);
            gemm_nn(n, k, m, b, at, out_t);
            transpose_into(n, m, out_t, out);
        });
    } else {
        with_transposed(n * k, 0, |bt, _| {
            transpose_into(n, k, b, bt);
            gemm_nn(m, k, n, a, bt, out);
        });
    }
}

/// Runs `f` on the edge panel of `b` (`k × n`): its last `n % NR` columns,
/// copied once per product into a zero-padded `k × NR` panel in this thread's
/// reused [`EDGE_PANEL`] buffer, so the column remainder of every row block
/// reads full `NR`-wide vectors. Empty when `NR` divides `n`.
fn with_edge_panel<R>(k: usize, n: usize, b: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    let cw = n % NR;
    if cw == 0 {
        return f(&[]);
    }
    EDGE_PANEL.with(|cell| {
        let buf = &mut *cell.borrow_mut();
        ensure_len(buf, k * NR);
        let panel = &mut buf[..k * NR];
        for (dst, src) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..cw].copy_from_slice(&src[n - cw..]);
            dst[cw..].fill(0.0);
        }
        f(panel)
    })
}

/// Runs `body` on every `(A rows, C rows)` chunk of a row-partitioned
/// product (`a` is `m × k`, `out` is `m × n`): the whole product inline for
/// one thread, otherwise contiguous chunks of
/// [`crate::pool::aligned_chunk_len`] rows — multiples of the register block
/// [`MR`], so only the last chunk carries a short slab — dispatched on
/// the persistent pool. Each chunk's disjoint operand and output slices sit
/// in a once-claimable slot; the slot index is the chunk's row range divided
/// by the (identical) pool chunk length.
fn for_each_row_chunk(
    m: usize,
    threads: usize,
    a: &[f32],
    k: usize,
    out: &mut [f32],
    n: usize,
    body: impl Fn(&[f32], &mut [f32]) + Sync,
) {
    if threads <= 1 {
        body(a, out);
        return;
    }
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
        body(a_chunk, out_chunk);
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

/// Computes one slab of up to `MR` output rows, tile by tile. A full slab
/// runs [`WIDE`]-column tiles on [`micro_kernel`], then at most one
/// [`NR`]-column one; everything partial — the column remainder, read from
/// the edge panel, and every tile of a short last slab — is a
/// [`padded_tile`]. The missing rows of a short slab alias its last valid
/// row: read and multiplied like any other, never stored, so nothing is
/// copied to fill the tile.
fn gemm_row_block(
    k: usize,
    n: usize,
    a_block: &[f32],
    b: &[f32],
    edge: &[f32],
    out_block: &mut [f32],
) {
    let rw = out_block.len() / n;
    let mut a_rows: [&[f32]; MR] = [&[]; MR];
    for (r, row) in a_rows.iter_mut().enumerate() {
        let r = r.min(rw - 1);
        *row = &a_block[r * k..(r + 1) * k];
    }
    let j_main = n - n % NR;
    if rw == MR {
        let j_wide = j_main - j_main % WIDE;
        for j0 in (0..j_wide).step_by(WIDE) {
            micro_kernel::<WIDE>(k, n, &a_rows, b, j0, out_block);
        }
        if j_wide < j_main {
            micro_kernel::<NR>(k, n, &a_rows, b, j_wide, out_block);
        }
    } else {
        for j0 in (0..j_main).step_by(NR) {
            padded_tile(k, n, &a_rows, b, j0, n, j0, rw, NR, out_block);
        }
    }
    if j_main < n {
        padded_tile(
            k,
            NR,
            &a_rows,
            edge,
            0,
            n,
            j_main,
            rw,
            n - j_main,
            out_block,
        );
    }
}

/// The register micro-kernel: accumulates the `MR × W` output block at
/// column `j0` over the full reduction. All loops over rows and lanes have
/// constant bounds, so the accumulators are promoted to vector registers;
/// each `k` step costs `W / NR` `B` vector loads and `MR · W / NR` broadcast
/// multiply-adds. Run at `W =` [`WIDE`] across a full slab and at `W =`
/// [`NR`] for a column remainder of at least `NR`.
#[inline]
fn micro_kernel<const W: usize>(
    k: usize,
    n: usize,
    a_rows: &[&[f32]; MR],
    b: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    #[cfg(test)]
    TILES.with(|tiles| tiles.set(tiles.get() + W / NR));
    let mut acc = [[0.0f32; W]; MR];
    for kk in 0..k {
        let bv: &[f32; W] = b[kk * n + j0..kk * n + j0 + W]
            .try_into()
            .expect("slice length is W by construction");
        for r in 0..MR {
            let s = a_rows[r][kk];
            for l in 0..W {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + W].copy_from_slice(acc_row);
    }
}

/// Every partial tile: the `MR × NR` arithmetic of
/// [`micro_kernel`]`::<NR>` on padded operands, of which only the valid
/// `rw × cw` corner is stored at column `j0` of `out` (row stride `n`). `b`
/// is read from column `jb` with row stride `ldb` — the operand itself for a
/// short row block, the zero-padded [`with_edge_panel`] panel (`ldb = NR`,
/// `jb = 0`) for the column remainder. Rows `rw..` of `a_rows` alias a valid row. What the
/// padding computes — a duplicate row, a `0 · b` lane, even the NaN of a
/// `0 · ∞` — stays in the accumulator and never reaches `out`.
///
/// Out of line on purpose, and a function of its own rather than a mode of
/// [`micro_kernel`], so that the full-tile loop is compiled on its own terms
/// (see the module docs). Trimming the rows to `k` up front is what lets the
/// reduction loop drop its per-row bounds checks and keep the `B` vector in
/// a register, like the main kernel's.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn padded_tile(
    k: usize,
    ldb: usize,
    a_rows: &[&[f32]; MR],
    b: &[f32],
    jb: usize,
    n: usize,
    j0: usize,
    rw: usize,
    cw: usize,
    out: &mut [f32],
) {
    #[cfg(test)]
    TILES.with(|tiles| tiles.set(tiles.get() + 1));
    let mut rows: [&[f32]; MR] = [&[]; MR];
    for (trimmed, row) in rows.iter_mut().zip(a_rows) {
        *trimmed = &row[..k];
    }
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bv: &[f32; NR] = b[kk * ldb + jb..kk * ldb + jb + NR]
            .try_into()
            .expect("slice length is NR by construction");
        for r in 0..MR {
            let s = rows[r][kk];
            for l in 0..NR {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rw) {
        out[r * n + j0..r * n + j0 + cw].copy_from_slice(&acc_row[..cw]);
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

    /// The definition every tile is held to: each element one chain of
    /// [`mac`] steps from `+0.0` over ascending `k`, one element at a time.
    fn gemm_chain(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = mac(acc, a[i * k + kk], b[kk * n + j]);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `gemm_nn` into a destination that arrives full of NaN (zero-filled,
    /// as the contract requires, only for an empty reduction), with the
    /// number of register tiles this thread's direct kernel computed.
    fn run_counting_tiles(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> (Vec<f32>, usize) {
        let mut out = vec![if k == 0 { 0.0 } else { f32::NAN }; m * n];
        let before = TILES.with(std::cell::Cell::get);
        gemm_nn(m, k, n, a, b, &mut out);
        (out, TILES.with(std::cell::Cell::get) - before)
    }

    #[test]
    fn every_tile_remainder_equals_the_scalar_chain_bit_for_bit() {
        // Every row remainder of up to two slabs and a row, every column
        // remainder of up to four tiles and a column — so every mix of wide,
        // `NR`-wide and padded tiles meets every short slab — reductions
        // around the empty, the single and the odd: one tile function or the
        // other computes each of the ⌈m/MR⌉·⌈n/NR⌉ tiles (a wide tile counts
        // as `WIDE / NR` of them), and nothing else runs.
        for m in 0..=2 * MR + 1 {
            for n in 0..=4 * NR + 1 {
                for k in [0, 1, 2, 7, 32, 33] {
                    let a = pattern(m * k, 7);
                    let b = pattern(k * n, 8);
                    let (out, tiles) = run_counting_tiles(m, k, n, &a, &b);
                    let context = format!("shape ({m},{k},{n})");
                    assert_eq!(bits(&out), bits(&gemm_chain(m, k, n, &a, &b)), "{context}");
                    let expected = if k == 0 {
                        0
                    } else {
                        m.div_ceil(MR) * n.div_ceil(NR)
                    };
                    assert_eq!(tiles, expected, "tiles of {context}");
                }
            }
        }
    }

    #[test]
    fn thin_and_routed_products_equal_the_scalar_chain_on_either_side_of_the_route() {
        // Large products, each above the parallel threshold, from 10 columns
        // to 64: one route serves them all. Single-threaded, each counts
        // exactly its ⌈m/MR⌉·⌈n/NR⌉ register tiles, so no other kernel ran;
        // pooled or not, every element is the scalar chain.
        for (m, k, n) in [(4200, 400, 10), (1100, 256, 63), (1100, 256, 64)] {
            assert!(m * k * n >= PARALLEL_FLOP_THRESHOLD);
            let a = pattern(m * k, 9);
            let b = pattern(k * n, 10);
            let expected = bits(&gemm_chain(m, k, n, &a, &b));
            let context = format!("shape ({m},{k},{n})");

            // Pooled where the host has the cores: the workers' tiles are
            // theirs to count, the result is everyone's.
            let (pooled, _) = run_counting_tiles(m, k, n, &a, &b);
            assert_eq!(bits(&pooled), expected, "{context}, pooled");

            let (single, tiles) =
                crate::parallel::single_threaded(|| run_counting_tiles(m, k, n, &a, &b));
            assert_eq!(bits(&single), expected, "{context}, single-threaded");
            assert_eq!(tiles, m.div_ceil(MR) * n.div_ceil(NR), "{context}");
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
