//! Packed-panel (BLIS-style GEBP) GEMM core for large products.
//!
//! The direct kernel in [`crate::kernels`] streams `B` straight from the
//! row-major operand: each output tile re-reads its `B` columns with
//! an `n`-element stride, so once the working set leaves L1/L2 the kernel is
//! memory-bound. This module removes that wall the standard way:
//!
//! * `B` is repacked into **column panels** — [`NR_P`]-wide, `KC`-deep slabs
//!   laid out so the micro-kernel reads them contiguously;
//! * `A` is repacked into **row panels** — [`MR_P`]-tall, `KC`-deep slabs in
//!   reduction-major order, so the broadcast loads are contiguous too;
//! * the reduction is blocked by `KC` and the output by `MC`/`NC`, all three
//!   chosen at runtime from the detected cache sizes ([`crate::cache`]).
//!
//! There is one micro-tile, [`MR_P`]`×`[`NR_P`], and one route into this
//! module: `kernels::gemm_nn` sends products of at least
//! [`PACKED_FLOP_THRESHOLD`] multiply-adds and at least [`PACKED_MIN_COLS`]
//! columns here and keeps the rest — the small and the thin — on the direct
//! kernel. Tile shape never affects results — only which registers hold
//! which partial sums.
//!
//! # Determinism contract
//!
//! Every output element accumulates its `k` terms in strictly ascending
//! order, exactly like the direct kernel and the naive oracle: the
//! micro-kernel zero-initialises its register tile on the first reduction
//! block and *reloads the partial sums from `C`* on subsequent blocks, so a
//! blocked reduction is the same fused-multiply-add chain as an unblocked
//! one (storing and reloading an `f32` is exact). Output rows are
//! partitioned disjointly across threads. Results are therefore
//! byte-identical between the packed path, the direct kernel, and any
//! thread count — the property the `learning_history()` and feature-cache
//! bit-identity contracts depend on — and the tests below pin it.
//!
//! # Scratch reuse
//!
//! Packing buffers are thread-local and grow-only, so steady-state calls on
//! the hot path allocate nothing — on *every* thread. The packed `B` buffer
//! lives in this module's thread-local (only the dispatching thread packs
//! `B`; workers read it shared). The `A`-packing scratch is each thread's
//! [`crate::pool::with_scratch`] arena: pool workers are persistent, so the
//! arena a worker grew for one product is still allocated for the next —
//! the threaded path no longer allocates per dispatch the way the old
//! spawn-per-call path allocated per spawn.

use crate::cache;
use crate::pool;
use std::cell::RefCell;

/// Rows per packed micro-tile. 12×32 holds twenty-four 512-bit accumulators
/// (12 rows × two lanes) plus the two `B` vectors and one broadcast — 27 of
/// the 32 zmm registers, the deepest tile that doesn't spill. The tall tile
/// maximises `B`-vector reuse (each loaded lane feeds 12 FMAs), which is
/// what a measured sweep on the AVX-512 benchmark hosts rewards: 12×32 and
/// 6×64 came out 25–30% ahead of 4×64, while 8×48, 14×32 and 16×32
/// mis-vectorise or spill catastrophically (see `kernels.rs` for the tuning
/// discipline — re-measure before touching either constant).
pub(crate) const MR_P: usize = 12;

/// Columns per packed micro-tile (two 512-bit lanes of `f32`).
pub(crate) const NR_P: usize = 32;

/// Minimum multiply-add count before the packed path beats the direct
/// kernel. Below this the packing traffic and wider edge tiles cost more
/// than the panel locality buys: the measured crossover on the tuned host
/// is ≈256³ (the direct kernel wins 128³ by ~3%, loses 320³ by ~16%).
pub(crate) const PACKED_FLOP_THRESHOLD: usize = 1 << 24;

/// Minimum column count before the packed path beats the direct kernel,
/// whatever the multiply-add count. A thin product reads `A` about once on
/// either path, so packing it is a second pass over the big operand that no
/// panel reuse pays back, and a last panel narrower than [`NR_P`] still
/// computes all of its lanes. Measured on the tuned host at `m = 10 000`,
/// `k ∈ {96, 256, 1024}`, single-threaded and pooled (packed time over
/// direct time): 3.8–8.0 at `n ≤ 16`, 1.3–2.4 at 32, 1.8–2.7 at 48, 1.4–2.2
/// at 63, 0.93–1.6 at 64, and packed ahead at 128 (0.80–0.87; 1.03 and 1.11
/// at the two corners of the sweep where it is not).
pub(crate) const PACKED_MIN_COLS: usize = 2 * NR_P;

thread_local! {
    /// Grow-only packed-`B` scratch of the dispatching thread. Kept apart
    /// from the pool's `A` arena so a dispatcher can hold its `B` buffer
    /// borrowed across a pool fan-out while every executing thread
    /// (including the dispatcher itself) borrows its own `A` arena.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Resizes a grow-only scratch buffer. Contents are overwritten before use
/// (by packing here, by the transposes and the edge panel in
/// [`crate::kernels`]), so nothing is zeroed beyond what growing writes.
pub(crate) fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs the `B` block `rows kc0..kc0+kc × cols nc0..nc0+ncw` into `NR_P`-wide
/// column panels: panel `jp` holds columns `nc0 + jp*NR_P ..`, laid out
/// reduction-major (`panel[kk*NR_P + l]`). The last panel zero-pads its
/// missing columns so the micro-kernel always reads full vectors; padded
/// lanes never reach `C`.
fn pack_b(b: &[f32], n: usize, kc0: usize, kc: usize, nc0: usize, ncw: usize, out: &mut [f32]) {
    let npanels = ncw.div_ceil(NR_P);
    for jp in 0..npanels {
        let j0 = nc0 + jp * NR_P;
        let jw = NR_P.min(nc0 + ncw - j0);
        let panel = &mut out[jp * kc * NR_P..(jp + 1) * kc * NR_P];
        if jw == NR_P {
            for (kk, dst) in panel.chunks_exact_mut(NR_P).enumerate() {
                let src = (kc0 + kk) * n + j0;
                dst.copy_from_slice(&b[src..src + NR_P]);
            }
        } else {
            panel.fill(0.0);
            for (kk, dst) in panel.chunks_exact_mut(NR_P).enumerate() {
                let src = (kc0 + kk) * n + j0;
                dst[..jw].copy_from_slice(&b[src..src + jw]);
            }
        }
    }
}

/// Packs the `A` block `rows i0..i0+mw × cols kc0..kc0+kc` into `MR_P`-tall
/// row panels, reduction-major (`panel[kk*MR_P + r]`). The last panel zero-pads
/// its missing rows; the padded rows' results are computed but never stored.
fn pack_a(a: &[f32], k: usize, i0: usize, mw: usize, kc0: usize, kc: usize, out: &mut [f32]) {
    let mpanels = mw.div_ceil(MR_P);
    for ip in 0..mpanels {
        let r0 = i0 + ip * MR_P;
        let rw = MR_P.min(i0 + mw - r0);
        let panel = &mut out[ip * kc * MR_P..(ip + 1) * kc * MR_P];
        if rw < MR_P {
            panel.fill(0.0);
        }
        for r in 0..rw {
            let row = &a[(r0 + r) * k + kc0..(r0 + r) * k + kc0 + kc];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * MR_P + r] = v;
            }
        }
    }
}

/// One multiply-accumulate step; see `kernels::mac`.
#[inline(always)]
fn mac(acc: f32, s: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        s.mul_add(b, acc)
    } else {
        acc + s * b
    }
}

/// The packed register micro-kernel: a full `MR_P × NR_P` output tile at
/// `out[0..MR_P rows × n stride]`, accumulated over one `kc`-deep reduction
/// block from contiguous panels. `first` selects zero-init (first reduction
/// block) versus reloading the partial sums from `C` — the store/reload
/// keeps the per-element FMA chain identical to an unblocked reduction.
///
/// The accumulator is a local array with constant-bound loops so the
/// compiler promotes it to vector registers; passing it by reference
/// defeats that promotion and is ~15× slower.
#[inline]
fn micro_kernel(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    n: usize,
    out: &mut [f32],
    first: bool,
) {
    let mut acc = [[0.0f32; NR_P]; MR_P];
    if !first {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let src: &[f32; NR_P] = out[r * n..r * n + NR_P]
                .try_into()
                .expect("slice length is NR_P by construction");
            *acc_row = *src;
        }
    }
    for kk in 0..kc {
        let bv: &[f32; NR_P] = b_panel[kk * NR_P..(kk + 1) * NR_P]
            .try_into()
            .expect("slice length is NR_P by construction");
        let av: &[f32; MR_P] = a_panel[kk * MR_P..(kk + 1) * MR_P]
            .try_into()
            .expect("slice length is MR_P by construction");
        for r in 0..MR_P {
            let s = av[r];
            for l in 0..NR_P {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..r * n + NR_P].copy_from_slice(acc_row);
    }
}

/// Edge variant for partial tiles (`mw < MR_P` and/or `nw < NR_P`): loads
/// and stores only the valid `mw × nw` corner while computing the full
/// padded tile (the panels' zero padding makes the extra lanes inert — they
/// are discarded, so even a NaN-producing `0 × ∞` in a padded lane cannot
/// leak into `C`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_edge(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    n: usize,
    mw: usize,
    nw: usize,
    out: &mut [f32],
    first: bool,
) {
    let mut acc = [[0.0f32; NR_P]; MR_P];
    if !first {
        for (r, acc_row) in acc.iter_mut().enumerate().take(mw) {
            acc_row[..nw].copy_from_slice(&out[r * n..r * n + nw]);
        }
    }
    for kk in 0..kc {
        let bv: &[f32; NR_P] = b_panel[kk * NR_P..(kk + 1) * NR_P]
            .try_into()
            .expect("slice length is NR_P by construction");
        let av: &[f32; MR_P] = a_panel[kk * MR_P..(kk + 1) * MR_P]
            .try_into()
            .expect("slice length is MR_P by construction");
        for r in 0..MR_P {
            let s = av[r];
            for l in 0..NR_P {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(mw) {
        out[r * n..r * n + nw].copy_from_slice(&acc_row[..nw]);
    }
}

/// Sweeps one packed `A` block (rows `i0..i0+mw`, local to `a_pack`) against
/// one packed `B` block (columns `nc0..nc0+ncw`), accumulating into `out`
/// (full `m × n`, absolute indices).
#[allow(clippy::too_many_arguments)]
fn sweep_block(
    a_pack: &[f32],
    b_pack: &[f32],
    kc: usize,
    n: usize,
    i0: usize,
    mw: usize,
    nc0: usize,
    ncw: usize,
    out: &mut [f32],
    first: bool,
) {
    let mpanels = mw.div_ceil(MR_P);
    let npanels = ncw.div_ceil(NR_P);
    for ip in 0..mpanels {
        let r0 = i0 + ip * MR_P;
        let rw = MR_P.min(i0 + mw - r0);
        let a_panel = &a_pack[ip * kc * MR_P..(ip + 1) * kc * MR_P];
        for jp in 0..npanels {
            let j0 = nc0 + jp * NR_P;
            let jw = NR_P.min(nc0 + ncw - j0);
            let b_panel = &b_pack[jp * kc * NR_P..(jp + 1) * kc * NR_P];
            let tile = &mut out[r0 * n + j0..];
            if rw == MR_P && jw == NR_P {
                micro_kernel(kc, a_panel, b_panel, n, tile, first);
            } else {
                micro_kernel_edge(kc, a_panel, b_panel, n, rw, jw, tile, first);
            }
        }
    }
}

/// Sequential packed GEMM over a contiguous row slice of the output:
/// `a_rows` holds that slice's rows of `A` (`rows × k`), `out` the matching
/// `rows × n` of `C`, and `b_pack` the full externally packed `B` (per
/// `(NC, KC)` block, in this function's loop order). `a_scratch` is this
/// worker's grow-only `A` scratch.
fn gemm_rows_packed(
    k: usize,
    n: usize,
    a_rows: &[f32],
    b_pack: &[f32],
    out: &mut [f32],
    a_scratch: &mut Vec<f32>,
) {
    let sizes = cache::block_sizes();
    let rows = out.len() / n;
    ensure_len(
        a_scratch,
        sizes.mc.min(rows).next_multiple_of(MR_P) * sizes.kc.min(k).max(1),
    );
    let mut b_off = 0;
    for nc0 in (0..n).step_by(sizes.nc) {
        let ncw = sizes.nc.min(n - nc0);
        let b_block_panels = ncw.div_ceil(NR_P) * NR_P;
        for kc0 in (0..k).step_by(sizes.kc) {
            let kc = sizes.kc.min(k - kc0);
            let b_block = &b_pack[b_off..b_off + b_block_panels * kc];
            b_off += b_block_panels * kc;
            for i0 in (0..rows).step_by(sizes.mc) {
                let mw = sizes.mc.min(rows - i0);
                let a_block_len = mw.div_ceil(MR_P) * MR_P * kc;
                pack_a(a_rows, k, i0, mw, kc0, kc, &mut a_scratch[..a_block_len]);
                sweep_block(
                    &a_scratch[..a_block_len],
                    b_block,
                    kc,
                    n,
                    i0,
                    mw,
                    nc0,
                    ncw,
                    out,
                    kc0 == 0,
                );
            }
        }
    }
}

/// Total length of the packed-`B` buffer for a `k × n` operand under the
/// current blocking.
fn packed_b_len(k: usize, n: usize) -> usize {
    let sizes = cache::block_sizes();
    let mut len = 0;
    for nc0 in (0..n).step_by(sizes.nc) {
        let ncw = sizes.nc.min(n - nc0);
        for kc0 in (0..k).step_by(sizes.kc) {
            let kc = sizes.kc.min(k - kc0);
            len += ncw.div_ceil(NR_P) * NR_P * kc;
        }
    }
    len
}

/// Packs all of `B` (every `(NC, KC)` block, in the loop order
/// [`gemm_rows_packed`] consumes them) into `out`.
fn pack_b_full(b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let sizes = cache::block_sizes();
    let mut off = 0;
    for nc0 in (0..n).step_by(sizes.nc) {
        let ncw = sizes.nc.min(n - nc0);
        let block_len = ncw.div_ceil(NR_P) * NR_P;
        for kc0 in (0..k).step_by(sizes.kc) {
            let kc = sizes.kc.min(k - kc0);
            pack_b(b, n, kc0, kc, nc0, ncw, &mut out[off..off + block_len * kc]);
            off += block_len * kc;
        }
    }
}

/// Packed GEMM entry: `out = A·B` (every element overwritten when `k > 0`;
/// an empty reduction leaves the caller's zero fill), split across `threads`
/// workers by disjoint contiguous row ranges (multiples of `MR_P` so only the
/// last range carries a partial panel). `B` is packed once by the calling
/// thread and shared read-only; the row chunks run on the persistent pool
/// ([`crate::kernels::for_each_row_chunk`]), each executing thread packing
/// its `A` rows into its own persistent arena — no per-dispatch allocation,
/// unlike the spawn-per-call path this replaced.
pub(crate) fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    threads: usize,
) {
    B_SCRATCH.with(|cell| {
        let b_scratch = &mut *cell.borrow_mut();
        ensure_len(b_scratch, packed_b_len(k, n));
        pack_b_full(b, k, n, b_scratch);
        let b_pack: &[f32] = b_scratch;
        crate::kernels::for_each_row_chunk(m, MR_P, threads, a, k, out, n, |a_chunk, out_chunk| {
            pool::with_scratch(|a_scratch| {
                gemm_rows_packed(k, n, a_chunk, b_pack, out_chunk, a_scratch);
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    /// Reference triple loop, ascending `k` per element (two-rounding: no
    /// FMA), the workspace-wide correctness oracle.
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
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32], context: &str) {
        assert_eq!(actual.len(), expected.len(), "{context}");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() <= 1e-5,
                "{context}: element {i} differs: {a} vs {e}"
            );
        }
    }

    fn run_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], threads: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        gemm_packed(m, k, n, a, b, &mut out, threads);
        out
    }

    /// Shapes chosen to straddle every packing remainder: coprime with the
    /// 12×32 micro-tile and the smallest KC (64), degenerate rows/columns,
    /// and reductions of depth 0 and 1.
    const AWKWARD: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (5, 67, 9),
        (7, 13, 3),
        (9, 129, 11),
        (17, 9, 37),
        (63, 65, 67),
        (129, 193, 63),
        (1, 300, 67),
        (67, 300, 1),
        (40, 0, 40),
        (40, 1, 40),
        (4, 64, 64),
        (8, 128, 128),
    ];

    #[test]
    fn packed_matches_naive_oracle_on_awkward_shapes() {
        for &(m, k, n) in AWKWARD {
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let out = run_packed(m, k, n, &a, &b, 1);
            assert_close(
                &out,
                &gemm_naive(m, k, n, &a, &b),
                &format!("shape ({m},{k},{n})"),
            );
        }
    }

    #[test]
    fn packed_is_bit_identical_to_direct_kernel() {
        // The determinism contract: packing must not change a single bit of
        // any output element, because both paths accumulate in strictly
        // ascending k order. The `learning_history()` and feature-cache
        // contracts ride on this.
        for &(m, k, n) in AWKWARD {
            let a = pattern(m * k, 3);
            let b = pattern(k * n, 4);
            let packed = run_packed(m, k, n, &a, &b, 1);
            let mut direct = vec![0.0f32; m * n];
            kernels::gemm_nn_direct(m, k, n, &a, &b, &mut direct);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&packed), bits(&direct), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn packed_is_bit_identical_across_thread_counts() {
        // Rows are partitioned disjointly, so any worker count must produce
        // the same bytes (the single-core benchmark host and the multi-core
        // CI runners have to agree).
        let (m, k, n) = (67, 130, 129);
        let a = pattern(m * k, 5);
        let b = pattern(k * n, 6);
        let reference = run_packed(m, k, n, &a, &b, 1);
        for threads in [2, 3, 5, 8] {
            let out = run_packed(m, k, n, &a, &b, threads);
            assert_eq!(reference, out, "threads {threads}");
        }
    }

    #[test]
    fn packed_handles_multiple_reduction_blocks_bit_identically() {
        // k larger than any KC: the micro-kernel reloads partial sums from C
        // between blocks, which must reproduce the unblocked chain exactly.
        let kc = cache::block_sizes().kc;
        let (m, n) = (9, 70);
        let k = 2 * kc + 17;
        let a = pattern(m * k, 7);
        let b = pattern(k * n, 8);
        let packed = run_packed(m, k, n, &a, &b, 1);
        let mut direct = vec![0.0f32; m * n];
        kernels::gemm_nn_direct(m, k, n, &a, &b, &mut direct);
        assert_eq!(packed, direct);
        assert_close(&packed, &gemm_naive(m, k, n, &a, &b), "multi-KC");
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        // Steady state must not allocate: the scratch only ever grows, so a
        // second call at the same shape finds buffers already large enough.
        let (m, k, n) = (16, 80, 70);
        let a = pattern(m * k, 11);
        let b = pattern(k * n, 12);
        let first = run_packed(m, k, n, &a, &b, 1);
        let cap_a = pool::with_scratch(|buf| buf.capacity());
        let cap_b = B_SCRATCH.with(|c| c.borrow().capacity());
        let again = run_packed(m, k, n, &a, &b, 1);
        let cap_a2 = pool::with_scratch(|buf| buf.capacity());
        let cap_b2 = B_SCRATCH.with(|c| c.borrow().capacity());
        assert_eq!(first, again);
        assert_eq!(cap_a, cap_a2);
        assert_eq!(cap_b, cap_b2);
    }
}
