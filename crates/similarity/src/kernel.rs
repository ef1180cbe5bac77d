//! Word-slice comparison kernels for the columnar scan path, with
//! runtime CPU-feature dispatch.
//!
//! The index query engine stores Bloom filters in flat `u64` arenas (see
//! `pprl-index`), so its hot loop works on `&[u64]` slices rather than
//! `BitVec`s. These kernels are the slice-level counterparts of
//! [`pprl_core::bitvec::BitVec::and_count`] and
//! [`crate::bitvec_sim::dice_bits`], with three throughput-oriented
//! variants:
//!
//! * [`and_count`] — one pair, four independent accumulators so the
//!   popcounts pipeline instead of serialising on one add chain;
//! * [`and_count4`] — one query against four rows stored contiguously,
//!   loading each query word once per *four* intersections;
//! * [`Kernel::scan_ge`] — one query against a whole tile of contiguous
//!   rows, reporting only the rows whose intersection reaches an integer
//!   threshold. This is the index scan's only inner loop: the caller
//!   turns its Dice threshold into the smallest qualifying intersection
//!   count once per tile (see [`need_count`]), and rows that cannot
//!   place cost an AND, a popcount and an integer compare — no float
//!   arithmetic, no heap.
//!
//! # Dispatch
//!
//! Each kernel has several implementations, selected **once per process**
//! by runtime CPU-feature detection (`is_x86_feature_detected!`). The
//! default x86-64 code model does not even guarantee a hardware `popcnt`
//! instruction, so the paths form a real performance ladder:
//!
//! | name       | arch     | requires                  | technique                          |
//! |------------|----------|---------------------------|------------------------------------|
//! | `scalar`   | any      | —                         | unrolled loop, SWAR popcount       |
//! | `portable` | x86-64   | `popcnt`                  | same loop, hardware popcount       |
//! | `avx2`     | x86-64   | `avx2`                    | Muła nibble-LUT popcount, 256-bit  |
//! | `avx512`   | x86-64   | `avx512f+avx512vpopcntdq` | `vpopcntq`, 512-bit lanes          |
//!
//! Other architectures run `scalar`, whose `count_ones` lowers to the
//! native popcount instruction wherever the baseline target has one
//! (64-bit ARM's `cnt`, for one).
//!
//! `scan_ge` is native on `avx512` (8 rows per step) and `avx2` (4 rows
//! per step): the per-row accumulators are reduced by one transposed add
//! tree into a single vector of row counts and compared in-register, so
//! a step whose rows all fall short never leaves the vector unit. The
//! other paths build it from their `and_count4` plus integer compares.
//!
//! (`portable` is the portable-width stand-in for `std::simd`, which is
//! still nightly-only: the scalar loop recompiled with the baseline
//! popcount feature enabled, which the autovectoriser is free to widen.)
//!
//! The environment variable `PPRL_KERNEL` forces a path by name (`scalar`
//! included) for tests and benches; `auto` or unset picks the best
//! supported path. Forcing an *unsupported* path falls back to the best
//! supported one rather than executing illegal instructions — compare
//! [`requested_kernel`] with [`kernel_name`] (or call
//! [`requested_is_supported`]) to detect the fallback.
//!
//! Every kernel is exact: the intersection popcounts are integers and
//! [`dice_from_counts`] reproduces `dice_bits`' f64 expression term for
//! term, so scores computed through this module are bit-identical to the
//! scalar `BitVec` path. The property suite in
//! `crates/index/tests/kernel_equivalence.rs` checks every path available
//! on the host against the `BitVec` oracle, including odd tail lengths.

use std::sync::OnceLock;

/// One dispatchable implementation of the scan kernels.
///
/// Instances only come out of [`available_kernels`] / [`active_kernel`],
/// which guarantees the backing functions are safe to execute on this
/// CPU: the constructors are private and a `Kernel` is only built after
/// its required features were detected at runtime.
#[derive(Clone, Copy)]
pub struct Kernel {
    name: &'static str,
    and_count: fn(&[u64], &[u64]) -> usize,
    and_count4: fn(&[u64], &[u64]) -> [usize; 4],
    scan_ge: ScanGe,
}

/// `(query, tile, need, out)`; see [`Kernel::scan_ge`].
type ScanGe = fn(&[u64], &[u64], usize, &mut Vec<(u32, u32)>);

impl Kernel {
    /// Path name as accepted by `PPRL_KERNEL` (e.g. `"avx2"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Intersection popcount of two equal-length word slices.
    ///
    /// The length check is a cheap release-mode assert: a mismatched pair
    /// means a corrupt arena stride, and silently mis-scoring records is
    /// strictly worse than aborting the scan.
    #[inline]
    pub fn and_count(&self, a: &[u64], b: &[u64]) -> usize {
        assert_eq!(
            a.len(),
            b.len(),
            "and_count: word-count mismatch (arena stride corrupt?)"
        );
        (self.and_count)(a, b)
    }

    /// Intersection popcounts of one query against four rows laid out
    /// back-to-back in `rows` (`rows.len() == 4 * query.len()`).
    ///
    /// As with [`Kernel::and_count`], the stride check stays on in
    /// release builds; it is one comparison per 4-row block.
    #[inline]
    pub fn and_count4(&self, query: &[u64], rows: &[u64]) -> [usize; 4] {
        assert_eq!(
            rows.len(),
            4 * query.len(),
            "and_count4: rows must hold exactly 4 query-width rows"
        );
        (self.and_count4)(query, rows)
    }

    /// Thresholded tile scan: AND-popcounts `query` against every
    /// `query.len()`-word row laid out back-to-back in `rows` and appends
    /// `(row index within the tile, intersection count)` to `out`, in row
    /// order, for exactly the rows with `count >= need`. `need == 0`
    /// reports every row; an empty tile reports none. `out` is appended
    /// to, never cleared, so the caller owns its reuse.
    ///
    /// The shape checks stay on in release builds (one per tile): a tile
    /// that is not a whole number of rows means a corrupt arena stride.
    #[inline]
    pub fn scan_ge(&self, query: &[u64], rows: &[u64], need: usize, out: &mut Vec<(u32, u32)>) {
        assert!(!query.is_empty(), "scan_ge: empty query");
        assert!(
            rows.len().is_multiple_of(query.len()),
            "scan_ge: tile must hold whole query-width rows"
        );
        assert!(
            rows.len() / query.len() <= u32::MAX as usize,
            "scan_ge: tile row index must fit u32"
        );
        (self.scan_ge)(query, rows, need, out)
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

/// Intersection popcount of two equal-length word slices, through the
/// dispatched kernel. Equals
/// [`pprl_core::bitvec::BitVec::and_count`] on the backing words of two
/// equal-length vectors (trailing bits are zero by invariant).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    active_kernel().and_count(a, b)
}

/// Intersection popcounts of one query against four contiguous rows,
/// through the dispatched kernel. See [`Kernel::and_count4`].
#[inline]
pub fn and_count4(query: &[u64], rows: &[u64]) -> [usize; 4] {
    active_kernel().and_count4(query, rows)
}

/// Dice coefficient from an intersection popcount and the two filter
/// cardinalities — the exact f64 expression of
/// [`crate::bitvec_sim::dice_bits`], so kernel-computed scores are
/// bit-identical to the scalar path (including the both-empty = 1.0
/// convention).
#[inline]
pub fn dice_from_counts(intersection: usize, ones_a: usize, ones_b: usize) -> f64 {
    if ones_a + ones_b == 0 {
        return 1.0;
    }
    2.0 * intersection as f64 / (ones_a + ones_b) as f64
}

/// The smallest intersection count `c` with
/// `dice_from_counts(c, ones_a, ones_b) >= theta` — the integer form of a
/// Dice threshold, for [`Kernel::scan_ge`].
///
/// Exact, not merely conservative: the answer is settled by evaluating
/// the very f64 expression of [`dice_from_counts`] (which is monotone in
/// `c`), so `c >= need_count(theta, a, b)` holds **iff**
/// `dice_from_counts(c, a, b) >= theta`, ties included. The result may
/// exceed `min(ones_a, ones_b)`, meaning no real intersection qualifies;
/// it is also monotone non-decreasing in `ones_b`, so the value at a
/// popcount-sorted tile's lowest popcount is a valid floor for the tile.
/// A `theta` above 1.0 (or NaN) is out of every real pair's reach and
/// yields `usize::MAX`.
#[inline]
pub fn need_count(theta: f64, ones_a: usize, ones_b: usize) -> usize {
    if theta.is_nan() || theta > 1.0 {
        return usize::MAX;
    }
    // The product only seeds the search; the comparisons decide.
    let mut c = (theta * (ones_a + ones_b) as f64 / 2.0).ceil().max(0.0) as usize;
    while c > 0 && dice_from_counts(c - 1, ones_a, ones_b) >= theta {
        c -= 1;
    }
    while dice_from_counts(c, ones_a, ones_b) < theta {
        c += 1;
    }
    c
}

// ---------------------------------------------------------------------------
// Scalar reference path (always available, any architecture).
// ---------------------------------------------------------------------------

mod scalar {
    #[inline]
    pub(super) fn and_count(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0usize; 4];
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            acc[0] += (ca[0] & cb[0]).count_ones() as usize;
            acc[1] += (ca[1] & cb[1]).count_ones() as usize;
            acc[2] += (ca[2] & cb[2]).count_ones() as usize;
            acc[3] += (ca[3] & cb[3]).count_ones() as usize;
        }
        let mut tail = 0usize;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += (x & y).count_ones() as usize;
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    #[inline]
    pub(super) fn and_count4(query: &[u64], rows: &[u64]) -> [usize; 4] {
        let stride = query.len();
        debug_assert_eq!(rows.len(), 4 * stride);
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = [0usize; 4];
        for w in 0..stride {
            let q = query[w];
            acc[0] += (q & r0[w]).count_ones() as usize;
            acc[1] += (q & r1[w]).count_ones() as usize;
            acc[2] += (q & r2[w]).count_ones() as usize;
            acc[3] += (q & r3[w]).count_ones() as usize;
        }
        acc
    }

    /// [`Kernel::scan_ge`](super::Kernel::scan_ge) built from the
    /// 4-row and 1-row counts: whole blocks through `and_count4`, the
    /// < 4-row tail through `and_count`, an integer compare per row.
    #[inline]
    pub(super) fn scan_ge(query: &[u64], rows: &[u64], need: usize, out: &mut Vec<(u32, u32)>) {
        let stride = query.len();
        let mut blocks = rows.chunks_exact(4 * stride);
        let mut row = 0u32;
        for block in blocks.by_ref() {
            for (lane, &count) in and_count4(query, block).iter().enumerate() {
                if count >= need {
                    out.push((row + lane as u32, count as u32));
                }
            }
            row += 4;
        }
        for tail in blocks.remainder().chunks_exact(stride) {
            let count = and_count(query, tail);
            if count >= need {
                out.push((row, count as u32));
            }
            row += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 paths. Every `unsafe` here is justified by runtime feature
// detection: the wrappers are only ever reachable through a `Kernel`
// that `detect_kernels` constructed after the matching
// `is_x86_feature_detected!` returned true.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::*;

    // ---- portable: the scalar loop with hardware popcount enabled ----
    //
    // The default x86-64 baseline predates `popcnt`, so release builds of
    // the scalar path emit a SWAR bit-count sequence per word. Recompiling
    // the same loop with the feature enabled replaces that with one
    // instruction — and leaves the autovectoriser free to widen it.

    #[target_feature(enable = "popcnt")]
    fn and_count_popcnt_impl(a: &[u64], b: &[u64]) -> usize {
        super::scalar::and_count(a, b)
    }

    #[target_feature(enable = "popcnt")]
    fn and_count4_popcnt_impl(query: &[u64], rows: &[u64]) -> [usize; 4] {
        super::scalar::and_count4(query, rows)
    }

    #[target_feature(enable = "popcnt")]
    fn scan_ge_popcnt_impl(query: &[u64], rows: &[u64], need: usize, out: &mut Vec<(u32, u32)>) {
        super::scalar::scan_ge(query, rows, need, out)
    }

    pub(super) fn and_count_portable(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("popcnt") succeeded.
        unsafe { and_count_popcnt_impl(a, b) }
    }

    pub(super) fn and_count4_portable(query: &[u64], rows: &[u64]) -> [usize; 4] {
        // SAFETY: as above — popcnt was detected at runtime.
        unsafe { and_count4_popcnt_impl(query, rows) }
    }

    pub(super) fn scan_ge_portable(
        query: &[u64],
        rows: &[u64],
        need: usize,
        out: &mut Vec<(u32, u32)>,
    ) {
        // SAFETY: as above — popcnt was detected at runtime.
        unsafe { scan_ge_popcnt_impl(query, rows, need, out) }
    }

    // ---- avx2: Muła nibble-LUT popcount over 256-bit lanes ----
    //
    // No popcount instruction exists at 256 bits, so each byte is split
    // into nibbles looked up in an in-register table (`vpshufb`), and the
    // byte counts are folded into u64 lanes with `vpsadbw` — the classic
    // Muła/Kurz/Lemire harley-seal building block.

    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcnt_bytes_avx2(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi64_avx2(v: __m256i) -> usize {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is a 32-byte writable buffer; storeu has no
        // alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize
    }

    #[target_feature(enable = "avx2")]
    fn and_count_avx2_impl(a: &[u64], b: &[u64]) -> usize {
        let n = a.len();
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n, so 32 bytes starting at offset i are in
            // bounds for both slices; loadu tolerates any alignment.
            let v = unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
                _mm256_and_si256(va, vb)
            };
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcnt_bytes_avx2(v), zero));
            i += 4;
        }
        let mut total = hsum_epi64_avx2(acc);
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    fn and_count4_avx2_impl(query: &[u64], rows: &[u64]) -> [usize; 4] {
        let stride = query.len();
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; 4];
        let mut i = 0usize;
        while i + 4 <= stride {
            // SAFETY: i + 4 <= stride keeps all five 32-byte loads in
            // bounds of their respective stride-length slices.
            unsafe {
                let q = _mm256_loadu_si256(query.as_ptr().add(i).cast());
                for (lane, r) in [r0, r1, r2, r3].into_iter().enumerate() {
                    let v = _mm256_and_si256(q, _mm256_loadu_si256(r.as_ptr().add(i).cast()));
                    acc[lane] =
                        _mm256_add_epi64(acc[lane], _mm256_sad_epu8(popcnt_bytes_avx2(v), zero));
                }
            }
            i += 4;
        }
        let mut out = [
            hsum_epi64_avx2(acc[0]),
            hsum_epi64_avx2(acc[1]),
            hsum_epi64_avx2(acc[2]),
            hsum_epi64_avx2(acc[3]),
        ];
        while i < stride {
            let q = query[i];
            out[0] += (q & r0[i]).count_ones() as usize;
            out[1] += (q & r1[i]).count_ones() as usize;
            out[2] += (q & r2[i]).count_ones() as usize;
            out[3] += (q & r3[i]).count_ones() as usize;
            i += 1;
        }
        out
    }

    /// Native `scan_ge`: 4 rows per step, one 256-bit accumulator each,
    /// reduced together by a transposed add tree into one vector holding
    /// the four row counts, which is compared against `need` in-register.
    #[target_feature(enable = "avx2")]
    fn scan_ge_avx2_impl(query: &[u64], rows: &[u64], need: usize, out: &mut Vec<(u32, u32)>) {
        let stride = query.len();
        let n = rows.len() / stride;
        let body = stride - stride % 4;
        let zero = _mm256_setzero_si256();
        // Signed compare is exact here: counts are at most 64·stride, and
        // a `need` beyond i64 is beyond every count.
        let floor = _mm256_set1_epi64x(i64::try_from(need).unwrap_or(i64::MAX) - 1);
        let mut row = 0usize;
        while row + 4 <= n {
            let block = &rows[row * stride..(row + 4) * stride];
            let mut acc = [zero; 4];
            let mut i = 0usize;
            while i < body {
                // SAFETY: i + 4 <= body <= stride keeps the query load and
                // the four row loads (at lane * stride + i) inside `query`
                // and the 4 * stride words of `block`.
                unsafe {
                    let q = _mm256_loadu_si256(query.as_ptr().add(i).cast());
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let r = _mm256_loadu_si256(block.as_ptr().add(lane * stride + i).cast());
                        let v = _mm256_and_si256(q, r);
                        *a = _mm256_add_epi64(*a, _mm256_sad_epu8(popcnt_bytes_avx2(v), zero));
                    }
                }
                i += 4;
            }
            // [a0 a1 a2 a3] x 4 lanes -> one vector of the 4 row totals.
            let s01 = _mm256_add_epi64(
                _mm256_unpacklo_epi64(acc[0], acc[1]),
                _mm256_unpackhi_epi64(acc[0], acc[1]),
            );
            let s23 = _mm256_add_epi64(
                _mm256_unpacklo_epi64(acc[2], acc[3]),
                _mm256_unpackhi_epi64(acc[2], acc[3]),
            );
            let mut totals = _mm256_add_epi64(
                _mm256_permute2x128_si256(s01, s23, 0x20),
                _mm256_permute2x128_si256(s01, s23, 0x31),
            );
            if body < stride {
                let mut tail = [0i64; 4];
                for (lane, t) in tail.iter_mut().enumerate() {
                    let r = &block[lane * stride..(lane + 1) * stride];
                    for w in body..stride {
                        *t += i64::from((query[w] & r[w]).count_ones());
                    }
                }
                totals = _mm256_add_epi64(
                    totals,
                    _mm256_setr_epi64x(tail[0], tail[1], tail[2], tail[3]),
                );
            }
            let hits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(totals, floor)));
            if hits != 0 {
                let mut counts = [0u64; 4];
                // SAFETY: `counts` is a 32-byte writable buffer; storeu
                // has no alignment requirement.
                unsafe { _mm256_storeu_si256(counts.as_mut_ptr().cast(), totals) };
                for (lane, &count) in counts.iter().enumerate() {
                    if hits & (1 << lane) != 0 {
                        out.push(((row + lane) as u32, count as u32));
                    }
                }
            }
            row += 4;
        }
        while row < n {
            let count = and_count_avx2_impl(query, &rows[row * stride..(row + 1) * stride]);
            if count >= need {
                out.push((row as u32, count as u32));
            }
            row += 1;
        }
    }

    pub(super) fn and_count_avx2(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("avx2") succeeded.
        unsafe { and_count_avx2_impl(a, b) }
    }

    pub(super) fn and_count4_avx2(query: &[u64], rows: &[u64]) -> [usize; 4] {
        // SAFETY: as above — avx2 was detected at runtime.
        unsafe { and_count4_avx2_impl(query, rows) }
    }

    pub(super) fn scan_ge_avx2(
        query: &[u64],
        rows: &[u64],
        need: usize,
        out: &mut Vec<(u32, u32)>,
    ) {
        // SAFETY: as above — avx2 was detected at runtime.
        unsafe { scan_ge_avx2_impl(query, rows, need, out) }
    }

    // ---- avx512: native 64-bit-lane popcount (VPOPCNTDQ) ----

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn and_count_avx512_impl(a: &[u64], b: &[u64]) -> usize {
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n keeps both 64-byte loads in bounds;
            // loadu tolerates any alignment.
            let v = unsafe {
                let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
                let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
                _mm512_and_si512(va, vb)
            };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn and_count4_avx512_impl(query: &[u64], rows: &[u64]) -> [usize; 4] {
        let stride = query.len();
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = [_mm512_setzero_si512(); 4];
        let mut i = 0usize;
        while i + 8 <= stride {
            // SAFETY: i + 8 <= stride keeps all five 64-byte loads in
            // bounds of their respective stride-length slices.
            unsafe {
                let q = _mm512_loadu_si512(query.as_ptr().add(i).cast());
                for (lane, r) in [r0, r1, r2, r3].into_iter().enumerate() {
                    let v = _mm512_and_si512(q, _mm512_loadu_si512(r.as_ptr().add(i).cast()));
                    acc[lane] = _mm512_add_epi64(acc[lane], _mm512_popcnt_epi64(v));
                }
            }
            i += 8;
        }
        let mut out = [
            _mm512_reduce_add_epi64(acc[0]) as usize,
            _mm512_reduce_add_epi64(acc[1]) as usize,
            _mm512_reduce_add_epi64(acc[2]) as usize,
            _mm512_reduce_add_epi64(acc[3]) as usize,
        ];
        while i < stride {
            let q = query[i];
            out[0] += (q & r0[i]).count_ones() as usize;
            out[1] += (q & r1[i]).count_ones() as usize;
            out[2] += (q & r2[i]).count_ones() as usize;
            out[3] += (q & r3[i]).count_ones() as usize;
            i += 1;
        }
        out
    }

    /// Native `scan_ge`: 8 rows per step, one 512-bit accumulator each.
    /// The eight accumulators are reduced together by a transposed add
    /// tree (3 levels, 14 shuffles + 7 adds) into one vector holding the
    /// eight row counts, compared against `need` into a mask register —
    /// a step with no qualifying row costs no scalar work at all. Words
    /// past the last whole 8-word group use masked loads.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn scan_ge_avx512_impl(query: &[u64], rows: &[u64], need: usize, out: &mut Vec<(u32, u32)>) {
        let stride = query.len();
        let n = rows.len() / stride;
        let body = stride - stride % 8;
        let tail_mask: __mmask8 = (1u8 << (stride % 8)) - 1;
        let floor = _mm512_set1_epi64(i64::try_from(need).unwrap_or(i64::MAX));
        let mut row = 0usize;
        while row + 8 <= n {
            let block = &rows[row * stride..(row + 8) * stride];
            let mut acc = [_mm512_setzero_si512(); 8];
            let mut i = 0usize;
            if body > 0 {
                unsafe {
                    let q = _mm512_loadu_si512(query.as_ptr().cast());
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let r = _mm512_loadu_si512(block.as_ptr().add(lane * stride).cast());
                        *a = _mm512_popcnt_epi64(_mm512_and_si512(q, r));
                    }
                }
                i = 8;
            }
            while i < body {
                // SAFETY: i + 8 <= body <= stride keeps the query load and
                // the eight row loads (at lane * stride + i) inside `query`
                // and the 8 * stride words of `block`.
                unsafe {
                    let q = _mm512_loadu_si512(query.as_ptr().add(i).cast());
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let r = _mm512_loadu_si512(block.as_ptr().add(lane * stride + i).cast());
                        *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(_mm512_and_si512(q, r)));
                    }
                }
                i += 8;
            }
            if tail_mask != 0 {
                // SAFETY: a masked load touches only the `stride % 8`
                // selected words, which start at `body` and end at
                // `stride` in `query` and in each row of `block`;
                // masked-out lanes are not accessed.
                unsafe {
                    let q = _mm512_maskz_loadu_epi64(tail_mask, query.as_ptr().add(body).cast());
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let r = _mm512_maskz_loadu_epi64(
                            tail_mask,
                            block.as_ptr().add(lane * stride + body).cast(),
                        );
                        *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(_mm512_and_si512(q, r)));
                    }
                }
            }
            // Level 1: fold adjacent u64 lanes, interleaving row pairs.
            let pair = |a: __m512i, b: __m512i| {
                _mm512_add_epi64(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
            };
            // Levels 2 and 3: fold 128-bit lanes, interleaving the halves.
            let quad = |a: __m512i, b: __m512i| {
                _mm512_add_epi64(
                    _mm512_shuffle_i64x2(a, b, 0x88),
                    _mm512_shuffle_i64x2(a, b, 0xDD),
                )
            };
            let totals = quad(
                quad(pair(acc[0], acc[1]), pair(acc[2], acc[3])),
                quad(pair(acc[4], acc[5]), pair(acc[6], acc[7])),
            );
            let mut hits = _mm512_cmpge_epu64_mask(totals, floor);
            if hits != 0 {
                let mut counts = [0u64; 8];
                // SAFETY: `counts` is a 64-byte writable buffer; storeu
                // has no alignment requirement.
                unsafe { _mm512_storeu_si512(counts.as_mut_ptr().cast(), totals) };
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    out.push(((row + lane) as u32, counts[lane] as u32));
                    hits &= hits - 1;
                }
            }
            row += 8;
        }
        while row < n {
            let count = and_count_avx512_impl(query, &rows[row * stride..(row + 1) * stride]);
            if count >= need {
                out.push((row as u32, count as u32));
            }
            row += 1;
        }
    }

    pub(super) fn and_count_avx512(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected! confirmed avx512f + avx512vpopcntdq.
        unsafe { and_count_avx512_impl(a, b) }
    }

    pub(super) fn and_count4_avx512(query: &[u64], rows: &[u64]) -> [usize; 4] {
        // SAFETY: as above — avx512f + avx512vpopcntdq were detected.
        unsafe { and_count4_avx512_impl(query, rows) }
    }

    pub(super) fn scan_ge_avx512(
        query: &[u64],
        rows: &[u64],
        need: usize,
        out: &mut Vec<(u32, u32)>,
    ) {
        // SAFETY: as above — avx512f + avx512vpopcntdq were detected.
        unsafe { scan_ge_avx512_impl(query, rows, need, out) }
    }
}

// ---------------------------------------------------------------------------
// Dispatch: one-time detection + PPRL_KERNEL override.
// ---------------------------------------------------------------------------

const SCALAR: Kernel = Kernel {
    name: "scalar",
    and_count: scalar::and_count,
    and_count4: scalar::and_count4,
    scan_ge: scalar::scan_ge,
};

/// Detect what this CPU supports, worst path first / best path last.
fn detect_kernels() -> Vec<Kernel> {
    #[allow(unused_mut)]
    let mut v = vec![SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            v.push(Kernel {
                name: "portable",
                and_count: x86::and_count_portable,
                and_count4: x86::and_count4_portable,
                scan_ge: x86::scan_ge_portable,
            });
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Kernel {
                name: "avx2",
                and_count: x86::and_count_avx2,
                and_count4: x86::and_count4_avx2,
                scan_ge: x86::scan_ge_avx2,
            });
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            v.push(Kernel {
                name: "avx512",
                and_count: x86::and_count_avx512,
                and_count4: x86::and_count4_avx512,
                scan_ge: x86::scan_ge_avx512,
            });
        }
    }
    v
}

/// Every kernel path this CPU can execute, worst first, best last.
/// `scalar` is always present. Detection runs once per process.
pub fn available_kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(detect_kernels)
}

struct Dispatch {
    active: Kernel,
    requested: Option<String>,
}

/// Pure selection rule, factored out so it is testable without touching
/// process-global environment: `None` / `"auto"` pick the best available
/// path; a known name picks that path; an unknown or unsupported name
/// falls back to the best path (the caller can detect this via
/// [`requested_is_supported`]).
fn select_kernel(requested: Option<&str>, kernels: &[Kernel]) -> Kernel {
    let best = *kernels.last().expect("scalar kernel is always available");
    match requested {
        None | Some("auto") => best,
        Some(name) => kernels
            .iter()
            .find(|k| k.name == name)
            .copied()
            .unwrap_or(best),
    }
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        let requested = std::env::var("PPRL_KERNEL")
            .ok()
            .map(|s| s.trim().to_ascii_lowercase())
            .filter(|s| !s.is_empty());
        let active = select_kernel(requested.as_deref(), available_kernels());
        Dispatch { active, requested }
    })
}

/// The kernel every [`and_count`] / [`and_count4`] call dispatches to.
/// Resolved once per process from CPU detection and `PPRL_KERNEL`.
#[inline]
pub fn active_kernel() -> Kernel {
    dispatch().active
}

/// Name of the active kernel path (`"scalar"`, `"avx512"`, …).
#[inline]
pub fn kernel_name() -> &'static str {
    dispatch().active.name
}

/// The normalised `PPRL_KERNEL` value, if one was set (including
/// `"auto"` and unsupported names that fell back to the best path).
pub fn requested_kernel() -> Option<&'static str> {
    dispatch().requested.as_deref()
}

/// False iff `PPRL_KERNEL` named a path this host cannot run (the
/// dispatcher then fell back to the best supported path). CI uses this
/// to fail fast instead of silently benchmarking the wrong kernel.
pub fn requested_is_supported() -> bool {
    match requested_kernel() {
        None => true,
        Some("auto") => true,
        Some(name) => name == kernel_name(),
    }
}

/// The kernel-relevant CPU features detected on this host, for
/// recording in benchmark output so cross-machine numbers stay
/// interpretable. `sha` is the SHA extensions `pprl_crypto::sha` hashes
/// Bloom-filter tokens with.
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, hit) in [
            ("popcnt", std::arch::is_x86_feature_detected!("popcnt")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (
                "avx512vpopcntdq",
                std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            ),
            ("sha", std::arch::is_x86_feature_detected!("sha")),
        ] {
            if hit {
                v.push(name);
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec_sim::dice_bits;
    use pprl_core::bitvec::BitVec;
    use pprl_core::rng::SplitMix64;

    fn random_filter(len: usize, denom: u64, rng: &mut SplitMix64) -> BitVec {
        let ones: Vec<usize> = (0..len)
            .filter(|_| rng.next_u64().is_multiple_of(denom))
            .collect();
        BitVec::from_positions(len, &ones).unwrap()
    }

    #[test]
    fn and_count_matches_bitvec_over_random_filters() {
        let mut rng = SplitMix64::new(0xA11D);
        for len in [1usize, 7, 63, 64, 65, 256, 1000, 2048] {
            for denom in [1u64, 2, 5, 17] {
                let a = random_filter(len, denom, &mut rng);
                let b = random_filter(len, denom, &mut rng);
                assert_eq!(
                    and_count(a.as_words(), b.as_words()),
                    a.and_count(&b),
                    "len={len} denom={denom}"
                );
            }
            // Edge cases: empty against everything, all-ones pairs.
            let zero = BitVec::zeros(len);
            let ones = BitVec::ones(len);
            assert_eq!(and_count(zero.as_words(), ones.as_words()), 0);
            assert_eq!(and_count(ones.as_words(), ones.as_words()), len);
        }
    }

    #[test]
    fn and_count4_matches_four_scalar_calls() {
        let mut rng = SplitMix64::new(0xB10C);
        for len in [64usize, 100, 1000] {
            let q = random_filter(len, 3, &mut rng);
            let rows: Vec<BitVec> = (0..4).map(|_| random_filter(len, 3, &mut rng)).collect();
            let mut flat = Vec::new();
            for r in &rows {
                flat.extend_from_slice(r.as_words());
            }
            let got = and_count4(q.as_words(), &flat);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(got[i], q.and_count(r), "len={len} row={i}");
            }
        }
    }

    #[test]
    fn every_available_path_matches_the_scalar_oracle() {
        // Lengths chosen so the word count mod the widest vector width
        // (8 words) covers every tail size, including 0.
        let mut rng = SplitMix64::new(0x51D);
        for len in [
            1usize, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 320, 321, 448, 449,
            512, 513, 1000, 2048,
        ] {
            for denom in [1u64, 2, 7] {
                let a = random_filter(len, denom, &mut rng);
                let b = random_filter(len, denom, &mut rng);
                let rows: Vec<BitVec> = (0..4)
                    .map(|_| random_filter(len, denom, &mut rng))
                    .collect();
                let mut flat = Vec::new();
                for r in &rows {
                    flat.extend_from_slice(r.as_words());
                }
                let want1 = a.and_count(&b);
                let want4: Vec<usize> = rows.iter().map(|r| a.and_count(r)).collect();
                for k in available_kernels() {
                    assert_eq!(
                        k.and_count(a.as_words(), b.as_words()),
                        want1,
                        "kernel={} len={len} denom={denom}",
                        k.name()
                    );
                    assert_eq!(
                        k.and_count4(a.as_words(), &flat).to_vec(),
                        want4,
                        "kernel={} len={len} denom={denom}",
                        k.name()
                    );
                }
            }
        }
    }

    /// Flat word rows with a given fill, for strides that are not a
    /// whole number of bits-per-filter (the kernels only see words).
    fn random_words(n: usize, denom: u64, rng: &mut SplitMix64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let mut w = rng.next_u64();
                for _ in 1..denom {
                    w &= rng.next_u64();
                }
                w
            })
            .collect()
    }

    #[test]
    fn scan_ge_equals_filtered_and_count_on_every_path() {
        // Strides around every vector width (4 and 8 words) and its
        // tails; row counts around every step size (4 and 8 rows),
        // including the empty tile.
        let mut rng = SplitMix64::new(0x5CA9);
        for stride in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 32] {
            for n in (0..=19).chain([64, 67]) {
                let query = random_words(stride, 1 + rng.next_u64() % 2, &mut rng);
                let rows = random_words(n * stride, 1 + rng.next_u64() % 3, &mut rng);
                let counts: Vec<usize> = rows
                    .chunks_exact(stride)
                    .map(|r| scalar::and_count(&query, r))
                    .collect();
                let max = counts.iter().copied().max().unwrap_or(0);
                let mid = counts.get(n / 2).copied().unwrap_or(1);
                for need in [0, 1, mid, max, max + 1, usize::MAX] {
                    let want: Vec<(u32, u32)> = counts
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c >= need)
                        .map(|(i, &c)| (i as u32, c as u32))
                        .collect();
                    for k in available_kernels() {
                        // Appends after what is already there.
                        let mut got = vec![(u32::MAX, u32::MAX)];
                        k.scan_ge(&query, &rows, need, &mut got);
                        assert_eq!(got[0], (u32::MAX, u32::MAX));
                        assert_eq!(
                            &got[1..],
                            &want[..],
                            "kernel={} stride={stride} rows={n} need={need}",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scan_ge")]
    fn ragged_tile_panics_in_release_too() {
        active_kernel().scan_ge(&[0u64; 4], &[0u64; 10], 0, &mut Vec::new());
    }

    #[test]
    fn need_count_is_the_exact_integer_form_of_a_dice_threshold() {
        // θ drawn from real score values (so ties occur), plus the
        // interval ends and values just off a real score.
        let mut rng = SplitMix64::new(0x7E57);
        let mut cases: Vec<(usize, usize)> = vec![(0, 0), (0, 5), (5, 0), (1, 1), (414, 414)];
        for _ in 0..60 {
            cases.push((
                (rng.next_u64() % 600) as usize,
                (rng.next_u64() % 600) as usize,
            ));
        }
        for &(q, x) in &cases {
            let cap = q.min(x);
            let mut thetas = vec![0.0, 1.0, 0.8, 0.65, f64::MIN_POSITIVE];
            for c in [0, cap / 3, cap / 2, cap.saturating_sub(1), cap] {
                let score = dice_from_counts(c, q, x);
                thetas.push(score);
                thetas.push(f64::from_bits(score.to_bits() + 1).min(1.0));
                if score > 0.0 {
                    thetas.push(f64::from_bits(score.to_bits() - 1));
                }
            }
            // A score of some *other* pair: the k-th best so far.
            thetas.push(dice_from_counts(cap / 2, q + 3, x + 11));
            for theta in thetas {
                let need = need_count(theta, q, x);
                for c in 0..=cap + 2 {
                    assert_eq!(
                        c >= need,
                        dice_from_counts(c, q, x) >= theta,
                        "theta={theta} q={q} x={x} c={c} need={need}"
                    );
                }
                // Monotone in the row popcount: the tile floor is sound.
                assert!(
                    need <= need_count(theta, q, x + 1),
                    "theta={theta} q={q} x={x}"
                );
            }
        }
        assert_eq!(need_count(1.0, 0, 0), 0, "both-empty pairs score 1.0");
        assert_eq!(need_count(1.5, 10, 10), usize::MAX);
        assert_eq!(need_count(f64::NAN, 10, 10), usize::MAX);
    }

    #[test]
    fn select_kernel_honors_names_and_falls_back() {
        let kernels = available_kernels();
        let best = kernels.last().unwrap();
        // Unset and "auto" pick the best path.
        assert_eq!(select_kernel(None, kernels).name(), best.name());
        assert_eq!(select_kernel(Some("auto"), kernels).name(), best.name());
        // Every supported name picks exactly that path.
        for k in kernels {
            assert_eq!(select_kernel(Some(k.name()), kernels).name(), k.name());
        }
        // Unknown names fall back to the best path instead of panicking.
        assert_eq!(select_kernel(Some("quantum"), kernels).name(), best.name());
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        let kernels = available_kernels();
        assert_eq!(kernels[0].name(), "scalar");
        // The active kernel is always one of the available paths.
        assert!(kernels.iter().any(|k| k.name() == kernel_name()));
    }

    #[test]
    #[should_panic(expected = "and_count4")]
    fn mismatched_stride_panics_in_release_too() {
        let q = [0u64; 4];
        let rows = [0u64; 12]; // 3 rows, not 4
        active_kernel().and_count4(&q, &rows);
    }

    #[test]
    fn dice_from_counts_is_bit_identical_to_dice_bits() {
        let mut rng = SplitMix64::new(0xD1CE);
        for _ in 0..200 {
            let a = random_filter(512, 1 + rng.next_u64() % 6, &mut rng);
            let b = random_filter(512, 1 + rng.next_u64() % 6, &mut rng);
            let inter = and_count(a.as_words(), b.as_words());
            let got = dice_from_counts(inter, a.count_ones(), b.count_ones());
            let want = dice_bits(&a, &b).unwrap();
            assert!(got == want, "kernel {got} != scalar {want}");
        }
        // Both-empty convention.
        assert_eq!(dice_from_counts(0, 0, 0), 1.0);
    }
}
