//! Lane-oriented bound kernels for the Wu–Chao–Tang lower bound and the
//! 3-3 close-pair tables.
//!
//! Historically this arithmetic lived inline in the minimum-ultrametric
//! problem implementation, reading the packed-triangle `DistanceMatrix`
//! one branchy `get(i, j)` at a time. Profiles put it at the top of node
//! expansion, so it now lives here as free functions over raw rows:
//!
//! * the **solver matrix** (`mutree_distmat::SolverMatrix`) supplies each
//!   taxon's distances as one contiguous, padded, cache-line-aligned
//!   `&[f64]` row, and
//! * the kernels below walk those rows in fixed-width `[f64; LANES]`
//!   blocks the autovectorizer can keep in vector registers, with 64-bit
//!   leaf-mask words selecting lanes — mask word `w` covers row lanes
//!   `64w..64(w+1)`, so leaf-word iteration and lane loads share one
//!   stride at every monomorphized leaf-bitset width.
//!
//! Everything here is *exact*: the kernels only reorder `min`/`max`
//! reductions and comparisons, never additions, so results are
//! bit-identical to a naive scalar loop (floating-point min/max over a
//! fixed set of values is order-insensitive; the one summation,
//! [`pendant_suffix`], sums in one fixed order). The tests below keep
//! that naive loop as the oracle.
//!
//! Padding discipline: rows may be longer than the taxon count, and the
//! padding lanes are NaN-poisoned in debug builds. Every kernel selects
//! lanes through the mask (or an explicit prefix length) *before* they
//! touch an accumulator, so poison can never reach a bound — a property
//! the `mutree-distmat` property tests assert.

/// Fixed lane width of the inner loops: 8 `f64`s, one 64-byte cache
/// line, one lane block of the solver matrix.
pub const LANES: usize = 8;

/// Which implementation of the bound arithmetic a solve runs. The lane
/// kernels over the solver matrix are the only one; the type remains
/// because the benchmark harness still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKernel {
    /// Lane kernels over the blocked solver-matrix rows.
    #[default]
    Lanes,
}

/// A mask word with at least this many set bits takes the dense
/// branch-free lane path in [`max_in_mask`]; sparser words peel bits
/// instead. At 32 set lanes the eight select-and-max vector blocks cost
/// about the same as the peel's serial max chain; below that the peel's
/// "touch only set lanes" economy wins — and partial subtree masks in
/// the search are sparse far more often than not.
const DENSE_WORD_BITS: u32 = 32;

/// Maximum of `row[y]` over the leaf indices `y` set in `words`, floored
/// at `0.0` — the pendant-height candidate `max_{y ∈ mask} M[s, y]` of
/// the insertion walk (distances are non-negative, and the caller takes
/// a running max against existing heights, so the floor only makes the
/// empty mask well-defined).
///
/// Mask word `w` selects lanes `64w..64(w+1)` of `row`; zero words are
/// skipped without touching the row, so a mask word can only be non-zero
/// where the row has valid lanes. Per word the kernel is adaptive:
/// sparse words peel set bits (`w & (w - 1)`) with one contiguous row
/// load each — no packed-triangle index math — while words at
/// `DENSE_WORD_BITS` or more run a branch-free 8-lane select-and-max
/// over the word's whole lane range.
/// The sparse peel indexes `row` directly rather than through a
/// fixed-size word view: partial subtree masks are one-to-eight bits far
/// more often than not, and the view's slice-and-convert preamble costs
/// more than the handful of checked loads it would save. Both shapes
/// compute the same order-insensitive `max`, so the choice is invisible
/// in the result bits.
///
/// # Panics
///
/// Debug builds panic when a non-zero mask word indexes past `row`.
#[inline(always)]
pub fn max_in_mask(row: &[f64], words: &[u64]) -> f64 {
    let mut best = 0.0f64;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        debug_assert!((w + 1) * 64 <= row.len(), "mask word {w} beyond the row");
        if word.count_ones() < DENSE_WORD_BITS {
            let base = w * 64;
            let mut bits = word;
            while bits != 0 {
                let v = row[base + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                best = if v > best { v } else { best };
            }
        } else {
            // One fixed-size view for the dense path: its select-and-max
            // blocks touch every lane of the word, so hoisting the bounds
            // check into a single slice-and-convert pays for itself here.
            let lanes64: &[f64; 64] = row[w * 64..(w + 1) * 64]
                .try_into()
                .expect("mask word beyond the row");
            let mut acc = [f64::NEG_INFINITY; LANES];
            for c in 0..8 {
                let byte = (word >> (c * 8)) & 0xff;
                if byte == 0 {
                    continue;
                }
                for l in 0..LANES {
                    let v = if byte & (1 << l) != 0 {
                        lanes64[c * LANES + l]
                    } else {
                        f64::NEG_INFINITY
                    };
                    acc[l] = if v > acc[l] { v } else { acc[l] };
                }
            }
            for v in acc {
                best = if v > best { v } else { best };
            }
        }
    }
    best
}

/// Minimum over `row[0..len]` — the per-taxon pendant term
/// `min_{i<t} M[i, t]` of the Wu–Chao–Tang bound. Returns `+∞` when
/// `len == 0`, the seed of a plain `fold(+∞, min)`.
///
/// # Panics
///
/// Debug builds panic when `len > row.len()`.
#[inline]
pub fn min_prefix(row: &[f64], len: usize) -> f64 {
    debug_assert!(len <= row.len());
    let mut acc = [f64::INFINITY; LANES];
    let blocks = len / LANES;
    for b in 0..blocks {
        let lanes = &row[b * LANES..(b + 1) * LANES];
        for l in 0..LANES {
            acc[l] = if lanes[l] < acc[l] { lanes[l] } else { acc[l] };
        }
    }
    let mut best = f64::INFINITY;
    for v in acc {
        best = if v < best { v } else { best };
    }
    for &v in &row[blocks * LANES..len] {
        best = if v < best { v } else { best };
    }
    best
}

/// `suffix[t] = Σ_{u ≥ t} minrow[u] / 2` with `suffix[n] = 0`, summed
/// from the back (`minrow[t]` is `min_{i<t} M[i, t]`; entries `0` and
/// `1` are never read). This fixed addition order keeps the suffix
/// table — the only *summation* in the bound — reproducible bit for bit.
pub fn pendant_suffix(minrow: &[f64]) -> Vec<f64> {
    let n = minrow.len();
    let mut suffix = vec![0.0; n + 1];
    for t in (2..n).rev() {
        suffix[t] = suffix[t + 1] + minrow[t] / 2.0;
    }
    suffix
}

/// No strict close pair: the triple constrains nothing.
pub const CLOSE_NONE: u8 = 0;
/// The close pair is `(i, j)` — the earlier two species.
pub const CLOSE_EARLIER: u8 = 1;
/// The close pair is `(i, s)` — the newest species with the lower one.
pub const CLOSE_WITH_LOW: u8 = 2;
/// The close pair is `(j, s)` — the newest species with the higher one.
pub const CLOSE_WITH_HIGH: u8 = 3;

/// Flat index of the sorted triple `i < j < s`: triples with maximum
/// element `< s` occupy the first `C(s,3)` slots, those with maximum `s`
/// and middle `< j` the next `C(j,2)`, then `i` picks the slot.
#[inline]
pub fn triple_index(i: usize, j: usize, s: usize) -> usize {
    debug_assert!(i < j && j < s);
    s * (s - 1) * (s - 2) / 6 + j * (j - 1) / 2 + i
}

/// Number of entries a close-pair table over `n` taxa needs: `C(n,3)`.
#[inline]
pub fn close_pair_table_len(n: usize) -> usize {
    n * n.saturating_sub(1) * n.saturating_sub(2) / 6
}

/// Classifies the triple with distances `d_ij`, `d_is`, `d_js` (for
/// `i < j < s`): the code of the pair whose distance is strictly smaller
/// than both others, or [`CLOSE_NONE`] on ties — the matrix then does
/// not constrain the triple. Matches
/// `mutree_tree::triples::close_pair_in_matrix` decision for decision.
#[inline]
pub fn close_pair_code(d_ij: f64, d_is: f64, d_js: f64) -> u8 {
    if d_ij < d_is && d_ij < d_js {
        CLOSE_EARLIER
    } else if d_is < d_ij && d_is < d_js {
        CLOSE_WITH_LOW
    } else if d_js < d_ij && d_js < d_is {
        CLOSE_WITH_HIGH
    } else {
        CLOSE_NONE
    }
}

/// Fills `out[i] = close_pair_code(M[i,j], M[i,s], d_js)` for all
/// `i < j`, from the two solver-matrix rows of `j` and `s`: one linear
/// sweep over both rows replaces `2j` packed-triangle lookups, and the
/// three comparisons per lane vectorize. Writes exactly `out.len()`
/// codes (callers pass the `i < j` slice of the flat triple table).
///
/// # Panics
///
/// Debug builds panic when either row is shorter than `out`.
#[inline]
pub fn close_pair_row(row_j: &[f64], row_s: &[f64], d_js: f64, out: &mut [u8]) {
    debug_assert!(out.len() <= row_j.len() && out.len() <= row_s.len());
    for (i, code) in out.iter_mut().enumerate() {
        *code = close_pair_code(row_j[i], row_s[i], d_js);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference the lane kernel must reproduce bit for bit.
    fn max_in_mask_scalar(row: &[f64], words: &[u64]) -> f64 {
        let mut best = 0.0f64;
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let y = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best = best.max(row[y]);
            }
        }
        best
    }

    /// Deterministic pseudo-random f64 in [0, 100) and u64, no external
    /// crates needed at this layer.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn rand_row(state: &mut u64, n: usize, stride: usize) -> Vec<f64> {
        let mut row = vec![f64::NAN; stride];
        for lane in row.iter_mut().take(n) {
            *lane = (splitmix(state) % 10_000) as f64 / 100.0;
        }
        row
    }

    #[test]
    fn max_in_mask_matches_scalar_reference() {
        let mut st = 0xfeed_u64;
        for n in [1usize, 7, 63, 64, 65, 100, 128, 200] {
            let stride = n.div_ceil(64) * 64;
            let row = rand_row(&mut st, n, stride);
            let words = stride / 64;
            for _trial in 0..50 {
                let mut mask = vec![0u64; words];
                for (w, word) in mask.iter_mut().enumerate() {
                    let lo = w * 64;
                    if lo >= n {
                        continue;
                    }
                    let valid = (n - lo).min(64);
                    let all = if valid == 64 { !0 } else { (1u64 << valid) - 1 };
                    *word = splitmix(&mut st) & splitmix(&mut st) & all;
                }
                let got = max_in_mask(&row, &mask);
                let want = max_in_mask_scalar(&row, &mask);
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, mask = {mask:?}");
                assert!(!got.is_nan(), "padding leaked at n = {n}");
            }
        }
    }

    #[test]
    fn max_in_mask_empty_mask_is_zero() {
        let row = [f64::NAN; 64];
        assert_eq!(max_in_mask(&row, &[0]), 0.0);
        assert_eq!(max_in_mask(&row, &[]), 0.0);
    }

    #[test]
    fn min_prefix_matches_fold() {
        let mut st = 0xbead_u64;
        for n in [0usize, 1, 5, 8, 9, 31, 64, 100] {
            let stride = n.max(1).div_ceil(64) * 64;
            let row = rand_row(&mut st, n, stride);
            let want = row[..n].iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(min_prefix(&row, n).to_bits(), want.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn pendant_suffix_matches_reference_recurrence() {
        // minrow for the 5-taxon matrix used across the problem tests:
        // minrow[2] = 4, minrow[3] = 3, minrow[4] = 5.
        let suffix = pendant_suffix(&[0.0, 0.0, 4.0, 3.0, 5.0]);
        assert_eq!(suffix.len(), 6);
        assert!((suffix[2] - 6.0).abs() < 1e-12);
        assert!((suffix[4] - 2.5).abs() < 1e-12);
        assert_eq!(suffix[5], 0.0);
    }

    #[test]
    fn close_pair_codes_cover_all_arms() {
        assert_eq!(close_pair_code(1.0, 5.0, 5.0), CLOSE_EARLIER);
        assert_eq!(close_pair_code(5.0, 1.0, 5.0), CLOSE_WITH_LOW);
        assert_eq!(close_pair_code(5.0, 5.0, 1.0), CLOSE_WITH_HIGH);
        assert_eq!(close_pair_code(5.0, 5.0, 5.0), CLOSE_NONE);
        assert_eq!(close_pair_code(1.0, 1.0, 5.0), CLOSE_NONE);
    }

    #[test]
    fn triple_index_is_a_bijection_onto_the_table() {
        let n = 9;
        let mut seen = vec![false; close_pair_table_len(n)];
        for s in 2..n {
            for j in 1..s {
                for i in 0..j {
                    let idx = triple_index(i, j, s);
                    assert!(!seen[idx], "({i},{j},{s}) collides");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
