//! x86-64 hardware crypto kernels: AES-NI rounds and PCLMULQDQ
//! carry-less multiplies.
//!
//! This is the [`crate::backend::Backend::Simd`] implementation behind
//! the dispatching primitives. These kernels live here:
//!
//! * **AES-128** — the round functions run on `_mm_aesenc_si128` /
//!   `_mm_aesenclast_si128` with the key schedule derived via
//!   `_mm_aeskeygenassist_si128`; [`ctr_pad`] runs the four counter
//!   blocks of a 64-byte counter-mode pad through the rounds as
//!   independent lanes, so the 4-cycle `aesenc` latency overlaps across
//!   them (the hardware unit is fully pipelined).
//! * **The Bonsai write update** — [`bonsai_update`] runs a write's
//!   whole crypto in one call: the data line's CTR pad, its tag, and every
//!   counter-chain level's new tag from the level's GHASH state by
//!   linearity, with the AES work in groups of four register lanes.
//! * **GHASH / GF(2^128)** — the repo represents GCM field elements as
//!   `u128::from_be_bytes(block)`, which is exactly the *bit-reflected*
//!   operand form of Intel's GCM white-paper `gfmul`: on a little-endian
//!   load the register holds the reflection of the polynomial, so the
//!   product is `clmul` (schoolbook 4-multiply), a 256-bit left shift by
//!   one, and the shift-based reduction by x^128 + x^7 + x^2 + x + 1.
//!   [`ghash_fold`] additionally *aggregates*: with precomputed powers
//!   H^1..H^k a k-block GHASH becomes k independent 256-bit products
//!   XORed before a **single** shift + reduction (linearity), turning the
//!   serial Horner chain into instruction-level parallelism.
//!
//! Every public function here has a safe signature; the `unsafe` is
//! confined to `#[target_feature]` inner functions whose required CPU
//! features the caller guarantees by only reaching this module through a
//! [`crate::backend::Backend::Simd`] dispatch (which implies detection
//! succeeded). The one exception is [`prefetch`], a cache hint that needs
//! only the x86-64 baseline. All kernels are pinned against the crate's
//! bit-serial `*_reference` oracles by the backend-equivalence proptest
//! suite.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::ghash::chip_term;
use crate::gmac::{bump, nonce_parts, ChainLevel};

/// Debug-build guard: the SIMD entry points must only be reached behind
/// a successful feature detection.
#[inline]
fn debug_assert_supported() {
    debug_assert!(
        crate::backend::Backend::simd_available(),
        "SIMD crypto kernel called without AES-NI/PCLMULQDQ"
    );
}

// ---------------------------------------------------------------------
// AES-128
// ---------------------------------------------------------------------

/// One key-schedule step: `prev` is round key r, returns round key r+1.
/// `RCON` is the FIPS-197 round constant for the step.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn expand_step<const RCON: i32>(prev: __m128i) -> __m128i {
    // aeskeygenassist computes SubWord(RotWord(w3)) ^ rcon in lane 3;
    // broadcast it, then XOR the running prefix of the previous key.
    let t = _mm_shuffle_epi32::<0xFF>(_mm_aeskeygenassist_si128::<RCON>(prev));
    let mut k = prev;
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, t)
}

#[target_feature(enable = "aes")]
unsafe fn expand_key_inner(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut rk = [[0u8; 16]; 11];
    let mut k = _mm_loadu_si128(key.as_ptr().cast());
    _mm_storeu_si128(rk[0].as_mut_ptr().cast(), k);
    macro_rules! step {
        ($i:expr, $rcon:expr) => {
            k = expand_step::<$rcon>(k);
            _mm_storeu_si128(rk[$i].as_mut_ptr().cast(), k);
        };
    }
    step!(1, 0x01);
    step!(2, 0x02);
    step!(3, 0x04);
    step!(4, 0x08);
    step!(5, 0x10);
    step!(6, 0x20);
    step!(7, 0x40);
    step!(8, 0x80);
    step!(9, 0x1b);
    step!(10, 0x36);
    rk
}

/// AES-128 key expansion via `_mm_aeskeygenassist_si128`. Byte-identical
/// to the software schedule in [`crate::aes`] (pinned by test).
pub(crate) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    debug_assert_supported();
    unsafe { expand_key_inner(key) }
}

/// # Safety
///
/// The CPU must support AES-NI.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn encrypt_block_inner(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
    let mut s = _mm_xor_si128(
        _mm_loadu_si128(block.as_ptr().cast()),
        _mm_loadu_si128(round_keys[0].as_ptr().cast()),
    );
    for rk in &round_keys[1..10] {
        s = _mm_aesenc_si128(s, _mm_loadu_si128(rk.as_ptr().cast()));
    }
    s = _mm_aesenclast_si128(s, _mm_loadu_si128(round_keys[10].as_ptr().cast()));
    let mut out = [0u8; 16];
    _mm_storeu_si128(out.as_mut_ptr().cast(), s);
    out
}

/// Single-block encryption: straight-line AES-NI rounds.
pub(crate) fn encrypt_block(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
    debug_assert_supported();
    unsafe { encrypt_block_inner(round_keys, block) }
}

/// The four counter-mode blocks of `(addr, counter)` as AES registers.
/// Counter block i is `addr (8 bytes BE) || counter (low 7 bytes BE) ||
/// i`. As a little-endian register the high half is the byte-swapped
/// `counter << 8`, so the four blocks differ only in its top byte.
///
/// # Safety
///
/// None beyond SSE2, part of the x86-64 baseline.
#[inline]
unsafe fn ctr_blocks(addr: u64, counter: u64) -> [__m128i; 4] {
    let base = _mm_set_epi64x((counter << 8).swap_bytes() as i64, addr.swap_bytes() as i64);
    [0, 1, 2, 3].map(|i: i64| _mm_xor_si128(base, _mm_set_epi64x(i << 56, 0)))
}

/// # Safety
///
/// The CPU must support AES-NI.
#[target_feature(enable = "aes")]
unsafe fn ctr_pad_inner(round_keys: &[[u8; 16]; 11], addr: u64, counter: u64) -> [u8; 64] {
    let mut pad = [0u8; 64];
    for (i, lane) in aes_x4(round_keys, ctr_blocks(addr, counter)).iter().enumerate() {
        _mm_storeu_si128(pad[16 * i..].as_mut_ptr().cast(), *lane);
    }
    pad
}

/// The 64-byte counter-mode pad of `(addr, counter)`: builds the four
/// counter blocks in registers and runs them through the AES rounds as
/// four straight-line lanes. Byte-identical to the four blocks of
/// [`crate::ctr::pad_with_cipher_reference`] (pinned by the
/// backend-equivalence suite).
#[inline]
pub(crate) fn ctr_pad(round_keys: &[[u8; 16]; 11], addr: u64, counter: u64) -> [u8; 64] {
    debug_assert_supported();
    // SAFETY: this module is reached only through a `Backend::Simd`
    // instance, which is built only after AES-NI was detected; the stores
    // stay within the 64-byte array.
    unsafe { ctr_pad_inner(round_keys, addr, counter) }
}

// ---------------------------------------------------------------------
// GF(2^128) — GCM bit-reflected representation
// ---------------------------------------------------------------------

/// A deferred (unreduced) 256-bit carry-less product, accumulated across
/// aggregated GHASH terms before one shared shift + reduction.
#[derive(Clone, Copy)]
struct Wide {
    hi: __m128i,
    lo: __m128i,
}

#[inline]
unsafe fn load_elem(x: u128) -> __m128i {
    // Little-endian load of the u128 value: the register holds the
    // bit-reflection of the GCM polynomial, i.e. the white-paper operand.
    _mm_loadu_si128((&raw const x).cast())
}

#[inline]
unsafe fn store_elem(v: __m128i) -> u128 {
    let mut out = 0u128;
    _mm_storeu_si128((&raw mut out).cast(), v);
    out
}

/// Schoolbook 128×128 → 256-bit carry-less multiply (4 `clmul`s).
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn clmul256(a: __m128i, b: __m128i) -> Wide {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    Wide {
        hi: _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
        lo: _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
    }
}

/// Shifts the 256-bit product left by one bit and reduces modulo
/// x^128 + x^7 + x^2 + x + 1 — the bit-reflected `gfmul` tail from
/// Intel's GCM white paper. Linear in its input, so an XOR-accumulated
/// [`Wide`] reduces in one call.
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn shift_reduce(w: Wide) -> __m128i {
    // 256-bit left shift by 1 across the four 32-bit lanes of [hi:lo].
    let carry_lo = _mm_srli_epi32::<31>(w.lo);
    let carry_hi = _mm_srli_epi32::<31>(w.hi);
    let mut lo = _mm_slli_epi32::<1>(w.lo);
    let mut hi = _mm_slli_epi32::<1>(w.hi);
    let cross = _mm_srli_si128::<12>(carry_lo);
    lo = _mm_or_si128(lo, _mm_slli_si128::<4>(carry_lo));
    hi = _mm_or_si128(hi, _mm_slli_si128::<4>(carry_hi));
    hi = _mm_or_si128(hi, cross);

    // Reduction, phase 1: fold x^31/x^30/x^25 multiples of the low half.
    let mut t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let t_high = _mm_srli_si128::<4>(t);
    t = _mm_slli_si128::<12>(t);
    lo = _mm_xor_si128(lo, t);

    // Phase 2: right-shift folds complete the pentanomial.
    let r = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), t_high),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, r))
}

#[target_feature(enable = "pclmulqdq")]
unsafe fn gf128_mul_inner(x: u128, y: u128) -> u128 {
    store_elem(shift_reduce(clmul256(load_elem(x), load_elem(y))))
}

/// GF(2^128) multiply in the GCM bit ordering via PCLMULQDQ.
pub(crate) fn gf128_mul(x: u128, y: u128) -> u128 {
    debug_assert_supported();
    unsafe { gf128_mul_inner(x, y) }
}

#[target_feature(enable = "pclmulqdq")]
unsafe fn ghash_fold_inner(y: u128, blocks: &[u128], powers: &[u128]) -> u128 {
    let n = blocks.len();
    debug_assert!(n >= 1 && n <= powers.len());
    // Y_out = (Y_in ^ B_0)·H^n  ^  B_1·H^(n-1)  ^ … ^  B_{n-1}·H^1:
    // every term is an independent clmul; one reduction at the end.
    let mut acc = clmul256(load_elem(y ^ blocks[0]), load_elem(powers[n - 1]));
    for (i, &b) in blocks.iter().enumerate().skip(1) {
        let w = clmul256(load_elem(b), load_elem(powers[n - 1 - i]));
        acc.hi = _mm_xor_si128(acc.hi, w.hi);
        acc.lo = _mm_xor_si128(acc.lo, w.lo);
    }
    store_elem(shift_reduce(acc))
}

/// Aggregated GHASH fold: absorbs `blocks` into running digest `y` using
/// the precomputed key powers `powers[j] = H^(j+1)`. Requires
/// `1 <= blocks.len() <= powers.len()`.
pub(crate) fn ghash_fold(y: u128, blocks: &[u128], powers: &[u128]) -> u128 {
    debug_assert_supported();
    unsafe { ghash_fold_inner(y, blocks, powers) }
}

/// Loads a GCM block given as a `u128` value (big-endian block order)
/// into the byte order the AES rounds take.
///
/// # Safety
///
/// None beyond SSE2, part of the x86-64 baseline.
#[inline]
unsafe fn load_block(x: u128) -> __m128i {
    let bytes = x.to_be_bytes();
    _mm_loadu_si128(bytes.as_ptr().cast())
}

/// Inverse of [`load_block`]: an AES output register as a `u128` block.
///
/// # Safety
///
/// None beyond SSE2, part of the x86-64 baseline.
#[inline]
unsafe fn store_block(v: __m128i) -> u128 {
    let mut bytes = [0u8; 16];
    _mm_storeu_si128(bytes.as_mut_ptr().cast(), v);
    u128::from_be_bytes(bytes)
}

/// GHASH of (4-byte AAD, 64-byte data): 1 AAD + 4 data + 1 length block,
/// aggregated into a single reduction.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ, and `powers` must hold the six key
/// powers of a line tag (a shorter slice panics).
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn ghash_line(powers: &[u128], aad: [u8; 4], data: &[u8; 64]) -> u128 {
    let aad_block = (u32::from_be_bytes(aad) as u128) << 96;
    let mut acc = clmul256(load_elem(aad_block), load_elem(powers[5]));
    for i in 0..4 {
        let b = u128::from_be_bytes(data[16 * i..16 * i + 16].try_into().expect("16-byte chunk"));
        let w = clmul256(load_elem(b), load_elem(powers[4 - i]));
        acc.hi = _mm_xor_si128(acc.hi, w.hi);
        acc.lo = _mm_xor_si128(acc.lo, w.lo);
    }
    let len_block = (32u128 << 64) | 512;
    let w = clmul256(load_elem(len_block), load_elem(powers[0]));
    acc.hi = _mm_xor_si128(acc.hi, w.hi);
    acc.lo = _mm_xor_si128(acc.lo, w.lo);
    store_elem(shift_reduce(acc))
}

/// # Safety
///
/// The CPU must support AES-NI and PCLMULQDQ, and `powers` must hold the
/// six key powers of a line tag (a shorter slice panics).
#[target_feature(enable = "aes,pclmulqdq")]
unsafe fn gmac_line_tag_inner(
    round_keys: &[[u8; 16]; 11],
    powers: &[u128],
    j0: u128,
    aad: [u8; 4],
    data: &[u8; 64],
) -> (u128, u128) {
    // E_K(J0) is issued before the fold, so the serial aesenc chain
    // overlaps the independent clmuls in the out-of-order window.
    let ek_j0 = u128::from_be_bytes(encrypt_block_inner(round_keys, &j0.to_be_bytes()));
    (ghash_line(powers, aad, data), ek_j0)
}

/// The two halves of a 128-bit GMAC line tag, `(GHASH(aad, data),
/// E_K(J0))`, in one kernel call: the tag is their XOR. Fusing the AES
/// encryption and the aggregated fold keeps the whole tag inside a single
/// `#[target_feature]` region: the two halves are independent, so the
/// hardware overlaps them, and the call boundary (which cannot be inlined
/// into non-target-feature callers) is paid once instead of twice.
/// `powers` needs at least the six key powers a line tag consumes.
#[inline]
pub(crate) fn gmac_line_tag(
    round_keys: &[[u8; 16]; 11],
    powers: &[u128],
    j0: u128,
    aad: [u8; 4],
    data: &[u8; 64],
) -> (u128, u128) {
    debug_assert_supported();
    debug_assert!(powers.len() >= 6);
    // SAFETY: this module is reached only through `Backend::Simd`
    // instances, built only after AES-NI and PCLMULQDQ were detected.
    unsafe { gmac_line_tag_inner(round_keys, powers, j0, aad, data) }
}

/// # Safety
///
/// The CPU must support AES-NI and PCLMULQDQ, and `powers` must hold at
/// least the six key powers of a line tag.
#[target_feature(enable = "aes,pclmulqdq")]
unsafe fn gmac_line_candidates_inner(
    round_keys: &[[u8; 16]; 11],
    powers: &[u128],
    j0: u128,
    aad: [u8; 4],
    data: &[u8; 64],
    delta: u64,
) -> (u128, [u64; 8]) {
    let (ghash, ek_j0) = gmac_line_tag_inner(round_keys, powers, j0, aad, data);
    let tag = ghash ^ ek_j0;
    // Chips 2b and 2b+1 put `delta` in the high and the low half of data
    // block b, whose GHASH weight is H^(5 − b) = powers[4 − b]. With
    // `delta` in the register's low qword, the same two clmuls serve both:
    // X = delta·P_lo and Y = delta·P_hi. The odd chip's operand is
    // [delta, 0], so its product is X + Y·x^64; the even chip's is
    // [0, delta], so its product is Y·x^128 + X·x^64. A tag's top 64 bits
    // are the register's high qword.
    let t = load_elem(tag);
    let top = |v: __m128i| _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    let d = _mm_set_epi64x(0, delta as i64);
    let mut variants = [0u64; 8];
    for b in 0..4 {
        let p = load_elem(powers[4 - b]);
        let x = _mm_clmulepi64_si128::<0x00>(d, p);
        let y = _mm_clmulepi64_si128::<0x10>(d, p);
        let even =
            Wide { hi: _mm_xor_si128(y, _mm_srli_si128::<8>(x)), lo: _mm_slli_si128::<8>(x) };
        let odd = Wide { hi: _mm_srli_si128::<8>(y), lo: _mm_xor_si128(x, _mm_slli_si128::<8>(y)) };
        variants[2 * b] = top(_mm_xor_si128(t, shift_reduce(even)));
        variants[2 * b + 1] = top(_mm_xor_si128(t, shift_reduce(odd)));
    }
    (tag, variants)
}

/// [`gmac_line_tag`] plus the 64-bit tags of the eight variants of
/// `data` with `delta` (as a big-endian word) XORed into one chip's eight
/// bytes: GHASH is linear and the variants share `E_K(J0)`, so each costs
/// one carry-less product of `delta` by a key power, two `clmul`s and a
/// reduction, instead of a tag.
pub(crate) fn gmac_line_candidates(
    round_keys: &[[u8; 16]; 11],
    powers: &[u128],
    j0: u128,
    aad: [u8; 4],
    data: &[u8; 64],
    delta: u64,
) -> (u128, [u64; 8]) {
    debug_assert_supported();
    debug_assert!(powers.len() >= 6);
    // SAFETY: this module is reached only through a `Backend::Simd`
    // instance, built only after AES-NI and PCLMULQDQ were detected; the
    // caller passes a key's six powers (`GhashKey::powers`).
    unsafe { gmac_line_candidates_inner(round_keys, powers, j0, aad, data, delta) }
}

/// Runs four blocks through AES-128 as independent lanes: every lane runs
/// a round before any runs the next, so the `aesenc` latency overlaps
/// across them, and the lanes stay in registers.
///
/// # Safety
///
/// The CPU must support AES-NI.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn aes_x4(round_keys: &[[u8; 16]; 11], blocks: [__m128i; 4]) -> [__m128i; 4] {
    let k0 = _mm_loadu_si128(round_keys[0].as_ptr().cast());
    let mut b = blocks;
    for lane in &mut b {
        *lane = _mm_xor_si128(*lane, k0);
    }
    for rk in &round_keys[1..10] {
        let k = _mm_loadu_si128(rk.as_ptr().cast());
        for lane in &mut b {
            *lane = _mm_aesenc_si128(*lane, k);
        }
    }
    let k10 = _mm_loadu_si128(round_keys[10].as_ptr().cast());
    for lane in &mut b {
        *lane = _mm_aesenclast_si128(*lane, k10);
    }
    b
}

/// # Safety
///
/// The CPU must support AES-NI and PCLMULQDQ. (Every index is checked:
/// an empty chain, a slot above 7 or a short `tags` panics.)
#[target_feature(enable = "aes,pclmulqdq")]
unsafe fn bonsai_update_inner(
    mac_keys: &[[u8; 16]; 11],
    enc_keys: &[[u8; 16]; 11],
    powers: &[u128],
    levels: &[ChainLevel],
    addr: u64,
    plaintext: &[u8; 64],
    tags: &mut [u64],
) -> ([u8; 64], u64) {
    let counter = bump(levels[0].counter);
    let (data_j0, data_aad) = nonce_parts(addr, counter);
    // The data line's CTR pad under the encryption key first, so that the
    // GHASH of its ciphertext overlaps the AES of the J0 blocks under the
    // MAC key, which run four lanes at a time: lane 0 of the first group
    // is the data line's, lane j >= 1 is level j − 1's.
    let pad = aes_x4(enc_keys, ctr_blocks(addr, counter));
    let mut ciphertext = [0u8; 64];
    for (i, lane) in pad.iter().enumerate() {
        let pt = _mm_loadu_si128(plaintext[16 * i..].as_ptr().cast());
        _mm_storeu_si128(ciphertext[16 * i..].as_mut_ptr().cast(), _mm_xor_si128(*lane, pt));
    }
    let mut data_tag = ghash_line(powers, data_aad, &ciphertext);
    for first in (0..=levels.len()).step_by(4) {
        let mut j0 = [_mm_setzero_si128(); 4];
        for (j, lane) in (first..=levels.len()).zip(&mut j0) {
            *lane = load_block(match j {
                0 => data_j0,
                _ => nonce_parts(levels[j - 1].addr, bump(levels[j - 1].parent_counter)).0,
            });
        }
        for (j, ek) in (first..=levels.len()).zip(aes_x4(mac_keys, j0)) {
            let Some(k) = j.checked_sub(1) else {
                data_tag ^= store_block(ek);
                continue;
            };
            // Level k's new GHASH state is its old one plus the bumped
            // slot's delta times its block's key power, plus the AAD delta
            // times H^6 when the parent counter crossed a 2^32 boundary.
            let level = &levels[k];
            let parent = bump(level.parent_counter);
            let delta = (level.counter ^ bump(level.counter)).swap_bytes();
            let (block, power) = chip_term(level.slot, delta);
            let mut acc = clmul256(load_elem(block), load_elem(powers[power - 1]));
            let aad = (level.parent_counter >> 32) ^ (parent >> 32);
            if aad != 0 {
                let w = clmul256(load_elem(u128::from(aad) << 96), load_elem(powers[5]));
                acc.hi = _mm_xor_si128(acc.hi, w.hi);
                acc.lo = _mm_xor_si128(acc.lo, w.lo);
            }
            let state = level.state ^ store_elem(shift_reduce(acc));
            tags[k] = ((state ^ store_block(ek)) >> 64) as u64;
        }
    }
    (ciphertext, (data_tag >> 64) as u64)
}

/// The whole write of a data line under a verified counter chain in one
/// kernel call: every level's new tag by GHASH linearity, and the data
/// line's ciphertext and tag under its bumped counter (see
/// [`crate::gmac::Gmac::bonsai_update`]). The AES work of every level's
/// `E_K(J0)`, the data line's and its four CTR blocks runs in groups of
/// four interleaved lanes; each level then costs one or two carry-less
/// products and a reduction.
pub(crate) fn bonsai_update(
    mac_keys: &[[u8; 16]; 11],
    enc_keys: &[[u8; 16]; 11],
    powers: &[u128],
    levels: &[ChainLevel],
    addr: u64,
    plaintext: &[u8; 64],
    tags: &mut [u64],
) -> ([u8; 64], u64) {
    debug_assert_supported();
    // SAFETY: this module is reached only through `Backend::Simd`
    // instances, built only after AES-NI and PCLMULQDQ were detected.
    unsafe { bonsai_update_inner(mac_keys, enc_keys, powers, levels, addr, plaintext, tags) }
}

/// Starts loading the cache lines holding the first and the last of
/// `words` into every cache level (`prefetcht0`) and returns at once. A
/// load would hold its instruction back from retiring until the line
/// arrives; a prefetch retires immediately, so several misses overlap
/// without filling the out-of-order window.
pub(crate) fn prefetch(words: &[u64]) {
    if let (Some(first), Some(last)) = (words.first(), words.last()) {
        // SAFETY: a prefetch is a hint: it never faults and writes
        // nothing, and SSE is part of the x86-64 baseline.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>((first as *const u64).cast());
            _mm_prefetch::<_MM_HINT_T0>((last as *const u64).cast());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;

    fn skip() -> bool {
        if Backend::simd_available() {
            false
        } else {
            eprintln!("SKIP: host lacks AES-NI/PCLMULQDQ — simd kernel tests not run");
            true
        }
    }

    #[test]
    fn keygenassist_schedule_matches_software_schedule() {
        if skip() {
            return;
        }
        for seed in 0u8..8 {
            let mut key = [0u8; 16];
            for (i, k) in key.iter_mut().enumerate() {
                *k = seed.wrapping_mul(73).wrapping_add(29u8.wrapping_mul(i as u8));
            }
            let aes = crate::Aes128::with_backend(&key, Backend::Table);
            assert_eq!(expand_key(&key), *aes.round_keys(), "seed {seed}");
        }
    }

    #[test]
    fn gf128_matches_reference_on_fixed_points() {
        if skip() {
            return;
        }
        let xs = [
            0u128,
            1,
            1 << 127,
            u128::MAX,
            0x66e94bd4ef8a2c3b_884cfa59ca342b2e,
            0x0388dace60b6a392_f328c2b971b2fe78,
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    gf128_mul(a, b),
                    crate::ghash::gf128_mul_reference(a, b),
                    "a={a:032x} b={b:032x}"
                );
            }
        }
    }

    #[test]
    fn ghash_fold_equals_horner() {
        if skip() {
            return;
        }
        let h = 0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128;
        let mut powers = [0u128; 8];
        let mut p = h;
        for slot in powers.iter_mut() {
            *slot = p;
            p = crate::ghash::gf128_mul_reference(p, h);
        }
        let blocks: Vec<u128> = (1..=8u128).map(|i| i * 0x0123_4567_89ab_cdef).collect();
        for n in 1..=8 {
            let folded = ghash_fold(0xfeed, &blocks[..n], &powers);
            let mut y = 0xfeedu128;
            for &b in &blocks[..n] {
                y = crate::ghash::gf128_mul_reference(y ^ b, h);
            }
            assert_eq!(folded, y, "n={n}");
        }
    }
}
