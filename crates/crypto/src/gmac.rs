//! 64-bit GMAC — the message authentication code of the SYNERGY design.
//!
//! The paper uses "64-bit AES-GCM based GMACs" for data cachelines, counter
//! cachelines and integrity-tree nodes (Table II). A GMAC is GCM with an
//! empty plaintext: the tag authenticates the additional-authenticated-data,
//! here the tuple *(address, counter, line contents)*. Binding the address
//! prevents relocation ("splicing") attacks and binding the counter prevents
//! replay of stale `{Data, MAC}` pairs at the same address (in combination
//! with the integrity tree protecting the counters themselves).
//!
//! In SYNERGY this same tag doubles as the chip-failure detection code: any
//! corruption of the stored line or tag is detected except with probability
//! 2^-64 per comparison.
//!
//! The tag path is keyed and backend-dispatched: [`Gmac::new`] derives the
//! AES schedule and a [`GhashKey`] once, so each line tag costs 6 GF(2^128)
//! multiplies plus one AES encryption — table lookups on the portable
//! backend, one aggregated PCLMULQDQ fold plus an AES-NI encryption on the
//! SIMD backend. [`Gmac::line_tags_batch`] and [`Gmac::verify_lines_batch`]
//! additionally pipeline the `E_K(J0)` block encryptions of several
//! independent lines through one [`Aes128::encrypt_blocks`] call. The
//! bit-serial path is kept as [`Gmac::tag128_reference`] /
//! [`Gmac::line_tag_reference`] for equivalence testing and benchmarking.

use crate::backend::Backend;
use crate::ghash::{ghash, GhashKey};
use crate::{Aes128, CacheLine, MacKey};

/// A keyed GMAC instance (hash subkey and its multiplication table derived
/// once from the MAC key).
///
/// ```
/// use synergy_crypto::{gmac::Gmac, CacheLine, MacKey};
///
/// let gmac = Gmac::new(&MacKey::from_bytes([9; 16]));
/// let line = CacheLine::from_bytes([0x42; 64]);
/// let tag = gmac.line_tag(0x8000, 3, &line);
/// assert!(gmac.verify_line(0x8000, 3, &line, tag));
/// // A different counter value (e.g. a replayed stale tuple) fails.
/// assert!(!gmac.verify_line(0x8000, 4, &line, tag));
/// ```
#[derive(Clone)]
pub struct Gmac {
    aes: Aes128,
    /// GHASH subkey H = AES_K(0^128) with its precomputed window table.
    hkey: GhashKey,
}

impl core::fmt::Debug for Gmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gmac(<keyed instance>)")
    }
}

impl Gmac {
    /// Creates a GMAC instance from a 128-bit MAC key. This derives the key
    /// schedule and builds the GHASH window table — one-time cost, amortized
    /// over every subsequent tag.
    pub fn new(key: &MacKey) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// Like [`Gmac::new`] but with an explicit backend — used by the
    /// equivalence tests to exercise both paths in one process.
    pub fn with_backend(key: &MacKey, backend: Backend) -> Self {
        let aes = Aes128::with_backend(key.as_bytes(), backend);
        let h = u128::from_be_bytes(aes.encrypt_block(&[0u8; 16]));
        Self {
            aes,
            hkey: GhashKey::with_backend(h, backend),
        }
    }

    /// The pre-counter block `J0` and AAD for the `(addr, counter)` nonce.
    ///
    /// The nonce is encoded as a 96-bit IV `addr (64b) || counter lower 32b`
    /// with the counter's upper bits folded into the AAD, matching GCM's
    /// 96-bit-IV fast path (`J0 = IV || 0^31 || 1`).
    #[inline]
    fn nonce_parts(addr: u64, counter: u64) -> (u128, [u8; 4]) {
        let j0: u128 = ((addr as u128) << 64) | ((counter as u128 & 0xffff_ffff) << 32) | 1;
        let aad = ((counter >> 32) as u32).to_be_bytes();
        (j0, aad)
    }

    /// Computes the full 128-bit GCM tag for `data` under the nonce
    /// `(addr, counter)` via the table-driven GHASH.
    pub fn tag128(&self, addr: u64, counter: u64, data: &[u8]) -> u128 {
        let (j0, aad) = Self::nonce_parts(addr, counter);
        let g = self.hkey.ghash(&aad, data);
        g ^ self.aes.encrypt_u128(j0)
    }

    /// [`Gmac::tag128`] computed with the bit-serial GHASH oracle — kept for
    /// equivalence tests and table-vs-reference benchmarks.
    pub fn tag128_reference(&self, addr: u64, counter: u64, data: &[u8]) -> u128 {
        let (j0, aad) = Self::nonce_parts(addr, counter);
        let g = ghash(self.hkey.h(), &aad, data);
        g ^ u128::from_be_bytes(self.aes.encrypt_block_reference(&j0.to_be_bytes()))
    }

    /// Computes the 64-bit truncated GMAC used throughout the paper.
    pub fn tag64(&self, addr: u64, counter: u64, data: &[u8]) -> u64 {
        (self.tag128(addr, counter, data) >> 64) as u64
    }

    /// Tag for a 64-byte data cacheline: MAC(addr, counter, ciphertext).
    ///
    /// Semantically `tag64(addr, counter, line.as_bytes())`, but routed
    /// through the fixed-shape single-fold path (pinned equal to the
    /// generic path by test).
    pub fn line_tag(&self, addr: u64, counter: u64, line: &CacheLine) -> u64 {
        self.tag64_line_shape(addr, counter, line.as_bytes())
    }

    /// `tag64` for exactly 64 bytes of data: the fused single-call kernel
    /// on the SIMD backend, [`GhashKey::ghash_line`] on the table backend.
    /// Both equal the generic streaming path bit for bit (a 4-byte AAD and
    /// 64 data bytes are exactly the shape `ghash_line` is pinned on).
    #[inline]
    fn tag64_line_shape(&self, addr: u64, counter: u64, data: &[u8; 64]) -> u64 {
        let (j0, aad) = Self::nonce_parts(addr, counter);
        #[cfg(target_arch = "x86_64")]
        if self.aes.backend() == Backend::Simd {
            let keys = self.aes.round_keys();
            let tag = crate::simd::gmac_line_tag(keys, self.hkey.powers(), j0, aad, data);
            return (tag >> 64) as u64;
        }
        let g = self.hkey.ghash_line(aad, data);
        ((g ^ self.aes.encrypt_u128(j0)) >> 64) as u64
    }

    /// [`Gmac::line_tag`] via the reference (bit-serial) path.
    pub fn line_tag_reference(&self, addr: u64, counter: u64, line: &CacheLine) -> u64 {
        (self.tag128_reference(addr, counter, line.as_bytes()) >> 64) as u64
    }

    /// Verifies a stored 64-bit tag for a data cacheline.
    ///
    /// Returns `true` when the recomputed tag matches. In SYNERGY a `false`
    /// result triggers the error-correction flow rather than an immediate
    /// attack declaration.
    pub fn verify_line(&self, addr: u64, counter: u64, line: &CacheLine, tag: u64) -> bool {
        self.line_tag(addr, counter, line) == tag
    }

    /// Tag for an integrity-tree or counter cacheline: the MAC covers the
    /// eight 56-bit counters (packed into `payload`) and is keyed by the
    /// node's address and the parent tree counter.
    ///
    /// Semantically `tag64(addr, parent_counter, payload)`, computed on the
    /// same fixed-shape kernel as [`Gmac::line_tag`]: a counter-tree walk
    /// costs one fused tag per level.
    pub fn node_tag(&self, addr: u64, parent_counter: u64, payload: &[u8; 64]) -> u64 {
        self.tag64_line_shape(addr, parent_counter, payload)
    }

    /// Computes line tags for a batch of independent `(addr, counter,
    /// line)` tuples — semantically `items.map(line_tag)`. On the SIMD
    /// backend each tag runs the fused single-call kernel (AES and fold
    /// already overlap inside it); on the table backend the per-line
    /// `E_K(J0)` block encryptions are pipelined through one
    /// [`Aes128::encrypt_blocks`] call, amortizing call overhead and
    /// keeping the T-tables hot (the win the batched secure-engine drain
    /// exploits).
    pub fn line_tags_batch(&self, items: &[(u64, u64, &CacheLine)]) -> Vec<u64> {
        #[cfg(target_arch = "x86_64")]
        if self.aes.backend() == Backend::Simd {
            return items
                .iter()
                .map(|&(addr, counter, line)| self.line_tag(addr, counter, line))
                .collect();
        }
        let mut j0s: Vec<[u8; 16]> = items
            .iter()
            .map(|&(addr, counter, _)| Self::nonce_parts(addr, counter).0.to_be_bytes())
            .collect();
        self.aes.encrypt_blocks(&mut j0s);
        items
            .iter()
            .zip(&j0s)
            .map(|(&(addr, counter, line), ek_j0)| {
                let (_, aad) = Self::nonce_parts(addr, counter);
                let g = self.hkey.ghash_line(aad, line.as_bytes());
                ((g ^ u128::from_be_bytes(*ek_j0)) >> 64) as u64
            })
            .collect()
    }

    /// Verifies stored tags for a batch of independent lines —
    /// semantically `items.map(verify_line)` with the batched tag
    /// pipeline of [`Gmac::line_tags_batch`].
    pub fn verify_lines_batch(&self, items: &[(u64, u64, &CacheLine, u64)]) -> Vec<bool> {
        let tuples: Vec<(u64, u64, &CacheLine)> =
            items.iter().map(|&(a, c, l, _)| (a, c, l)).collect();
        self.line_tags_batch(&tuples)
            .iter()
            .zip(items)
            .map(|(computed, &(_, _, _, stored))| *computed == stored)
            .collect()
    }
}

/// Debug-build tripwire for the one-shot helpers below: each call repeats
/// full key setup, so any hot loop reaching for them is a performance bug
/// (the simulator issues millions of tags per run — through [`Gmac`]).
/// The threshold is far above any sane one-off/test usage.
#[cfg(debug_assertions)]
fn debit_one_shot_budget() {
    use core::sync::atomic::{AtomicU64, Ordering};
    static ONE_SHOT_CALLS: AtomicU64 = AtomicU64::new(0);
    let calls = ONE_SHOT_CALLS.fetch_add(1, Ordering::Relaxed) + 1;
    debug_assert!(
        calls <= 4096,
        "gmac::compute/verify called {calls} times — these re-run AES key \
         setup per call; hold a Gmac and use line_tag/verify_line instead"
    );
}

#[cfg(not(debug_assertions))]
fn debit_one_shot_budget() {}

/// One-shot convenience: compute the 64-bit GMAC of a cacheline.
///
/// **Warning — not for hot paths.** Each call runs full key setup: the AES
/// key schedule plus (on the table backend) the 64 KiB GHASH window table,
/// thousands of times the cost of the tag itself. Hold a [`Gmac`] and call
/// [`Gmac::line_tag`] / [`Gmac::line_tags_batch`] when computing more than
/// one tag under the same key. Debug builds panic if a process exceeds a
/// generous process-wide one-shot budget (4096 calls).
pub fn compute(key: &MacKey, addr: u64, counter: u64, line: &CacheLine) -> u64 {
    debit_one_shot_budget();
    Gmac::new(key).line_tag(addr, counter, line)
}

/// One-shot convenience: verify the 64-bit GMAC of a cacheline.
///
/// **Warning — not for hot paths.** Repeats full key setup per call; see
/// [`compute`]. Hold a [`Gmac`] and use [`Gmac::verify_line`] /
/// [`Gmac::verify_lines_batch`] instead. Debug builds panic past a
/// generous process-wide one-shot budget.
pub fn verify(key: &MacKey, addr: u64, counter: u64, line: &CacheLine, tag: u64) -> bool {
    debit_one_shot_budget();
    Gmac::new(key).verify_line(addr, counter, line, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gmac() -> Gmac {
        Gmac::new(&MacKey::from_bytes([0x5A; 16]))
    }

    #[test]
    fn deterministic() {
        let line = CacheLine::from_bytes([1; 64]);
        assert_eq!(gmac().line_tag(10, 20, &line), gmac().line_tag(10, 20, &line));
    }

    #[test]
    fn table_tag_matches_reference_tag() {
        let g = gmac();
        let line = CacheLine::from_bytes([0xA7; 64]);
        for (addr, counter) in [(0u64, 0u64), (0x4000, 9), (u64::MAX, u64::MAX), (1, 1 << 40)] {
            assert_eq!(
                g.tag128(addr, counter, line.as_bytes()),
                g.tag128_reference(addr, counter, line.as_bytes())
            );
            assert_eq!(
                g.line_tag(addr, counter, &line),
                g.line_tag_reference(addr, counter, &line)
            );
        }
    }

    #[test]
    fn binds_address() {
        let line = CacheLine::from_bytes([1; 64]);
        assert_ne!(gmac().line_tag(10, 20, &line), gmac().line_tag(11, 20, &line));
    }

    #[test]
    fn binds_counter_including_high_bits() {
        let line = CacheLine::from_bytes([1; 64]);
        let g = gmac();
        assert_ne!(g.line_tag(10, 20, &line), g.line_tag(10, 21, &line));
        // Counters are 56-bit in the paper; the AAD path must bind bits
        // above the 32 folded into the IV.
        assert_ne!(
            g.line_tag(10, 1 << 40, &line),
            g.line_tag(10, 2 << 40, &line)
        );
    }

    #[test]
    fn binds_data_every_bit() {
        let g = gmac();
        let line = CacheLine::zeroed();
        let base = g.line_tag(0, 0, &line);
        // Exhaustive over all 512 bits: a MAC must detect any single-bit
        // error — this is exactly the error-detection property SYNERGY
        // relies on (§III).
        for bit in 0..512 {
            let flipped = line.with_bit_flipped(bit);
            assert_ne!(g.line_tag(0, 0, &flipped), base, "bit {bit} undetected");
        }
    }

    #[test]
    fn detects_chip_granularity_corruption() {
        // A failed x8 chip corrupts one 8-byte slice of the line.
        let g = gmac();
        let mut line = CacheLine::from_bytes([0x77; 64]);
        let tag = g.line_tag(4096, 1, &line);
        line.chip_slice_mut(5).copy_from_slice(&[0u8; 8]);
        assert!(!g.verify_line(4096, 1, &line, tag));
    }

    #[test]
    fn keys_separate_tags() {
        let line = CacheLine::from_bytes([9; 64]);
        let a = Gmac::new(&MacKey::from_bytes([1; 16]));
        let b = Gmac::new(&MacKey::from_bytes([2; 16]));
        assert_ne!(a.line_tag(0, 0, &line), b.line_tag(0, 0, &line));
    }

    #[test]
    fn one_shot_helpers_agree_with_instance() {
        let key = MacKey::from_bytes([3; 16]);
        let line = CacheLine::from_bytes([0xCD; 64]);
        let tag = compute(&key, 64, 5, &line);
        assert_eq!(tag, Gmac::new(&key).line_tag(64, 5, &line));
        assert!(verify(&key, 64, 5, &line, tag));
        assert!(!verify(&key, 64, 6, &line, tag));
    }

    #[test]
    fn batch_tags_match_scalar_tags() {
        for backend in [Backend::Table, Backend::detect()] {
            let g = Gmac::with_backend(&MacKey::from_bytes([0x5A; 16]), backend);
            let lines: Vec<CacheLine> =
                (0u8..7).map(|i| CacheLine::from_bytes([i.wrapping_mul(41); 64])).collect();
            let items: Vec<(u64, u64, &CacheLine)> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| (0x1000 + 64 * i as u64, (1u64 << 40) + i as u64, l))
                .collect();
            // Batch sizes straddling the 8-lane AES pipeline, plus empty.
            for n in [0, 1, 4, 7] {
                let batch = g.line_tags_batch(&items[..n]);
                let scalar: Vec<u64> =
                    items[..n].iter().map(|&(a, c, l)| g.line_tag(a, c, l)).collect();
                assert_eq!(batch, scalar, "{backend:?} n={n}");
            }
            let with_tags: Vec<(u64, u64, &CacheLine, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, &(a, c, l))| {
                    // Corrupt every other stored tag.
                    let t = g.line_tag(a, c, l) ^ (i as u64 & 1);
                    (a, c, l, t)
                })
                .collect();
            let verdicts = g.verify_lines_batch(&with_tags);
            for (i, ok) in verdicts.iter().enumerate() {
                assert_eq!(*ok, i % 2 == 0, "{backend:?} item {i}");
            }
        }
    }

    #[test]
    fn simd_and_table_backends_agree_on_tags() {
        if !Backend::simd_available() {
            eprintln!("SKIP: host lacks AES-NI/PCLMULQDQ — cross-backend GMAC test not run");
            return;
        }
        let key = MacKey::from_bytes([0x33; 16]);
        let simd = Gmac::with_backend(&key, Backend::Simd);
        let table = Gmac::with_backend(&key, Backend::Table);
        let line = CacheLine::from_bytes([0xA7; 64]);
        for (addr, counter) in [(0u64, 0u64), (0x4000, 9), (u64::MAX, u64::MAX), (1, 1 << 40)] {
            assert_eq!(
                simd.tag128(addr, counter, line.as_bytes()),
                table.tag128(addr, counter, line.as_bytes()),
                "addr={addr:#x} counter={counter:#x}"
            );
        }
    }

    #[test]
    fn node_tag_binds_parent_counter() {
        let g = gmac();
        let payload = [0xABu8; 64];
        assert_ne!(g.node_tag(100, 1, &payload), g.node_tag(100, 2, &payload));
    }

    #[test]
    fn tag_distribution_no_trivial_collisions() {
        // Sanity: tags over sequential counters should all be distinct
        // (a birthday collision over 64 bits in 1000 samples is ~1e-13).
        let g = gmac();
        let line = CacheLine::zeroed();
        let mut tags: Vec<u64> = (0..1000).map(|c| g.line_tag(0, c, &line)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 1000);
    }
}
