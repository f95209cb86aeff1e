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
//! backend, one fused AES-NI encryption and aggregated PCLMULQDQ fold on
//! the SIMD backend. Data lines ([`Gmac::line_tag`]) and counter-tree nodes
//! ([`Gmac::node_tag`]) share that one fixed-shape path. The bit-serial
//! path is kept as [`Gmac::tag128_reference`] /
//! [`Gmac::line_tag_reference`] for equivalence testing and benchmarking.
//!
//! A write bumps one counter in every line of its counter chain and rekeys
//! each line's tag by its parent's bumped counter. GHASH is linear and
//! tag truncation commutes with XOR, so [`Gmac::bonsai_update`] derives
//! every new tag from the GHASH state the verify walk already computed
//! ([`Gmac::node_tag_state`]), in one kernel call together with the data
//! line's CTR pad and tag. [`Gmac::bonsai_update_reference`] retags each
//! level in full.

use crate::backend::Backend;
use crate::ctr::LineCipher;
use crate::ghash::{chip_term, ghash, GhashKey};
use crate::{Aes128, CacheLine, MacKey};

/// Counters are 56 bits wide; a bump wraps to zero.
const MASK56: u64 = (1 << 56) - 1;

/// A 56-bit counter after one write.
#[inline]
pub(crate) fn bump(counter: u64) -> u64 {
    counter.wrapping_add(1) & MASK56
}

/// The pre-counter block `J0` and AAD for the `(addr, counter)` nonce.
///
/// The nonce is encoded as a 96-bit IV `addr (64b) || counter lower 32b`
/// with the counter's upper bits folded into the AAD, matching GCM's
/// 96-bit-IV fast path (`J0 = IV || 0^31 || 1`).
#[inline]
pub(crate) fn nonce_parts(addr: u64, counter: u64) -> (u128, [u8; 4]) {
    let j0: u128 = ((addr as u128) << 64) | ((counter as u128 & 0xffff_ffff) << 32) | 1;
    let aad = ((counter >> 32) as u32).to_be_bytes();
    (j0, aad)
}

/// One counter or tree line of a write's counter chain, as the verify walk
/// leaves it: the input of [`Gmac::bonsai_update`]. Level 0 is the counter
/// line; each level's `counter` is the parent counter of the level below
/// it, and level 0's is the data line's counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainLevel {
    /// The line's address.
    pub addr: u64,
    /// The parent counter the line's tag is keyed by, before the write.
    pub parent_counter: u64,
    /// The GHASH state of the line's verified payload under that parent
    /// counter: its 128-bit tag without `E_K(J0)` (see
    /// [`Gmac::node_tag_state`]).
    pub state: u128,
    /// The slot the write bumps (0..8).
    pub slot: usize,
    /// That slot's counter before the write.
    pub counter: u64,
}

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

    /// The full 128-bit GCM tag for `data` under the nonce `(addr,
    /// counter)`, computed with the bit-serial GHASH and the per-byte AES
    /// — the oracle both backends are tested against. The 64-bit tags of
    /// [`Gmac::line_tag`] and [`Gmac::node_tag`] are its upper half.
    pub fn tag128_reference(&self, addr: u64, counter: u64, data: &[u8]) -> u128 {
        let (j0, aad) = nonce_parts(addr, counter);
        let g = ghash(self.hkey.h(), &aad, data);
        g ^ u128::from_be_bytes(self.aes.encrypt_block_reference(&j0.to_be_bytes()))
    }

    /// Tag for a 64-byte data cacheline: MAC(addr, counter, ciphertext),
    /// the 64-bit truncated GMAC used throughout the paper.
    #[inline]
    pub fn line_tag(&self, addr: u64, counter: u64, line: &CacheLine) -> u64 {
        let (g, ek_j0) = self.tag_parts(addr, counter, line.as_bytes());
        ((g ^ ek_j0) >> 64) as u64
    }

    /// The two halves of the 128-bit GCM tag of exactly 64 bytes of data,
    /// `(GHASH(aad, data), E_K(J0))`: the fused single-call kernel on the
    /// SIMD backend, [`GhashKey::ghash_line`] and one AES encryption on
    /// the table backend. Their XOR equals [`Gmac::tag128_reference`] bit
    /// for bit (pinned by the backend-equivalence suite).
    #[inline]
    fn tag_parts(&self, addr: u64, counter: u64, data: &[u8; 64]) -> (u128, u128) {
        let (j0, aad) = nonce_parts(addr, counter);
        #[cfg(target_arch = "x86_64")]
        if self.aes.backend() == Backend::Simd {
            let keys = self.aes.round_keys();
            return crate::simd::gmac_line_tag(keys, self.hkey.powers(), j0, aad, data);
        }
        (self.hkey.ghash_line(aad, data), self.aes.encrypt_u128(j0))
    }

    /// The full 128-bit tag of a 64-byte line (or node payload) `data`,
    /// and the 64-bit tags of its eight single-chip variants: variant `c`
    /// is `data` with `delta` XORed into chip `c`'s bytes `8c..8c + 8`.
    ///
    /// This is the correction engine's candidate check. GHASH is linear
    /// and every variant shares the nonce, hence `E_K(J0)`, so one AES
    /// encryption and one GHASH give the line's tag, and each variant
    /// adds only the product of its delta block by a key power
    /// (`H^(5 − c/2)`). Equal, bit for bit, to
    /// [`Gmac::line_tag_candidates_reference`].
    pub fn line_tag_candidates(
        &self,
        addr: u64,
        counter: u64,
        data: &[u8; 64],
        delta: [u8; 8],
    ) -> (u128, [u64; 8]) {
        let (j0, aad) = nonce_parts(addr, counter);
        let delta = u64::from_be_bytes(delta);
        #[cfg(target_arch = "x86_64")]
        if self.aes.backend() == Backend::Simd {
            let keys = self.aes.round_keys();
            return crate::simd::gmac_line_candidates(
                keys,
                self.hkey.powers(),
                j0,
                aad,
                data,
                delta,
            );
        }
        let tag = self.hkey.ghash_line(aad, data) ^ self.aes.encrypt_u128(j0);
        let products = self.hkey.chip_products(delta);
        (tag, products.map(|p| ((tag ^ p) >> 64) as u64))
    }

    /// [`Gmac::line_tag_candidates`] the long way: each variant is
    /// materialized and tagged by [`Gmac::tag128_reference`].
    pub fn line_tag_candidates_reference(
        &self,
        addr: u64,
        counter: u64,
        data: &[u8; 64],
        delta: [u8; 8],
    ) -> (u128, [u64; 8]) {
        let variants = core::array::from_fn(|chip| {
            let mut variant = *data;
            for (v, d) in variant[8 * chip..8 * chip + 8].iter_mut().zip(delta) {
                *v ^= d;
            }
            (self.tag128_reference(addr, counter, &variant) >> 64) as u64
        });
        (self.tag128_reference(addr, counter, data), variants)
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
    /// Computed on the same fixed-shape kernel as [`Gmac::line_tag`]: a
    /// counter-tree walk costs one fused tag per level.
    pub fn node_tag(&self, addr: u64, parent_counter: u64, payload: &[u8; 64]) -> u64 {
        self.node_tag_state(addr, parent_counter, payload).0
    }

    /// [`Gmac::node_tag`] and the node's GHASH state, the 128-bit tag
    /// without `E_K(J0)`, from the same kernel call. The state is what
    /// [`Gmac::bonsai_update`] updates by linearity.
    #[inline]
    pub fn node_tag_state(
        &self,
        addr: u64,
        parent_counter: u64,
        payload: &[u8; 64],
    ) -> (u64, u128) {
        let (g, ek_j0) = self.tag_parts(addr, parent_counter, payload);
        (((g ^ ek_j0) >> 64) as u64, g)
    }

    /// What XORing `delta` into chip `chip`'s eight bytes of a 64-byte
    /// line or payload adds to its GHASH state: `δ_c · H^(5 − c/2)`, the
    /// term by which [`Gmac::line_tag_candidates`] tells the variants
    /// apart. A counter line corrected through `ParityC` adds it to the
    /// state its failed check computed.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 8`.
    pub fn chip_delta_state(&self, chip: usize, delta: [u8; 8]) -> u128 {
        assert!(chip < 8, "chip {chip} is not a data chip");
        let (block, power) = chip_term(chip, u64::from_be_bytes(delta));
        self.hkey.mul_power(block, power)
    }

    /// The Bonsai write of `plaintext` to data line `addr` under a
    /// verified counter chain (`levels`, counter line first): writes every
    /// level's new tag to `tags` and returns the data line's ciphertext and
    /// tag. Every level's slot and its parent counter go up by one (56-bit
    /// wrap), and so does the data line's counter, `levels[0].counter`.
    ///
    /// Level k's payload changes by `δ_k = c ⊕ (c + 1)` in its bumped slot
    /// and its nonce by the new parent counter. So its new tag is
    /// `trunc64(S_k ⊕ δ_k·H^(5 − slot/2) ⊕ δ_aad·H^6 ⊕ E_K(J0_new))`,
    /// where `δ_aad` is the change in the parent counter's top 24 bits,
    /// nonzero only when it crosses a 2^32 boundary. On the SIMD backend
    /// one kernel call runs every `E_K(J0_new)`, the data line's `J0` and
    /// its four CTR blocks in groups of four interleaved AES lanes. Equal,
    /// bit for bit, to [`Gmac::bonsai_update_reference`] on the levels'
    /// payloads.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is not empty, `tags.len() == levels.len()`
    /// and every slot is below 8.
    pub fn bonsai_update(
        &self,
        cipher: &LineCipher,
        levels: &[ChainLevel],
        addr: u64,
        plaintext: &CacheLine,
        tags: &mut [u64],
    ) -> (CacheLine, u64) {
        assert!(!levels.is_empty(), "empty chain");
        assert_eq!(tags.len(), levels.len());
        assert!(levels.iter().all(|l| l.slot < 8), "slot out of range");
        #[cfg(target_arch = "x86_64")]
        if self.aes.backend() == Backend::Simd && cipher.aes().backend() == Backend::Simd {
            let (ciphertext, tag) = crate::simd::bonsai_update(
                self.aes.round_keys(),
                cipher.aes().round_keys(),
                self.hkey.powers(),
                levels,
                addr,
                plaintext.as_bytes(),
                tags,
            );
            return (CacheLine::from_bytes(ciphertext), tag);
        }
        for (level, tag) in levels.iter().zip(tags.iter_mut()) {
            let parent = bump(level.parent_counter);
            let delta = (level.counter ^ bump(level.counter)).swap_bytes();
            let (block, power) = chip_term(level.slot, delta);
            let mut state = level.state ^ self.hkey.mul_power(block, power);
            let aad = (level.parent_counter >> 32) ^ (parent >> 32);
            if aad != 0 {
                state ^= self.hkey.mul_power(u128::from(aad) << 96, 6);
            }
            let (j0, _) = nonce_parts(level.addr, parent);
            *tag = ((state ^ self.aes.encrypt_u128(j0)) >> 64) as u64;
        }
        let counter = bump(levels[0].counter);
        let ciphertext = cipher.encrypt(addr, counter, plaintext);
        (ciphertext, self.line_tag(addr, counter, &ciphertext))
    }

    /// [`Gmac::bonsai_update`] the long way: each level's payload
    /// (`payloads[k]`, its eight counters) is bumped and retagged by
    /// [`Gmac::tag128_reference`] under its bumped parent counter, and the
    /// data line is encrypted and tagged by the reference paths. The
    /// levels' `state` is not read.
    ///
    /// # Panics
    ///
    /// Panics unless `payloads` and `tags` have one entry per level and
    /// each level's `counter` is its payload's counter in its slot.
    pub fn bonsai_update_reference(
        &self,
        cipher: &LineCipher,
        levels: &[ChainLevel],
        payloads: &[[u64; 8]],
        addr: u64,
        plaintext: &CacheLine,
        tags: &mut [u64],
    ) -> (CacheLine, u64) {
        assert_eq!(payloads.len(), levels.len());
        assert_eq!(tags.len(), levels.len());
        for ((level, payload), tag) in levels.iter().zip(payloads).zip(tags.iter_mut()) {
            assert_eq!(payload[level.slot], level.counter, "level {:#x}", level.addr);
            let mut counters = *payload;
            counters[level.slot] = bump(level.counter);
            let bumped = CacheLine::from_words(counters);
            *tag = (self.tag128_reference(level.addr, bump(level.parent_counter), bumped.as_bytes())
                >> 64) as u64;
        }
        let counter = bump(levels[0].counter);
        let ciphertext = cipher.encrypt_reference(addr, counter, plaintext);
        (ciphertext, self.line_tag_reference(addr, counter, &ciphertext))
    }
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
                simd.line_tag(addr, counter, &line),
                table.line_tag(addr, counter, &line),
                "addr={addr:#x} counter={counter:#x}"
            );
            assert_eq!(
                simd.node_tag(addr, counter, line.as_bytes()),
                table.node_tag(addr, counter, line.as_bytes()),
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
