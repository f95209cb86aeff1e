//! GHASH — the GF(2^128) universal hash underlying AES-GCM / GMAC.
//!
//! GHASH is defined in NIST SP 800-38D. The field uses the "reflected"
//! bit ordering of the GCM specification: within a 128-bit block, bit 0 is
//! the most-significant bit of the first byte, and the reduction polynomial
//! is x^128 + x^7 + x^2 + x + 1 (represented by the constant `R` below).
//!
//! Two implementations live here:
//!
//! * the school-book shift-and-add [`gf128_mul_reference`] (128 iterations
//!   per block) and the streaming [`ghash`] built on it — the **oracle**
//!   used by the equivalence tests and the SP 800-38D known-answer tests;
//!   and
//! * [`GhashKey`], the keyed hot path, whose one hash,
//!   [`GhashKey::ghash_line`], covers the fixed line-tag shape and
//!   dispatches on [`crate::Backend`]:
//!   - **table** — a per-key **8-bit-window table** (16 byte positions ×
//!     256 entries × 16 bytes = 64 KiB per key, heap-allocated) built once
//!     at key setup. A block multiply by `H` then costs 16 table lookups
//!     and 15 XORs — no per-bit loop and no explicit reduction, because
//!     reduction is baked into the precomputed products. This is the
//!     classic software-GCM technique (cf. the "simple, 64 KiB" variant in
//!     Shoup's and OpenSSL's GHASH implementations).
//!   - **simd** (x86-64 + PCLMULQDQ) — carry-less multiplies in
//!     `crate::simd`, *aggregated*: with the precomputed powers
//!     `H^1..H^6` the six blocks of a line tag are absorbed as independent
//!     256-bit products XORed before a single reduction, so the serial
//!     Horner chain becomes instruction-level parallelism. The 64 KiB table is
//!     not built on this backend.

use crate::backend::Backend;

/// The GCM reduction constant: x^128 ≡ x^7 + x^2 + x + 1, in the GCM bit
/// order this is the byte 0xE1 followed by fifteen zero bytes.
const R: u128 = 0xe1 << 120;

/// How many key powers the aggregated SIMD fold precomputes: one per
/// block of a line tag (1 AAD + 4 data + 1 length), so a whole tag is
/// absorbed in one fold.
const AGG_BLOCKS: usize = 6;

/// Multiplies two elements of GF(2^128) in the GCM bit ordering.
///
/// This is the school-book shift-and-add algorithm from SP 800-38D
/// §6.3 — retained as the oracle for [`GhashKey`]'s table path.
pub fn gf128_mul_reference(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// A GHASH subkey `H` with its precomputed 8-bit-window multiplication
/// table.
///
/// For each big-endian byte position `pos` (0 = most significant) the table
/// row `table[pos]` holds `(b · x^(8·pos)) × H` for every byte value `b` —
/// in the GCM representation that operand is the `u128` with byte `pos`
/// equal to `b`. By linearity of GF(2^128) multiplication,
/// `x × H = XOR over pos of table[pos][byte_pos(x)]`.
///
/// The table is 64 KiB and boxed, so a `GhashKey` is cheap to move; cloning
/// copies the table. On the SIMD backend the table is not built at all —
/// only the six key powers for the aggregated fold.
#[derive(Clone)]
pub struct GhashKey {
    h: u128,
    /// `powers[j] = H^(j+1)`, for the aggregated SIMD fold.
    powers: [u128; AGG_BLOCKS],
    /// 8-bit-window table; `Some` iff `backend == Backend::Table`.
    table: Option<Box<[[u128; 256]; 16]>>,
    backend: Backend,
}

impl core::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GhashKey(<subkey redacted>)")
    }
}

impl GhashKey {
    /// Builds the key from the hash subkey `H = AES_K(0^128)`: the
    /// 8-bit-window table (table backend only), then the key powers
    /// `H^2..H^6` by the key's own [`GhashKey::mul`].
    ///
    /// The table needs the 128 products `H·x^k`, one per bit position.
    /// Multiplying by `x` is one shift-and-reduce step, so they come from a
    /// single walk `H, H·x, H·x², …`; the 4080 nonzero entries follow by
    /// XOR via linearity: `table[pos][b] = table[pos][b without lowest bit]
    /// ^ table[pos][lowest bit of b]`.
    pub fn new(h: u128) -> Self {
        Self::with_backend(h, Backend::detect())
    }

    /// Like [`GhashKey::new`] but with an explicit backend — used by the
    /// equivalence tests to exercise both paths in one process.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is [`Backend::Simd`] on a host without PCLMULQDQ.
    pub fn with_backend(h: u128, backend: Backend) -> Self {
        let table = match backend {
            Backend::Simd => {
                assert!(Backend::simd_available(), "SIMD backend requires PCLMULQDQ");
                None
            }
            Backend::Table => {
                let mut table = Box::new([[0u128; 256]; 16]);
                // `h_xk` walks H·x^k for k = 0..128. In the GCM bit order
                // the polynomial x^k is bit 127 − k, so the single-bit byte
                // `1 << bit` at byte position `pos` is x^(8·pos + 7 − bit).
                let mut h_xk = h;
                for row in table.iter_mut() {
                    let mut bit_products = [0u128; 8];
                    for p in bit_products.iter_mut().rev() {
                        *p = h_xk;
                        h_xk = (h_xk >> 1) ^ if h_xk & 1 == 1 { R } else { 0 };
                    }
                    for b in 1usize..256 {
                        row[b] = row[b & (b - 1)] ^ bit_products[b.trailing_zeros() as usize];
                    }
                }
                Some(table)
            }
        };
        let mut key = Self { h, powers: [h; AGG_BLOCKS], table, backend };
        for j in 1..AGG_BLOCKS {
            key.powers[j] = key.mul(key.powers[j - 1]);
        }
        key
    }

    /// The raw hash subkey `H`.
    pub fn h(&self) -> u128 {
        self.h
    }

    /// The backend this key dispatches multiplies to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The precomputed key powers `powers[j] = H^(j+1)` — for the
    /// in-crate fused SIMD kernels.
    pub(crate) fn powers(&self) -> &[u128] {
        &self.powers
    }

    /// Multiplies `x` by the subkey `H` — 16 table lookups + XORs on the
    /// table backend, one carry-less multiply on the SIMD backend.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Simd {
            return crate::simd::gf128_mul(x, self.h);
        }
        let table = self.table.as_deref().expect("table backend has a table");
        let bytes = x.to_be_bytes();
        let mut acc = 0u128;
        for (pos, &b) in bytes.iter().enumerate() {
            acc ^= table[pos][b as usize];
        }
        acc
    }

    /// `x · H^j` for `1 <= j <= 6`: one carry-less multiply by the
    /// precomputed power on the SIMD backend, `j` table multiplies on the
    /// table backend.
    pub(crate) fn mul_power(&self, x: u128, j: usize) -> u128 {
        debug_assert!((1..=AGG_BLOCKS).contains(&j));
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Simd {
            return crate::simd::gf128_mul(x, self.powers[j - 1]);
        }
        (0..j).fold(x, |acc, _| self.mul(acc))
    }

    /// Keyed [`ghash`] for the line-tag shape — a 4-byte AAD and exactly
    /// 64 bytes of data. The six blocks (one AAD, four data, one length)
    /// are assembled on the stack and absorbed in **one** aggregated fold
    /// on the SIMD backend, or by a Horner loop of table multiplies on the
    /// table backend.
    pub fn ghash_line(&self, aad: [u8; 4], data: &[u8; 64]) -> u128 {
        let mut blocks = [0u128; 6];
        blocks[0] = (u32::from_be_bytes(aad) as u128) << 96;
        for (slot, chunk) in blocks[1..5].iter_mut().zip(data.chunks_exact(16)) {
            *slot = u128::from_be_bytes(chunk.try_into().expect("16-byte chunk"));
        }
        // Bit lengths: 4-byte AAD, 64-byte data.
        blocks[5] = (32u128 << 64) | 512;
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Simd {
            return crate::simd::ghash_fold(0, &blocks, &self.powers);
        }
        let mut y = 0u128;
        for b in blocks {
            y = self.mul(y ^ b);
        }
        y
    }

    /// What XORing the big-endian word `delta` into chip `c`'s eight bytes
    /// of a 64-byte line adds to [`Self::ghash_line`], for each chip `c`:
    /// `δ_c · H^(5 − c/2)`, where `δ_c` is `delta` in the high (even `c`)
    /// or low (odd `c`) half of data block `c/2`. GHASH is linear, so this
    /// does not depend on the line. Computed as two chains of five
    /// multiplies by `H`, one per half; the SIMD tag kernel has its own
    /// fused form.
    pub(crate) fn chip_products(&self, delta: u64) -> [u128; 8] {
        let mut out = [0u128; 8];
        for (half, start) in [(0, u128::from(delta) << 64), (1, u128::from(delta))] {
            // Block b's weight is H^(5 − b): walk H^1, H^2 (block 3), …,
            // H^5 (block 0).
            let mut p = self.mul(start);
            for b in (0..4).rev() {
                p = self.mul(p);
                out[2 * b + half] = p;
            }
        }
        out
    }
}

/// Where XORing the big-endian word `delta` into chip `chip`'s eight bytes
/// of a 64-byte line enters [`GhashKey::ghash_line`]: the data block
/// `chip / 2` with `delta` in its high (even `chip`) or low (odd `chip`)
/// half, and the exponent `5 − chip / 2` of that block's key power (one
/// AAD block, four data blocks, one length block).
pub(crate) fn chip_term(chip: usize, delta: u64) -> (u128, usize) {
    let block = if chip.is_multiple_of(2) { u128::from(delta) << 64 } else { u128::from(delta) };
    (block, 5 - chip / 2)
}

/// Computes the full GCM-style GHASH over additional authenticated data and
/// ciphertext: both are zero-padded to 16-byte boundaries, then a final
/// length block `len(aad) || len(data)` (bit lengths, big-endian) is mixed in.
/// Reference path; the keyed hot path is [`GhashKey::ghash_line`].
pub fn ghash(h: u128, aad: &[u8], data: &[u8]) -> u128 {
    let mut y = 0u128;
    let mut absorb = |bytes: &[u8]| {
        for chunk in bytes.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf128_mul_reference(y ^ u128::from_be_bytes(block), h);
        }
    };
    absorb(aad);
    absorb(data);
    let len_block = ((aad.len() as u128 * 8) << 64) | (data.len() as u128 * 8);
    gf128_mul_reference(y ^ len_block, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_element() {
        // The multiplicative identity in GCM bit order is 0x80...0 (the
        // polynomial "1" has its coefficient in the top bit).
        let one: u128 = 1 << 127;
        for x in [0u128, 1, one, u128::MAX, 0xdeadbeef << 64] {
            assert_eq!(gf128_mul_reference(x, one), x);
            assert_eq!(gf128_mul_reference(one, x), x);
        }
    }

    #[test]
    fn mul_commutative_and_distributive() {
        let samples = [
            0x0123456789abcdef_fedcba9876543210u128,
            0xaaaaaaaaaaaaaaaa_5555555555555555,
            1u128,
            1u128 << 127,
            0x66e94bd4ef8a2c3b_884cfa59ca342b2e,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gf128_mul_reference(a, b), gf128_mul_reference(b, a));
                for &c in &samples {
                    assert_eq!(
                        gf128_mul_reference(a, b ^ c),
                        gf128_mul_reference(a, b) ^ gf128_mul_reference(a, c),
                        "distributivity failed"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_by_zero_is_zero() {
        assert_eq!(gf128_mul_reference(0, u128::MAX), 0);
        assert_eq!(gf128_mul_reference(u128::MAX, 0), 0);
    }

    #[test]
    fn table_mul_matches_reference() {
        let hs = [
            0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128,
            1u128 << 127,
            1u128,
            u128::MAX,
            0xb83b533708bf535d_0aa6e52980d53b78,
        ];
        let xs = [
            0u128,
            1,
            1 << 127,
            u128::MAX,
            0x0388dace60b6a392_f328c2b971b2fe78,
            0x5e2ec746917062882c85b0685353deb7u128,
        ];
        for &h in &hs {
            let key = GhashKey::new(h);
            for &x in &xs {
                assert_eq!(key.mul(x), gf128_mul_reference(x, h), "h={h:032x} x={x:032x}");
            }
        }
    }

    #[test]
    fn ghash_gcm_spec_test_case_2() {
        // GCM spec test case 2: H = AES_0(0), C = 0388dace60b6a392f328c2b971b2fe78.
        // GHASH(H, {}, C) is the value that, XORed with E_K(J0), yields the
        // published tag ab6e47d42cec13bdf53a67b21257bddf. E_K(J0) with
        // J0 = 0^96 || 1 under the zero key is 58e2fccefa7e3061367f1d57a4e7455a.
        let h = 0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128;
        let c = 0x0388dace60b6a392_f328c2b971b2fe78u128.to_be_bytes();
        let ek_j0 = 0x58e2fccefa7e3061_367f1d57a4e7455au128;
        assert_eq!(ghash(h, &[], &c) ^ ek_j0, 0xab6e47d42cec13bd_f53a67b21257bddf);
    }

    #[test]
    fn ghash_padding_distinguishes_lengths() {
        // Zero-padding alone would alias [1] and [1,0]; the length block
        // must disambiguate them.
        let h = 0x12345_6789abcdefu128 | (1 << 127);
        assert_ne!(ghash(h, &[], &[1]), ghash(h, &[], &[1, 0]));
        assert_ne!(ghash(h, &[1], &[]), ghash(h, &[], &[1]));
    }

    #[test]
    fn simd_key_agrees_with_table_key() {
        if !Backend::simd_available() {
            eprintln!("SKIP: host lacks PCLMULQDQ — cross-backend GHASH test not run");
            return;
        }
        let h = 0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128;
        let simd = GhashKey::with_backend(h, Backend::Simd);
        let table = GhashKey::with_backend(h, Backend::Table);
        for x in [0u128, 1, 1 << 127, u128::MAX, 0xdead << 96 | 0xbeef] {
            assert_eq!(simd.mul(x), table.mul(x), "x={x:032x}");
        }
    }

    #[test]
    fn ghash_line_matches_reference_ghash() {
        let h = 0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128;
        let backends: &[Backend] = if Backend::simd_available() {
            &[Backend::Table, Backend::Simd]
        } else {
            eprintln!("SKIP: host lacks PCLMULQDQ — ghash_line tested on table backend only");
            &[Backend::Table]
        };
        for &backend in backends {
            let key = GhashKey::with_backend(h, backend);
            let mut data = [0u8; 64];
            for (i, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(167).wrapping_add(3);
            }
            for aad in [[0u8; 4], [1, 2, 3, 4], [0xff; 4]] {
                assert_eq!(
                    key.ghash_line(aad, &data),
                    ghash(h, &aad, &data),
                    "{backend:?} aad={aad:?}"
                );
            }
        }
    }

    #[test]
    fn key_powers_match_reference_powers_on_every_backend() {
        let backends: &[Backend] = if Backend::simd_available() {
            &[Backend::Table, Backend::Simd]
        } else {
            eprintln!("SKIP: host lacks PCLMULQDQ — key powers checked on table backend only");
            &[Backend::Table]
        };
        for h in [0x66e94bd4ef8a2c3b_884cfa59ca342b2eu128, 1 << 127, 1, u128::MAX] {
            let mut expected = [h; AGG_BLOCKS];
            for j in 1..AGG_BLOCKS {
                expected[j] = gf128_mul_reference(expected[j - 1], h);
            }
            for &backend in backends {
                let key = GhashKey::with_backend(h, backend);
                assert_eq!(key.powers(), &expected[..], "{backend:?} h={h:032x}");
            }
        }
    }
}

