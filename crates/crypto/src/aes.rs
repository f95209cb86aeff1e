//! AES-128 block cipher, forward direction only, implemented from scratch
//! per FIPS-197.
//!
//! The secure-memory designs modeled in this workspace assume an AES engine
//! in the memory controller for one-time-pad generation (counter-mode
//! encryption) and GMAC computation. Neither ever decrypts a block, so only
//! the cipher is implemented, not its inverse. Because every simulated
//! memory access pays for several block encryptions, the portable path uses
//! the classic **T-table** formulation: four 256×u32 tables fuse SubBytes,
//! ShiftRows and MixColumns into four lookups + XORs per column per round.
//! The tables are key-independent, built once at first use.
//!
//! On x86-64 hosts with AES-NI, each instance instead dispatches through
//! [`crate::Backend::Simd`] to the hardware round functions in
//! `crate::simd` — the key schedule then comes from
//! `_mm_aeskeygenassist_si128` (pinned byte-identical to the software
//! schedule by test).
//!
//! The straightforward per-byte round implementation is retained as
//! [`Aes128::encrypt_block_reference`] and serves as the oracle for both
//! backends in the equivalence test suites. All paths are validated against
//! the FIPS-197 and NIST SP 800-38A test vectors.
//!
//! The implementation favours clarity over side-channel resistance: it is a
//! simulation substrate, not a production cipher (the modeled hardware
//! engine would be constant-time by construction).

use std::sync::OnceLock;

use crate::backend::Backend;

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// The key-independent T-tables shared by every [`Aes128`] instance.
///
/// `te[0][x]` packs the MixColumns contribution `[2·S(x), S(x), S(x), 3·S(x)]`
/// of a row-0 state byte as a big-endian u32; `te[i]` is `te[0]` rotated
/// right by `8·i` bits (the contribution of a row-`i` byte).
fn tables() -> &'static [[u32; 256]; 4] {
    static TABLES: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = SBOX[x];
            let e0 = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
            for (row, t) in te.iter_mut().enumerate() {
                t[x] = e0.rotate_right(8 * row as u32);
            }
        }
        te
    })
}

/// An expanded AES-128 key, ready for block encryption.
///
/// ```
/// use synergy_crypto::Aes128;
///
/// // FIPS-197 Appendix C.1 example vector.
/// let key = [
///     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
///     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
/// ];
/// let pt = [
///     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
///     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
/// ];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&pt);
/// assert_eq!(ct[0], 0x69);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys of 16 bytes each (reference path and AES-NI path).
    round_keys: [[u8; 16]; 11],
    /// Encryption round keys as big-endian column words (T-table path).
    ek: [[u32; 4]; 11],
    /// Which implementation block encryption dispatches to.
    backend: Backend,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Aes128(<expanded key redacted>)")
    }
}

/// Packs a 16-byte round key into four big-endian column words.
fn key_words(rk: &[u8; 16]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for (c, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(rk[4 * c..4 * c + 4].try_into().unwrap());
    }
    w
}

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys (both the byte-wise
    /// schedule used by the reference and AES-NI paths and the word-form
    /// schedule of the T-table path), dispatching to the process-wide
    /// [`Backend`].
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// Like [`Aes128::new`] but with an explicit backend — used by the
    /// equivalence tests to exercise both paths in one process.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is [`Backend::Simd`] on a host without AES-NI.
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(backend != Backend::Simd, "SIMD backend requires x86-64");
        #[cfg(target_arch = "x86_64")]
        if backend == Backend::Simd {
            assert!(Backend::simd_available(), "SIMD backend requires AES-NI/PCLMULQDQ");
            // The hardware schedule; pinned byte-identical to the software
            // schedule below by `keygenassist_schedule_matches_software_schedule`.
            let round_keys = crate::simd::expand_key(key);
            return Self::from_round_keys(round_keys, backend);
        }
        Self::from_round_keys(Self::soft_schedule(key), backend)
    }

    /// The FIPS-197 software key schedule.
    fn soft_schedule(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    /// Derives the word-form T-table schedule from the byte schedule.
    fn from_round_keys(round_keys: [[u8; 16]; 11], backend: Backend) -> Self {
        let mut ek = [[0u32; 4]; 11];
        for (r, rk) in round_keys.iter().enumerate() {
            ek[r] = key_words(rk);
        }
        Self { round_keys, ek, backend }
    }

    /// The backend this instance dispatches block encryption to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The expanded byte-form round keys — for the in-crate fused SIMD
    /// kernels and the schedule-equivalence tests.
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block, dispatching to the instance backend.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Simd {
            return crate::simd::encrypt_block(&self.round_keys, block);
        }
        self.encrypt_block_table(block)
    }

    /// Encrypts one 16-byte block via the fused T-table rounds.
    fn encrypt_block_table(&self, block: &[u8; 16]) -> [u8; 16] {
        let te = tables();
        let mut w = key_words(block);
        for (c, k) in self.ek[0].iter().enumerate() {
            w[c] ^= k;
        }
        for round in 1..10 {
            let rk = &self.ek[round];
            w = [
                te[0][(w[0] >> 24) as usize]
                    ^ te[1][(w[1] >> 16) as usize & 0xff]
                    ^ te[2][(w[2] >> 8) as usize & 0xff]
                    ^ te[3][w[3] as usize & 0xff]
                    ^ rk[0],
                te[0][(w[1] >> 24) as usize]
                    ^ te[1][(w[2] >> 16) as usize & 0xff]
                    ^ te[2][(w[3] >> 8) as usize & 0xff]
                    ^ te[3][w[0] as usize & 0xff]
                    ^ rk[1],
                te[0][(w[2] >> 24) as usize]
                    ^ te[1][(w[3] >> 16) as usize & 0xff]
                    ^ te[2][(w[0] >> 8) as usize & 0xff]
                    ^ te[3][w[1] as usize & 0xff]
                    ^ rk[2],
                te[0][(w[3] >> 24) as usize]
                    ^ te[1][(w[0] >> 16) as usize & 0xff]
                    ^ te[2][(w[1] >> 8) as usize & 0xff]
                    ^ te[3][w[2] as usize & 0xff]
                    ^ rk[3],
            ];
        }
        // Final round: SubBytes + ShiftRows only.
        let rk = &self.ek[10];
        let mut out = [0u8; 16];
        for c in 0..4 {
            let word = u32::from_be_bytes([
                SBOX[(w[c] >> 24) as usize],
                SBOX[(w[(c + 1) % 4] >> 16) as usize & 0xff],
                SBOX[(w[(c + 2) % 4] >> 8) as usize & 0xff],
                SBOX[w[(c + 3) % 4] as usize & 0xff],
            ]) ^ rk[c];
            out[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Encrypts one block with the straightforward per-byte FIPS-197 round
    /// sequence — the oracle the T-table path is tested against.
    pub fn encrypt_block_reference(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Encrypts a 128-bit value given as a big-endian integer, returning the
    /// ciphertext as a big-endian integer. Convenience for GHASH/GMAC code
    /// that works in `u128`.
    pub fn encrypt_u128(&self, value: u128) -> u128 {
        u128::from_be_bytes(self.encrypt_block(&value.to_be_bytes()))
    }
}

// The state is stored column-major as in FIPS-197: state[r + 4*c] is byte
// (row r, column c); our flat [u8;16] uses byte i = column i/4, row i%4.

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row r (bytes r, r+4, r+8, r+12) rotates left by r.
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B worked example.
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let expect = hex16("3925841d02dc09fbdc118597196a0b32");
        assert_eq!(aes.encrypt_block(&pt), expect);
        assert_eq!(aes.encrypt_block_reference(&pt), expect);
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        let aes = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let expect = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.encrypt_block(&pt), expect);
        assert_eq!(aes.encrypt_block_reference(&pt), expect);
    }

    #[test]
    fn sp800_38a_ecb_vectors() {
        // NIST SP 800-38A F.1.1 ECB-AES128 block 1 and 2.
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            aes.encrypt_block(&hex16("6bc1bee22e409f96e93d7e117393172a")),
            hex16("3ad77bb40d7a3660a89ecaf32466ef97")
        );
        assert_eq!(
            aes.encrypt_block(&hex16("ae2d8a571e03ac9c9eb76fac45af8e51")),
            hex16("f5d3d58503b9699de785895a96fdbaaf")
        );
    }

    #[test]
    fn table_path_matches_reference_path() {
        // Dense deterministic sweep; the proptest suite covers random
        // (key, block) pairs on top of this.
        for seed in 0u8..16 {
            let mut key = [0u8; 16];
            for (i, k) in key.iter_mut().enumerate() {
                *k = seed.wrapping_mul(97).wrapping_add(13 * i as u8);
            }
            let aes = Aes128::new(&key);
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed.wrapping_add(51u8.wrapping_mul(i as u8));
            }
            let ct = aes.encrypt_block(&block);
            assert_eq!(ct, aes.encrypt_block_reference(&block), "seed {seed}");
        }
    }

    #[test]
    fn backends_produce_identical_ciphertext() {
        if !Backend::simd_available() {
            eprintln!("SKIP: host lacks AES-NI — cross-backend AES test not run");
            return;
        }
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let simd = Aes128::with_backend(&key, Backend::Simd);
        let table = Aes128::with_backend(&key, Backend::Table);
        assert_eq!(simd.round_keys(), table.round_keys(), "key schedules differ");
        let pt = hex16("6bc1bee22e409f96e93d7e117393172a");
        assert_eq!(simd.encrypt_block(&pt), table.encrypt_block(&pt));
        assert_eq!(simd.encrypt_block(&pt), hex16("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn gcm_h_value() {
        // In GCM the hash subkey H is AES_K(0^128); for the all-zero key it
        // must equal the well-known value from the GCM spec test cases.
        let aes = Aes128::new(&[0u8; 16]);
        assert_eq!(
            aes.encrypt_block(&[0u8; 16]),
            hex16("66e94bd4ef8a2c3b884cfa59ca342b2e")
        );
    }

    #[test]
    fn encrypt_u128_matches_block_api() {
        let aes = Aes128::new(&[3u8; 16]);
        let v: u128 = 0x0123456789abcdef_fedcba9876543210;
        assert_eq!(
            aes.encrypt_u128(v).to_be_bytes(),
            aes.encrypt_block(&v.to_be_bytes())
        );
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        assert_ne!(a.encrypt_block(&[0u8; 16]), b.encrypt_block(&[0u8; 16]));
    }
}
