//! Counter-mode (CTR) encryption of cachelines — §II-A2 of the paper.
//!
//! Each 64-byte cacheline is encrypted by XOR with a One-Time Pad (OTP)
//! derived from AES-128 over the tuple *(line address, per-line write
//! counter, block index)*. Because the pad depends only on metadata, the
//! memory controller can precompute it while the data is still in flight —
//! the property that makes counter-mode the standard choice for memory
//! encryption (Figure 2 of the paper).
//!
//! The per-line counter increments on every writeback, guaranteeing pad
//! uniqueness; counters are in turn protected from replay by the integrity
//! tree (see `synergy-secure`).
//!
//! [`pad_with_cipher`], behind every [`LineCipher`] encryption, derives a
//! 64-byte pad in one call: on the SIMD backend a fixed-shape AES-NI kernel
//! builds the four counter blocks in registers and runs them through the
//! rounds as four straight-line lanes; the table backend encrypts the four
//! blocks one after another with [`Aes128::encrypt_block`]. CTR mode never
//! runs the block cipher backwards: decryption XORs the same pad.
//! [`pad_with_cipher_reference`] keeps the scalar per-byte AES path for
//! equivalence testing and benchmarking.

use crate::backend::Backend;
use crate::{Aes128, CacheLine, EncryptionKey, LINE_BYTES};

/// The four counter-mode block inputs for `(addr, counter)`.
#[inline]
fn pad_blocks(addr: u64, counter: u64) -> [[u8; 16]; 4] {
    let mut blocks = [[0u8; 16]; 4];
    for (i, block) in blocks.iter_mut().enumerate() {
        block[..8].copy_from_slice(&addr.to_be_bytes());
        // The counter occupies 56 bits in the paper's designs; we reserve
        // the final byte of the block for the block index.
        block[8..15].copy_from_slice(&counter.to_be_bytes()[1..8]);
        block[15] = i as u8;
    }
    blocks
}

/// The 64-byte one-time pad for `(addr, counter)` under an expanded
/// [`Aes128`]: one fixed-shape kernel call on the SIMD backend, four
/// [`Aes128::encrypt_block`] calls on the table backend.
#[inline]
pub fn pad_with_cipher(aes: &Aes128, addr: u64, counter: u64) -> CacheLine {
    #[cfg(target_arch = "x86_64")]
    if aes.backend() == Backend::Simd {
        return CacheLine::from_bytes(crate::simd::ctr_pad(aes.round_keys(), addr, counter));
    }
    let mut pad = [0u8; LINE_BYTES];
    for (i, block) in pad_blocks(addr, counter).iter().enumerate() {
        pad[i * 16..(i + 1) * 16].copy_from_slice(&aes.encrypt_block(block));
    }
    CacheLine::from_bytes(pad)
}

/// [`pad_with_cipher`] via the scalar reference AES — the testing oracle.
pub fn pad_with_cipher_reference(aes: &Aes128, addr: u64, counter: u64) -> CacheLine {
    let mut pad = [0u8; LINE_BYTES];
    for (i, block) in pad_blocks(addr, counter).iter().enumerate() {
        let ct = aes.encrypt_block_reference(block);
        pad[i * 16..(i + 1) * 16].copy_from_slice(&ct);
    }
    CacheLine::from_bytes(pad)
}

/// A cacheline encryptor that amortizes AES key expansion across lines —
/// what the modeled memory-controller crypto engine actually does.
///
/// ```
/// use synergy_crypto::{ctr::LineCipher, CacheLine, EncryptionKey};
///
/// let cipher = LineCipher::new(&EncryptionKey::from_bytes([1; 16]));
/// let pt = CacheLine::from_bytes([0x77; 64]);
/// let ct = cipher.encrypt(0x40, 1, &pt);
/// assert_ne!(ct, pt);
/// assert_eq!(cipher.decrypt(0x40, 1, &ct), pt);
/// ```
#[derive(Clone)]
pub struct LineCipher {
    aes: Aes128,
}

impl core::fmt::Debug for LineCipher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LineCipher(<keyed instance>)")
    }
}

impl LineCipher {
    /// Creates a cipher instance from an encryption key.
    pub fn new(key: &EncryptionKey) -> Self {
        Self { aes: Aes128::new(key.as_bytes()) }
    }

    /// Like [`LineCipher::new`] but with an explicit backend — used by the
    /// equivalence tests to exercise both paths in one process.
    pub fn with_backend(key: &EncryptionKey, backend: Backend) -> Self {
        Self { aes: Aes128::with_backend(key.as_bytes(), backend) }
    }

    /// The expanded key, for the fused write kernel in [`crate::gmac`].
    pub(crate) fn aes(&self) -> &Aes128 {
        &self.aes
    }

    /// Encrypts a plaintext line under `(addr, counter)`.
    #[inline]
    pub fn encrypt(&self, addr: u64, counter: u64, plaintext: &CacheLine) -> CacheLine {
        plaintext.xor(&pad_with_cipher(&self.aes, addr, counter))
    }

    /// [`LineCipher::encrypt`] via the scalar reference AES — kept for
    /// equivalence tests and table-vs-reference benchmarks.
    pub fn encrypt_reference(&self, addr: u64, counter: u64, plaintext: &CacheLine) -> CacheLine {
        plaintext.xor(&pad_with_cipher_reference(&self.aes, addr, counter))
    }

    /// Decrypts a ciphertext line under `(addr, counter)`.
    #[inline]
    pub fn decrypt(&self, addr: u64, counter: u64, ciphertext: &CacheLine) -> CacheLine {
        self.encrypt(addr, counter, ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EncryptionKey {
        EncryptionKey::from_bytes(*b"0123456789abcdef")
    }

    fn cipher() -> LineCipher {
        LineCipher::new(&key())
    }

    /// The pad of `(addr, counter)`: the encryption of an all-zero line.
    fn pad(addr: u64, counter: u64) -> CacheLine {
        cipher().encrypt(addr, counter, &CacheLine::zeroed())
    }

    #[test]
    fn roundtrip() {
        let pt = CacheLine::from_bytes([0xA5; 64]);
        let ct = cipher().encrypt(0x1000, 42, &pt);
        assert_ne!(ct, pt);
        assert_eq!(cipher().decrypt(0x1000, 42, &ct), pt);
    }

    #[test]
    fn table_pad_matches_reference_pad() {
        let aes = Aes128::new(key().as_bytes());
        for (addr, counter) in [(0u64, 0u64), (0x1000, 42), (u64::MAX, (1 << 56) - 1)] {
            assert_eq!(
                pad_with_cipher(&aes, addr, counter),
                pad_with_cipher_reference(&aes, addr, counter)
            );
        }
    }

    #[test]
    fn encrypt_matches_encrypt_reference() {
        let cipher = LineCipher::new(&key());
        let pt = CacheLine::from_bytes([0x19; 64]);
        assert_eq!(cipher.encrypt(0x40, 7, &pt), cipher.encrypt_reference(0x40, 7, &pt));
    }

    #[test]
    fn simd_and_table_backends_agree_on_pads() {
        if !Backend::simd_available() {
            eprintln!("SKIP: host lacks AES-NI — cross-backend CTR test not run");
            return;
        }
        let simd = LineCipher::with_backend(&key(), Backend::Simd);
        let table = LineCipher::with_backend(&key(), Backend::Table);
        let pt = CacheLine::from_bytes([0x19; 64]);
        for (addr, counter) in [(0u64, 0u64), (0x1000, 42), (u64::MAX, (1 << 56) - 1)] {
            assert_eq!(
                simd.encrypt(addr, counter, &pt),
                table.encrypt(addr, counter, &pt)
            );
        }
    }

    #[test]
    fn pad_uniqueness_across_counters_and_addresses() {
        let p1 = pad(0, 0);
        let p2 = pad(0, 1);
        let p3 = pad(64, 0);
        assert_ne!(p1, p2, "counter must vary the pad (temporal uniqueness)");
        assert_ne!(p1, p3, "address must vary the pad (spatial uniqueness)");
        assert_ne!(p2, p3);
    }

    #[test]
    fn pad_blocks_are_distinct() {
        // The four 16-byte pad blocks come from distinct AES inputs.
        let p = pad(0, 0);
        let b = p.as_bytes();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(b[i * 16..(i + 1) * 16], b[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn stale_counter_fails_to_decrypt() {
        // Replaying an old counter (the attack the integrity tree guards
        // against) produces garbage, not the plaintext.
        let pt = CacheLine::from_bytes([7; 64]);
        let ct = cipher().encrypt(0, 5, &pt);
        assert_ne!(cipher().decrypt(0, 4, &ct), pt);
    }

    #[test]
    fn ciphertext_differs_per_write() {
        // The same plaintext written twice (counter bump) must yield
        // different ciphertexts — the property defeating known-plaintext
        // dictionary attacks on memory.
        let pt = CacheLine::from_bytes([0; 64]);
        assert_ne!(cipher().encrypt(0, 1, &pt), cipher().encrypt(0, 2, &pt));
    }

    #[test]
    fn counter_56_bit_width_respected() {
        // Counters at and above 2^56 alias by design (the top byte is not
        // encoded); the secure layer never issues counters that large, but
        // the pad must still distinguish all 56-bit values.
        let a = pad(0, (1 << 56) - 1);
        let b = pad(0, (1 << 56) - 2);
        assert_ne!(a, b);
    }
}
