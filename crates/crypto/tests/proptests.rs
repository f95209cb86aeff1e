//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use synergy_crypto::ctr::LineCipher;
use synergy_crypto::ghash::gf128_mul_reference;
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{Aes128, CacheLine, EncryptionKey, MacKey};

proptest! {
    /// AES is a permutation: distinct plaintexts give distinct ciphertexts.
    #[test]
    fn aes_injective(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    /// GF(2^128) multiplication is commutative and distributes over XOR.
    #[test]
    fn gf128_field_laws(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        let mul = gf128_mul_reference;
        prop_assert_eq!(mul(a, b), mul(b, a));
        prop_assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
    }

    /// CTR-mode encryption round-trips for arbitrary lines, addresses and
    /// counters.
    #[test]
    fn ctr_roundtrip(
        key in any::<[u8; 16]>(),
        line in any::<[u8; 64]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
    ) {
        let cipher = LineCipher::new(&EncryptionKey::from_bytes(key));
        let pt = CacheLine::from_bytes(line);
        let ct = cipher.encrypt(addr, counter, &pt);
        prop_assert_eq!(cipher.decrypt(addr, counter, &ct), pt);
    }

    /// A GMAC verifies under its inputs and fails under any corruption of
    /// the line, address or counter.
    #[test]
    fn gmac_detects_changes(
        key in any::<[u8; 16]>(),
        line in any::<[u8; 64]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
        bit in 0usize..512,
    ) {
        let gmac = Gmac::new(&MacKey::from_bytes(key));
        let l = CacheLine::from_bytes(line);
        let tag = gmac.line_tag(addr, counter, &l);
        prop_assert!(gmac.verify_line(addr, counter, &l, tag));
        prop_assert!(!gmac.verify_line(addr, counter, &l.with_bit_flipped(bit), tag));
        prop_assert!(!gmac.verify_line(addr ^ 0x40, counter, &l, tag));
        prop_assert!(!gmac.verify_line(addr, counter + 1, &l, tag));
    }

    /// XOR on cachelines is associative, commutative and self-inverse —
    /// the algebra the RAID-3 parity relies on.
    #[test]
    fn line_xor_algebra(a in any::<[u8; 64]>(), b in any::<[u8; 64]>(), c in any::<[u8; 64]>()) {
        let (a, b, c) =
            (CacheLine::from_bytes(a), CacheLine::from_bytes(b), CacheLine::from_bytes(c));
        prop_assert_eq!(a.xor(&b), b.xor(&a));
        prop_assert_eq!(a.xor(&b).xor(&c), a.xor(&b.xor(&c)));
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    /// Word/byte views of a cacheline are consistent.
    #[test]
    fn line_views_roundtrip(words in any::<[u64; 8]>()) {
        let line = CacheLine::from_words(words);
        prop_assert_eq!(line.to_words(), words);
        for (chip, &word) in words.iter().enumerate() {
            prop_assert_eq!(
                u64::from_le_bytes(line.chip_slice(chip)),
                word
            );
        }
    }
}
