//! Equivalence suite for the table-driven crypto kernels.
//!
//! Every hot-path kernel (T-table AES, 8-bit-window GHASH) must agree with
//! its retained bit-serial / per-byte reference implementation on
//! arbitrary inputs, and both must reproduce the published known-answer
//! vectors (FIPS-197 appendices, SP 800-38D GCM test cases).

use proptest::prelude::*;
use synergy_crypto::ctr::{pad_with_cipher, pad_with_cipher_reference, LineCipher};
use synergy_crypto::ghash::{gf128_mul_reference, ghash, GhashKey};
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{Aes128, CacheLine, EncryptionKey, MacKey};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().unwrap()
}

/// Full AES-GCM encryption (96-bit IV fast path) built from the public
/// primitives — keyed AES for the keystream and the reference GHASH for
/// the tag — checked against the SP 800-38D test vectors end to end.
fn gcm_encrypt(key: &[u8; 16], iv: &[u8; 12], aad: &[u8], pt: &[u8]) -> (Vec<u8>, [u8; 16]) {
    let aes = Aes128::new(key);
    let h = u128::from_be_bytes(aes.encrypt_block(&[0u8; 16]));

    let mut j = [0u8; 16];
    j[..12].copy_from_slice(iv);
    j[15] = 1;
    let j0 = u128::from_be_bytes(j);

    let mut ct = Vec::with_capacity(pt.len());
    for (i, chunk) in pt.chunks(16).enumerate() {
        let ctr_block = (j0 + 1 + i as u128).to_be_bytes();
        let ks = aes.encrypt_block(&ctr_block);
        ct.extend(chunk.iter().zip(ks.iter()).map(|(p, k)| p ^ k));
    }

    let g = ghash(h, aad, &ct);
    let tag = (g ^ aes.encrypt_u128(j0)).to_be_bytes();
    (ct, tag)
}

#[test]
fn sp800_38d_gcm_test_case_1() {
    // Zero key, zero IV, empty everything: tag is E_K(J0).
    let (ct, tag) = gcm_encrypt(&[0u8; 16], &[0u8; 12], &[], &[]);
    assert!(ct.is_empty());
    assert_eq!(tag, hex16("58e2fccefa7e3061367f1d57a4e7455a"));
}

#[test]
fn sp800_38d_gcm_test_case_2() {
    // Zero key/IV, one zero plaintext block.
    let (ct, tag) = gcm_encrypt(&[0u8; 16], &[0u8; 12], &[], &[0u8; 16]);
    assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
    assert_eq!(tag, hex16("ab6e47d42cec13bdf53a67b21257bddf"));
}

#[test]
fn sp800_38d_gcm_test_case_3() {
    let key = hex16("feffe9928665731c6d6a8f9467308308");
    let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
    let pt = hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    );
    // Test case 4 uses this plaintext truncated with AAD; case 3 is the
    // full 4-block plaintext with no AAD.
    let full_pt = hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    let (ct, tag) = gcm_encrypt(&key, &iv, &[], &full_pt);
    assert_eq!(
        ct,
        hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        )
    );
    assert_eq!(tag, hex16("4d5c2af327cd64a62cf35abd2ba6fab4"));
    // And the truncated-plaintext prefix is a prefix of the ciphertext
    // (CTR mode property, exercised through the table path).
    let (ct_short, _) = gcm_encrypt(&key, &iv, &[], &pt);
    assert_eq!(ct[..pt.len()], ct_short[..]);
}

#[test]
fn fips197_known_answers_on_both_paths() {
    // Appendix B.
    let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let pt = hex16("3243f6a8885a308d313198a2e0370734");
    let ct = hex16("3925841d02dc09fbdc118597196a0b32");
    assert_eq!(aes.encrypt_block(&pt), ct);
    assert_eq!(aes.encrypt_block_reference(&pt), ct);
    // Appendix C.1.
    let aes = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
    let pt = hex16("00112233445566778899aabbccddeeff");
    let ct = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
    assert_eq!(aes.encrypt_block(&pt), ct);
    assert_eq!(aes.encrypt_block_reference(&pt), ct);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// T-table AES agrees with the per-byte reference rounds.
    #[test]
    fn aes_table_matches_reference(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.encrypt_block(&block), aes.encrypt_block_reference(&block));
    }

    /// The 8-bit-window GHASH table agrees with the bit-serial multiply.
    #[test]
    fn ghash_table_matches_reference(h in any::<u128>(), x in any::<u128>()) {
        prop_assert_eq!(GhashKey::new(h).mul(x), gf128_mul_reference(x, h));
    }

    /// The keyed line-shape GHASH (4-byte AAD, 64-byte data, length
    /// block) agrees with the reference GHASH for arbitrary subkeys.
    #[test]
    fn ghash_line_matches_reference(
        h in any::<u128>(),
        aad in any::<[u8; 4]>(),
        data in any::<[u8; 64]>(),
    ) {
        prop_assert_eq!(GhashKey::new(h).ghash_line(aad, &data), ghash(h, &aad, &data));
    }

    /// End-to-end: table-driven GMAC line tags equal the reference tags for
    /// random (key, addr, counter, line) tuples.
    #[test]
    fn gmac_line_tag_matches_reference(
        key in any::<[u8; 16]>(),
        line in any::<[u8; 64]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
    ) {
        let gmac = Gmac::new(&MacKey::from_bytes(key));
        let l = CacheLine::from_bytes(line);
        prop_assert_eq!(
            gmac.line_tag(addr, counter, &l),
            gmac.line_tag_reference(addr, counter, &l)
        );
    }

    /// End-to-end: the table-driven pad equals the reference pad, and line
    /// encryption agrees between the paths.
    #[test]
    fn ctr_pad_matches_reference(
        key in any::<[u8; 16]>(),
        line in any::<[u8; 64]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
    ) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(
            pad_with_cipher(&aes, addr, counter),
            pad_with_cipher_reference(&aes, addr, counter)
        );
        let cipher = LineCipher::new(&EncryptionKey::from_bytes(key));
        let pt = CacheLine::from_bytes(line);
        prop_assert_eq!(
            cipher.encrypt(addr, counter, &pt),
            cipher.encrypt_reference(addr, counter, &pt)
        );
    }
}
