//! Three-way backend equivalence: for every dispatching primitive the
//! SIMD path, the table path and the bit-serial reference must agree on
//! random keys, addresses, counters and line contents — and the batch
//! APIs must agree with their scalar counterparts.
//!
//! On hosts without AES-NI/PCLMULQDQ the SIMD leg is skipped with a
//! printed notice (never silently green): the table-vs-reference leg
//! still runs, and `simd_leg_runs_on_capable_hosts` documents the skip
//! in the test output. CI additionally greps its own runner's CPU flags
//! and fails if a capable runner skipped the SIMD pass.

use proptest::prelude::*;
use synergy_crypto::ctr::{pad_with_cipher, pad_with_cipher_reference, LineCipher};
use synergy_crypto::cw_mac::CarterWegmanMac;
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{Aes128, Backend, CacheLine, EncryptionKey, MacKey};

/// The backends to cross-check: always the table path; the SIMD path
/// too when the host supports it.
fn backends() -> Vec<Backend> {
    if Backend::simd_available() {
        vec![Backend::Table, Backend::Simd]
    } else {
        eprintln!("NOTE: host lacks AES-NI/PCLMULQDQ — table-vs-reference legs only");
        vec![Backend::Table]
    }
}

/// Loud-skip sentinel: on a capable host the SIMD leg must be in the
/// cross-check set, and the process-wide auto-detection must pick it.
#[test]
fn simd_leg_runs_on_capable_hosts() {
    if Backend::simd_available() {
        assert!(backends().contains(&Backend::Simd));
        // Guarded: a forced `SYNERGY_CRYPTO_BACKEND=table` run legitimately
        // pins the portable path.
        match std::env::var("SYNERGY_CRYPTO_BACKEND").as_deref() {
            Ok("table") => assert_eq!(Backend::detect(), Backend::Table),
            _ => assert_eq!(Backend::detect(), Backend::Simd),
        }
    } else {
        eprintln!("SKIP: simd equivalence legs not run (host lacks AES-NI/PCLMULQDQ)");
    }
}

proptest! {
    /// AES block encryption: every backend equals the bit-serial FIPS-197
    /// reference, for single blocks and for batches at widths straddling
    /// the 8-lane SIMD pipeline.
    #[test]
    fn aes_encrypt_block_three_way(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
        batch in proptest::collection::vec(any::<[u8; 16]>(), 0..20),
    ) {
        let oracle = Aes128::with_backend(&key, Backend::Table);
        let expect_one = oracle.encrypt_block_reference(&block);
        let expect_batch: Vec<[u8; 16]> =
            batch.iter().map(|b| oracle.encrypt_block_reference(b)).collect();
        for backend in backends() {
            let aes = Aes128::with_backend(&key, backend);
            prop_assert_eq!(aes.encrypt_block(&block), expect_one, "{:?}", backend);
            let mut blocks = batch.clone();
            aes.encrypt_blocks(&mut blocks);
            prop_assert_eq!(&blocks, &expect_batch, "{:?} batch", backend);
        }
    }

    /// GMAC line tags: every backend equals the bit-serial GHASH + AES
    /// reference, and the batch API equals the scalar map.
    #[test]
    fn gmac_line_tag_three_way(
        key in any::<[u8; 16]>(),
        lines in proptest::collection::vec(any::<[u8; 64]>(), 1..10),
        addr0 in any::<u64>(),
        counter0 in 0u64..(1 << 56),
    ) {
        let mac_key = MacKey::from_bytes(key);
        let items: Vec<(u64, u64, CacheLine)> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    addr0.wrapping_add(64 * i as u64),
                    (counter0 + i as u64) & ((1 << 56) - 1),
                    CacheLine::from_bytes(*l),
                )
            })
            .collect();
        let oracle = Gmac::with_backend(&mac_key, Backend::Table);
        let expect: Vec<u64> = items
            .iter()
            .map(|(a, c, l)| oracle.line_tag_reference(*a, *c, l))
            .collect();
        for backend in backends() {
            let gmac = Gmac::with_backend(&mac_key, backend);
            let scalar: Vec<u64> =
                items.iter().map(|(a, c, l)| gmac.line_tag(*a, *c, l)).collect();
            prop_assert_eq!(&scalar, &expect, "{:?} scalar", backend);
            let refs: Vec<(u64, u64, &CacheLine)> =
                items.iter().map(|(a, c, l)| (*a, *c, l)).collect();
            prop_assert_eq!(&gmac.line_tags_batch(&refs), &expect, "{:?} batch", backend);
            let with_tags: Vec<(u64, u64, &CacheLine, u64)> = refs
                .iter()
                .zip(&expect)
                .map(|(&(a, c, l), &t)| (a, c, l, t))
                .collect();
            prop_assert!(gmac.verify_lines_batch(&with_tags).iter().all(|ok| *ok));
        }
    }

    /// Counter-tree node tags: the fixed-shape kernel equals the generic
    /// streaming tag and the bit-serial reference on every backend.
    #[test]
    fn gmac_node_tag_three_way(
        key in any::<[u8; 16]>(),
        payload in any::<[u8; 64]>(),
        addr in any::<u64>(),
        parent_counter in 0u64..(1 << 56),
    ) {
        let mac_key = MacKey::from_bytes(key);
        let expect = (Gmac::with_backend(&mac_key, Backend::Table)
            .tag128_reference(addr, parent_counter, &payload)
            >> 64) as u64;
        for backend in backends() {
            let gmac = Gmac::with_backend(&mac_key, backend);
            let node = gmac.node_tag(addr, parent_counter, &payload);
            prop_assert_eq!(node, expect, "{:?} node_tag", backend);
            let streaming = gmac.tag64(addr, parent_counter, &payload);
            prop_assert_eq!(streaming, expect, "{:?} tag64", backend);
        }
    }

    /// Carter–Wegman line tags: every backend equals the bit-serial
    /// GF(2^64) reference.
    #[test]
    fn cw_line_tag_three_way(
        key in any::<[u8; 16]>(),
        line in any::<[u8; 64]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
    ) {
        let mac_key = MacKey::from_bytes(key);
        let line = CacheLine::from_bytes(line);
        let expect = CarterWegmanMac::with_backend(&mac_key, Backend::Table)
            .line_tag_reference(addr, counter, &line);
        for backend in backends() {
            let mac = CarterWegmanMac::with_backend(&mac_key, backend);
            prop_assert_eq!(mac.line_tag(addr, counter, &line), expect, "{:?}", backend);
        }
    }

    /// CTR pads: every backend equals the scalar reference AES pad, and
    /// the batch API equals the scalar map.
    #[test]
    fn ctr_pad_three_way(
        key in any::<[u8; 16]>(),
        nonces in proptest::collection::vec((any::<u64>(), 0u64..(1 << 56)), 1..7),
    ) {
        let enc_key = EncryptionKey::from_bytes(key);
        let oracle = Aes128::with_backend(&key, Backend::Table);
        let expect: Vec<CacheLine> = nonces
            .iter()
            .map(|&(a, c)| pad_with_cipher_reference(&oracle, a, c))
            .collect();
        for backend in backends() {
            let aes = Aes128::with_backend(&key, backend);
            let scalar: Vec<CacheLine> =
                nonces.iter().map(|&(a, c)| pad_with_cipher(&aes, a, c)).collect();
            prop_assert_eq!(&scalar, &expect, "{:?} scalar", backend);
            let cipher = LineCipher::with_backend(&enc_key, backend);
            prop_assert_eq!(&cipher.pads_batch(&nonces), &expect, "{:?} batch", backend);
        }
    }
}
