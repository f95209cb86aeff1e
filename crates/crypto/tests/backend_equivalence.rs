//! Three-way backend equivalence: for every dispatching primitive the
//! SIMD path, the table path and the bit-serial reference must agree on
//! random keys, addresses, counters and line contents.
//!
//! On hosts without AES-NI/PCLMULQDQ the SIMD leg is skipped with a
//! printed notice (never silently green): the table-vs-reference leg
//! still runs, and `simd_leg_runs_on_capable_hosts` documents the skip
//! in the test output. CI additionally greps its own runner's CPU flags
//! and fails if a capable runner skipped the SIMD pass.

use proptest::prelude::*;
use synergy_crypto::ctr::{pad_with_cipher, pad_with_cipher_reference, LineCipher};
use synergy_crypto::gmac::{ChainLevel, Gmac};
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
    /// AES block encryption: every backend equals the per-byte FIPS-197
    /// reference.
    #[test]
    fn aes_encrypt_block_three_way(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let expect = Aes128::with_backend(&key, Backend::Table).encrypt_block_reference(&block);
        for backend in backends() {
            let aes = Aes128::with_backend(&key, backend);
            prop_assert_eq!(aes.encrypt_block(&block), expect, "{:?}", backend);
        }
    }

    /// GMAC line tags: every backend equals the bit-serial GHASH + AES
    /// reference, and `verify_line` accepts the tag.
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
            prop_assert_eq!(&scalar, &expect, "{:?}", backend);
            for ((a, c, l), &t) in items.iter().zip(&expect) {
                prop_assert!(gmac.verify_line(*a, *c, l, t), "{:?} verify", backend);
            }
        }
    }

    /// Counter-tree node tags: the fixed-shape kernel equals the upper half
    /// of the bit-serial reference tag on every backend.
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
        }
    }

    /// Correction candidates by linearity: on every backend, the line's
    /// tag state equals the bit-serial 128-bit tag, and each variant tag
    /// equals `line_tag_reference` of the materialized variant (the line
    /// with `delta` XORed into that chip's bytes). One case in four uses a
    /// zero delta, whose variants are the line itself.
    #[test]
    fn gmac_candidate_tags_three_way(
        key in any::<[u8; 16]>(),
        addr in any::<u64>(),
        counter in 0u64..(1 << 56),
        line in any::<[u8; 64]>(),
        delta in any::<[u8; 8]>(),
        zero in 0u8..4,
    ) {
        let mac_key = MacKey::from_bytes(key);
        let delta = if zero == 0 { [0; 8] } else { delta };
        let oracle = Gmac::with_backend(&mac_key, Backend::Table);
        let expect_state = oracle.tag128_reference(addr, counter, &line);
        let expect: [u64; 8] = std::array::from_fn(|chip| {
            let mut variant = CacheLine::from_bytes(line);
            for (v, d) in variant.chip_slice_mut(chip).iter_mut().zip(delta) {
                *v ^= d;
            }
            oracle.line_tag_reference(addr, counter, &variant)
        });
        prop_assert_eq!(
            oracle.line_tag_candidates_reference(addr, counter, &line, delta),
            (expect_state, expect),
            "reference"
        );
        for backend in backends() {
            let gmac = Gmac::with_backend(&mac_key, backend);
            let (state, variants) = gmac.line_tag_candidates(addr, counter, &line, delta);
            prop_assert_eq!(state, expect_state, "{:?} tag state", backend);
            prop_assert_eq!(variants, expect, "{:?} variants", backend);
        }
    }

    /// The Bonsai write update by linearity: on every backend,
    /// `bonsai_update` from the walk's GHASH states equals
    /// `bonsai_update_reference`, which retags every bumped payload with
    /// the bit-serial path and encrypts and tags the data line the
    /// reference way. Chains run from the counter line alone to eight
    /// levels. Each counter is drawn at random, just below a 2^32
    /// boundary (its bump changes the AAD) or at 2^56 − 1 (its bump wraps
    /// to zero). One level in four is stored with a single-chip error in
    /// its payload and its state is recovered as the walk does after a
    /// `ParityC` correction: the failed check's state plus
    /// `chip_delta_state`.
    #[test]
    fn bonsai_update_three_way(
        mac_key in any::<[u8; 16]>(),
        enc_key in any::<[u8; 16]>(),
        addr in any::<u64>(),
        plaintext in any::<[u8; 64]>(),
        levels in proptest::collection::vec(
            (
                (any::<u64>(), any::<[u64; 8]>(), 0usize..8, 0u8..4),
                (0u8..4, 0usize..8, any::<u64>()),
            ),
            1..9,
        ),
        root in any::<u64>(),
        root_kind in 0u8..4,
    ) {
        const MASK56: u64 = (1 << 56) - 1;
        // 0: random; 1: just below a 2^32 boundary; 2: 2^56 − 1; 3: random.
        let shape = |value: u64, kind: u8| match kind {
            1 => (value | 0xffff_ffff) & MASK56,
            2 => MASK56,
            _ => value & MASK56,
        };
        let mac_key = MacKey::from_bytes(mac_key);
        let enc_key = EncryptionKey::from_bytes(enc_key);
        let plaintext = CacheLine::from_bytes(plaintext);
        let n = levels.len();
        // Build the chain top-down: each level's parent counter is the
        // counter in the bumped slot of the level above.
        let mut chain = vec![ChainLevel::default(); n];
        let mut payloads = vec![[0u64; 8]; n];
        let mut errors = vec![None; n];
        let mut parent = shape(root, root_kind);
        for k in (0..n).rev() {
            let ((line_addr, words, slot, kind), (fault, chip, delta)) = levels[k];
            let mut payload = words.map(|w| w & MASK56);
            payload[slot] = shape(payload[slot], kind);
            chain[k] = ChainLevel {
                addr: line_addr & !63,
                parent_counter: parent,
                state: 0,
                slot,
                counter: payload[slot],
            };
            if fault == 0 && delta & MASK56 != 0 {
                errors[k] = Some((chip, (delta & MASK56).to_le_bytes()));
            }
            payloads[k] = payload;
            parent = payload[slot];
        }
        let oracle = Gmac::with_backend(&mac_key, Backend::Table);
        let oracle_cipher = LineCipher::with_backend(&enc_key, Backend::Table);
        let mut expect_tags = vec![0u64; n];
        let expect = oracle.bonsai_update_reference(
            &oracle_cipher, &chain, &payloads, addr, &plaintext, &mut expect_tags,
        );
        for backend in backends() {
            let gmac = Gmac::with_backend(&mac_key, backend);
            let cipher = LineCipher::with_backend(&enc_key, backend);
            let mut walked = chain.clone();
            for ((level, payload), error) in walked.iter_mut().zip(&payloads).zip(&errors) {
                let mut stored = CacheLine::from_words(*payload);
                if let Some((chip, delta)) = *error {
                    for (b, d) in stored.chip_slice_mut(chip).iter_mut().zip(delta) {
                        *b ^= d;
                    }
                }
                let (_, state) =
                    gmac.node_tag_state(level.addr, level.parent_counter, stored.as_bytes());
                level.state = match *error {
                    Some((chip, delta)) => state ^ gmac.chip_delta_state(chip, delta),
                    None => state,
                };
            }
            let mut tags = vec![0u64; n];
            let got = gmac.bonsai_update(&cipher, &walked, addr, &plaintext, &mut tags);
            prop_assert_eq!(&tags, &expect_tags, "{:?} level tags", backend);
            prop_assert_eq!(got, expect, "{:?} data line", backend);
        }
    }

    /// CTR pads: every backend equals the scalar reference AES pad.
    #[test]
    fn ctr_pad_three_way(
        key in any::<[u8; 16]>(),
        nonces in proptest::collection::vec((any::<u64>(), 0u64..(1 << 56)), 1..7),
    ) {
        let oracle = Aes128::with_backend(&key, Backend::Table);
        let expect: Vec<CacheLine> = nonces
            .iter()
            .map(|&(a, c)| pad_with_cipher_reference(&oracle, a, c))
            .collect();
        for backend in backends() {
            let aes = Aes128::with_backend(&key, backend);
            let scalar: Vec<CacheLine> =
                nonces.iter().map(|&(a, c)| pad_with_cipher(&aes, a, c)).collect();
            prop_assert_eq!(&scalar, &expect, "{:?}", backend);
        }
    }

    /// Line encryption: on every backend `LineCipher::encrypt` equals the
    /// scalar reference pad XOR the line, `decrypt` equals `encrypt`, and
    /// the pair round-trips. Counters at and above 2^56 are included: the
    /// pad encodes only their low 56 bits.
    #[test]
    fn ctr_line_three_way(
        key in any::<[u8; 16]>(),
        addr in any::<u64>(),
        counter in any::<u64>(),
        narrow in 0u8..2,
        line in any::<[u8; 64]>(),
    ) {
        let enc_key = EncryptionKey::from_bytes(key);
        let counter = if narrow == 1 { counter & ((1 << 56) - 1) } else { counter };
        let line = CacheLine::from_bytes(line);
        let expect = LineCipher::with_backend(&enc_key, Backend::Table)
            .encrypt_reference(addr, counter, &line);
        for backend in backends() {
            let cipher = LineCipher::with_backend(&enc_key, backend);
            let ct = cipher.encrypt(addr, counter, &line);
            prop_assert_eq!(ct, expect, "{:?} encrypt", backend);
            prop_assert_eq!(cipher.decrypt(addr, counter, &line), expect, "{:?} decrypt", backend);
            prop_assert_eq!(cipher.decrypt(addr, counter, &ct), line, "{:?} round trip", backend);
            prop_assert_eq!(
                cipher.encrypt(addr, counter & ((1 << 56) - 1), &line),
                ct,
                "{:?} counter aliasing",
                backend
            );
        }
    }
}
