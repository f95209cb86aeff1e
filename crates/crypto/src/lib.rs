//! Cryptographic substrate for the SYNERGY secure-memory reproduction.
//!
//! SYNERGY's functional secure memory (HPCA 2018, §II-A and §III) needs
//! exactly two cryptographic operations, both implemented here from
//! scratch:
//!
//! * **Counter-mode encryption** ([`ctr`]) — every 64-byte cacheline is
//!   XORed with a one-time pad derived from AES-128 applied to the line
//!   address and a per-line write counter, providing confidentiality with
//!   pad pre-computation off the critical path.
//! * **A 64-bit GMAC** ([`gmac`]) over a data line or a counter-tree node,
//!   bound to its address and counter. It provides integrity and doubles
//!   as the chip-failure *error-detection* code in SYNERGY.
//!
//! Both rest on the forward **AES-128 block cipher** ([`aes`]) and the
//! GF(2^128) hash [`ghash`], implemented per FIPS-197 and SP 800-38D and
//! validated against the published test vectors.
//!
//! Each kernel ships in three forms: a straightforward **reference**
//! implementation (bit-serial field multiplies, per-byte AES rounds —
//! exported with `*_reference` names) that serves as the testing oracle,
//! a portable **table-driven** path (T-table AES, an 8-bit-window GHASH
//! key table) built once at key setup, and — on x86-64 with AES-NI +
//! PCLMULQDQ — a **SIMD** path (`_mm_aesenc_si128` rounds,
//! `_mm_clmulepi64_si128` field multiplies) selected by one-time runtime
//! CPU detection (see [`Backend`] and the `SYNERGY_CRYPTO_BACKEND`
//! override). Every keyed instance ([`Aes128`], [`GhashKey`],
//! [`gmac::Gmac`], [`ctr::LineCipher`]) dispatches through its backend;
//! proptest suites assert all paths agree on random inputs and on the
//! published known-answer vectors.
//!
//! # Quickstart
//!
//! Build the keyed instances **once** and reuse them — key setup expands
//! the AES schedule and (on the table backend) a 64 KiB GHASH table:
//!
//! ```
//! use synergy_crypto::{CacheLine, EncryptionKey, MacKey};
//! use synergy_crypto::{ctr::LineCipher, gmac::Gmac};
//!
//! let cipher = LineCipher::new(&EncryptionKey::from_bytes([0x11; 16]));
//! let mac = Gmac::new(&MacKey::from_bytes([0x22; 16]));
//! let plaintext = CacheLine::from_bytes([0xAB; 64]);
//! let addr = 0x1000;
//! let counter = 7;
//!
//! // Encrypt, MAC, then verify and decrypt — the per-line flow a secure
//! // memory controller performs on every writeback and fill.
//! let ciphertext = cipher.encrypt(addr, counter, &plaintext);
//! let tag = mac.line_tag(addr, counter, &ciphertext);
//!
//! assert!(mac.verify_line(addr, counter, &ciphertext, tag));
//! let recovered = cipher.decrypt(addr, counter, &ciphertext);
//! assert_eq!(recovered, plaintext);
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one module:
// the `#[target_feature]` SIMD kernels in `simd`, which every safe
// caller reaches only behind a successful runtime feature detection, and
// the baseline-SSE prefetch hint behind [`prefetch`].
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod backend;
pub mod ctr;
pub mod ghash;
pub mod gmac;

mod line;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

pub use aes::Aes128;
pub use backend::Backend;
pub use ghash::GhashKey;
pub use line::CacheLine;

/// Hints the CPU to start loading the cache lines that hold the first and
/// the last of `words`, and returns without waiting for them. On x86-64
/// this is a non-blocking `prefetcht0` (SSE, part of the baseline); other
/// targets load the two words and discard them.
#[inline]
pub fn prefetch(words: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    simd::prefetch(words);
    #[cfg(not(target_arch = "x86_64"))]
    if let (Some(first), Some(last)) = (words.first(), words.last()) {
        std::hint::black_box(first ^ last);
    }
}

/// Size in bytes of a memory cacheline (fixed at 64 throughout the paper).
pub const LINE_BYTES: usize = 64;

/// A 128-bit key used to derive the counter-mode one-time pads.
///
/// Distinct new-types for the encryption and MAC keys make it impossible to
/// accidentally MAC with the encryption key or vice versa (the classic
/// key-separation requirement of encrypt-then-MAC).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncryptionKey([u8; 16]);

/// A 128-bit key used for message-authentication-code computation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacKey([u8; 16]);

macro_rules! key_impl {
    ($ty:ident, $name:expr) => {
        impl $ty {
            /// Creates a key from raw bytes.
            pub fn from_bytes(bytes: [u8; 16]) -> Self {
                Self(bytes)
            }

            /// Returns the raw key bytes.
            pub fn as_bytes(&self) -> &[u8; 16] {
                &self.0
            }
        }

        impl From<[u8; 16]> for $ty {
            fn from(bytes: [u8; 16]) -> Self {
                Self::from_bytes(bytes)
            }
        }

        // Debug intentionally redacts the key material so that keys never
        // leak into logs or panic messages.
        impl core::fmt::Debug for $ty {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!($name, "(<redacted>)"))
            }
        }
    };
}

key_impl!(EncryptionKey, "EncryptionKey");
key_impl!(MacKey, "MacKey");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_redact_debug_output() {
        let k = EncryptionKey::from_bytes([0xFF; 16]);
        let dbg = format!("{k:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("255"));
        let m = MacKey::from_bytes([0xEE; 16]);
        assert!(format!("{m:?}").contains("redacted"));
    }

    #[test]
    fn key_roundtrip() {
        let bytes = [7u8; 16];
        assert_eq!(EncryptionKey::from_bytes(bytes).as_bytes(), &bytes);
        assert_eq!(MacKey::from(bytes).as_bytes(), &bytes);
    }
}
