//! Runtime crypto-backend selection.
//!
//! Every keyed primitive in this crate ([`crate::Aes128`],
//! [`crate::GhashKey`], [`crate::gmac::Gmac`], [`crate::ctr::LineCipher`])
//! carries a [`Backend`] chosen once per process: the hardware
//! [`Backend::Simd`] path (AES-NI rounds, PCLMULQDQ carry-less
//! multiplies — see `crate::simd`) when the CPU supports it, or the
//! portable [`Backend::Table`] path (T-table AES, windowed GHASH key
//! table) everywhere else. The bit-serial
//! `*_reference` functions are backend-independent and keep pinning both.
//!
//! The `SYNERGY_CRYPTO_BACKEND` environment variable overrides detection:
//!
//! * `auto` (or unset) — SIMD when `is_x86_feature_detected!` reports
//!   both `aes` and `pclmulqdq`, table otherwise;
//! * `simd` — force the SIMD path, **panicking** when the host lacks the
//!   features (a forced-SIMD CI pass must fail loudly, never silently
//!   fall back);
//! * `table` — force the portable path (works on every host).
//!
//! The variable is read once and cached; tests that need both paths in
//! one process use the `with_backend` constructors instead of the
//! environment.

use std::sync::OnceLock;

/// Which implementation a keyed crypto instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Hardware path: `_mm_aesenc_si128` AES rounds and
    /// `_mm_clmulepi64_si128` field multiplies (x86-64 with AES-NI +
    /// PCLMULQDQ only).
    Simd,
    /// Portable precomputed-table path — the former hot path, retained
    /// as the fallback on hosts without the SIMD features.
    Table,
}

impl Backend {
    /// The process-wide backend: `SYNERGY_CRYPTO_BACKEND` if set,
    /// otherwise CPU-feature auto-detection. Cached after the first call.
    ///
    /// # Panics
    ///
    /// Panics when the variable holds an unknown value, or holds `simd`
    /// on a host without AES-NI + PCLMULQDQ.
    pub fn detect() -> Backend {
        static CHOICE: OnceLock<Backend> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            match std::env::var("SYNERGY_CRYPTO_BACKEND").as_deref() {
                Err(_) | Ok("") | Ok("auto") => {
                    if Backend::simd_available() {
                        Backend::Simd
                    } else {
                        Backend::Table
                    }
                }
                Ok("simd") => {
                    assert!(
                        Backend::simd_available(),
                        "SYNERGY_CRYPTO_BACKEND=simd but this host lacks AES-NI/PCLMULQDQ \
                         (or is not x86-64); use `auto` or `table`"
                    );
                    Backend::Simd
                }
                Ok("table") => Backend::Table,
                Ok(other) => panic!(
                    "unknown SYNERGY_CRYPTO_BACKEND value {other:?} (expected auto|simd|table)"
                ),
            }
        })
    }

    /// Whether the SIMD backend can run on this host (x86-64 with both
    /// AES-NI and PCLMULQDQ, detected at runtime).
    pub fn simd_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_consistent() {
        let first = Backend::detect();
        assert_eq!(first, Backend::detect(), "detection must be cached");
        if first == Backend::Simd {
            assert!(Backend::simd_available());
        }
    }

    #[test]
    fn simd_availability_matches_cpuinfo_flags() {
        // On Linux/x86-64 the kernel's cpuinfo flags and the userspace
        // CPUID detection must agree — this is the non-silent guard the
        // CI dual-backend pass relies on: a host that advertises the
        // features but fails detection is a bug, not a skip.
        if cfg!(target_arch = "x86_64") {
            if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
                let advertised = info.contains(" aes") && info.contains(" pclmul");
                assert_eq!(
                    Backend::simd_available(),
                    advertised,
                    "cpuinfo flags disagree with is_x86_feature_detected!"
                );
            }
        } else {
            assert!(!Backend::simd_available());
        }
    }
}
