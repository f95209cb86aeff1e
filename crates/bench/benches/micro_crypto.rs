//! Micro-benchmark of the crypto kernels the functional memory calls:
//! AES block encryption, counter-mode line encryption and the GMAC line
//! tag.
//!
//! Each kernel is timed once per backend the host can run (the
//! AES-NI/PCLMULQDQ [`Backend::Simd`] path where available, the portable
//! [`Backend::Table`] path everywhere) plus the retained bit-serial /
//! per-byte `*_reference` path, so both speedup stages are visible in one
//! table: tables over the reference implementation, and hardware
//! instructions over the tables. A plain `std::time::Instant` harness
//! (fixed inputs, a 10% warm-up, ns/op = wall time ÷ iterations) times
//! every row and writes `target/experiments/micro_crypto_backends.csv`
//! (one row per kernel and backend with ns/op), so CI can archive the
//! comparison. The kernels' cost inside the functional memory is the
//! layered benchmark's traced `secmem` rows (`crypto.line_tag_ns`,
//! `crypto.node_tag_ns`, `crypto.ctr_line_ns`).
//!
//! Run with `cargo bench -p synergy-bench --bench micro_crypto`.

use std::hint::black_box;
use std::time::Instant;
use synergy_crypto::ctr::LineCipher;
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{Aes128, Backend, CacheLine, EncryptionKey, MacKey};

/// Backends runnable on this host, best first.
fn backends() -> Vec<(Backend, &'static str)> {
    if Backend::simd_available() {
        vec![(Backend::Simd, "simd"), (Backend::Table, "table")]
    } else {
        vec![(Backend::Table, "table")]
    }
}

/// ns/op over `iters` calls of `f`, after a 10% warm-up.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

struct Row {
    kernel: &'static str,
    backend: &'static str,
    iters: u64,
    ns: f64,
}

fn row(kernel: &'static str, backend: &'static str, iters: u64, f: impl FnMut()) -> Row {
    Row { kernel, backend, iters, ns: time_ns(iters, f) }
}

fn main() {
    let line = CacheLine::from_bytes([0x5A; 64]);
    let block = [0x3Cu8; 16];
    let enc_key = EncryptionKey::from_bytes([1; 16]);
    let mac_key = MacKey::from_bytes([2; 16]);
    let mut rows: Vec<Row> = Vec::new();

    for (backend, label) in backends() {
        let aes = Aes128::with_backend(&[7u8; 16], backend);
        rows.push(row("aes_encrypt_block", label, 1_000_000, || {
            black_box(aes.encrypt_block(black_box(&block)));
        }));
        let cipher = LineCipher::with_backend(&enc_key, backend);
        rows.push(row("ctr_encrypt_line", label, 300_000, || {
            black_box(cipher.encrypt(black_box(0x4000), black_box(9), black_box(&line)));
        }));
        let gmac = Gmac::with_backend(&mac_key, backend);
        rows.push(row("gmac_line_tag", label, 300_000, || {
            black_box(gmac.line_tag(black_box(0x4000), black_box(9), black_box(&line)));
        }));
    }

    // The bit-serial oracles are backend-independent; one row each.
    let aes = Aes128::new(&[7u8; 16]);
    rows.push(row("aes_encrypt_block", "reference", 100_000, || {
        black_box(aes.encrypt_block_reference(black_box(&block)));
    }));
    let cipher = LineCipher::new(&enc_key);
    rows.push(row("ctr_encrypt_line", "reference", 20_000, || {
        black_box(cipher.encrypt_reference(black_box(0x4000), black_box(9), black_box(&line)));
    }));
    let gmac = Gmac::new(&mac_key);
    rows.push(row("gmac_line_tag", "reference", 20_000, || {
        black_box(gmac.line_tag_reference(black_box(0x4000), black_box(9), black_box(&line)));
    }));

    // Speedup of each row relative to the same kernel's table row.
    let speedups: Vec<String> = rows
        .iter()
        .map(|r| {
            rows.iter()
                .find(|t| t.kernel == r.kernel && t.backend == "table")
                .map_or_else(String::new, |t| format!("{:.2}", t.ns / r.ns))
        })
        .collect();

    println!("\nbackend matrix (Instant harness, ns/op; speedup vs table):");
    synergy_bench::print_table(
        &["kernel", "backend", "ns_per_op", "vs_table"],
        &rows
            .iter()
            .zip(&speedups)
            .map(|(r, s)| {
                vec![r.kernel.to_string(), r.backend.to_string(), format!("{:.1}", r.ns), s.clone()]
            })
            .collect::<Vec<_>>(),
    );
    synergy_bench::write_csv(
        "micro_crypto_backends",
        "kernel,backend,iters,ns_per_op,speedup_vs_table",
        &rows
            .iter()
            .zip(&speedups)
            .map(|(r, s)| format!("{},{},{},{:.1},{}", r.kernel, r.backend, r.iters, r.ns, s))
            .collect::<Vec<_>>(),
    );
}
