//! Pins the record streams the generators produce: any change to how a
//! record is drawn (the order of random draws, a constant, an address
//! computation) moves a hash here before it moves a simulated figure.

use synergy_trace::{presets, AccessPattern, MultiCoreTrace, TraceRecord};

/// Records hashed per core.
const RECORDS: usize = 20_000;

/// Rate-mode cores, as the simulator runs every preset.
const CORES: usize = 4;

/// FNV-1a (64-bit) of every field of every record, in stream order.
fn fnv1a(records: impl IntoIterator<Item = TraceRecord>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.gap.to_le_bytes());
        eat(&[u8::from(r.is_write), u8::from(r.dependent)]);
        eat(&r.addr.to_le_bytes());
    }
    h
}

/// The hash of the first [`RECORDS`] records of each core, core by core,
/// of `name`'s rate-mode trace at seed 2.
fn stream_hash(name: &str) -> u64 {
    let spec = presets::by_name(name).expect("pinned preset exists");
    let mut trace = MultiCoreTrace::rate_mode(&spec, CORES, 2);
    fnv1a(
        (0..CORES)
            .flat_map(|core| (0..RECORDS).map(move |_| core))
            .map(|c| trace.next_record(c)),
    )
}

/// `(preset, stream_hash)`, one per preset of [`presets::all`], in order.
const PINS: &[(&str, u64)] = &[
    ("mcf", 0x2a39c55ac4ac1286),
    ("libquantum", 0xddef1c1bf3230362),
    ("omnetpp", 0xfafa2ee55c7bcece),
    ("astar", 0x1f159f0fb4d0e621),
    ("xalancbmk", 0xda80b026e8f9347c),
    ("gcc", 0x900d2ad1f6b528a6),
    ("bzip2", 0x5ce52ad6ef434e7f),
    ("gobmk", 0xc4b022a45c18effd),
    ("hmmer", 0x6b0a773119b0a0e5),
    ("h264ref", 0x0d4acf961c757f1b),
    ("sjeng", 0xe621ea8ab8eede3c),
    ("perlbench", 0x102ea404244a2e84),
    ("lbm", 0xecd5502dfd179ff3),
    ("milc", 0xb11f4a9ec8e81def),
    ("soplex", 0x77915b8b4a59543d),
    ("GemsFDTD", 0xa4f6bd3cc2d1c774),
    ("leslie3d", 0x9e521da313180555),
    ("bwaves", 0x638ac5a493cab4ef),
    ("sphinx3", 0xeaffb56f99eb33bc),
    ("zeusmp", 0xee9598841e70d8a2),
    ("cactusADM", 0xd9329217cb325582),
    ("wrf", 0xeea0c0a02856ee96),
    ("dealII", 0x48e129ca0c9590a3),
    ("pr-twi", 0xae0f177c477de7bc),
    ("pr-web", 0xb6f3e20cfe0191de),
    ("cc-twi", 0x2a311412afda097e),
    ("cc-web", 0x07098e1fd08a5b15),
    ("bc-twi", 0xe50c3e6458cc932d),
    ("bc-web", 0x1ff0b6cb503813cd),
];

#[test]
fn rate_mode_streams_of_every_preset_match_pin() {
    let all = presets::all();
    let names: Vec<&str> = all.iter().map(|s| s.name).collect();
    let pinned: Vec<&str> = PINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(pinned, names, "one pin per preset, in preset order");
    let covers = |f: fn(&AccessPattern) -> bool| all.iter().any(|s| f(&s.pattern));
    assert!(covers(|p| matches!(p, AccessPattern::Streaming { .. })));
    assert!(covers(|p| matches!(p, AccessPattern::Random { .. })));
    assert!(covers(|p| matches!(p, AccessPattern::PointerChase { .. })));
    assert!(covers(|p| matches!(p, AccessPattern::Graph { .. })));
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, pin)| {
            let got = stream_hash(name);
            (got != pin).then(|| format!("(\"{name}\", {got:#018x}),"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "trace streams moved:\n{}",
        moved.join("\n")
    );
}
