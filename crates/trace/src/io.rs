//! USIMM-style trace file I/O.
//!
//! USIMM consumes text traces with one memory operation per line:
//!
//! ```text
//! <gap> R|W 0x<address> [D]
//! ```
//!
//! where `gap` is the number of non-memory instructions preceding the
//! access and the optional trailing `D` (our extension) marks a load that
//! depends on the previous load. This module lets the synthetic generators
//! interoperate with that format: export a preset workload to a file, or
//! drive the simulator from traces produced elsewhere.
//!
//! ```
//! use synergy_trace::{io as trace_io, presets, TraceGen};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gen = TraceGen::new(presets::by_name("mcf").unwrap(), 1);
//! let records: Vec<_> = (0..100).map(|_| gen.next_record()).collect();
//!
//! let mut buf = Vec::new();
//! trace_io::write_trace(&mut buf, &records)?;
//! let parsed = trace_io::read_trace(&buf[..])?;
//! assert_eq!(parsed, records);
//! # Ok(())
//! # }
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::TraceRecord;

/// Errors from trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and contents.
    Parse {
        /// Line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Parse { line, text } => {
                write!(f, "malformed trace line {line}: {text:?}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes records in USIMM text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    for r in records {
        let op = if r.is_write { 'W' } else { 'R' };
        if r.dependent {
            writeln!(w, "{} {} {:#x} D", r.gap, op, r.addr)?;
        } else {
            writeln!(w, "{} {} {:#x}", r.gap, op, r.addr)?;
        }
    }
    Ok(())
}

/// Parses a USIMM text trace. Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] for malformed lines and
/// [`TraceIoError::Io`] for reader failures.
pub fn read_trace<R: Read>(r: R) -> Result<Vec<TraceRecord>, TraceIoError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        out.push(parse_line(text).ok_or_else(|| TraceIoError::Parse {
            line: i + 1,
            text: text.to_string(),
        })?);
    }
    Ok(out)
}

fn parse_line(text: &str) -> Option<TraceRecord> {
    let mut parts = text.split_whitespace();
    let gap: u32 = parts.next()?.parse().ok()?;
    let is_write = match parts.next()? {
        "R" | "r" => false,
        "W" | "w" => true,
        _ => return None,
    };
    let addr_text = parts.next()?;
    let addr = if let Some(hex) = addr_text.strip_prefix("0x").or_else(|| addr_text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()?
    } else {
        addr_text.parse().ok()?
    };
    let dependent = match parts.next() {
        None => false,
        Some("D") | Some("d") => true,
        Some(_) => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(TraceRecord { gap, is_write, addr: addr & !63, dependent })
}

/// A replayable in-memory trace that loops forever — drop-in for a
/// [`crate::TraceGen`] when driving the simulator from a file.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    records: Vec<TraceRecord>,
    pos: usize,
}

impl ReplayTrace {
    /// Wraps parsed records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "replay trace needs at least one record");
        Self { records, pos: 0 }
    }

    /// Loads a trace from a reader.
    ///
    /// # Errors
    ///
    /// Propagates parse/I/O errors; an empty trace is a parse error.
    pub fn from_reader<R: Read>(r: R) -> Result<Self, TraceIoError> {
        let records = read_trace(r)?;
        if records.is_empty() {
            return Err(TraceIoError::Parse { line: 0, text: "empty trace".into() });
        }
        Ok(Self::new(records))
    }

    /// Number of distinct records before the trace loops.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false (construction requires at least one record).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Next record, looping at the end.
    pub fn next_record(&mut self) -> TraceRecord {
        let r = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(gap: u32, is_write: bool, addr: u64, dependent: bool) -> TraceRecord {
        TraceRecord { gap, is_write, addr, dependent }
    }

    #[test]
    fn roundtrip() {
        let records = vec![
            rec(10, false, 0x1000, false),
            rec(0, true, 0x40, false),
            rec(333, false, 0xdead_bec0, true),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), records);
    }

    #[test]
    fn parses_decimal_and_hex_and_comments() {
        let text = "# a comment\n5 R 0x80\n\n7 W 128\n2 r 0X40 d\n";
        let records = read_trace(text.as_bytes()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], rec(5, false, 0x80, false));
        assert_eq!(records[1], rec(7, true, 128, false));
        assert_eq!(records[2], rec(2, false, 0x40, true));
    }

    #[test]
    fn addresses_are_line_aligned_on_read() {
        let records = read_trace("1 R 0x47\n".as_bytes()).unwrap();
        assert_eq!(records[0].addr, 0x40);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        for bad in ["R 0x40", "1 X 0x40", "1 R zz", "1 R 0x40 Q", "1 R 0x40 D extra"] {
            let text = format!("1 R 0x40\n{bad}\n");
            match read_trace(text.as_bytes()) {
                Err(TraceIoError::Parse { line, .. }) => assert_eq!(line, 2, "{bad}"),
                other => panic!("{bad}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn replay_loops() {
        let mut t = ReplayTrace::new(vec![rec(1, false, 0, false), rec(2, true, 64, false)]);
        assert_eq!(t.len(), 2);
        let a = t.next_record();
        let b = t.next_record();
        let c = t.next_record();
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(matches!(
            ReplayTrace::from_reader("# nothing\n".as_bytes()),
            Err(TraceIoError::Parse { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Every prefix and every single-byte mutation of a written trace
        /// reads to `Ok` or `Err`, never a panic, and whatever reads
        /// survives `write_trace` → `read_trace` unchanged.
        #[test]
        fn truncated_or_mutated_traces_never_panic(
            raw in proptest::collection::vec((0u32..5000, 0u64..1 << 40, 0u8..4), 1..12),
        ) {
            let records: Vec<_> = raw
                .iter()
                .map(|&(gap, addr, flags)| rec(gap, flags & 1 == 1, addr & !63, flags & 2 == 2))
                .collect();
            let mut bytes = Vec::new();
            write_trace(&mut bytes, &records).unwrap();
            let check = |doc: &[u8]| {
                if let Ok(parsed) = read_trace(doc) {
                    let mut again = Vec::new();
                    write_trace(&mut again, &parsed).unwrap();
                    assert_eq!(read_trace(&again[..]).unwrap(), parsed, "{doc:?}");
                }
            };
            for end in 0..bytes.len() {
                check(&bytes[..end]);
            }
            for i in 0..bytes.len() {
                let original = bytes[i];
                for b in 0..=255u8 {
                    bytes[i] = b;
                    check(&bytes);
                }
                bytes[i] = original;
            }
        }
    }

    #[test]
    fn generator_export_import_roundtrip() {
        use crate::{presets, TraceGen};
        let mut gen = TraceGen::new(presets::by_name("omnetpp").unwrap(), 5);
        let records: Vec<_> = (0..500).map(|_| gen.next_record()).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let replay = ReplayTrace::from_reader(&buf[..]).unwrap();
        assert_eq!(replay.len(), 500);
    }
}
