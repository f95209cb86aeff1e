use crate::LINE_BYTES;

/// A 64-byte memory cacheline — the unit of all encryption, MAC and ECC
/// operations in the SYNERGY design.
///
/// On a 9-chip x8 ECC-DIMM each of the 8 data chips supplies one 8-byte
/// slice of the line per burst; [`CacheLine::chip_slice`] exposes that view,
/// which is the granularity at which chip failures corrupt data and at which
/// the RAID-3 reconstruction engine repairs it.
///
/// ```
/// use synergy_crypto::CacheLine;
///
/// let mut line = CacheLine::zeroed();
/// line.chip_slice_mut(3).copy_from_slice(&[0xAA; 8]);
/// assert_eq!(line.as_bytes()[24..32], [0xAA; 8]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine([u8; LINE_BYTES]);

impl CacheLine {
    /// Number of 8-byte chip slices in a line (the 8 data chips of an x8 DIMM).
    pub const CHIP_SLICES: usize = 8;

    /// Creates a line of all-zero bytes.
    pub fn zeroed() -> Self {
        Self([0; LINE_BYTES])
    }

    /// Creates a line from raw bytes.
    pub fn from_bytes(bytes: [u8; LINE_BYTES]) -> Self {
        Self(bytes)
    }

    /// Builds a line from eight little-endian 64-bit words.
    ///
    /// This is the layout used for counter cachelines, where each chip
    /// supplies one 64-bit field of the line.
    #[inline]
    pub fn from_words(words: [u64; 8]) -> Self {
        let mut bytes = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        Self(bytes)
    }

    /// Decomposes the line into eight little-endian 64-bit words.
    #[inline]
    pub fn to_words(&self) -> [u64; 8] {
        let mut words = [0u64; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(self.0[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        words
    }

    /// Returns the raw bytes of the line.
    pub fn as_bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// The 8-byte slice supplied by data chip `chip` (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 8`.
    pub fn chip_slice(&self, chip: usize) -> [u8; 8] {
        assert!(chip < Self::CHIP_SLICES, "chip index {chip} out of range");
        self.0[chip * 8..(chip + 1) * 8].try_into().unwrap()
    }

    /// Mutable access to the 8-byte slice supplied by data chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 8`.
    pub fn chip_slice_mut(&mut self, chip: usize) -> &mut [u8] {
        assert!(chip < Self::CHIP_SLICES, "chip index {chip} out of range");
        &mut self.0[chip * 8..(chip + 1) * 8]
    }

    /// XORs `other` into this line in place (used for pad application and
    /// parity construction).
    pub fn xor_assign(&mut self, other: &CacheLine) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a ^= b;
        }
    }

    /// Returns the XOR of two lines.
    #[must_use]
    pub fn xor(&self, other: &CacheLine) -> CacheLine {
        let mut out = *self;
        out.xor_assign(other);
        out
    }

    /// Flips a single bit of the line (bit index 0..512), returning the
    /// modified copy. Used heavily by fault-injection tests.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    #[must_use]
    pub fn with_bit_flipped(mut self, bit: usize) -> CacheLine {
        assert!(bit < LINE_BYTES * 8, "bit index {bit} out of range");
        self.0[bit / 8] ^= 1 << (bit % 8);
        self
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl From<[u8; LINE_BYTES]> for CacheLine {
    fn from(bytes: [u8; LINE_BYTES]) -> Self {
        Self::from_bytes(bytes)
    }
}

impl AsRef<[u8]> for CacheLine {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for CacheLine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CacheLine(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip() {
        let words = [1u64, 2, 3, 0xdeadbeef, u64::MAX, 0, 42, 7];
        assert_eq!(CacheLine::from_words(words).to_words(), words);
    }

    #[test]
    fn chip_slices_partition_the_line() {
        let mut bytes = [0u8; 64];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let line = CacheLine::from_bytes(bytes);
        for chip in 0..8 {
            let slice = line.chip_slice(chip);
            for (j, b) in slice.iter().enumerate() {
                assert_eq!(*b as usize, chip * 8 + j);
            }
        }
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = CacheLine::from_bytes([0x5A; 64]);
        let b = CacheLine::from_bytes([0xC3; 64]);
        assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let line = CacheLine::zeroed().with_bit_flipped(100);
        let ones: u32 = line.as_bytes().iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(line.as_bytes()[12], 1 << 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chip_slice_bounds_checked() {
        CacheLine::zeroed().chip_slice(8);
    }

    #[test]
    fn debug_is_hex() {
        let dbg = format!("{:?}", CacheLine::zeroed());
        assert!(dbg.starts_with("CacheLine(0000"));
    }
}
