//! The fabric: a rectangular tiling of NAND blocks with shared edge lanes.
//!
//! Every boundary between two blocks (and every perimeter edge) carries
//! [`crate::config::LANES`] shared lanes. A block's output drivers push
//! onto its configured output edge; its input columns read its configured
//! input edge. Neighbours therefore communicate **only** by abutment —
//! there are no routing channels, no switch boxes, no global wires, which
//! is the architectural bet of the paper (§4).
//!
//! [`Fabric::checkerboard_flow`] applies the default 90°-rotated pattern of
//! Fig. 8; anything else (turns, feed-throughs, fan-out) is expressed by
//! reconfiguring individual blocks.

use crate::config::{BlockConfig, Edge, CONFIG_BYTES_PER_BLOCK};

/// Magic prefix of a serialized fabric bit-stream.
pub const BITSTREAM_MAGIC: &[u8; 8] = b"PMORPH01";

/// A configured rectangular fabric of NAND blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Fabric {
    width: usize,
    height: usize,
    blocks: Vec<BlockConfig>,
}

impl Fabric {
    /// A `width × height` fabric with every block in its dormant power-on
    /// state.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "fabric must be non-empty");
        Fabric { width, height, blocks: vec![BlockConfig::default(); width * height] }
    }

    /// Grid width in blocks.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in blocks.
    pub fn height(&self) -> usize {
        self.height
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height, "block ({x},{y}) out of range");
        y * self.width + x
    }

    /// Configuration of the block at `(x, y)`.
    pub fn block(&self, x: usize, y: usize) -> &BlockConfig {
        &self.blocks[self.idx(x, y)]
    }

    /// Mutable configuration of the block at `(x, y)`.
    pub fn block_mut(&mut self, x: usize, y: usize) -> &mut BlockConfig {
        let i = self.idx(x, y);
        &mut self.blocks[i]
    }

    /// Apply the paper's Fig. 8 default orientation: blocks on even
    /// checkerboard parity flow West→East, odd parity North→South, so each
    /// block's outputs abut the inputs of its two forward neighbours.
    pub fn checkerboard_flow(&mut self) {
        for y in 0..self.height {
            for x in 0..self.width {
                let b = self.block_mut(x, y);
                if (x + y) % 2 == 0 {
                    b.input_edge = Edge::West;
                    b.output_edge = Edge::East;
                } else {
                    b.input_edge = Edge::North;
                    b.output_edge = Edge::South;
                }
            }
        }
    }

    /// Total configuration storage for the fabric (bits) — exactly
    /// 128 × blocks, the paper's budget.
    pub fn config_bits(&self) -> usize {
        self.blocks.len() * CONFIG_BYTES_PER_BLOCK * 8
    }

    /// Total *instantiated* leaf cells across the fabric (the paper's
    /// "components that are not needed … are simply not instantiated").
    pub fn active_cells(&self) -> usize {
        self.blocks.iter().map(|b| b.active_cells()).sum()
    }

    /// Number of blocks with any active configuration.
    pub fn used_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.is_dormant()).count()
    }

    /// Serialise to a configuration bit-stream: magic, u16 width, u16
    /// height, then 16 bytes per block in row-major order.
    pub fn to_bitstream(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.blocks.len() * CONFIG_BYTES_PER_BLOCK);
        out.extend_from_slice(BITSTREAM_MAGIC);
        out.extend_from_slice(&(self.width as u16).to_le_bytes());
        out.extend_from_slice(&(self.height as u16).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.encode());
        }
        out
    }

    /// Serialise with an appended CRC-32 so in-flight or in-RAM corruption
    /// of the configuration (a soft error in the multi-valued plane) is
    /// detectable before it silently reprograms logic.
    pub fn to_bitstream_checked(&self) -> Vec<u8> {
        let mut out = self.to_bitstream();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a checked bit-stream, verifying the CRC first.
    pub fn from_bitstream_checked(data: &[u8]) -> Result<Self, BitstreamError> {
        if data.len() < 16 {
            return Err(BitstreamError::BadHeader);
        }
        let (payload, tail) = data.split_at(data.len() - 4);
        let want = u32::from_le_bytes(tail.try_into().unwrap());
        let got = crc32(payload);
        if want != got {
            return Err(BitstreamError::BadChecksum { expected: want, got });
        }
        Self::from_bitstream(payload)
    }

    /// Partial-reconfiguration delta: the row-major indices and images of
    /// blocks that differ from `base`. Dynamic reconfiguration (§4.1's
    /// "especially in dynamically reconfigurable systems" \[46\]) rewrites
    /// only these, not the whole array.
    pub fn diff_bitstream(&self, base: &Fabric) -> Vec<(u32, [u8; CONFIG_BYTES_PER_BLOCK])> {
        assert_eq!(
            (self.width, self.height),
            (base.width, base.height),
            "partial reconfiguration requires identical array dimensions"
        );
        self.blocks
            .iter()
            .zip(base.blocks.iter())
            .enumerate()
            .filter(|(_, (new, old))| new != old)
            .map(|(i, (new, _))| (i as u32, new.encode()))
            .collect()
    }

    /// Apply a partial-reconfiguration delta in place.
    pub fn apply_partial(
        &mut self,
        delta: &[(u32, [u8; CONFIG_BYTES_PER_BLOCK])],
    ) -> Result<(), BitstreamError> {
        for (idx, img) in delta {
            let i = *idx as usize;
            if i >= self.blocks.len() {
                return Err(BitstreamError::BadHeader);
            }
            self.blocks[i] =
                BlockConfig::decode(img).ok_or(BitstreamError::ReservedSymbol { block: i })?;
        }
        Ok(())
    }

    /// Parse a bit-stream produced by [`Fabric::to_bitstream`].
    pub fn from_bitstream(data: &[u8]) -> Result<Self, BitstreamError> {
        if data.len() < 12 || &data[..8] != BITSTREAM_MAGIC {
            return Err(BitstreamError::BadHeader);
        }
        let width = u16::from_le_bytes([data[8], data[9]]) as usize;
        let height = u16::from_le_bytes([data[10], data[11]]) as usize;
        if width == 0 || height == 0 {
            return Err(BitstreamError::BadHeader);
        }
        let need = 12 + width * height * CONFIG_BYTES_PER_BLOCK;
        if data.len() != need {
            return Err(BitstreamError::BadLength { expected: need, got: data.len() });
        }
        let mut blocks = Vec::with_capacity(width * height);
        for i in 0..width * height {
            let start = 12 + i * CONFIG_BYTES_PER_BLOCK;
            let img: [u8; CONFIG_BYTES_PER_BLOCK] =
                data[start..start + CONFIG_BYTES_PER_BLOCK].try_into().unwrap();
            blocks.push(
                BlockConfig::decode(&img).ok_or(BitstreamError::ReservedSymbol { block: i })?,
            );
        }
        Ok(Fabric { width, height, blocks })
    }
}

/// Bit-stream parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Missing/invalid magic or zero dimensions.
    BadHeader,
    /// Payload length inconsistent with the header dimensions.
    BadLength {
        /// Expected total byte count.
        expected: usize,
        /// Actual byte count.
        got: usize,
    },
    /// A block image used a reserved symbol.
    ReservedSymbol {
        /// Row-major block index.
        block: usize,
    },
    /// Checked bit-stream failed its CRC (configuration upset).
    BadChecksum {
        /// CRC carried by the stream.
        expected: u32,
        /// CRC computed over the payload.
        got: u32,
    },
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::BadHeader => write!(f, "bad bitstream header"),
            BitstreamError::BadLength { expected, got } => {
                write!(f, "bitstream length {got}, expected {expected}")
            }
            BitstreamError::ReservedSymbol { block } => {
                write!(f, "reserved configuration symbol in block {block}")
            }
            BitstreamError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "bitstream CRC mismatch: stream says {expected:#010x}, computed {got:#010x}"
                )
            }
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected), computed bitwise — the stream is tiny.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl std::error::Error for BitstreamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutMode;

    #[test]
    fn bitstream_round_trip() {
        let mut f = Fabric::new(3, 2);
        f.checkerboard_flow();
        f.block_mut(1, 0).set_term(0, &[0, 1]);
        f.block_mut(1, 0).drivers[0] = OutMode::Inv;
        let bytes = f.to_bitstream();
        assert_eq!(bytes.len(), 12 + 6 * 16);
        assert_eq!(Fabric::from_bitstream(&bytes), Ok(f));
    }

    #[test]
    fn bitstream_rejects_corruption() {
        let f = Fabric::new(2, 2);
        let mut bytes = f.to_bitstream();
        bytes[0] = b'X';
        assert_eq!(Fabric::from_bitstream(&bytes), Err(BitstreamError::BadHeader));
        let bytes = f.to_bitstream();
        assert!(matches!(
            Fabric::from_bitstream(&bytes[..bytes.len() - 1]),
            Err(BitstreamError::BadLength { .. })
        ));
    }

    #[test]
    fn checked_bitstream_round_trip_and_detects_upsets() {
        let mut f = Fabric::new(2, 2);
        f.checkerboard_flow();
        f.block_mut(0, 1).set_term(2, &[0, 5]);
        f.block_mut(0, 1).drivers[2] = OutMode::Inv;
        let stream = f.to_bitstream_checked();
        assert_eq!(Fabric::from_bitstream_checked(&stream), Ok(f));
        // flip one configuration bit anywhere: detected
        for byte in [12usize, 20, 40, stream.len() - 5] {
            let mut hit = stream.clone();
            hit[byte] ^= 0x10;
            assert!(
                matches!(
                    Fabric::from_bitstream_checked(&hit),
                    Err(BitstreamError::BadChecksum { .. })
                ),
                "upset at byte {byte} must be caught"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926, the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn config_bits_budget() {
        let f = Fabric::new(4, 4);
        assert_eq!(f.config_bits(), 16 * 128);
    }

    #[test]
    fn partial_reconfiguration_round_trip() {
        let mut base = Fabric::new(4, 4);
        base.checkerboard_flow();
        let mut modified = base.clone();
        modified.block_mut(2, 1).set_term(0, &[0, 1]);
        modified.block_mut(2, 1).drivers[0] = OutMode::Buf;
        modified.block_mut(0, 3).set_term(5, &[4]);
        modified.block_mut(0, 3).drivers[5] = OutMode::Inv;
        let delta = modified.diff_bitstream(&base);
        assert_eq!(delta.len(), 2, "only the touched blocks ship");
        let mut patched = base.clone();
        patched.apply_partial(&delta).unwrap();
        assert_eq!(patched, modified);
        // idempotent and empty for identical fabrics
        assert!(modified.diff_bitstream(&patched).is_empty());
    }

    #[test]
    fn partial_reconfiguration_rejects_bad_targets() {
        let base = Fabric::new(2, 2);
        let mut f = base.clone();
        assert_eq!(
            f.apply_partial(&[(99, base.block(0, 0).encode())]),
            Err(BitstreamError::BadHeader)
        );
        let mut img = base.block(0, 0).encode();
        img[0] |= 0b11; // reserved trit
        assert!(matches!(
            f.apply_partial(&[(0, img)]),
            Err(BitstreamError::ReservedSymbol { block: 0 })
        ));
    }

    #[test]
    fn checkerboard_orientations() {
        let mut f = Fabric::new(2, 2);
        f.checkerboard_flow();
        assert_eq!(f.block(0, 0).output_edge, Edge::East);
        assert_eq!(f.block(1, 0).output_edge, Edge::South);
        assert_eq!(f.block(0, 1).output_edge, Edge::South);
        assert_eq!(f.block(1, 1).output_edge, Edge::East);
    }

    #[test]
    fn dormant_fabric_has_no_active_cells() {
        let f = Fabric::new(8, 8);
        assert_eq!(f.active_cells(), 0);
        assert_eq!(f.used_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        let f = Fabric::new(2, 2);
        let _ = f.block(2, 0);
    }
}
