//! Per-block configuration: the 8×8 multi-valued RAM of Fig. 7.
//!
//! > "From the outside, the reconfiguration array appears as a simple
//! > (albeit multi-valued) 8×8 RAM block … each block requires 128 bits
//! > reconfiguration data."
//!
//! We honour that budget exactly. A block's configuration is 64 two-bit
//! symbols laid out as an 8×8 grid:
//!
//! ```text
//!        c=0..5           c=6            c=7
//! r=0..5 crosspoint trit  driver mode r  driver destination r
//! r=6    input source c   spare          spare
//! r=7    [0]=input edge, [1]=output edge, rest spare
//! ```
//!
//! [`BlockConfig::encode`] / [`BlockConfig::decode`] round-trip through the
//! packed 16-byte image, which is what a configuration bit-stream carries.

use pmorph_device::{CellMode, Trit};

/// Lanes per block edge — also the number of inputs, product terms and
/// outputs of a block (the paper's 6×6 NAND organisation).
pub const LANES: usize = 6;

/// Configuration bits per block (the paper's figure).
pub const CONFIG_BITS_PER_BLOCK: usize = 128;

/// Bytes in a packed block configuration image.
pub const CONFIG_BYTES_PER_BLOCK: usize = CONFIG_BITS_PER_BLOCK / 8;

/// A block edge / direction of logic flow.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Edge {
    /// −x side.
    #[default]
    West,
    /// −y side.
    North,
    /// +x side.
    East,
    /// +y side.
    South,
}

impl Edge {
    /// All edges.
    pub const ALL: [Edge; 4] = [Edge::West, Edge::North, Edge::East, Edge::South];

    /// The opposite edge.
    pub fn opposite(self) -> Edge {
        match self {
            Edge::West => Edge::East,
            Edge::North => Edge::South,
            Edge::East => Edge::West,
            Edge::South => Edge::North,
        }
    }

    fn encode(self) -> u8 {
        match self {
            Edge::West => 0,
            Edge::North => 1,
            Edge::East => 2,
            Edge::South => 3,
        }
    }

    fn decode(bits: u8) -> Edge {
        match bits & 0b11 {
            0 => Edge::West,
            1 => Edge::North,
            2 => Edge::East,
            _ => Edge::South,
        }
    }
}

/// Output-driver mode (the Fig. 5 structure, digital view).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OutMode {
    /// Open circuit: the driver decouples this block from the shared lane.
    #[default]
    Off,
    /// Inverting driver (completes NAND-NAND logic).
    Inv,
    /// Non-inverting buffer (feed-through / fan-out repair).
    Buf,
    /// Pass-transistor connection to the neighbour (fast, unbuffered).
    Pass,
}

impl OutMode {
    fn encode(self) -> u8 {
        match self {
            OutMode::Off => 0,
            OutMode::Inv => 1,
            OutMode::Buf => 2,
            OutMode::Pass => 3,
        }
    }

    fn decode(bits: u8) -> OutMode {
        match bits & 0b11 {
            0 => OutMode::Off,
            1 => OutMode::Inv,
            2 => OutMode::Buf,
            _ => OutMode::Pass,
        }
    }
}

/// Where an input column takes its value from.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum InputSource {
    /// Lane `c` of the block's input edge (abutted neighbour output).
    #[default]
    EdgeLane,
    /// Local feedback line 0.
    Lfb0,
    /// Local feedback line 1.
    Lfb1,
    /// Tied high (removes the column from products without burning a
    /// crosspoint mode).
    One,
}

impl InputSource {
    fn encode(self) -> u8 {
        match self {
            InputSource::EdgeLane => 0,
            InputSource::Lfb0 => 1,
            InputSource::Lfb1 => 2,
            InputSource::One => 3,
        }
    }

    fn decode(bits: u8) -> InputSource {
        match bits & 0b11 {
            0 => InputSource::EdgeLane,
            1 => InputSource::Lfb0,
            2 => InputSource::Lfb1,
            _ => InputSource::One,
        }
    }
}

/// Where an output driver pushes its value.
///
/// The NAND lines of Fig. 7 run the full width of the block with a
/// configurable driver at their termination; a line may therefore exit on
/// the block's main output edge or on the *alternate* output edge (used
/// e.g. by the Fig. 10 datapath, where carries ripple between cell pairs
/// while sums tap out sideways).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OutputDest {
    /// Lane `r` of the block's main output edge.
    #[default]
    EdgeLane,
    /// Local feedback line 0 (state / cascading, Fig. 8's `lfb`).
    Lfb0,
    /// Local feedback line 1.
    Lfb1,
    /// Lane `r` of the block's alternate output edge
    /// ([`BlockConfig::alt_edge`]).
    AltEdgeLane,
}

impl OutputDest {
    fn encode(self) -> u8 {
        match self {
            OutputDest::EdgeLane => 0,
            OutputDest::Lfb0 => 1,
            OutputDest::Lfb1 => 2,
            OutputDest::AltEdgeLane => 3,
        }
    }

    fn decode(bits: u8) -> OutputDest {
        match bits & 0b11 {
            0 => OutputDest::EdgeLane,
            1 => OutputDest::Lfb0,
            2 => OutputDest::Lfb1,
            _ => OutputDest::AltEdgeLane,
        }
    }
}

/// Full configuration of one NAND block — everything its 128-bit RAM holds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockConfig {
    /// `crosspoints[term][column]`: the leaf-cell mode at each of the 36
    /// crosspoints. `Active` includes the column in the term's product,
    /// `StuckOn` drops it, `StuckOff` kills the whole term (forces it 1).
    pub crosspoints: [[CellMode; LANES]; LANES],
    /// Per-term output driver mode.
    pub drivers: [OutMode; LANES],
    /// Per-term driver destination.
    pub dests: [OutputDest; LANES],
    /// Per-column input source.
    pub inputs: [InputSource; LANES],
    /// Edge whose lanes feed the input columns.
    pub input_edge: Edge,
    /// Edge whose lanes the drivers push.
    pub output_edge: Edge,
    /// Alternate output edge for [`OutputDest::AltEdgeLane`] drivers.
    pub alt_edge: Edge,
}

impl Default for BlockConfig {
    /// The power-on state: every leaf stuck-off, every driver open — the
    /// block is electrically absent, which is the safe unconfigured state.
    fn default() -> Self {
        BlockConfig {
            crosspoints: [[CellMode::StuckOff; LANES]; LANES],
            drivers: [OutMode::Off; LANES],
            dests: [OutputDest::EdgeLane; LANES],
            inputs: [InputSource::EdgeLane; LANES],
            input_edge: Edge::West,
            output_edge: Edge::East,
            alt_edge: Edge::South,
        }
    }
}

impl BlockConfig {
    /// A blank block flowing `input_edge → output_edge`.
    pub fn flowing(input_edge: Edge, output_edge: Edge) -> Self {
        BlockConfig { input_edge, output_edge, ..Self::default() }
    }

    /// True if the block drives nothing (fully dormant).
    pub fn is_dormant(&self) -> bool {
        self.drivers.iter().all(|d| *d == OutMode::Off)
    }

    /// Number of *instantiated* (non-default) leaf cells — the paper's
    /// area argument counts only cells a mapping actually uses.
    pub fn active_cells(&self) -> usize {
        let xp = self.crosspoints.iter().flatten().filter(|m| **m != CellMode::StuckOff).count();
        let dr = self.drivers.iter().filter(|d| **d != OutMode::Off).count();
        xp + dr
    }

    /// Configure term `t` as the NAND of the given columns (others dropped).
    pub fn set_term(&mut self, t: usize, columns: &[usize]) {
        for c in 0..LANES {
            self.crosspoints[t][c] =
                if columns.contains(&c) { CellMode::Active } else { CellMode::StuckOn };
        }
    }

    /// Pack into the 16-byte (128-bit) configuration image. Symbols are
    /// written row-major, 2 bits each, LSB-first within each byte.
    pub fn encode(&self) -> [u8; CONFIG_BYTES_PER_BLOCK] {
        let mut symbols = [0u8; 64];
        for r in 0..LANES {
            for c in 0..LANES {
                symbols[r * 8 + c] = self.crosspoints[r][c].to_trit().encode();
            }
            symbols[r * 8 + 6] = self.drivers[r].encode();
            symbols[r * 8 + 7] = self.dests[r].encode();
        }
        for c in 0..LANES {
            symbols[6 * 8 + c] = self.inputs[c].encode();
        }
        symbols[7 * 8] = self.input_edge.encode();
        symbols[7 * 8 + 1] = self.output_edge.encode();
        symbols[7 * 8 + 2] = self.alt_edge.encode();
        let mut bytes = [0u8; CONFIG_BYTES_PER_BLOCK];
        for (i, s) in symbols.iter().enumerate() {
            bytes[i / 4] |= (s & 0b11) << (2 * (i % 4));
        }
        bytes
    }

    /// Inverse of [`BlockConfig::encode`]. Returns `None` for images using
    /// reserved symbol values (trit `0b11`, dest `0b11`, non-zero spares).
    pub fn decode(bytes: &[u8; CONFIG_BYTES_PER_BLOCK]) -> Option<Self> {
        let sym = |i: usize| (bytes[i / 4] >> (2 * (i % 4))) & 0b11;
        let mut cfg = BlockConfig::default();
        for r in 0..LANES {
            for c in 0..LANES {
                cfg.crosspoints[r][c] = CellMode::from_trit(Trit::decode(sym(r * 8 + c))?);
            }
            cfg.drivers[r] = OutMode::decode(sym(r * 8 + 6));
            cfg.dests[r] = OutputDest::decode(sym(r * 8 + 7));
        }
        for c in 0..LANES {
            cfg.inputs[c] = InputSource::decode(sym(6 * 8 + c));
        }
        cfg.input_edge = Edge::decode(sym(7 * 8));
        cfg.output_edge = Edge::decode(sym(7 * 8 + 1));
        cfg.alt_edge = Edge::decode(sym(7 * 8 + 2));
        // Spare symbols must be zero.
        for i in [6 * 8 + 6, 6 * 8 + 7] {
            if sym(i) != 0 {
                return None;
            }
        }
        for i in 3..8 {
            if sym(7 * 8 + i) != 0 {
                return None;
            }
        }
        Some(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_exactly_128_bits() {
        assert_eq!(CONFIG_BYTES_PER_BLOCK * 8, 128);
        assert_eq!(std::mem::size_of_val(&BlockConfig::default().encode()) * 8, 128);
    }

    #[test]
    fn encode_decode_round_trip_default() {
        let cfg = BlockConfig::default();
        assert_eq!(BlockConfig::decode(&cfg.encode()), Some(cfg));
    }

    #[test]
    fn encode_decode_round_trip_rich_config() {
        let mut cfg = BlockConfig::flowing(Edge::North, Edge::South);
        cfg.set_term(0, &[0, 1, 2]);
        cfg.set_term(3, &[4]);
        cfg.drivers =
            [OutMode::Inv, OutMode::Buf, OutMode::Off, OutMode::Pass, OutMode::Inv, OutMode::Off];
        cfg.dests[1] = OutputDest::Lfb0;
        cfg.dests[4] = OutputDest::Lfb1;
        cfg.inputs[5] = InputSource::Lfb1;
        cfg.inputs[2] = InputSource::One;
        assert_eq!(BlockConfig::decode(&cfg.encode()), Some(cfg));
    }

    #[test]
    fn reserved_symbols_rejected() {
        let cfg = BlockConfig::default();
        let mut img = cfg.encode();
        // Corrupt a crosspoint symbol to the reserved trit 0b11.
        img[0] |= 0b11;
        assert_eq!(BlockConfig::decode(&img), None);
    }

    #[test]
    fn spare_symbols_rejected_when_nonzero() {
        let cfg = BlockConfig::default();
        let mut img = cfg.encode();
        // Symbol 63 (last spare) lives in byte 15, top two bits.
        img[15] |= 0b11 << 6;
        assert_eq!(BlockConfig::decode(&img), None);
    }

    #[test]
    fn set_term_marks_unused_columns_transparent() {
        let mut cfg = BlockConfig::default();
        cfg.set_term(2, &[1, 4]);
        assert_eq!(cfg.crosspoints[2][1], CellMode::Active);
        assert_eq!(cfg.crosspoints[2][4], CellMode::Active);
        assert_eq!(cfg.crosspoints[2][0], CellMode::StuckOn);
        // other terms untouched
        assert_eq!(cfg.crosspoints[0][0], CellMode::StuckOff);
    }

    #[test]
    fn active_cell_count() {
        let mut cfg = BlockConfig::default();
        assert_eq!(cfg.active_cells(), 0);
        cfg.set_term(0, &[0, 1]);
        cfg.drivers[0] = OutMode::Inv;
        // whole row becomes non-stuck-off (2 active + 4 transparent) + 1 driver
        assert_eq!(cfg.active_cells(), 7);
    }

    #[test]
    fn edge_opposites() {
        for e in Edge::ALL {
            assert_eq!(e.opposite().opposite(), e);
            assert_ne!(e.opposite(), e);
        }
    }
}
