//! Zero-delay combinational semantics of a single configured NAND block
//! (Fig. 7), written straight from the figure: the oracle that
//! `properties.rs` holds `elaborate`'s gate netlist to. The fabric's
//! production view of a block is that elaborated netlist on the event
//! engine; this model shares no code with it.
//!
//! Product-line semantics per crosspoint mode:
//!
//! * `Active`   — the column's value participates in the AND,
//! * `StuckOn`  — the leaf conducts unconditionally: contributes logic 1,
//! * `StuckOff` — the leaf breaks the line: the product is forced low, so
//!   the NAND output is forced **high** (a killed term).
//!
//! A term whose crosspoints are *all* `StuckOn` NANDs an empty product:
//! output 0 (the Fig. 4 `ConstZero` row).

use polymorphic_hw::prelude::*;

/// Result of evaluating one block combinationally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockEval {
    /// Raw product-line (NAND) values before the output drivers.
    pub terms: [Logic; LANES],
    /// Driver outputs onto the output-edge lanes; `Z` where the driver is
    /// off or redirected to an lfb line.
    pub edge_out: [Logic; LANES],
    /// Driver outputs onto the alternate-edge lanes (`Z` where unused).
    pub alt_out: [Logic; LANES],
    /// Values driven onto the two local feedback lines (`Z` if undriven).
    pub lfb_out: [Logic; 2],
}

/// Resolve the value feeding input column `c`.
pub fn column_value(
    cfg: &BlockConfig,
    c: usize,
    edge_in: &[Logic; LANES],
    lfb: &[Logic; 2],
) -> Logic {
    match cfg.inputs[c] {
        InputSource::EdgeLane => edge_in[c],
        InputSource::Lfb0 => lfb[0],
        InputSource::Lfb1 => lfb[1],
        InputSource::One => Logic::L1,
    }
}

/// Evaluate product line `t` given resolved column values.
pub fn eval_term(cfg: &BlockConfig, t: usize, columns: &[Logic; LANES]) -> Logic {
    let mut acc = Logic::L1;
    for (mode, &column) in cfg.crosspoints[t].iter().zip(columns) {
        match mode {
            CellMode::StuckOff => return Logic::L1, // killed term
            CellMode::StuckOn => {}
            CellMode::Active => acc = acc.and(column),
        }
    }
    acc.not()
}

/// Apply output driver `t` to its term value.
pub fn drive(cfg: &BlockConfig, t: usize, term: Logic) -> Logic {
    match cfg.drivers[t] {
        OutMode::Off => Logic::Z,
        OutMode::Inv => term.not(),
        OutMode::Buf | OutMode::Pass => term.input(),
    }
}

/// Combinationally evaluate the whole block for one set of input-edge
/// lane values and current lfb values.
pub fn eval(cfg: &BlockConfig, edge_in: &[Logic; LANES], lfb: &[Logic; 2]) -> BlockEval {
    let columns: [Logic; LANES] = std::array::from_fn(|c| column_value(cfg, c, edge_in, lfb));
    let terms: [Logic; LANES] = std::array::from_fn(|t| eval_term(cfg, t, &columns));
    let mut edge_out = [Logic::Z; LANES];
    let mut alt_out = [Logic::Z; LANES];
    let mut lfb_out = [Logic::Z; 2];
    for t in 0..LANES {
        let v = drive(cfg, t, terms[t]);
        if v == Logic::Z {
            continue;
        }
        match cfg.dests[t] {
            OutputDest::EdgeLane => edge_out[t] = v,
            OutputDest::AltEdgeLane => alt_out[t] = v,
            OutputDest::Lfb0 => lfb_out[0] = lfb_out[0].resolve(v),
            OutputDest::Lfb1 => lfb_out[1] = lfb_out[1].resolve(v),
        }
    }
    BlockEval { terms, edge_out, alt_out, lfb_out }
}

/// The model's own checks, by hand from Fig. 7.
mod tests {
    use super::*;

    fn l(bits: [u8; LANES]) -> [Logic; LANES] {
        bits.map(|b| if b == 1 { Logic::L1 } else { Logic::L0 })
    }

    const NO_LFB: [Logic; 2] = [Logic::Z, Logic::Z];

    #[test]
    fn single_term_nand() {
        let mut cfg = BlockConfig::default();
        cfg.set_term(0, &[0, 1, 2]);
        cfg.drivers[0] = OutMode::Buf;
        let out = eval(&cfg, &l([1, 1, 1, 0, 0, 0]), &NO_LFB);
        assert_eq!(out.terms[0], Logic::L0, "NAND(1,1,1)=0");
        assert_eq!(out.edge_out[0], Logic::L0);
        let out = eval(&cfg, &l([1, 0, 1, 0, 0, 0]), &NO_LFB);
        assert_eq!(out.terms[0], Logic::L1, "NAND(1,0,1)=1");
    }

    #[test]
    fn killed_term_is_high_and_undriven_lane_z() {
        let cfg = BlockConfig::default(); // all StuckOff, drivers Off
        let out = eval(&cfg, &l([1, 1, 1, 1, 1, 1]), &NO_LFB);
        assert!(out.terms.iter().all(|t| *t == Logic::L1));
        assert!(out.edge_out.iter().all(|o| *o == Logic::Z));
    }

    #[test]
    fn all_transparent_term_is_const_zero() {
        let mut cfg = BlockConfig::default();
        cfg.set_term(1, &[]); // every crosspoint StuckOn
        cfg.drivers[1] = OutMode::Buf;
        for pattern in [[0u8; 6], [1u8; 6], [1, 0, 1, 0, 1, 0]] {
            let out = eval(&cfg, &l(pattern), &NO_LFB);
            assert_eq!(out.terms[1], Logic::L0, "empty product NANDs to 0");
        }
    }

    #[test]
    fn inverting_driver_makes_and() {
        let mut cfg = BlockConfig::default();
        cfg.set_term(0, &[0, 1]);
        cfg.drivers[0] = OutMode::Inv;
        assert_eq!(eval(&cfg, &l([1, 1, 0, 0, 0, 0]), &NO_LFB).edge_out[0], Logic::L1);
        assert_eq!(eval(&cfg, &l([1, 0, 0, 0, 0, 0]), &NO_LFB).edge_out[0], Logic::L0);
    }

    #[test]
    fn input_source_one_and_lfb() {
        let mut cfg = BlockConfig::default();
        cfg.inputs[0] = InputSource::One;
        cfg.inputs[1] = InputSource::Lfb0;
        cfg.set_term(0, &[0, 1]);
        cfg.drivers[0] = OutMode::Buf;
        let out = eval(&cfg, &l([0, 0, 0, 0, 0, 0]), &[Logic::L1, Logic::Z]);
        assert_eq!(out.terms[0], Logic::L0, "NAND(1, lfb0=1) = 0");
        let out = eval(&cfg, &l([0, 0, 0, 0, 0, 0]), &[Logic::L0, Logic::Z]);
        assert_eq!(out.terms[0], Logic::L1);
    }

    #[test]
    fn driver_to_lfb_destination() {
        let mut cfg = BlockConfig::default();
        cfg.set_term(2, &[3]);
        cfg.drivers[2] = OutMode::Inv; // lfb0 = column 3
        cfg.dests[2] = OutputDest::Lfb0;
        let out = eval(&cfg, &l([0, 0, 0, 1, 0, 0]), &NO_LFB);
        assert_eq!(out.lfb_out[0], Logic::L1);
        assert_eq!(out.edge_out[2], Logic::Z, "redirected away from the lane");
    }

    #[test]
    fn two_level_sop_within_one_block_pair_shape() {
        // Terms 0,1 compute NANDs; term 2 (via lfb in a second block in
        // practice) — here just verify several terms evaluate independently.
        let mut cfg = BlockConfig::flowing(Edge::West, Edge::East);
        cfg.set_term(0, &[0, 1]);
        cfg.set_term(1, &[2, 3]);
        cfg.drivers[0] = OutMode::Buf;
        cfg.drivers[1] = OutMode::Buf;
        let out = eval(&cfg, &l([1, 1, 1, 0, 0, 0]), &NO_LFB);
        assert_eq!(out.edge_out[0], Logic::L0);
        assert_eq!(out.edge_out[1], Logic::L1);
    }
}
