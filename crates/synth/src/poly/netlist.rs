//! The polymorphic netlist: fixed NAND-cell wiring, mode-selected configs.
//!
//! A [`PolyNetlist`] is the synthesis target the paper's fabric offers: a
//! DAG of two-input configurable NAND cells (one fabric block each) whose
//! *wiring never changes* — only the per-cell back-gate bias pair does,
//! as a function of the named mode. Projecting the netlist onto one mode
//! yields a plain [`pmorph_sim::Netlist`]; equivalence of every mode
//! personality against a [`PolyTruth`] is then proven by exhaustive
//! [`pmorph_sim::bitsim`] sweeps, sharded one 64-lane word per item
//! through `pmorph-exec` (so the proof is bit-identical at any worker
//! count).

use super::truth::PolyTruth;
use pmorph_device::gates::{ConfigurableNand, NandOutput};
use pmorph_device::leaf::Trit;
use pmorph_exec::SweepConfig;
use pmorph_sim::bitsim::{sweep_truth, BitSim};
use pmorph_sim::table::WideMask;
use pmorph_sim::{Component, Logic, NetId, Netlist};
use std::sync::OnceLock;

/// The solved Fig. 4 personality table, derived once from the
/// device-level voltage solver (not hard-coded): entry `[a][b]` is the
/// function a cell realises under back-gate biases
/// `(Trit::ALL[a], Trit::ALL[b])`.
fn personality_table() -> &'static [[NandOutput; 3]; 3] {
    static TABLE: OnceLock<[[NandOutput; 3]; 3]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let gate = ConfigurableNand::default();
        let mut t = [[NandOutput::Other; 3]; 3];
        for (i, a) in Trit::ALL.into_iter().enumerate() {
            for (j, b) in Trit::ALL.into_iter().enumerate() {
                t[i][j] = gate.classify(a, b);
            }
        }
        t
    })
}

fn trit_index(t: Trit) -> usize {
    Trit::ALL.iter().position(|&x| x == t).expect("Trit::ALL is exhaustive")
}

/// The boolean personality the device-level solver certifies for a bias
/// pair (the solved Fig. 4 table).
pub fn device_personality(cfg_a: Trit, cfg_b: Trit) -> NandOutput {
    personality_table()[trit_index(cfg_a)][trit_index(cfg_b)]
}

/// The canonical back-gate bias pair realising a personality, checked
/// against the solved device table (a wrong canonical entry is a bug in
/// this table, not a recoverable condition).
pub fn config_for(p: NandOutput) -> (Trit, Trit) {
    let cfg = match p {
        NandOutput::NandAB => (Trit::Zero, Trit::Zero),
        NandOutput::NotA => (Trit::Zero, Trit::Plus),
        NandOutput::NotB => (Trit::Plus, Trit::Zero),
        NandOutput::ConstOne => (Trit::Minus, Trit::Minus),
        NandOutput::ConstZero => (Trit::Plus, Trit::Plus),
        NandOutput::Other => panic!("no bias pair realises the degenerate personality"),
    };
    debug_assert_eq!(device_personality(cfg.0, cfg.1), p, "canonical bias table out of sync");
    cfg
}

/// A wire in a [`PolyNetlist`]: a primary input or a cell output.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PNet {
    /// Primary input `x_v`.
    Input(usize),
    /// Output of cell `i`.
    Cell(usize),
}

/// One configurable NAND cell: fixed input wiring, one personality per
/// mode (stored in [`PolyTruth`] mode order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyCell {
    /// First input wire.
    pub a: PNet,
    /// Second input wire.
    pub b: PNet,
    /// Personality under each mode.
    pub personalities: Vec<NandOutput>,
}

impl PolyCell {
    /// The per-mode back-gate bias pairs — the RTD-RAM contents that
    /// select this cell's personality in each bias state.
    pub fn configs(&self) -> Vec<(Trit, Trit)> {
        self.personalities.iter().map(|&p| config_for(p)).collect()
    }

    /// True when every mode uses the same personality (the cell is plain
    /// logic, not polymorphic).
    pub fn is_uniform(&self) -> bool {
        self.personalities.iter().all(|p| *p == self.personalities[0])
    }
}

/// Verification failures of a netlist against its specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Netlist and specification disagree on arity or mode set.
    ShapeMismatch(String),
    /// The netlist failed to levelize (combinational loop — cannot
    /// happen for builder-produced DAGs, surfaced rather than unwrapped).
    Levelize(String),
    /// A swept output resolved to X or Z somewhere.
    Unresolved {
        /// Offending mode name.
        mode: String,
    },
    /// A mode personality disagrees with the specification mask.
    Mismatch {
        /// Offending mode name.
        mode: String,
        /// Number of differing minterms.
        differing: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ShapeMismatch(why) => write!(f, "shape mismatch: {why}"),
            VerifyError::Levelize(why) => write!(f, "levelize failed: {why}"),
            VerifyError::Unresolved { mode } => {
                write!(f, "mode {mode:?} left the output unresolved (X/Z)")
            }
            VerifyError::Mismatch { mode, differing } => {
                write!(f, "mode {mode:?} differs from its mask on {differing} minterm(s)")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A polymorphic circuit: shared wiring, per-mode config planes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyNetlist {
    vars: usize,
    modes: Vec<String>,
    cells: Vec<PolyCell>,
    output: PNet,
}

impl PolyNetlist {
    /// Assemble from parts. `cells` must be topologically ordered (cell
    /// `i` reads only inputs and cells `< i`) with one personality per
    /// mode each; both are builder invariants, asserted here.
    pub fn new(vars: usize, modes: Vec<String>, cells: Vec<PolyCell>, output: PNet) -> Self {
        for (i, c) in cells.iter().enumerate() {
            for w in [c.a, c.b] {
                match w {
                    PNet::Input(v) => assert!(v < vars, "cell {i} reads missing input {v}"),
                    PNet::Cell(j) => assert!(j < i, "cell {i} breaks topological order"),
                }
            }
            assert_eq!(c.personalities.len(), modes.len(), "cell {i} personality arity");
        }
        if let PNet::Cell(j) = output {
            assert!(j < cells.len(), "output references missing cell {j}");
        }
        PolyNetlist { vars, modes, cells, output }
    }

    /// Number of primary inputs.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Mode names, specification order.
    pub fn mode_names(&self) -> &[String] {
        &self.modes
    }

    /// The cells, topological order.
    pub fn cells(&self) -> &[PolyCell] {
        &self.cells
    }

    /// The output wire.
    pub fn output(&self) -> PNet {
        self.output
    }

    /// Fabric blocks consumed (one per cell).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cells whose personality actually changes across modes — the
    /// polymorphic fraction of the circuit.
    pub fn poly_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_uniform()).count()
    }

    /// Longest input→output path in cells (levels of NAND delay).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.cells.len()];
        let of = |level: &[usize], w: PNet| match w {
            PNet::Input(_) => 0,
            PNet::Cell(j) => level[j],
        };
        for i in 0..self.cells.len() {
            level[i] = 1 + of(&level, self.cells[i].a).max(of(&level, self.cells[i].b));
        }
        of(&level, self.output)
    }

    /// Stored configuration bits across all mode planes: each cell holds
    /// one bias pair per mode, each bias a three-level RTD-RAM word
    /// (2 bits as the paper's §4 accounting rounds a trit up).
    pub fn config_bits(&self) -> usize {
        self.cells.len() * self.modes.len() * 2 * 2
    }

    /// Would the circuit fit the paper's 6×6 block array?
    pub fn fits_fabric(&self, width: usize, height: usize) -> bool {
        self.cell_count() <= width * height
    }

    /// Project the circuit onto one mode: a plain simulator netlist, the
    /// input nets in variable order, and the output net. Each cell
    /// becomes the component its *device-solved* personality dictates.
    pub fn netlist_for_mode(&self, mode: usize) -> (Netlist, Vec<NetId>, NetId) {
        assert!(mode < self.modes.len(), "mode {mode} out of range");
        let mut nl = Netlist::new();
        let inputs: Vec<NetId> = (0..self.vars).map(|_| nl.add_net()).collect();
        let mut cell_nets = Vec::with_capacity(self.cells.len());
        let wire = |cell_nets: &[NetId], w: PNet| match w {
            PNet::Input(v) => inputs[v],
            PNet::Cell(j) => cell_nets[j],
        };
        for c in &self.cells {
            let out = nl.add_net();
            let (a, b) = (wire(&cell_nets, c.a), wire(&cell_nets, c.b));
            let comp = match c.personalities[mode] {
                NandOutput::NandAB => Component::Nand { inputs: vec![a, b], output: out },
                NandOutput::NotA => Component::Inv { input: a, output: out },
                NandOutput::NotB => Component::Inv { input: b, output: out },
                NandOutput::ConstOne => Component::Const { value: Logic::L1, output: out },
                NandOutput::ConstZero => Component::Const { value: Logic::L0, output: out },
                NandOutput::Other => unreachable!("builder never emits a degenerate personality"),
            };
            nl.add_comp(comp, 1);
            cell_nets.push(out);
        }
        let output = match self.output {
            PNet::Cell(j) => cell_nets[j],
            PNet::Input(v) => {
                // identity wiring still needs a driven net for the sweep
                let out = nl.add_net();
                nl.add_comp(Component::Buf { input: inputs[v], output: out }, 1);
                out
            }
        };
        (nl, inputs, output)
    }

    /// The function each mode computes, by direct mask algebra (fast,
    /// used by the synthesizer; the independent *proof* is [`Self::verify`]
    /// through the bit-parallel simulator).
    pub fn masks(&self) -> Vec<WideMask> {
        let n = self.vars;
        (0..self.modes.len())
            .map(|mode| {
                let mut cell_masks: Vec<WideMask> = Vec::with_capacity(self.cells.len());
                let of = |cell_masks: &[WideMask], w: PNet| match w {
                    PNet::Input(v) => WideMask::var(n, v),
                    PNet::Cell(j) => cell_masks[j].clone(),
                };
                for c in &self.cells {
                    let a = of(&cell_masks, c.a);
                    let b = of(&cell_masks, c.b);
                    cell_masks.push(match c.personalities[mode] {
                        NandOutput::NandAB => a.and(&b).not(),
                        NandOutput::NotA => a.not(),
                        NandOutput::NotB => b.not(),
                        NandOutput::ConstOne => WideMask::ones(n),
                        NandOutput::ConstZero => WideMask::zero(n),
                        NandOutput::Other => unreachable!("degenerate personality"),
                    });
                }
                of(&cell_masks, self.output)
            })
            .collect()
    }

    /// Prove every mode personality equivalent to the specification by
    /// exhaustive bit-parallel sweeps, sharded through `pmorph-exec`
    /// under `cfg` (deterministic at any worker count).
    pub fn verify(&self, truth: &PolyTruth, cfg: &SweepConfig) -> Result<(), VerifyError> {
        if truth.vars() != self.vars {
            return Err(VerifyError::ShapeMismatch(format!(
                "netlist has {} vars, specification {}",
                self.vars,
                truth.vars()
            )));
        }
        if truth.mode_names() != self.modes {
            return Err(VerifyError::ShapeMismatch("mode sets differ".into()));
        }
        for (m, name) in self.modes.iter().enumerate() {
            let (nl, inputs, output) = self.netlist_for_mode(m);
            let proto = BitSim::new(nl).map_err(|e| VerifyError::Levelize(format!("{e:?}")))?;
            let swept = sweep_truth(&proto, &inputs, &[output], cfg);
            let got =
                swept[0].as_ref().ok_or_else(|| VerifyError::Unresolved { mode: name.clone() })?;
            if got != truth.mask(m) {
                let differing = got.xor(truth.mask(m)).count_ones();
                return Err(VerifyError::Mismatch { mode: name.clone(), differing });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solved_device_table_matches_fig4() {
        assert_eq!(device_personality(Trit::Zero, Trit::Zero), NandOutput::NandAB);
        assert_eq!(device_personality(Trit::Zero, Trit::Plus), NandOutput::NotA);
        assert_eq!(device_personality(Trit::Plus, Trit::Zero), NandOutput::NotB);
        assert_eq!(device_personality(Trit::Minus, Trit::Minus), NandOutput::ConstOne);
        assert_eq!(device_personality(Trit::Plus, Trit::Plus), NandOutput::ConstZero);
        // every canonical pair round-trips through the voltage solver
        for p in [
            NandOutput::NandAB,
            NandOutput::NotA,
            NandOutput::NotB,
            NandOutput::ConstOne,
            NandOutput::ConstZero,
        ] {
            let (a, b) = config_for(p);
            assert_eq!(device_personality(a, b), p);
        }
    }

    /// Hand-built single cell: NAND in mode "and-world", constant 1 in
    /// mode "stuck".
    fn one_cell() -> PolyNetlist {
        PolyNetlist::new(
            2,
            vec!["and-world".into(), "stuck".into()],
            vec![PolyCell {
                a: PNet::Input(0),
                b: PNet::Input(1),
                personalities: vec![NandOutput::NandAB, NandOutput::ConstOne],
            }],
            PNet::Cell(0),
        )
    }

    #[test]
    fn mask_algebra_matches_hand_truth() {
        let nl = one_cell();
        let masks = nl.masks();
        assert_eq!(masks[0], WideMask::from_u64(2, 0b0111), "NAND personality");
        assert_eq!(masks[1], WideMask::ones(2), "stuck-one personality");
        assert_eq!(nl.poly_cell_count(), 1);
        assert_eq!(nl.depth(), 1);
        assert_eq!(nl.config_bits(), 1 * 2 * 2 * 2);
        assert!(nl.fits_fabric(6, 6));
    }

    #[test]
    fn bitsim_verification_agrees_with_masks() {
        let nl = one_cell();
        let truth = PolyTruth::new(vec![
            ("and-world".into(), WideMask::from_u64(2, 0b0111)),
            ("stuck".into(), WideMask::ones(2)),
        ])
        .unwrap();
        nl.verify(&truth, &SweepConfig::new()).expect("both personalities check out");

        // a wrong specification is caught, naming the mode
        let wrong = PolyTruth::new(vec![
            ("and-world".into(), WideMask::from_u64(2, 0b0111)),
            ("stuck".into(), WideMask::zero(2)),
        ])
        .unwrap();
        assert_eq!(
            nl.verify(&wrong, &SweepConfig::new()),
            Err(VerifyError::Mismatch { mode: "stuck".into(), differing: 4 })
        );

        // and so are shape mismatches
        let other_modes = PolyTruth::new(vec![
            ("x".into(), WideMask::from_u64(2, 0b0111)),
            ("y".into(), WideMask::ones(2)),
        ])
        .unwrap();
        assert!(matches!(
            nl.verify(&other_modes, &SweepConfig::new()),
            Err(VerifyError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn per_mode_configs_are_the_rtd_ram_contents() {
        let nl = one_cell();
        assert_eq!(
            nl.cells()[0].configs(),
            vec![(Trit::Zero, Trit::Zero), (Trit::Minus, Trit::Minus)]
        );
    }
}
