//! Asynchronous state-machine synthesis (paper §4.1).
//!
//! > "In common with most asynchronous logic building blocks, both the
//! > C-element and the pipeline registers can be described in terms of
//! > small asynchronous state machines of a form that is directly
//! > supported by the array organization."
//!
//! This module mechanises that remark: a **fundamental-mode ASM compiler**
//! for single-state-bit machines with up to three inputs. Given the
//! next-state function `Y(x, y)` it
//!
//! 1. decomposes into set/reset functions `S(x) = Y(x, y=0)` and
//!    `R(x) = Ȳ(x, y=1)` (rejecting specs with `S·R ≠ 0`, which would
//!    oscillate),
//! 2. derives **hazard-free** covers for both (via `pmorph-synth`'s
//!    consensus repair),
//! 3. maps them onto four fabric blocks: polarity rails → product terms →
//!    S̄/R̄ combine → a cross-coupled NAND core closed through `lfb`.
//!
//! The C-element, SR latch and transparent D latch all fall out as
//! instances — the tests compile each from its truth table and check it
//! against the hand-built tiles.

use pmorph_core::{BlockConfig, Edge, Fabric, InputSource, OutMode, OutputDest};
use pmorph_sim::table::WideMask;
use pmorph_synth::hazard::hazard_free_cover;
use pmorph_synth::qm::Sop;
use pmorph_synth::tile::{ft, ft_inv, MapError, PortLoc};

/// Why a specification cannot be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmError {
    /// `S(x)·R(x) ≠ 0` at the given input minterm: the machine would
    /// oscillate there (no stable state).
    Unstable {
        /// Offending input assignment.
        input_minterm: u64,
    },
    /// Too many inputs (≤ 3 supported) or product terms (≤ 6 per block).
    Map(MapError),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::Unstable { input_minterm } => {
                write!(f, "spec oscillates at input {input_minterm:b} (set and reset both active)")
            }
            AsmError::Map(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<MapError> for AsmError {
    fn from(e: MapError) -> Self {
        AsmError::Map(e)
    }
}

/// A compiled specification, before placement.
#[derive(Clone, Debug)]
pub struct AsmSpec {
    /// Input count (state variable excluded).
    pub n_inputs: usize,
    /// Hazard-free set cover over the inputs.
    pub set_cover: Sop,
    /// Hazard-free reset cover over the inputs.
    pub reset_cover: Sop,
}

impl AsmSpec {
    /// Analyse a next-state function `Y` over variables
    /// `(x_0, …, x_{k-1}, y)` — the state variable **must be the last
    /// (highest) variable**.
    pub fn from_next_state(next: &WideMask) -> Result<Self, AsmError> {
        assert!(next.vars() >= 1, "need at least the state variable");
        let k = next.vars() - 1;
        assert!(k <= 3, "at most 3 inputs");
        let y_var = k;
        let s = next.cofactor(y_var, false); // Y with y = 0
        let y1 = next.cofactor(y_var, true); // Y with y = 1
        let r = y1.not();
        // stability: set and reset must never fire together
        for m in 0..(1u64 << k) {
            if s.get(m) && r.get(m) {
                return Err(AsmError::Unstable { input_minterm: m });
            }
        }
        Ok(AsmSpec {
            n_inputs: k,
            set_cover: hazard_free_cover(&s),
            reset_cover: hazard_free_cover(&r),
        })
    }

    /// The machine's fixed-point semantics for one input assignment:
    /// `Some(v)` forces state `v`, `None` holds the present state.
    pub fn reaction(&self, input_minterm: u64) -> Option<bool> {
        if self.set_cover.eval(input_minterm) {
            Some(true)
        } else if self.reset_cover.eval(input_minterm) {
            Some(false)
        } else {
            None
        }
    }
}

/// Ports of a compiled-and-placed ASM (4 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmPorts {
    /// Input ports (west of the polarity block, lanes `0..k`).
    pub inputs: Vec<PortLoc>,
    /// State output.
    pub q: PortLoc,
    /// Complement output.
    pub qn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Compile and place an ASM at `(x, y)`: polarity, products, combine, SR
/// core — four blocks flowing W→E.
pub fn synth_asm(
    fabric: &mut Fabric,
    x: usize,
    y: usize,
    spec: &AsmSpec,
) -> Result<AsmPorts, AsmError> {
    let n_set = spec.set_cover.cubes.len();
    let n_reset = spec.reset_cover.cubes.len();
    if n_set + n_reset > 6 {
        return Err(MapError::TooManyTerms { needed: n_set + n_reset, available: 6 }.into());
    }
    if x + 3 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom.into());
    }
    // Block A: polarity rails x_v / x̄_v on lanes 2v / 2v+1.
    {
        let b = fabric.block_mut(x, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        for v in 0..spec.n_inputs {
            ft(b, 2 * v, v);
            ft_inv(b, 2 * v + 1, v);
        }
    }
    // Block B: one NAND term per cube; set cubes on lanes 0.., reset cubes
    // after them.
    {
        let b = fabric.block_mut(x + 1, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        for (t, cube) in
            spec.set_cover.cubes.iter().chain(spec.reset_cover.cubes.iter()).enumerate()
        {
            let cols: Vec<usize> = cube
                .literal_list()
                .into_iter()
                .map(|(v, pos)| if pos { 2 * v } else { 2 * v + 1 })
                .collect();
            b.set_term(t, &cols);
            b.drivers[t] = OutMode::Buf;
        }
    }
    // Block C: S̄ = Inv(NAND(set-cube lanes)), R̄ = Inv(NAND(reset lanes)).
    {
        let b = fabric.block_mut(x + 2, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        let set_cols: Vec<usize> = (0..n_set).collect();
        let reset_cols: Vec<usize> = (n_set..n_set + n_reset).collect();
        b.set_term(0, &set_cols);
        b.drivers[0] = OutMode::Inv; // lane0 = S̄
        b.set_term(1, &reset_cols);
        b.drivers[1] = OutMode::Inv; // lane1 = R̄
    }
    // Block D: SR-NAND core on lfb, buffered outputs.
    {
        let b = fabric.block_mut(x + 3, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.inputs[2] = InputSource::Lfb0; // q
        b.inputs[3] = InputSource::Lfb1; // q̄
        b.set_term(0, &[0, 3]); // q = (S̄·q̄)'
        b.drivers[0] = OutMode::Buf;
        b.dests[0] = OutputDest::Lfb0;
        b.set_term(1, &[1, 2]); // q̄ = (R̄·q)'
        b.drivers[1] = OutMode::Buf;
        b.dests[1] = OutputDest::Lfb1;
        ft(b, 2, 2); // lane2 = q
        ft(b, 3, 3); // lane3 = q̄
    }
    Ok(AsmPorts {
        inputs: (0..spec.n_inputs).map(|v| PortLoc::new(x, y, Edge::West, v)).collect(),
        q: PortLoc::new(x + 3, y, Edge::East, 2),
        qn: PortLoc::new(x + 3, y, Edge::East, 3),
        footprint: (0..4).map(|i| (x + i, y)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;

    const SETTLE: u64 = 5_000_000;

    /// Next-state truth table of a Muller C-element:
    /// `Y = a·b + a·y + b·y` with vars (a, b, y).
    fn c_element_spec() -> WideMask {
        WideMask::from_fn(3, |m| {
            let (a, b, y) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            // the canonical majority form — keep the three consensus terms
            // spelled out as in the paper's C-element equation
            #[allow(clippy::nonminimal_bool)]
            {
                (a && b) || (a && y) || (b && y)
            }
        })
    }

    /// Transparent-high D latch: `Y = en·d + ēn·y` with vars (d, en, y).
    fn d_latch_spec() -> WideMask {
        WideMask::from_fn(3, |m| {
            let (d, en, y) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            if en {
                d
            } else {
                y
            }
        })
    }

    /// Drive a compiled machine through an input sequence and compare with
    /// the spec's fixed-point semantics.
    fn check_machine(next: &WideMask, sequence: &[u64]) {
        let spec = AsmSpec::from_next_state(next).expect("stable spec");
        let mut fabric = Fabric::new(4, 1);
        let ports = synth_asm(&mut fabric, 0, 0, &spec).expect("compiles");
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        // initialise into a known state: find a reset input, else drive 0s
        let reset_input =
            (0..(1u64 << spec.n_inputs)).find(|&m| spec.reaction(m) == Some(false)).unwrap_or(0);
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(reset_input >> v & 1 == 1));
        }
        sim.settle(SETTLE).unwrap();
        let mut model = spec.reaction(reset_input);
        for &m in sequence {
            for (v, p) in ports.inputs.iter().enumerate() {
                sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
            sim.settle(SETTLE).unwrap();
            if let Some(forced) = spec.reaction(m) {
                model = Some(forced);
            }
            if let Some(expect) = model {
                assert_eq!(
                    sim.value(ports.q.net(&elab)),
                    Logic::from_bool(expect),
                    "input {m:b} of {sequence:?}"
                );
                assert_eq!(
                    sim.value(ports.qn.net(&elab)),
                    Logic::from_bool(!expect),
                    "complement at input {m:b}"
                );
            }
        }
    }

    #[test]
    fn compiles_c_element_set_reset_decomposition() {
        let spec = AsmSpec::from_next_state(&c_element_spec()).unwrap();
        // S = a·b, R = ā·b̄ — one cube each
        assert_eq!(spec.set_cover.cubes.len(), 1);
        assert_eq!(spec.reset_cover.cubes.len(), 1);
        assert_eq!(spec.reaction(0b11), Some(true));
        assert_eq!(spec.reaction(0b00), Some(false));
        assert_eq!(spec.reaction(0b01), None, "mixed holds");
    }

    #[test]
    fn compiled_c_element_behaves() {
        check_machine(&c_element_spec(), &[0b01, 0b11, 0b10, 0b00, 0b10, 0b11, 0b01, 0b00]);
    }

    #[test]
    fn compiled_d_latch_behaves() {
        // (d, en): latch follows d while en=1, holds while en=0
        check_machine(&d_latch_spec(), &[0b11, 0b01, 0b00, 0b01, 0b11, 0b10, 0b00, 0b10]);
    }

    #[test]
    fn sr_latch_via_compiler() {
        // Y = s + r̄·y over (s, r, y)
        let next = WideMask::from_fn(3, |m| {
            let (s, r, y) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            s || (!r && y)
        });
        // forbidden input s=r=1 *is* stable here (set dominates), so the
        // spec compiles; check the dominance.
        let spec = AsmSpec::from_next_state(&next).unwrap();
        assert_eq!(spec.reaction(0b11), Some(true), "set-dominant");
        check_machine(&next, &[0b01, 0b00, 0b10, 0b00, 0b01, 0b00]);
    }

    #[test]
    fn oscillating_spec_rejected() {
        // Y = ȳ (an inverter fed back): oscillates for every input.
        let next = WideMask::from_fn(1, |m| m & 1 == 0);
        assert!(matches!(
            AsmSpec::from_next_state(&next),
            Err(AsmError::Unstable { input_minterm: 0 })
        ));
    }

    #[test]
    fn random_valid_specs_compile_and_behave() {
        let mut rng = StdRng::seed_from_u64(0xA5A5);
        let mut tested = 0;
        while tested < 6 {
            let next = WideMask::from_u64(3, rng.random::<u64>());
            let Ok(spec) = AsmSpec::from_next_state(&next) else { continue };
            if spec.set_cover.cubes.len() + spec.reset_cover.cubes.len() > 6 {
                continue;
            }
            // machine must have at least one forcing input to initialise
            if (0..4).all(|m| spec.reaction(m).is_none()) {
                continue;
            }
            let seq: Vec<u64> = (0..10).map(|_| rng.random_range(0u64..4)).collect();
            check_machine(&next, &seq);
            tested += 1;
        }
    }

    #[test]
    fn three_input_machine_compiles() {
        // 3-input majority-vote C-element: Y = maj(a,b,c) set / all-low reset
        let next = WideMask::from_fn(4, |m| {
            let ones = (m & 0b111).count_ones();
            let y = m >> 3 & 1 == 1;
            match ones {
                3 => true,
                0 => false,
                2 => true, // majority high sets
                _ => y,    // one high holds
            }
        });
        let spec = AsmSpec::from_next_state(&next).unwrap();
        let mut fabric = Fabric::new(4, 1);
        let ports = synth_asm(&mut fabric, 0, 0, &spec).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        let drive = |sim: &mut Simulator, m: u64| {
            for (v, p) in ports.inputs.iter().enumerate() {
                sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
        };
        drive(&mut sim, 0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(ports.q.net(&elab)), Logic::L0);
        drive(&mut sim, 0b011);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(ports.q.net(&elab)), Logic::L1, "2-of-3 sets");
        drive(&mut sim, 0b001);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(ports.q.net(&elab)), Logic::L1, "1-of-3 holds");
        drive(&mut sim, 0b000);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(ports.q.net(&elab)), Logic::L0, "all-low resets");
    }
}
