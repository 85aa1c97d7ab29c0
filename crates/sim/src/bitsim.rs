//! 64-lane bit-parallel levelized evaluation.
//!
//! The scalar levelized evaluator (`crate::levelized`) walks one input
//! assignment at a time; exhaustive characterization of an `n`-input
//! circuit pays `2^n` full passes. This module is the batched-SIMD shape
//! of the same computation: 64 assignments are packed into one machine
//! word, four-valued [`Logic`](crate::Logic) is encoded as **two bit planes** per net —
//!
//! * `val`   — bit `l` is the lane-`l` value (meaningful only when known),
//! * `known` — bit `l` set iff lane `l` is a definite `0`/`1`
//!   (`X` and `Z` both clear it — gate inputs treat them identically),
//!
//! and every levelized component is evaluated **once per word** with pure
//! bitwise ops (Kleene strong logic on the planes). Unknown lanes keep
//! `val = 0`, so planes are canonical and word-compare directly.
//!
//! [`sweep_truth`] drives the kernel through the sharded exec engine with
//! **whole words as shard items**: each item's planes depend only on the
//! word index (determinism contract rule 1), so masks are bit-identical
//! at any worker count or shard geometry. Its oracles are the scalar
//! levelized sweep (`vectors::exhaustive_truth_levelized`) and a
//! test-local event-driven sweep (`tests/bitsim_differential.rs`).

use crate::levelized::{LevelizeError, Levelized};
use crate::netlist::{Component, NetId, Netlist};
use crate::table::WideMask;
use pmorph_exec::{sweep, SweepConfig};

/// A compiled bit-parallel evaluator: the levelized component order plus
/// one `(val, known)` plane pair per net. Cloning is cheap relative to
/// levelization and is how the sharded sweep builds per-worker instances.
#[derive(Clone, Debug)]
pub struct BitSim {
    netlist: Netlist,
    /// Component indices in topological order.
    order: Vec<u32>,
    /// Output net of each ordered component.
    out_net: Vec<u32>,
    /// Value plane per net (lane `l` = assignment `base + l`).
    val: Vec<u64>,
    /// Known plane per net (`0` ⇒ `X`/`Z` in that lane).
    known: Vec<u64>,
}

impl BitSim {
    /// Compile a pure-combinational netlist. Accepts exactly the netlists
    /// [`Levelized`] accepts (gates, buffers, constants; single-driver,
    /// acyclic).
    pub fn new(netlist: Netlist) -> Result<Self, LevelizeError> {
        let lev = Levelized::new(netlist)?;
        let nets = lev.netlist.net_count();
        Ok(BitSim {
            netlist: lev.netlist,
            order: lev.order,
            out_net: lev.out_net,
            val: vec![0; nets],
            known: vec![0; nets],
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Evaluate one 64-assignment word: lane `l` carries input assignment
    /// `64·word + l`, with input `i`'s plane taken from
    /// [`WideMask::var_plane`]. Nets not listed in `inputs` start unknown,
    /// exactly like the scalar evaluator's `X` fill.
    pub fn eval_word(&mut self, inputs: &[NetId], word: usize) {
        self.val.fill(0);
        self.known.fill(0);
        for (i, &inp) in inputs.iter().enumerate() {
            self.val[inp.0 as usize] = WideMask::var_plane(i, word);
            self.known[inp.0 as usize] = u64::MAX;
        }
        self.run_cone();
    }

    /// Evaluate one word of 64 *arbitrary* lane assignments: each entry
    /// binds a net to explicit `(val, known)` planes — lanes with the
    /// `known` bit clear read `X`, exactly like an unlisted net. This is
    /// the vector-list shape of [`BitSim::eval_word`]: 64 unrelated
    /// stimulus vectors per pass instead of 64 consecutive assignments of
    /// an exhaustive enumeration (fig10's random adder vectors ride this).
    pub fn eval_planes(&mut self, inputs: &[(NetId, u64, u64)]) {
        self.val.fill(0);
        self.known.fill(0);
        for &(net, v, k) in inputs {
            // canonical planes: unknown lanes hold val = 0
            self.val[net.0 as usize] = v & k;
            self.known[net.0 as usize] = k;
        }
        self.run_cone();
    }

    /// One pass over the levelized component order against the currently
    /// loaded input planes.
    #[inline]
    fn run_cone(&mut self) {
        for (k, &c) in self.order.iter().enumerate() {
            let (v, kn) = eval_comp_word(&self.netlist.comps[c as usize], &self.val, &self.known);
            let o = self.out_net[k] as usize;
            self.val[o] = v;
            self.known[o] = kn;
        }
    }

    /// The `(val, known)` planes of a net after [`BitSim::eval_word`].
    pub fn plane(&self, net: NetId) -> (u64, u64) {
        (self.val[net.0 as usize], self.known[net.0 as usize])
    }
}

/// Kleene strong-logic evaluation of one combinational component over two
/// bit planes. Matches [`crate::logic::Logic`]'s scalar tables lane for
/// lane: `0` dominates AND, `1` dominates OR, XOR is unknown unless every
/// input is definite.
#[inline]
fn eval_comp_word(comp: &Component, val: &[u64], known: &[u64]) -> (u64, u64) {
    #[inline]
    fn rd(val: &[u64], known: &[u64], n: NetId) -> (u64, u64) {
        (val[n.0 as usize], known[n.0 as usize])
    }
    // AND-family accumulator: `all1` lanes where every input so far is a
    // definite 1, `any0` lanes where some input is a definite 0.
    #[inline]
    fn and_planes(inputs: &[NetId], val: &[u64], known: &[u64]) -> (u64, u64) {
        let (mut all1, mut any0) = (u64::MAX, 0u64);
        for &n in inputs {
            let (v, k) = rd(val, known, n);
            all1 &= v & k;
            any0 |= !v & k;
        }
        (all1, any0)
    }
    // OR-family dual: `any1` / `all0`.
    #[inline]
    fn or_planes(inputs: &[NetId], val: &[u64], known: &[u64]) -> (u64, u64) {
        let (mut any1, mut all0) = (0u64, u64::MAX);
        for &n in inputs {
            let (v, k) = rd(val, known, n);
            any1 |= v & k;
            all0 &= !v & k;
        }
        (any1, all0)
    }
    match comp {
        Component::And { inputs, .. } => {
            let (all1, any0) = and_planes(inputs, val, known);
            (all1, all1 | any0)
        }
        Component::Nand { inputs, .. } => {
            let (all1, any0) = and_planes(inputs, val, known);
            (any0, all1 | any0)
        }
        Component::Or { inputs, .. } => {
            let (any1, all0) = or_planes(inputs, val, known);
            (any1, any1 | all0)
        }
        Component::Nor { inputs, .. } => {
            let (any1, all0) = or_planes(inputs, val, known);
            (all0, any1 | all0)
        }
        Component::Xor { inputs, .. } => {
            let (mut v, mut k) = (0u64, u64::MAX);
            for &n in inputs {
                let (vi, ki) = rd(val, known, n);
                v ^= vi;
                k &= ki;
            }
            (v & k, k)
        }
        Component::Inv { input, .. } => {
            let (v, k) = rd(val, known, *input);
            (!v & k, k)
        }
        Component::Buf { input, .. } => rd(val, known, *input),
        Component::Const { value, .. } => match value.to_bool() {
            Some(true) => (u64::MAX, u64::MAX),
            Some(false) => (0, u64::MAX),
            None => (0, 0), // Const X/Z: unknown in every lane
        },
        _ => unreachable!("levelization admits only combinational components"),
    }
}

/// Exhaustively characterize `outputs` over all `2^n` assignments of
/// `inputs` with the bit-parallel kernel, sharded across the exec engine
/// **one word (64 assignments) per item**. Returns, per output, the
/// multi-word truth mask, or `None` if any assignment leaves the output
/// `X`/`Z` (the same poisoning rule as the event-driven path). Lanes
/// beyond `2^n` in a partial final word are masked out of both the result
/// and the known-plane test.
///
/// Instrumented with `sim.bitsim.words` / `sim.bitsim.lane_utilization`
/// (valid lanes ÷ evaluated lanes; below 1.0 only for `n < 6`).
pub fn sweep_truth(
    proto: &BitSim,
    inputs: &[NetId],
    outputs: &[NetId],
    cfg: &SweepConfig,
) -> Vec<Option<WideMask>> {
    let n = inputs.len();
    assert!(n <= WideMask::MAX_VARS, "at most {} swept inputs", WideMask::MAX_VARS);
    let words = WideMask::word_count(n);
    let out = sweep(
        words,
        cfg,
        || proto.clone(),
        |sim, w| {
            sim.eval_word(inputs, w);
            outputs.iter().map(|&o| sim.plane(o)).collect::<Vec<(u64, u64)>>()
        },
    );
    let masks = fold_word_planes(n, outputs.len(), &out);
    let utilization = (1u64 << n) as f64 / (words as f64 * 64.0);
    pmorph_obs::gauge!("sim.bitsim.lane_utilization").set(utilization);
    pmorph_obs::trace::counter("sim.bitsim.lane_utilization", utilization);
    masks
}

/// One compiled flip-flop of a [`SeqBitSim`]: the nets its state planes
/// sample (D, optional active-low reset) and publish (Q).
#[derive(Clone, Debug)]
struct SeqDff {
    d: NetId,
    q: NetId,
    reset_n: Option<NetId>,
}

impl SeqDff {
    /// Lanes in reset: those whose `reset_n` input plane is a *definite
    /// 0*. `X`/`Z` on `reset_n` does not reset — same rule as the scalar
    /// `Dff` evaluation.
    #[inline]
    fn reset_lanes(&self, in_val: &[u64], in_known: &[u64]) -> u64 {
        self.reset_n.map_or(0, |r| in_known[r.0 as usize] & !in_val[r.0 as usize])
    }
}

/// A lane-parallel register-state snapshot: one `(val, known)` plane pair
/// per flip-flop, captured by [`SeqBitSim::snapshot_state`] and replayed
/// by [`SeqBitSim::restore_state`]. All 64 lanes are saved and restored
/// together; restore ≡ never-diverged, exactly like the event engine's
/// `SimSnapshot` contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqState(Vec<(u64, u64)>);

/// 64-lane bit-parallel *sequential* evaluation: the combinational kernel
/// of [`BitSim`] extended with lane-parallel flip-flop state planes.
///
/// The netlist's D flip-flops are compiled out of the levelized cone —
/// each Q net becomes a plane *source* (like a primary input) and each D
/// net a plane *sink* — and every flip-flop carries one `(val, known)`
/// u64 pair of state planes, so 64 independent stimulus lanes step
/// through the registered circuit per word. Clocking is **virtual**: all
/// flip-flops share one implied clock whose rising edge *is* the
/// [`SeqBitSim::step_cycle`] call. A cycle therefore means: settle the
/// combinational cone against the held input planes and current register
/// planes, then commit every register's next-state plane **atomically**
/// (all captures read pre-edge D values — register-to-register paths
/// cannot race, matching the event engine where capture happens at the
/// edge and Q propagates one gate delay later).
///
/// Per-lane semantics mirror the event-driven [`Component::Dff`] exactly:
///
/// * **async reset** — lanes whose `reset_n` plane is definite-0 read
///   `Q = 0` during evaluation and commit `0` at the edge; lanes where
///   `reset_n` is `X`/`Z` do *not* reset (they fall through to capture),
/// * **X-at-power-on** — [`SeqBitSim::power_on_lanes`] clears selected
///   lanes of every register to unknown; a lane's state stays `X` until
///   a definite D capture or an asserted reset makes it definite (fresh
///   construction seeds the planes from each flip-flop's declared initial
///   state, matching `Simulator::new` on the same netlist),
/// * the clock nets are excluded from the input set; gated clocks,
///   logic-driven resets, clocks feeding logic, and any other stateful
///   kind are rejected at compile time with an error naming the offender.
#[derive(Clone, Debug)]
pub struct SeqBitSim {
    /// The compiled combinational cone (flip-flops and clock generators
    /// stripped; their Q/output nets left undriven as plane sources).
    sim: BitSim,
    dffs: Vec<SeqDff>,
    /// Per-flip-flop `(val, known)` state planes, committed at each edge.
    state: Vec<(u64, u64)>,
    /// State planes at construction (each flip-flop's declared initial
    /// value in every lane), for [`SeqBitSim::reset_to_initial`].
    initial: Vec<(u64, u64)>,
    /// Held external input planes (persist across cycles).
    in_val: Vec<u64>,
    in_known: Vec<u64>,
    input_nets: Vec<NetId>,
    clock_nets: Vec<NetId>,
    /// Inputs or restored state changed since the last cone settle.
    dirty: bool,
}

impl SeqBitSim {
    /// Compile a clocked-sequential netlist: combinational gates plus D
    /// flip-flops, with every flip-flop clock either an undriven net or
    /// the output of a free-running `Clock` generator (the edge schedule
    /// is virtualized away — `step_cycle` is the common rising edge), and
    /// every `reset_n` an undriven primary input. Anything else — latches,
    /// tri-states, C-elements, arbiters, stimulus players, gated clocks,
    /// computed resets, clocks feeding logic — is rejected with an error
    /// naming the offending component kind or control net.
    pub fn new(netlist: Netlist) -> Result<Self, LevelizeError> {
        let mut dffs = Vec::new();
        let mut initial = Vec::new();
        let mut clock_set: Vec<NetId> = Vec::new();
        for comp in &netlist.comps {
            match comp {
                Component::Nand { .. }
                | Component::Nor { .. }
                | Component::And { .. }
                | Component::Or { .. }
                | Component::Xor { .. }
                | Component::Inv { .. }
                | Component::Buf { .. }
                | Component::Const { .. } => {}
                Component::Dff { d, clk, reset_n, q, state, .. } => {
                    dffs.push(SeqDff { d: *d, q: *q, reset_n: *reset_n });
                    initial.push(match state.to_bool() {
                        Some(true) => (u64::MAX, u64::MAX),
                        Some(false) => (0, u64::MAX),
                        None => (0, 0),
                    });
                    clock_set.push(*clk);
                }
                Component::Clock { output, .. } => clock_set.push(*output),
                other => return Err(LevelizeError::NotCombinational(other.kind_name())),
            }
        }
        clock_set.sort_unstable();
        clock_set.dedup();

        // Control-net topology checks against the *original* connectivity.
        let conn = netlist.connectivity();
        for comp in &netlist.comps {
            if let Component::Dff { clk, reset_n, q, .. } = comp {
                let clocked_ok = conn
                    .drivers(*clk)
                    .iter()
                    .all(|p| matches!(netlist.comps[p.comp.0 as usize], Component::Clock { .. }));
                if !clocked_ok {
                    return Err(LevelizeError::DrivenControl("clock", *clk));
                }
                if let Some(r) = reset_n {
                    if !conn.drivers(*r).is_empty() {
                        return Err(LevelizeError::DrivenControl("reset", *r));
                    }
                }
                // the flip-flop must be its Q net's only driver
                if conn.drivers(*q).len() > 1 {
                    return Err(LevelizeError::MultipleDrivers(*q));
                }
            }
        }
        // A clock level is meaningless under virtual edges: no component
        // may *read* a clock net except as a flip-flop's clock pin.
        for comp in &netlist.comps {
            let own_clk = match comp {
                Component::Dff { clk, .. } => Some(*clk),
                _ => None,
            };
            for inp in comp.inputs() {
                if Some(inp) != own_clk && clock_set.binary_search(&inp).is_ok() {
                    return Err(LevelizeError::NotCombinational("clock"));
                }
            }
        }

        // Build the combinational view: same nets, flip-flops and clock
        // generators stripped, so Q nets levelize as undriven sources.
        let nets = netlist.net_count();
        let mut comb = Netlist::new();
        for _ in 0..nets {
            comb.add_net();
        }
        for (i, comp) in netlist.comps.iter().enumerate() {
            if !matches!(comp, Component::Dff { .. } | Component::Clock { .. }) {
                comb.add_comp(comp.clone(), netlist.delays[i]);
            }
        }
        let sim = BitSim::new(comb)?;

        let input_nets: Vec<NetId> = (0..nets as u32)
            .map(NetId)
            .filter(|&n| conn.drivers(n).is_empty() && clock_set.binary_search(&n).is_err())
            .collect();
        pmorph_obs::gauge!("sim.bitsim.state_words").set(2.0 * dffs.len() as f64);
        let state = initial.clone();
        Ok(SeqBitSim {
            sim,
            dffs,
            state,
            initial,
            in_val: vec![0; nets],
            in_known: vec![0; nets],
            input_nets,
            clock_nets: clock_set,
            dirty: true,
        })
    }

    /// The primary inputs the caller may drive: undriven nets minus the
    /// (virtualized) clock nets. `reset_n` nets are listed — per-lane
    /// reset is expressed by driving their planes definite-0.
    pub fn input_nets(&self) -> &[NetId] {
        &self.input_nets
    }

    /// The virtualized clock nets (every flip-flop clock pin and clock-
    /// generator output). Driving these is meaningless — `step_cycle` is
    /// the edge.
    pub fn clock_nets(&self) -> &[NetId] {
        &self.clock_nets
    }

    /// Number of compiled flip-flops (= state plane pairs).
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Hold a 64-lane input plane on `net` (persists across cycles until
    /// overwritten). Lanes with the `known` bit clear read `X`.
    pub fn set_input(&mut self, net: NetId, val: u64, known: u64) {
        debug_assert!(
            self.input_nets.contains(&net),
            "net {net:?} is not a drivable primary input of this sequential circuit"
        );
        self.in_val[net.0 as usize] = val & known;
        self.in_known[net.0 as usize] = known;
        self.dirty = true;
    }

    /// Load one exhaustive-enumeration word onto `inputs`: input `i`'s
    /// plane is [`WideMask::var_plane`]`(i, word)` — the sequential twin
    /// of [`BitSim::eval_word`]'s input fill.
    pub fn set_input_word(&mut self, inputs: &[NetId], word: usize) {
        for (i, &inp) in inputs.iter().enumerate() {
            self.in_val[inp.0 as usize] = WideMask::var_plane(i, word);
            self.in_known[inp.0 as usize] = u64::MAX;
        }
        self.dirty = true;
    }

    /// Settle the combinational cone against the held inputs and current
    /// register planes (lanes in reset read `Q = 0` asynchronously). Net
    /// planes from [`SeqBitSim::plane`] are valid afterwards. `step_cycle`
    /// calls this as needed; it is public for edge-free (combinational)
    /// inspection between cycles.
    pub fn eval(&mut self) {
        self.sim.val.copy_from_slice(&self.in_val);
        self.sim.known.copy_from_slice(&self.in_known);
        for (i, ff) in self.dffs.iter().enumerate() {
            let (sv, sk) = self.state[i];
            let rst = ff.reset_lanes(&self.in_val, &self.in_known);
            self.sim.val[ff.q.0 as usize] = sv & !rst;
            self.sim.known[ff.q.0 as usize] = sk | rst;
        }
        self.sim.run_cone();
        self.dirty = false;
    }

    /// One virtual rising clock edge across all 64 lanes: settle the cone
    /// (if inputs or state changed), commit every register's next state
    /// atomically from the pre-edge D planes (reset lanes force definite
    /// 0), then re-settle so all net planes reflect the post-edge circuit.
    pub fn step_cycle(&mut self) {
        if self.dirty {
            self.eval();
        }
        self.edge();
        pmorph_obs::counter!("sim.bitsim.cycles").inc();
        pmorph_obs::counter!("sim.bitsim.cycles_evaluated").inc();
    }

    /// Commit one edge against the settled cone and re-settle. Returns
    /// whether any `(val, known)` register plane changed; if none did, the
    /// cone already reflects the post-edge state and is not re-run.
    fn edge(&mut self) -> bool {
        let (val, known) = (&self.sim.val, &self.sim.known);
        let mut diff = 0;
        for (ff, s) in self.dffs.iter().zip(&mut self.state) {
            let rst = ff.reset_lanes(&self.in_val, &self.in_known);
            let next = (val[ff.d.0 as usize] & !rst, known[ff.d.0 as usize] | rst);
            diff |= (next.0 ^ s.0) | (next.1 ^ s.1);
            *s = next;
        }
        let changed = diff != 0;
        if changed {
            self.eval();
        }
        changed
    }

    /// Run `n` virtual clock cycles: the same register and net planes as
    /// `n` calls of [`SeqBitSim::step_cycle`], with planes settled even
    /// for `n = 0`. With inputs held, an edge is a pure function of the
    /// register planes, so once an edge changes no `(val, known)` plane
    /// every later edge is a no-op too, and the call returns there. The
    /// cost is the edges evaluated, with a cone pass for each that changes
    /// the state: `μ + 1` edges for a state that settles after `μ`, and
    /// all `n` for one that does not settle within `n` (a toggle, a
    /// counter). `sim.bitsim.cycles` counts the `n` logical edges and
    /// `sim.bitsim.cycles_evaluated` the edges actually run.
    pub fn step_cycles(&mut self, n: usize) {
        if self.dirty {
            self.eval();
        }
        let mut evaluated = 0;
        while evaluated < n {
            evaluated += 1;
            if !self.edge() {
                break; // fixed point: every later edge is a no-op
            }
        }
        pmorph_obs::counter!("sim.bitsim.cycles").add(n as u64);
        pmorph_obs::counter!("sim.bitsim.cycles_evaluated").add(evaluated as u64);
    }

    /// The `(val, known)` planes of a net after the last settle (call
    /// [`SeqBitSim::step_cycle`] or [`SeqBitSim::eval`] first).
    pub fn plane(&self, net: NetId) -> (u64, u64) {
        debug_assert!(!self.dirty, "planes are stale: call eval() or step_cycle() first");
        self.sim.plane(net)
    }

    /// Capture all register planes (every lane at once).
    pub fn snapshot_state(&self) -> SeqState {
        SeqState(self.state.clone())
    }

    /// Restore register planes captured by [`SeqBitSim::snapshot_state`].
    /// Held input planes are untouched.
    pub fn restore_state(&mut self, snap: &SeqState) {
        assert_eq!(snap.0.len(), self.state.len(), "snapshot from a different circuit");
        self.state.copy_from_slice(&snap.0);
        self.dirty = true;
    }

    /// Rewind every register plane to its declared construction value.
    pub fn reset_to_initial(&mut self) {
        self.state.copy_from_slice(&self.initial);
        self.dirty = true;
    }

    /// Force the selected lanes of **every** register to unknown — the
    /// X-at-power-on rule, per lane: those lanes behave like a freshly
    /// powered, never-reset circuit until a definite capture or an
    /// asserted reset re-defines them. Other lanes are untouched.
    pub fn power_on_lanes(&mut self, lanes: u64) {
        for s in &mut self.state {
            s.0 &= !lanes;
            s.1 &= !lanes;
        }
        self.dirty = true;
    }
}

/// Exhaustively characterize a *registered* circuit: for each of the
/// `2^n` assignments of `inputs`, hold the assignment constant, rewind
/// the registers to the prototype's current state, clock `cycles` virtual
/// edges, and report each output's settled truth mask — or `None` if any
/// assignment leaves it `X`/`Z` (the combinational poisoning rule, cycle-
/// bounded). With `cycles = 0` the masks are the cone settled against
/// the rewound state. Sharded one word (64 assignments) per item under
/// the same determinism contract as [`sweep_truth`]: masks are
/// bit-identical at any worker count or shard geometry.
pub fn sweep_seq_truth(
    proto: &SeqBitSim,
    inputs: &[NetId],
    outputs: &[NetId],
    cycles: usize,
    cfg: &SweepConfig,
) -> Vec<Option<WideMask>> {
    let n = inputs.len();
    assert!(n <= WideMask::MAX_VARS, "at most {} swept inputs", WideMask::MAX_VARS);
    let words = WideMask::word_count(n);
    let initial = proto.snapshot_state();
    let out = sweep(
        words,
        cfg,
        || proto.clone(),
        |sim, w| {
            sim.restore_state(&initial);
            sim.set_input_word(inputs, w);
            sim.step_cycles(cycles);
            outputs.iter().map(|&o| sim.plane(o)).collect::<Vec<(u64, u64)>>()
        },
    );
    fold_word_planes(n, outputs.len(), &out)
}

/// The mask fold both exhaustive sweeps end in: word `w`'s per-output
/// `(val, known)` planes over `n` swept inputs become word `w` of each
/// output's truth mask. Lanes beyond `2^n` are masked out of both planes;
/// an `X`/`Z` lane anywhere poisons the whole output to `None`.
fn fold_word_planes(n: usize, outputs: usize, words: &[Vec<(u64, u64)>]) -> Vec<Option<WideMask>> {
    let lanes = WideMask::lane_mask(n);
    let mut masks: Vec<Option<WideMask>> = vec![Some(WideMask::zero(n)); outputs];
    for (w, planes) in words.iter().enumerate() {
        for (o, &(v, k)) in planes.iter().enumerate() {
            match masks[o].as_mut() {
                // every valid lane known: commit the word (dead lanes masked)
                Some(m) if k & lanes == lanes => m.words_mut()[w] = v & lanes,
                // an X/Z lane anywhere poisons the whole output
                _ => masks[o] = None,
            }
        }
    }
    pmorph_obs::counter!("sim.bitsim.words").add(words.len() as u64);
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::logic::Logic;

    #[test]
    fn word_eval_matches_scalar_levelized_lane_by_lane() {
        // 5-input mixed DAG evaluated both ways across every lane of the
        // (partial) word.
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..5).map(|_| b.net()).collect();
        let a = b.nand(&[ins[0], ins[1]]);
        let c = b.xor(&[a, ins[2]]);
        let d = b.or(&[c, ins[3]]);
        let e = b.and(&[d, ins[4], a]);
        let nl = b.build();
        let mut bits = BitSim::new(nl.clone()).unwrap();
        bits.eval_word(&ins, 0);
        let mut lev = Levelized::new(nl).unwrap();
        for lane in 0..32u64 {
            let bound: Vec<(NetId, Logic)> = ins
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, Logic::from_bool(lane >> i & 1 == 1)))
                .collect();
            let scalar = lev.eval(&bound)[e.0 as usize];
            let (v, k) = bits.plane(e);
            assert_eq!(k >> lane & 1, 1, "definite inputs give definite outputs");
            assert_eq!(Logic::from_bool(v >> lane & 1 == 1), scalar, "lane {lane}");
        }
    }

    #[test]
    fn unknown_propagation_matches_kleene_dominance() {
        // g = AND(x, undriven): known only where x = 0.
        let mut b = NetlistBuilder::new();
        let x = b.net();
        let u = b.net(); // never driven → X in every lane
        let g = b.and(&[x, u]);
        let h = b.or(&[x, u]);
        let nl = b.build();
        let mut bits = BitSim::new(nl).unwrap();
        bits.eval_word(&[x], 0);
        let (gv, gk) = bits.plane(g);
        // x's plane is var 0: lanes 1 (odd) carry x=1
        assert_eq!(gk, !WideMask::var_plane(0, 0), "AND known exactly where x=0");
        assert_eq!(gv, 0, "unknown and definite-0 lanes both read 0");
        let (hv, hk) = bits.plane(h);
        assert_eq!(hk, WideMask::var_plane(0, 0), "OR known exactly where x=1");
        assert_eq!(hv, WideMask::var_plane(0, 0));
    }

    #[test]
    fn const_z_is_unknown_to_gates() {
        let mut b = NetlistBuilder::new();
        let x = b.net();
        let z = b.net();
        b.constant(Logic::Z, z);
        let g = b.nand(&[x, z]);
        let nl = b.build();
        let mut bits = BitSim::new(nl).unwrap();
        bits.eval_word(&[x], 0);
        let (v, k) = bits.plane(g);
        // NAND(0, X) = 1; NAND(1, X) = X
        assert_eq!(k, !WideMask::var_plane(0, 0));
        assert_eq!(v, !WideMask::var_plane(0, 0) & k);
    }

    #[test]
    fn sweep_truth_is_geometry_independent() {
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..8).map(|_| b.net()).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = b.xor(&[acc, i]);
        }
        let nl = b.build();
        let proto = BitSim::new(nl).unwrap();
        let reference = sweep_truth(&proto, &ins, &[acc], &SweepConfig::new().with_workers(1));
        let expect = WideMask::from_fn(8, |m| m.count_ones() % 2 == 1);
        assert_eq!(reference[0].as_ref(), Some(&expect));
        for (workers, shard) in [(2usize, 1usize), (3, 2), (8, 4)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
            assert_eq!(
                sweep_truth(&proto, &ins, &[acc], &cfg),
                reference,
                "workers={workers} shard={shard}"
            );
        }
    }

    /// din → [dff q0] → [dff q1], clk undriven (virtualized).
    fn two_stage_shift() -> (Netlist, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new();
        let din = b.net();
        let clk = b.net();
        let q0 = b.net();
        let q1 = b.net();
        b.dff(din, clk, None, q0);
        b.dff(q0, clk, None, q1);
        (b.build(), din, q0, q1)
    }

    #[test]
    fn step_cycle_commits_registers_atomically() {
        let (nl, din, q0, q1) = two_stage_shift();
        let mut seq = SeqBitSim::new(nl).unwrap();
        assert_eq!(seq.dff_count(), 2);
        assert_eq!(seq.input_nets(), &[din]);
        // lanes 0..64 carry the lane index's low bit as stimulus
        let pattern = 0xAAAA_AAAA_AAAA_AAAAu64;
        seq.set_input(din, pattern, u64::MAX);
        seq.step_cycle();
        // both registers captured pre-edge values: q0 = din, q1 = old q0 (L0)
        assert_eq!(seq.plane(q0), (pattern, u64::MAX));
        assert_eq!(seq.plane(q1), (0, u64::MAX), "q1 must see PRE-edge q0");
        seq.step_cycle();
        assert_eq!(seq.plane(q1), (pattern, u64::MAX), "pipeline advanced one stage");
    }

    #[test]
    fn per_lane_reset_is_independent_and_async() {
        let mut b = NetlistBuilder::new();
        let din = b.net();
        let clk = b.net();
        let rst_n = b.net();
        let q = b.net();
        b.dff(din, clk, Some(rst_n), q);
        let inv = b.inv(q);
        let mut seq = SeqBitSim::new(b.build()).unwrap();
        seq.set_input(din, u64::MAX, u64::MAX);
        seq.set_input(rst_n, u64::MAX, u64::MAX); // deasserted everywhere
        seq.step_cycle();
        assert_eq!(seq.plane(q), (u64::MAX, u64::MAX));
        // assert reset in the low 32 lanes only; X in lanes 32..48
        let low = 0x0000_0000_FFFF_FFFFu64;
        let xlanes = 0x0000_FFFF_0000_0000u64;
        seq.set_input(rst_n, !low & !xlanes, !xlanes);
        seq.eval();
        // async: visible before any edge, through downstream logic too;
        // X on reset_n does NOT reset — q keeps its (definite) state there
        assert_eq!(seq.plane(q), (!low, u64::MAX));
        assert_eq!(seq.plane(inv), (low, u64::MAX));
        seq.step_cycle();
        // reset lanes hold 0 at the edge even with D = 1; X-reset lanes capture
        let (v, k) = seq.plane(q);
        assert_eq!(v & low, 0);
        assert_eq!(v & xlanes, xlanes, "reset_n = X falls through to capture");
        assert_eq!(k, u64::MAX);
    }

    #[test]
    fn power_on_lanes_and_state_snapshots() {
        let (nl, din, _q0, q1) = two_stage_shift();
        let mut seq = SeqBitSim::new(nl).unwrap();
        seq.set_input(din, u64::MAX, u64::MAX);
        seq.step_cycles(2);
        let full = seq.snapshot_state();
        assert_eq!(seq.plane(q1), (u64::MAX, u64::MAX));
        let odd = 0xAAAA_AAAA_AAAA_AAAAu64;
        seq.power_on_lanes(odd);
        seq.eval();
        assert_eq!(seq.plane(q1), (!odd, !odd), "powered-on lanes read X");
        seq.restore_state(&full);
        seq.eval();
        assert_eq!(seq.plane(q1), (u64::MAX, u64::MAX), "restore ≡ never diverged");
        seq.reset_to_initial();
        seq.eval();
        assert_eq!(seq.plane(q1), (0, u64::MAX), "declared initial state is L0");
    }

    #[test]
    fn rejects_gated_clock_computed_reset_and_clock_into_logic() {
        // gated clock: clk driven by an AND
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let en = b.net();
        let raw = b.net();
        let gclk = b.and(&[en, raw]);
        let q = b.net();
        b.dff(d, gclk, None, q);
        assert!(matches!(SeqBitSim::new(b.build()), Err(LevelizeError::DrivenControl("clock", _))));
        // computed reset
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let clk = b.net();
        let a = b.net();
        let r = b.inv(a);
        let q = b.net();
        b.dff(d, clk, Some(r), q);
        assert!(matches!(SeqBitSim::new(b.build()), Err(LevelizeError::DrivenControl("reset", _))));
        // clock net read by a gate: levels are virtualized away, reject
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let clk = b.net();
        let q = b.net();
        b.dff(d, clk, None, q);
        b.and(&[clk, q]);
        assert!(matches!(SeqBitSim::new(b.build()), Err(LevelizeError::NotCombinational("clock"))));
        // latches still name their kind
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let en = b.net();
        let q = b.net();
        b.latch(d, en, q);
        assert!(matches!(SeqBitSim::new(b.build()), Err(LevelizeError::NotCombinational("latch"))));
    }

    #[test]
    fn seq_sweep_matches_shift_register_truth_and_geometry() {
        // 4-stage shift register characterized over (din, const-high side
        // input); after 5 cycles of constant input the last q equals din.
        let (nl, din, _q0, q1) = two_stage_shift();
        let proto = SeqBitSim::new(nl).unwrap();
        let reference =
            sweep_seq_truth(&proto, &[din], &[q1], 3, &SweepConfig::new().with_workers(1));
        let expect = WideMask::from_fn(1, |m| m & 1 == 1);
        assert_eq!(reference[0].as_ref(), Some(&expect));
        for (workers, shard) in [(2usize, 1usize), (8, 4)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
            assert_eq!(
                sweep_seq_truth(&proto, &[din], &[q1], 3, &cfg),
                reference,
                "workers={workers} shard={shard}"
            );
        }
    }
}
