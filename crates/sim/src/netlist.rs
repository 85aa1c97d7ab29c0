//! Flat component/net graph.
//!
//! A [`Netlist`] is a net count plus components (gates, drivers, state
//! elements, stimulus generators) and their delays. Components reference
//! nets by [`NetId`]; who reads and drives each net is derived from them by
//! [`Netlist::connectivity`]. The simulation engine owns all values. The
//! component set is a closed enum — the hot evaluation path stays
//! monomorphic and allocation free, per the HPC guidance this project
//! follows.

use crate::logic::Logic;

/// Index of a net (wire) in a [`Netlist`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a component in a [`Netlist`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CompId(pub u32);

/// A driver endpoint: output port `port` of component `comp`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortRef {
    /// Driving component.
    pub comp: CompId,
    /// Output port index within that component.
    pub port: u8,
}

/// Tri-state driver mode, mirroring the paper's Fig. 5 configurable buffer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DriveMode {
    /// Output follows the input.
    NonInverting,
    /// Output is the complement of the input.
    Inverting,
}

/// A circuit component.
///
/// Multi-input gates own their input net lists; state-holding components
/// (flip-flops, latches, C-elements, mutexes) carry their state inline so a
/// `Netlist` clone is an independent, resettable circuit.
#[derive(Clone, Debug)]
pub enum Component {
    /// N-input NAND — the fabric's native gate (paper Fig. 7).
    Nand { inputs: Vec<NetId>, output: NetId },
    /// N-input NOR.
    Nor { inputs: Vec<NetId>, output: NetId },
    /// N-input AND.
    And { inputs: Vec<NetId>, output: NetId },
    /// N-input OR.
    Or { inputs: Vec<NetId>, output: NetId },
    /// N-input XOR (odd parity).
    Xor { inputs: Vec<NetId>, output: NetId },
    /// Inverter.
    Inv { input: NetId, output: NetId },
    /// Non-inverting buffer (also used as an explicit delay element).
    Buf { input: NetId, output: NetId },
    /// Tri-state driver: when `enable` is high the output follows `mode`;
    /// when low it contributes `Z`. Models the abutment driver of Fig. 5.
    TriBuf { input: NetId, enable: NetId, output: NetId, mode: DriveMode },
    /// Constant driver.
    Const { value: Logic, output: NetId },
    /// Behavioural Muller C-element: output goes high when both inputs are
    /// high, low when both are low, otherwise holds (paper §4.1).
    CElement { a: NetId, b: NetId, output: NetId, state: Logic },
    /// Behavioural rising-edge D flip-flop with optional active-low reset;
    /// used as the *reference* model that fabric-mapped flip-flops are
    /// checked against.
    Dff { d: NetId, clk: NetId, reset_n: Option<NetId>, q: NetId, last_clk: Logic, state: Logic },
    /// Behavioural transparent latch (level-sensitive, transparent high).
    Latch { d: NetId, en: NetId, q: NetId, state: Logic },
    /// Free-running clock generator: first edge at `phase`, half-period
    /// `half_period`, starting from `L0`.
    Clock { output: NetId, half_period: u64, phase: u64, value: Logic },
    /// Plays back an explicit waveform `(time, value)`; times must be
    /// strictly increasing.
    Stimulus { output: NetId, events: Vec<(u64, Logic)>, next: usize },
    /// Two-way mutual-exclusion element (asynchronous arbiter). Grants at
    /// most one of `g1`/`g2`; requests arriving strictly earlier win, exact
    /// ties go to `r1` (a deterministic stand-in for metastability
    /// resolution — see `pmorph-async::arbiter` for the stochastic model).
    Mutex { r1: NetId, r2: NetId, g1: NetId, g2: NetId, owner: u8 },
}

/// Maximum number of output ports any component kind can have (`Mutex` has
/// two); sizes the fixed evaluation scratch buffers so the hot loop never
/// allocates.
pub const MAX_OUTPUTS: usize = 2;

/// Borrowed, allocation-free iterator over the nets a component reads
/// ([`Component::inputs`]) or drives ([`Component::outputs`]).
///
/// Gate inputs yield straight from their stored slice; everything else
/// yields from an inline array. Either way no `Vec` is built per query.
#[derive(Debug, Clone)]
pub enum NetIter<'a> {
    /// Inputs stored as a slice (the N-input gate variants).
    Slice(std::slice::Iter<'a, NetId>),
    /// Up to three inline nets.
    Fixed {
        /// The nets, valid up to `len`.
        nets: [NetId; 3],
        /// Number of valid entries.
        len: u8,
        /// Next entry to yield.
        next: u8,
    },
}

impl NetIter<'_> {
    fn fixed(nets: &[NetId]) -> Self {
        let mut buf = [NetId(0); 3];
        buf[..nets.len()].copy_from_slice(nets);
        NetIter::Fixed { nets: buf, len: nets.len() as u8, next: 0 }
    }
}

impl Iterator for NetIter<'_> {
    type Item = NetId;

    fn next(&mut self) -> Option<NetId> {
        match self {
            NetIter::Slice(it) => it.next().copied(),
            NetIter::Fixed { nets, len, next } => {
                if next < len {
                    let n = nets[*next as usize];
                    *next += 1;
                    Some(n)
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            NetIter::Slice(it) => it.len(),
            NetIter::Fixed { len, next, .. } => (*len - *next) as usize,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for NetIter<'_> {}

/// Compact snapshot of a component's mutable state (flip-flop contents,
/// C-element keepers, generator cursors). [`Component::save_state`] /
/// [`Component::load_state`] let the simulator's sweep path reset a
/// circuit without recloning the whole netlist.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct CompState {
    a: Logic,
    b: Logic,
    n: u64,
}

impl Component {
    /// The component kind's display name (used in diagnostics, e.g. the
    /// levelizer's "not combinational" error names the offending kind).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Component::Nand { .. } => "nand",
            Component::Nor { .. } => "nor",
            Component::And { .. } => "and",
            Component::Or { .. } => "or",
            Component::Xor { .. } => "xor",
            Component::Inv { .. } => "inv",
            Component::Buf { .. } => "buf",
            Component::TriBuf { .. } => "tribuf",
            Component::Const { .. } => "const",
            Component::CElement { .. } => "celement",
            Component::Dff { .. } => "dff",
            Component::Latch { .. } => "latch",
            Component::Clock { .. } => "clock",
            Component::Stimulus { .. } => "stimulus",
            Component::Mutex { .. } => "mutex",
        }
    }

    /// Nets read by this component (borrowed; no allocation).
    pub fn inputs(&self) -> NetIter<'_> {
        match self {
            Component::Nand { inputs, .. }
            | Component::Nor { inputs, .. }
            | Component::And { inputs, .. }
            | Component::Or { inputs, .. }
            | Component::Xor { inputs, .. } => NetIter::Slice(inputs.iter()),
            Component::Inv { input, .. } | Component::Buf { input, .. } => {
                NetIter::fixed(&[*input])
            }
            Component::TriBuf { input, enable, .. } => NetIter::fixed(&[*input, *enable]),
            Component::Const { .. } | Component::Clock { .. } | Component::Stimulus { .. } => {
                NetIter::fixed(&[])
            }
            Component::CElement { a, b, .. } => NetIter::fixed(&[*a, *b]),
            Component::Dff { d, clk, reset_n, .. } => match reset_n {
                Some(r) => NetIter::fixed(&[*d, *clk, *r]),
                None => NetIter::fixed(&[*d, *clk]),
            },
            Component::Latch { d, en, .. } => NetIter::fixed(&[*d, *en]),
            Component::Mutex { r1, r2, .. } => NetIter::fixed(&[*r1, *r2]),
        }
    }

    /// Nets driven by this component, in port order (borrowed; no
    /// allocation).
    pub fn outputs(&self) -> NetIter<'_> {
        match self {
            Component::Nand { output, .. }
            | Component::Nor { output, .. }
            | Component::And { output, .. }
            | Component::Or { output, .. }
            | Component::Xor { output, .. }
            | Component::Inv { output, .. }
            | Component::Buf { output, .. }
            | Component::TriBuf { output, .. }
            | Component::Const { output, .. }
            | Component::CElement { output, .. }
            | Component::Clock { output, .. }
            | Component::Stimulus { output, .. } => NetIter::fixed(&[*output]),
            Component::Dff { q, .. } | Component::Latch { q, .. } => NetIter::fixed(&[*q]),
            Component::Mutex { g1, g2, .. } => NetIter::fixed(&[*g1, *g2]),
        }
    }

    /// True for components that schedule their own future events
    /// (clocks and stimulus players).
    pub fn is_generator(&self) -> bool {
        matches!(self, Component::Clock { .. } | Component::Stimulus { .. })
    }

    /// Evaluate the component against the resolved net values in
    /// `values` (indexed by [`NetId`]), writing port `p`'s value into
    /// `out[p]` and returning the number of output ports. Stateful
    /// components update their state here. This is the one scalar
    /// component evaluator in production: the event kernel, the levelizer
    /// and the technology mapper all call it, with no closure dispatch
    /// and no `Vec` per evaluation. The simulator's differential suite
    /// holds it to an independently written evaluator in its test code.
    pub fn evaluate_into(&mut self, values: &[Logic], out: &mut [Logic; MAX_OUTPUTS]) -> usize {
        #[inline]
        fn read(values: &[Logic], n: NetId) -> Logic {
            values[n.0 as usize]
        }
        match self {
            Component::Nand { inputs, .. } => {
                out[0] = Logic::nand_all(inputs.iter().map(|&n| read(values, n)));
                1
            }
            Component::Nor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(values, n));
                }
                out[0] = acc.not();
                1
            }
            Component::And { inputs, .. } => {
                let mut acc = Logic::L1;
                for &n in inputs.iter() {
                    acc = acc.and(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Or { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Xor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.xor(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Inv { input, .. } => {
                out[0] = read(values, *input).not();
                1
            }
            Component::Buf { input, .. } => {
                out[0] = read(values, *input).input();
                1
            }
            Component::TriBuf { input, enable, mode, .. } => {
                out[0] = match read(values, *enable).input() {
                    Logic::L1 => {
                        let i = read(values, *input).input();
                        match mode {
                            DriveMode::NonInverting => i,
                            DriveMode::Inverting => i.not(),
                        }
                    }
                    Logic::L0 => Logic::Z,
                    _ => Logic::X,
                };
                1
            }
            Component::Const { value, .. } => {
                out[0] = *value;
                1
            }
            Component::CElement { a, b, state, .. } => {
                let (va, vb) = (read(values, *a).input(), read(values, *b).input());
                let next = match (va, vb) {
                    (Logic::L1, Logic::L1) => Logic::L1,
                    (Logic::L0, Logic::L0) => Logic::L0,
                    _ => *state,
                };
                *state = next;
                out[0] = next;
                1
            }
            Component::Dff { d, clk, reset_n, last_clk, state, .. } => {
                let c = read(values, *clk).input();
                let rising = *last_clk == Logic::L0 && c == Logic::L1;
                *last_clk = c;
                if let Some(r) = reset_n {
                    if read(values, *r).input() == Logic::L0 {
                        *state = Logic::L0;
                        out[0] = *state;
                        return 1;
                    }
                }
                if rising {
                    *state = read(values, *d).input();
                }
                out[0] = *state;
                1
            }
            Component::Latch { d, en, state, .. } => {
                match read(values, *en).input() {
                    Logic::L1 => *state = read(values, *d).input(),
                    Logic::L0 => {}
                    _ => *state = Logic::X,
                }
                out[0] = *state;
                1
            }
            Component::Clock { value, .. } => {
                out[0] = *value;
                1
            }
            Component::Stimulus { events, next, .. } => {
                out[0] = if *next == 0 { Logic::X } else { events[*next - 1].1 };
                1
            }
            Component::Mutex { r1, r2, g1: _, g2: _, owner } => {
                let (a, b) = (read(values, *r1).input(), read(values, *r2).input());
                match *owner {
                    1 if a != Logic::L1 => *owner = 0,
                    2 if b != Logic::L1 => *owner = 0,
                    _ => {}
                }
                if *owner == 0 {
                    if a == Logic::L1 {
                        *owner = 1;
                    } else if b == Logic::L1 {
                        *owner = 2;
                    }
                }
                out[0] = Logic::from_bool(*owner == 1);
                out[1] = Logic::from_bool(*owner == 2);
                2
            }
        }
    }

    /// Capture the component's mutable state (see [`CompState`]). Stateless
    /// components return the default.
    pub fn save_state(&self) -> CompState {
        match self {
            Component::CElement { state, .. } | Component::Latch { state, .. } => {
                CompState { a: *state, ..CompState::default() }
            }
            Component::Dff { last_clk, state, .. } => CompState { a: *last_clk, b: *state, n: 0 },
            Component::Clock { value, .. } => CompState { a: *value, ..CompState::default() },
            Component::Stimulus { next, .. } => {
                CompState { n: *next as u64, ..CompState::default() }
            }
            Component::Mutex { owner, .. } => {
                CompState { n: *owner as u64, ..CompState::default() }
            }
            _ => CompState::default(),
        }
    }

    /// Restore state captured by [`Component::save_state`].
    pub fn load_state(&mut self, s: CompState) {
        match self {
            Component::CElement { state, .. } | Component::Latch { state, .. } => *state = s.a,
            Component::Dff { last_clk, state, .. } => {
                *last_clk = s.a;
                *state = s.b;
            }
            Component::Clock { value, .. } => *value = s.a,
            Component::Stimulus { next, .. } => *next = s.n as usize,
            Component::Mutex { owner, .. } => *owner = s.n as u8,
            _ => {}
        }
    }

    /// For generator components: advance internal state and return the next
    /// self-scheduled `(time, port, value)` event at or after `now`.
    pub fn next_generated(&mut self, now: u64) -> Option<(u64, u8, Logic)> {
        match self {
            Component::Clock { half_period, phase, value, .. } => {
                let t = if now < *phase { *phase } else { now + *half_period };
                *value = if *value == Logic::L1 { Logic::L0 } else { Logic::L1 };
                Some((t, 0, *value))
            }
            Component::Stimulus { events, next, .. } => {
                if *next < events.len() {
                    let (t, v) = events[*next];
                    *next += 1;
                    Some((t.max(now), 0, v))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A complete circuit: a net count, the components and their delays.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    nets: usize,
    /// All components.
    pub comps: Vec<Component>,
    /// Propagation delay (picoseconds) of each component.
    pub delays: Vec<u64>,
}

impl Netlist {
    /// Create an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a net, returning its id.
    pub fn add_net(&mut self) -> NetId {
        self.nets += 1;
        NetId(self.nets as u32 - 1)
    }

    /// Add a component with the given propagation delay (ps ≥ 1 enforced by
    /// the engine), returning its id.
    pub fn add_comp(&mut self, comp: Component, delay_ps: u64) -> CompId {
        let id = CompId(self.comps.len() as u32);
        self.comps.push(comp);
        self.delays.push(delay_ps);
        id
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets
    }

    /// Number of components.
    pub fn comp_count(&self) -> usize {
        self.comps.len()
    }

    /// Who reads and who drives each net, derived from the components as
    /// they stand now: two counting passes, so build it once per use.
    pub fn connectivity(&self) -> Connectivity {
        let n = self.nets;
        // `last[net]` is the last component counted or placed in the net's
        // fan-out row: a component that lists a net twice reads it once.
        let mut last = vec![u32::MAX; n];
        let mut fanout_off = vec![0u32; n + 1];
        let mut driver_off = vec![0u32; n + 1];
        for (c, comp) in self.comps.iter().enumerate() {
            for net in comp.inputs() {
                let i = net.0 as usize;
                if last[i] != c as u32 {
                    last[i] = c as u32;
                    fanout_off[i + 1] += 1;
                }
            }
            for net in comp.outputs() {
                driver_off[net.0 as usize + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_off[i + 1] += fanout_off[i];
            driver_off[i + 1] += driver_off[i];
        }
        let mut fanout = vec![CompId(0); fanout_off[n] as usize];
        let mut drivers = vec![PortRef { comp: CompId(0), port: 0 }; driver_off[n] as usize];
        let mut fanout_fill = fanout_off[..n].to_vec();
        let mut driver_fill = driver_off[..n].to_vec();
        last.fill(u32::MAX);
        for (c, comp) in self.comps.iter().enumerate() {
            let comp_id = CompId(c as u32);
            for net in comp.inputs() {
                let i = net.0 as usize;
                if last[i] != c as u32 {
                    last[i] = c as u32;
                    fanout[fanout_fill[i] as usize] = comp_id;
                    fanout_fill[i] += 1;
                }
            }
            for (port, net) in comp.outputs().enumerate() {
                let i = net.0 as usize;
                drivers[driver_fill[i] as usize] = PortRef { comp: comp_id, port: port as u8 };
                driver_fill[i] += 1;
            }
        }
        Connectivity { fanout_off, fanout, driver_off, drivers }
    }
}

/// A netlist's connectivity as compressed rows (CSR), one fan-out row and
/// one driver row per net, built by [`Netlist::connectivity`].
#[derive(Clone, Debug)]
pub struct Connectivity {
    /// Net `n`'s readers are `fanout[fanout_off[n]..fanout_off[n + 1]]`.
    pub(crate) fanout_off: Vec<u32>,
    pub(crate) fanout: Vec<CompId>,
    /// Net `n`'s drivers are `drivers[driver_off[n]..driver_off[n + 1]]`.
    pub(crate) driver_off: Vec<u32>,
    pub(crate) drivers: Vec<PortRef>,
}

impl Connectivity {
    /// Components reading `net`, each once, in component order.
    pub fn fanout(&self, net: NetId) -> &[CompId] {
        let n = net.0 as usize;
        &self.fanout[self.fanout_off[n] as usize..self.fanout_off[n + 1] as usize]
    }

    /// Output ports driving `net`, in component and port order; none for
    /// a primary input.
    pub fn drivers(&self, net: NetId) -> &[PortRef] {
        let n = net.0 as usize;
        &self.drivers[self.driver_off[n] as usize..self.driver_off[n + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectivity_tables() {
        let mut nl = Netlist::new();
        let a = nl.add_net();
        let b = nl.add_net();
        let y = nl.add_net();
        let z = nl.add_net();
        let g0 = nl.add_comp(Component::Nand { inputs: vec![a, b], output: y }, 10);
        assert_eq!(nl.connectivity().fanout(y), &[] as &[CompId]);
        // a component added later shows in the next view
        let g1 = nl.add_comp(Component::Inv { input: y, output: z }, 5);
        let conn = nl.connectivity();
        assert_eq!(conn.fanout(a), &[g0]);
        assert_eq!(conn.fanout(y), &[g1]);
        assert_eq!(conn.fanout(z), &[] as &[CompId]);
        assert_eq!(conn.drivers(y), &[PortRef { comp: g0, port: 0 }]);
        assert_eq!(conn.drivers(a), &[] as &[PortRef]);
    }

    #[test]
    fn duplicate_input_single_fanout_entry() {
        let mut nl = Netlist::new();
        let a = nl.add_net();
        let y = nl.add_net();
        nl.add_comp(Component::Nand { inputs: vec![a, a], output: y }, 1);
        assert_eq!(nl.connectivity().fanout(a).len(), 1);
    }

    /// The output ports `evaluate_into` writes for `values`.
    fn eval(c: &mut Component, values: &[Logic]) -> Vec<Logic> {
        let mut out = [Logic::Z; MAX_OUTPUTS];
        let n = c.evaluate_into(values, &mut out);
        out[..n].to_vec()
    }

    #[test]
    fn celement_holds_state() {
        let mut c =
            Component::CElement { a: NetId(0), b: NetId(1), output: NetId(2), state: Logic::L0 };
        assert_eq!(eval(&mut c, &[Logic::L1, Logic::L0]), [Logic::L0], "mixed inputs hold");
        assert_eq!(eval(&mut c, &[Logic::L1, Logic::L1]), [Logic::L1], "both high sets");
        assert_eq!(eval(&mut c, &[Logic::L0, Logic::L1]), [Logic::L1], "mixed holds high");
        assert_eq!(eval(&mut c, &[Logic::L0, Logic::L0]), [Logic::L0], "both low clears");
    }

    #[test]
    fn dff_edge_behaviour() {
        let mut ff = Component::Dff {
            d: NetId(0),
            clk: NetId(1),
            reset_n: None,
            q: NetId(2),
            last_clk: Logic::L0,
            state: Logic::L0,
        };
        // clk low, d high: no capture
        assert_eq!(eval(&mut ff, &[Logic::L1, Logic::L0]), [Logic::L0]);
        // rising edge captures d
        assert_eq!(eval(&mut ff, &[Logic::L1, Logic::L1]), [Logic::L1]);
        // d falls while clk high: hold
        assert_eq!(eval(&mut ff, &[Logic::L0, Logic::L1]), [Logic::L1]);
    }

    #[test]
    fn mutex_first_wins_and_releases() {
        let mut m =
            Component::Mutex { r1: NetId(0), r2: NetId(1), g1: NetId(2), g2: NetId(3), owner: 0 };
        assert_eq!(eval(&mut m, &[Logic::L1, Logic::L1]), [Logic::L1, Logic::L0], "tie goes to r1");
        assert_eq!(
            eval(&mut m, &[Logic::L0, Logic::L1]),
            [Logic::L0, Logic::L1],
            "release then grant r2"
        );
    }
}
