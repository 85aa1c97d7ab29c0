//! Bi-decomposition synthesis of polymorphic circuits (after Luo & Li,
//! arXiv 1709.03067).
//!
//! The synthesizer works on *mode vectors*: a sub-function is a vector of
//! `WideMask`s, one per mode, all kept at the specification's full arity
//! (cofactors fix a variable without re-indexing the others, so results
//! wire directly to the global inputs and memoise cleanly). At each step:
//!
//! 1. **Memo hit** — any sub-function already realised (in *all* modes at
//!    once) is reused as a wire, including primary inputs;
//! 2. **Leaf** — support ≤ 1: a single polymorphic cell. With inputs
//!    `A = x_v`, `B = x̄_v`, the per-mode personality choices
//!    `{ConstZero, ConstOne, NotA, NotB}` realise exactly
//!    `{0, 1, x̄_v, x_v}` — every single-variable personality mix is one
//!    fabric block;
//! 3. **Bi-decomposition** — a variable partition `(A, B)` of the support
//!    shared by *all* modes with `f = g ∘ h` (`∘` ∈ {AND, OR, XOR},
//!    `g` over `A`, `h` over `B`), found by quantifier candidates:
//!    for AND `ĝ = ∃_B f`, for OR `ĝ = ∀_B f`, for XOR the cofactor
//!    normalisation `ĝ = f|_{B=0}`, `ĥ = f|_{A=0} ⊕ f(0)`. The join is
//!    built from mode-invariant NAND cells;
//! 4. **Shannon fallback** — when no partition decomposes, expand on the
//!    variable minimising residual support:
//!    `f = NAND(NAND(f₀, x̄_v), NAND(f₁, x_v))`, again invariant cells.
//!
//! Polymorphism therefore *localises at the leaves*: the interior of the
//! circuit is ordinary NAND logic shared by every personality, which is
//! precisely why one netlist can serve several functions cheaply.
//!
//! All cofactor algebra is word-parallel: [`WideMask::depends_on`] and
//! the in-place cofactor and quantifiers ([`WideMask::restrict`],
//! [`WideMask::exists`], [`WideMask::forall`]) move whole 64-lane words,
//! never single minterms.

use super::netlist::{PNet, PolyCell, PolyNetlist};
use super::truth::PolyTruth;
use super::PolyError;
use pmorph_device::gates::NandOutput;
use pmorph_sim::table::WideMask;
use std::collections::HashMap;

/// Synthesis is exact and exhaustive over variable partitions
/// (`O(3 · 2^|S|)` decomposition probes per node), so it is bounded
/// rather than heuristic; at 12 variables a random specification
/// synthesizes in about 0.1 s, while covering every fabric-relevant
/// width.
pub const MAX_SYNTH_VARS: usize = 12;

/// Counters describing how a circuit was put together.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Leaf cells (the polymorphic ones).
    pub leaf: usize,
    /// AND bi-decompositions taken.
    pub and_bidec: usize,
    /// OR bi-decompositions taken.
    pub or_bidec: usize,
    /// XOR bi-decompositions taken.
    pub xor_bidec: usize,
    /// Shannon expansions taken (the fallback).
    pub shannon: usize,
    /// Memo hits — sub-functions shared between branches (and between
    /// mode personalities, which is the method's selling point).
    pub memo_hits: usize,
}

/// A synthesized circuit with its construction statistics.
#[derive(Clone, Debug)]
pub struct Synthesized {
    /// The polymorphic netlist (all personalities).
    pub netlist: PolyNetlist,
    /// How it was built.
    pub stats: SynthStats,
}

/// One sub-function: a mask per mode, all at full arity.
type FVec = Vec<WideMask>;

fn cof_vec(f: &[WideMask], v: usize, val: bool) -> FVec {
    f.iter()
        .map(|m| {
            let mut c = m.clone();
            c.restrict(1 << v, val);
            c
        })
        .collect()
}

/// Union of per-mode supports, as a variable bitmask.
fn support(f: &[WideMask]) -> u32 {
    let n = f[0].vars();
    (0..n).filter(|&v| f.iter().any(|m| m.depends_on(v))).fold(0, |s, v| s | 1 << v)
}

/// The decomposition operators, probed in join-cost order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum BidecOp {
    And,
    Or,
    Xor,
}

struct Builder {
    n: usize,
    k: usize,
    cells: Vec<PolyCell>,
    /// Realised sub-functions (all modes at once) → their wire.
    memo: HashMap<Vec<u64>, PNet>,
    stats: SynthStats,
}

impl Builder {
    fn key(f: &[WideMask]) -> Vec<u64> {
        f.iter().flat_map(|m| m.words().iter().copied()).collect()
    }

    fn var_vec(&self, v: usize, positive: bool) -> FVec {
        let base = WideMask::var(self.n, v);
        let m = if positive { base } else { base.not() };
        vec![m; self.k]
    }

    /// Append a cell computing `f`, registering it for reuse.
    fn emit(&mut self, a: PNet, b: PNet, personalities: Vec<NandOutput>, f: &[WideMask]) -> PNet {
        debug_assert_eq!(personalities.len(), self.k);
        let net = PNet::Cell(self.cells.len());
        self.cells.push(PolyCell { a, b, personalities });
        self.memo.insert(Self::key(f), net);
        net
    }

    /// A mode-invariant NAND of two realised wires.
    fn nand(&mut self, a: PNet, an: &[WideMask], b: PNet, bn: &[WideMask]) -> (PNet, FVec) {
        let f: FVec = an.iter().zip(bn).map(|(x, y)| x.and(y).not()).collect();
        if let Some(&net) = self.memo.get(&Self::key(&f)) {
            self.stats.memo_hits += 1;
            return (net, f);
        }
        let net = self.emit(a, b, vec![NandOutput::NandAB; self.k], &f);
        (net, f)
    }

    /// A mode-invariant complement of a realised wire.
    fn invert(&mut self, a: PNet, an: &[WideMask]) -> (PNet, FVec) {
        let f: FVec = an.iter().map(|x| x.not()).collect();
        if let Some(&net) = self.memo.get(&Self::key(&f)) {
            self.stats.memo_hits += 1;
            return (net, f);
        }
        let net = self.emit(a, a, vec![NandOutput::NotA; self.k], &f);
        (net, f)
    }

    /// Realise a sub-function vector, returning its wire.
    fn synth(&mut self, f: &FVec) -> PNet {
        if let Some(&net) = self.memo.get(&Self::key(f)) {
            self.stats.memo_hits += 1;
            return net;
        }
        let s = support(f);
        match s.count_ones() {
            0 => self.leaf_const(f),
            1 => self.leaf_literal(f, s.trailing_zeros() as usize),
            _ => self.decompose(f, s),
        }
    }

    /// All modes constant: one cell, per-mode stuck personalities.
    fn leaf_const(&mut self, f: &FVec) -> PNet {
        self.stats.leaf += 1;
        let personalities = f
            .iter()
            .map(|m| if m.get(0) { NandOutput::ConstOne } else { NandOutput::ConstZero })
            .collect();
        // input wiring is irrelevant for stuck cells; x0 keeps it legal
        self.emit(PNet::Input(0), PNet::Input(0), personalities, f)
    }

    /// Support = {v}: per-mode personalities drawn from {0, 1, x̄_v, x_v}.
    fn leaf_literal(&mut self, f: &FVec, v: usize) -> PNet {
        let pos = self.var_vec(v, true);
        let needs_positive = f.iter().zip(&pos).any(|(m, p)| m == p);
        if needs_positive {
            // B carries x̄_v so the NotB personality yields x_v. Realise
            // x̄_v first (itself a one-cell leaf, shared via the memo).
            let neg = self.var_vec(v, false);
            let b = self.synth(&neg);
            self.stats.leaf += 1;
            let personalities = f
                .iter()
                .zip(&pos)
                .map(|(m, p)| {
                    if m == p {
                        NandOutput::NotB
                    } else if *m == p.not() {
                        NandOutput::NotA
                    } else if m.get(0) {
                        NandOutput::ConstOne
                    } else {
                        NandOutput::ConstZero
                    }
                })
                .collect();
            self.emit(PNet::Input(v), b, personalities, f)
        } else {
            // only {0, 1, x̄_v} occur: a single cell on A = x_v suffices
            self.stats.leaf += 1;
            let personalities = f
                .iter()
                .zip(&pos)
                .map(|(m, p)| {
                    if *m == p.not() {
                        NandOutput::NotA
                    } else if m.get(0) {
                        NandOutput::ConstOne
                    } else {
                        NandOutput::ConstZero
                    }
                })
                .collect();
            self.emit(PNet::Input(v), PNet::Input(v), personalities, f)
        }
    }

    /// Probe every operator and support partition for a bi-decomposition
    /// shared by all modes; fall back to Shannon expansion.
    fn decompose(&mut self, f: &FVec, s: u32) -> PNet {
        let vars: Vec<usize> = (0..self.n).filter(|v| s >> v & 1 == 1).collect();
        let pivot = 1u32 << vars[0];
        let rest: Vec<usize> = vars[1..].to_vec();
        // partitions: A always contains the lowest support var (the ops
        // commute, so this halves the search without losing any split)
        for op in [BidecOp::And, BidecOp::Or, BidecOp::Xor] {
            for bits in 0..(1u32 << rest.len()) {
                let mut a_set = pivot;
                for (i, &v) in rest.iter().enumerate() {
                    if bits >> i & 1 == 1 {
                        a_set |= 1 << v;
                    }
                }
                let b_set = s & !a_set;
                if b_set == 0 {
                    continue;
                }
                if let Some((g, h)) = try_split(f, op, a_set, b_set) {
                    return self.join(op, &g, &h);
                }
            }
        }
        self.shannon(f, &vars)
    }

    fn join(&mut self, op: BidecOp, g: &FVec, h: &FVec) -> PNet {
        let gn = self.synth(g);
        let hn = self.synth(h);
        match op {
            BidecOp::And => {
                self.stats.and_bidec += 1;
                let (t, tf) = self.nand(gn, g, hn, h);
                let (out, _) = self.invert(t, &tf);
                out
            }
            BidecOp::Or => {
                self.stats.or_bidec += 1;
                let (ng, ngf) = self.invert(gn, g);
                let (nh, nhf) = self.invert(hn, h);
                let (out, _) = self.nand(ng, &ngf, nh, &nhf);
                out
            }
            BidecOp::Xor => {
                self.stats.xor_bidec += 1;
                // classic 4-NAND XOR: sharing the first NAND keeps it at
                // four cells instead of five
                let (t, tf) = self.nand(gn, g, hn, h);
                let (u, uf) = self.nand(gn, g, t, &tf);
                let (w, wf) = self.nand(hn, h, t, &tf);
                let (out, _) = self.nand(u, &uf, w, &wf);
                out
            }
        }
    }

    /// `f = NAND(NAND(f₀, x̄_v), NAND(f₁, x_v))` on the support variable
    /// leaving the smallest residual supports (deterministic tie-break:
    /// lowest variable).
    fn shannon(&mut self, f: &FVec, vars: &[usize]) -> PNet {
        self.stats.shannon += 1;
        let best = *vars
            .iter()
            .min_by_key(|&&v| {
                let c0 = support(&cof_vec(f, v, false)).count_ones();
                let c1 = support(&cof_vec(f, v, true)).count_ones();
                (c0 + c1, v)
            })
            .expect("non-empty support");
        let f0 = cof_vec(f, best, false);
        let f1 = cof_vec(f, best, true);
        let g0 = self.synth(&f0);
        let g1 = self.synth(&f1);
        let nv_vec = self.var_vec(best, false);
        let xv_vec = self.var_vec(best, true);
        let nv = self.synth(&nv_vec);
        let (t0, t0f) = self.nand(g0, &f0, nv, &nv_vec);
        let (t1, t1f) = self.nand(g1, &f1, PNet::Input(best), &xv_vec);
        let (out, _) = self.nand(t0, &t0f, t1, &t1f);
        out
    }
}

/// Probe one `(op, partition)` pair across all modes at once. Returns the
/// factor vectors on success.
fn try_split(f: &[WideMask], op: BidecOp, a_set: u32, b_set: u32) -> Option<(FVec, FVec)> {
    let mut g = Vec::with_capacity(f.len());
    let mut h = Vec::with_capacity(f.len());
    for m in f {
        let (mut gm, mut hm) = (m.clone(), m.clone());
        let joined = match op {
            BidecOp::And => {
                gm.exists(b_set);
                hm.exists(a_set);
                gm.and(&hm)
            }
            BidecOp::Or => {
                gm.forall(b_set);
                hm.forall(a_set);
                gm.or(&hm)
            }
            BidecOp::Xor => {
                gm.restrict(b_set, false);
                hm.restrict(a_set, false);
                if m.get(0) {
                    hm = hm.not();
                }
                gm.xor(&hm)
            }
        };
        if joined != *m {
            return None;
        }
        g.push(gm);
        h.push(hm);
    }
    Some((g, h))
}

/// Synthesize a polymorphic circuit for `truth` onto the NAND-cell
/// fabric. The result's wiring is mode-independent; only leaf-cell
/// personalities vary. Equivalence of every personality should then be
/// *proven* with [`PolyNetlist::verify`] — the synthesizer's own mask
/// algebra is checked here as a fast internal sanity gate, but the
/// simulator sweep is the contract.
pub fn synthesize(truth: &PolyTruth) -> Result<Synthesized, PolyError> {
    if truth.vars() > MAX_SYNTH_VARS {
        return Err(PolyError::TooManyVars { needed: truth.vars(), available: MAX_SYNTH_VARS });
    }
    let n = truth.vars();
    let k = truth.mode_count();
    let mut b =
        Builder { n, k, cells: Vec::new(), memo: HashMap::new(), stats: SynthStats::default() };
    // seed the memo with the primary inputs so projection-equal
    // sub-functions become wires, not cells
    for v in 0..n {
        let key = Builder::key(&b.var_vec(v, true));
        b.memo.insert(key, PNet::Input(v));
    }
    let spec: FVec = truth.masks().to_vec();
    let out = b.synth(&spec);
    let netlist = PolyNetlist::new(n, truth.mode_names().to_vec(), b.cells, out);
    debug_assert_eq!(netlist.masks(), truth.masks(), "mask algebra must close the loop");
    Ok(Synthesized { netlist, stats: b.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_exec::SweepConfig;

    fn poly(vars: usize, fs: &[(&str, fn(u64) -> bool)]) -> PolyTruth {
        PolyTruth::new(
            fs.iter().map(|(n, f)| (n.to_string(), WideMask::from_fn(vars, f))).collect(),
        )
        .unwrap()
    }

    fn check(truth: &PolyTruth) -> Synthesized {
        let s = synthesize(truth).expect("in range");
        assert_eq!(s.netlist.masks(), truth.masks(), "mask algebra equivalence");
        s.netlist.verify(truth, &SweepConfig::new()).expect("bitsim proof");
        s
    }

    #[test]
    fn xor_xnor_pair_is_compact() {
        // the canonical polymorphic pair: same circuit, complementary
        // functions — one polymorphic leaf flips the polarity
        let s = check(&poly(
            2,
            &[("nominal", |m| m.count_ones() % 2 == 1), ("biased", |m| m.count_ones() % 2 == 0)],
        ));
        assert!(s.netlist.poly_cell_count() >= 1, "something must morph");
        assert!(s.netlist.cell_count() <= 8, "got {}", s.netlist.cell_count());
    }

    #[test]
    fn and_or_pair() {
        let s = check(&poly(2, &[("a", |m| m == 3), ("o", |m| m != 0)]));
        assert!(s.netlist.fits_fabric(6, 6));
    }

    #[test]
    fn majority_parity_three_modes() {
        check(&poly(
            3,
            &[
                ("maj", |m| m.count_ones() >= 2),
                ("par", |m| m.count_ones() % 2 == 1),
                ("nor", |m| m == 0),
            ],
        ));
    }

    #[test]
    fn uniform_specifications_still_synthesize() {
        let s = check(&poly(
            4,
            &[("a", |m| m.count_ones() % 2 == 0), ("b", |m| m.count_ones() % 2 == 0)],
        ));
        assert_eq!(s.netlist.poly_cell_count(), 0, "nothing morphs in a uniform spec");
    }

    #[test]
    fn constants_and_literals() {
        check(&poly(1, &[("zero", |_| false), ("one", |_| true)]));
        check(&poly(2, &[("x0", |m| m & 1 == 1), ("not_x0", |m| m & 1 == 0)]));
        // projection in both modes collapses to a wire + buffer-ish cell
        let s = check(&poly(2, &[("x1", |m| m >> 1 & 1 == 1), ("x1b", |m| m >> 1 & 1 == 1)]));
        assert!(s.netlist.cell_count() <= 2);
    }

    #[test]
    fn adder_sum_vs_carry() {
        // one circuit that is a full-adder sum in mode A, carry in mode B
        check(&poly(
            3,
            &[("sum", |m| m.count_ones() % 2 == 1), ("carry", |m| m.count_ones() >= 2)],
        ));
    }

    #[test]
    fn six_var_pairs_use_bidec_not_just_shannon() {
        let s = check(&poly(6, &[("and6", |m| m == 63), ("or6", |m| m != 0)]));
        assert!(
            s.stats.and_bidec + s.stats.or_bidec >= 1,
            "conjunctions/disjunctions must bi-decompose: {:?}",
            s.stats
        );
        check(&poly(
            6,
            &[("par", |m| m.count_ones() % 2 == 1), ("npar", |m| m.count_ones() % 2 == 0)],
        ));
    }

    #[test]
    fn too_wide_is_a_typed_error() {
        let t = poly(13, &[("a", |m| m == 0), ("b", |m| m == 1)]);
        assert_eq!(
            synthesize(&t).unwrap_err(),
            PolyError::TooManyVars { needed: 13, available: MAX_SYNTH_VARS }
        );
    }

    #[test]
    fn random_specs_round_trip() {
        use pmorph_util::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x9E3779B97F4A7C15);
        for n in 2..=5usize {
            for _ in 0..6 {
                let masks: Vec<(String, WideMask)> = ["m0", "m1"]
                    .iter()
                    .map(|s| (s.to_string(), WideMask::from_fn(n, |_| rng.next_u64() & 1 == 1)))
                    .collect();
                let t = PolyTruth::new(masks).unwrap();
                check(&t);
            }
        }
    }
}
