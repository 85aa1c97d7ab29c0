//! Gate-set completeness for polymorphic logic (after Luo & Li,
//! arXiv 1709.03065).
//!
//! A configurable 2-input gate under `k` modes computes a *mode vector*
//! of two-input functions: one 4-bit truth table per mode, packed here
//! into a `u32` at 4 bits/mode (mode 0 in the low nibble). Minterm `i`
//! of a 2-input table is indexed `i = (b << 1) | a`.
//!
//! The question the checker answers: can circuits over a given set of
//! such vector-gates (inputs wired to shared signals, every gate
//! switching personality with the *same* global mode) realise **every**
//! polymorphic function vector? The decision procedure is closure
//! computation: start from the projection vectors (wires), repeatedly
//! apply every gate vector to every ordered pair of reached vectors, and
//! test whether a *generating basis* lands in the closure. The basis
//! used is the mode-invariant NAND vector plus all `2^k` constant
//! vectors: NAND alone is universal per-mode, so once those vectors are
//! reachable, any target vector can be assembled mode-wise; conversely a
//! complete set trivially reaches them. This turns "is the full space of
//! `16^k` vectors reachable" into membership of `2^k + 1` vectors, which
//! is what lets [`is_complete`] early-exit long before the fixpoint.
//!
//! `composition` is substitution: `(G ∘ (u, v))_m(a, b) = G_m(u_m(a, b),
//! v_m(a, b))` — the mode is global, so the same `m` selects
//! personalities in the gate and in both arguments at once. One mode's
//! result depends only on the three nibbles `(G_m, u_m, v_m)`, so a
//! 4 KiB table of all 4,096 nibble triples, built at compile time, gives
//! it in one lookup.

use super::PolyError;

/// Mode-count ceiling. The vector space is `16^k`; 3 modes (4096
/// vectors) keeps the brute-force oracle used by the property tests
/// instant while covering every experiment in the suite.
pub const MAX_MODES: usize = 3;

/// Named 4-bit single-mode tables (minterm `i = (b << 1) | a`).
pub mod tables {
    /// ¬(a ∧ b)
    pub const NAND: u32 = 0b0111;
    /// ¬(a ∨ b)
    pub const NOR: u32 = 0b0001;
    /// ¬a
    pub const NOT_A: u32 = 0b0101;
    /// ¬b
    pub const NOT_B: u32 = 0b0011;
    /// a ∧ b
    pub const AND: u32 = 0b1000;
    /// a ∨ b
    pub const OR: u32 = 0b1110;
    /// a ⊕ b
    pub const XOR: u32 = 0b0110;
    /// ¬(a ⊕ b)
    pub const XNOR: u32 = 0b1001;
    /// a
    pub const PROJ_A: u32 = 0b1010;
    /// b
    pub const PROJ_B: u32 = 0b1100;
    /// constant 0
    pub const ZERO: u32 = 0b0000;
    /// constant 1
    pub const ONE: u32 = 0b1111;
}

/// Pack per-mode 4-bit tables into a vector word.
pub fn pack(modes: &[u32]) -> u32 {
    assert!(modes.len() <= MAX_MODES && !modes.is_empty());
    modes.iter().enumerate().fold(0, |acc, (m, t)| {
        assert!(*t < 16, "a 2-input table is 4 bits");
        acc | (t << (4 * m))
    })
}

/// The same single-mode table in every mode (a mode-invariant gate).
pub fn invariant(table: u32, k: usize) -> u32 {
    pack(&vec![table; k])
}

/// A set of configurable-gate mode vectors under a fixed mode count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyGateSet {
    k: usize,
    gates: Vec<u32>,
}

impl PolyGateSet {
    /// Build from packed gate vectors. Deduplicates; validates the mode
    /// count and that every gate fits in `4k` bits.
    pub fn new(k: usize, gates: Vec<u32>) -> Result<Self, PolyError> {
        if k < 2 {
            return Err(PolyError::TooFewModes { got: k });
        }
        if k > MAX_MODES {
            return Err(PolyError::TooManyModes { got: k, available: MAX_MODES });
        }
        let mut uniq: Vec<u32> = Vec::new();
        let limit = 1u32 << (4 * k);
        for g in gates {
            assert!(g < limit, "gate vector {g:#x} exceeds {k} modes");
            if !uniq.contains(&g) {
                uniq.push(g);
            }
        }
        uniq.sort_unstable();
        Ok(PolyGateSet { k, gates: uniq })
    }

    /// The fabric's gate set: every per-mode choice from the five
    /// device-realisable NAND-cell personalities (`5^k` vectors). This is
    /// what one configured block can be told to do across modes.
    pub fn fabric(k: usize) -> Result<Self, PolyError> {
        use tables::{NAND, NOT_A, NOT_B, ONE, ZERO};
        Self::from_personalities(k, &[NAND, NOT_A, NOT_B, ONE, ZERO])
    }

    /// Gate vectors where every mode draws from the same personality list
    /// (cartesian product), e.g. an ablated fabric.
    pub fn from_personalities(k: usize, personalities: &[u32]) -> Result<Self, PolyError> {
        assert!(!personalities.is_empty());
        let mut gates = Vec::new();
        let mut idx = vec![0usize; k];
        loop {
            gates.push(pack(&idx.iter().map(|&i| personalities[i]).collect::<Vec<_>>()));
            let mut d = 0;
            loop {
                idx[d] += 1;
                if idx[d] < personalities.len() {
                    break;
                }
                idx[d] = 0;
                d += 1;
                if d == k {
                    return Self::new(k, gates);
                }
            }
        }
    }

    /// Mode count.
    pub fn mode_count(&self) -> usize {
        self.k
    }

    /// The (deduplicated, sorted) gate vectors.
    pub fn gates(&self) -> &[u32] {
        &self.gates
    }
}

/// Apply gate vector `g` to argument vectors `(u, v)`, mode-wise: each
/// mode's nibble is one [`COMPOSE`] lookup.
fn compose(k: usize, g: u32, u: u32, v: u32) -> u32 {
    let mut out = 0u32;
    for m in 0..k {
        let nibble = |x: u32| (x >> (4 * m) & 0xF) as usize;
        out |= u32::from(COMPOSE[nibble(g) << 8 | nibble(u) << 4 | nibble(v)]) << (4 * m);
    }
    out
}

/// One mode's composition for every nibble triple: entry
/// `g << 8 | u << 4 | v` is the table of `g(u(a, b), v(a, b))`. Minterm
/// `i`'s bit is `g`'s bit at the minterm `(v_i, u_i)` selects.
const COMPOSE: [u8; 4096] = {
    let mut table = [0u8; 4096];
    let mut nibbles = 0;
    while nibbles < 4096 {
        let (g, u, v) = (nibbles >> 8, nibbles >> 4 & 0xF, nibbles & 0xF);
        let mut w = 0;
        let mut i = 0;
        while i < 4 {
            let j = (v >> i & 1) << 1 | u >> i & 1;
            w |= (g >> j & 1) << i;
            i += 1;
        }
        table[nibbles] = w as u8;
        nibbles += 1;
    }
    table
};

/// Decide completeness: can the set realise every polymorphic function
/// vector? Early-exits once the generating basis (invariant NAND + all
/// constant vectors) is reached; see the module docs for why that basis
/// is equivalent to reaching all `16^k` vectors.
pub fn is_complete(set: &PolyGateSet) -> bool {
    closure_until(set, Some(&basis(set.k))).is_none()
}

/// The full reachable set of function vectors, sorted: the exact
/// fixpoint. It returns as soon as all `16^k` vectors are reached, so a
/// complete set stops early, while an incomplete one pays
/// O(|reached|²·gates) compositions to prove that nothing more is
/// reachable. Prefer [`is_complete`] for the yes/no question.
pub fn closure(set: &PolyGateSet) -> Vec<u32> {
    match closure_until(set, None) {
        Some(reached) => reached,
        None => unreachable!("no target ⇒ full fixpoint is always returned"),
    }
}

fn basis(k: usize) -> Vec<u32> {
    let mut b = vec![invariant(tables::NAND, k)];
    for bits in 0..(1u32 << k) {
        let consts: Vec<u32> =
            (0..k).map(|m| if bits >> m & 1 == 1 { tables::ONE } else { tables::ZERO }).collect();
        b.push(pack(&consts));
    }
    b
}

/// Worklist closure from the projection vectors. With `targets`:
/// returns `None` as soon as every target is reached (complete), or
/// `Some(reached)` at fixpoint with targets missing (incomplete).
/// Without: always `Some(full fixpoint)`, returned as soon as the whole
/// `16^k` space is reached, since nothing can be added after that.
///
/// Each popped vector is paired, under every gate and in both argument
/// orders, with the vectors reached before it was popped. That prefix of
/// `reached` never changes (new vectors are appended), so the pairing
/// walks it by index instead of copying it.
fn closure_until(set: &PolyGateSet, targets: Option<&[u32]>) -> Option<Vec<u32>> {
    let k = set.k;
    let space = 1usize << (4 * k);
    let mut seen = vec![false; space];
    let mut reached: Vec<u32> = Vec::new();
    let mut work: Vec<u32> = Vec::new();
    let mut missing: Vec<u32> = targets.map(<[u32]>::to_vec).unwrap_or_default();
    let push = |f: u32,
                seen: &mut Vec<bool>,
                reached: &mut Vec<u32>,
                work: &mut Vec<u32>,
                missing: &mut Vec<u32>| {
        if !seen[f as usize] {
            seen[f as usize] = true;
            reached.push(f);
            work.push(f);
            missing.retain(|&t| t != f);
        }
    };
    for start in [invariant(tables::PROJ_A, k), invariant(tables::PROJ_B, k)] {
        push(start, &mut seen, &mut reached, &mut work, &mut missing);
    }
    if targets.is_some() && missing.is_empty() {
        return None;
    }
    'closure: while let Some(f) = work.pop() {
        let before = reached.len();
        for &g in &set.gates {
            for i in 0..before {
                let other = reached[i];
                for (u, v) in [(f, other), (other, f)] {
                    let w = compose(k, g, u, v);
                    push(w, &mut seen, &mut reached, &mut work, &mut missing);
                    if targets.is_some() && missing.is_empty() {
                        return None;
                    }
                    if reached.len() == space {
                        break 'closure;
                    }
                }
            }
        }
    }
    reached.sort_unstable();
    Some(reached)
}

#[cfg(test)]
mod tests {
    use super::tables::*;
    use super::*;
    use pmorph_util::rng::StdRng;

    /// Oracle: the mode-wise bit loop, four minterms per mode.
    fn compose_by_bits(k: usize, g: u32, u: u32, v: u32) -> u32 {
        let mut out = 0u32;
        for m in 0..k {
            let gm = g >> (4 * m) & 0xF;
            let um = u >> (4 * m) & 0xF;
            let vm = v >> (4 * m) & 0xF;
            let mut wm = 0u32;
            for i in 0..4 {
                let j = ((vm >> i & 1) << 1) | (um >> i & 1);
                wm |= (gm >> j & 1) << i;
            }
            out |= wm << (4 * m);
        }
        out
    }

    #[test]
    fn the_compose_table_matches_the_bit_loop() {
        for g in 0..16 {
            for u in 0..16 {
                for v in 0..16 {
                    assert_eq!(compose(1, g, u, v), compose_by_bits(1, g, u, v), "{g} {u} {v}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0xc0_4b05e);
        for k in 1..=MAX_MODES {
            let mask = (1u64 << (4 * k)) - 1;
            for _ in 0..2000 {
                let [g, u, v] = [(); 3].map(|_| (rng.next_u64() & mask) as u32);
                assert_eq!(compose(k, g, u, v), compose_by_bits(k, g, u, v), "k {k}");
            }
        }
    }

    #[test]
    fn composition_is_substitution() {
        // NAND(a, b) applied to (PROJ_A, PROJ_B) is NAND itself
        assert_eq!(compose(1, NAND, PROJ_A, PROJ_B), NAND);
        // NAND(x, x) = NOT x
        assert_eq!(compose(1, NAND, PROJ_A, PROJ_A), NOT_A);
        // AND from two NANDs
        let n = compose(1, NAND, PROJ_A, PROJ_B);
        assert_eq!(compose(1, NAND, n, n), AND);
        // per-mode independence: a NAND/NOR vector applied to projections
        let g = pack(&[NAND, NOR]);
        assert_eq!(compose(2, g, invariant(PROJ_A, 2), invariant(PROJ_B, 2)), g);
    }

    #[test]
    fn single_personality_fabrics() {
        // invariant NAND reaches only invariant vectors — incomplete for
        // k ≥ 2, even though NAND is universal classically
        let nand_only = PolyGateSet::new(2, vec![invariant(NAND, 2)]).unwrap();
        assert!(!is_complete(&nand_only));
        let c = closure(&nand_only);
        assert_eq!(c.len(), 16, "closure stays inside the 16 invariant vectors");
        for v in &c {
            assert_eq!(v >> 4, v & 0xF, "every reached vector is mode-invariant");
        }
    }

    #[test]
    fn fabric_gate_set_is_complete() {
        let fabric2 = PolyGateSet::fabric(2).unwrap();
        assert_eq!(fabric2.gates().len(), 25);
        assert!(is_complete(&fabric2));
        assert_eq!(closure(&fabric2).len(), 256, "all 16^2 vectors reachable");
        let fabric3 = PolyGateSet::fabric(3).unwrap();
        assert_eq!(fabric3.gates().len(), 125);
        assert!(is_complete(&fabric3));
    }

    #[test]
    fn monotone_sets_are_incomplete() {
        let s = PolyGateSet::from_personalities(2, &[AND, OR, ZERO, ONE]).unwrap();
        assert!(!is_complete(&s));
        // every reached vector is monotone in every mode
        for v in closure(&s) {
            for m in 0..2 {
                let t = v >> (4 * m) & 0xF;
                for (lo, hi) in [(0u32, 1), (0, 2), (1, 3), (2, 3)] {
                    assert!((t >> lo & 1) <= (t >> hi & 1), "table {t:04b} not monotone");
                }
            }
        }
    }

    #[test]
    fn nand_plus_identity_vector_completes() {
        // invariant NAND + one genuinely polymorphic gate (NAND in mode
        // 0, pass-through of a in mode 1... use NOT_A which composes) —
        // the classic result that a single morphing gate restores
        // completeness
        let s = PolyGateSet::new(2, vec![invariant(NAND, 2), pack(&[NAND, NOT_A])]).unwrap();
        assert!(is_complete(&s));
    }

    #[test]
    fn xor_family_alone_is_incomplete() {
        // the linear fragment is closed under composition
        let s = PolyGateSet::from_personalities(2, &[XOR, XNOR, PROJ_A, PROJ_B]).unwrap();
        assert!(!is_complete(&s));
    }

    #[test]
    fn rejects_bad_mode_counts() {
        assert_eq!(PolyGateSet::new(1, vec![NAND]).unwrap_err(), PolyError::TooFewModes { got: 1 });
        assert_eq!(
            PolyGateSet::new(4, vec![]).unwrap_err(),
            PolyError::TooManyModes { got: 4, available: MAX_MODES }
        );
    }

    #[test]
    fn is_complete_agrees_with_full_closure_on_small_sets() {
        // spot-check the early-exit basis argument against the fixpoint
        for gates in [
            vec![invariant(NAND, 2)],
            vec![invariant(NOR, 2)],
            vec![pack(&[NAND, NOR])],
            vec![pack(&[NAND, NOR]), pack(&[NOR, NAND])],
            vec![invariant(AND, 2), invariant(OR, 2), pack(&[ZERO, ONE])],
        ] {
            let s = PolyGateSet::new(2, gates).unwrap();
            let full = closure(&s).len() == 256;
            assert_eq!(is_complete(&s), full);
        }
    }
}
