//! Truth tables over the shared multi-word mask type.
//!
//! Six variables is the fabric's natural bound — a block has six input
//! columns, and a block pair is "the equivalent of a small LUT with 6
//! inputs, 6 outputs and 6 product-terms" (paper §4) — but mapping-flow
//! *checks* routinely look at wider cones, so the table is backed by
//! [`WideMask`] (up to [`WideMask::MAX_VARS`] variables) rather than a
//! bare `u64`. The single-word accessors ([`TruthTable::bits`],
//! [`TruthTable::from_bits`]) keep their `n ≤ 6` contract and assert it,
//! replacing the old `(1 << (1 << n)) - 1` mask computation that sat one
//! careless call away from a shift-by-64 overflow.

use pmorph_sim::table::WideMask;

/// A boolean function of `n` variables, stored as a `2^n`-bit minterm
/// mask with minterm `m`'s value in bit `m` (variable 0 is the
/// least-significant index bit). No longer `Copy`: wide tables own their
/// words — clone explicitly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TruthTable {
    mask: WideMask,
}

impl TruthTable {
    /// Build from an explicit single-word bit mask (`n ≤ 6` — a `u64`
    /// cannot hold more; wider functions come from [`TruthTable::from_fn`]
    /// or [`TruthTable::from_mask`]).
    pub fn from_bits(n: usize, bits: u64) -> Self {
        assert!(n <= 6, "a u64 mask holds at most 6 variables");
        TruthTable { mask: WideMask::from_u64(n, bits) }
    }

    /// Build from a multi-word mask.
    pub fn from_mask(mask: WideMask) -> Self {
        TruthTable { mask }
    }

    /// Build by evaluating `f` on every minterm.
    pub fn from_fn(n: usize, f: impl FnMut(u64) -> bool) -> Self {
        TruthTable { mask: WideMask::from_fn(n, f) }
    }

    /// Constant-false function.
    pub fn zero(n: usize) -> Self {
        TruthTable { mask: WideMask::zero(n) }
    }

    /// Constant-true function.
    pub fn one(n: usize) -> Self {
        TruthTable { mask: WideMask::ones(n) }
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.mask.vars()
    }

    /// Raw single-word mask (`n ≤ 6` only — wide tables via
    /// [`TruthTable::mask`]).
    pub fn bits(&self) -> u64 {
        self.mask.as_u64()
    }

    /// The backing multi-word mask.
    pub fn mask(&self) -> &WideMask {
        &self.mask
    }

    /// Value at a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        self.mask.get(minterm)
    }

    /// Iterator over the true minterms.
    pub fn minterms(&self) -> impl Iterator<Item = u64> + '_ {
        self.mask.minterms()
    }

    /// Number of true minterms (≤ 2^20, so `u32` suffices).
    pub fn count_ones(&self) -> u32 {
        self.mask.count_ones() as u32
    }

    /// Complement.
    pub fn not(&self) -> Self {
        TruthTable { mask: self.mask.not() }
    }

    /// Pointwise AND (same arity required).
    pub fn and(&self, other: &Self) -> Self {
        TruthTable { mask: self.mask.and(&other.mask) }
    }

    /// Pointwise OR.
    pub fn or(&self, other: &Self) -> Self {
        TruthTable { mask: self.mask.or(&other.mask) }
    }

    /// Pointwise XOR.
    pub fn xor(&self, other: &Self) -> Self {
        TruthTable { mask: self.mask.xor(&other.mask) }
    }

    /// Shannon cofactor with variable `v` fixed to `value`, returned as a
    /// function of the remaining `n−1` variables (higher variables shift
    /// down by one).
    pub fn cofactor(&self, v: usize, value: bool) -> Self {
        assert!(v < self.vars());
        let n = self.vars() - 1;
        TruthTable::from_fn(n, |m| {
            let low = m & ((1 << v) - 1);
            let high = (m >> v) << (v + 1);
            let full = low | high | ((value as u64) << v);
            self.eval(full)
        })
    }

    /// True if the function actually depends on variable `v`.
    pub fn depends_on(&self, v: usize) -> bool {
        self.mask.depends_on(v)
    }

    /// Single-variable projection `f = x_v`.
    pub fn var(n: usize, v: usize) -> Self {
        TruthTable { mask: WideMask::var(n, v) }
    }

    /// n-ary XOR (odd parity).
    pub fn parity(n: usize) -> Self {
        Self::from_fn(n, |m| m.count_ones() % 2 == 1)
    }

    /// Majority of 3 (n must be 3).
    pub fn majority3() -> Self {
        Self::from_fn(3, |m| m.count_ones() >= 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_projection() {
        let t = TruthTable::var(3, 1);
        for m in 0..8 {
            assert_eq!(t.eval(m), m >> 1 & 1 == 1);
        }
    }

    #[test]
    fn boolean_ops() {
        let x = TruthTable::var(2, 0);
        let y = TruthTable::var(2, 1);
        assert_eq!(x.and(&y).bits(), 0b1000);
        assert_eq!(x.or(&y).bits(), 0b1110);
        assert_eq!(x.xor(&y).bits(), 0b0110);
        assert_eq!(x.not().bits(), 0b0101);
    }

    #[test]
    fn cofactor_recombination() {
        // Shannon expansion: f = x̄v·f0 ∨ xv·f1
        let f = TruthTable::from_bits(3, 0b1011_0010);
        for v in 0..3 {
            let f0 = f.cofactor(v, false);
            let f1 = f.cofactor(v, true);
            let rebuilt = TruthTable::from_fn(3, |m| {
                let low = m & ((1 << v) - 1);
                let high = (m >> (v + 1)) << v;
                let sub = low | high;
                if m >> v & 1 == 1 {
                    f1.eval(sub)
                } else {
                    f0.eval(sub)
                }
            });
            assert_eq!(rebuilt, f, "var {v}");
        }
    }

    #[test]
    fn depends_on_detects_vacuous_vars() {
        let f = TruthTable::var(3, 2);
        assert!(!f.depends_on(0));
        assert!(!f.depends_on(1));
        assert!(f.depends_on(2));
    }

    #[test]
    fn parity_and_majority() {
        assert_eq!(TruthTable::parity(2).bits(), 0b0110);
        assert_eq!(TruthTable::majority3().bits(), 0b1110_1000);
    }

    #[test]
    fn six_var_boundary_fills_the_word_exactly() {
        // the 6-variable boundary is where the old mask computation
        // (1 << (1 << n)) - 1 would have shifted by 64
        let t = TruthTable::one(6);
        assert_eq!(t.bits(), u64::MAX);
        assert_eq!(t.count_ones(), 64);
        assert_eq!(TruthTable::from_bits(6, u64::MAX).count_ones(), 64);
    }

    #[test]
    fn seven_var_tables_span_two_words() {
        // one word past the u64 boundary: parity of 7 variables has
        // exactly 64 minterms spread over both words
        let t = TruthTable::parity(7);
        assert_eq!(t.vars(), 7);
        assert_eq!(t.count_ones(), 64);
        assert_eq!(t.mask().words().len(), 2);
        assert!(t.mask().words().iter().all(|&w| w != 0));
        assert!(t.eval(127) && !t.eval(126), "high-word minterms readable");
        // cofactoring a 7-var table lands back on a single word
        let c = t.cofactor(6, true);
        assert_eq!(c, TruthTable::parity(6).not());
        // wide tables refuse the single-word accessor
        assert!(std::panic::catch_unwind(|| t.bits()).is_err());
    }
}
