//! Two-level minimisation: Quine–McCluskey with greedy cover selection.
//!
//! A block pair natively evaluates a ≤6-term sum-of-products, so the
//! mapper wants the *smallest* SOP cover of each function. At ≤6 variables
//! exact prime-implicant generation is trivial; cover selection picks
//! essential primes first, then greedily by coverage (optimal enough at
//! this scale, and validated against the input truth table by property
//! tests).
//!
//! Wider cones are legal inputs too — mapping-flow *checks* routinely
//! minimise 7–12 variable functions — so [`Cube`] carries `u32`
//! care/value words (matching [`WideMask`]'s 20-variable range) and the
//! checked entry points ([`try_prime_implicants`], [`try_minimize`])
//! refuse anything past [`QM_MAX_VARS`] with a typed
//! [`MapError::TooManyVars`] instead of running the O(minterms²) merge
//! loop into the ground. The `u8`-cube era silently truncated minterms at
//! n ≥ 9 and produced *wrong covers* without any panic; the regression
//! suite in `tests/wide_qm.rs` pins the repaired behaviour.
//!
use crate::tile::MapError;
use pmorph_sim::table::WideMask;

/// Exact Quine–McCluskey stays tractable to about this many variables
/// (minterm-pair merging is quadratic in the ON-set, which can reach
/// `2^n`). The checked entry points reject wider tables with a typed
/// error; the fabric's own mapping flow never needs more than 6.
pub const QM_MAX_VARS: usize = 12;

/// A product term (cube) over up to [`Cube::MAX_VARS`] variables:
/// variable `v` appears iff bit `v` of `care` is set, with the polarity
/// given by bit `v` of `value`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cube {
    /// Cared-variable mask.
    pub care: u32,
    /// Polarities of cared variables (uncared bits zero).
    pub value: u32,
}

impl Cube {
    /// Widest minterm a cube can carry — comfortably past
    /// `WideMask::MAX_VARS`, so every representable truth table fits.
    pub const MAX_VARS: usize = 32;

    /// The full-care cube of a single minterm.
    pub fn minterm(n: usize, m: u64) -> Self {
        assert!(n <= Self::MAX_VARS, "cube holds at most {} variables (got {n})", Self::MAX_VARS);
        let care = if n == Self::MAX_VARS { u32::MAX } else { (1u32 << n) - 1 };
        Cube { care, value: (m as u32) & care }
    }

    /// Does this cube cover minterm `m`?
    #[inline]
    pub fn covers(&self, m: u64) -> bool {
        (m as u32) & self.care == self.value
    }

    /// Number of literals in the product.
    pub fn literals(&self) -> u32 {
        self.care.count_ones()
    }

    /// Merge two cubes differing in exactly one cared bit.
    fn merge(&self, other: &Cube) -> Option<Cube> {
        if self.care != other.care {
            return None;
        }
        let diff = self.value ^ other.value;
        if diff.count_ones() == 1 {
            Some(Cube { care: self.care & !diff, value: self.value & !diff })
        } else {
            None
        }
    }

    /// The literals as `(variable, positive)` pairs.
    pub fn literal_list(&self) -> Vec<(usize, bool)> {
        (0..Self::MAX_VARS)
            .filter(|v| self.care >> v & 1 == 1)
            .map(|v| (v, self.value >> v & 1 == 1))
            .collect()
    }
}

/// A sum-of-products cover.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Sop {
    /// The product terms.
    pub cubes: Vec<Cube>,
}

impl Sop {
    /// Evaluate the cover on a minterm.
    pub fn eval(&self, m: u64) -> bool {
        self.cubes.iter().any(|c| c.covers(m))
    }

    /// Truth table of the cover.
    pub fn truth(&self, n: usize) -> WideMask {
        WideMask::from_fn(n, |m| self.eval(m))
    }

    /// Total literal count.
    pub fn literals(&self) -> u32 {
        self.cubes.iter().map(|c| c.literals()).sum()
    }
}

/// Reject tables past the exact-QM tractability bound with a typed error.
fn check_width(tt: &WideMask) -> Result<(), MapError> {
    if tt.vars() > QM_MAX_VARS {
        return Err(MapError::TooManyVars { needed: tt.vars(), available: QM_MAX_VARS });
    }
    Ok(())
}

/// Width-checked [`prime_implicants`]: `Err(MapError::TooManyVars)` past
/// [`QM_MAX_VARS`] instead of a panic or an intractable run.
pub fn try_prime_implicants(tt: &WideMask) -> Result<Vec<Cube>, MapError> {
    check_width(tt)?;
    Ok(prime_implicants(tt))
}

/// Width-checked [`minimize`]: `Err(MapError::TooManyVars)` past
/// [`QM_MAX_VARS`] instead of a panic or an intractable run.
pub fn try_minimize(tt: &WideMask) -> Result<Sop, MapError> {
    check_width(tt)?;
    Ok(minimize(tt))
}

/// All prime implicants of `tt` (classic iterated-merging pass).
pub fn prime_implicants(tt: &WideMask) -> Vec<Cube> {
    let n = tt.vars();
    let mut current: Vec<Cube> = tt.minterms().map(|m| Cube::minterm(n, m)).collect();
    let mut primes = Vec::new();
    while !current.is_empty() {
        let mut merged_flag = vec![false; current.len()];
        let mut next = Vec::new();
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                if let Some(m) = current[i].merge(&current[j]) {
                    merged_flag[i] = true;
                    merged_flag[j] = true;
                    if !next.contains(&m) {
                        next.push(m);
                    }
                }
            }
        }
        for (i, c) in current.iter().enumerate() {
            if !merged_flag[i] && !primes.contains(c) {
                primes.push(*c);
            }
        }
        current = next;
    }
    primes
}

/// Minimise `tt` into an SOP cover: essential primes first, then a greedy
/// maximum-coverage completion. The constant-1 function yields one empty
/// cube; constant-0 yields no cubes.
pub fn minimize(tt: &WideMask) -> Sop {
    if tt.count_ones() == 0 {
        return Sop::default();
    }
    let primes = prime_implicants(tt);
    let minterms: Vec<u64> = tt.minterms().collect();
    let cover_sets: Vec<Vec<usize>> = primes
        .iter()
        .map(|p| {
            minterms.iter().enumerate().filter(|(_, m)| p.covers(**m)).map(|(i, _)| i).collect()
        })
        .collect();

    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![false; minterms.len()];
    // Essential primes: a minterm covered by exactly one prime.
    for (mi, _) in minterms.iter().enumerate() {
        let covering: Vec<usize> =
            (0..primes.len()).filter(|p| cover_sets[*p].contains(&mi)).collect();
        if covering.len() == 1 && !chosen.contains(&covering[0]) {
            chosen.push(covering[0]);
            for &c in &cover_sets[covering[0]] {
                covered[c] = true;
            }
        }
    }
    // Greedy completion: most new minterms, ties by fewest literals.
    while covered.iter().any(|c| !*c) {
        let best = (0..primes.len())
            .filter(|p| !chosen.contains(p))
            .max_by_key(|p| {
                let new = cover_sets[*p].iter().filter(|&&m| !covered[m]).count();
                (new, std::cmp::Reverse(primes[*p].literals()))
            })
            .expect("uncovered minterm must have a covering prime");
        chosen.push(best);
        for &c in &cover_sets[best] {
            covered[c] = true;
        }
    }
    Sop { cubes: chosen.into_iter().map(|i| primes[i]).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_constant_functions() {
        assert!(minimize(&WideMask::zero(3)).cubes.is_empty());
        let one = minimize(&WideMask::ones(3));
        assert_eq!(one.cubes.len(), 1);
        assert_eq!(one.cubes[0].literals(), 0, "tautology cube");
    }

    #[test]
    fn minimize_single_variable() {
        let sop = minimize(&WideMask::var(3, 1));
        assert_eq!(sop.cubes.len(), 1);
        assert_eq!(sop.cubes[0].literal_list(), vec![(1, true)]);
    }

    #[test]
    fn minimize_or_is_two_cubes() {
        let f = WideMask::var(2, 0).or(&WideMask::var(2, 1));
        let sop = minimize(&f);
        assert_eq!(sop.cubes.len(), 2);
        assert_eq!(sop.truth(2), f);
    }

    #[test]
    fn xor_needs_2_pow_n_minus_1_cubes() {
        for n in 2..=4 {
            let f = WideMask::from_fn(n, |m| m.count_ones() % 2 == 1);
            let sop = minimize(&f);
            assert_eq!(sop.cubes.len(), 1 << (n - 1), "XOR{n} minimal cover");
            assert_eq!(sop.truth(n), f);
        }
    }

    #[test]
    fn majority_is_three_cubes_of_two_literals() {
        let sop = minimize(&WideMask::from_fn(3, |m| m.count_ones() >= 2));
        assert_eq!(sop.cubes.len(), 3);
        assert!(sop.cubes.iter().all(|c| c.literals() == 2));
    }

    #[test]
    fn exhaustive_equivalence_3vars() {
        // Every 3-variable function minimises to an equivalent cover.
        for bits in 0..256u64 {
            let f = WideMask::from_u64(3, bits);
            let sop = minimize(&f);
            assert_eq!(sop.truth(3), f, "bits {bits:08b}");
        }
    }

    #[test]
    fn primes_cover_all_minterms() {
        let f = WideMask::from_u64(4, 0xBEEF);
        let primes = prime_implicants(&f);
        for m in f.minterms() {
            assert!(primes.iter().any(|p| p.covers(m)));
        }
        // and no prime covers a zero
        for m in 0..16 {
            if !f.get(m) {
                assert!(!primes.iter().any(|p| p.covers(m)));
            }
        }
    }
}
