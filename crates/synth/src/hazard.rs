//! Hazard analysis for asynchronous covers (paper §4.1).
//!
//! > "Current programmable systems tend not to support hazard-free logic
//! > implementations \[47\]."
//!
//! The fabric's two-level NAND-NAND structure makes hazard reasoning
//! tractable: a **static-1 hazard** exists for a single-input-change (SIC)
//! transition between two ON-set minterms iff no single product term
//! covers *both* endpoints (the momentary gap lets the OR output glitch
//! low). The classic repair is to add the consensus (redundant) cube —
//! exactly what the latch equations in [`crate::seq`] carry
//! (`y = en·d + ēn·y + d·y`). This module detects SIC static-1 hazards in
//! a cover and repairs them with prime consensus cubes.

use crate::qm::{prime_implicants, Sop};
use pmorph_sim::table::WideMask;

/// A single-input-change transition with a static-1 hazard under `cover`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// Start minterm (in the ON-set).
    pub from: u64,
    /// End minterm (in the ON-set), differing in exactly one variable.
    pub to: u64,
    /// The changing variable.
    pub var: usize,
}

/// Find all SIC static-1 hazards of `cover` for function `tt`: ON-ON
/// transitions where no single cube covers both endpoints.
pub fn static1_hazards(tt: &WideMask, cover: &Sop) -> Vec<Hazard> {
    let n = tt.vars();
    let mut out = Vec::new();
    for from in 0..(1u64 << n) {
        if !tt.get(from) {
            continue;
        }
        for var in 0..n {
            let to = from ^ (1 << var);
            if to < from || !tt.get(to) {
                continue; // count each unordered pair once
            }
            let covered = cover.cubes.iter().any(|c| c.covers(from) && c.covers(to));
            if !covered {
                out.push(Hazard { from, to, var });
            }
        }
    }
    out
}

/// Repair a cover: for every hazardous transition add a prime implicant
/// covering both endpoints (one always exists — the merged pair is an
/// implicant, hence contained in some prime). Returns the augmented,
/// hazard-free cover.
pub fn make_hazard_free(tt: &WideMask, cover: &Sop) -> Sop {
    let primes = prime_implicants(tt);
    let mut cubes = cover.cubes.clone();
    for h in static1_hazards(tt, cover) {
        let fix = primes
            .iter()
            .find(|p| p.covers(h.from) && p.covers(h.to))
            .copied()
            .expect("a prime covering an ON-ON SIC pair always exists");
        if !cubes.contains(&fix) {
            cubes.push(fix);
        }
    }
    Sop { cubes }
}

/// Convenience: a minimal-then-repaired cover of `tt`, ready for mapping
/// onto a block pair as an asynchronous (hazard-free) function.
pub fn hazard_free_cover(tt: &WideMask) -> Sop {
    let base = crate::qm::minimize(tt);
    make_hazard_free(tt, &base)
}

/// Width-checked [`hazard_free_cover`]: wide cones get a typed
/// [`crate::tile::MapError::TooManyVars`] past [`crate::qm::QM_MAX_VARS`]
/// rather than a panic or an intractable minimisation.
pub fn try_hazard_free_cover(tt: &WideMask) -> Result<Sop, crate::tile::MapError> {
    let base = crate::qm::try_minimize(tt)?;
    Ok(make_hazard_free(tt, &base))
}

/// Quick check used by tests and the async tiles.
pub fn is_hazard_free(tt: &WideMask, cover: &Sop) -> bool {
    static1_hazards(tt, cover).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qm::minimize;

    /// The canonical example: a D latch `q = en·d + ēn·q` has a static-1
    /// hazard on the en transition with d = q = 1; the consensus term
    /// `d·q` repairs it.
    #[test]
    fn latch_cover_hazard_and_consensus_repair() {
        // vars: 0 = d, 1 = en, 2 = q
        let tt = WideMask::from_fn(3, |m| {
            let d = m & 1 == 1;
            let en = m >> 1 & 1 == 1;
            let q = m >> 2 & 1 == 1;
            if en {
                d
            } else {
                q
            }
        });
        let minimal = minimize(&tt);
        // The minimal cover is the two-cube latch equation and has the
        // classic hazard…
        let hz = static1_hazards(&tt, &minimal);
        assert!(!hz.is_empty(), "minimal latch cover must exhibit the en-transition hazard");
        assert!(hz.iter().all(|h| h.var == 1), "hazard is on the enable: {hz:?}");
        // …and the repair adds the consensus cube d·q.
        let fixed = make_hazard_free(&tt, &minimal);
        assert!(is_hazard_free(&tt, &fixed));
        assert_eq!(fixed.truth(3), tt, "repair must not change the function");
        assert_eq!(fixed.cubes.len(), minimal.cubes.len() + 1);
        let consensus = fixed.cubes.last().unwrap();
        assert_eq!(consensus.literal_list(), vec![(0, true), (2, true)], "d·q");
    }

    #[test]
    fn xor_cover_is_hazard_free_already() {
        // XOR has no adjacent ON-set pairs at Hamming distance 1, so no
        // SIC static-1 hazards exist by construction.
        let tt = WideMask::from_fn(3, |m| m.count_ones() % 2 == 1);
        let cover = minimize(&tt);
        assert!(is_hazard_free(&tt, &cover));
    }

    #[test]
    fn single_cube_functions_are_hazard_free() {
        let tt = WideMask::from_fn(3, |m| m & 0b11 == 0b11); // d·e
        let cover = minimize(&tt);
        assert!(is_hazard_free(&tt, &cover));
    }

    #[test]
    fn repair_never_breaks_equivalence_exhaustive_3vars() {
        for bits in 0..256u64 {
            let tt = WideMask::from_u64(3, bits);
            let cover = hazard_free_cover(&tt);
            assert_eq!(cover.truth(3), tt, "bits {bits:#x}");
            assert!(is_hazard_free(&tt, &cover), "bits {bits:#x}");
        }
    }

    #[test]
    fn repaired_covers_still_fit_block_pairs_usually() {
        // hazard-free covers cost extra terms; check how many 3-var
        // functions still fit the 6-term budget (all of them do: a 3-var
        // function has at most 2^2=4 primes of size ≥2... in fact ≤ 6).
        let mut worst = 0;
        for bits in 0..256u64 {
            let tt = WideMask::from_u64(3, bits);
            worst = worst.max(hazard_free_cover(&tt).cubes.len());
        }
        assert!(worst <= 6, "worst hazard-free 3-var cover: {worst} terms");
    }
}
