//! Regression suite for the wide-cone QM/hazard entry points.
//!
//! The `u8`-cube era had two failure modes past the fabric's natural
//! 6-variable bound:
//!
//! * n in 9..=15: `Cube::minterm` silently truncated minterms to eight
//!   bits, so `minimize`/`hazard_free_cover` returned *wrong covers*
//!   without any panic (distinct minterms aliased onto one cube);
//! * n ≥ 16: `(1u16 << n) - 1` overflowed, a debug-build panic.
//!
//! Every equivalence assertion here fails before the fix for at least
//! one of the widths it covers; past `QM_MAX_VARS` the checked entry
//! points must return a typed `MapError`, never panic.

use pmorph_sim::table::WideMask;
use pmorph_synth::tile::MapError;
use pmorph_synth::{
    hazard_free_cover, is_hazard_free, minimize, try_hazard_free_cover, try_minimize,
    try_prime_implicants, QM_MAX_VARS,
};

#[test]
fn n7_boundary_minimise_and_repair_are_equivalent() {
    // The first width past the single-word u64 comfort zone (the width
    // the issue tracker reported).
    let t = WideMask::from_fn(7, |m| m.count_ones() % 2 == 1);
    let sop = minimize(&t);
    assert_eq!(sop.truth(7), t, "n=7 minimised cover must match");
    assert_eq!(sop.cubes.len(), 1 << 6, "XOR7 minimal cover is 2^(n-1) cubes");

    let f = WideMask::from_fn(7, |m| m % 3 == 0);
    let cover = hazard_free_cover(&f);
    assert_eq!(cover.truth(7), f, "n=7 hazard-free cover must match");
    assert!(is_hazard_free(&f, &cover));
}

#[test]
fn n9_no_silent_truncation() {
    // Pre-fix: minterms 256..512 aliased onto 0..256 through the u8
    // cube, yielding a cover of the wrong function with no diagnostics.
    let t = WideMask::from_fn(9, |m| m % 5 == 0);
    let sop = minimize(&t);
    assert_eq!(sop.truth(9), t, "n=9 cover silently truncated");
    for m in [0u64, 255, 256, 260, 511] {
        assert_eq!(sop.eval(m), t.get(m), "minterm {m} must not alias mod 256");
    }
}

#[test]
fn n12_equivalence_and_hazard_repair() {
    // Upper edge of the exact-QM bound, sparse ON-set so the merge loop
    // stays fast.
    let t = WideMask::from_fn(12, |m| m % 341 == 0);
    let sop = try_minimize(&t).expect("n=12 is within QM_MAX_VARS");
    assert_eq!(sop.truth(12), t);

    let cover = try_hazard_free_cover(&t).expect("n=12 repair in range");
    assert_eq!(cover.truth(12), t);
    assert!(is_hazard_free(&t, &cover));
}

#[test]
fn past_the_bound_is_a_typed_error_not_a_panic() {
    // Pre-fix, n=16 died in Cube::minterm on a u16 shift overflow before
    // any cover was built. Now every checked entry point reports the
    // width it was given and the bound it enforces.
    for n in [QM_MAX_VARS + 1, 16] {
        let t = WideMask::from_fn(n, |m| m == 0);
        for err in [
            try_minimize(&t).unwrap_err(),
            try_prime_implicants(&t).map(|_| ()).unwrap_err(),
            try_hazard_free_cover(&t).map(|_| ()).unwrap_err(),
        ] {
            assert_eq!(err, MapError::TooManyVars { needed: n, available: QM_MAX_VARS });
        }
    }
}

#[test]
fn checked_and_unchecked_agree_in_range() {
    for n in [3usize, 7, 10] {
        let t = WideMask::from_fn(n, |m| (m * 2654435761) % 7 < 3);
        assert_eq!(try_minimize(&t).unwrap(), minimize(&t), "n={n}");
    }
}
