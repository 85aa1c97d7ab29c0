//! The bisection routine behind every device solver.
//!
//! Each solver brackets the root of a monotone function and halves the
//! bracket a fixed number of times. Two exit rules stop early without
//! moving a single bit of the answer:
//!
//! * **Closed bracket.** Once `mid = 0.5·(lo + hi)` has the bits of `lo`
//!   or `hi`, the bracket spans at most two adjacent floats. Whichever end
//!   moves, every later step recomputes this same `mid`, so the full step
//!   count would return exactly it.
//! * **Settled.** Every later midpoint, and so the full-count answer,
//!   lies in the current bracket. A caller that only needs the answer's
//!   side of some level can stop once the whole bracket lies on one side.

/// Bisect `[lo, hi]` for at most `steps` halvings. `root_below(mid)` says
/// the root lies at or below `mid`, which moves the upper end down to
/// `mid`; otherwise the lower end moves up. Returns the final midpoint,
/// bit for bit the value a plain `steps`-iteration loop returns.
pub(crate) fn bisect(lo: f64, hi: f64, steps: u32, root_below: impl FnMut(f64) -> bool) -> f64 {
    bisect_until(lo, hi, steps, root_below, |_, _| false)
}

/// [`bisect`] that also stops as soon as `settled(lo, hi)` holds. It then
/// returns the current bracket's midpoint, which lies in `[lo, hi]` like
/// the full-count answer does.
pub(crate) fn bisect_until(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut root_below: impl FnMut(f64) -> bool,
    mut settled: impl FnMut(f64, f64) -> bool,
) -> f64 {
    for _ in 0..steps {
        if settled(lo, hi) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        // bitwise, so a -0.0 midpoint beside a +0.0 end is not yet closed
        if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
            return mid;
        }
        #[cfg(test)]
        tests::EVALS.with(|n| n.set(n.get() + 1));
        if root_below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmorph_util::rng::{Rng, StdRng};
    use std::cell::Cell;

    thread_local! {
        /// Predicate evaluations made by [`bisect_until`] on this thread.
        pub(crate) static EVALS: Cell<u64> = const { Cell::new(0) };
    }

    /// Predicate evaluations `f` makes through the bisection routine.
    pub(crate) fn evals_of<T>(f: impl FnOnce() -> T) -> u64 {
        let before = EVALS.with(Cell::get);
        f();
        EVALS.with(Cell::get) - before
    }

    /// Oracle: the plain fixed-count loop, with no early exit.
    pub(crate) fn fixed_count(
        mut lo: f64,
        mut hi: f64,
        steps: u32,
        mut root_below: impl FnMut(f64) -> bool,
    ) -> f64 {
        for _ in 0..steps {
            let mid = 0.5 * (lo + hi);
            if root_below(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// A random bracket: ordinary spans, spans hugging zero from either
    /// side, and negative spans.
    fn bracket(rng: &mut StdRng) -> (f64, f64) {
        let a = rng.random_range(-2.0..2.0);
        let b = rng.random_range(-2.0..2.0);
        match rng.random_range(0u64..4) {
            0 => (a.min(b), a.max(b)),
            1 => (0.0, a.abs()),
            2 => (-a.abs(), 0.0),
            _ => (-a.abs() - 2.0, -b.abs()),
        }
    }

    #[test]
    fn matches_the_fixed_count_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xb15ec7);
        for case in 0..4000 {
            let (lo, hi) = bracket(&mut rng);
            let steps = [40, 60, 70, 80, 200][case % 5];
            let root = match case % 4 {
                // roots next to zero: 80 halvings end before the bracket closes
                0 => (lo + hi).signum() * 1e-30 * rng.random_range(0.0..1.0),
                1 => lo,
                2 => hi,
                _ => lo + (hi - lo) * rng.random_range(0.0..1.0),
            };
            let want = fixed_count(lo, hi, steps, |m| m >= root);
            let got = bisect(lo, hi, steps, |m| m >= root);
            assert_eq!(got.to_bits(), want.to_bits(), "[{lo}, {hi}] root {root} steps {steps}");
        }
    }

    #[test]
    fn constant_predicates_match_the_fixed_count_loop() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let (lo, hi) = bracket(&mut rng);
            for answer in [true, false] {
                for steps in [60, 80, 1200] {
                    let want = fixed_count(lo, hi, steps, |_| answer);
                    let got = bisect(lo, hi, steps, |_| answer);
                    assert_eq!(got.to_bits(), want.to_bits(), "[{lo}, {hi}] always {answer}");
                }
            }
        }
    }

    /// Both settled comparisons the device solvers make, `> level` and
    /// `< level`, against the full-count answer.
    fn assert_settled_comparisons_match(lo: f64, hi: f64, root: f64, level: f64) {
        let full = fixed_count(lo, hi, 80, |m| m >= root);
        let above = bisect_until(lo, hi, 80, |m| m >= root, |l, h| h <= level || l > level);
        let below = bisect_until(lo, hi, 80, |m| m >= root, |l, h| h < level || l >= level);
        assert_eq!(above > level, full > level, "[{lo}, {hi}] root {root} > level {level}");
        assert_eq!(below < level, full < level, "[{lo}, {hi}] root {root} < level {level}");
    }

    #[test]
    fn settled_comparison_matches_the_full_solve() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4000 {
            let (lo, hi) = bracket(&mut rng);
            let root = lo + (hi - lo) * rng.random_range(0.0..1.0);
            // levels at, around and outside the root, including exact ties
            let level = match rng.random_range(0u64..4) {
                0 => root,
                1 => root + (hi - lo) * rng.random_range(-1e-12..1e-12),
                2 => lo + (hi - lo) * rng.random_range(-0.5..1.5),
                _ => fixed_count(lo, hi, 80, |m| m >= root),
            };
            assert_settled_comparisons_match(lo, hi, root, level);
        }
        // a root and level on a midpoint the bisection visits, as VDD/2 is
        // the first midpoint of an output solve over [0, VDD]: the bracket
        // then has the level as an end while it is still wide
        let mut rng = StdRng::seed_from_u64(98);
        for _ in 0..4000 {
            let (lo, hi) = bracket(&mut rng);
            let (mut a, mut b) = (lo, hi);
            for _ in 0..rng.random_range(0u64..6) {
                let m = 0.5 * (a + b);
                if rng.random_range(0u64..2) == 0 {
                    a = m;
                } else {
                    b = m;
                }
            }
            let root = 0.5 * (a + b);
            assert_settled_comparisons_match(lo, hi, root, root);
        }
    }

    #[test]
    fn a_closed_bracket_stops_the_loop() {
        let n = evals_of(|| bisect(0.0, 1.0, 1000, |m| m >= 0.3));
        assert!(n < 60, "{n} evaluations for a root inside [0, 1]");
        let n = evals_of(|| bisect(0.0, 1.0, 80, |m| m >= 1e-30));
        assert_eq!(n, 80, "a root next to zero needs every step");
    }
}
