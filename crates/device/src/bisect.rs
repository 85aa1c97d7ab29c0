//! The bisection routine behind every device solver.
//!
//! Each solver brackets the root of a monotone function and halves the
//! bracket a fixed number of times. Three exit rules stop early without
//! moving a single bit of the answer:
//!
//! * **Closed bracket.** Once `mid = 0.5·(lo + hi)` has the bits of `lo`
//!   or `hi`, the bracket spans at most two adjacent floats. Whichever end
//!   moves, every later step recomputes this same `mid`, so the full step
//!   count would return exactly it.
//! * **Settled.** Every later midpoint, and so the full-count answer,
//!   lies in the current bracket. A caller that only needs the answer's
//!   side of some level can stop once the whole bracket lies on one side.
//! * **First midpoint.** [`FirstMidpoint`] asks the settled question for
//!   one level, `L = 0.5·(lo + hi)`: does the answer lie above the first
//!   midpoint? If `root_below(L)` holds, the answer is "not above" after
//!   one evaluation. Otherwise `lo` becomes `L`, and the upper end walks
//!   down through `m₁ = 0.5·(L + hi)`, `m_{k+1} = 0.5·(L + m_k)`. Those
//!   points depend only on `L`, `hi` and the step budget, not on the
//!   predicate. The walk answers "above" at the first `m_k` where
//!   `root_below` fails. Otherwise it ends where the bracket closes or the
//!   budget runs out, on a point that is fixed in advance and lies above
//!   `L` or not. So the answer is an OR over a fixed list of points. Its
//!   value does not depend on the order in which they are evaluated, and
//!   it needs no monotone predicate. The walk from `m₁` costs about
//!   `log₂((hi − L)/(root − L))` evaluations, most of them when the root
//!   sits just above `L`. The rule evaluates the point nearest `L` first
//!   instead, which answers every root above that point in one
//!   evaluation, and it finds the list once per bracket and budget. A
//!   first midpoint that is not strictly inside the bracket is never
//!   exceeded: the bisection settles or closes on it at once.
//!
//! [`Bisection`] is the resumable form: the bracket and the budget left,
//! advanced one halving at a time by [`Bisection::step`]. The answer is
//! always the current bracket's midpoint. Each step keeps one half of
//! the bracket, and the midpoint of two floats in `[lo, hi]` lies in
//! `[lo, hi]` (rounded addition and halving are monotone), so every
//! bracket the bisection passes through holds its final answer. A caller
//! can therefore stop a solve, bound its answer by the bracket, and
//! resume it later with no evaluation repeated. [`bisect_until`] is a
//! loop over it, so the halving rule and the closed exit are written
//! once.

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
    lo: f64,
    hi: f64,
    steps: u32,
    mut root_below: impl FnMut(f64) -> bool,
    mut settled: impl FnMut(f64, f64) -> bool,
) -> f64 {
    let mut bisection = Bisection::new(lo, hi, steps);
    while !settled(bisection.lo, bisection.hi) && bisection.step(&mut root_below) {}
    bisection.answer()
}

/// A bisection that can stop after any halving and resume later, the
/// form [`bisect_until`] loops over. Stepped until [`Self::step`] returns
/// false, it ends on the answer [`bisect`] returns, bit for bit.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Bisection {
    lo: f64,
    hi: f64,
    /// Halvings left in the budget.
    steps: u32,
}

impl Bisection {
    /// A bisection of `[lo, hi]` with at most `steps` halvings.
    pub(crate) fn new(lo: f64, hi: f64, steps: u32) -> Self {
        Bisection { lo, hi, steps }
    }

    /// The current bracket `(lo, hi)`, which holds the final answer.
    pub(crate) fn bracket(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Whether no halving is left: the budget is spent or the bracket
    /// has closed. [`Self::answer`] is then the final answer.
    pub(crate) fn ended(&self) -> bool {
        self.steps == 0 || closed(self.answer(), self.lo, self.hi)
    }

    /// One halving of [`bisect_until`]: evaluate `root_below` at the
    /// midpoint and move one end to it. Returns false, evaluating
    /// nothing, once the bisection has ended.
    pub(crate) fn step(&mut self, mut root_below: impl FnMut(f64) -> bool) -> bool {
        if self.ended() {
            return false;
        }
        let mid = self.answer();
        self.steps -= 1;
        if eval(&mut root_below, mid) {
            self.hi = mid;
        } else {
            self.lo = mid;
        }
        true
    }

    /// The current bracket's midpoint: what the bisection returns if it
    /// stops now, and the final answer once it has ended.
    pub(crate) fn answer(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// The first-midpoint rule for one bracket and step budget: whether
/// [`bisect_until`] under the settled rule for the first midpoint
/// `level = 0.5·(lo + hi)` ends above that level, the value of
/// `bisect_until(lo, hi, steps, root_below, |l, h| h <= level || l > level) > level`.
/// The walk's points depend only on the bracket and the budget, so
/// [`Self::new`] finds them once and each [`Self::above`] reuses them.
#[derive(Copy, Clone, Debug)]
pub(crate) struct FirstMidpoint {
    hi: f64,
    level: f64,
    /// The answer can be "above" at all: the budget allows a step and
    /// `level` lies strictly inside the bracket. Otherwise the bisection
    /// settles or closes at once on `level` itself, or `level` is NaN.
    open: bool,
    /// Upper ends the walk evaluates before the budget runs out or the
    /// bracket closes.
    n: u32,
    /// The last of them, the nearest `level`.
    last: f64,
    /// The point the bisection returns after them lies above `level`.
    end_above: bool,
}

impl FirstMidpoint {
    /// The rule for `[lo, hi]` and at most `steps` halvings.
    pub(crate) fn new(lo: f64, hi: f64, steps: u32) -> Self {
        let level = 0.5 * (lo + hi);
        let open = steps > 0 && lo < level && level < hi;
        let (mut n, mut last, mut end) = (0, hi, level);
        // once `root_below(level)` fails, `lo` is `level` and the upper
        // end walks down towards it while `root_below` holds
        if open {
            loop {
                let m = 0.5 * (level + last);
                if n + 2 > steps || closed(m, level, last) {
                    end = m;
                    break;
                }
                n += 1;
                last = m;
            }
        }
        FirstMidpoint { hi, level, open, n, last, end_above: end > level }
    }

    /// The rule's answer for `root_below`. It evaluates `root_below` on
    /// the points the bisection would, except that it may skip some and
    /// takes the one nearest `level` first (the module doc says why that
    /// is exact).
    pub(crate) fn above(&self, mut root_below: impl FnMut(f64) -> bool) -> bool {
        let FirstMidpoint { hi, level, open, n, last, end_above } = *self;
        // a root at or below `level` moves `hi` down to it, and every
        // later midpoint is at most `level`
        if !open || eval(&mut root_below, level) {
            return false;
        }
        if end_above {
            return true;
        }
        if n == 0 {
            return false;
        }
        // the nearest point first, then the rest from the far end
        if !eval(&mut root_below, last) {
            return true;
        }
        let mut m = hi;
        for _ in 1..n {
            m = 0.5 * (level + m);
            if !eval(&mut root_below, m) {
                return true;
            }
        }
        false
    }
}

/// Whether `mid` has the bits of `lo` or `hi`: bitwise, so a -0.0
/// midpoint beside a +0.0 end is not yet closed.
fn closed(mid: f64, lo: f64, hi: f64) -> bool {
    mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits()
}

/// One evaluation of the predicate, counted in test builds.
#[inline]
fn eval(root_below: &mut impl FnMut(f64) -> bool, mid: f64) -> bool {
    #[cfg(test)]
    tests::EVALS.with(|n| n.set(n.get() + 1));
    root_below(mid)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmorph_util::rng::{mix_seed, Rng, StdRng};
    use std::cell::Cell;

    thread_local! {
        /// Predicate evaluations made by [`Bisection::step`] (and so
        /// [`bisect_until`]) and [`FirstMidpoint::above`] on this thread.
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

    /// Oracle: [`bisect_until`] as one loop with its exits written out,
    /// and the predicate evaluations it made.
    fn settled_loop(
        mut lo: f64,
        mut hi: f64,
        steps: u32,
        mut root_below: impl FnMut(f64) -> bool,
        mut settled: impl FnMut(f64, f64) -> bool,
    ) -> (f64, u64) {
        let mut evals = 0;
        for _ in 0..steps {
            if settled(lo, hi) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
                return (mid, evals);
            }
            evals += 1;
            if root_below(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (0.5 * (lo + hi), evals)
    }

    #[test]
    fn the_resumable_bisection_matches_the_loop_under_every_exit() {
        let mut rng = StdRng::seed_from_u64(0x2e5);
        let (mut closed_exits, mut budget_exits, mut settled_exits) = (0, 0, 0);
        for case in 0..6000 {
            let (lo, hi) = bracket(&mut rng);
            let steps = [0, 1, 5, 40, 60, 80, 200][case % 7];
            let root = match case % 5 {
                0 => (lo + hi).signum() * 1e-30 * rng.random_range(0.0..1.0),
                1 => lo,
                2 => hi,
                _ => lo + (hi - lo) * rng.random_range(0.0..1.0),
            };
            let salt = rng.random_range(0u64..u64::MAX);
            // monotone, or not at all: each midpoint's answer a hash of its bits
            let root_below = |m: f64| {
                if case % 3 == 2 {
                    mix_seed(salt, m.to_bits()) & 1 == 1
                } else {
                    m >= root
                }
            };

            // stepped to its end: the fixed-count answer, the loop's
            // evaluations, and every bracket on the way holds the answer
            let mut run = Bisection::new(lo, hi, steps);
            let mut brackets = vec![run.bracket()];
            let n = evals_of(|| {
                while run.step(root_below) {
                    brackets.push(run.bracket());
                }
            });
            let answer = run.answer();
            let (want, want_n) = settled_loop(lo, hi, steps, root_below, |_, _| false);
            assert_eq!(answer.to_bits(), want.to_bits(), "[{lo}, {hi}] steps {steps}");
            assert_eq!(n, want_n, "[{lo}, {hi}] steps {steps}");
            assert_eq!(answer.to_bits(), fixed_count(lo, hi, steps, root_below).to_bits());
            assert!(run.ended() && !run.step(|_| panic!("an ended bisection evaluates")));
            for (l, h) in brackets {
                assert!(l.min(h) <= answer && answer <= l.max(h), "{answer} outside [{l}, {h}]");
            }
            if n < u64::from(steps) {
                closed_exits += 1;
            } else {
                budget_exits += 1;
            }

            // stopped once settled about a level
            let level = match case % 4 {
                0 => root,
                1 => answer,
                _ => lo + (hi - lo) * rng.random_range(-0.5..1.5),
            };
            let settled = |l: f64, h: f64| h <= level || l > level;
            let mut run = Bisection::new(lo, hi, steps);
            let n = evals_of(|| {
                let (mut l, mut h) = run.bracket();
                while !settled(l, h) && run.step(root_below) {
                    (l, h) = run.bracket();
                }
            });
            let (want, want_n) = settled_loop(lo, hi, steps, root_below, settled);
            assert_eq!(run.answer().to_bits(), want.to_bits(), "[{lo}, {hi}] level {level}");
            assert_eq!(n, want_n, "[{lo}, {hi}] level {level}");
            let until = bisect_until(lo, hi, steps, root_below, settled);
            assert_eq!(until.to_bits(), want.to_bits());
            let (l, h) = run.bracket();
            assert!(l.min(h) <= answer && answer <= l.max(h), "settled off the answer");
            if !run.ended() {
                settled_exits += 1;
            }
        }
        assert!(closed_exits > 100 && budget_exits > 100 && settled_exits > 100);
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

    /// Oracle for [`FirstMidpoint`]: the settled comparison with the
    /// first midpoint as its level.
    fn above_by_settled_bisection(
        lo: f64,
        hi: f64,
        steps: u32,
        root_below: impl FnMut(f64) -> bool,
    ) -> bool {
        let mid = 0.5 * (lo + hi);
        bisect_until(lo, hi, steps, root_below, |l, h| h <= mid || l > mid) > mid
    }

    /// Budgets that end the walk before, at and after its bracket closes.
    const BUDGETS: [u32; 8] = [0, 1, 2, 3, 53, 60, 80, 200];

    #[test]
    fn first_midpoint_rule_matches_the_settled_comparison() {
        let mut rng = StdRng::seed_from_u64(0xf1257);
        let mut brackets: Vec<(f64, f64)> = (0..3000).map(|_| bracket(&mut rng)).collect();
        // brackets whose first midpoint is not strictly inside: two
        // adjacent floats, reversed ends, infinite and NaN ends
        brackets.extend([1.0, -1.0, 0.0, 1e-300].map(|x: f64| (x, x.next_up())));
        brackets.extend([(1.0, 0.0), (2.0, -2.0), (-0.5, -1.5)]);
        brackets.extend([(0.0, f64::INFINITY), (f64::NEG_INFINITY, 1.0), (f64::NAN, 1.0)]);
        for (case, &(lo, hi)) in brackets.iter().enumerate() {
            let mid = 0.5 * (lo + hi);
            let ulps = rng.random_range(1u64..5);
            let (mut up, mut down) = (mid, mid);
            for _ in 0..ulps {
                (up, down) = (up.next_up(), down.next_down());
            }
            let root = match case % 4 {
                0 => mid,
                1 => up,
                2 => down,
                _ => lo + (hi - lo) * rng.random_range(0.0..1.0),
            };
            let salt = rng.random_range(0u64..u64::MAX);
            for steps in BUDGETS {
                let check = |name: &str, root_below: &dyn Fn(f64) -> bool| {
                    assert_eq!(
                        FirstMidpoint::new(lo, hi, steps).above(root_below),
                        above_by_settled_bisection(lo, hi, steps, root_below),
                        "[{lo}, {hi}] {name} steps {steps}"
                    );
                };
                check(&format!("root {root}"), &|m| m >= root);
                check("always", &|_| true);
                check("never", &|_| false);
                // not monotone: each midpoint's answer is a hash of its bits
                check("hashed", &|m| mix_seed(salt, m.to_bits()) & 1 == 1);
            }
        }
    }

    #[test]
    fn a_root_well_above_the_first_midpoint_costs_two_evaluations() {
        let rule = FirstMidpoint::new(0.0, 1.0, 80);
        assert_eq!(evals_of(|| rule.above(|m| m >= 0.9)), 2);
        assert_eq!(evals_of(|| rule.above(|m| m >= 0.5 + 1e-9)), 2);
        assert_eq!(evals_of(|| rule.above(|m| m >= 0.2)), 1);
    }

    #[test]
    fn a_closed_bracket_stops_the_loop() {
        let n = evals_of(|| bisect(0.0, 1.0, 1000, |m| m >= 0.3));
        assert!(n < 60, "{n} evaluations for a root inside [0, 1]");
        let n = evals_of(|| bisect(0.0, 1.0, 80, |m| m >= 1e-30));
        assert_eq!(n, 80, "a root next to zero needs every step");
    }
}
