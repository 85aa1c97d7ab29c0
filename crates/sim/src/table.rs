//! Multi-word truth-table masks.
//!
//! Every equivalence proof in the workspace — mapped-fabric-vs-spec truth
//! tables, FPGA tech-mapping checks, fault/yield sweeps — reduces a circuit
//! to "bit `i` of this mask is the output under input assignment `i`". The
//! original representation was a single `u64`, which silently cannot hold
//! more than 6 input variables; [`WideMask`] is the shared replacement: a
//! `Vec<u64>` of 64-lane words covering up to [`WideMask::MAX_VARS`]
//! variables, with the word layout chosen to match the bit-parallel
//! evaluation kernel (`crate::bitsim`) — word `w` holds assignments
//! `64·w .. 64·w+63`, lane `l` of a word is assignment bit `l`.

/// A `2^n`-bit minterm mask over `n ≤ 20` variables, stored LSB-first
/// across `u64` words: minterm `m` lives in bit `m & 63` of word `m >> 6`
/// (variable 0 is the least-significant index bit of `m`).
///
/// All constructors mask lanes beyond `2^n` to zero, so equality and
/// hashing are structural.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WideMask {
    n: u8,
    words: Vec<u64>,
}

/// Lane patterns of the first six index variables within one 64-lane word:
/// bit `l` of `VAR_PATTERNS[i]` is `(l >> i) & 1`.
const VAR_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl WideMask {
    /// Hard ceiling on the variable count (2^20 bits = 16 Ki words =
    /// 128 KiB per mask — comfortably past every fabric/LUT use case while
    /// keeping exhaustive sweeps tractable).
    pub const MAX_VARS: usize = 20;

    /// Number of 64-bit words a mask over `n` variables occupies
    /// (`max(1, 2^n / 64)`; a partial word only exists for `n < 6`).
    pub fn word_count(n: usize) -> usize {
        assert!(n <= Self::MAX_VARS, "at most {} variables", Self::MAX_VARS);
        if n < 6 {
            1
        } else {
            1usize << (n - 6)
        }
    }

    /// Valid-lane mask of every word of an `n`-variable table. All 64
    /// lanes are valid once `n ≥ 6`; below that only the low `2^n` lanes
    /// of the single word carry minterms. Note the explicit `n ≥ 6` guard:
    /// the naive `(1 << (1 << n)) - 1` is exactly the shift-by-64 overflow
    /// this type exists to fence off.
    pub fn lane_mask(n: usize) -> u64 {
        assert!(n <= Self::MAX_VARS, "at most {} variables", Self::MAX_VARS);
        if n >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << n)) - 1
        }
    }

    /// Packed 64-lane plane of index variable `var` over word `word`: bit
    /// `l` is bit `var` of assignment `64·word + l`. This is the input
    /// encoding of the bit-parallel kernel; it lives here so mask layout
    /// and kernel packing can never drift apart.
    pub fn var_plane(var: usize, word: usize) -> u64 {
        assert!(var < Self::MAX_VARS, "at most {} variables", Self::MAX_VARS);
        if var < 6 {
            VAR_PATTERNS[var]
        } else if word >> (var - 6) & 1 == 1 {
            u64::MAX
        } else {
            0
        }
    }

    /// The projection `f = x_v` over `n` variables, one
    /// [`WideMask::var_plane`] per word.
    pub fn var(n: usize, v: usize) -> Self {
        assert!(v < n, "variable {v} out of {n}");
        let lanes = Self::lane_mask(n);
        let words = (0..Self::word_count(n)).map(|w| Self::var_plane(v, w) & lanes).collect();
        WideMask { n: n as u8, words }
    }

    /// Constant-false mask.
    pub fn zero(n: usize) -> Self {
        WideMask { n: n as u8, words: vec![0; Self::word_count(n)] }
    }

    /// Constant-true mask.
    pub fn ones(n: usize) -> Self {
        let mut words = vec![u64::MAX; Self::word_count(n)];
        *words.last_mut().unwrap() = Self::lane_mask(n);
        WideMask { n: n as u8, words }
    }

    /// Build from a single-word mask (`n ≤ 6` — a `u64` cannot hold more).
    pub fn from_u64(n: usize, bits: u64) -> Self {
        assert!(n <= 6, "a u64 mask holds at most 6 variables");
        WideMask { n: n as u8, words: vec![bits & Self::lane_mask(n)] }
    }

    /// Build from explicit words (length must match `word_count(n)`; the
    /// partial-word tail is masked).
    pub fn from_words(n: usize, mut words: Vec<u64>) -> Self {
        assert_eq!(words.len(), Self::word_count(n), "word count must match 2^n / 64");
        let lanes = Self::lane_mask(n);
        for w in &mut words {
            *w &= lanes;
        }
        WideMask { n: n as u8, words }
    }

    /// Build by evaluating `f` on every minterm.
    pub fn from_fn(n: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut m = Self::zero(n);
        for i in 0..(1u64 << n) {
            if f(i) {
                m.set(i, true);
            }
        }
        m
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.n as usize
    }

    /// The backing words, LSB-first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words. Callers writing whole words are responsible
    /// for masking lanes beyond `2^n` (see [`WideMask::lane_mask`]).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The mask as a single `u64` (`n ≤ 6` only).
    pub fn as_u64(&self) -> u64 {
        assert!(self.n <= 6, "{}-variable mask does not fit a u64", self.n);
        self.words[0]
    }

    /// Value at a minterm.
    pub fn get(&self, minterm: u64) -> bool {
        debug_assert!(minterm < 1u64 << self.n, "minterm {minterm} out of 2^{}", self.n);
        self.words[(minterm >> 6) as usize] >> (minterm & 63) & 1 == 1
    }

    /// Set or clear a minterm.
    pub fn set(&mut self, minterm: u64, value: bool) {
        debug_assert!(minterm < 1u64 << self.n, "minterm {minterm} out of 2^{}", self.n);
        let w = (minterm >> 6) as usize;
        let bit = 1u64 << (minterm & 63);
        if value {
            self.words[w] |= bit;
        } else {
            self.words[w] &= !bit;
        }
    }

    /// Number of true minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// True if no minterm is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the true minterms, ascending.
    pub fn minterms(&self) -> impl Iterator<Item = u64> + '_ {
        (0..(1u64 << self.n)).filter(|&m| self.get(m))
    }

    /// Does the function depend on `x_v`, i.e. do its two cofactors on
    /// `x_v` differ?
    pub fn depends_on(&self, v: usize) -> bool {
        assert!(v < self.vars(), "variable {v} out of {}", self.n);
        if v < 6 {
            let low = !VAR_PATTERNS[v];
            self.words.iter().any(|&w| (w ^ w >> (1 << v)) & low != 0)
        } else {
            let stride = 1 << (v - 6);
            self.words.chunks_exact(2 * stride).any(|pair| pair[..stride] != pair[stride..])
        }
    }

    /// In place, fix every variable in the set `vars` (bit `v` = `x_v`)
    /// to `val`: the fixed-arity cofactor over all of them. Minterm `m`
    /// takes the value of `m` with those bits forced to `val`; variables
    /// are not re-indexed, so the result stays an `n`-variable function
    /// that no longer depends on them.
    pub fn restrict(&mut self, vars: u32, val: bool) {
        if val {
            self.fold(vars, |_, hi| hi);
        } else {
            self.fold(vars, |lo, _| lo);
        }
    }

    /// In place, `f ← ∃vars f`: the OR of the cofactors on each variable
    /// in the set `vars`.
    pub fn exists(&mut self, vars: u32) {
        self.fold(vars, |lo, hi| lo | hi);
    }

    /// In place, `f ← ∀vars f`: the AND of the cofactors on each variable
    /// in the set `vars`.
    pub fn forall(&mut self, vars: u32) {
        self.fold(vars, |lo, hi| lo & hi);
    }

    /// For each variable `v` in `vars`, replace both cofactors on `x_v`
    /// by `op(f|_{x_v=0}, f|_{x_v=1})`. Below six variables the halves sit
    /// in alternating lane groups of each word, so one mask-and-shift
    /// lines them up; from six on they are whole words `2^(v−6)` apart.
    /// `op` must be bitwise, so dead lanes of a partial word stay zero.
    fn fold(&mut self, vars: u32, op: impl Fn(u64, u64) -> u64) {
        assert!(vars >> self.n == 0, "variable set {vars:#b} exceeds {} variables", self.n);
        for v in (0..self.vars()).filter(|v| vars >> v & 1 == 1) {
            if v < 6 {
                let (high, shift) = (VAR_PATTERNS[v], 1 << v);
                for w in &mut self.words {
                    let r = op(*w & !high, (*w & high) >> shift) & !high;
                    *w = r | r << shift;
                }
            } else {
                let stride = 1 << (v - 6);
                for pair in self.words.chunks_exact_mut(2 * stride) {
                    let (lo, hi) = pair.split_at_mut(stride);
                    for (l, h) in lo.iter_mut().zip(hi) {
                        *l = op(*l, *h);
                        *h = *l;
                    }
                }
            }
        }
    }

    /// Pointwise complement (lanes beyond `2^n` stay zero).
    pub fn not(&self) -> Self {
        let lanes = Self::lane_mask(self.vars());
        let words = self.words.iter().map(|&w| !w & lanes).collect();
        WideMask { n: self.n, words }
    }

    /// Pointwise AND (same arity required).
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n, "arity mismatch");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a & b).collect();
        WideMask { n: self.n, words }
    }

    /// Pointwise OR.
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n, "arity mismatch");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a | b).collect();
        WideMask { n: self.n, words }
    }

    /// Pointwise XOR.
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n, "arity mismatch");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a ^ b).collect();
        WideMask { n: self.n, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_geometry() {
        assert_eq!(WideMask::word_count(0), 1);
        assert_eq!(WideMask::word_count(5), 1);
        assert_eq!(WideMask::word_count(6), 1);
        assert_eq!(WideMask::word_count(7), 2);
        assert_eq!(WideMask::word_count(10), 16);
        assert_eq!(WideMask::word_count(20), 16_384);
        assert_eq!(WideMask::lane_mask(2), 0b1111);
        assert_eq!(WideMask::lane_mask(5), u32::MAX as u64);
        // the 6-variable boundary: the full word, not a 1<<64 overflow
        assert_eq!(WideMask::lane_mask(6), u64::MAX);
        assert_eq!(WideMask::lane_mask(7), u64::MAX);
    }

    #[test]
    fn set_get_round_trip_across_words() {
        let mut m = WideMask::zero(8);
        for minterm in [0u64, 1, 63, 64, 127, 128, 255] {
            assert!(!m.get(minterm));
            m.set(minterm, true);
            assert!(m.get(minterm));
        }
        assert_eq!(m.count_ones(), 7);
        assert_eq!(m.minterms().collect::<Vec<_>>(), vec![0, 1, 63, 64, 127, 128, 255]);
        m.set(64, false);
        assert!(!m.get(64));
    }

    #[test]
    fn constructors_mask_invalid_lanes() {
        let m = WideMask::from_u64(2, u64::MAX);
        assert_eq!(m.as_u64(), 0b1111);
        let m = WideMask::from_words(7, vec![u64::MAX, 0x8000_0000_0000_0000]);
        assert_eq!(m.count_ones(), 65);
        let ones = WideMask::ones(3);
        assert_eq!(ones.as_u64(), 0xFF);
        assert_eq!(WideMask::ones(7).count_ones(), 128);
    }

    #[test]
    fn boolean_ops_respect_tail() {
        let a = WideMask::from_fn(7, |m| m % 3 == 0);
        let b = WideMask::from_fn(7, |m| m % 2 == 0);
        assert_eq!(a.and(&b), WideMask::from_fn(7, |m| m % 6 == 0));
        assert_eq!(a.or(&b), WideMask::from_fn(7, |m| m % 3 == 0 || m % 2 == 0));
        assert_eq!(a.xor(&b), WideMask::from_fn(7, |m| (m % 3 == 0) != (m % 2 == 0)));
        let n = a.not();
        assert_eq!(n, WideMask::from_fn(7, |m| m % 3 != 0));
        // complement of a partial word must not leak into dead lanes
        let small = WideMask::zero(2).not();
        assert_eq!(small.as_u64(), 0b1111);
    }

    /// The per-minterm fixed-arity cofactor the word-parallel algebra
    /// replaced: the oracle every primitive below is held to.
    fn cofactor_oracle(mask: &WideMask, v: usize, val: bool) -> WideMask {
        WideMask::from_fn(mask.vars(), |m| mask.get(if val { m | 1 << v } else { m & !(1 << v) }))
    }

    /// Fold the oracle cofactors of every variable in `vars`, lowest
    /// first, through `op`.
    fn fold_oracle(
        mask: &WideMask,
        vars: u32,
        op: fn(&WideMask, &WideMask) -> WideMask,
    ) -> WideMask {
        (0..mask.vars()).filter(|v| vars >> v & 1 == 1).fold(mask.clone(), |m, v| {
            op(&cofactor_oracle(&m, v, false), &cofactor_oracle(&m, v, true))
        })
    }

    fn in_place(mask: &WideMask, apply: impl FnOnce(&mut WideMask)) -> WideMask {
        let mut m = mask.clone();
        apply(&mut m);
        m
    }

    #[test]
    fn word_parallel_cofactor_algebra_matches_the_per_minterm_oracle() {
        use pmorph_util::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC0FA_C708);
        // n < 6 runs the in-word shifts on a partial word, n ≥ 7 the word
        // strides as well
        for n in 1..=14usize {
            let random = |rng: &mut StdRng| {
                WideMask::from_words(
                    n,
                    (0..WideMask::word_count(n)).map(|_| rng.next_u64()).collect(),
                )
            };
            for _ in 0..3 {
                let mask = random(&mut rng);
                for v in 0..n {
                    let c0 = cofactor_oracle(&mask, v, false);
                    let c1 = cofactor_oracle(&mask, v, true);
                    assert_eq!(
                        in_place(&mask, |m| m.restrict(1 << v, false)),
                        c0,
                        "n {n} v {v} low cofactor"
                    );
                    assert_eq!(
                        in_place(&mask, |m| m.restrict(1 << v, true)),
                        c1,
                        "n {n} v {v} high cofactor"
                    );
                    assert_eq!(mask.depends_on(v), c0 != c1, "n {n} v {v} dependence");
                    assert!(!c0.depends_on(v) && !c1.depends_on(v), "n {n} v {v} cofactors");
                    assert_eq!(
                        WideMask::var(n, v),
                        WideMask::from_fn(n, |m| m >> v & 1 == 1),
                        "n {n} projection x{v}"
                    );
                }
                for _ in 0..4 {
                    let vars = rng.next_u64() as u32 & ((1 << n) - 1);
                    assert_eq!(
                        in_place(&mask, |m| m.exists(vars)),
                        fold_oracle(&mask, vars, WideMask::or),
                        "n {n} exists {vars:#b}"
                    );
                    assert_eq!(
                        in_place(&mask, |m| m.forall(vars)),
                        fold_oracle(&mask, vars, WideMask::and),
                        "n {n} forall {vars:#b}"
                    );
                    for val in [false, true] {
                        assert_eq!(
                            in_place(&mask, |m| m.restrict(vars, val)),
                            fold_oracle(
                                &mask,
                                vars,
                                if val { |_, hi| hi.clone() } else { |lo, _| lo.clone() }
                            ),
                            "n {n} restrict {vars:#b} to {val}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn var_plane_matches_assignment_bits() {
        for var in 0..9usize {
            for word in 0..WideMask::word_count(9) {
                let plane = WideMask::var_plane(var, word);
                for lane in 0..64u64 {
                    let assignment = (word as u64) * 64 + lane;
                    assert_eq!(
                        plane >> lane & 1 == 1,
                        assignment >> var & 1 == 1,
                        "var {var} word {word} lane {lane}"
                    );
                }
            }
        }
    }
}
