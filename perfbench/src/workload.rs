//! The four workloads and their seeded op generators.
//!
//! The generator owns its PRNG (splitmix64) rather than borrowing the
//! program's, so a change to the program's RNG cannot move the workload.
//! The server only ever sees the generated spec text.

use std::collections::HashSet;

/// A workload named on the command line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unique small jobs: serve, parse and `exec` overhead dominate.
    SmallCold,
    /// Unique large jobs: PnR, bitsim, synthesis and fault sampling dominate.
    HeavyCold,
    /// A pre-filled pool drawn with skew, plus a stream of fresh small jobs.
    HotReplay,
    /// Full-scale `repro`, one invocation at a time.
    ReproFull,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SmallCold, Workload::HeavyCold, Workload::HotReplay, Workload::ReproFull];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallCold => "small_cold",
            Workload::HeavyCold => "heavy_cold",
            Workload::HotReplay => "hot_replay",
            Workload::ReproFull => "repro_full",
        }
    }
}

/// splitmix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Size {
    Small,
    Heavy,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    Truth,
    Seq,
    Fault,
    PlaceRoute,
    Poly,
}

/// One shuffled deck of job kinds per size class. Dealing kinds from a
/// deck rather than drawing each at random keeps the mix exact within
/// every few ops, so seeds differ in order and parameters, not in how
/// much of each kind a run does. The heavy deck is weighted so that PnR,
/// bitsim sweeps, poly synthesis and fault sampling each take a
/// double-digit share of job time (a poly job costs about ten seq sweeps).
fn deck(size: Size) -> Vec<Kind> {
    use Kind::*;
    let counts: &[(Kind, usize)] = match size {
        Size::Small => &[(Truth, 4), (Seq, 4), (Fault, 4), (PlaceRoute, 4), (Poly, 4)],
        Size::Heavy => &[(Poly, 2), (PlaceRoute, 6), (Seq, 16), (Fault, 16)],
    };
    counts.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect()
}

/// An endless stream of distinct job specs of one size class.
struct Mix {
    rng: Rng,
    size: Size,
    seen: HashSet<String>,
    dealt: Vec<Kind>,
    /// Poly jobs so far: their variable count cycles through the range.
    polys: u64,
    /// `truth_sweep` specs not yet used in this run (there are only a
    /// few distinct ones, so each is drawn at most once).
    truth_left: Vec<String>,
}

fn truth_spec(circuit: &str, size: u64) -> String {
    format!(r#"{{"type":"truth_sweep","circuit":"{circuit}","size":{size}}}"#)
}

impl Mix {
    fn new(mut rng: Rng, size: Size) -> Mix {
        let mut truth_left = Vec::new();
        if size == Size::Small {
            // at most 14 inputs: sub-millisecond sweeps, payloads of a few KB
            truth_left = (2..=14)
                .map(|n| truth_spec("parity_tree", n))
                .chain((2..=6).map(|n| truth_spec("ripple_adder", n)))
                .collect();
            rng.shuffle(&mut truth_left);
        }
        Mix { rng, size, seen: HashSet::new(), dealt: Vec::new(), polys: 0, truth_left }
    }

    /// The next spec not yet produced by this mix.
    fn next(&mut self) -> String {
        loop {
            if self.dealt.is_empty() {
                self.dealt = deck(self.size);
                self.rng.shuffle(&mut self.dealt);
            }
            let kind = self.dealt.pop().expect("refilled above");
            if let Some(spec) = self.of_kind(kind) {
                return spec;
            }
        }
    }

    /// A new spec of `kind`, or `None` when that kind has no unused spec.
    fn of_kind(&mut self, kind: Kind) -> Option<String> {
        loop {
            let spec = match self.size {
                Size::Small => self.small(kind),
                Size::Heavy => self.heavy(kind),
            }?;
            if self.seen.insert(spec.clone()) {
                return Some(spec);
            }
        }
    }

    fn poly_vars(&mut self, lo: u64, hi: u64) -> u64 {
        self.polys += 1;
        lo + self.polys % (hi - lo + 1)
    }

    fn small(&mut self, kind: Kind) -> Option<String> {
        Some(match kind {
            Kind::Truth => return self.truth_left.pop(),
            Kind::Seq => seq_spec(&mut self.rng, 2, 16, 1, 2000),
            Kind::Fault => fault_spec(&mut self.rng, 4, 16, 1, 8),
            Kind::PlaceRoute => {
                let r = &mut self.rng;
                let circuit = if r.range(0, 1) == 0 { "ripple_adder" } else { "parity_tree" };
                format!(
                    r#"{{"type":"place_route","circuit":"{circuit}","size":{},"candidates":{},"seed":{},"partitions":1}}"#,
                    r.range(2, 16),
                    r.range(1, 4),
                    r.range(0, 1 << 40)
                )
            }
            Kind::Poly => {
                let vars = self.poly_vars(2, 6);
                poly_spec(&mut self.rng, vars)
            }
        })
    }

    fn heavy(&mut self, kind: Kind) -> Option<String> {
        Some(match kind {
            Kind::Truth => return None,
            Kind::Seq => seq_spec(&mut self.rng, 48, 64, 7000, 10_000),
            Kind::Fault => fault_spec(&mut self.rng, 48, 48, 6, 9),
            Kind::PlaceRoute => {
                let r = &mut self.rng;
                format!(
                    r#"{{"type":"place_route","circuit":"ripple_adder","size":{},"candidates":{},"seed":{},"partitions":{}}}"#,
                    r.range(40, 64),
                    r.range(48, 64),
                    r.range(0, 1 << 40),
                    r.range(2, 4)
                )
            }
            Kind::Poly => {
                let vars = self.poly_vars(7, 9);
                poly_spec(&mut self.rng, vars)
            }
        })
    }
}

fn seq_spec(r: &mut Rng, size_lo: u64, size_hi: u64, cyc_lo: u64, cyc_hi: u64) -> String {
    let circuit = if r.range(0, 1) == 0 { "shift_register" } else { "registered_pipeline" };
    format!(
        r#"{{"type":"seq_sweep","circuit":"{circuit}","size":{},"cycles":{}}}"#,
        r.range(size_lo, size_hi),
        r.range(cyc_lo, cyc_hi)
    )
}

fn fault_spec(r: &mut Rng, side_lo: u64, side_hi: u64, trials_lo: u64, trials_hi: u64) -> String {
    format!(
        r#"{{"type":"fault_campaign","width":{},"height":{},"rate":{},"trials":{},"seed":{}}}"#,
        r.range(side_lo, side_hi),
        r.range(side_lo, side_hi),
        r.range(1, 50) as f64 / 1000.0,
        r.range(trials_lo, trials_hi),
        r.range(0, 1 << 40)
    )
}

/// A random 2- or 3-mode polymorphic function of `vars` variables, in
/// the server's mask spelling (16-digit words, most significant first).
fn poly_spec(r: &mut Rng, vars: u64) -> String {
    let bits = 1u64 << vars;
    let words = bits.div_ceil(64) as usize;
    let modes = r.range(2, 3);
    let mut parts = Vec::new();
    for m in 0..modes {
        let mut mask: Vec<String> = (0..words)
            .map(|_| {
                let w = r.next();
                let w = if bits < 64 { w & ((1u64 << bits) - 1) } else { w };
                format!("{w:016x}")
            })
            .collect();
        mask.reverse();
        parts.push(format!(r#"{{"name":"m{m}","mask":"{}"}}"#, mask.join(":")));
    }
    format!(r#"{{"type":"poly_sweep","vars":{vars},"modes":[{}]}}"#, parts.join(","))
}

/// Specs in the `hot_replay` pool.
pub const HOT_POOL: usize = 64;
/// Every this many `hot_replay` draws, one is a fresh small spec (a cache
/// miss): a 10% write stream beside the reads.
pub const HOT_FRESH_EVERY: u64 = 10;

/// The op sequence of one server workload. The same seed gives the same
/// sequence.
pub struct OpStream {
    mix: Mix,
    hot: Option<Hot>,
}

struct Hot {
    rng: Rng,
    draws: u64,
    /// Pool in popularity order (index 0 is drawn most).
    pool: Vec<String>,
    /// Cumulative Zipf(1) weights over the pool ranks.
    cdf: Vec<f64>,
}

impl OpStream {
    /// `None` for `repro_full`, which submits no jobs.
    pub fn new(workload: Workload, seed: u64) -> Option<OpStream> {
        match workload {
            Workload::SmallCold => {
                Some(OpStream { mix: Mix::new(Rng::new(seed, 1), Size::Small), hot: None })
            }
            Workload::HeavyCold => {
                Some(OpStream { mix: Mix::new(Rng::new(seed, 2), Size::Heavy), hot: None })
            }
            Workload::HotReplay => {
                let mut small = Mix::new(Rng::new(seed, 3), Size::Small);
                let mut heavy = Mix::new(Rng::new(seed, 4), Size::Heavy);
                let mut rng = Rng::new(seed, 5);
                // 8 large truth tables (payloads of 9 KB to ~300 KB, the
                // same for every seed, smallest most popular), a fixed
                // heavy slice so set-up cost varies little by seed, and
                // small specs; the fresh stream continues the small mix,
                // so it never repeats a pool spec
                let big: Vec<String> = [
                    ("parity_tree", 15),
                    ("parity_tree", 16),
                    ("ripple_adder", 7),
                    ("parity_tree", 17),
                    ("parity_tree", 18),
                    ("parity_tree", 19),
                    ("parity_tree", 20),
                    ("ripple_adder", 8),
                ]
                .into_iter()
                .map(|(c, n)| truth_spec(c, n))
                .collect();
                let mut heavy_specs = Vec::new();
                for (kind, n) in
                    [(Kind::Poly, 1), (Kind::PlaceRoute, 3), (Kind::Seq, 5), (Kind::Fault, 3)]
                {
                    for _ in 0..n {
                        heavy_specs.push(heavy.of_kind(kind).expect("heavy kinds never run out"));
                    }
                }
                rng.shuffle(&mut heavy_specs);
                // popularity ranks by class: big tables at ranks 3, 11, ..,
                // heavy specs at ranks 6, 14, .. and 1, 17, 33, 49
                let (mut big, mut heavy_specs) = (big.into_iter(), heavy_specs.into_iter());
                let pool: Vec<String> = (0..HOT_POOL)
                    .map(|rank| match rank % 8 {
                        3 => big.next().expect("8 big tables"),
                        6 => heavy_specs.next().expect("12 heavy specs"),
                        1 if rank % 16 == 1 => heavy_specs.next().expect("12 heavy specs"),
                        _ => small.next(),
                    })
                    .collect();
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..HOT_POOL)
                    .map(|rank| {
                        acc += 1.0 / (rank + 1) as f64;
                        acc
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= acc);
                Some(OpStream { mix: small, hot: Some(Hot { rng, draws: 0, pool, cdf }) })
            }
            Workload::ReproFull => None,
        }
    }

    /// The specs `hot_replay` stores before measuring (empty otherwise).
    pub fn pool(&self) -> &[String] {
        self.hot.as_ref().map_or(&[], |h| h.pool.as_slice())
    }

    /// The next op's spec.
    pub fn next_spec(&mut self) -> String {
        if let Some(hot) = &mut self.hot {
            hot.draws += 1;
            if hot.draws % HOT_FRESH_EVERY != 0 {
                let u = hot.rng.unit();
                let rank = hot.cdf.partition_point(|&c| c <= u).min(HOT_POOL - 1);
                return hot.pool[rank].clone();
            }
        }
        self.mix.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: Workload, seed: u64, n: usize) -> Vec<String> {
        let mut s = OpStream::new(w, seed).unwrap();
        (0..n).map(|_| s.next_spec()).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for w in [Workload::SmallCold, Workload::HeavyCold, Workload::HotReplay] {
            assert_eq!(take(w, 7, 300), take(w, 7, 300), "{}", w.name());
            assert_ne!(take(w, 7, 300), take(w, 8, 300), "{}", w.name());
        }
    }

    #[test]
    fn cold_specs_are_unique_and_truth_sweeps_are_used_once() {
        for w in [Workload::SmallCold, Workload::HeavyCold] {
            let ops = take(w, 3, 5000);
            let distinct: HashSet<&String> = ops.iter().collect();
            assert_eq!(distinct.len(), ops.len(), "{}", w.name());
        }
        let ops = take(Workload::SmallCold, 3, 5000);
        let truth = ops.iter().filter(|s| s.contains("truth_sweep")).count();
        assert_eq!(truth, 18, "every small truth sweep once, then none");
    }

    #[test]
    fn every_spec_parses_on_the_server_side() {
        use pmorph_serve::JobSpec;
        use pmorph_util::json;
        for w in [Workload::SmallCold, Workload::HeavyCold, Workload::HotReplay] {
            let mut s = OpStream::new(w, 11).unwrap();
            let pool = s.pool().to_vec();
            for spec in pool.iter().cloned().chain((0..500).map(|_| s.next_spec())) {
                let doc = json::parse(&spec).unwrap_or_else(|e| panic!("{spec}: {e:?}"));
                JobSpec::parse(&doc).unwrap_or_else(|e| panic!("{spec}: {e}"));
            }
        }
    }

    #[test]
    fn hot_stream_mixes_pool_hits_with_fresh_specs() {
        let mut s = OpStream::new(Workload::HotReplay, 5).unwrap();
        let pool: HashSet<String> = s.pool().iter().cloned().collect();
        assert_eq!(pool.len(), HOT_POOL);
        let n = 20_000;
        let fresh = (0..n).filter(|_| !pool.contains(&s.next_spec())).count();
        let share = fresh as f64 / n as f64;
        assert!((share - 1.0 / HOT_FRESH_EVERY as f64).abs() < 0.005, "fresh share {share}");
    }
}
