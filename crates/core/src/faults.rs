//! Defect modelling (paper §1: future nano-scale devices are
//! "characterized by reduced fanout …, low gain and poor reliability").
//!
//! A regular fabric of identical cells is the classic substrate for defect
//! *tolerance*: faulty leaf cells are mapped around rather than repaired.
//! This module injects manufacturing defects into a configured fabric and
//! lets mapping flows query a defect map so they can avoid bad blocks —
//! the mechanism behind the `study_defects_scaled` experiment (E19).
//!
//! Sampling visits the fabric's leaf resources in one fixed order (blocks
//! row by row, then term, then column; see [`DefectMap::sample`]), so a
//! map is a pure function of its seed. A campaign that needs only the
//! defect and bad-block counts ([`DefectMap::count_sweep`]) counts them
//! as they are drawn and never builds the map.
//!
//! Defect semantics at the digital level:
//!
//! * a **stuck-off crosspoint** behaves as `CellMode::StuckOff` regardless
//!   of configuration — it silently kills any term using that row,
//! * a **stuck-on crosspoint** behaves as `CellMode::StuckOn` — it drops
//!   its literal from the product,
//! * a **dead driver** is forced to `OutMode::Off` — the line floats.

use crate::array::Fabric;
use crate::config::{OutMode, LANES};
use pmorph_device::CellMode;
use pmorph_exec::{sweep, SweepConfig};
use pmorph_util::rng::Rng;
use pmorph_util::rng::StdRng;
use std::collections::BTreeSet;

/// One injected defect.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Defect {
    /// Crosspoint `(term, col)` of block `(x, y)` stuck non-conducting.
    CrosspointStuckOff {
        /// Block x.
        x: usize,
        /// Block y.
        y: usize,
        /// Product-term row.
        term: usize,
        /// Input column.
        col: usize,
    },
    /// Crosspoint stuck conducting (literal dropped).
    CrosspointStuckOn {
        /// Block x.
        x: usize,
        /// Block y.
        y: usize,
        /// Product-term row.
        term: usize,
        /// Input column.
        col: usize,
    },
    /// Output driver dead (line permanently decoupled).
    DriverDead {
        /// Block x.
        x: usize,
        /// Block y.
        y: usize,
        /// Driver index.
        term: usize,
    },
}

impl Defect {
    /// Block coordinates of the defect.
    pub fn block(&self) -> (usize, usize) {
        match *self {
            Defect::CrosspointStuckOff { x, y, .. }
            | Defect::CrosspointStuckOn { x, y, .. }
            | Defect::DriverDead { x, y, .. } => (x, y),
        }
    }
}

/// A sampled defect map over a fabric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DefectMap {
    /// Injected defects, sorted.
    pub defects: BTreeSet<Defect>,
}

impl DefectMap {
    /// Sample a defect map: every leaf resource (36 crosspoints + 6
    /// drivers per block) fails independently with probability
    /// `cell_defect_rate`; failed crosspoints are stuck-off or stuck-on
    /// with equal probability. Deterministic in `seed`: the resources are
    /// drawn block by block, row by row (`y`, then `x`), then term by
    /// term, each term's crosspoints by column before its driver, with
    /// one uniform per resource and one more per failed crosspoint for
    /// its polarity.
    pub fn sample(width: usize, height: usize, cell_defect_rate: f64, seed: u64) -> Self {
        let mut defects = BTreeSet::new();
        draw(width, height, cell_defect_rate, seed, |d| {
            defects.insert(d);
        });
        DefectMap { defects }
    }

    /// Sample one defect map per entry of `seeds`, in parallel on the
    /// sharded sweep engine. Each map is [`DefectMap::sample`] with the
    /// explicit per-trial seed — the caller owns the seed schedule (E19
    /// keeps its historical `t·7919 + rate·10⁴` formula), so results are
    /// bit-identical to a serial loop at any worker count or shard size.
    pub fn sample_sweep(
        width: usize,
        height: usize,
        cell_defect_rate: f64,
        seeds: &[u64],
        cfg: &SweepConfig,
    ) -> Vec<DefectMap> {
        trials(seeds, cfg, |seed| DefectMap::sample(width, height, cell_defect_rate, seed))
    }

    /// `(defects, bad blocks)` per entry of `seeds`, on the sweep engine
    /// like [`DefectMap::sample_sweep`], equal to `(map.len(),
    /// map.bad_blocks().len())` of each map it would sample. Each trial
    /// counts its defects as they are drawn and builds no map.
    pub fn count_sweep(
        width: usize,
        height: usize,
        cell_defect_rate: f64,
        seeds: &[u64],
        cfg: &SweepConfig,
    ) -> Vec<(usize, usize)> {
        trials(seeds, cfg, |seed| {
            let (mut defects, mut bad_blocks, mut last) = (0, 0, None);
            draw(width, height, cell_defect_rate, seed, |d| {
                defects += 1;
                // draws are block-major, so a block's defects arrive
                // together
                if last != Some(d.block()) {
                    last = Some(d.block());
                    bad_blocks += 1;
                }
            });
            (defects, bad_blocks)
        })
    }

    /// Number of defects.
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// No defects?
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// Blocks touched by at least one defect — the avoidance set a
    /// defect-aware mapper feeds to the router/placer (block-granular
    /// sparing, as one would do with a tested die).
    pub fn bad_blocks(&self) -> BTreeSet<(usize, usize)> {
        self.defects.iter().map(|d| d.block()).collect()
    }

    /// Apply the defects to a configured fabric, returning the faulty
    /// configuration that will actually be elaborated.
    pub fn apply(&self, fabric: &Fabric) -> Fabric {
        let mut faulty = fabric.clone();
        self.apply_to(&mut faulty);
        faulty
    }

    /// Apply the defects to `fabric` **in place**, returning a patch that
    /// [`DefectPatch::undo`] restores exactly. This is the allocation-free
    /// shape for fault campaigns: one scratch fabric per worker, patched
    /// and unpatched per trial, instead of a full `Fabric` clone per trial.
    pub fn apply_to(&self, fabric: &mut Fabric) -> DefectPatch {
        let mut saved = Vec::with_capacity(self.defects.len());
        for d in &self.defects {
            match *d {
                Defect::CrosspointStuckOff { x, y, term, col } => {
                    let cell = &mut fabric.block_mut(x, y).crosspoints[term][col];
                    saved.push(Site::Crosspoint { x, y, term, col, prev: *cell });
                    *cell = CellMode::StuckOff;
                }
                Defect::CrosspointStuckOn { x, y, term, col } => {
                    let cell = &mut fabric.block_mut(x, y).crosspoints[term][col];
                    saved.push(Site::Crosspoint { x, y, term, col, prev: *cell });
                    *cell = CellMode::StuckOn;
                }
                Defect::DriverDead { x, y, term } => {
                    let drv = &mut fabric.block_mut(x, y).drivers[term];
                    saved.push(Site::Driver { x, y, term, prev: *drv });
                    *drv = OutMode::Off;
                }
            }
        }
        DefectPatch { saved }
    }

    /// Does the defect map actually disturb this configuration's
    /// *behaviour*? A defect in an unused resource (a term with no enabled
    /// driver, a driver left off) is harmless — the core of the fabric's
    /// defect-tolerance story.
    pub fn disturbs(&self, fabric: &Fabric) -> bool {
        self.defects.iter().any(|d| match *d {
            Defect::CrosspointStuckOff { x, y, term, col } => {
                let b = fabric.block(x, y);
                b.drivers[term] != OutMode::Off && b.crosspoints[term][col] != CellMode::StuckOff
            }
            Defect::CrosspointStuckOn { x, y, term, col } => {
                let b = fabric.block(x, y);
                b.drivers[term] != OutMode::Off && b.crosspoints[term][col] != CellMode::StuckOn
            }
            Defect::DriverDead { x, y, term } => fabric.block(x, y).drivers[term] != OutMode::Off,
        })
    }
}

/// The one defect draw loop: visit every defect of the map `seed`
/// samples, in draw order — blocks row by row (`y`, then `x`), then term,
/// each term's crosspoints by column before its driver. Each resource
/// takes one raw draw `u` and fails when `(u >> 11) <` [`threshold`]; a
/// failed crosspoint takes one more draw for its polarity. No resource
/// is drawn twice, so the visited defects are distinct, and a block's
/// defects are visited consecutively (the invariant
/// [`DefectMap::count_sweep`] counts bad blocks by).
fn draw(width: usize, height: usize, rate: f64, seed: u64, mut visit: impl FnMut(Defect)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = threshold(rate);
    for y in 0..height {
        for x in 0..width {
            for term in 0..LANES {
                for col in 0..LANES {
                    if rng.next_u64() >> 11 < threshold {
                        visit(if rng.random::<bool>() {
                            Defect::CrosspointStuckOff { x, y, term, col }
                        } else {
                            Defect::CrosspointStuckOn { x, y, term, col }
                        });
                    }
                }
                if rng.next_u64() >> 11 < threshold {
                    visit(Defect::DriverDead { x, y, term });
                }
            }
        }
    }
}

/// `⌈rate · 2⁵³⌉`, the integer form of the draw test: `random::<f64>()`
/// is `(u >> 11) · 2⁻⁵³`, and scaling by a power of two is exact, so
/// `random::<f64>() < rate` holds exactly when `(u >> 11) <
/// threshold(rate)`. A NaN or negative rate saturates to 0 (never
/// fails) and a rate above 1 to at least 2⁵³ (always fails), as the
/// float compare does.
fn threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// Run `trial` once per seed on the sweep engine, adding the trials to
/// `core.faults.samples` and the sweep to the `core.faults.sample_sweep`
/// span.
fn trials<T: Send>(seeds: &[u64], cfg: &SweepConfig, trial: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let t0 = pmorph_obs::enabled().then(std::time::Instant::now);
    let results = sweep(seeds.len(), cfg, || (), |_, i| trial(seeds[i]));
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::counter!("core.faults.samples").add(seeds.len() as u64);
        pmorph_obs::span!("core.faults.sample_sweep").record_ns(ns);
        if ns > 0 && !seeds.is_empty() {
            pmorph_obs::gauge!("core.faults.samples_per_sec")
                .set(seeds.len() as f64 * 1.0e9 / ns as f64);
        }
    }
    results
}

/// One patched fabric site with its pre-defect value.
#[derive(Copy, Clone, Debug)]
enum Site {
    Crosspoint { x: usize, y: usize, term: usize, col: usize, prev: CellMode },
    Driver { x: usize, y: usize, term: usize, prev: OutMode },
}

/// The reverse side of [`DefectMap::apply_to`]: every site the defect map
/// overwrote, with its original value. `undo` restores the fabric to its
/// exact pre-patch configuration, so a per-worker scratch fabric can be
/// reused across trials (patch → evaluate → undo) with no cloning.
#[derive(Clone, Debug, Default)]
pub struct DefectPatch {
    saved: Vec<Site>,
}

impl DefectPatch {
    /// Number of patched sites.
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    /// No sites patched?
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }

    /// Restore every patched site to its pre-defect value. Sites are
    /// restored in reverse patch order, so overlapping writes (two defects
    /// on one site) unwind correctly.
    pub fn undo(&self, fabric: &mut Fabric) {
        for site in self.saved.iter().rev() {
            match *site {
                Site::Crosspoint { x, y, term, col, prev } => {
                    fabric.block_mut(x, y).crosspoints[term][col] = prev;
                }
                Site::Driver { x, y, term, prev } => {
                    fabric.block_mut(x, y).drivers[term] = prev;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlockConfig, Edge};

    #[test]
    fn sampling_is_deterministic_and_rate_scales() {
        let a = DefectMap::sample(8, 8, 0.01, 42);
        let b = DefectMap::sample(8, 8, 0.01, 42);
        assert_eq!(a, b);
        let dense = DefectMap::sample(8, 8, 0.10, 42);
        assert!(dense.len() > a.len() * 3, "{} vs {}", dense.len(), a.len());
        // expectation: 8*8*42 resources * rate
        let expect = 8.0 * 8.0 * 42.0 * 0.01;
        assert!((a.len() as f64) < expect * 3.0 && (a.len() as f64) > expect / 3.0);
    }

    #[test]
    fn zero_rate_is_clean() {
        assert!(DefectMap::sample(16, 16, 0.0, 1).is_empty());
    }

    #[test]
    fn defects_in_unused_cells_are_harmless() {
        // A dormant fabric is behaviourally unaffected by any defect map
        // (no driver is enabled, so no term is observable).
        let fabric = Fabric::new(4, 4);
        let map = DefectMap::sample(4, 4, 0.2, 7);
        assert!(!map.is_empty(), "sanity: defects were injected");
        assert!(!map.disturbs(&fabric), "dormant fabric cannot be disturbed");
    }

    #[test]
    fn defect_in_used_cell_disturbs() {
        let mut fabric = Fabric::new(2, 1);
        let b = fabric.block_mut(0, 0);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[0, 1]);
        b.drivers[0] = OutMode::Buf;
        let mut map = DefectMap::default();
        map.defects.insert(Defect::CrosspointStuckOff { x: 0, y: 0, term: 0, col: 0 });
        assert!(map.disturbs(&fabric));
        let faulty = map.apply(&fabric);
        assert_eq!(faulty.block(0, 0).crosspoints[0][0], CellMode::StuckOff);
    }

    #[test]
    fn apply_to_then_undo_is_identity_and_matches_apply() {
        let mut fabric = Fabric::new(4, 4);
        for y in 0..4 {
            let b = fabric.block_mut(1, y);
            *b = BlockConfig::flowing(Edge::West, Edge::East);
            b.set_term(0, &[0, 1]);
            b.drivers[0] = OutMode::Buf;
        }
        let pristine = fabric.clone();
        for seed in 0..20u64 {
            let map = DefectMap::sample(4, 4, 0.15, seed);
            let cloned = map.apply(&fabric);
            let patch = map.apply_to(&mut fabric);
            assert_eq!(patch.len(), map.len());
            assert_eq!(fabric, cloned, "in-place patch ≡ clone-and-apply");
            patch.undo(&mut fabric);
            assert_eq!(fabric, pristine, "undo restores exactly (seed {seed})");
        }
    }

    #[test]
    fn overlapping_writes_unwind_in_reverse_order() {
        // stuck-off and stuck-on defects on the SAME crosspoint: apply
        // order is BTreeSet order, undo must restore the original value.
        let mut fabric = Fabric::new(1, 1);
        fabric.block_mut(0, 0).crosspoints[2][3] = CellMode::Active;
        let pristine = fabric.clone();
        let mut map = DefectMap::default();
        map.defects.insert(Defect::CrosspointStuckOff { x: 0, y: 0, term: 2, col: 3 });
        map.defects.insert(Defect::CrosspointStuckOn { x: 0, y: 0, term: 2, col: 3 });
        let patch = map.apply_to(&mut fabric);
        assert_eq!(patch.len(), 2);
        patch.undo(&mut fabric);
        assert_eq!(fabric, pristine);
    }

    #[test]
    fn integer_threshold_is_the_float_compare() {
        // one raw draw, handed to the float conversion the sampler used
        struct Fixed(u64);
        impl Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let mut rng = StdRng::seed_from_u64(0x7123);
        let mut rates = vec![0.0, 5e-324, f64::MIN_POSITIVE, 1e-17, 0.001, 0.05, 0.5, 1.0];
        rates.extend((0..200).map(|_| rng.random::<f64>()));
        rates.extend((0..50).map(|k| rng.random::<f64>() * 10f64.powi(-k)));
        for rate in rates {
            let t = threshold(rate);
            let mut draws: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
            // the two draws either side of the boundary, with their low
            // bits set and clear
            for m in [t.wrapping_sub(1), t] {
                if m < 1 << 53 {
                    draws.extend([m << 11, m << 11 | 0x7ff]);
                }
            }
            for u in draws {
                let float = Fixed(u).random::<f64>() < rate;
                assert_eq!(u >> 11 < t, float, "rate {rate:e}, u {u:#x}, threshold {t}");
            }
        }
    }

    #[test]
    fn bad_blocks_identified() {
        let mut map = DefectMap::default();
        map.defects.insert(Defect::DriverDead { x: 3, y: 1, term: 2 });
        map.defects.insert(Defect::CrosspointStuckOn { x: 0, y: 0, term: 5, col: 5 });
        let bad = map.bad_blocks();
        assert_eq!(bad.len(), 2);
        assert!(bad.contains(&(3, 1)) && bad.contains(&(0, 0)));
    }
}
