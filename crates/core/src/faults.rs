//! Defect modelling (paper §1: future nano-scale devices are
//! "characterized by reduced fanout …, low gain and poor reliability").
//!
//! A regular fabric of identical cells is the classic substrate for defect
//! *tolerance*: faulty leaf cells are mapped around rather than repaired.
//! This module injects manufacturing defects into a configured fabric and
//! lets mapping flows query a defect map so they can avoid bad blocks —
//! the mechanism behind the `study_defects_scaled` experiment (E19).
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
    /// with equal probability. Deterministic in `seed`.
    pub fn sample(width: usize, height: usize, cell_defect_rate: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut defects = BTreeSet::new();
        for y in 0..height {
            for x in 0..width {
                for term in 0..LANES {
                    for col in 0..LANES {
                        if rng.random::<f64>() < cell_defect_rate {
                            defects.insert(if rng.random::<bool>() {
                                Defect::CrosspointStuckOff { x, y, term, col }
                            } else {
                                Defect::CrosspointStuckOn { x, y, term, col }
                            });
                        }
                    }
                    if rng.random::<f64>() < cell_defect_rate {
                        defects.insert(Defect::DriverDead { x, y, term });
                    }
                }
            }
        }
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
        Self::sample_sweep_with(width, height, cell_defect_rate, seeds, cfg, |map| map)
    }

    /// [`DefectMap::sample_sweep`] that hands each map to `reduce` inside
    /// its sweep item and keeps only what `reduce` returns, so at most one
    /// map per worker is alive at a time. The `core.faults.sample_sweep`
    /// span covers the reductions too.
    pub fn sample_sweep_with<T: Send>(
        width: usize,
        height: usize,
        cell_defect_rate: f64,
        seeds: &[u64],
        cfg: &SweepConfig,
        reduce: impl Fn(DefectMap) -> T + Sync,
    ) -> Vec<T> {
        let t0 = pmorph_obs::enabled().then(std::time::Instant::now);
        let results = sweep(
            seeds.len(),
            cfg,
            || (),
            |_, i| reduce(DefectMap::sample(width, height, cell_defect_rate, seeds[i])),
        );
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
    fn bad_blocks_identified() {
        let mut map = DefectMap::default();
        map.defects.insert(Defect::DriverDead { x: 3, y: 1, term: 2 });
        map.defects.insert(Defect::CrosspointStuckOn { x: 0, y: 0, term: 5, col: 5 });
        let bad = map.bad_blocks();
        assert_eq!(bad.len(), 2);
        assert!(bad.contains(&(3, 1)) && bad.contains(&(0, 0)));
    }
}
