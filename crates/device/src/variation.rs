//! Monte-Carlo threshold-variation study (paper §3).
//!
//! > "One of the major advantages of DG technology is that the undoped
//! > channel region eliminates performance variations (in threshold
//! > voltage, conductance etc.) due to random dopant dispersion."
//!
//! We model the classic Pelgrom/random-dopant-fluctuation picture: a doped
//! bulk channel at 10 nm holds only a handful of dopant atoms, so Poisson
//! counting statistics produce large σ(V_T); the undoped DG channel keeps
//! only the (much smaller) body-thickness term. The study samples inverter
//! pairs, solves each sample's switching threshold with the real VTC
//! solver, and reports the distribution plus a noise-margin failure rate —
//! sharded across samples on the `pmorph_exec` sweep engine,
//! deterministically seeded.

use crate::mosfet::DgMosfet;
use crate::vtc::ConfigurableInverter;
use pmorph_exec::{sweep, SweepConfig};
use pmorph_util::rng::{mix_seed, Rng, StdRng};

/// Variation model for one technology flavour.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VariationModel {
    /// Random-dopant-fluctuation σ(V_T) component (V).
    pub sigma_rdf: f64,
    /// Geometric (body-thickness / line-edge) σ(V_T) component (V).
    pub sigma_geom: f64,
}

impl VariationModel {
    /// Doped bulk-style channel at a 10 nm-class geometry: RDF dominates.
    /// (With N_A ≈ 10¹⁸ cm⁻³ in a 10×10×5 nm channel, the mean dopant
    /// count is ~5 atoms; σ_N/N ≈ 45 %, giving σ(V_T) on the order of
    /// 60 mV.)
    pub fn doped_bulk() -> Self {
        VariationModel { sigma_rdf: 0.060, sigma_geom: 0.010 }
    }

    /// Undoped fully-depleted double-gate channel: the RDF term vanishes,
    /// leaving only body-thickness control (~1 Å-level, σ(V_T) ≈ 7 mV).
    pub fn undoped_dg() -> Self {
        VariationModel { sigma_rdf: 0.0, sigma_geom: 0.007 }
    }

    /// Total σ(V_T) (V): independent components add in quadrature.
    pub fn sigma_total(&self) -> f64 {
        (self.sigma_rdf * self.sigma_rdf + self.sigma_geom * self.sigma_geom).sqrt()
    }
}

/// Result of a Monte-Carlo run.
#[derive(Clone, Debug, PartialEq)]
pub struct VariationStudy {
    /// Samples drawn.
    pub samples: usize,
    /// Mean inverter switching threshold (V).
    pub mean_vth: f64,
    /// Standard deviation of the switching threshold (V).
    pub sigma_vth: f64,
    /// Fraction of samples whose switching threshold left the
    /// `[lo, hi]` noise-margin window (or failed to invert at all).
    pub failure_rate: f64,
}

/// Run the Monte-Carlo: sample `samples` inverters with per-device V_T0
/// drawn from the variation model, solve each switching threshold, and
/// score against the noise-margin window `[lo_frac, hi_frac]·VDD`.
///
/// Deterministic: sample `i` draws from `mix_seed(seed, i)`, so results
/// are bit-identical at any worker count (including serial).
pub fn run_study(
    model: VariationModel,
    samples: usize,
    seed: u64,
    lo_frac: f64,
    hi_frac: f64,
) -> VariationStudy {
    run_study_cfg(model, samples, seed, lo_frac, hi_frac, &SweepConfig::new())
}

/// Sample `i`'s inverter: the nominal pair with per-device V_T0 offsets.
/// Seeded from the item index alone (rule 1 of the exec determinism
/// contract), so any schedule yields the same bits.
fn sample_inverter(
    sigma: f64,
    nominal: &ConfigurableInverter,
    seed: u64,
    i: usize,
) -> ConfigurableInverter {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
    let dvt_n = sigma * rng.std_normal();
    let dvt_p = sigma * rng.std_normal();
    ConfigurableInverter {
        nmos: DgMosfet { vt0: nominal.nmos.vt0 + dvt_n, ..nominal.nmos },
        pmos: DgMosfet { vt0: nominal.pmos.vt0 + dvt_p, ..nominal.pmos },
        vdd: nominal.vdd,
    }
}

/// One shard item of the word-sharded study: up to 64 consecutive
/// samples' thresholds (index order within the word) plus a per-lane
/// failure mask — the sampled parameter only gates pass/fail bits, so
/// the reduction counts failures with popcounts instead of re-testing.
fn sample_word(
    sigma: f64,
    nominal: &ConfigurableInverter,
    seed: u64,
    base: usize,
    lanes: usize,
    lo_frac: f64,
    hi_frac: f64,
) -> (Vec<Option<f64>>, u64) {
    let mut thresholds = Vec::with_capacity(lanes);
    let mut fail = 0u64;
    for l in 0..lanes {
        let t = sample_inverter(sigma, nominal, seed, base + l).switching_threshold(0.0);
        let bad = match t {
            None => true,
            Some(v) => v < lo_frac * nominal.vdd || v > hi_frac * nominal.vdd,
        };
        fail |= (bad as u64) << l;
        thresholds.push(t);
    }
    (thresholds, fail)
}

/// [`run_study`] under an explicit sweep configuration (worker count,
/// shard size) — bit-identical to the default at any setting.
pub fn run_study_cfg(
    model: VariationModel,
    samples: usize,
    seed: u64,
    lo_frac: f64,
    hi_frac: f64,
    cfg: &SweepConfig,
) -> VariationStudy {
    let nominal = ConfigurableInverter::default();
    let sigma = model.sigma_total();
    let t0 = pmorph_obs::enabled().then(std::time::Instant::now);
    // whole words as shard items: 64 Monte-Carlo samples per item, drawn
    // serially in index order within the word, so the flattened threshold
    // stream — and therefore every float in the summary — is bit-identical
    // to a per-sample serial loop at any worker count or shard geometry.
    let words = samples.div_ceil(64);
    let word_results = sweep(
        words,
        cfg,
        || (),
        |_, w| {
            let base = w * 64;
            let lanes = (samples - base).min(64);
            sample_word(sigma, &nominal, seed, base, lanes, lo_frac, hi_frac)
        },
    );
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::counter!("device.variation.samples").add(samples as u64);
        pmorph_obs::span!("device.variation.study").record_ns(ns);
        if ns > 0 && samples > 0 {
            pmorph_obs::gauge!("device.variation.samples_per_sec")
                .set(samples as f64 * 1.0e9 / ns as f64);
        }
    }
    let failures: usize = word_results.iter().map(|(_, f)| f.count_ones() as usize).sum();
    let ok: Vec<f64> = word_results.iter().flat_map(|(t, _)| t.iter().filter_map(|v| *v)).collect();
    summarize(samples, &ok, failures)
}

/// The study's float tail: fixed expressions over the index-ordered `ok`
/// stream, so an identical stream gives identical bits.
fn summarize(samples: usize, ok: &[f64], failures: usize) -> VariationStudy {
    let mean = ok.iter().sum::<f64>() / ok.len().max(1) as f64;
    let var = ok.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / ok.len().max(1) as f64;
    VariationStudy {
        samples,
        mean_vth: mean,
        sigma_vth: var.sqrt(),
        failure_rate: failures as f64 / samples as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisect::tests::evals_of;
    use crate::vtc::tests::fixed_count_threshold;

    #[test]
    fn dg_sigma_much_smaller_than_bulk() {
        let bulk = VariationModel::doped_bulk().sigma_total();
        let dg = VariationModel::undoped_dg().sigma_total();
        assert!(bulk / dg > 5.0, "bulk {bulk} vs dg {dg}");
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_study(VariationModel::undoped_dg(), 64, 42, 0.3, 0.7);
        let b = run_study(VariationModel::undoped_dg(), 64, 42, 0.3, 0.7);
        assert_eq!(a, b);
    }

    /// The per-sample serial loop: the oracle the word-sharded study
    /// must match bit for bit.
    fn flat_study(
        model: VariationModel,
        samples: usize,
        seed: u64,
        lo_frac: f64,
        hi_frac: f64,
    ) -> VariationStudy {
        let nominal = ConfigurableInverter::default();
        let sigma = model.sigma_total();
        let thresholds: Vec<Option<f64>> = (0..samples)
            .map(|i| sample_inverter(sigma, &nominal, seed, i).switching_threshold(0.0))
            .collect();
        let ok: Vec<f64> = thresholds.iter().filter_map(|t| *t).collect();
        let failures = thresholds
            .iter()
            .filter(|t| match t {
                None => true,
                Some(v) => *v < lo_frac * nominal.vdd || *v > hi_frac * nominal.vdd,
            })
            .count();
        summarize(samples, &ok, failures)
    }

    #[test]
    fn sharded_study_matches_flat_reference() {
        let flat = flat_study(VariationModel::doped_bulk(), 64, 42, 0.3, 0.7);
        assert_eq!(run_study(VariationModel::doped_bulk(), 64, 42, 0.3, 0.7), flat);
        for (workers, shard_size) in [(1, 1), (2, 7), (8, 64)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard_size);
            let sharded = run_study_cfg(VariationModel::doped_bulk(), 64, 42, 0.3, 0.7, &cfg);
            assert_eq!(sharded, flat, "workers={workers} shard_size={shard_size}");
        }
    }

    #[test]
    fn e18_thresholds_match_the_fixed_count_solve_bit_for_bit() {
        let nominal = ConfigurableInverter::default();
        for model in [VariationModel::doped_bulk(), VariationModel::undoped_dg()] {
            for i in 0..400 {
                let inv = sample_inverter(model.sigma_total(), &nominal, 99, i);
                assert_eq!(
                    inv.switching_threshold(0.0).map(f64::to_bits),
                    fixed_count_threshold(&inv, 0.0).map(f64::to_bits),
                    "{model:?} sample {i}"
                );
            }
        }
    }

    #[test]
    fn e18_thresholds_take_at_most_200_evaluations_a_sample() {
        let nominal = ConfigurableInverter::default();
        let n = evals_of(|| {
            for model in [VariationModel::doped_bulk(), VariationModel::undoped_dg()] {
                for i in 0..32 {
                    sample_inverter(model.sigma_total(), &nominal, 99, i).switching_threshold(0.0);
                }
            }
        });
        assert!(n <= 200 * 64, "{n} predicate evaluations for 64 sampled thresholds");
    }

    #[test]
    fn measured_sigma_tracks_model() {
        let model = VariationModel::doped_bulk();
        let study = run_study(model, 400, 7, 0.3, 0.7);
        // Switching threshold shifts roughly half as much as a single-device
        // V_T (two devices pull opposite ways); allow a generous window.
        let expect = model.sigma_total() / 2f64.sqrt();
        assert!(
            study.sigma_vth > 0.3 * expect && study.sigma_vth < 2.0 * expect,
            "σ_vth {} vs expected ~{}",
            study.sigma_vth,
            expect
        );
    }

    #[test]
    fn dg_has_lower_failure_rate_than_bulk() {
        // Tight noise-margin window to force measurable failures in bulk.
        let bulk = run_study(VariationModel::doped_bulk(), 600, 11, 0.42, 0.58);
        let dg = run_study(VariationModel::undoped_dg(), 600, 11, 0.42, 0.58);
        assert!(
            dg.failure_rate < bulk.failure_rate,
            "dg {} !< bulk {}",
            dg.failure_rate,
            bulk.failure_rate
        );
        assert!(dg.failure_rate < 0.01, "dg failures {}", dg.failure_rate);
    }

    #[test]
    fn mean_threshold_near_midpoint() {
        let s = run_study(VariationModel::undoped_dg(), 128, 3, 0.3, 0.7);
        assert!((s.mean_vth - 0.5).abs() < 0.05, "mean {}", s.mean_vth);
    }
}
