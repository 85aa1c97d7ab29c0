//! Experiment index (DESIGN.md E1–E26). Each module regenerates one paper
//! figure, quantitative claim, or extension study.

pub mod claims;
pub mod devices;
pub mod extensions;
pub mod fabric_figs;
pub mod pipelines;
pub mod poly;
pub mod service;
pub mod studies;

use pmorph_util::json::{self, ToJson};

/// Common shape of an experiment result: an id, the paper's expectation,
/// and rendered rows.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// DESIGN.md experiment id (e.g. "E1/Fig3").
    pub id: &'static str,
    /// One-line description of the artefact.
    pub title: &'static str,
    /// What the paper claims / shows (shape-level expectation).
    pub paper: &'static str,
    /// Measured result lines.
    pub rows: Vec<String>,
    /// Whether the shape-level expectation held.
    pub pass: bool,
}

impl ToJson for Experiment {
    fn to_json(&self) -> json::Value {
        let mut obj = json::Value::object();
        obj.set("id", json::Value::Str(self.id.to_string()))
            .set("title", json::Value::Str(self.title.to_string()))
            .set("paper", json::Value::Str(self.paper.to_string()))
            .set("rows", self.rows.to_json())
            .set("pass", json::Value::Bool(self.pass));
        obj
    }
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "── {} — {} {}",
            self.id,
            self.title,
            if self.pass { "[OK]" } else { "[MISMATCH]" }
        )?;
        writeln!(f, "   paper: {}", self.paper)?;
        for r in &self.rows {
            writeln!(f, "   {r}")?;
        }
        Ok(())
    }
}

/// Problem sizes for the stochastic experiments.
///
/// `full()` matches the committed figures; `fast()` trims Monte-Carlo
/// counts so the golden regression test exercises every experiment end to
/// end while staying quick in debug builds. Both run the same code paths
/// with the same seeds — only the sample counts differ.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Monte-Carlo samples per variation study (E18).
    pub mc_samples: usize,
    /// Defect-map trials per defect rate (E19).
    pub defect_trials: usize,
    /// Random functions per width in the general-mapper study (E21).
    pub mapper_funcs: usize,
}

impl Scale {
    /// The sizes the committed figures use.
    pub fn full() -> Self {
        Scale { mc_samples: 400, defect_trials: 40, mapper_funcs: 6 }
    }

    /// Reduced sizes for regression testing.
    pub fn fast() -> Self {
        Scale { mc_samples: 120, defect_trials: 12, mapper_funcs: 2 }
    }
}

/// An experiment constructor, parameterised by problem [`Scale`].
pub type ExperimentFn = fn(Scale) -> Experiment;

/// The experiment index: `(id, constructor)` in run order. Having the id
/// *outside* the constructor lets the repro harness run a filtered subset
/// without paying for the rest of the suite.
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1/Fig3", |_| devices::fig3_inverter_vtc()),
        ("E2/Fig4", |_| devices::fig4_nand_modes()),
        ("E3/Fig5", |_| devices::fig5_buffer_modes()),
        ("E4/Fig6", |_| devices::fig6_rtd_ram()),
        ("E5/Fig7", |_| fabric_figs::fig7_nand_block()),
        ("E6/Fig8", |_| fabric_figs::fig8_array()),
        ("E7/Fig9", |_| fabric_figs::fig9_lut_dff()),
        ("E8/Fig10", |_| fabric_figs::fig10_datapath()),
        ("E9/Fig11", |_| pipelines::fig11_micropipeline()),
        ("E10/Fig12", |_| pipelines::fig12_ecse()),
        ("E11/§4", |_| claims::claim_config_bits()),
        ("E12/§4-5", |_| claims::claim_area()),
        ("E13/§3", |_| claims::claim_density_power()),
        ("E14/§2.1", |_| claims::claim_scaling()),
        ("E15/§2.2", |_| studies::study_utilization()),
        ("E16/§4.1", |_| studies::study_gals()),
        ("E17/§4-5", |_| studies::study_bitserial()),
        ("E18/§3", |s| studies::study_variation_scaled(s.mc_samples)),
        ("E19/§1", |s| extensions::study_defects_scaled(s.defect_trials)),
        ("E20/§4.1", |_| extensions::study_clockless_power()),
        ("E21/§4", |s| extensions::study_general_mapper_scaled(s.mapper_funcs)),
        ("E22/§2.1+§4", |_| extensions::study_delay_crossover()),
        ("E23/§1+§5", |_| extensions::study_thermal()),
        ("E24/§5", |_| service::study_job_server()),
        ("E25/§2+§4", |_| poly::study_poly_synthesis()),
        ("E26/§2", |_| poly::study_poly_completeness()),
    ]
}

/// Run every experiment in index order at the given scale.
pub fn run_all_with(scale: Scale) -> Vec<Experiment> {
    registry().into_iter().map(|(_, f)| f(scale)).collect()
}

/// The registry entries whose id contains any filter substring (all of
/// them when `filters` is empty), in index order. Nothing runs until the
/// caller invokes a constructor, so a subset pays only for itself.
pub fn matching(filters: &[String]) -> Vec<(&'static str, ExperimentFn)> {
    registry()
        .into_iter()
        .filter(|(id, _)| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_experiments_pass() {
        for e in [
            claims::claim_config_bits(),
            claims::claim_area(),
            claims::claim_density_power(),
            claims::claim_scaling(),
        ] {
            assert!(e.pass, "{} mismatched:\n{e}", e.id);
        }
    }

    #[test]
    fn device_experiments_pass() {
        for e in
            [devices::fig3_inverter_vtc(), devices::fig4_nand_modes(), devices::fig5_buffer_modes()]
        {
            assert!(e.pass, "{} mismatched:\n{e}", e.id);
        }
    }

    #[test]
    fn display_renders_all_fields() {
        let e = claims::claim_area();
        let s = format!("{e}");
        assert!(s.contains(e.id) && s.contains("paper:"));
        assert!(e.rows.iter().all(|r| s.contains(r)));
    }

    #[test]
    fn registry_ids_match_the_experiments_they_build() {
        // cheap subset only (the golden test runs the whole suite); the id
        // pairing is what `matching`'s filtering correctness rests on
        for (id, f) in registry() {
            match id {
                "E6/Fig8" | "E11/§4" | "E12/§4-5" | "E13/§3" | "E14/§2.1" => {
                    assert_eq!(f(Scale::fast()).id, id);
                }
                _ => {}
            }
        }
        assert_eq!(registry().len(), 26);
    }

    #[test]
    fn matching_filters_by_substring() {
        let got = matching(&["E12".into(), "Fig8".into()]);
        let ids: Vec<&str> = got.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec!["E6/Fig8", "E12/§4-5"]);
        assert_eq!(matching(&[]).len(), registry().len());
    }
}
