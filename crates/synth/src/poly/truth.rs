//! The polymorphic truth table: one minterm mask per named mode.

use super::PolyError;
use pmorph_sim::table::WideMask;

/// A polymorphic boolean specification: the same `vars`-input function
/// point evaluated under each named back-gate bias state ("mode").
///
/// Invariants, enforced at construction: at least two modes (one mode is
/// just a [`WideMask`]), unique mode names, one mask per
/// mode, all masks of the same arity ≥ 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyTruth {
    vars: usize,
    modes: Vec<String>,
    masks: Vec<WideMask>,
}

impl PolyTruth {
    /// Build from `(mode name, mask)` pairs, validating the invariants.
    pub fn new(modes: Vec<(String, WideMask)>) -> Result<Self, PolyError> {
        if modes.len() < 2 {
            return Err(PolyError::TooFewModes { got: modes.len() });
        }
        let vars = modes[0].1.vars();
        if vars == 0 {
            return Err(PolyError::NoVars);
        }
        let mut names = Vec::with_capacity(modes.len());
        let mut masks = Vec::with_capacity(modes.len());
        for (name, mask) in modes {
            if names.contains(&name) {
                return Err(PolyError::DuplicateMode(name));
            }
            if mask.vars() != vars {
                return Err(PolyError::ArityMismatch { mode: name, got: mask.vars(), want: vars });
            }
            names.push(name);
            masks.push(mask);
        }
        Ok(PolyTruth { vars, modes: names, masks })
    }

    /// Build by evaluating one closure per mode on every minterm.
    pub fn from_fns<F>(vars: usize, modes: Vec<(&str, F)>) -> Result<Self, PolyError>
    where
        F: FnMut(u64) -> bool,
    {
        Self::new(
            modes
                .into_iter()
                .map(|(name, f)| (name.to_string(), WideMask::from_fn(vars, f)))
                .collect(),
        )
    }

    /// Number of input variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of modes.
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// The mode names, in declaration order (the order configs are
    /// stored in throughout the suite).
    pub fn mode_names(&self) -> &[String] {
        &self.modes
    }

    /// Index of a mode by name.
    pub fn mode_index(&self, name: &str) -> Option<usize> {
        self.modes.iter().position(|m| m == name)
    }

    /// The minterm mask of mode `m`.
    pub fn mask(&self, m: usize) -> &WideMask {
        &self.masks[m]
    }

    /// All masks, mode order.
    pub fn masks(&self) -> &[WideMask] {
        &self.masks
    }

    /// Value of mode `m` at a minterm.
    pub fn eval(&self, m: usize, minterm: u64) -> bool {
        self.masks[m].get(minterm)
    }

    /// True when every mode computes the same function (a degenerate
    /// specification — the synthesizer handles it, but nothing about the
    /// circuit is polymorphic).
    pub fn is_uniform(&self) -> bool {
        self.masks.iter().all(|m| *m == self.masks[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_xnor() -> PolyTruth {
        PolyTruth::from_fns(
            2,
            vec![
                (
                    "nominal",
                    Box::new(|m: u64| m.count_ones() % 2 == 1) as Box<dyn FnMut(u64) -> bool>,
                ),
                ("shifted", Box::new(|m: u64| m.count_ones() % 2 == 0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = xor_xnor();
        assert_eq!(p.vars(), 2);
        assert_eq!(p.mode_count(), 2);
        assert_eq!(p.mode_names(), ["nominal".to_string(), "shifted".to_string()]);
        assert_eq!(p.mode_index("shifted"), Some(1));
        assert_eq!(p.mode_index("absent"), None);
        assert!(p.eval(0, 0b01) && !p.eval(1, 0b01));
        assert!(!p.is_uniform());
        // the two personalities are complements
        assert_eq!(p.mask(0).not(), *p.mask(1));
    }

    #[test]
    fn rejects_malformed_specifications() {
        let m2 = WideMask::from_u64(2, 0b0110);
        let m3 = WideMask::from_fn(3, |m| m == 0);
        assert_eq!(
            PolyTruth::new(vec![("only".into(), m2.clone())]),
            Err(PolyError::TooFewModes { got: 1 })
        );
        assert_eq!(PolyTruth::new(vec![]), Err(PolyError::TooFewModes { got: 0 }));
        assert_eq!(
            PolyTruth::new(vec![("a".into(), m2.clone()), ("a".into(), m2.clone())]),
            Err(PolyError::DuplicateMode("a".into()))
        );
        assert_eq!(
            PolyTruth::new(vec![("a".into(), m2), ("b".into(), m3)]),
            Err(PolyError::ArityMismatch { mode: "b".into(), got: 3, want: 2 })
        );
        let z = WideMask::zero(0);
        assert_eq!(
            PolyTruth::new(vec![("a".into(), z.clone()), ("b".into(), z)]),
            Err(PolyError::NoVars)
        );
    }

    #[test]
    fn uniform_detection() {
        let m = WideMask::from_u64(2, 0b0110);
        let p = PolyTruth::new(vec![("a".into(), m.clone()), ("b".into(), m)]).unwrap();
        assert!(p.is_uniform());
    }
}
