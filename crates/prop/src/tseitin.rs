//! A count-preserving Tseitin transformation.
//!
//! The classical Tseitin encoding introduces one definition variable per
//! internal gate and asserts the *equivalence* between the variable and the
//! gate it names. With full equivalences (rather than the one-directional
//! "Plaisted–Greenbaum" variant) every assignment of the original variables
//! extends to **exactly one** satisfying assignment of the definition
//! variables, so weighted model counts are preserved as long as the definition
//! variables carry weight `(1, 1)`.
//!
//! [`to_cnf`] returns the CNF together with the extended [`VarWeights`] so the
//! counters can be called directly on the result.

use crate::cnf::{Cnf, Lit};
use crate::formula::{PropFormula, Var};
use crate::weights::VarWeights;
use num_traits::One;
use wfomc_logic::weights::Weight;

/// The result of a Tseitin transformation.
#[derive(Clone, Debug)]
pub struct TseitinCnf {
    /// The CNF over original + definition variables.
    pub cnf: Cnf,
    /// Weights extended with `(1,1)` for every definition variable.
    pub weights: VarWeights,
    /// Number of original variables (`0..original_vars` are the inputs).
    pub original_vars: usize,
}

/// Converts a propositional formula to CNF, preserving weighted model counts.
///
/// `weights` must cover all variables of `formula` (i.e.
/// `weights.len() >= formula.num_vars()`); the variable universe of the
/// returned CNF is `weights.len()` plus the introduced definition variables,
/// so unconstrained original variables keep contributing `w + w̄`.
pub fn to_cnf(formula: &PropFormula, weights: &VarWeights) -> TseitinCnf {
    assert!(
        weights.len() >= formula.num_vars(),
        "weights cover {} variables but the formula mentions {}",
        weights.len(),
        formula.num_vars()
    );
    let original_vars = weights.len();
    let mut enc = Encoder {
        clauses: Vec::new(),
        next_var: original_vars,
    };
    let root = enc.encode(formula);
    // Assert the root literal.
    enc.clauses.push(vec![root]);
    let num_vars = enc.next_var;
    let mut ext = weights.clone();
    for _ in original_vars..num_vars {
        ext.push(Weight::one(), Weight::one());
    }
    TseitinCnf {
        cnf: Cnf::new(num_vars, enc.clauses),
        weights: ext,
        original_vars,
    }
}

impl TseitinCnf {
    /// Extends a fresh weight table over the original variables with the
    /// `(1, 1)` pairs of this transformation's definition variables.
    ///
    /// The encoding itself is weight-independent, so one Tseitin CNF can be
    /// re-weighted any number of times — the compile-once / evaluate-many
    /// path of the circuit backend relies on this.
    ///
    /// # Panics
    /// Panics if `original` does not cover exactly the original variables.
    pub fn weights_for(&self, original: &VarWeights) -> VarWeights {
        assert_eq!(
            original.len(),
            self.original_vars,
            "weight table must cover exactly the original variables"
        );
        let mut ext = original.clone();
        for _ in self.original_vars..self.cnf.num_vars {
            ext.push(Weight::one(), Weight::one());
        }
        ext
    }
}

struct Encoder {
    clauses: Vec<Vec<Lit>>,
    next_var: Var,
}

impl Encoder {
    fn fresh(&mut self) -> Var {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// Returns a literal equivalent to the sub-formula, adding definition
    /// clauses as needed.
    fn encode(&mut self, f: &PropFormula) -> Lit {
        match f {
            PropFormula::Top => {
                // Introduce a definition variable forced to true.
                let v = self.fresh();
                self.clauses.push(vec![Lit::pos(v)]);
                Lit::pos(v)
            }
            PropFormula::Bottom => {
                let v = self.fresh();
                self.clauses.push(vec![Lit::neg(v)]);
                Lit::pos(v)
            }
            PropFormula::Var(v) => Lit::pos(*v),
            PropFormula::Not(g) => self.encode(g).negated(),
            PropFormula::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode(p)).collect();
                let d = self.fresh();
                // d ⇔ ⋀ lits:
                //   (¬d ∨ ℓᵢ) for each i, and (d ∨ ¬ℓ₁ ∨ … ∨ ¬ℓ_k).
                for &l in &lits {
                    self.clauses.push(vec![Lit::neg(d), l]);
                }
                let mut back: Vec<Lit> = vec![Lit::pos(d)];
                back.extend(lits.iter().map(|l| l.negated()));
                self.clauses.push(back);
                Lit::pos(d)
            }
            PropFormula::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode(p)).collect();
                let d = self.fresh();
                // d ⇔ ⋁ lits:
                //   (d ∨ ¬ℓᵢ) for each i, and (¬d ∨ ℓ₁ ∨ … ∨ ℓ_k).
                for &l in &lits {
                    self.clauses.push(vec![Lit::pos(d), l.negated()]);
                }
                let mut fwd: Vec<Lit> = vec![Lit::neg(d)];
                fwd.extend(lits.iter().copied());
                self.clauses.push(fwd);
                Lit::pos(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{exact_wmc, exact_wmc_formula, WmcBackend};
    use wfomc_logic::weights::weight_int;

    fn check_count_preserved(f: &PropFormula, weights: &VarWeights) {
        let direct = exact_wmc_formula(f, weights, WmcBackend::Enumerate);
        let t = to_cnf(f, weights);
        let via_cnf = exact_wmc(&t.cnf, &t.weights, WmcBackend::Enumerate);
        assert_eq!(direct, via_cnf, "Tseitin changed the count of {f}");
        let via_dpll = exact_wmc(&t.cnf, &t.weights, WmcBackend::Dpll);
        assert_eq!(direct, via_dpll);
    }

    #[test]
    fn preserves_counts_on_small_formulas() {
        let x = PropFormula::var(0);
        let y = PropFormula::var(1);
        let z = PropFormula::var(2);
        let cases = vec![
            PropFormula::or(x.clone(), y.clone()),
            PropFormula::and(
                PropFormula::or(x.clone(), PropFormula::not(y.clone())),
                PropFormula::or(y.clone(), z.clone()),
            ),
            PropFormula::iff(x.clone(), PropFormula::and(y.clone(), z.clone())),
            PropFormula::implies(PropFormula::and(x.clone(), y.clone()), z.clone()),
            PropFormula::Top,
            PropFormula::Bottom,
        ];
        let w = VarWeights::from_vecs(
            vec![weight_int(2), weight_int(3), weight_int(1)],
            vec![weight_int(1), weight_int(1), weight_int(5)],
        );
        for f in cases {
            check_count_preserved(&f, &w);
        }
    }

    #[test]
    fn preserves_counts_with_negative_weights() {
        // The Skolemization weight (1, −1) must survive the transform.
        let f = PropFormula::or(PropFormula::var(0), PropFormula::var(1));
        let w = VarWeights::from_vecs(
            vec![weight_int(1), weight_int(1)],
            vec![weight_int(-1), weight_int(1)],
        );
        check_count_preserved(&f, &w);
    }

    #[test]
    fn unconstrained_variables_still_count() {
        // Universe of 3 variables, formula mentions only x0.
        let f = PropFormula::var(0);
        let w = VarWeights::ones(3);
        let t = to_cnf(&f, &w);
        // Models: x0 = true, x1/x2 free → 4.
        assert_eq!(
            exact_wmc(&t.cnf, &t.weights, WmcBackend::Dpll),
            weight_int(4)
        );
    }

    #[test]
    #[should_panic(expected = "weights cover")]
    fn missing_weights_panic() {
        let f = PropFormula::var(5);
        to_cnf(&f, &VarWeights::ones(2));
    }

    #[test]
    fn weights_for_reweights_one_encoding() {
        let f = PropFormula::iff(
            PropFormula::var(0),
            PropFormula::or(PropFormula::var(1), PropFormula::var(2)),
        );
        let t = to_cnf(&f, &VarWeights::ones(3));
        // Re-weight the same CNF and cross-check against a fresh transform.
        let new = VarWeights::from_vecs(
            vec![weight_int(2), weight_int(-1), weight_int(3)],
            vec![weight_int(1), weight_int(4), weight_int(1)],
        );
        let reweighted = t.weights_for(&new);
        assert_eq!(reweighted.len(), t.cnf.num_vars);
        assert_eq!(
            exact_wmc(&t.cnf, &reweighted, WmcBackend::Dpll),
            exact_wmc_formula(&f, &new, WmcBackend::Enumerate)
        );
    }

    #[test]
    #[should_panic(expected = "exactly the original")]
    fn weights_for_rejects_wrong_length() {
        let f = PropFormula::var(0);
        let t = to_cnf(&f, &VarWeights::ones(2));
        t.weights_for(&VarWeights::ones(5));
    }
}
