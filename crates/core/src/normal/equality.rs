//! Lemma 3.5 — removing the equality predicate.
//!
//! Replace every equality atom `x = y` by a fresh binary relation `E(x,y)` and
//! conjoin the hard constraint `∀x E(x,x)`. With weights `w(E) = z`,
//! `w̄(E) = 1`, the weighted model count of the rewritten sentence Φ′ is a
//! polynomial `f(z)` of degree at most `n²` whose monomials all have degree
//! ≥ n (the diagonal is forced). Worlds where `|E| = n` are exactly those
//! interpreting `E` as true equality, so the coefficient of `zⁿ` equals
//! `WFOMC(Φ, n, w, w̄)`.
//!
//! [`wfomc_via_equality_removal`] gets at that coefficient
//! **symbolically**: it gives `E` the indeterminate
//! [`wfomc_logic::poly::Polynomial::x`] as its weight and evaluates the
//! rewritten sentence **once** in the [`Poly`] algebra — every lifted (or
//! grounded) algorithm then computes `f` itself, coefficient-exactly, in a
//! single run. The literal Lemma 3.5 protocol (evaluate `f` at `n² + 1`
//! rational points with an equality-free oracle and Lagrange-interpolate)
//! lives in this module's tests as the differential oracle.

use wfomc_logic::algebra::Poly;
use wfomc_logic::poly::lift_with_indeterminate;
use wfomc_logic::syntax::Formula;
use wfomc_logic::term::Term;
use wfomc_logic::vocabulary::{Predicate, Vocabulary};
use wfomc_logic::weights::{Weight, Weights};

use crate::plan::Problem;

/// The equality-free rewriting of a sentence.
#[derive(Clone, Debug)]
pub struct EqualityFree {
    /// `Φ_E ∧ ∀x E(x,x)` — the rewritten sentence.
    pub formula: Formula,
    /// The vocabulary extended with the fresh predicate `E`.
    pub vocabulary: Vocabulary,
    /// The fresh predicate standing in for equality.
    pub equality_predicate: Predicate,
}

/// Rewrites a sentence so it no longer uses the built-in equality predicate.
pub fn remove_equality(formula: &Formula, vocabulary: &Vocabulary) -> EqualityFree {
    let mut vocabulary = vocabulary.extended_with(&formula.vocabulary());
    let e = vocabulary.add_fresh("Eq", 2);
    let rewritten = formula.map_bottom_up(&mut |node| match node {
        Formula::Equals(a, b) => Formula::atom(e.clone(), vec![a, b]),
        other => other,
    });
    // The reflexivity axiom is a closed conjunct, so its bound variable can
    // reuse any name the sentence already employs — keeping an FO² input
    // inside FO² so the rewritten sentence stays liftable.
    let x = formula
        .all_variables()
        .into_iter()
        .next()
        .unwrap_or_else(|| wfomc_logic::term::Variable::new("eq_x"));
    let reflexivity = Formula::forall(
        x.clone(),
        Formula::atom(e.clone(), vec![Term::Var(x.clone()), Term::Var(x)]),
    );
    EqualityFree {
        formula: Formula::and(rewritten, reflexivity),
        vocabulary,
        equality_predicate: e,
    }
}

/// Computes `WFOMC(Φ, n, w, w̄)` for a sentence Φ *with* equality by **one**
/// lifted evaluation in the [`Poly`] algebra: the fresh predicate `E` gets
/// the indeterminate `z` as its weight (`w(E) = z`, `w̄(E) = 1`), the
/// plan-then-execute solver computes the Eq-weight polynomial `f(z)`
/// symbolically, and the answer is the coefficient of `zⁿ`.
///
/// When the rewritten sentence is FO² this is one run of the cell-sum engine
/// over polynomial-valued cells; when it is not, the plan's grounded path
/// compiles one d-DNNF circuit and evaluates it once over polynomial
/// weights. Either way there are no interpolation points on this path — the
/// `n² + 1`-point Lagrange protocol survives only as the tests' differential
/// oracle.
pub fn wfomc_via_equality_removal(
    formula: &Formula,
    vocabulary: &Vocabulary,
    n: usize,
    weights: &Weights,
) -> Weight {
    let rewritten = remove_equality(formula, vocabulary);
    let problem = Problem::new(rewritten.formula.clone())
        .with_vocabulary(rewritten.vocabulary.clone())
        .with_weights(weights.clone());
    let plan = problem
        .plan()
        .expect("the rewritten sentence is closed and the grounded fallback always applies");

    let poly_weights = lift_with_indeterminate(weights, rewritten.equality_predicate.name());
    let f = plan
        .count_in(n, &Poly, &poly_weights)
        .expect("plan evaluation cannot fail after planning succeeded");
    f.coeff(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::{One, Zero};
    use wfomc_ground::{brute_force_wfomc, wfomc as ground_wfomc, GroundSolver};
    use wfomc_logic::builders::*;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::weight_int;
    use wfomc_prop::WmcBackend;

    /// Computes `WFOMC(Φ, n, w, w̄)` for a sentence Φ *with* equality, using
    /// an oracle that can only count sentences *without* equality.
    ///
    /// The oracle is called `n² + 1` times, once per interpolation point,
    /// with the rewritten sentence, the extended vocabulary and the weights
    /// extended by `w(E) = z`, `w̄(E) = 1` — the literal Lemma 3.5 protocol,
    /// and the one oracle the symbolic path is checked against.
    fn wfomc_via_equality_removal_with_oracle(
        formula: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
        mut oracle: impl FnMut(&Formula, &Vocabulary, usize, &Weights) -> Weight,
    ) -> Weight {
        let rewritten = remove_equality(formula, vocabulary);
        coefficient_by_interpolation(&rewritten, n, weights, |w| {
            oracle(&rewritten.formula, &rewritten.vocabulary, n, w)
        })
    }

    /// Sweeps `w(E) = z` over the `n² + 1` interpolation points, evaluates
    /// each with the supplied counter, and extracts the coefficient of `zⁿ`.
    fn coefficient_by_interpolation(
        rewritten: &EqualityFree,
        n: usize,
        weights: &Weights,
        mut point_value: impl FnMut(&Weights) -> Weight,
    ) -> Weight {
        let degree = n * n;
        let mut points: Vec<(Weight, Weight)> = Vec::with_capacity(degree + 1);
        for z in 0..=degree {
            let mut w = weights.clone();
            w.set(
                rewritten.equality_predicate.name(),
                weight_int(z as i64),
                weight_int(1),
            );
            points.push((weight_int(z as i64), point_value(&w)));
        }
        let coefficients = interpolate(&points);
        coefficients.get(n).cloned().unwrap_or_else(Weight::zero)
    }

    /// The grounded counter on the d-DNNF circuit backend, as an oracle.
    fn circuit_wfomc(formula: &Formula, vocabulary: &Vocabulary, n: usize, w: &Weights) -> Weight {
        GroundSolver::with_backend(WmcBackend::Circuit).wfomc(formula, vocabulary, n, w)
    }

    /// Lagrange interpolation: given `d+1` points with distinct x-coordinates,
    /// returns the coefficients (low degree first) of the unique polynomial of
    /// degree ≤ d passing through them. Exact rational arithmetic throughout.
    fn interpolate(points: &[(Weight, Weight)]) -> Vec<Weight> {
        let d = points.len();
        if d == 0 {
            return vec![];
        }
        let mut result = vec![Weight::zero(); d];
        for (i, (xi, yi)) in points.iter().enumerate() {
            // Build the Lagrange basis polynomial L_i = Π_{j≠i} (x − x_j) / (x_i − x_j).
            let mut basis = vec![Weight::one()]; // polynomial "1"
            let mut denom = Weight::one();
            for (j, (xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                basis = poly_mul_linear(&basis, xj);
                denom *= xi - xj;
            }
            let scale = yi / denom;
            for (k, c) in basis.iter().enumerate() {
                result[k] += c * &scale;
            }
        }
        result
    }

    /// Multiplies a polynomial (low degree first) by `(x − root)`.
    fn poly_mul_linear(poly: &[Weight], root: &Weight) -> Vec<Weight> {
        let mut out = vec![Weight::zero(); poly.len() + 1];
        for (k, c) in poly.iter().enumerate() {
            out[k + 1] += c;
            out[k] -= c * root;
        }
        out
    }

    #[test]
    fn interpolation_recovers_polynomial_coefficients() {
        // f(x) = 2 − 3x + x³ sampled at 0..3.
        let f = |x: i64| weight_int(2 - 3 * x + x * x * x);
        let points: Vec<_> = (0..=3).map(|x| (weight_int(x), f(x))).collect();
        let coeffs = interpolate(&points);
        assert_eq!(coeffs[0], weight_int(2));
        assert_eq!(coeffs[1], weight_int(-3));
        assert_eq!(coeffs[2], weight_int(0));
        assert_eq!(coeffs[3], weight_int(1));
    }

    #[test]
    fn rewriting_removes_equality_syntax() {
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let rewritten = remove_equality(&f, &f.vocabulary());
        assert!(!rewritten.formula.uses_equality());
        assert!(rewritten
            .vocabulary
            .contains(rewritten.equality_predicate.name()));
    }

    #[test]
    fn equality_removal_preserves_wfomc_via_oracle() {
        // ∀x∀y (R(x,y) ∨ x = y): tuples off the diagonal must be present.
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 3)]);
        for n in 0..=2 {
            let direct = brute_force_wfomc(&f, &voc, n, &weights);
            let via_removal =
                wfomc_via_equality_removal_with_oracle(&f, &voc, n, &weights, |g, v, n, w| {
                    ground_wfomc(g, v, n, w)
                });
            assert_eq!(direct, via_removal, "n = {n}");
        }
    }

    #[test]
    fn planned_equality_removal_matches_the_oracle_protocol() {
        // The rewritten sentence is FO² here, so the symbolic variant is one
        // FO² evaluation over polynomial-valued cells.
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 3)]);
        for n in 0..=3 {
            let direct = brute_force_wfomc(&f, &voc, n, &weights);
            let planned = wfomc_via_equality_removal(&f, &voc, n, &weights);
            assert_eq!(direct, planned, "n = {n}");
        }
        // A lifted plan answers the rewritten sentence (it is FO²).
        let rewritten = remove_equality(&f, &voc);
        let plan = crate::Solver::new()
            .plan(&crate::Problem::new(rewritten.formula.clone()))
            .unwrap();
        assert_eq!(plan.method(), crate::Method::Fo2);
    }

    #[test]
    fn extension_axiom_inequalities_are_supported() {
        // The Table 2 extension axiom uses ≠; check the rewriting pipeline on
        // n = 2 (where the axiom is vacuously true because no three distinct
        // elements exist).
        let f = catalog::extension_axiom();
        let voc = f.vocabulary();
        let weights = Weights::ones();
        let n = 2;
        let direct = brute_force_wfomc(&f, &voc, n, &weights);
        let via_removal =
            wfomc_via_equality_removal_with_oracle(&f, &voc, n, &weights, |g, v, n, w| {
                ground_wfomc(g, v, n, w)
            });
        assert_eq!(direct, via_removal);
        // The planned variant grounds (the axiom is FO³) through one cached
        // lineage per domain size.
        assert_eq!(wfomc_via_equality_removal(&f, &voc, n, &weights), direct);
        // Sanity: 16 structures over E/2 at n=2, all satisfy the axiom.
        assert_eq!(direct, weight_int(16));
    }

    #[test]
    fn compiled_equality_removal_matches_brute_force() {
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 3)]);
        for n in 0..=2 {
            let direct = brute_force_wfomc(&f, &voc, n, &weights);
            let compiled =
                wfomc_via_equality_removal_with_oracle(&f, &voc, n, &weights, circuit_wfomc);
            assert_eq!(direct, compiled, "n = {n}");
        }
    }

    #[test]
    fn compiled_equality_removal_matches_the_oracle_formulation() {
        // The extension-axiom pipeline, through one compiled circuit instead
        // of n² + 1 oracle searches.
        let f = catalog::extension_axiom();
        let voc = f.vocabulary();
        let n = 2;
        let via_oracle =
            wfomc_via_equality_removal_with_oracle(&f, &voc, n, &Weights::ones(), |g, v, n, w| {
                ground_wfomc(g, v, n, w)
            });
        let via_circuit =
            wfomc_via_equality_removal_with_oracle(&f, &voc, n, &Weights::ones(), circuit_wfomc);
        assert_eq!(via_oracle, via_circuit);
        assert_eq!(via_circuit, weight_int(16));
    }

    #[test]
    fn symbolic_path_matches_the_interpolation_oracle() {
        // The Poly-algebra default against the n² + 1-point Lagrange
        // protocol, on an FO² rewrite and on a grounded (FO³) rewrite, with
        // zero and negative weights in the mix.
        let fo2 = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let fo3 = catalog::extension_axiom();
        for (f, max_n) in [(fo2, 3), (fo3, 2)] {
            let voc = f.vocabulary();
            for weights in [
                Weights::ones(),
                Weights::from_ints([("R", 2, 3), ("E", 1, 1)]),
                Weights::from_ints([("R", 0, -2), ("E", -1, 2)]),
            ] {
                for n in 0..=max_n {
                    let symbolic = wfomc_via_equality_removal(&f, &voc, n, &weights);
                    let interpolated =
                        wfomc_via_equality_removal_with_oracle(&f, &voc, n, &weights, ground_wfomc);
                    assert_eq!(symbolic, interpolated, "{f} at n = {n}");
                }
            }
        }
    }

    #[test]
    fn oracle_is_called_polynomially_many_times() {
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let voc = f.vocabulary();
        let mut calls = 0usize;
        let n = 2;
        let _ =
            wfomc_via_equality_removal_with_oracle(&f, &voc, n, &Weights::ones(), |g, v, n, w| {
                calls += 1;
                ground_wfomc(g, v, n, w)
            });
        assert_eq!(calls, n * n + 1);
    }
}
