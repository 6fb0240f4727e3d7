//! Figure 2 / Theorem 4.1(1) — the reduction from #SAT to FOMC of an FO²
//! sentence, proving the *combined* complexity of FO² model counting is
//! #P-hard.
//!
//! Given a Boolean formula `F` over variables `X₁,…,X_n` (with `n ≥ 2`), the
//! sentence `ϕ_F` over the fixed vocabulary `{A/1, B/1, C/1, R/2, S/2}` forces
//! every model over a domain of size `n+1` to look like Figure 2: a unique
//! `C`-element `c₀`, a unique `R`-path `c₁ → … → c_n` from the unique
//! `A`-element to the unique `B`-element, no other `R`-edges, and `S`-edges
//! only from `c₀`. The only freedom left is which `S(c₀, cᵢ)` edges exist —
//! exactly one Boolean assignment — constrained by `F` itself with `Xᵢ`
//! replaced by `γᵢ = ∃x (αᵢ(x) ∧ ∃y S(y,x))`, where `αᵢ(x)` says "x is the
//! i-th element of the path". Hence `FOMC(ϕ_F, n+1) = (n+1)! · #F`.

use wfomc_logic::builders::{and, atom, exists, forall, implies, not};
use wfomc_logic::syntax::Formula;
use wfomc_logic::vocabulary::Vocabulary;
use wfomc_prop::PropFormula;

/// The Figure 2 reduction for one Boolean formula.
#[derive(Clone, Debug)]
pub struct SharpSatReduction {
    /// The FO² sentence ϕ_F.
    pub sentence: Formula,
    /// Number of Boolean variables of `F`.
    pub num_variables: usize,
    /// The domain size at which the count equals `(n+1)!·#F`.
    pub domain_size: usize,
}

/// Builds `ϕ_F` from a propositional formula over variables `0..num_vars`.
///
/// # Panics
/// Panics if `num_vars < 2` (the gadget needs the `A` and `B` elements to be
/// distinct) or the formula mentions a variable `≥ num_vars`.
pub fn sharp_sat_to_fomc(boolean_formula: &PropFormula, num_vars: usize) -> SharpSatReduction {
    assert!(
        num_vars >= 2,
        "the Figure 2 gadget needs at least two Boolean variables (pad F if necessary)"
    );
    assert!(
        boolean_formula.num_vars() <= num_vars,
        "the formula mentions more variables than declared"
    );

    let mut parts: Vec<Formula> = Vec::new();

    // Unique, pairwise-distinct A, B and C elements.
    for p in ["A", "B", "C"] {
        parts.push(exists(["x"], atom(p, &["x"])));
        parts.push(forall(
            ["x", "y"],
            implies(
                and(vec![atom(p, &["x"]), atom(p, &["y"])]),
                Formula::equals(
                    wfomc_logic::term::Term::var("x"),
                    wfomc_logic::term::Term::var("y"),
                ),
            ),
        ));
    }
    for (p, q) in [("A", "B"), ("A", "C"), ("B", "C")] {
        parts.push(not(exists(
            ["x"],
            and(vec![atom(p, &["x"]), atom(q, &["x"])]),
        )));
    }

    // There is an R-path with exactly `num_vars` elements from A to B …
    parts.push(exists_path(num_vars));
    // … and no path with m ∈ [2n] \ {n} elements.
    for m in 1..=(2 * num_vars) {
        if m != num_vars {
            parts.push(not(exists_path(m)));
        }
    }

    // R avoids the C element; S starts at the C element. We additionally
    // require S to point away from the C element (excluding the self-loop
    // S(c₀, c₀), which the paper's prose leaves implicit but which is needed
    // for the count to be exactly (n+1)!·#F rather than 2·(n+1)!·#F).
    parts.push(forall(
        ["x", "y"],
        implies(
            atom("R", &["x", "y"]),
            and(vec![not(atom("C", &["x"])), not(atom("C", &["y"]))]),
        ),
    ));
    parts.push(forall(
        ["x", "y"],
        implies(
            atom("S", &["x", "y"]),
            and(vec![atom("C", &["x"]), not(atom("C", &["y"]))]),
        ),
    ));

    // F itself, with Xᵢ ↦ γᵢ.
    parts.push(encode_boolean(boolean_formula));

    SharpSatReduction {
        sentence: Formula::and_all(parts),
        num_variables: num_vars,
        domain_size: num_vars + 1,
    }
}

/// The fixed vocabulary of the reduction.
pub fn reduction_vocabulary() -> Vocabulary {
    Vocabulary::from_pairs([("A", 1), ("B", 1), ("C", 1), ("R", 2), ("S", 2)])
}

/// `αᵢ(x)` — "x is the i-th element of the A-rooted R-path" (1-based), written
/// with two alternating variables. The formula has `x` free when `i` is odd
/// and is built so the caller can wrap it appropriately; to keep variable
/// bookkeeping simple we always produce a formula with free variable `x`.
fn alpha(i: usize) -> Formula {
    // α₁(x) = A(x); α_{i+1}(x) = ∃y (α_i(y) ∧ R(y, x)), reusing x/y alternately.
    // To stay within two variables we rebuild the chain from the inside out,
    // swapping the roles of x and y at every level and finally renaming so the
    // free variable is x.
    build_alpha(i, "x", "y")
}

fn build_alpha(i: usize, free: &str, other: &str) -> Formula {
    if i == 1 {
        return atom("A", &[free]);
    }
    let inner = build_alpha(i - 1, other, free);
    exists([other], and(vec![inner, atom("R", &[other, free])]))
}

/// "There exists an R-path with exactly `m` elements from the A element to the
/// B element."
fn exists_path(m: usize) -> Formula {
    exists(["x"], and(vec![alpha(m), atom("B", &["x"])]))
}

/// `γᵢ = ∃x (αᵢ(x) ∧ ∃y S(y, x))`.
fn gamma(i: usize) -> Formula {
    exists(
        ["x"],
        and(vec![alpha(i), exists(["y"], atom("S", &["y", "x"]))]),
    )
}

/// Translates the Boolean formula, mapping variable `i` (0-based) to `γ_{i+1}`.
fn encode_boolean(f: &PropFormula) -> Formula {
    match f {
        PropFormula::Top => Formula::Top,
        PropFormula::Bottom => Formula::Bottom,
        PropFormula::Var(v) => gamma(v + 1),
        PropFormula::Not(g) => Formula::not(encode_boolean(g)),
        PropFormula::And(gs) => Formula::and_all(gs.iter().map(encode_boolean)),
        PropFormula::Or(gs) => Formula::or_all(gs.iter().map(encode_boolean)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::ToPrimitive;
    use wfomc_core::Guard;
    use wfomc_ground::{fomc, GroundSolver};
    use wfomc_logic::algebra::Exact;
    use wfomc_logic::weights::{weight_int, Weights};
    use wfomc_prop::counter::{wmc_formula_via_in, WmcBackend};
    use wfomc_prop::VarWeights;

    fn count_sat(f: &PropFormula, num_vars: usize) -> i64 {
        let ones = VarWeights::ones(num_vars);
        wmc_formula_via_in(f, &Exact, &ones, WmcBackend::Enumerate, &Guard::unarmed())
            .unwrap()
            .to_integer()
            .to_i64()
            .unwrap()
    }

    #[test]
    fn sentence_is_fo2_over_the_fixed_vocabulary() {
        let f = PropFormula::or(PropFormula::var(0), PropFormula::var(1));
        let red = sharp_sat_to_fomc(&f, 2);
        assert!(red.sentence.is_sentence());
        assert_eq!(red.sentence.distinct_variable_count(), 2);
        assert!(red
            .sentence
            .vocabulary()
            .is_subvocabulary_of(&reduction_vocabulary()));
        assert_eq!(red.domain_size, 3);
    }

    #[test]
    fn sentence_size_grows_with_the_formula() {
        let small = sharp_sat_to_fomc(&PropFormula::var(0), 2);
        let large = sharp_sat_to_fomc(&PropFormula::var(0), 5);
        // The "no path of length m" family grows quadratically with n.
        assert!(large.sentence.size() > 2 * small.sentence.size());
    }

    #[test]
    #[should_panic(expected = "at least two Boolean variables")]
    fn tiny_formulas_are_rejected() {
        sharp_sat_to_fomc(&PropFormula::var(0), 1);
    }

    /// The headline equation FOMC(ϕ_F, n+1) = (n+1)!·#F, checked by grounding
    /// for two-variable formulas (domain size 3, 27 ground atoms).
    #[test]
    fn fomc_counts_models_times_factorial_two_variables() {
        let x0 = PropFormula::var(0);
        let x1 = PropFormula::var(1);
        let cases = vec![
            (PropFormula::or(x0.clone(), x1.clone()), 3),
            (PropFormula::and(x0.clone(), x1.clone()), 1),
            (PropFormula::iff(x0.clone(), x1.clone()), 2),
            (PropFormula::Top, 4),
            (PropFormula::not(x0.clone()), 2),
        ];
        for (f, expected_models) in cases {
            assert_eq!(count_sat(&f, 2), expected_models);
            let red = sharp_sat_to_fomc(&f, 2);
            let counted = fomc(&red.sentence, red.domain_size);
            // (n+1)! = 3! = 6.
            assert_eq!(
                counted,
                weight_int(6 * expected_models),
                "formula {f} with {expected_models} models"
            );
        }
    }

    #[test]
    #[ignore = "domain size 4 grounding (48 ground atoms); run with --ignored"]
    fn fomc_counts_models_times_factorial_three_variables() {
        let f = PropFormula::or_all([
            PropFormula::and(PropFormula::var(0), PropFormula::var(1)),
            PropFormula::not(PropFormula::var(2)),
        ]);
        let expected_models = count_sat(&f, 3);
        let red = sharp_sat_to_fomc(&f, 3);
        let counted = GroundSolver::with_backend(WmcBackend::Dpll).wfomc(
            &red.sentence,
            &red.sentence.vocabulary(),
            red.domain_size,
            &Weights::ones(),
        );
        // (n+1)! = 4! = 24.
        assert_eq!(counted, weight_int(24 * expected_models));
    }
}
