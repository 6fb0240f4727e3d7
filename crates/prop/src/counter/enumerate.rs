//! Brute-force weighted model counting by assignment enumeration.
//!
//! Exponential in the number of variables; used as ground truth for the DPLL
//! counter and by tests on tiny instances. Guarded by a hard cap so an
//! accidental call on a large instance fails fast instead of hanging.

use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, Exact, VarPairs};
use wfomc_logic::weights::Weight;

use crate::cnf::Cnf;
use crate::formula::PropFormula;
use crate::weights::VarWeights;

/// The largest variable count the enumerator accepts (2³⁰ assignments is
/// already far beyond what tests should do; the cap exists to fail fast).
pub const MAX_ENUMERATION_VARS: usize = 30;

/// Weighted model count of a CNF by enumerating all `2^num_vars` assignments.
///
/// # Panics
/// Panics if `cnf.num_vars > MAX_ENUMERATION_VARS`.
pub fn wmc_enumerate(cnf: &Cnf, weights: &VarWeights) -> Weight {
    wmc_enumerate_in(cnf, &Exact, weights)
}

/// [`wmc_enumerate`] in an arbitrary [`Algebra`].
///
/// # Panics
/// Panics if the universe exceeds [`MAX_ENUMERATION_VARS`].
pub fn wmc_enumerate_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    cnf: &Cnf,
    algebra: &A,
    weights: &W,
) -> A::Elem {
    let n = cnf.num_vars.max(weights.table_len());
    assert!(
        n <= MAX_ENUMERATION_VARS,
        "refusing to enumerate 2^{n} assignments; use the DPLL backend"
    );
    let mut total = algebra.zero();
    let mut assignment = vec![false; n];
    for bits in 0u64..(1u64 << n) {
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (bits >> v) & 1 == 1;
        }
        if cnf.evaluate(&assignment) {
            algebra.add_assign(
                &mut total,
                &assignment_weight(algebra, weights, &assignment),
            );
        }
    }
    total
}

/// Weighted model count of an arbitrary propositional formula by enumeration.
///
/// The variable universe is `weights.len()`, so variables not mentioned in the
/// formula still contribute `w + w̄` per variable.
///
/// # Panics
/// Panics if the universe exceeds [`MAX_ENUMERATION_VARS`] or the formula
/// mentions a variable outside the universe.
pub fn wmc_formula(formula: &PropFormula, weights: &VarWeights) -> Weight {
    assert!(
        formula.num_vars() <= weights.len(),
        "formula mentions variable {} but the universe has {} variables",
        formula.num_vars().saturating_sub(1),
        weights.len()
    );
    wmc_formula_in(formula, &Exact, weights)
}

/// [`wmc_formula`] in an arbitrary [`Algebra`]; the universe is
/// `max(formula.num_vars(), weights.table_len())`.
///
/// # Panics
/// Panics if the universe exceeds [`MAX_ENUMERATION_VARS`].
pub fn wmc_formula_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    formula: &PropFormula,
    algebra: &A,
    weights: &W,
) -> A::Elem {
    wmc_formula_guarded(formula, algebra, weights, &Guard::unarmed())
        .expect("an unarmed guard cannot interrupt")
}

/// [`wmc_formula_in`] under a resource [`Guard`]: the identical
/// enumeration, ticking once per assignment so deadlines, work caps and
/// cancellation interrupt mid-sweep.
///
/// # Panics
/// Panics if the universe exceeds [`MAX_ENUMERATION_VARS`].
pub fn wmc_formula_guarded<A: Algebra, W: VarPairs<A> + ?Sized>(
    formula: &PropFormula,
    algebra: &A,
    weights: &W,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    let n = formula.num_vars().max(weights.table_len());
    assert!(
        n <= MAX_ENUMERATION_VARS,
        "refusing to enumerate 2^{n} assignments; use the DPLL backend"
    );
    wfomc_guard::failpoint("prop.enumerate")?;
    let mut total = algebra.zero();
    let mut assignment = vec![false; n];
    for bits in 0u64..(1u64 << n) {
        guard.tick("prop.enumerate", 1)?;
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (bits >> v) & 1 == 1;
        }
        if formula.evaluate(&assignment) {
            algebra.add_assign(
                &mut total,
                &assignment_weight(algebra, weights, &assignment),
            );
        }
    }
    Ok(total)
}

/// The weight of a complete assignment in the algebra (Eq. (3) of §2).
fn assignment_weight<A: Algebra, W: VarPairs<A> + ?Sized>(
    algebra: &A,
    weights: &W,
    assignment: &[bool],
) -> A::Elem {
    let mut w = algebra.one();
    for (v, &value) in assignment.iter().enumerate() {
        algebra.mul_assign(&mut w, &weights.var_weight(algebra, v, value));
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Lit;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn counts_or_clause() {
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        assert_eq!(wmc_enumerate(&cnf, &VarWeights::ones(2)), weight_int(3));
    }

    #[test]
    fn weighted_count_matches_hand_computation() {
        // F = x0 ∨ x1 with w = (2, 3), w̄ = (5, 7):
        // models TT: 2·3=6, TF: 2·7=14, FT: 5·3=15 → 35.
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        let w = VarWeights::from_vecs(
            vec![weight_int(2), weight_int(3)],
            vec![weight_int(5), weight_int(7)],
        );
        assert_eq!(wmc_enumerate(&cnf, &w), weight_int(35));
    }

    #[test]
    fn probability_style_weights_sum_to_probability() {
        // p(x0)=1/2, p(x1)=1/3: Pr(x0 ∨ x1) = 1 − (1/2)(2/3) = 2/3.
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        let w = VarWeights::from_vecs(
            vec![weight_ratio(1, 2), weight_ratio(1, 3)],
            vec![weight_ratio(1, 2), weight_ratio(2, 3)],
        );
        assert_eq!(wmc_enumerate(&cnf, &w), weight_ratio(2, 3));
    }

    #[test]
    fn formula_enumeration_includes_unmentioned_vars() {
        let f = PropFormula::var(0);
        // Universe of 3 vars: 1 · 2 · 2 = 4 models.
        assert_eq!(wmc_formula(&f, &VarWeights::ones(3)), weight_int(4));
    }

    #[test]
    fn empty_cnf_counts_everything() {
        let cnf = Cnf::trivial(3);
        assert_eq!(wmc_enumerate(&cnf, &VarWeights::ones(3)), weight_int(8));
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn too_many_vars_panics() {
        let cnf = Cnf::trivial(40);
        wmc_enumerate(&cnf, &VarWeights::ones(40));
    }
}
