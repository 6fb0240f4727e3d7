//! Brute-force weighted model counting by assignment enumeration.
//!
//! Exponential in the number of variables; used as ground truth for the DPLL
//! counter and by tests on tiny instances. Guarded by a hard cap so an
//! accidental call on a large instance fails fast instead of hanging.

use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};

/// Guard phase name for the enumeration sweep.
const PHASE: &str = "prop.enumerate";

/// The largest variable count the enumerator accepts (2³⁰ assignments is
/// already far beyond what tests should do; the cap exists to fail fast).
pub const MAX_ENUMERATION_VARS: usize = 30;

/// Weighted model count over the universe `0..universe` by enumerating all
/// `2^universe` assignments and summing the weights of those `is_model`
/// accepts. Ticks the guard once per assignment, so deadlines, work caps
/// and cancellation interrupt mid-sweep.
///
/// # Panics
/// Panics if `universe` exceeds [`MAX_ENUMERATION_VARS`].
pub(crate) fn wmc_enumerate_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    universe: usize,
    algebra: &A,
    weights: &W,
    guard: &Guard,
    is_model: impl Fn(&[bool]) -> bool,
) -> Result<A::Elem, Interrupt> {
    assert!(
        universe <= MAX_ENUMERATION_VARS,
        "refusing to enumerate 2^{universe} assignments; use the DPLL backend"
    );
    wfomc_guard::failpoint(PHASE)?;
    let mut total = algebra.zero();
    let mut assignment = vec![false; universe];
    for bits in 0u64..(1u64 << universe) {
        guard.tick(PHASE, 1)?;
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (bits >> v) & 1 == 1;
        }
        if is_model(&assignment) {
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
    use crate::cnf::{Cnf, Lit};
    use crate::counter::{exact_wmc, exact_wmc_formula, WmcBackend};
    use crate::formula::PropFormula;
    use crate::weights::VarWeights;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn counts_or_clause() {
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        assert_eq!(
            exact_wmc(&cnf, &VarWeights::ones(2), WmcBackend::Enumerate),
            weight_int(3)
        );
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
        assert_eq!(exact_wmc(&cnf, &w, WmcBackend::Enumerate), weight_int(35));
    }

    #[test]
    fn probability_style_weights_sum_to_probability() {
        // p(x0)=1/2, p(x1)=1/3: Pr(x0 ∨ x1) = 1 − (1/2)(2/3) = 2/3.
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        let w = VarWeights::from_vecs(
            vec![weight_ratio(1, 2), weight_ratio(1, 3)],
            vec![weight_ratio(1, 2), weight_ratio(2, 3)],
        );
        assert_eq!(
            exact_wmc(&cnf, &w, WmcBackend::Enumerate),
            weight_ratio(2, 3)
        );
    }

    #[test]
    fn formula_enumeration_includes_unmentioned_vars() {
        let f = PropFormula::var(0);
        // Universe of 3 vars: 1 · 2 · 2 = 4 models.
        assert_eq!(
            exact_wmc_formula(&f, &VarWeights::ones(3), WmcBackend::Enumerate),
            weight_int(4)
        );
    }

    #[test]
    fn empty_cnf_counts_everything() {
        let cnf = Cnf::trivial(3);
        assert_eq!(
            exact_wmc(&cnf, &VarWeights::ones(3), WmcBackend::Enumerate),
            weight_int(8)
        );
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn too_many_vars_panics() {
        let cnf = Cnf::trivial(40);
        exact_wmc(&cnf, &VarWeights::ones(40), WmcBackend::Enumerate);
    }
}
