//! Theorem 3.7 — the dynamic program for the sentence
//! `QS4 = ∀x₁∀x₂∀y₁∀y₂ (S(x₁,y₁) ∨ ¬S(x₂,y₁) ∨ S(x₂,y₂) ∨ ¬S(x₁,y₂))`.
//!
//! The paper shows every model of the (domain-restricted) sentence satisfies
//! either `Pa` (some row of `S` is full) or `Pb` (some column of `S` is
//! empty), and these cases are exclusive. Writing `f(n₁, n₂)` and `g(n₁, n₂)`
//! for the weighted counts of the two cases, the recurrences are
//!
//! ```text
//! f(n₁, 0) = 1      f(n₁, n₂) = Σ_{k=1}^{n₁} C(n₁,k) · w^{k·n₂} · g(n₁−k, n₂)
//! g(0, n₂) = 1      g(n₁, n₂) = Σ_{ℓ=1}^{n₂} C(n₂,ℓ) · w̄^{n₁·ℓ} · f(n₁, n₂−ℓ)
//! ```
//!
//! and `WFOMC(QS4, n, w, w̄) = f(n, n) + g(n, n)` for `n ≥ 1`.
//!
//! This sentence matters because (per the paper) no existing set of lifted
//! inference rules computes it — it needs this bespoke dynamic program, which
//! is evidence that a complete rule set for symmetric WFOMC is still unknown.

use num_traits::One;

use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact};
use wfomc_logic::catalog;
use wfomc_logic::syntax::Formula;
use wfomc_logic::weights::{Weight, Weights};

use crate::combinatorics::binomial_weight;
use crate::error::LiftError;

/// True if the sentence is (syntactically) the paper's QS4 sentence.
///
/// The check is the derived `==` against the catalog formula: nothing is
/// normalized, so renaming a quantifier variable or the predicate `S`, or
/// reordering the disjuncts, misses the match. The
/// [`crate::solver::Solver`] only uses this as a fast path; unrecognized but
/// equivalent sentences simply fall back to grounding. Matching up to
/// isomorphism is open item 2 of `ROADMAP.md` ("Plan up to isomorphism").
pub fn is_qs4(sentence: &Formula) -> bool {
    sentence == &catalog::qs4()
}

/// `WFOMC(QS4, n, w, w̄)` in time `O(n²)` arithmetic operations: the
/// [`Exact`] instance of [`wfomc_qs4_in`].
pub fn wfomc_qs4(n: usize, weights: &Weights) -> Weight {
    wfomc_qs4_in(n, &Exact, &AlgebraWeights::lift(&Exact, weights))
}

/// [`wfomc_qs4`] in an arbitrary [`Algebra`]: the recurrences of
/// Theorem 3.7 only add and multiply, so the same `O(n²)` dynamic program
/// runs over any ring.
pub fn wfomc_qs4_in<A: Algebra>(n: usize, algebra: &A, weights: &AlgebraWeights<A>) -> A::Elem {
    let (w, w_bar) = weights.pair(algebra, "S");
    if n == 0 {
        // A single empty structure of weight 1.
        return algebra.one();
    }
    let (f, g) = qs4_tables_in(n, n, algebra, &w, &w_bar);
    algebra.add(&f[n][n], &g[n][n])
}

/// The generalized count of the proof, over a bipartite-style restriction
/// where the `x` variables range over `[n₁]` and the `y` variables over
/// `[n₂]`; returns `f(n₁,n₂) + g(n₁,n₂)`.
pub fn wfomc_qs4_rectangular(n1: usize, n2: usize, w: &Weight, w_bar: &Weight) -> Weight {
    if n1 == 0 || n2 == 0 {
        return Weight::one();
    }
    let (f, g) = qs4_tables_in(n1, n2, &Exact, w, w_bar);
    f[n1][n2].clone() + g[n1][n2].clone()
}

/// Dispatcher-friendly entry: checks the sentence is QS4 and evaluates it.
pub fn wfomc_qs4_sentence(
    sentence: &Formula,
    n: usize,
    weights: &Weights,
) -> Result<Weight, LiftError> {
    if !is_qs4(sentence) {
        return Err(LiftError::PatternMismatch {
            expected: "the QS4 sentence of Theorem 3.7".to_string(),
        });
    }
    Ok(wfomc_qs4(n, weights))
}

/// Fills the `f` and `g` tables bottom-up in an arbitrary algebra.
#[allow(clippy::needless_range_loop, clippy::type_complexity)]
fn qs4_tables_in<A: Algebra>(
    max1: usize,
    max2: usize,
    algebra: &A,
    w: &A::Elem,
    w_bar: &A::Elem,
) -> (Vec<Vec<A::Elem>>, Vec<Vec<A::Elem>>) {
    let mut f = vec![vec![algebra.one(); max2 + 1]; max1 + 1];
    let mut g = vec![vec![algebra.one(); max2 + 1]; max1 + 1];
    for n1 in 0..=max1 {
        for n2 in 0..=max2 {
            if n2 > 0 {
                let mut total = algebra.zero();
                for k in 1..=n1 {
                    let mut term = algebra.from_weight(&binomial_weight(n1, k));
                    algebra.mul_assign(&mut term, &algebra.pow(w, k * n2));
                    algebra.mul_assign(&mut term, &g[n1 - k][n2]);
                    algebra.add_assign(&mut total, &term);
                }
                f[n1][n2] = total;
            }
            if n1 > 0 {
                let mut total = algebra.zero();
                for l in 1..=n2 {
                    let mut term = algebra.from_weight(&binomial_weight(n2, l));
                    algebra.mul_assign(&mut term, &algebra.pow(w_bar, n1 * l));
                    algebra.mul_assign(&mut term, &f[n1][n2 - l]);
                    algebra.add_assign(&mut total, &term);
                }
                g[n1][n2] = total;
            }
        }
    }
    (f, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_ground::{brute_force_wfomc, wfomc as ground_wfomc};
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn unweighted_small_counts() {
        // n = 1: both structures satisfy QS4 → 2.
        assert_eq!(wfomc_qs4(1, &Weights::ones()), weight_int(2));
        // n = 2: 16 structures, exactly 2 violate (the two "crossing"
        // patterns) → 14.
        assert_eq!(wfomc_qs4(2, &Weights::ones()), weight_int(14));
        // n = 0: the empty structure.
        assert_eq!(wfomc_qs4(0, &Weights::ones()), weight_int(1));
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let f = catalog::qs4();
        let voc = f.vocabulary();
        for n in 0..=3 {
            let dp = wfomc_qs4(n, &Weights::ones());
            let brute = brute_force_wfomc(&f, &voc, n, &Weights::ones());
            assert_eq!(dp, brute, "n = {n}");
        }
    }

    #[test]
    fn matches_grounded_wfomc_with_weights() {
        let f = catalog::qs4();
        let voc = f.vocabulary();
        for (w, wb) in [(2i64, 1i64), (1, 3), (3, 2)] {
            let weights = Weights::from_ints([("S", w, wb)]);
            for n in 1..=3 {
                let dp = wfomc_qs4(n, &weights);
                let grounded = ground_wfomc(&f, &voc, n, &weights);
                assert_eq!(dp, grounded, "w = {w}, w̄ = {wb}, n = {n}");
            }
        }
    }

    #[test]
    fn rational_and_negative_weights() {
        let f = catalog::qs4();
        let voc = f.vocabulary();
        let mut weights = Weights::ones();
        weights.set("S", weight_ratio(1, 3), weight_ratio(2, 3));
        for n in 1..=2 {
            assert_eq!(wfomc_qs4(n, &weights), ground_wfomc(&f, &voc, n, &weights));
        }
        let weights = Weights::from_ints([("S", -1, 2)]);
        for n in 1..=2 {
            assert_eq!(wfomc_qs4(n, &weights), ground_wfomc(&f, &voc, n, &weights));
        }
    }

    #[test]
    fn rectangular_variant_agrees_on_squares() {
        let w = weight_int(1);
        let wb = weight_int(1);
        for n in 1..=4 {
            assert_eq!(
                wfomc_qs4_rectangular(n, n, &w, &wb),
                wfomc_qs4(n, &Weights::ones())
            );
        }
        // 1×2 rectangle: every 2-bit row trivially satisfies the constraint
        // (there is only one row) → 4 structures.
        assert_eq!(wfomc_qs4_rectangular(1, 2, &w, &wb), weight_int(4));
    }

    #[test]
    fn sentence_dispatcher_checks_the_pattern() {
        assert!(is_qs4(&catalog::qs4()));
        assert!(!is_qs4(&catalog::table1_sentence()));
        assert!(wfomc_qs4_sentence(&catalog::qs4(), 3, &Weights::ones()).is_ok());
        assert!(matches!(
            wfomc_qs4_sentence(&catalog::table1_sentence(), 3, &Weights::ones()),
            Err(LiftError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn polynomial_scaling_smoke_test() {
        // n = 24 is far beyond any grounded method (2^{576} structures); the
        // DP finishes in well under a second even in debug builds. Larger n
        // are exercised by the release-mode benchmarks.
        let value = wfomc_qs4(24, &Weights::ones());
        assert!(value > weight_int(0));
    }
}
