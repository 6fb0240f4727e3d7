//! The cost profile of an FO² count ([`Fo2Stats`]), and the end-to-end
//! tests of the whole FO² pipeline — normalization, Shannon expansion,
//! cells and the cell-sum engine of [`super::cellsum`] — against grounding.
//! The algorithm itself is [`super::prepare::Fo2Prepared`]: prepare once,
//! count many times.

use super::cellsum::CellSumStats;

/// Statistics of one FO² count ([`super::prepare::Fo2Prepared::count_in`]),
/// used by the benchmarks and the `repro` harness to explain the cost profile (number of cells, number of
/// compositions summed and pruned, number of Shannon branches).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fo2Stats {
    /// Number of fresh predicates introduced by normalization.
    pub introduced_predicates: usize,
    /// Number of nullary predicates Shannon-expanded.
    pub shannon_branches: usize,
    /// Valid cells per Shannon branch (summed over branches).
    pub total_valid_cells: usize,
    /// Compositions whose term was evaluated, over all branches.
    pub compositions_summed: usize,
    /// Compositions skipped by the engine's zero-term subtree cutoffs.
    pub compositions_pruned: usize,
    /// All compositions over the cells the branches' sums range over
    /// (non-zero, merged): `summed + pruned`, saturating.
    pub compositions_total: usize,
    /// Valid cells dropped before the sum because their weight is zero.
    pub zero_weight_cells_pruned: usize,
    /// Non-zero cells merged into an interchangeable cell before the sum.
    pub cells_merged: usize,
}

impl std::fmt::Display for Fo2Stats {
    /// The full human-readable cost profile: every collected field, in
    /// particular the cells removed before the sum — zero-weight cells
    /// dropped and interchangeable cells merged.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells ({} zero cells dropped, {} merged), {} summed + {} pruned of {} \
             compositions, {} Shannon branch(es), {} introduced predicate(s)",
            self.total_valid_cells,
            self.zero_weight_cells_pruned,
            self.cells_merged,
            self.compositions_summed,
            self.compositions_pruned,
            self.compositions_total,
            self.shannon_branches,
            self.introduced_predicates,
        )
    }
}

impl Fo2Stats {
    /// All counters saturate, so `summed + pruned = total` may degrade to an
    /// inequality only when every involved count has already pinned at
    /// `usize::MAX`.
    pub(crate) fn absorb_cell_sum(&mut self, s: &CellSumStats) {
        self.total_valid_cells = self.total_valid_cells.saturating_add(s.valid_cells);
        self.compositions_summed = self
            .compositions_summed
            .saturating_add(s.compositions_summed);
        self.compositions_pruned = self
            .compositions_pruned
            .saturating_add(s.compositions_pruned);
        self.compositions_total = self.compositions_total.saturating_add(s.compositions_total);
        self.zero_weight_cells_pruned = self
            .zero_weight_cells_pruned
            .saturating_add(s.zero_weight_cells_pruned);
        self.cells_merged = self.cells_merged.saturating_add(s.cells_merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_ground::{brute_force_wfomc, wfomc as ground_wfomc};
    use wfomc_guard::Guard;
    use wfomc_logic::algebra::{AlgebraWeights, Exact};
    use wfomc_logic::builders::*;
    use wfomc_logic::catalog;
    use wfomc_logic::syntax::Formula;
    use wfomc_logic::vocabulary::Vocabulary;
    use wfomc_logic::weights::{weight_int, weight_pow, weight_ratio, Weight, Weights};

    use crate::error::LiftError;
    use crate::fo2::Fo2Prepared;

    /// One prepare-then-count with its statistics, unguarded.
    fn wfomc_with_stats(
        sentence: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Result<(Weight, Fo2Stats), LiftError> {
        let lifted = AlgebraWeights::lift(&Exact, weights);
        Ok(Fo2Prepared::prepare(sentence, vocabulary)?
            .count_in(n, &Exact, &lifted, true, &Guard::unarmed())
            .expect("an unarmed guard cannot interrupt"))
    }

    /// [`wfomc_with_stats`] without the statistics.
    fn wfomc(
        sentence: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Result<Weight, LiftError> {
        wfomc_with_stats(sentence, vocabulary, n, weights).map(|(w, _)| w)
    }

    fn check_against_ground(f: &Formula, weights: &Weights, max_n: usize) {
        let voc = f.vocabulary();
        for n in 0..=max_n {
            let lifted = wfomc(f, &voc, n, weights).expect("FO² should apply");
            let grounded = ground_wfomc(f, &voc, n, weights);
            assert_eq!(lifted, grounded, "mismatch for {f} at n = {n}");
        }
    }

    #[test]
    fn forall_exists_edge_matches_closed_form() {
        let f = catalog::forall_exists_edge();
        let voc = f.vocabulary();
        // FOMC(Φ, n) = (2ⁿ − 1)ⁿ.
        for n in 0..=6 {
            let lifted = wfomc(&f, &voc, n, &Weights::ones()).unwrap();
            let expected = weight_pow(&weight_int((1i64 << n) - 1), n);
            assert_eq!(lifted, expected, "n = {n}");
        }
        // Weighted variant: ((w + w̄)ⁿ − w̄ⁿ)ⁿ.
        let w = Weights::from_ints([("R", 3, 2)]);
        for n in 0..=4 {
            let lifted = wfomc(&f, &voc, n, &w).unwrap();
            let expected = weight_pow(
                &(weight_pow(&weight_int(5), n) - weight_pow(&weight_int(2), n)),
                n,
            );
            assert_eq!(lifted, expected, "n = {n}");
        }
    }

    #[test]
    fn table1_sentence_matches_ground_truth() {
        let f = catalog::table1_sentence();
        check_against_ground(&f, &Weights::ones(), 3);
        check_against_ground(
            &f,
            &Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]),
            2,
        );
    }

    #[test]
    fn exists_unary_and_negative_weights() {
        let f = catalog::exists_unary();
        check_against_ground(&f, &Weights::from_ints([("S", 3, 2)]), 4);
        // Negative tuple weights are allowed (§2: the complexity is the same).
        check_against_ground(&f, &Weights::from_ints([("S", -1, 2)]), 3);
    }

    #[test]
    fn spouse_constraint_matches_ground_truth() {
        let f = catalog::spouse_constraint();
        check_against_ground(
            &f,
            &Weights::from_ints([("Spouse", 1, 1), ("Female", 2, 1), ("Male", 1, 3)]),
            2,
        );
    }

    #[test]
    fn nested_quantifiers_match_ground_truth() {
        // ∀x (R(x) ∨ ∃y S(x,y)) and ∃x ∀y R(x,y).
        let f = forall(
            ["x"],
            or(vec![
                atom("R", &["x"]),
                exists(["y"], atom("S", &["x", "y"])),
            ]),
        );
        check_against_ground(&f, &Weights::from_ints([("R", 1, 2), ("S", 3, 1)]), 3);

        let g = exists(["x"], forall(["y"], atom("R", &["x", "y"])));
        check_against_ground(&g, &Weights::ones(), 3);
        check_against_ground(&g, &Weights::from_ints([("R", 2, 3)]), 3);
    }

    #[test]
    fn equality_sentences_match_ground_truth() {
        // ∀x∀y (x = y ∨ R(x,y)): all off-diagonal tuples present.
        let f = forall(["x", "y"], or(vec![eq("x", "y"), atom("R", &["x", "y"])]));
        check_against_ground(&f, &Weights::from_ints([("R", 2, 3)]), 3);
        // ∃x∃y (x ≠ y ∧ Friends(x,y)).
        let g = exists(
            ["x", "y"],
            and(vec![neq("x", "y"), atom("Friends", &["x", "y"])]),
        );
        check_against_ground(&g, &Weights::from_ints([("Friends", 1, 2)]), 3);
    }

    #[test]
    fn reflexive_and_symmetric_axioms() {
        // ∀x R(x,x) ∧ ∀x∀y (R(x,y) → R(y,x)).
        let f = and(vec![
            forall(["x"], atom("R", &["x", "x"])),
            forall(
                ["x", "y"],
                implies(atom("R", &["x", "y"]), atom("R", &["y", "x"])),
            ),
        ]);
        check_against_ground(&f, &Weights::ones(), 3);
        check_against_ground(&f, &Weights::from_ints([("R", 2, 1)]), 3);
    }

    #[test]
    fn probability_weights_are_exact() {
        let f = catalog::smokers_constraint();
        let voc = f.vocabulary();
        let mut w = Weights::ones();
        w.set_probability("Smokes", weight_ratio(1, 3));
        w.set_probability("Friends", weight_ratio(1, 2));
        for n in 1..=2 {
            let lifted = wfomc(&f, &voc, n, &w).unwrap();
            let grounded = brute_force_wfomc(&f, &voc, n, &w);
            assert_eq!(lifted, grounded);
        }
    }

    #[test]
    fn extra_vocabulary_predicates_multiply_through() {
        let f = catalog::exists_unary();
        let voc = Vocabulary::from_pairs([("S", 1), ("Extra", 2)]);
        let w = Weights::from_ints([("S", 1, 1), ("Extra", 1, 1)]);
        let n = 2;
        let lifted = wfomc(&f, &voc, n, &w).unwrap();
        let grounded = ground_wfomc(&f, &voc, n, &w);
        assert_eq!(lifted, grounded);
        // (2⁴ from Extra) · (2² − 1) = 48.
        assert_eq!(lifted, weight_int(48));
    }

    #[test]
    fn rejects_fo3_sentences() {
        let f = catalog::transitivity();
        assert!(matches!(
            wfomc(&f, &f.vocabulary(), 3, &Weights::ones()),
            Err(LiftError::TooManyVariables { .. })
        ));
    }

    #[test]
    fn stats_reflect_the_work_done() {
        let f = catalog::forall_exists_edge();
        let (_, stats) = wfomc_with_stats(&f, &f.vocabulary(), 5, &Weights::ones()).unwrap();
        assert_eq!(stats.introduced_predicates, 1);
        assert_eq!(stats.shannon_branches, 1);
        assert!(stats.total_valid_cells >= 3);
        assert!(stats.compositions_summed > 0);
    }

    #[test]
    fn stats_display_surfaces_the_cell_accounting() {
        let f = catalog::forall_exists_edge();
        let (_, stats) = wfomc_with_stats(&f, &f.vocabulary(), 5, &Weights::ones()).unwrap();
        let text = stats.to_string();
        assert!(text.contains("cells ("), "{text}");
        assert!(text.contains("zero cells dropped"), "{text}");
        assert!(text.contains("merged"), "{text}");
        assert!(text.contains("summed"), "{text}");
        assert!(text.contains("Shannon branch(es)"), "{text}");
        assert!(text.contains("introduced predicate(s)"), "{text}");
    }

    #[test]
    fn polynomial_scaling_smoke_test() {
        // The lifted algorithm should comfortably reach n = 30 on the
        // intro example, far beyond anything enumeration could do.
        let f = catalog::forall_exists_edge();
        let voc = f.vocabulary();
        let n = 30;
        let lifted = wfomc(&f, &voc, n, &Weights::ones()).unwrap();
        let expected = weight_pow(&(weight_pow(&weight_int(2), n) - weight_int(1)), n);
        assert_eq!(lifted, expected);
    }
}
