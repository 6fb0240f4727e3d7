//! Per-variable weight pairs for propositional weighted model counting.
//!
//! This is the `WMC(F, w, w̄)` setting of §2 Eq. (2)–(3): variable `Xᵢ`
//! contributes `w(Xᵢ)` when true and `w̄(Xᵢ)` when false, and the weight of an
//! assignment is the product over all variables. Weights are exact rationals
//! and may be negative.

use num_traits::One;
use wfomc_logic::algebra::{Exact, VarPairs};
use wfomc_logic::weights::Weight;

/// Weight pairs for a dense block of variables `0..len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarWeights {
    pos: Vec<Weight>,
    neg: Vec<Weight>,
}

impl VarWeights {
    /// All-ones weights for `n` variables (plain model counting).
    pub fn ones(n: usize) -> Self {
        VarWeights {
            pos: vec![Weight::one(); n],
            neg: vec![Weight::one(); n],
        }
    }

    /// Builds weights from parallel `(pos, neg)` vectors.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn from_vecs(pos: Vec<Weight>, neg: Vec<Weight>) -> Self {
        assert_eq!(pos.len(), neg.len(), "weight vectors must align");
        VarWeights { pos, neg }
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Extends the weight table with one more variable.
    pub fn push(&mut self, pos: Weight, neg: Weight) {
        self.pos.push(pos);
        self.neg.push(neg);
    }

    /// Weight of variable `v` being true.
    ///
    /// # Panics
    /// Panics if `v` is outside the table; use [`VarWeights::literal_weight`]
    /// for the total (default-to-one) accessor.
    pub fn pos(&self, v: usize) -> &Weight {
        &self.pos[v]
    }

    /// Weight of variable `v` being false.
    ///
    /// # Panics
    /// Panics if `v` is outside the table; use [`VarWeights::literal_weight`]
    /// for the total (default-to-one) accessor.
    pub fn neg(&self, v: usize) -> &Weight {
        &self.neg[v]
    }

    /// Sets the weight pair of variable `v`.
    pub fn set(&mut self, v: usize, pos: Weight, neg: Weight) {
        self.pos[v] = pos;
        self.neg[v] = neg;
    }

    /// The weight of `v` under a specific truth value.
    ///
    /// Variables beyond the table carry the implicit weight pair `(1, 1)`,
    /// so a weight table shorter than a CNF's universe means "count the
    /// remaining variables unweighted" rather than an error.
    pub fn literal_weight(&self, v: usize, value: bool) -> Weight {
        let table = if value { &self.pos } else { &self.neg };
        match table.get(v) {
            Some(w) => w.clone(),
            None => Weight::one(),
        }
    }

    /// `w(v) + w̄(v)` — the contribution of an unconstrained variable.
    ///
    /// Like [`VarWeights::literal_weight`], variables beyond the table get
    /// the implicit pair `(1, 1)` and therefore contribute `2`.
    pub fn total(&self, v: usize) -> Weight {
        match (self.pos.get(v), self.neg.get(v)) {
            (Some(p), Some(n)) => p + n,
            _ => Weight::one() + Weight::one(),
        }
    }

    /// The weight of a complete assignment (Eq. (3) in the paper).
    pub fn assignment_weight(&self, assignment: &[bool]) -> Weight {
        let mut w = Weight::one();
        for (v, &value) in assignment.iter().enumerate() {
            w *= self.literal_weight(v, value);
        }
        w
    }

    /// The product `Π_v (w(v) + w̄(v))` over a set of variables — the weighted
    /// count of all assignments to those variables.
    pub fn total_over<I: IntoIterator<Item = usize>>(&self, vars: I) -> Weight {
        let mut w = Weight::one();
        for v in vars {
            w *= self.total(v);
        }
        w
    }
}

/// [`VarWeights`] is the [`Exact`]-algebra instance of the generic
/// per-variable weight-pair interface, so an exact count is the `Exact`
/// instance of the algebra-generic counters.
impl VarPairs<Exact> for VarWeights {
    fn var_weight(&self, _algebra: &Exact, var: usize, value: bool) -> Weight {
        self.literal_weight(var, value)
    }

    fn var_total(&self, _algebra: &Exact, var: usize) -> Weight {
        self.total(var)
    }

    fn table_len(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn assignment_weight_is_product() {
        let w = VarWeights::from_vecs(
            vec![weight_int(2), weight_int(3)],
            vec![weight_int(1), weight_ratio(1, 2)],
        );
        // x0 = true (2), x1 = false (1/2) → 1.
        assert_eq!(w.assignment_weight(&[true, false]), weight_int(1));
        assert_eq!(w.assignment_weight(&[true, true]), weight_int(6));
        assert_eq!(w.total(0), weight_int(3));
        assert_eq!(w.total_over([0, 1]), weight_ratio(21, 2));
    }

    #[test]
    fn ones_defaults() {
        let mut w = VarWeights::ones(2);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.assignment_weight(&[true, false]), weight_int(1));
        w.push(weight_int(5), weight_int(-1));
        assert_eq!(w.len(), 3);
        assert_eq!(w.total(2), weight_int(4));
        w.set(2, weight_int(1), weight_int(-1));
        assert_eq!(w.total(2), weight_int(0));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_vectors_panic() {
        VarWeights::from_vecs(vec![weight_int(1)], vec![]);
    }

    #[test]
    fn variables_beyond_the_table_are_unweighted() {
        let w = VarWeights::from_vecs(vec![weight_int(5)], vec![weight_int(7)]);
        assert_eq!(w.literal_weight(0, true), weight_int(5));
        assert_eq!(w.literal_weight(3, true), weight_int(1));
        assert_eq!(w.literal_weight(3, false), weight_int(1));
        assert_eq!(w.total(3), weight_int(2));
        // An assignment longer than the table multiplies in implicit ones.
        assert_eq!(w.assignment_weight(&[false, true, true]), weight_int(7));
    }
}
