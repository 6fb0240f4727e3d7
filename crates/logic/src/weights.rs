//! Symmetric weight functions (w, w̄) and exact rational arithmetic.
//!
//! In the symmetric WFOMC problem (§2 of the paper) every tuple of relation
//! `Rᵢ` carries the same pair of weights `(wᵢ, w̄ᵢ)`: `wᵢ` multiplies the
//! weight of a world when the tuple is *present*, `w̄ᵢ` when it is *absent*.
//! Weighted model counts are therefore polynomials in the weights and must be
//! computed with exact arithmetic: this module uses
//! [`num_rational::BigRational`]. Negative weights are fully supported — the
//! Skolemization lemma (Lemma 3.3) introduces a predicate with w̄ = −1.

use std::fmt;

use num_bigint::BigInt;
use num_rational::BigRational;
use num_traits::{One, Signed, Zero};

use crate::vocabulary::{Predicate, Vocabulary};

/// An exact rational weight.
pub type Weight = BigRational;

/// Builds a weight from an integer.
pub fn weight_int(i: i64) -> Weight {
    BigRational::from_integer(BigInt::from(i))
}

/// Builds a weight from a numerator/denominator pair.
///
/// # Panics
/// Panics if `denom == 0`.
pub fn weight_ratio(num: i64, denom: i64) -> Weight {
    assert_ne!(denom, 0, "weight denominator must be non-zero");
    BigRational::new(BigInt::from(num), BigInt::from(denom))
}

/// Raises a rational weight to a non-negative integer power.
pub fn weight_pow(base: &Weight, exp: usize) -> Weight {
    // Exponentiation by squaring on BigRational.
    let mut result = Weight::one();
    let mut base = base.clone();
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            result *= &base;
        }
        e >>= 1;
        if e > 0 {
            base = &base * &base;
        }
    }
    result
}

/// The pair of weights attached to one predicate: `w` for present tuples,
/// `w̄` ("negative weight" in the WFOMC literature) for absent tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WeightPair {
    /// Weight of a present tuple.
    pub pos: Weight,
    /// Weight of an absent tuple.
    pub neg: Weight,
}

impl WeightPair {
    /// Creates a weight pair.
    pub fn new(pos: Weight, neg: Weight) -> Self {
        WeightPair { pos, neg }
    }

    /// The unweighted pair (1, 1) — model counting.
    pub fn ones() -> Self {
        WeightPair::new(Weight::one(), Weight::one())
    }

    /// A pair derived from a probability `p`: `(p, 1−p)`.
    pub fn from_probability(p: Weight) -> Self {
        let neg = Weight::one() - &p;
        WeightPair::new(p, neg)
    }

    /// Converts this pair to a tuple probability `w / (w + w̄)`.
    ///
    /// Returns `None` when `w + w̄ = 0`, in which case no probability
    /// normalization exists (this happens e.g. for the Skolemization
    /// predicate with weights (1, −1)).
    pub fn to_probability(&self) -> Option<Weight> {
        let sum = &self.pos + &self.neg;
        if sum.is_zero() {
            None
        } else {
            Some(&self.pos / sum)
        }
    }

    /// The sum `w + w̄`, i.e. the contribution of one unconstrained tuple to
    /// `WFOMC(true)`.
    pub fn total(&self) -> Weight {
        &self.pos + &self.neg
    }

    /// True if both weights are non-negative (the "practical applications"
    /// regime discussed in §2).
    pub fn is_nonnegative(&self) -> bool {
        !self.pos.is_negative() && !self.neg.is_negative()
    }
}

impl Default for WeightPair {
    fn default() -> Self {
        WeightPair::ones()
    }
}

impl fmt::Display for WeightPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(w={}, w̄={})", self.pos, self.neg)
    }
}

/// A symmetric weight function over a vocabulary: one [`WeightPair`] per
/// predicate name. Predicates without an explicit entry default to `(1, 1)`,
/// i.e. unweighted model counting, which matches how the paper treats freshly
/// introduced symbols unless stated otherwise.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Weights {
    /// Explicit entries sorted by name, one per name. A sorted vector rather
    /// than a `BTreeMap`: weight functions name a handful of predicates, and
    /// a map's first leaf node reserves room for eleven entries (about
    /// 1.7 KB), several times the entries themselves — a cost every caller
    /// holding many weight functions (batches, caches, served requests) pays.
    by_predicate: Vec<(String, WeightPair)>,
}

impl Weights {
    /// The all-ones weight function (plain FOMC).
    pub fn ones() -> Self {
        Weights::default()
    }

    /// Builds a weight function from `(name, w, w̄)` triples of integers.
    pub fn from_ints<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, i64, i64)>,
    {
        let mut w = Weights::default();
        for (name, pos, neg) in entries {
            w.set(name, weight_int(pos), weight_int(neg));
        }
        w
    }

    /// Sets the weight pair for a predicate name, replacing an earlier one.
    fn insert(&mut self, name: String, pair: WeightPair) {
        match self
            .by_predicate
            .binary_search_by(|(k, _)| k.as_str().cmp(&name))
        {
            Ok(i) => self.by_predicate[i].1 = pair,
            Err(i) => self.by_predicate.insert(i, (name, pair)),
        }
    }

    /// Sets the weight pair for a predicate name.
    pub fn set(&mut self, name: impl Into<String>, pos: Weight, neg: Weight) -> &mut Self {
        self.insert(name.into(), WeightPair::new(pos, neg));
        self
    }

    /// Sets the weight pair from a probability: `(p, 1−p)`.
    pub fn set_probability(&mut self, name: impl Into<String>, p: Weight) -> &mut Self {
        self.insert(name.into(), WeightPair::from_probability(p));
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<String>, pos: Weight, neg: Weight) -> Self {
        self.set(name, pos, neg);
        self
    }

    /// The weight pair for a predicate name (defaults to `(1,1)`).
    pub fn pair(&self, name: &str) -> WeightPair {
        self.by_predicate
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map_or_else(
                |_| WeightPair::default(),
                |i| self.by_predicate[i].1.clone(),
            )
    }

    /// The weight pair for a predicate symbol.
    pub fn pair_of(&self, p: &Predicate) -> WeightPair {
        self.pair(p.name())
    }

    /// Iterates over explicitly set entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WeightPair)> {
        self.by_predicate.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if every explicitly set weight is non-negative.
    pub fn is_nonnegative(&self) -> bool {
        self.by_predicate
            .iter()
            .all(|(_, pair)| pair.is_nonnegative())
    }

    /// `WFOMC(true, n, w, w̄) = Π_t (w(t) + w̄(t))` — the sum of the weights of
    /// *all* structures over a domain of size `n` (§1 of the paper). This is
    /// the normalization constant turning weighted counts into probabilities.
    pub fn wfomc_of_true(&self, vocabulary: &Vocabulary, n: usize) -> Weight {
        let mut total = Weight::one();
        for p in vocabulary.iter() {
            let pair = self.pair_of(p);
            total *= weight_pow(&pair.total(), p.num_ground_tuples(n));
        }
        total
    }

    /// Merges `other` into `self`, with `other` taking precedence on
    /// conflicting names. Used when a lemma extends a weighted vocabulary.
    pub fn extended_with(&self, other: &Weights) -> Weights {
        let mut out = self.clone();
        for (name, pair) in other.iter() {
            out.insert(name.to_string(), pair.clone());
        }
        out
    }
}

impl fmt::Display for Weights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, pair)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {pair}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_pow_matches_naive() {
        let w = weight_ratio(3, 2);
        let mut naive = Weight::one();
        for _ in 0..7 {
            naive *= &w;
        }
        assert_eq!(weight_pow(&w, 7), naive);
        assert_eq!(weight_pow(&w, 0), Weight::one());
    }

    #[test]
    fn pow_cache_matches_weight_pow() {
        use crate::algebra::{Exact, Powers};
        let base = weight_ratio(-3, 2);
        let mut cache = Powers::new(&Exact, base.clone(), 8);
        assert_eq!(cache.base(), &base);
        // Dense range, out of order; sparse fallback beyond the cap; repeats.
        for e in [0usize, 3, 1, 8, 5, 20, 100, 20, 8] {
            assert_eq!(cache.pow(&Exact, e), weight_pow(&base, e), "e = {e}");
        }
        // Zero base: 0⁰ = 1, 0^e = 0.
        let mut zero = Powers::new(&Exact, Weight::zero(), 4);
        assert_eq!(zero.pow(&Exact, 0), Weight::one());
        assert!(zero.pow(&Exact, 3).is_zero());
        assert!(zero.pow(&Exact, 9).is_zero());
    }

    #[test]
    fn probability_round_trip() {
        let p = weight_ratio(1, 3);
        let pair = WeightPair::from_probability(p.clone());
        assert_eq!(pair.to_probability().unwrap(), p);
        // Example 1.2: weight 1/2 corresponds to probability 1/3.
        let pair = WeightPair::new(weight_ratio(1, 2), Weight::one());
        assert_eq!(pair.to_probability().unwrap(), weight_ratio(1, 3));
    }

    #[test]
    fn skolem_pair_has_no_probability() {
        let pair = WeightPair::new(weight_int(1), weight_int(-1));
        assert!(pair.to_probability().is_none());
        assert!(!pair.is_nonnegative());
        assert!(pair.total().is_zero());
    }

    #[test]
    fn entries_stay_sorted_and_unique_whatever_the_insertion_order() {
        let mut a = Weights::from_ints([("S", 2, 1), ("R", 3, 1), ("T", 1, 4)]);
        a.set("R", weight_int(5), weight_int(1));
        let names: Vec<&str> = a.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["R", "S", "T"]);
        assert_eq!(a.pair("R"), WeightPair::new(weight_int(5), weight_int(1)));
        assert_eq!(a.pair("U"), WeightPair::ones());
        let b = Weights::from_ints([("T", 1, 4), ("R", 5, 1), ("S", 2, 1)]);
        assert_eq!(a, b);
        let merged = b.extended_with(&Weights::from_ints([("Q", 7, 1), ("S", 0, 1)]));
        let names: Vec<&str> = merged.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["Q", "R", "S", "T"]);
        assert_eq!(
            merged.pair("S"),
            WeightPair::new(weight_int(0), weight_int(1))
        );
    }

    #[test]
    fn default_pair_is_ones() {
        let w = Weights::ones();
        assert_eq!(w.pair("anything"), WeightPair::ones());
        assert!(w.is_nonnegative());
    }

    #[test]
    fn wfomc_of_true_counts_all_structures() {
        // One binary relation, weights (1,1): 2^{n²} structures.
        let voc = Vocabulary::from_pairs([("R", 2)]);
        let w = Weights::ones();
        assert_eq!(w.wfomc_of_true(&voc, 3), weight_int(512));
        // With weights (2,1) each tuple contributes 3: 3^{n²}.
        let w = Weights::from_ints([("R", 2, 1)]);
        assert_eq!(w.wfomc_of_true(&voc, 2), weight_int(81));
    }

    #[test]
    fn extension_overrides() {
        let a = Weights::from_ints([("R", 2, 1)]);
        let b = Weights::from_ints([("R", 5, 1), ("S", 3, 1)]);
        let c = a.extended_with(&b);
        assert_eq!(c.pair("R").pos, weight_int(5));
        assert_eq!(c.pair("S").pos, weight_int(3));
    }

    #[test]
    fn display_is_readable() {
        let w = Weights::from_ints([("R", 3, 1)]);
        let s = format!("{w}");
        assert!(s.contains("R"));
        assert!(s.contains('3'));
    }
}
