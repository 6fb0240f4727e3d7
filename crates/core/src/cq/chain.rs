//! Example 3.10 — the explicit recurrence for linear chain queries
//! `Q = ∃x₀ … ∃x_m R₁(x₀,x₁) ∧ … ∧ R_m(x_{m−1},x_m)`.
//!
//! This is an independent, closed-form implementation of what the general
//! γ-acyclic algorithm computes on chains, used to cross-check the generic
//! reduction and to benchmark the two against each other.
//!
//! Writing `q_j(d) = 1 − (1 − p_j)^d` for the probability that a fixed element
//! has an `R_j`-successor among `d` candidates, the recurrence is
//!
//! ```text
//! g(0, d) = 1
//! g(1, d) = 1 − (1 − p₁)^{n₀ · d}
//! g(j, d) = Σ_{k=0}^{n_{j−1}} C(n_{j−1}, k) · q_j(d)^k · (1 − q_j(d))^{n_{j−1}−k} · g(j−1, k)
//! ```
//!
//! and `Pr(Q) = g(m, n_m)`.

use std::collections::HashMap;

use num_traits::One;

use wfomc_logic::weights::{weight_pow, Weight};

use crate::combinatorics::binomial_weight;

/// Probability of the length-`m` chain query where variable `xⱼ` ranges over a
/// domain of size `domains[j]` (`domains.len() == probabilities.len() + 1`)
/// and every tuple of `R_j` is present independently with probability
/// `probabilities[j−1]`.
///
/// # Panics
/// Panics if the domain and probability slices have inconsistent lengths.
pub fn chain_probability(domains: &[usize], probabilities: &[Weight]) -> Weight {
    assert_eq!(
        domains.len(),
        probabilities.len() + 1,
        "a chain with m atoms has m+1 variables"
    );
    let mut memo: HashMap<(usize, usize), Weight> = HashMap::new();
    g(
        probabilities.len(),
        *domains.last().expect("non-empty"),
        domains,
        probabilities,
        &mut memo,
    )
}

/// Probability of the length-`m` chain over a single shared domain of size `n`.
pub fn chain_probability_uniform(m: usize, n: usize, probabilities: &[Weight]) -> Weight {
    assert_eq!(probabilities.len(), m);
    chain_probability(&vec![n; m + 1], probabilities)
}

fn g(
    j: usize,
    d: usize,
    domains: &[usize],
    probabilities: &[Weight],
    memo: &mut HashMap<(usize, usize), Weight>,
) -> Weight {
    if j == 0 {
        return Weight::one();
    }
    if let Some(hit) = memo.get(&(j, d)) {
        return hit.clone();
    }
    let p = &probabilities[j - 1];
    let result = if j == 1 {
        Weight::one() - weight_pow(&(Weight::one() - p), domains[0] * d)
    } else {
        // q = 1 − (1 − p_j)^d: probability that a fixed x_{j−1} has some
        // R_j-successor in x_j's (restricted) domain.
        let q = Weight::one() - weight_pow(&(Weight::one() - p), d);
        let not_q = Weight::one() - &q;
        let n_prev = domains[j - 1];
        let mut total = Weight::from_integer(0.into());
        for k in 0..=n_prev {
            let sub = g(j - 1, k, domains, probabilities, memo);
            let coeff =
                binomial_weight(n_prev, k) * weight_pow(&q, k) * weight_pow(&not_q, n_prev - k);
            total += coeff * sub;
        }
        total
    };
    memo.insert((j, d), result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::weight_ratio;

    use crate::cq::gamma_acyclic::gamma_acyclic_probability_in;
    use wfomc_ground::probability as ground_probability;
    use wfomc_guard::Guard;
    use wfomc_logic::algebra::Exact;
    use wfomc_logic::weights::Weights;

    #[test]
    fn single_atom_chain_closed_form() {
        // Pr(∃x₀∃x₁ R₁(x₀,x₁)) = 1 − (1 − p)^{n²}.
        let p = weight_ratio(1, 3);
        for n in 0..=4 {
            let direct = chain_probability_uniform(1, n, std::slice::from_ref(&p));
            let expected = Weight::one() - weight_pow(&weight_ratio(2, 3), n * n);
            assert_eq!(direct, expected, "n = {n}");
        }
    }

    #[test]
    fn matches_generic_gamma_acyclic_algorithm() {
        for m in 1..=4 {
            let q = catalog::chain_query(m);
            let probs: Vec<Weight> = (0..m).map(|i| weight_ratio(1, 2 + i as i64)).collect();
            let by_name: BTreeMap<String, Weight> = (0..m)
                .map(|i| (format!("R{}", i + 1), probs[i].clone()))
                .collect();
            for n in 0..=4 {
                let closed = chain_probability_uniform(m, n, &probs);
                let domains = q.variables().into_iter().map(|v| (v, n)).collect();
                let generic =
                    gamma_acyclic_probability_in(&q, &domains, &Exact, &by_name, &Guard::unarmed())
                        .unwrap();
                assert_eq!(closed, generic, "m = {m}, n = {n}");
            }
        }
    }

    #[test]
    fn matches_grounded_probability() {
        let m = 2;
        let q = catalog::chain_query(m);
        let f = q.to_formula();
        let voc = f.vocabulary();
        let mut weights = Weights::ones();
        weights.set_probability("R1", weight_ratio(1, 3));
        weights.set_probability("R2", weight_ratio(1, 4));
        for n in 1..=2 {
            let closed = chain_probability_uniform(m, n, &[weight_ratio(1, 3), weight_ratio(1, 4)]);
            let grounded = ground_probability(&f, &voc, n, &weights);
            assert_eq!(closed, grounded, "n = {n}");
        }
    }

    #[test]
    fn long_chain_large_domain_is_fast() {
        // The recurrence is polynomial: m = 7, n = 14 is far beyond anything
        // the grounded baselines could touch, yet runs in well under a second
        // even in debug builds (the exact rationals grow large, which is the
        // real cost here, not the number of recurrence steps).
        let probs: Vec<Weight> = (0..7).map(|_| weight_ratio(1, 3)).collect();
        let p = chain_probability_uniform(7, 14, &probs);
        assert!(p > Weight::from_integer(0.into()) && p < Weight::one());
    }

    #[test]
    #[should_panic(expected = "m+1 variables")]
    fn inconsistent_lengths_panic() {
        chain_probability(&[2, 2], &[weight_ratio(1, 2), weight_ratio(1, 2)]);
    }
}
