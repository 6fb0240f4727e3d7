//! Theorem 3.6 — PTIME symmetric WFOMC for γ-acyclic conjunctive queries.
//!
//! The algorithm follows Fagin's reduction rules exactly as listed in the
//! proof, maintaining tuple probabilities and per-variable domain sizes:
//!
//! * **(a)** an isolated node `x` (in exactly one edge) is deleted and the
//!   edge's probability becomes `1 − (1 − p)^{n_x}`;
//! * **(b)** a singleton edge `R(x)` is deleted by conditioning on `|R| = k`:
//!   `Pr(Q) = Σ_k C(n_x, k) p^k (1−p)^{n_x−k} · Pr(residual with n_x := k)`;
//! * **(c)** an empty edge `R()` multiplies the result by `p_R`;
//! * **(d)** two edges over the same nodes merge with probability `p·p'`;
//! * **(e)** two edge-equivalent nodes merge into one with domain `n_x·n_y`.
//!
//! Rule (a) is given priority over rule (b) so that a singleton edge whose
//! variable occurs nowhere else is resolved without branching, and rule (b)'s
//! recursion is memoized on the residual query shape (which is what makes the
//! linear-chain case of Example 3.10 polynomial rather than exponential).
//!
//! The computation is done in probability space, in any [`Algebra`]: the
//! WFOMC entry point converts weights to probabilities (`p = w/(w+w̄)`, one
//! [`Algebra::try_div`] per predicate) and multiplies back the normalization
//! `Π_R (w_R + w̄_R)^{#tuples}`. The memo is keyed by structure, never by
//! value: each edge carries a weight-free label recording how its
//! probability was built, so under one weight function equal labels mean
//! equal values, no float is ever hashed, and lane runs stay bit-identical
//! to scalar ones. A plan keeps its tables across counts (`CqMemo`), one
//! per probability vector, found by comparing vectors, not by hashing them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use wfomc_guard::Guard;
use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact};
use wfomc_logic::cq::ConjunctiveQuery;
use wfomc_logic::term::Variable;
use wfomc_logic::weights::{Weight, Weights};

use crate::combinatorics::binomial_weight;
use crate::error::{demote, LiftError, SolveError};
use crate::keyed::{self, KeyedLru};

/// Guard phase name for the reduction loops.
const PHASE: &str = "cq.reduce";

/// Symmetric WFOMC of a γ-acyclic conjunctive query over a domain of size `n`:
/// the [`Exact`] instance of [`gamma_acyclic_wfomc_in`].
///
/// The count is taken over the query's own vocabulary; callers with a larger
/// vocabulary multiply the usual `(w + w̄)^{n^arity}` factors themselves (a
/// [`crate::plan::Plan`] does).
pub fn gamma_acyclic_wfomc(
    query: &ConjunctiveQuery,
    n: usize,
    weights: &Weights,
) -> Result<Weight, LiftError> {
    let lifted = AlgebraWeights::lift(&Exact, weights);
    gamma_acyclic_wfomc_in(query, n, &Exact, &lifted, &Guard::unarmed()).map_err(demote)
}

/// Symmetric WFOMC of a γ-acyclic conjunctive query in an arbitrary
/// [`Algebra`], under a resource [`Guard`] ticked once per reduction step
/// (deadlines, work caps and cancellation interrupt rule (b)'s recursion).
///
/// Fails with [`LiftError::NoProbabilityNormalization`] when the algebra
/// cannot divide `w` by `w + w̄` for some predicate (always the case for
/// `w + w̄ = 0`), and with [`LiftError::DomainTooLarge`] when a ground tuple
/// count overflows `usize`.
pub fn gamma_acyclic_wfomc_in<A: Algebra>(
    query: &ConjunctiveQuery,
    n: usize,
    algebra: &A,
    weights: &AlgebraWeights<A>,
    guard: &Guard,
) -> Result<A::Elem, SolveError> {
    CqMemo::wfomc_in(&Mutex::default(), query, n, algebra, weights, guard)
}

/// Probability that a γ-acyclic conjunctive query is true when each tuple of
/// relation `R` is present independently with probability
/// `probabilities[R]` (missing entries default to 1/2, the unweighted case)
/// and every variable `xᵢ` ranges over its own domain of size `domains[xᵢ]`
/// — the generalized form used in the proof of Theorem 3.6. The guard is
/// ticked as in [`gamma_acyclic_wfomc_in`].
pub fn gamma_acyclic_probability_in<A: Algebra>(
    query: &ConjunctiveQuery,
    domains: &BTreeMap<Variable, usize>,
    algebra: &A,
    probabilities: &BTreeMap<String, A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, SolveError> {
    let mut table = Table::default();
    reduce_query(query, domains, algebra, probabilities, &mut table, guard)
}

/// Tuple probabilities by predicate name.
type Probabilities<E> = BTreeMap<String, E>;

/// The tuple probability `w/(w+w̄)` of every query predicate, and the
/// normalization `Π_R (w_R + w̄_R)^{n^arity}` back to the weighted count.
fn tuple_probabilities<A: Algebra>(
    query: &ConjunctiveQuery,
    n: usize,
    algebra: &A,
    weights: &AlgebraWeights<A>,
) -> Result<(Probabilities<A::Elem>, A::Elem), LiftError> {
    let (mut probabilities, mut normalization) = (BTreeMap::new(), algebra.one());
    for p in query.vocabulary().iter() {
        let (pos, neg) = weights.pair_of(algebra, p);
        let total = algebra.add(&pos, &neg);
        let undefined = || LiftError::NoProbabilityNormalization {
            predicate: p.name().to_string(),
        };
        let prob = algebra.try_div(&pos, &total).ok_or_else(undefined)?;
        let tuples = u32::try_from(p.arity())
            .ok()
            .and_then(|arity| n.checked_pow(arity));
        let tuples = tuples.ok_or(LiftError::DomainTooLarge)?;
        algebra.mul_assign(&mut normalization, &algebra.pow(&total, tuples));
        probabilities.insert(p.name().to_string(), prob);
    }
    Ok((probabilities, normalization))
}

/// Every query variable ranging over one domain of size `n`.
fn uniform(query: &ConjunctiveQuery, n: usize) -> BTreeMap<Variable, usize> {
    query.variables().into_iter().map(|v| (v, n)).collect()
}

/// The reduction tables of one [`crate::plan::Plan`], in every algebra:
/// one table per probability vector, so repeated counts under one weight
/// function reuse rule (b)'s sub-reductions across calls and domain sizes.
/// Each algebra keeps at most [`keyed::CAPACITY`] tables, least recently
/// used evicted first.
#[derive(Debug, Default)]
pub(crate) struct CqMemo {
    tables: KeyedLru,
    /// Lifetime lookup hits and misses of the tables checked back in.
    hits: u64,
    misses: u64,
}

/// A table counts its memoized residual shapes toward the plan's report.
impl<E: std::fmt::Debug + Send + 'static> keyed::Entry for Table<E> {
    fn size(&self) -> usize {
        self.memo.len()
    }
}

impl CqMemo {
    /// [`gamma_acyclic_wfomc_in`] with the memo's table for this
    /// probability vector, checked out for the reduction: the lock is never
    /// held while reducing, so counts do not serialize and a panic cannot
    /// poison it. The table holds only completed sub-reductions, so it goes
    /// back in after an interrupt too (replacing one a concurrent count
    /// checked in meanwhile; both are sound). Under one probability vector
    /// equal labels mean equal values, so a table answers every count
    /// under that vector exactly as a fresh one would, bits included.
    pub(crate) fn wfomc_in<A: Algebra>(
        memo: &Mutex<CqMemo>,
        query: &ConjunctiveQuery,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
        guard: &Guard,
    ) -> Result<A::Elem, SolveError> {
        let (probabilities, normalization) = tuple_probabilities(query, n, algebra, weights)?;
        let key: Vec<A::Elem> = probabilities.values().cloned().collect();
        let checked_out = memo.lock().expect("cq memo poisoned").tables.take(&key);
        let mut table: Table<A::Elem> = checked_out.unwrap_or_default();
        let domains = uniform(query, n);
        let prob = reduce_query(query, &domains, algebra, &probabilities, &mut table, guard);
        let mut memo = memo.lock().expect("cq memo poisoned");
        memo.hits += std::mem::take(&mut table.hits);
        memo.misses += std::mem::take(&mut table.misses);
        memo.tables.put(key, table);
        Ok(algebra.mul(&prob?, &normalization))
    }

    /// Number of memoized residual query shapes, over all tables.
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// Lifetime `(hits, misses)` of the memo's lookups.
    pub(crate) fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// How an edge's probability was built, free of any weight. Child labels
/// are ids into the table that interned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Label {
    /// The tuple probability of query atom `i`.
    Atom(usize),
    /// Rule (d): the product of two edges' probabilities.
    Product(usize, usize),
    /// Rule (a): `1 − (1 − p)^d` after deleting a node of domain size `d`.
    Isolated(usize, usize),
}

/// The reduction's memo under one weight function: interned labels with
/// their values (indexed by label id), and completed residual states.
#[derive(Debug)]
struct Table<E> {
    ids: HashMap<Label, usize>,
    values: Vec<E>,
    memo: HashMap<Key, E>,
    hits: u64,
    misses: u64,
}

impl<E> Default for Table<E> {
    fn default() -> Self {
        Table {
            ids: HashMap::new(),
            values: Vec::new(),
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<E> Table<E> {
    /// The id of `label`, computing its value only the first time it is seen.
    fn intern(&mut self, label: Label, value: impl FnOnce(&[E]) -> E) -> usize {
        if let Some(&id) = self.ids.get(&label) {
            return id;
        }
        let value = value(&self.values);
        self.values.push(value);
        self.ids.insert(label, self.values.len() - 1);
        self.values.len() - 1
    }
}

#[derive(Clone, Debug)]
struct Edge {
    label: usize,
    vars: BTreeSet<usize>,
}

#[derive(Clone, Debug)]
struct State {
    edges: Vec<Edge>,
    domains: Vec<usize>,
}

/// Memoization key: edge labels with variables renumbered by first
/// occurrence, paired with the domain sizes of those variables in that order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    edges: Vec<(usize, Vec<usize>)>,
    domains: Vec<usize>,
}

impl State {
    fn key(&self) -> Key {
        let mut renumber: BTreeMap<usize, usize> = BTreeMap::new();
        let mut domains = Vec::new();
        let mut edges = Vec::new();
        for e in &self.edges {
            let mut vars = Vec::new();
            for &v in &e.vars {
                let next = renumber.len();
                let id = *renumber.entry(v).or_insert(next);
                if id == domains.len() {
                    domains.push(self.domains[v]);
                }
                vars.push(id);
            }
            vars.sort_unstable();
            edges.push((e.label, vars));
        }
        Key { edges, domains }
    }

    /// Edges containing a given variable.
    fn edges_of(&self, var: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.vars.contains(&var))
            .map(|(i, _)| i)
            .collect()
    }

    fn active_vars(&self) -> BTreeSet<usize> {
        self.edges
            .iter()
            .flat_map(|e| e.vars.iter().copied())
            .collect()
    }
}

/// Checks the query's shape and reduces it with its atoms labelled by their
/// predicates' probabilities.
fn reduce_query<A: Algebra>(
    query: &ConjunctiveQuery,
    domains: &BTreeMap<Variable, usize>,
    algebra: &A,
    probabilities: &BTreeMap<String, A::Elem>,
    table: &mut Table<A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, SolveError> {
    wfomc_guard::failpoint(PHASE)?;
    if !query.is_self_join_free() {
        return Err(LiftError::HasSelfJoin.into());
    }
    if !query.is_constant_free() {
        return Err(LiftError::NotAConjunctiveQuery.into());
    }
    let vars = query.variables();
    let domains = vars
        .iter()
        .map(|v| {
            let missing = || LiftError::Internal(format!("no domain size supplied for {v}"));
            domains.get(v).copied().ok_or_else(missing)
        })
        .collect::<Result<_, _>>()?;
    let mut edges = Vec::new();
    for (i, atom) in query.atoms.iter().enumerate() {
        let label = table.intern(Label::Atom(i), |_| {
            let half = || algebra.from_weight(&Weight::new(1.into(), 2.into()));
            probabilities
                .get(atom.predicate.name())
                .cloned()
                .unwrap_or_else(half)
        });
        let index = |v| vars.iter().position(|u| u == v).expect("indexed");
        let vars = atom.variables().iter().map(index).collect();
        edges.push(Edge { label, vars });
    }
    reduce(algebra, &State { edges, domains }, table, guard)
}

fn reduce<A: Algebra>(
    algebra: &A,
    state: &State,
    table: &mut Table<A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, SolveError> {
    if state.edges.is_empty() {
        return Ok(algebra.one());
    }
    // A variable with an empty domain occurring in some edge makes the query
    // false (the existential quantifier has no witnesses).
    if state.active_vars().iter().any(|&v| state.domains[v] == 0) {
        return Ok(algebra.zero());
    }
    let key = state.key();
    if let Some(hit) = table.memo.get(&key) {
        table.hits += 1;
        wfomc_obs::metrics::CQ_MEMO_HITS.inc();
        return Ok(hit.clone());
    }
    table.misses += 1;
    wfomc_obs::metrics::CQ_MEMO_MISSES.inc();
    guard.tick(PHASE, 1)?;

    // The memo only ever records *completed* reductions: an interrupt below
    // propagates before this insert, so a cancelled solve leaves the table
    // consistent and a retry resumes from the finished sub-problems.
    let result = apply_rule(algebra, state, table, guard)?;
    table.memo.insert(key, result.clone());
    Ok(result)
}

fn apply_rule<A: Algebra>(
    algebra: &A,
    state: &State,
    table: &mut Table<A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, SolveError> {
    // Rule (c): empty edge.
    if let Some(i) = state.edges.iter().position(|e| e.vars.is_empty()) {
        let mut next = state.clone();
        let edge = next.edges.remove(i);
        let rest = reduce(algebra, &next, table, guard)?;
        return Ok(algebra.mul(&table.values[edge.label], &rest));
    }

    // Rule (d): duplicate edges.
    for i in 0..state.edges.len() {
        for j in (i + 1)..state.edges.len() {
            if state.edges[i].vars == state.edges[j].vars {
                let mut next = state.clone();
                let (a, b) = (next.edges[i].label, next.edges.remove(j).label);
                next.edges[i].label = table.intern(Label::Product(a, b), |values| {
                    algebra.mul(&values[a], &values[b])
                });
                return reduce(algebra, &next, table, guard);
            }
        }
    }

    // Rule (a): isolated node (occurs in exactly one edge).
    for &v in &state.active_vars() {
        let containing = state.edges_of(v);
        if containing.len() == 1 {
            let e = containing[0];
            let d = state.domains[v];
            let mut next = state.clone();
            next.edges[e].vars.remove(&v);
            let inner = next.edges[e].label;
            next.edges[e].label = table.intern(Label::Isolated(inner, d), |values| {
                let one = algebra.one();
                let absent = algebra.pow(&algebra.sub(&one, &values[inner]), d);
                algebra.sub(&one, &absent)
            });
            return reduce(algebra, &next, table, guard);
        }
    }

    // Rule (e): edge-equivalent nodes.
    let active: Vec<usize> = state.active_vars().into_iter().collect();
    for (idx, &a) in active.iter().enumerate() {
        for &b in &active[idx + 1..] {
            let ea = state.edges_of(a);
            let eb = state.edges_of(b);
            if ea == eb {
                let mut next = state.clone();
                for e in next.edges.iter_mut() {
                    e.vars.remove(&b);
                }
                next.domains[a] = state.domains[a]
                    .checked_mul(state.domains[b])
                    .ok_or(LiftError::DomainTooLarge)?;
                return reduce(algebra, &next, table, guard);
            }
        }
    }

    // Rule (b): singleton edge whose variable also occurs elsewhere.
    if let Some(i) = state.edges.iter().position(|e| e.vars.len() == 1) {
        let v = *state.edges[i].vars.iter().next().expect("singleton");
        let p = table.values[state.edges[i].label].clone();
        let absent = algebra.sub(&algebra.one(), &p);
        let n_v = state.domains[v];
        let mut residual = state.clone();
        residual.edges.remove(i);
        let mut total = algebra.zero();
        for k in 0..=n_v {
            let mut branch = residual.clone();
            branch.domains[v] = k;
            let sub = reduce(algebra, &branch, table, guard)?;
            if algebra.is_zero(&sub) {
                continue;
            }
            let coeff = algebra.mul(
                &algebra.mul(
                    &algebra.from_weight(&binomial_weight(n_v, k)),
                    &algebra.pow(&p, k),
                ),
                &algebra.pow(&absent, n_v - k),
            );
            algebra.add_assign(&mut total, &algebra.mul(&coeff, &sub));
        }
        return Ok(total);
    }

    Err(LiftError::NotGammaAcyclic.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::{One, Zero};
    use wfomc_ground::{probability as ground_probability, wfomc as ground_wfomc};
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_int, weight_pow, weight_ratio};

    fn uniform_probs(query: &ConjunctiveQuery, p: Weight) -> BTreeMap<String, Weight> {
        query
            .vocabulary()
            .iter()
            .map(|pred| (pred.name().to_string(), p.clone()))
            .collect()
    }

    /// The exact multi-domain probability.
    fn probability_multi(
        query: &ConjunctiveQuery,
        domains: &BTreeMap<Variable, usize>,
        probabilities: &BTreeMap<String, Weight>,
    ) -> Result<Weight, LiftError> {
        gamma_acyclic_probability_in(query, domains, &Exact, probabilities, &Guard::unarmed())
            .map_err(demote)
    }

    /// The exact probability over one domain of size `n`.
    fn probability(
        query: &ConjunctiveQuery,
        n: usize,
        probabilities: &BTreeMap<String, Weight>,
    ) -> Result<Weight, LiftError> {
        probability_multi(query, &uniform(query, n), probabilities)
    }

    #[test]
    fn single_edge_query() {
        // ∃x∃y R(x,y) with p = 1/2 over n = 2: 1 − (1/2)⁴ = 15/16.
        let q = catalog::chain_query(1);
        let probs = uniform_probs(&q, weight_ratio(1, 2));
        let prob = probability(&q, 2, &probs).unwrap();
        assert_eq!(prob, weight_ratio(15, 16));
    }

    #[test]
    fn chain_queries_match_ground_truth() {
        for m in 1..=3 {
            let q = catalog::chain_query(m);
            let f = q.to_formula();
            let voc = f.vocabulary();
            let mut weights = Weights::ones();
            for (i, pred) in voc.iter().enumerate() {
                weights.set(pred.name(), weight_int(i as i64 + 1), weight_int(2));
            }
            for n in 0..=2 {
                let lifted = gamma_acyclic_wfomc(&q, n, &weights).unwrap();
                let grounded = ground_wfomc(&f, &voc, n, &weights);
                assert_eq!(lifted, grounded, "chain m={m}, n={n}");
            }
        }
    }

    #[test]
    fn star_query_matches_ground_truth() {
        let q = catalog::star_query(3);
        let f = q.to_formula();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R1", 1, 1), ("R2", 2, 1), ("R3", 1, 3)]);
        for n in 1..=2 {
            let lifted = gamma_acyclic_wfomc(&q, n, &weights).unwrap();
            let grounded = ground_wfomc(&f, &voc, n, &weights);
            assert_eq!(lifted, grounded, "n = {n}");
        }
    }

    #[test]
    fn table1_dual_cq_matches_ground_truth() {
        // ∃x∃y (R(x) ∧ S(x,y) ∧ T(y)) — the intro's PTIME example.
        let q = catalog::table1_dual_cq();
        let f = q.to_formula();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 1), ("T", 1, 2)]);
        for n in 0..=2 {
            let lifted = gamma_acyclic_wfomc(&q, n, &weights).unwrap();
            let grounded = ground_wfomc(&f, &voc, n, &weights);
            assert_eq!(lifted, grounded, "n = {n}");
        }
        // Probability form against the grounded probability at n = 3.
        let probs = uniform_probs(&q, weight_ratio(1, 2));
        let lifted_prob = probability(&q, 3, &probs).unwrap();
        let grounded_prob = ground_probability(&f, &voc, 3, &Weights::ones());
        assert_eq!(lifted_prob, grounded_prob);
    }

    #[test]
    fn typed_cycle_is_rejected() {
        let q = catalog::typed_cycle_cq(3);
        let err = gamma_acyclic_wfomc(&q, 3, &Weights::ones()).unwrap_err();
        assert_eq!(err, LiftError::NotGammaAcyclic);
    }

    #[test]
    fn self_join_is_rejected() {
        let q =
            wfomc_logic::cq::ConjunctiveQuery::from_formula(&catalog::untyped_triangles()).unwrap();
        let err = gamma_acyclic_wfomc(&q, 3, &Weights::ones()).unwrap_err();
        assert_eq!(err, LiftError::HasSelfJoin);
    }

    #[test]
    fn skolem_style_weights_are_rejected_cleanly() {
        let q = catalog::chain_query(1);
        let weights = Weights::from_ints([("R1", 1, -1)]);
        let err = gamma_acyclic_wfomc(&q, 2, &weights).unwrap_err();
        assert!(matches!(err, LiftError::NoProbabilityNormalization { .. }));
    }

    #[test]
    fn overflowing_tuple_counts_are_rejected_cleanly() {
        let q = catalog::chain_query(2);
        let n = 1usize << (usize::BITS / 2 + 1);
        let err = gamma_acyclic_wfomc(&q, n, &Weights::ones()).unwrap_err();
        assert_eq!(err, LiftError::DomainTooLarge);
        // Rule (e) merges the edge-equivalent nodes x and y into one domain.
        let f = wfomc_logic::parser::parse(
            "exists x. exists y. exists a. exists b. R(x,y,a) & S(x,y,b) & T(a) & U(b)",
        )
        .unwrap();
        let q = ConjunctiveQuery::from_formula(&f).unwrap();
        let domains = q.variables().into_iter().map(|v| (v, n)).collect();
        let err = probability_multi(&q, &domains, &BTreeMap::new()).unwrap_err();
        assert_eq!(err, LiftError::DomainTooLarge);
    }

    #[test]
    fn multi_domain_generalization() {
        // Chain of length 1 with |x0| = 2, |x1| = 3 and p = 1/3:
        // Pr = 1 − (2/3)⁶.
        let q = catalog::chain_query(1);
        let vars = q.variables();
        let domains: BTreeMap<_, _> = vec![(vars[0].clone(), 2), (vars[1].clone(), 3)]
            .into_iter()
            .collect();
        let probs = uniform_probs(&q, weight_ratio(1, 3));
        let prob = probability_multi(&q, &domains, &probs).unwrap();
        let expected = Weight::one() - weight_pow(&weight_ratio(2, 3), 6);
        assert_eq!(prob, expected);
    }

    #[test]
    fn zero_domain_makes_query_false() {
        let q = catalog::chain_query(2);
        let vars = q.variables();
        let mut domains: BTreeMap<_, _> = vars.iter().map(|v| (v.clone(), 2)).collect();
        domains.insert(vars[1].clone(), 0);
        let probs = uniform_probs(&q, weight_ratio(1, 2));
        assert_eq!(
            probability_multi(&q, &domains, &probs).unwrap(),
            Weight::zero()
        );
    }

    #[test]
    fn log_space_tracks_exact_at_large_domains() {
        // Tuple probabilities near 1 make rule (a) produce 1 − 10⁻⁶¹-sized
        // values whose complements must survive in log space.
        use wfomc_logic::algebra::LogF64;
        let weights = Weights::from_ints([("R1", 11, 2), ("R2", 3, 11), ("R3", 7, 1)]);
        let lifted = AlgebraWeights::lift(&LogF64, &weights);
        for q in [catalog::chain_query(3), catalog::star_query(3)] {
            for n in [8, 20] {
                let exact = gamma_acyclic_wfomc(&q, n, &weights).unwrap();
                let log =
                    gamma_acyclic_wfomc_in(&q, n, &LogF64, &lifted, &Guard::unarmed()).unwrap();
                let want = LogF64.from_weight(&exact);
                assert_eq!(log.signum(), want.signum(), "n = {n}");
                assert!(
                    (log.ln_abs() - want.ln_abs()).abs() < 1e-9,
                    "n = {n}: {log} vs {want}"
                );
            }
        }
    }

    #[test]
    fn memoization_keeps_long_chains_fast() {
        // A length-6 chain at n = 12 explodes without memoization; with it the
        // computation is effectively instant. Cross-check against the closed
        // recurrence of Example 3.10 (chain.rs) elsewhere; here we just assert
        // it terminates and produces a probability in (0, 1).
        let q = catalog::chain_query(6);
        let probs = uniform_probs(&q, weight_ratio(1, 10));
        let p = probability(&q, 12, &probs).unwrap();
        assert!(p > Weight::zero() && p < Weight::one());
    }
}
