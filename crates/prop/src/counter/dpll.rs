//! Weighted DPLL model counting with unit propagation, connected-component
//! decomposition and component caching.
//!
//! The algorithm maintains the invariant that [`count`] computes the weighted
//! model count of a clause set *over exactly the variables mentioned in it*.
//! Whenever a step (unit propagation, conditioning) makes a variable disappear
//! from all clauses without assigning it, the caller multiplies in the factor
//! `w(v) + w̄(v)` for that "freed" variable. Unmentioned variables of the
//! original universe are handled once at the top level.

use std::collections::{BTreeSet, HashMap};

use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};

use crate::cnf::{Cnf, Lit};
use crate::formula::Var;

type ClauseSet = Vec<Vec<Lit>>;

/// Guard phase name for the DPLL search loops.
const PHASE: &str = "prop.dpll";

/// Weighted model count of a CNF over the universe `0..max(cnf.num_vars,
/// weights.table_len())`, in any [`Algebra`], under a resource [`Guard`].
///
/// The weight table may be shorter or longer than `cnf.num_vars`: variables
/// beyond the table carry the implicit pair `(1, 1)` (they are counted,
/// unweighted), and table entries beyond the CNF's universe are unconstrained
/// variables contributing `w + w̄` each. The search (branching order,
/// propagation and component decomposition) never looks at a weight; every
/// accumulation is done by the algebra's ring operations. The guard ticks
/// once per sub-problem and per decision, and an interrupt leaves no shared
/// state behind (the component cache is call-local), so retrying is safe.
pub(crate) fn wmc_dpll_guarded_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    cnf: &Cnf,
    algebra: &A,
    weights: &W,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    let universe = cnf.num_vars.max(weights.table_len());

    // Normalize clauses: dedupe literals, drop tautological clauses.
    let mut clauses: ClauseSet = Vec::with_capacity(cnf.clauses.len());
    for clause in &cnf.clauses {
        let mut lits: Vec<Lit> = clause.clone();
        lits.sort();
        lits.dedup();
        let tautological = lits
            .windows(2)
            .any(|w| w[0].var == w[1].var && w[0].positive != w[1].positive);
        if !tautological {
            clauses.push(lits);
        }
    }

    // Variables never mentioned (or only mentioned in tautological clauses)
    // contribute w + w̄ each.
    let mentioned_after: BTreeSet<Var> = clauses.iter().flatten().map(|l| l.var).collect();
    let mut factor = algebra.one();
    for v in 0..universe {
        if !mentioned_after.contains(&v) {
            algebra.mul_assign(&mut factor, &weights.var_total(algebra, v));
        }
    }

    canonicalize(&mut clauses);
    wfomc_guard::failpoint(PHASE)?;
    let mut cache: HashMap<ClauseSet, A::Elem> = HashMap::new();
    let inner = count(&clauses, algebra, weights, &mut cache, guard)?;
    Ok(algebra.mul(&factor, &inner))
}

fn canonicalize(clauses: &mut ClauseSet) {
    for c in clauses.iter_mut() {
        c.sort();
    }
    clauses.sort();
}

fn clause_vars(clauses: &[Vec<Lit>]) -> BTreeSet<Var> {
    clauses.iter().flatten().map(|l| l.var).collect()
}

/// Conditions a clause set on `var = value`. Returns `None` if an empty
/// clause (conflict) is produced.
fn condition(clauses: &[Vec<Lit>], var: Var, value: bool) -> Option<ClauseSet> {
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.iter().any(|l| l.var == var && l.satisfied_by(value)) {
            continue; // satisfied
        }
        let reduced: Vec<Lit> = c.iter().copied().filter(|l| l.var != var).collect();
        if reduced.is_empty() {
            return None;
        }
        out.push(reduced);
    }
    Some(out)
}

/// Weighted model count of `clauses` over exactly the variables mentioned in
/// `clauses`. `clauses` must be canonical (sorted clauses, sorted literal
/// lists, no tautologies, no duplicate literals).
fn count<A: Algebra, W: VarPairs<A> + ?Sized>(
    clauses: &ClauseSet,
    algebra: &A,
    weights: &W,
    cache: &mut HashMap<ClauseSet, A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    if clauses.is_empty() {
        return Ok(algebra.one());
    }
    if clauses.iter().any(Vec::is_empty) {
        return Ok(algebra.zero());
    }
    if let Some(hit) = cache.get(clauses) {
        return Ok(hit.clone());
    }
    guard.tick(PHASE, 1)?;

    let scope = clause_vars(clauses);

    // Unit propagation, with bookkeeping of which variables got assigned (as
    // opposed to freed because every clause containing them was satisfied).
    let mut factor = algebra.one();
    let mut current: ClauseSet = clauses.clone();
    let mut assigned_vars: BTreeSet<Var> = BTreeSet::new();
    loop {
        let unit = current.iter().find(|c| c.len() == 1).map(|c| c[0]);
        let Some(lit) = unit else { break };
        algebra.mul_assign(
            &mut factor,
            &weights.var_weight(algebra, lit.var, lit.positive),
        );
        assigned_vars.insert(lit.var);
        match condition(&current, lit.var, lit.positive) {
            Some(next) => current = next,
            None => {
                cache.insert(clauses.clone(), algebra.zero());
                return Ok(algebra.zero());
            }
        }
    }
    let remaining_vars = clause_vars(&current);
    for v in scope.iter() {
        if !assigned_vars.contains(v) && !remaining_vars.contains(v) {
            algebra.mul_assign(&mut factor, &weights.var_total(algebra, *v));
        }
    }

    let result = if current.is_empty() {
        factor
    } else {
        // Connected-component decomposition over the primal graph.
        let components = split_components(&current);
        let mut product = factor;
        for mut comp in components {
            canonicalize(&mut comp);
            let c = count_component(&comp, algebra, weights, cache, guard)?;
            algebra.mul_assign(&mut product, &c);
        }
        product
    };

    cache.insert(clauses.clone(), result.clone());
    Ok(result)
}

/// Counts a single connected component by branching on a variable.
fn count_component<A: Algebra, W: VarPairs<A> + ?Sized>(
    comp: &ClauseSet,
    algebra: &A,
    weights: &W,
    cache: &mut HashMap<ClauseSet, A::Elem>,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    if comp.is_empty() {
        return Ok(algebra.one());
    }
    if let Some(hit) = cache.get(comp) {
        return Ok(hit.clone());
    }
    guard.tick(PHASE, 1)?;
    let scope = clause_vars(comp);

    // Branch on the most frequently occurring variable.
    let mut occurrence: HashMap<Var, usize> = HashMap::new();
    for c in comp {
        for l in c {
            *occurrence.entry(l.var).or_insert(0) += 1;
        }
    }
    let (&branch_var, _) = occurrence
        .iter()
        .max_by_key(|(v, count)| (**count, usize::MAX - **v))
        .expect("non-empty component has variables");
    wfomc_obs::metrics::DPLL_DECISIONS.inc();

    let mut total = algebra.zero();
    for value in [true, false] {
        let weight = weights.var_weight(algebra, branch_var, value);
        if let Some(mut cond) = condition(comp, branch_var, value) {
            canonicalize(&mut cond);
            // Variables freed by this conditioning step.
            let cond_vars = clause_vars(&cond);
            let mut branch = weight;
            for v in scope.iter() {
                if *v != branch_var && !cond_vars.contains(v) {
                    algebra.mul_assign(&mut branch, &weights.var_total(algebra, *v));
                }
            }
            let sub = count(&cond, algebra, weights, cache, guard)?;
            algebra.mul_assign(&mut branch, &sub);
            algebra.add_assign(&mut total, &branch);
        }
    }
    cache.insert(comp.clone(), total.clone());
    Ok(total)
}

/// Splits a clause set into connected components of its primal graph
/// (clauses are connected when they share a variable).
fn split_components(clauses: &ClauseSet) -> Vec<ClauseSet> {
    let n = clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }

    // Union clauses sharing a variable via a var → first clause map.
    let mut owner: HashMap<Var, usize> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        for l in c {
            match owner.get(&l.var) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    owner.insert(l.var, i);
                }
            }
        }
    }

    let mut groups: HashMap<usize, ClauseSet> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(c.clone());
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{assert_weight_table_contract, exact_wmc, WmcBackend};
    use crate::formula::PropFormula;
    use crate::weights::VarWeights;
    use wfomc_logic::weights::weight_int;

    fn cnf(num_vars: usize, clauses: &[&[(usize, bool)]]) -> Cnf {
        Cnf::new(
            num_vars,
            clauses
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|&(v, pos)| Lit {
                            var: v,
                            positive: pos,
                        })
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn empty_cnf_counts_all_assignments() {
        let c = Cnf::trivial(4);
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(4), WmcBackend::Dpll),
            weight_int(16)
        );
    }

    #[test]
    fn unsat_cnf_counts_zero() {
        let c = cnf(2, &[&[(0, true)], &[(0, false)]]);
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(2), WmcBackend::Dpll),
            weight_int(0)
        );
    }

    #[test]
    fn freed_variables_are_counted() {
        // (x0 ∨ x1): branching on x0=true frees x1.
        let c = cnf(2, &[&[(0, true), (1, true)]]);
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(2), WmcBackend::Dpll),
            weight_int(3)
        );
    }

    #[test]
    fn component_decomposition_multiplies() {
        // (x0 ∨ x1) ∧ (x2 ∨ x3): 3 · 3 = 9 models.
        let c = cnf(4, &[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(4), WmcBackend::Dpll),
            weight_int(9)
        );
    }

    #[test]
    fn tautological_clause_is_ignored() {
        // (x0 ∨ ¬x0) ∧ (x1) → x1 fixed, x0 free → 2 models.
        let c = cnf(2, &[&[(0, true), (0, false)], &[(1, true)]]);
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(2), WmcBackend::Dpll),
            weight_int(2)
        );
    }

    #[test]
    fn matches_enumeration_on_structured_instances() {
        // Pigeonhole-ish and chain instances.
        let instances = vec![
            cnf(
                4,
                &[
                    &[(0, true), (1, true)],
                    &[(1, false), (2, true)],
                    &[(2, false), (3, true)],
                    &[(0, false), (3, false)],
                ],
            ),
            cnf(
                5,
                &[
                    &[(0, true), (1, true), (2, true)],
                    &[(2, false), (3, false)],
                    &[(3, true), (4, true)],
                ],
            ),
        ];
        for c in instances {
            let w = VarWeights::ones(c.num_vars);
            assert_eq!(
                exact_wmc(&c, &w, WmcBackend::Dpll),
                exact_wmc(&c, &w, WmcBackend::Enumerate)
            );
        }
    }

    #[test]
    fn negative_weights_are_exact() {
        // Skolemization-style weights: w(x0)=1, w̄(x0)=−1; the count of
        // (x0 ∨ x1) is w(x0)(w(x1)+w̄(x1)) + w̄(x0)w(x1) = 2 − 1 = 1.
        let c = cnf(2, &[&[(0, true), (1, true)]]);
        let w = VarWeights::from_vecs(
            vec![weight_int(1), weight_int(1)],
            vec![weight_int(-1), weight_int(1)],
        );
        assert_eq!(exact_wmc(&c, &w, WmcBackend::Dpll), weight_int(1));
        assert_eq!(exact_wmc(&c, &w, WmcBackend::Enumerate), weight_int(1));
    }

    #[test]
    fn short_weight_tables_count_remaining_vars_unweighted() {
        // (x0 ∨ x1) over 3 variables, weights only for x0: the other two
        // variables carry the implicit pair (1, 1).
        let c = cnf(3, &[&[(0, true), (1, true)]]);
        let w = VarWeights::from_vecs(vec![weight_int(3)], vec![weight_int(2)]);
        // (3·2 + 2·1) · 2 = 16 over x2's two values: x0 branch weights
        // (3 when true frees x1 → ·2; 2 when false forces x1 → ·1).
        let expected = weight_int(16);
        assert_eq!(exact_wmc(&c, &w, WmcBackend::Dpll), expected);
        assert_eq!(exact_wmc(&c, &w, WmcBackend::Enumerate), expected);
        // An empty table degenerates to plain model counting.
        assert_eq!(
            exact_wmc(&c, &VarWeights::from_vecs(vec![], vec![]), WmcBackend::Dpll),
            weight_int(6)
        );
        // Every backend, for the CNF and for a formula mentioning x1 and x2
        // past the table, in Exact and LogF64. The tautology `x2 ∨ ¬x2`
        // widens the formula's universe to the CNF's three variables.
        let f = PropFormula::and(
            PropFormula::or(PropFormula::var(0), PropFormula::var(1)),
            PropFormula::or(PropFormula::var(2), PropFormula::not(PropFormula::var(2))),
        );
        assert_weight_table_contract(&c, &f, &w, &expected);
        let empty = VarWeights::from_vecs(vec![], vec![]);
        assert_weight_table_contract(&c, &f, &empty, &weight_int(6));
    }

    #[test]
    fn unit_propagation_chain() {
        // x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): forces all true → 1 model.
        let c = cnf(
            3,
            &[
                &[(0, true)],
                &[(0, false), (1, true)],
                &[(1, false), (2, true)],
            ],
        );
        assert_eq!(
            exact_wmc(&c, &VarWeights::ones(3), WmcBackend::Dpll),
            weight_int(1)
        );
    }
}
