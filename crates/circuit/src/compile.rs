//! Top-down d-DNNF compilation by tracing the weighted DPLL search.
//!
//! The compiler performs exactly the search of `wfomc-prop`'s DPLL counter —
//! unit propagation, connected-component decomposition, most-occurrences
//! branching, and a component cache — but instead of multiplying weights it
//! **records** the search as circuit nodes:
//!
//! * a unit-propagated literal becomes a [`Node::Lit`] conjunct;
//! * component decomposition becomes a decomposable [`Node::And`];
//! * a branch on `v` becomes a deterministic [`Node::Decision`];
//! * the component cache maps canonical clause sets to **circuit node ids**,
//!   so repeated sub-problems share one sub-circuit in the DAG.
//!
//! Variables that disappear without being assigned ("freed" variables) simply
//! drop out of a node's support; the [smoothing pass](crate::smooth) later
//! reintroduces them explicitly so evaluation needs no gap bookkeeping.
//!
//! [`Node::Lit`]: crate::ir::Node::Lit
//! [`Node::And`]: crate::ir::Node::And
//! [`Node::Decision`]: crate::ir::Node::Decision

use std::collections::HashMap;

use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};

use crate::eval::evaluate_in;
use crate::ir::{CLit, Circuit, NodeId, Var};
use crate::smooth::smooth;

type ClauseSet = Vec<Vec<CLit>>;

/// Guard phase name for the compiler's search loops.
const PHASE: &str = "circuit.compile";

/// Counters describing one compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Total arena nodes in the finished (smoothed) circuit.
    pub nodes: usize,
    /// Total child edges in the finished circuit.
    pub edges: usize,
    /// Decision nodes emitted by the search (before smoothing gadgets).
    pub decisions: usize,
    /// Component-cache hits during compilation.
    pub cache_hits: usize,
}

/// A CNF compiled to a smoothed d-DNNF circuit, ready for repeated weighted
/// evaluation.
#[derive(Clone, Debug)]
pub struct CompiledCnf {
    circuit: Circuit,
    root: NodeId,
    num_vars: usize,
    stats: CompileStats,
}

impl CompiledCnf {
    /// Reassembles a compiled circuit from decoded parts, validating that
    /// the root id lies inside the arena and that no node mentions a
    /// variable outside the smoothed universe. Returns `None` on violation —
    /// the snapshot decoder's last line of defense before evaluation.
    pub fn from_parts(
        circuit: Circuit,
        root: NodeId,
        num_vars: usize,
        stats: CompileStats,
    ) -> Option<CompiledCnf> {
        if root.index() >= circuit.len() {
            return None;
        }
        let in_universe = circuit.nodes().iter().all(|node| match node {
            crate::ir::Node::Lit(lit) => lit.var < num_vars,
            crate::ir::Node::Decision { var, .. } => *var < num_vars,
            _ => true,
        });
        if !in_universe {
            return None;
        }
        Some(CompiledCnf {
            circuit,
            root,
            num_vars,
            stats,
        })
    }

    /// Weighted model count over the circuit's `num_vars`-variable universe
    /// under the given weights, in any [`Algebra`]. Linear in circuit size;
    /// one compilation serves any number of weight vectors in any number of
    /// algebras.
    pub fn wmc_in<A: Algebra, W: VarPairs<A> + ?Sized>(&self, algebra: &A, weights: &W) -> A::Elem {
        evaluate_in(&self.circuit, self.root, algebra, weights)
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The smoothed root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Size of the variable universe the circuit is smoothed over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }
}

/// Compiles a CNF over the universe `0..num_vars` into a smoothed d-DNNF
/// circuit, under a resource [`Guard`].
///
/// Clauses may contain duplicate literals and tautologies; they are
/// normalized away exactly as the DPLL counter does. The compiler ticks the
/// guard once per sub-problem and per decision, and checks the arena's size
/// (circuit nodes plus cached components) against the guard's
/// memory-estimate cap before each sub-problem grows it. An interrupt
/// abandons the partial arena (nothing is shared), so callers can simply
/// retry with a larger budget; ungoverned callers pass [`Guard::unarmed`].
///
/// # Panics
/// Panics if a clause mentions a variable `>= num_vars`.
pub fn compile_guarded(
    num_vars: usize,
    clauses: &[Vec<CLit>],
    guard: &Guard,
) -> Result<CompiledCnf, Interrupt> {
    let _span = wfomc_obs::span("circuit.compile");
    wfomc_guard::failpoint(PHASE)?;
    // Normalize: dedupe literals, drop tautological clauses.
    let mut normalized: ClauseSet = Vec::with_capacity(clauses.len());
    for clause in clauses {
        let mut lits: Vec<CLit> = clause.clone();
        for l in &lits {
            assert!(
                l.var < num_vars,
                "clause mentions x{} outside the universe of {num_vars} variables",
                l.var
            );
        }
        lits.sort();
        lits.dedup();
        let tautological = lits
            .windows(2)
            .any(|w| w[0].var == w[1].var && w[0].positive != w[1].positive);
        if !tautological {
            normalized.push(lits);
        }
    }
    canonicalize(&mut normalized);

    let mut compiler = Compiler {
        circuit: Circuit::new(),
        cache: HashMap::new(),
        decisions: 0,
        cache_hits: 0,
        guard,
    };
    let raw_root = compiler.compile_set(&normalized)?;
    let smoothed = smooth(&mut compiler.circuit, raw_root, num_vars);
    // Compilation and smoothing leave superseded nodes in the arena; keep
    // only the live circuit so every evaluation is a plain arena scan.
    let (circuit, root) = compiler.circuit.pruned(smoothed);
    let stats = CompileStats {
        nodes: circuit.len(),
        edges: circuit.edge_count(),
        decisions: compiler.decisions,
        cache_hits: compiler.cache_hits,
    };
    wfomc_obs::metrics::CIRCUIT_COMPILES.inc();
    wfomc_obs::metrics::CIRCUIT_NODES.add(stats.nodes as u64);
    wfomc_obs::metrics::CIRCUIT_EDGES.add(stats.edges as u64);
    wfomc_obs::metrics::CIRCUIT_CACHE_HITS.add(stats.cache_hits as u64);
    Ok(CompiledCnf {
        circuit,
        root,
        num_vars,
        stats,
    })
}

struct Compiler<'a> {
    circuit: Circuit,
    /// Component cache: canonical clause set → compiled sub-circuit.
    cache: HashMap<ClauseSet, NodeId>,
    decisions: usize,
    cache_hits: usize,
    guard: &'a Guard,
}

fn canonicalize(clauses: &mut ClauseSet) {
    for c in clauses.iter_mut() {
        c.sort();
    }
    clauses.sort();
}

/// Conditions a clause set on `var = value`; `None` signals a conflict.
fn condition(clauses: &[Vec<CLit>], var: Var, value: bool) -> Option<ClauseSet> {
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.iter().any(|l| l.var == var && l.positive == value) {
            continue; // satisfied
        }
        let reduced: Vec<CLit> = c.iter().copied().filter(|l| l.var != var).collect();
        if reduced.is_empty() {
            return None;
        }
        out.push(reduced);
    }
    Some(out)
}

impl Compiler<'_> {
    /// Compiles a canonical clause set (the analogue of the DPLL `count`).
    fn compile_set(&mut self, clauses: &ClauseSet) -> Result<NodeId, Interrupt> {
        if clauses.is_empty() {
            return Ok(self.circuit.tt());
        }
        if clauses.iter().any(Vec::is_empty) {
            return Ok(self.circuit.ff());
        }
        if let Some(&hit) = self.cache.get(clauses) {
            self.cache_hits += 1;
            return Ok(hit);
        }
        self.guard.tick(PHASE, 1)?;
        self.guard
            .check_mem(PHASE, (self.circuit.len() + self.cache.len()) as u64)?;

        // Unit propagation; each propagated literal becomes a conjunct.
        let mut parts: Vec<NodeId> = Vec::new();
        let mut current: ClauseSet = clauses.clone();
        loop {
            let unit = current.iter().find(|c| c.len() == 1).map(|c| c[0]);
            let Some(lit) = unit else { break };
            let lit_node = self.circuit.mk_lit(lit);
            parts.push(lit_node);
            match condition(&current, lit.var, lit.positive) {
                Some(next) => current = next,
                None => {
                    let ff = self.circuit.ff();
                    self.cache.insert(clauses.clone(), ff);
                    return Ok(ff);
                }
            }
        }

        // Connected-component decomposition; the components' circuits are
        // conjoined decomposably with the propagated literals.
        if !current.is_empty() {
            for mut comp in split_components(&current) {
                canonicalize(&mut comp);
                let node = self.compile_component(&comp)?;
                parts.push(node);
            }
        }
        let result = self.circuit.mk_and(parts);
        self.cache.insert(clauses.clone(), result);
        Ok(result)
    }

    /// Compiles one connected component by branching (the analogue of the
    /// DPLL `count_component`).
    fn compile_component(&mut self, comp: &ClauseSet) -> Result<NodeId, Interrupt> {
        if comp.is_empty() {
            return Ok(self.circuit.tt());
        }
        if let Some(&hit) = self.cache.get(comp) {
            self.cache_hits += 1;
            return Ok(hit);
        }
        self.guard.tick(PHASE, 1)?;

        // Branch on the most frequently occurring variable (same heuristic
        // and tie-break as the DPLL counter, so the search trees coincide).
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
        self.decisions += 1;

        let mut branch = |value: bool| -> Result<NodeId, Interrupt> {
            match condition(comp, branch_var, value) {
                None => Ok(self.circuit.ff()),
                Some(mut cond) => {
                    canonicalize(&mut cond);
                    self.compile_set(&cond)
                }
            }
        };
        let hi = branch(true)?;
        let lo = branch(false)?;
        let result = self.circuit.mk_decision(branch_var, hi, lo);
        self.cache.insert(comp.clone(), result);
        Ok(result)
    }
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
    use crate::ir::Node;
    use wfomc_logic::algebra::{ElemWeights, Exact};
    use wfomc_logic::weights::{weight_int, Weight};

    fn compile_cnf(num_vars: usize, clauses: &[Vec<CLit>]) -> CompiledCnf {
        compile_guarded(num_vars, clauses, &Guard::unarmed()).unwrap()
    }

    fn cnf(clauses: &[&[(usize, bool)]]) -> Vec<Vec<CLit>> {
        clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(v, pos)| CLit {
                        var: v,
                        positive: pos,
                    })
                    .collect()
            })
            .collect()
    }

    /// Brute-force WMC for cross-checking (exponential, test-only).
    fn brute_force(num_vars: usize, clauses: &[Vec<CLit>], w: &ElemWeights<Exact>) -> Weight {
        use num_traits::Zero;
        let mut total = Weight::zero();
        for bits in 0u64..(1 << num_vars) {
            let assignment: Vec<bool> = (0..num_vars).map(|v| (bits >> v) & 1 == 1).collect();
            let satisfied = clauses
                .iter()
                .all(|c| c.iter().any(|l| l.positive == assignment[l.var]));
            if satisfied {
                let mut weight = wfomc_logic::weights::weight_int(1);
                for (v, &value) in assignment.iter().enumerate() {
                    weight *= w.var_weight(&Exact, v, value);
                }
                total += weight;
            }
        }
        total
    }

    #[test]
    fn empty_cnf_counts_all_assignments() {
        let compiled = compile_cnf(4, &[]);
        assert_eq!(compiled.wmc_in(&Exact, &ElemWeights::new()), weight_int(16));
    }

    #[test]
    fn unsat_cnf_counts_zero() {
        let compiled = compile_cnf(2, &cnf(&[&[(0, true)], &[(0, false)]]));
        assert_eq!(compiled.wmc_in(&Exact, &ElemWeights::new()), weight_int(0));
    }

    #[test]
    fn freed_variables_are_smoothed_in() {
        // (x0 ∨ x1): branching on x0=true frees x1.
        let compiled = compile_cnf(2, &cnf(&[&[(0, true), (1, true)]]));
        assert_eq!(compiled.wmc_in(&Exact, &ElemWeights::new()), weight_int(3));
    }

    #[test]
    fn component_decomposition_multiplies() {
        let compiled = compile_cnf(4, &cnf(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]));
        assert_eq!(compiled.wmc_in(&Exact, &ElemWeights::new()), weight_int(9));
    }

    #[test]
    fn negative_weights_are_exact() {
        // Skolemization-style weights (w̄ = −1).
        let compiled = compile_cnf(2, &cnf(&[&[(0, true), (1, true)]]));
        let w = ElemWeights::from_vecs(
            vec![weight_int(1), weight_int(1)],
            vec![weight_int(-1), weight_int(1)],
        );
        assert_eq!(compiled.wmc_in(&Exact, &w), weight_int(1));
    }

    #[test]
    fn one_compilation_serves_many_weight_vectors() {
        let clauses = cnf(&[
            &[(0, true), (1, true)],
            &[(1, false), (2, true)],
            &[(0, false), (2, false), (3, true)],
        ]);
        let compiled = compile_cnf(4, &clauses);
        // Sweep z = 0..8 as the equality-removal interpolation does; the
        // circuit is shared across every evaluation.
        for z in 0..8i64 {
            let w = ElemWeights::from_vecs(
                vec![weight_int(z), weight_int(1), weight_int(2), weight_int(-1)],
                vec![
                    weight_int(1),
                    weight_int(z - 3),
                    weight_int(1),
                    weight_int(2),
                ],
            );
            assert_eq!(
                compiled.wmc_in(&Exact, &w),
                brute_force(4, &clauses, &w),
                "z = {z}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_structured_instances() {
        let instances = vec![
            (
                4,
                cnf(&[
                    &[(0, true), (1, true)],
                    &[(1, false), (2, true)],
                    &[(2, false), (3, true)],
                    &[(0, false), (3, false)],
                ]),
            ),
            (
                5,
                cnf(&[
                    &[(0, true), (1, true), (2, true)],
                    &[(2, false), (3, false)],
                    &[(3, true), (4, true)],
                ]),
            ),
            // Tautologies and duplicate literals are normalized away.
            (2, cnf(&[&[(0, true), (0, false)], &[(1, true), (1, true)]])),
        ];
        for (num_vars, clauses) in instances {
            let compiled = compile_cnf(num_vars, &clauses);
            let w = ElemWeights::new();
            assert_eq!(
                compiled.wmc_in(&Exact, &w),
                brute_force(num_vars, &clauses, &w)
            );
        }
    }

    #[test]
    fn circuit_is_decomposable_and_deterministic() {
        let compiled = compile_cnf(
            5,
            &cnf(&[
                &[(0, true), (1, true)],
                &[(1, false), (2, true)],
                &[(3, true), (4, true)],
            ]),
        );
        let circuit = compiled.circuit();
        let supports = circuit.supports();
        for node in circuit.nodes() {
            match node {
                Node::And(children) => {
                    // Pairwise disjoint supports.
                    let mut seen: Vec<usize> = Vec::new();
                    for child in children.iter() {
                        for v in &supports[child.index()] {
                            assert!(!seen.contains(v), "And child supports overlap on x{v}");
                            seen.push(*v);
                        }
                    }
                }
                Node::Decision { var, hi, lo } => {
                    assert!(!supports[hi.index()].contains(var));
                    assert!(!supports[lo.index()].contains(var));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cache_shares_repeated_components_and_reports_stats() {
        // Two disjoint copies of the same sub-problem share one sub-circuit.
        let compiled = compile_cnf(4, &cnf(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]));
        let stats = compiled.stats();
        assert!(stats.nodes >= 4);
        assert!(stats.decisions >= 1);
        assert_eq!(stats.nodes, compiled.circuit().len());
        assert_eq!(stats.edges, compiled.circuit().edge_count());
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn out_of_universe_variable_panics() {
        compile_cnf(1, &cnf(&[&[(3, true)]]));
    }

    use proptest::prelude::*;

    fn arb_clauses(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<CLit>>> {
        let clause = proptest::collection::vec((0..max_vars, any::<bool>()), 0..4);
        proptest::collection::vec(clause, 0..max_clauses).prop_map(|raw| {
            raw.into_iter()
                .map(|c| {
                    c.into_iter()
                        .map(|(var, positive)| CLit { var, positive })
                        .collect()
                })
                .collect()
        })
    }

    /// Deterministic pseudo-random weights including negative rationals.
    fn seeded_weights(num_vars: usize, seed: u64) -> ElemWeights<Exact> {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut s = seed as i64 + 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            wfomc_logic::weights::weight_ratio((s % 7) - 2, 1 + (s % 3).unsigned_abs() as i64)
        };
        for _ in 0..num_vars {
            pos.push(next());
            neg.push(next());
        }
        ElemWeights::from_vecs(pos, neg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_cnfs_match_brute_force_under_random_weights(
            clauses in arb_clauses(6, 8),
            seed in 0u64..1000,
        ) {
            let num_vars = 6;
            let compiled = compile_cnf(num_vars, &clauses);
            let w = seeded_weights(num_vars, seed);
            prop_assert_eq!(compiled.wmc_in(&Exact, &w), brute_force(num_vars, &clauses, &w));
        }

        #[test]
        fn compiled_circuits_are_smooth(clauses in arb_clauses(5, 7)) {
            let compiled = compile_cnf(5, &clauses);
            let circuit = compiled.circuit();
            let supports = circuit.supports();
            let reachable = circuit.reachable(compiled.root());
            for (index, node) in circuit.nodes().iter().enumerate() {
                if !reachable[index] {
                    continue;
                }
                if let Node::Decision { hi, lo, .. } = node {
                    if *hi != circuit.ff() && *lo != circuit.ff() {
                        prop_assert_eq!(&supports[hi.index()], &supports[lo.index()]);
                    }
                }
            }
            if compiled.root() != circuit.ff() {
                let universe: Vec<usize> = (0..compiled.num_vars()).collect();
                prop_assert_eq!(&supports[compiled.root().index()], &universe);
            }
        }
    }
}
