//! Smoothing: make every decision node's branches mention the same
//! variables, and the root mention the whole universe.
//!
//! A d-DNNF circuit is *smooth* when for every decision node
//! `(v ∧ hi) ∨ (¬v ∧ lo)` the two branches have equal variable support, and
//! the root's support is the full universe. On a smooth circuit, weighted
//! model counting is the plain bottom-up recurrence — literal ↦ weight,
//! And ↦ product, decision ↦ `w(v)·hi + w̄(v)·lo` — with no per-edge
//! "gap factor" bookkeeping for variables that a branch fails to mention.
//!
//! The pass rewrites bottom-up: wherever a branch is missing variables
//! relative to its sibling (or the root relative to the universe), the
//! missing variables are conjoined in as "free variable" gadgets
//! `(v ∧ ⊤) ∨ (¬v ∧ ⊤)`, each of which evaluates to `w(v) + w̄(v)`. Thanks to
//! structural hashing the gadgets are shared across the whole circuit.

use crate::ir::{Circuit, Node, NodeId, Var};

/// Smooths the circuit under `root` over the universe `0..num_vars`,
/// returning the new root. Nodes are appended to the same arena; existing
/// nodes are never mutated, so other roots into the arena stay valid.
///
/// # Panics
/// Panics if the sub-circuit under `root` mentions a variable `>= num_vars`.
pub fn smooth(circuit: &mut Circuit, root: NodeId, num_vars: usize) -> NodeId {
    let supports = circuit.supports();
    if let Some(&v) = supports[root.index()].last() {
        assert!(
            v < num_vars,
            "circuit mentions x{v} outside the universe of {num_vars} variables"
        );
    }
    let reachable = circuit.reachable(root);

    // Rewrite in arena order (children first). `rewritten[id]` is the
    // smoothed replacement of node `id`.
    let mut rewritten: Vec<NodeId> = (0..circuit.len() as u32).map(NodeId).collect();
    for index in 0..circuit.len() {
        if !reachable[index] {
            continue;
        }
        let id = NodeId(index as u32);
        match circuit.node(id).clone() {
            Node::False | Node::True | Node::Lit(_) => {}
            Node::And(children) => {
                let new_children: Vec<NodeId> =
                    children.iter().map(|c| rewritten[c.index()]).collect();
                rewritten[index] = circuit.mk_and(new_children);
            }
            Node::Decision { var, hi, lo } => {
                // Each branch is padded up to the union of both supports.
                let hi_support = &supports[hi.index()];
                let lo_support = &supports[lo.index()];
                let new_hi = pad(circuit, rewritten[hi.index()], lo_support, hi_support, var);
                let new_lo = pad(circuit, rewritten[lo.index()], hi_support, lo_support, var);
                rewritten[index] = circuit.mk_decision(var, new_hi, new_lo);
            }
        }
    }

    // Pad the root up to the full universe.
    let root_support = supports[root.index()].clone();
    let new_root = rewritten[root.index()];
    let missing: Vec<Var> = (0..num_vars)
        .filter(|v| root_support.binary_search(v).is_err())
        .collect();
    pad_with(circuit, new_root, &missing)
}

/// Conjoins `node` with free-variable gadgets for every variable in `want`
/// that is absent from `have` (excluding the decision variable itself).
fn pad(
    circuit: &mut Circuit,
    node: NodeId,
    want: &[Var],
    have: &[Var],
    decision_var: Var,
) -> NodeId {
    // `node` may be a rewrite of the node `have` describes, but smoothing
    // only ever *adds* variables, so `have` remains a lower bound — exactly
    // what is needed to find the gap.
    let missing: Vec<Var> = want
        .iter()
        .copied()
        .filter(|v| *v != decision_var && have.binary_search(v).is_err())
        .collect();
    pad_with(circuit, node, &missing)
}

fn pad_with(circuit: &mut Circuit, node: NodeId, missing: &[Var]) -> NodeId {
    if missing.is_empty() {
        return node;
    }
    if node == circuit.ff() {
        // False absorbs: 0 times anything is 0, and keeping the branch dead
        // avoids growing the circuit.
        return node;
    }
    let mut parts = vec![node];
    for &v in missing {
        let gadget = circuit.mk_free(v);
        parts.push(gadget);
    }
    circuit.mk_and(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_in;
    use crate::ir::CLit;
    use wfomc_logic::algebra::{ElemWeights, Exact};
    use wfomc_logic::weights::weight_int;

    /// After smoothing, every reachable decision's branches must have equal
    /// support and the root must cover the universe (False branches excepted:
    /// they absorb multiplicatively, so padding them is unnecessary).
    fn assert_smooth(circuit: &Circuit, root: NodeId, num_vars: usize) {
        let supports = circuit.supports();
        let reachable = circuit.reachable(root);
        for (index, node) in circuit.nodes().iter().enumerate() {
            if !reachable[index] {
                continue;
            }
            if let Node::Decision { hi, lo, .. } = node {
                if *hi != circuit.ff() && *lo != circuit.ff() {
                    assert_eq!(
                        supports[hi.index()],
                        supports[lo.index()],
                        "unsmoothed decision at node {index}"
                    );
                }
            }
        }
        if root != circuit.ff() {
            let expected: Vec<usize> = (0..num_vars).collect();
            assert_eq!(
                supports[root.index()],
                expected,
                "root does not cover universe"
            );
        }
    }

    #[test]
    fn pads_asymmetric_decision_branches() {
        let mut c = Circuit::new();
        // (v ∧ ⊤) ∨ (¬v ∧ u): the hi branch is missing u.
        let u = c.mk_lit(CLit::pos(1));
        let tt = c.tt();
        let d = c.mk_decision(0, tt, u);
        let smoothed = smooth(&mut c, d, 2);
        assert_smooth(&c, smoothed, 2);
        // 3 models of (v ∨ u) over 2 vars.
        assert_eq!(
            evaluate_in(&c, smoothed, &Exact, &ElemWeights::new()),
            weight_int(3)
        );
    }

    #[test]
    fn pads_root_to_universe() {
        let mut c = Circuit::new();
        let x = c.mk_lit(CLit::pos(0));
        let smoothed = smooth(&mut c, x, 4);
        assert_smooth(&c, smoothed, 4);
        // x0 over 4 variables: 8 models.
        assert_eq!(
            evaluate_in(&c, smoothed, &Exact, &ElemWeights::new()),
            weight_int(8)
        );
    }

    #[test]
    fn true_root_becomes_product_of_totals() {
        let mut c = Circuit::new();
        let tt = c.tt();
        let smoothed = smooth(&mut c, tt, 3);
        let w = ElemWeights::from_vecs(
            vec![weight_int(2), weight_int(1), weight_int(1)],
            vec![weight_int(3), weight_int(1), weight_int(-1)],
        );
        // (2+3)·(1+1)·(1−1) = 0.
        assert_eq!(evaluate_in(&c, smoothed, &Exact, &w), weight_int(0));
    }

    #[test]
    fn false_root_stays_false() {
        let mut c = Circuit::new();
        let ff = c.ff();
        let smoothed = smooth(&mut c, ff, 3);
        assert_eq!(smoothed, ff);
        assert_eq!(
            evaluate_in(&c, smoothed, &Exact, &ElemWeights::new()),
            weight_int(0)
        );
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn universe_too_small_panics() {
        let mut c = Circuit::new();
        let x = c.mk_lit(CLit::pos(5));
        smooth(&mut c, x, 2);
    }
}
