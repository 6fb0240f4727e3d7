//! Linear-time weighted evaluation of smoothed d-DNNF circuits.
//!
//! Evaluation is a single bottom-up pass in arena order (children always
//! precede parents): literal ↦ its weight, And ↦ product of children,
//! decision ↦ `w(v)·hi + w̄(v)·lo`. On a smoothed circuit this computes the
//! weighted model count over the circuit's full universe — the
//! compile-once / evaluate-many payoff: the pass costs `O(|circuit|)`
//! arithmetic operations per weight vector, with no search.
//!
//! The pass only adds and multiplies, so [`evaluate_in`] runs it in any
//! [`Algebra`]: exact rationals, log-space floats, lanes or polynomials.

use wfomc_logic::algebra::{Algebra, VarPairs};

use crate::ir::{Circuit, Node, NodeId};

/// Evaluates the smoothed circuit under `root` against a weight table, in
/// any [`Algebra`].
///
/// The result is the weighted model count over the universe the circuit was
/// smoothed for. Runs in one pass over the whole arena — [`compile_guarded`]
/// prunes the arena to the live circuit, so for compiled CNFs every node
/// evaluated is reachable. (On a hand-built arena with garbage nodes the
/// pass wastes a little work on them; use [`Circuit::pruned`] first if that
/// matters.) Zero short-circuiting stays sound in any ring because
/// `0 · x = 0`.
///
/// [`compile_guarded`]: crate::compile::compile_guarded
pub fn evaluate_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    circuit: &Circuit,
    root: NodeId,
    algebra: &A,
    weights: &W,
) -> A::Elem {
    let mut values: Vec<A::Elem> = vec![algebra.zero(); circuit.len()];
    for (index, node) in circuit.nodes().iter().enumerate() {
        values[index] = match node {
            Node::False => algebra.zero(),
            Node::True => algebra.one(),
            Node::Lit(lit) => weights.var_weight(algebra, lit.var, lit.positive),
            Node::And(children) => {
                let mut product = algebra.one();
                for child in children.iter() {
                    if algebra.is_zero(&values[child.index()]) {
                        product = algebra.zero();
                        break;
                    }
                    algebra.mul_assign(&mut product, &values[child.index()]);
                }
                product
            }
            Node::Decision { var, hi, lo } => {
                let hi_value = &values[hi.index()];
                let lo_value = &values[lo.index()];
                let mut acc = algebra.zero();
                if !algebra.is_zero(hi_value) {
                    let w = weights.var_weight(algebra, *var, true);
                    algebra.add_assign(&mut acc, &algebra.mul(&w, hi_value));
                }
                if !algebra.is_zero(lo_value) {
                    let w = weights.var_weight(algebra, *var, false);
                    algebra.add_assign(&mut acc, &algebra.mul(&w, lo_value));
                }
                acc
            }
        };
    }
    values[root.index()].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CLit;
    use wfomc_logic::algebra::{ElemWeights, Exact};
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn constants_and_literals() {
        let mut c = Circuit::new();
        let x = c.mk_lit(CLit::pos(0));
        let nx = c.mk_lit(CLit::neg(0));
        let w = ElemWeights::from_vecs(vec![weight_int(2)], vec![weight_ratio(1, 2)]);
        assert_eq!(evaluate_in(&c, c.ff(), &Exact, &w), weight_int(0));
        assert_eq!(evaluate_in(&c, c.tt(), &Exact, &w), weight_int(1));
        assert_eq!(evaluate_in(&c, x, &Exact, &w), weight_int(2));
        assert_eq!(evaluate_in(&c, nx, &Exact, &w), weight_ratio(1, 2));
    }

    #[test]
    fn decision_is_weighted_shannon_expansion() {
        let mut c = Circuit::new();
        // (v ∧ x1) ∨ (¬v ∧ ¬x1) — equality of two variables.
        let x1 = c.mk_lit(CLit::pos(1));
        let nx1 = c.mk_lit(CLit::neg(1));
        let d = c.mk_decision(0, x1, nx1);
        let w = ElemWeights::from_vecs(
            vec![weight_int(2), weight_int(3)],
            vec![weight_int(5), weight_int(7)],
        );
        // 2·3 + 5·7 = 41.
        assert_eq!(evaluate_in(&c, d, &Exact, &w), weight_int(41));
    }

    #[test]
    fn and_multiplies_disjoint_children() {
        let mut c = Circuit::new();
        let x0 = c.mk_lit(CLit::pos(0));
        let x1 = c.mk_lit(CLit::neg(1));
        let a = c.mk_and([x0, x1]);
        let w = ElemWeights::from_vecs(
            vec![weight_int(3), weight_int(100)],
            vec![weight_int(1), weight_int(-4)],
        );
        assert_eq!(evaluate_in(&c, a, &Exact, &w), weight_int(-12));
    }

    #[test]
    fn zero_short_circuit_is_exact_with_negative_weights() {
        let mut c = Circuit::new();
        // free gadget on a variable whose total is zero.
        let g = c.mk_free(0);
        let x1 = c.mk_lit(CLit::pos(1));
        let a = c.mk_and([g, x1]);
        let w = ElemWeights::from_vecs(
            vec![weight_int(1), weight_int(9)],
            vec![weight_int(-1), weight_int(9)],
        );
        assert_eq!(evaluate_in(&c, a, &Exact, &w), weight_int(0));
    }
}
