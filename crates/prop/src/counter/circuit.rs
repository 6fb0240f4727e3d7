//! The d-DNNF knowledge-compilation backend, bridging `wfomc-circuit`.
//!
//! [`CompiledWmc`] compiles a CNF **once** and evaluates it under
//! arbitrarily many weight vectors, in any algebra, each evaluation linear
//! in circuit size. Every grounded count of a `wfomc-core` plan builds on
//! this type; the one-shot [`WmcBackend::Circuit`](super::WmcBackend::Circuit)
//! dispatch of [`wmc_in`](super::wmc_in) is one compilation followed by one
//! evaluation.

use wfomc_circuit::{CLit, CompileStats, CompiledCnf};
use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};

use crate::cnf::{Cnf, Lit};

fn to_clit(lit: Lit) -> CLit {
    CLit {
        var: lit.var,
        positive: lit.positive,
    }
}

/// A CNF compiled once into a smoothed d-DNNF circuit.
#[derive(Clone, Debug)]
pub struct CompiledWmc {
    inner: CompiledCnf,
}

impl CompiledWmc {
    /// Compiles the CNF's DPLL search into a circuit under a resource
    /// [`Guard`]. This is the expensive step: it performs the same search
    /// as the DPLL backend once. Deadlines, work caps and cancellation
    /// interrupt the compilation search, and the partial circuit is
    /// discarded; ungoverned callers pass [`Guard::unarmed`].
    pub fn compile_guarded(cnf: &Cnf, guard: &Guard) -> Result<CompiledWmc, Interrupt> {
        let clauses: Vec<Vec<CLit>> = cnf
            .clauses
            .iter()
            .map(|c| c.iter().copied().map(to_clit).collect())
            .collect();
        Ok(CompiledWmc {
            inner: wfomc_circuit::compile_guarded(cnf.num_vars, &clauses, guard)?,
        })
    }

    /// Weighted model count over the universe
    /// `0..max(num_vars, weights.table_len())`, in any [`Algebra`], under
    /// the same weight-table contract as the other backends: variables
    /// beyond the table count unweighted, and table entries beyond the CNF
    /// universe contribute `w + w̄` each. One compilation serves weight
    /// vectors in any ring.
    pub fn wmc_in<A: Algebra, W: VarPairs<A> + ?Sized>(&self, algebra: &A, weights: &W) -> A::Elem {
        let mut result = self.inner.wmc_in(algebra, weights);
        // The circuit is smoothed over the CNF's own universe; longer weight
        // tables extend the universe with unconstrained variables.
        for v in self.inner.num_vars()..weights.table_len() {
            algebra.mul_assign(&mut result, &weights.var_total(algebra, v));
        }
        result
    }

    /// The variable universe the circuit was compiled over.
    pub fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    /// Circuit size and compilation counters.
    pub fn stats(&self) -> &CompileStats {
        self.inner.stats()
    }

    /// The underlying compiled circuit.
    pub fn inner(&self) -> &CompiledCnf {
        &self.inner
    }

    /// Wraps an already-validated compiled circuit — the snapshot decoder's
    /// entry point, pairing with [`inner`](Self::inner) on the encode side.
    pub fn from_inner(inner: CompiledCnf) -> CompiledWmc {
        CompiledWmc { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::assert_weight_table_contract;
    use crate::formula::PropFormula;
    use crate::weights::VarWeights;
    use wfomc_logic::algebra::Exact;
    use wfomc_logic::weights::weight_int;

    #[test]
    fn compiled_circuit_honours_longer_weight_tables() {
        // x0 with a 3-variable weight table: the two unconstrained extra
        // variables multiply their totals in.
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)]]);
        let compiled = CompiledWmc::compile_guarded(&cnf, &Guard::unarmed()).unwrap();
        let w = VarWeights::from_vecs(
            vec![weight_int(5), weight_int(1), weight_int(2)],
            vec![weight_int(1), weight_int(1), weight_int(3)],
        );
        // 5 · (1+1) · (2+3) = 50.
        assert_eq!(compiled.wmc_in(&Exact, &w), weight_int(50));
        assert_eq!(compiled.num_vars(), 1);
        assert!(compiled.stats().nodes >= 2);
        assert_weight_table_contract(&cnf, &PropFormula::var(0), &w, &weight_int(50));
    }

    #[test]
    fn compiled_circuit_honours_shorter_weight_tables() {
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        let compiled = CompiledWmc::compile_guarded(&cnf, &Guard::unarmed()).unwrap();
        assert_eq!(
            compiled.wmc_in(&Exact, &VarWeights::from_vecs(vec![], vec![])),
            weight_int(3)
        );
        // Both of the formula's variables lie past the (empty) table.
        let f = PropFormula::or(PropFormula::var(0), PropFormula::var(1));
        let empty = VarWeights::from_vecs(vec![], vec![]);
        assert_weight_table_contract(&cnf, &f, &empty, &weight_int(3));
        // A one-entry table: x1 lies past it. (2·2 + 3·1) = 7.
        let w = VarWeights::from_vecs(vec![weight_int(2)], vec![weight_int(3)]);
        assert_weight_table_contract(&cnf, &f, &w, &weight_int(7));
    }
}
