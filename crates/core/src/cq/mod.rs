//! Lifted algorithms for conjunctive queries: the γ-acyclic algorithm of
//! Theorem 3.6 and the explicit linear-chain recurrence of Example 3.10.

pub mod chain;
pub mod gamma_acyclic;

pub use chain::chain_probability;
pub use gamma_acyclic::{
    gamma_acyclic_probability_in, gamma_acyclic_wfomc, gamma_acyclic_wfomc_in,
};

use wfomc_hypergraph::Hypergraph;
use wfomc_logic::cq::ConjunctiveQuery;

/// Builds the query hypergraph (variables are nodes, atoms are hyperedges) of
/// §3.2.
pub fn query_hypergraph(query: &ConjunctiveQuery) -> Hypergraph {
    let mut hg = Hypergraph::new();
    let vars = query.variables();
    for v in &vars {
        hg.add_node(v.name());
    }
    for atom in &query.atoms {
        let nodes: Vec<usize> = atom
            .variables()
            .iter()
            .map(|v| vars.iter().position(|u| u == v).expect("variable indexed"))
            .collect();
        hg.add_edge(atom.predicate.name(), nodes);
    }
    hg
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_hypergraph::AcyclicityClass;
    use wfomc_logic::catalog;

    #[test]
    fn figure1_queries_classify_as_in_the_paper() {
        // Chains and stars are γ-acyclic.
        assert_eq!(
            query_hypergraph(&catalog::chain_query(3)).classify(),
            AcyclicityClass::Gamma
        );
        assert_eq!(
            query_hypergraph(&catalog::star_query(3)).classify(),
            AcyclicityClass::Gamma
        );
        // c_γ is γ-cyclic but β-acyclic (the paper's point: the PTIME frontier
        // is not exactly γ-acyclicity).
        assert_eq!(
            query_hypergraph(&catalog::c_gamma()).classify(),
            AcyclicityClass::Beta
        );
        // Typed cycles are fully cyclic.
        assert_eq!(
            query_hypergraph(&catalog::typed_cycle_cq(3)).classify(),
            AcyclicityClass::Cyclic
        );
        // c_jtdb is β-acyclic.
        let class = query_hypergraph(&catalog::c_jtdb()).classify();
        assert!(class >= AcyclicityClass::Beta);
    }
}
