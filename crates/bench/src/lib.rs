//! Shared workload definitions for the benchmarks and the `repro` harness.
//!
//! Every experiment id (E1–E10, see `DESIGN.md` and `EXPERIMENTS.md`) has a
//! corresponding workload constructor here so the Criterion benches and the
//! textual reproduction harness measure exactly the same inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wfomc::prelude::*;

/// Weights used throughout the weighted benchmarks (non-trivial but small, so
/// the exact arithmetic does not dominate the measurements).
pub fn standard_weights() -> Weights {
    Weights::from_ints([
        ("R", 2, 1),
        ("S", 1, 3),
        ("T", 2, 2),
        ("Spouse", 1, 1),
        ("Female", 2, 1),
        ("Male", 1, 2),
        ("Smokes", 3, 1),
        ("Friends", 1, 2),
    ])
}

/// E1 (Table 1): the running-example sentence.
pub fn table1_workload() -> Formula {
    catalog::table1_sentence()
}

/// E2 (Figure 1): the conjunctive-query landscape, labeled.
pub fn figure1_workload() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        ("chain3", catalog::chain_query(3)),
        ("star3", catalog::star_query(3)),
        ("table1-dual", catalog::table1_dual_cq()),
        ("c-gamma", catalog::c_gamma()),
        ("c-jtdb", catalog::c_jtdb()),
        ("cycle3", catalog::typed_cycle_cq(3)),
    ]
}

/// E3 (Figure 2): a small #SAT instance and its FO² encoding.
pub fn figure2_boolean_formula() -> (PropFormula, usize) {
    (
        PropFormula::and_all([
            PropFormula::or(PropFormula::var(0), PropFormula::var(1)),
            PropFormula::or(PropFormula::not(PropFormula::var(0)), PropFormula::var(1)),
        ]),
        2,
    )
}

/// E4 (Table 2): the open problems.
pub fn table2_workload() -> Vec<(&'static str, Formula)> {
    catalog::table2_open_problems()
}

/// E6b (`fo2_scaling`): an FO² sentence with 12 valid cells (3 unary bits
/// from `A`, `B` and the Skolem predicate, 1 reflexive bit from `R`) whose
/// hard partition constraints `A(x) ↔ A(y)` and `B(x) ↔ B(y)` zero out every
/// cross-cell pair entry between different (A, B)-classes. The prefix-sharing
/// cell-sum engine prunes those subtrees instead of summing zero terms, which
/// is what makes n = 100 with this many cells finish in seconds.
pub fn fo2_scaling_workload() -> Formula {
    and(vec![
        forall(["x"], exists(["y"], atom("R", &["x", "y"]))),
        forall(["x", "y"], iff(atom("A", &["x"]), atom("A", &["y"]))),
        forall(["x", "y"], iff(atom("B", &["x"]), atom("B", &["y"]))),
    ])
}

/// Repeated-query workloads for the plan-reuse experiment: per solver
/// method, one sentence plus `k` query points (`(n, weights)` pairs) of the
/// shapes real workloads produce — domain-size sweeps (growing networks,
/// interpolation) and weight sweeps (MLN queries, learning loops). The
/// `plan_reuse` Criterion bench and the repro harness's `plan-reuse`
/// experiment measure exactly these inputs.
#[allow(clippy::type_complexity)]
pub fn plan_reuse_workloads(k: usize) -> Vec<(&'static str, Formula, Vec<(usize, Weights)>)> {
    let weights = standard_weights();
    // Four binary predicates make the analysis the dominant cost: the pair
    // tables check 4⁴ cross assignments per cell pair (each a matrix
    // evaluation), while evaluation at small n is a handful of compositions —
    // the shape where re-analyzing per call hurts most.
    let quad_binary = and(vec![
        forall(["x"], atom("R", &["x", "x"])),
        forall(
            ["x", "y"],
            or(vec![
                atom("R", &["x", "y"]),
                atom("S", &["x", "y"]),
                atom("T", &["x", "y"]),
                atom("U", &["x", "y"]),
            ]),
        ),
    ]);
    vec![
        // FO²: one sentence asked at k (small, cycling) domain sizes.
        (
            "fo2/quad-binary-n-sweep",
            quad_binary.clone(),
            (0..k).map(|i| (1 + i % 6, weights.clone())).collect(),
        ),
        // FO²: a weight sweep at fixed n (the interpolation / MLN pattern).
        (
            "fo2/quad-binary-weight-sweep",
            quad_binary,
            (0..k)
                .map(|i| {
                    (
                        3,
                        Weights::from_ints([("R", i as i64 + 1, 1), ("S", 1, 3), ("T", 2, 2)]),
                    )
                })
                .collect(),
        ),
        // FO²: the running example's weight sweep, cheap analysis and all.
        (
            "fo2/table1-weight-sweep",
            catalog::table1_sentence(),
            (0..k)
                .map(|i| {
                    (
                        4,
                        Weights::from_ints([("R", i as i64 + 1, 1), ("S", 1, 3), ("T", 2, 2)]),
                    )
                })
                .collect(),
        ),
        // QS4: weight sweep on the dynamic program.
        (
            "qs4/weight-sweep",
            catalog::qs4(),
            (0..k)
                .map(|i| (10, Weights::from_ints([("S", i as i64 + 1, 2)])))
                .collect(),
        ),
        // γ-acyclic CQ: domain-size sweep sharing one reduction memo.
        (
            "cq/chain3-n-sweep",
            catalog::chain_query(3).to_formula(),
            (0..k).map(|i| (4 + i, weights.clone())).collect(),
        ),
        // Ground: weight sweep on one compiled circuit.
        (
            "ground/transitivity-weight-sweep",
            catalog::transitivity(),
            (0..k)
                .map(|i| (3, Weights::from_ints([("E", i as i64 + 1, 1)])))
                .collect(),
        ),
    ]
}

/// Wall-clock time of one closure call in milliseconds — the measurement
/// primitive of the repro harness's timed experiments.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Bignum microbenchmark: balanced big×big multiplication — square a 2-limb
/// seed repeatedly, so the final squarings run far above the Karatsuba
/// threshold. Shared by the `bignum` Criterion bench and the repro harness's
/// `bignum` experiment.
pub fn bignum_square_chain(doublings: u32) -> num_bigint::BigUint {
    let mut x = num_bigint::BigUint::from(0xfeed_face_cafe_f00du64)
        * num_bigint::BigUint::from(u64::MAX - 11);
    for _ in 0..doublings {
        x = &x * &x;
    }
    x
}

/// Bignum microbenchmark: big×small multiplication with many word-sized
/// intermediates (`n!` — the inline small-value fast path).
pub fn bignum_factorial_chain(n: u64) -> num_bigint::BigUint {
    let mut acc = num_traits::One::one();
    for i in 1..=n {
        acc = acc * num_bigint::BigUint::from(i);
    }
    acc
}

/// Bignum microbenchmark: rational normalization and gcd (`Σ 1/k`).
pub fn bignum_harmonic(n: i64) -> num_rational::BigRational {
    let mut acc = num_rational::BigRational::from_integer(num_bigint::BigInt::from(0));
    for k in 1..=n {
        acc += num_rational::BigRational::new(
            num_bigint::BigInt::from(1),
            num_bigint::BigInt::from(k),
        );
    }
    acc
}

/// E8: the smokers-and-friends MLN.
pub fn smokers_mln() -> MarkovLogicNetwork {
    let mut mln = MarkovLogicNetwork::new();
    mln.add_soft(
        weight_int(2),
        implies(
            and(vec![atom("Smokes", &["x"]), atom("Friends", &["x", "y"])]),
            atom("Smokes", &["y"]),
        ),
    );
    mln.add_soft(weight_int(3), atom("Smokes", &["x"]));
    mln
}

/// Convert an exact rational into an f64 for display purposes only.
pub fn approx(w: &Weight) -> f64 {
    let numer: f64 = w.numer().to_string().parse().unwrap_or(f64::NAN);
    let denom: f64 = w.denom().to_string().parse().unwrap_or(f64::NAN);
    numer / denom
}

/// Truncate huge exact integers for table printing.
pub fn short(w: &Weight) -> String {
    let s = w.to_string();
    if s.len() <= 24 {
        s
    } else {
        format!("{}…({} digits)", &s[..10], s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_well_formed() {
        assert!(table1_workload().is_sentence());
        assert_eq!(figure1_workload().len(), 6);
        assert_eq!(table2_workload().len(), 6);
        let (f, n) = figure2_boolean_formula();
        assert!(f.num_vars() <= n);
        assert_eq!(smokers_mln().len(), 2);
        assert_eq!(approx(&weight_ratio(1, 2)), 0.5);
        assert!(short(&weight_int(7)).contains('7'));
    }

    /// Repeated counts on one plan hit its prepared caches: 16 points with
    /// one distinct weight function (FO² binding) or one domain size
    /// (grounding) miss once, a hit rate of 15/16.
    #[test]
    fn plan_reuse_sweeps_hit_their_caches() {
        let workloads = plan_reuse_workloads(16);
        for workload in [
            "fo2/quad-binary-n-sweep",
            "ground/transitivity-weight-sweep",
        ] {
            let (_, sentence, points) = workloads
                .iter()
                .find(|(name, ..)| *name == workload)
                .expect("a known plan-reuse workload");
            let plan = Problem::new(sentence.clone()).plan().unwrap();
            for (n, w) in points {
                let _ = plan.count(*n, w).unwrap();
            }
            let stats = plan.cache_stats();
            let rate = match plan.method() {
                Method::Fo2 => stats.fo2_bind_hit_rate(),
                _ => stats.ground_hit_rate(),
            }
            .expect("the sweep used the cache");
            assert!(rate >= 0.9, "{workload}: hit rate {rate}");
        }
    }

    #[test]
    fn plan_reuse_workloads_plan_to_their_advertised_methods() {
        for (name, sentence, points) in plan_reuse_workloads(3) {
            assert_eq!(points.len(), 3, "{name}");
            let plan = Problem::new(sentence).plan().unwrap();
            let method = name.split('/').next().unwrap();
            let expected = match method {
                "fo2" => Method::Fo2,
                "qs4" => Method::Qs4,
                "cq" => Method::GammaAcyclicCq,
                "ground" => Method::Ground,
                other => panic!("unknown workload family {other}"),
            };
            assert_eq!(plan.method(), expected, "{name}");
        }
    }
}
