//! Quickstart: plan a sentence once, count it many times, and turn weights
//! into probabilities.
//!
//! Run with `cargo run --release --example quickstart`.

use wfomc::prelude::*;

fn main() {
    // -----------------------------------------------------------------------
    // 1. Plan-then-execute on the introduction's example Φ = ∀x ∃y R(x, y):
    //    the sentence analysis (method selection, Skolemization, cell
    //    decomposition) runs once; each domain size is then a cheap count.
    // -----------------------------------------------------------------------
    let phi = parse("forall x. exists y. R(x,y)").expect("valid syntax");
    let solver = Solver::new();
    let problem = Problem::new(phi.clone());
    let plan = solver.plan(&problem).expect("closed sentence");

    println!("Φ = {phi}");
    println!("{}\n", plan.explain());
    println!(
        "{:>4} {:>28} {:>28} {:>12}",
        "n", "lifted FOMC", "closed form (2^n-1)^n", "method"
    );
    for n in 0..=8 {
        let report = plan
            .count(n, &Weights::ones())
            .expect("plan always answers");
        let closed = closed_form::fomc_forall_exists_edge(n);
        assert_eq!(
            report.value, closed,
            "the implementation must match the paper"
        );
        println!(
            "{n:>4} {:>28} {:>28} {:>12}",
            report.value, closed, report.method
        );
    }

    // -----------------------------------------------------------------------
    // 2. Weighted counting and probabilities: every tuple of R is present
    //    independently with probability 1/3 (weight 1/2 per §1).
    // -----------------------------------------------------------------------
    let mut weights = Weights::ones();
    weights.set_probability("R", weight_ratio(1, 3));
    let voc = phi.vocabulary();
    println!("\nPr(Φ) when each R-tuple holds with probability 1/3:");
    for n in 1..=6 {
        let report = solver
            .probability(&phi, &voc, n, &weights)
            .expect("solver always answers");
        println!("  n = {n}: Pr = {}", report.value);
    }

    // -----------------------------------------------------------------------
    // 3. Cross-check a lifted answer against brute force on a small domain.
    // -----------------------------------------------------------------------
    let brute = brute_force_fomc(&phi, 3);
    let lifted = solver.fomc(&phi, 3).unwrap().value;
    println!(
        "\nbrute force at n = 3: {brute}, lifted: {lifted} (equal: {})",
        brute == lifted
    );

    // -----------------------------------------------------------------------
    // 4. A sentence outside every lifted fragment falls back to grounding —
    //    exactly what the paper's hardness results predict. The report's
    //    Display carries the value, method and backend.
    // -----------------------------------------------------------------------
    let transitivity = catalog::transitivity();
    let report = solver.fomc(&transitivity, 3).unwrap();
    println!("\n{transitivity}\n  n = 3: {report} (Table 2: open problem)");

    // -----------------------------------------------------------------------
    // 5. Batch evaluation: one plan, many (n, weights) points at once.
    // -----------------------------------------------------------------------
    let points: Vec<(usize, Weights)> = (1..=6).map(|n| (n, Weights::ones())).collect();
    let reports = plan.count_batch_results(&points);
    println!("\nbatched counts of Φ at n = 1..6:");
    for ((n, _), report) in points.iter().zip(&reports) {
        println!(
            "  n = {n}: {}",
            report.as_ref().expect("plan always answers")
        );
    }
}
