//! The combined-complexity reduction of Figure 2 / Theorem 4.1(1): counting
//! satisfying assignments of a Boolean formula by counting first-order models
//! of an FO² sentence — `FOMC(ϕ_F, n+1) = (n+1)! · #F`.
//!
//! Run with `cargo run --release --example sharp_sat_reduction`.

use num_traits::ToPrimitive;
use wfomc::prelude::*;
use wfomc::prop::counter::wmc_formula_via_in;
use wfomc::prop::VarWeights;

fn main() {
    // F = (X₁ ∨ X₂) ∧ (¬X₂ ∨ X₃)  over three Boolean variables.
    let f = PropFormula::and_all([
        PropFormula::or(PropFormula::var(0), PropFormula::var(1)),
        PropFormula::or(PropFormula::not(PropFormula::var(1)), PropFormula::var(2)),
    ]);
    let num_vars = 3;
    let ones = VarWeights::ones(num_vars);
    let models = wmc_formula_via_in(&f, &Exact, &ones, WmcBackend::Enumerate, &Guard::unarmed())
        .expect("an unarmed guard cannot interrupt");
    println!("Boolean formula F = {f}");
    println!("#F (by enumeration) = {models}\n");

    // Build ϕ_F.
    let reduction = sharp_sat_to_fomc(&f, num_vars);
    println!(
        "ϕ_F is an FO² sentence over {{A,B,C,R,S}} with {} AST nodes, {} distinct variables",
        reduction.sentence.size(),
        reduction.sentence.distinct_variable_count()
    );
    println!("target domain size: n + 1 = {}\n", reduction.domain_size);

    // Count its models by grounding (this is the #P-hard direction: the
    // formula is part of the input, so no lifted algorithm applies in general).
    println!(
        "Counting FOMC(ϕ_F, {}) by grounding + weighted model counting…",
        reduction.domain_size
    );
    let count = GroundSolver::new().fomc(&reduction.sentence, reduction.domain_size);
    let factorial: i64 = (1..=(reduction.domain_size as i64)).product();
    println!("FOMC(ϕ_F, {}) = {}", reduction.domain_size, count);
    println!("(n+1)!        = {}", factorial);
    let recovered = count / weight_int(factorial);
    println!("recovered #F  = {}", recovered);
    assert_eq!(
        recovered.to_integer().to_i64(),
        models.to_integer().to_i64(),
        "the reduction must recover the model count exactly"
    );

    // Show how the sentence size grows with the number of Boolean variables —
    // the reason this is a *combined* complexity result: the sentence is part
    // of the input.
    println!("\nSentence size of ϕ_F as the number of Boolean variables grows:");
    println!("{:>6} {:>14}", "#vars", "AST nodes");
    for n in 2..=8 {
        let padded = sharp_sat_to_fomc(&PropFormula::var(0), n);
        println!("{n:>6} {:>14}", padded.sentence.size());
    }
}
