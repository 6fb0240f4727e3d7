//! Scott-style normal form for FO² sentences.
//!
//! The output is a single quantifier-free matrix `Ψ(x, y)` over canonical
//! variables, to be read under an implicit `∀x∀y`, together with the extended
//! vocabulary and weights, such that for every domain size `n ≥ 1`:
//!
//! `WFOMC(Φ, n, w, w̄) = WFOMC(∀x∀y Ψ, n, w′, w̄′)`.
//!
//! Three kinds of fresh predicates are introduced:
//!
//! * `Def*` — definition predicates naming nested quantified subformulas
//!   (the Scott reduction of §4 / Appendix C), weights (1, 1);
//! * `Sk*` — Skolem predicates for `∀∃` / `∃` pieces (Lemma 3.3), weights
//!   (1, −1);
//! * nothing else — the original predicates keep their weights.
//!
//! The construction assumes `n ≥ 1` (vacuous quantifiers are dropped,
//! `∃v φ ≡ φ` for `v` not free in `φ`, and miniscoping pulls parts that do
//! not mention `v` out of `∀v (A ∧ B)` and `∃v (A ∨ B)`); the caller
//! special-cases `n = 0`.

use wfomc_logic::syntax::Formula;
use wfomc_logic::term::{Term, Variable};
use wfomc_logic::transform::{nnf, simplify, substitute, Quantifier};
use wfomc_logic::vocabulary::{Predicate, Vocabulary};
use wfomc_logic::weights::{weight_int, Weights};

use crate::error::LiftError;

/// Canonical name of the first matrix variable.
pub const VAR_X: &str = "__fo2_x";
/// Canonical name of the second matrix variable.
pub const VAR_Y: &str = "__fo2_y";

/// The FO² normal form of a sentence.
#[derive(Clone, Debug)]
pub struct Fo2Shape {
    /// Quantifier-free matrix over [`VAR_X`] / [`VAR_Y`], read under `∀x∀y`.
    pub matrix: Formula,
    /// Original vocabulary extended with the introduced predicates.
    pub vocabulary: Vocabulary,
    /// Weights extended for the introduced predicates.
    pub weights: Weights,
    /// The freshly introduced predicates (definition + Skolem).
    pub introduced: Vec<Predicate>,
}

struct Ctx {
    vocabulary: Vocabulary,
    weights: Weights,
    introduced: Vec<Predicate>,
    /// Quantifier-free conjuncts over the canonical variables.
    pieces: Vec<Formula>,
}

impl Ctx {
    fn fresh(&mut self, base: &str, arity: usize, pos: i64, neg: i64) -> Predicate {
        let p = self.vocabulary.add_fresh(base, arity);
        self.weights.set(p.name(), weight_int(pos), weight_int(neg));
        self.introduced.push(p.clone());
        p
    }
}

/// Computes the FO² normal form of a sentence.
///
/// Fails if the sentence has more than two distinct variables, a predicate of
/// arity greater than two, constant symbols, or free variables.
pub fn fo2_normal_form(
    sentence: &Formula,
    vocabulary: &Vocabulary,
    weights: &Weights,
) -> Result<Fo2Shape, LiftError> {
    if !sentence.is_sentence() {
        return Err(LiftError::NotASentence);
    }
    let distinct = sentence.distinct_variable_count();
    if distinct > 2 {
        return Err(LiftError::TooManyVariables {
            found: distinct,
            max: 2,
        });
    }
    for p in sentence.vocabulary().iter() {
        if p.arity() > 2 {
            return Err(LiftError::ArityTooLarge {
                predicate: p.name().to_string(),
                arity: p.arity(),
                max: 2,
            });
        }
    }
    if contains_constants(sentence) {
        return Err(LiftError::PatternMismatch {
            expected: "an FO² sentence without constant symbols".to_string(),
        });
    }

    let mut ctx = Ctx {
        vocabulary: vocabulary.extended_with(&sentence.vocabulary()),
        weights: weights.clone(),
        introduced: Vec::new(),
        pieces: Vec::new(),
    };

    let f = miniscope(&nnf(&simplify(sentence)));
    for conjunct in flatten_and(&f) {
        process_top(&conjunct, &mut ctx)?;
    }

    let matrix = Formula::and_all(ctx.pieces);
    Ok(Fo2Shape {
        matrix,
        vocabulary: ctx.vocabulary,
        weights: ctx.weights,
        introduced: ctx.introduced,
    })
}

fn contains_constants(f: &Formula) -> bool {
    let mut found = false;
    f.visit(&mut |node| match node {
        Formula::Atom(a) if a.args.iter().any(Term::is_const) => found = true,
        Formula::Equals(a, b) if a.is_const() || b.is_const() => found = true,
        _ => {}
    });
    found
}

fn flatten_and(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::And(parts) => parts.clone(),
        other => vec![other.clone()],
    }
}

/// Miniscoping, bottom-up, of a formula in negation normal form. A
/// quantifier whose variable is not free in its body is dropped (a
/// re-binding of the same variable shadows it). A quantifier over a
/// conjunction (or disjunction) that is not quantifier-free pulls the
/// parts that do not mention its variable out of its scope, so
/// `∀x (R(x,x) ∧ ∀x∀y φ)` becomes `∀x R(x,x) ∧ ∀x∀y φ` and needs no
/// definition predicate. Prenex pieces with a quantifier-free body are left
/// alone: pulling `R(x)` out of `∀x∀y (R(x) ∨ S(x,y))` would nest `∀y` under
/// `∀x` and cost a definition predicate. `∀v (A ∧ B) ≡ A ∧ ∀v B` and
/// `∃v (A ∨ B) ≡ A ∨ ∃v B` for `v` not free in `A`, and dropping a vacuous
/// quantifier, hold for n ≥ 1; the other two pulls hold always.
fn miniscope(f: &Formula) -> Formula {
    match f {
        Formula::Not(g) => Formula::not(miniscope(g)),
        Formula::And(gs) => Formula::and_all(gs.iter().map(miniscope)),
        Formula::Or(gs) => Formula::or_all(gs.iter().map(miniscope)),
        Formula::Forall(v, g) | Formula::Exists(v, g) => {
            let body = miniscope(g);
            if !body.free_variables().contains(v) {
                return body;
            }
            let quantify = |body: Formula| match f {
                Formula::Forall(..) => Formula::forall(v.clone(), body),
                _ => Formula::exists(v.clone(), body),
            };
            let (parts, join): (_, fn(Vec<Formula>) -> Formula) = match &body {
                Formula::And(parts) => (parts, Formula::and_all),
                Formula::Or(parts) => (parts, Formula::or_all),
                _ => return quantify(body),
            };
            if body.is_quantifier_free() {
                return quantify(body);
            }
            let mentions = |part: &Formula| part.free_variables().contains(v);
            let inside: Vec<Formula> = parts.iter().filter(|p| mentions(p)).cloned().collect();
            if inside.len() == parts.len() {
                return quantify(body);
            }
            // Rebuild in the original order, the quantified group standing at
            // its first member's position.
            let mut group = Some(quantify(join(inside)));
            let mut out = Vec::new();
            for part in parts {
                if mentions(part) {
                    out.extend(group.take());
                } else {
                    out.push(part.clone());
                }
            }
            join(out)
        }
        other => other.clone(),
    }
}

/// Handles one top-level conjunct of the sentence.
fn process_top(conjunct: &Formula, ctx: &mut Ctx) -> Result<(), LiftError> {
    if conjunct.is_quantifier_free() {
        // A sentence that is quantifier-free can only mention nullary atoms;
        // it joins the matrix directly (it has no variables to rename).
        ctx.pieces.push(conjunct.clone());
        return Ok(());
    }

    // Peel the maximal quantifier prefix.
    let mut prefix: Vec<(Quantifier, Variable)> = Vec::new();
    let mut body = conjunct.clone();
    loop {
        body = match body {
            Formula::Forall(v, inner) => {
                prefix.push((Quantifier::Forall, v));
                *inner
            }
            Formula::Exists(v, inner) => {
                prefix.push((Quantifier::Exists, v));
                *inner
            }
            other => {
                body = other;
                break;
            }
        };
    }

    let body_qf = extract_inner(&body, ctx)?;

    // Drop shadowed binders (same variable re-quantified deeper) and vacuous
    // binders (variable not free in the body) — sound for n ≥ 1.
    let free = body_qf.free_variables();
    let mut cleaned: Vec<(Quantifier, Variable)> = Vec::new();
    for (i, (q, v)) in prefix.iter().enumerate() {
        let shadowed = prefix[i + 1..].iter().any(|(_, v2)| v2 == v);
        if shadowed || !free.contains(v) {
            continue;
        }
        cleaned.push((*q, v.clone()));
    }

    handle_prefix_piece(&cleaned, body_qf, ctx)
}

/// Replaces every quantified subformula of `f` (bottom-up) by a fresh
/// definition atom, emitting the ⇔-axiom pieces. Returns the quantifier-free
/// residue.
fn extract_inner(f: &Formula, ctx: &mut Ctx) -> Result<Formula, LiftError> {
    match f {
        Formula::Top | Formula::Bottom | Formula::Atom(_) | Formula::Equals(..) => Ok(f.clone()),
        Formula::Not(g) => Ok(Formula::not(extract_inner(g, ctx)?)),
        Formula::And(gs) => Ok(Formula::and_all(
            gs.iter()
                .map(|g| extract_inner(g, ctx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Or(gs) => Ok(Formula::or_all(
            gs.iter()
                .map(|g| extract_inner(g, ctx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Implies(a, b) => Ok(Formula::implies(
            extract_inner(a, ctx)?,
            extract_inner(b, ctx)?,
        )),
        Formula::Iff(a, b) => Ok(Formula::iff(extract_inner(a, ctx)?, extract_inner(b, ctx)?)),
        Formula::Forall(v, g) | Formula::Exists(v, g) => {
            let is_forall = matches!(f, Formula::Forall(..));
            let inner = extract_inner(g, ctx)?;
            // Free variables of the quantified subformula.
            let mut outer: Vec<Variable> = inner
                .free_variables()
                .into_iter()
                .filter(|u| u != v)
                .collect();
            outer.sort();
            if outer.len() > 1 {
                return Err(LiftError::TooManyVariables {
                    found: outer.len() + 1,
                    max: 2,
                });
            }
            let def = ctx.fresh("Def", outer.len(), 1, 1);
            let def_atom = Formula::atom(def, outer.iter().map(|u| Term::Var(u.clone())).collect());

            let mut forall_prefix: Vec<(Quantifier, Variable)> = outer
                .iter()
                .map(|u| (Quantifier::Forall, u.clone()))
                .collect();

            if is_forall {
                // Def(u) ⇒ ∀v inner :  ∀u ∀v (¬Def(u) ∨ inner)
                let mut p1 = forall_prefix.clone();
                p1.push((Quantifier::Forall, v.clone()));
                handle_prefix_piece(
                    &p1,
                    Formula::or(Formula::not(def_atom.clone()), inner.clone()),
                    ctx,
                )?;
                // ∀v inner ⇒ Def(u) :  ∀u ∃v (¬inner ∨ Def(u))
                forall_prefix.push((Quantifier::Exists, v.clone()));
                handle_prefix_piece(
                    &forall_prefix,
                    Formula::or(Formula::not(inner), def_atom.clone()),
                    ctx,
                )?;
            } else {
                // Def(u) ⇒ ∃v inner :  ∀u ∃v (¬Def(u) ∨ inner)
                let mut p1 = forall_prefix.clone();
                p1.push((Quantifier::Exists, v.clone()));
                handle_prefix_piece(
                    &p1,
                    Formula::or(Formula::not(def_atom.clone()), inner.clone()),
                    ctx,
                )?;
                // ∃v inner ⇒ Def(u) :  ∀u ∀v (¬inner ∨ Def(u))
                forall_prefix.push((Quantifier::Forall, v.clone()));
                handle_prefix_piece(
                    &forall_prefix,
                    Formula::or(Formula::not(inner), def_atom.clone()),
                    ctx,
                )?;
            }
            Ok(def_atom)
        }
    }
}

/// Turns a prefix of at most two quantifiers plus a quantifier-free matrix into
/// pure `∀`-pieces, Skolemizing existential positions per Lemma 3.3.
fn handle_prefix_piece(
    prefix: &[(Quantifier, Variable)],
    matrix: Formula,
    ctx: &mut Ctx,
) -> Result<(), LiftError> {
    match prefix {
        [] => {
            ctx.pieces.push(matrix);
            Ok(())
        }
        [(Quantifier::Forall, u)] => {
            ctx.pieces
                .push(rename_to_canonical(&matrix, std::slice::from_ref(u)));
            Ok(())
        }
        [(Quantifier::Forall, u), (Quantifier::Forall, v)] => {
            ctx.pieces
                .push(rename_to_canonical(&matrix, &[u.clone(), v.clone()]));
            Ok(())
        }
        [(Quantifier::Forall, u), (Quantifier::Exists, v)] => {
            // Lemma 3.3 with a one-variable universal prefix: unary Skolem
            // predicate with weights (1, −1).
            let z = ctx.fresh("Sk", 1, 1, -1);
            let z_atom = Formula::atom(z, vec![Term::Var(u.clone())]);
            let new_matrix = Formula::or(Formula::not(matrix), z_atom);
            ctx.pieces
                .push(rename_to_canonical(&new_matrix, &[u.clone(), v.clone()]));
            Ok(())
        }
        [(Quantifier::Exists, u)] => {
            // Lemma 3.3 with an empty universal prefix: nullary Skolem.
            let z = ctx.fresh("Sk", 0, 1, -1);
            let z_atom = Formula::atom(z, vec![]);
            let new_matrix = Formula::or(Formula::not(matrix), z_atom);
            ctx.pieces
                .push(rename_to_canonical(&new_matrix, std::slice::from_ref(u)));
            Ok(())
        }
        [(Quantifier::Exists, u), rest @ ..] => {
            // Φ = ∃u (Q… matrix): Φ' = ∀u dual(Q…) (¬matrix ∨ Z) with nullary Z.
            let z = ctx.fresh("Sk", 0, 1, -1);
            let z_atom = Formula::atom(z, vec![]);
            let mut new_prefix = vec![(Quantifier::Forall, u.clone())];
            for (q, v) in rest {
                new_prefix.push((q.dual(), v.clone()));
            }
            let new_matrix = Formula::or(Formula::not(matrix), z_atom);
            handle_prefix_piece(&new_prefix, new_matrix, ctx)
        }
        _ => Err(LiftError::Internal(format!(
            "unexpected quantifier prefix of length {} in FO² normalization",
            prefix.len()
        ))),
    }
}

/// Renames the piece's variables to the canonical matrix variables.
fn rename_to_canonical(matrix: &Formula, vars: &[Variable]) -> Formula {
    debug_assert!(vars.len() <= 2);
    let canonical = [Variable::new(VAR_X), Variable::new(VAR_Y)];
    let mut out = matrix.clone();
    for (i, v) in vars.iter().enumerate() {
        debug_assert_ne!(v.name(), VAR_X);
        debug_assert_ne!(v.name(), VAR_Y);
        out = substitute(&out, v, &Term::Var(canonical[i].clone()));
    }
    debug_assert!(
        out.free_variables()
            .iter()
            .all(|v| v.name() == VAR_X || v.name() == VAR_Y),
        "piece still has non-canonical free variables"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_logic::builders::*;
    use wfomc_logic::catalog;

    #[test]
    fn universal_sentence_passes_through() {
        let f = catalog::table1_sentence();
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        assert!(shape.introduced.is_empty());
        assert!(shape.matrix.is_quantifier_free());
        // Free variables are exactly the canonical ones.
        let free: Vec<String> = shape
            .matrix
            .free_variables()
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert_eq!(free, vec![VAR_X.to_string(), VAR_Y.to_string()]);
    }

    #[test]
    fn forall_exists_introduces_one_skolem() {
        let f = catalog::forall_exists_edge();
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        assert_eq!(shape.introduced.len(), 1);
        let sk = &shape.introduced[0];
        assert_eq!(sk.arity(), 1);
        let pair = shape.weights.pair(sk.name());
        assert_eq!(pair.pos, weight_int(1));
        assert_eq!(pair.neg, weight_int(-1));
        assert!(shape.matrix.is_quantifier_free());
    }

    #[test]
    fn nested_quantifiers_get_definition_predicates() {
        // ∀x (R(x) ∨ ∃y S(x,y)): the nested ∃y subformula is named.
        let f = forall(
            ["x"],
            or(vec![
                atom("R", &["x"]),
                exists(["y"], atom("S", &["x", "y"])),
            ]),
        );
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        // One Def predicate plus one Skolem from its ∀∃ direction.
        assert!(shape.introduced.len() >= 2);
        assert!(shape.introduced.iter().any(|p| p.name().starts_with("Def")));
        assert!(shape.introduced.iter().any(|p| p.name().starts_with("Sk")));
        assert!(shape.matrix.is_quantifier_free());
    }

    #[test]
    fn pure_existential_sentence() {
        let f = catalog::exists_unary();
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        assert_eq!(shape.introduced.len(), 1);
        assert_eq!(shape.introduced[0].arity(), 0);
    }

    #[test]
    fn rejects_fo3_and_high_arity_and_constants() {
        let f = catalog::transitivity();
        assert!(matches!(
            fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()),
            Err(LiftError::TooManyVariables { found: 3, .. })
        ));

        let g = forall(["x", "y"], atom("R", &["x", "y", "y"]));
        assert!(matches!(
            fo2_normal_form(&g, &g.vocabulary(), &Weights::ones()),
            Err(LiftError::ArityTooLarge { .. })
        ));

        let h = forall(["x"], atom("R", &["x", "#0"]));
        assert!(matches!(
            fo2_normal_form(&h, &h.vocabulary(), &Weights::ones()),
            Err(LiftError::PatternMismatch { .. })
        ));

        let open = atom("R", &["x"]);
        assert!(matches!(
            fo2_normal_form(&open, &open.vocabulary(), &Weights::ones()),
            Err(LiftError::NotASentence)
        ));
    }

    #[test]
    fn equality_atoms_are_preserved_in_matrix() {
        let f = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        assert!(shape.matrix.uses_equality());
    }

    #[test]
    fn exists_forall_sentence_is_skolemized_twice() {
        let f = exists(["x"], forall(["y"], atom("R", &["x", "y"])));
        let shape = fo2_normal_form(&f, &f.vocabulary(), &Weights::ones()).unwrap();
        // One nullary Skolem for the outer ∃ and one unary for the flipped ∃.
        let skolems: Vec<_> = shape
            .introduced
            .iter()
            .filter(|p| p.name().starts_with("Sk"))
            .collect();
        assert_eq!(skolems.len(), 2);
        assert!(shape.matrix.is_quantifier_free());
    }
}
