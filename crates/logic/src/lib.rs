//! # wfomc-logic
//!
//! First-order logic toolkit underlying the symmetric Weighted First-Order
//! Model Counting (WFOMC) library, a reproduction of
//! *Symmetric Weighted First-Order Model Counting* (Beame, Van den Broeck,
//! Gribkoff, Suciu — PODS 2015).
//!
//! This crate provides:
//!
//! * [`term::Term`], [`term::Variable`], [`term::Constant`] — the term language;
//! * [`vocabulary::Predicate`] and [`vocabulary::Vocabulary`] — fixed relational
//!   vocabularies σ = (R₁, …, Rₘ) as used throughout the paper;
//! * [`syntax::Formula`] — first-order formulas over a vocabulary with equality;
//! * [`weights::Weights`] — symmetric weight functions (w, w̄) over a vocabulary,
//!   with exact arbitrary-precision rational arithmetic (negative weights are
//!   first-class citizens: Lemma 3.3 of the paper requires w̄ = −1);
//! * [`algebra`] — the generic evaluation algebra: a commutative-ring trait
//!   ([`algebra::Algebra`]) the whole evaluation pipeline is parameterized
//!   over, with exact-rational ([`algebra::Exact`]), log-space float
//!   ([`algebra::LogF64`]) and polynomial ([`algebra::Poly`], over
//!   [`poly::Polynomial`]) instances;
//! * [`transform`] — simplification, negation normal form, prenex normal form,
//!   substitution, variable counting (the FOᵏ fragments), renaming;
//! * [`clause`] — universally quantified clauses and clausal sentences;
//! * [`cq`] — conjunctive queries without self-joins (the Figure 1 landscape);
//! * [`parser`] — a small text syntax for formulas, used by examples and tests;
//! * [`catalog`] — programmatic constructors for every sentence that appears in
//!   the paper (Table 1, Table 2, QS4, Example 1.1, the Figure 1 queries, …).
//!
//! The crate is purely syntactic: it knows nothing about domains, structures or
//! counting. Grounding lives in `wfomc-ground`, lifted algorithms in
//! `wfomc-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod builders;
pub mod catalog;
pub mod clause;
pub mod cq;
pub mod parser;
pub mod poly;
pub mod printer;
pub mod snap;
pub mod syntax;
pub mod term;
pub mod transform;
pub mod vocabulary;
pub mod weights;

pub use algebra::{Algebra, AlgebraWeights, ElemWeights, Exact, LogF64, LogWeight, Poly, VarPairs};
pub use poly::Polynomial;
pub use syntax::{Atom, Formula};
pub use term::{Constant, Term, Variable};
pub use vocabulary::{Predicate, Vocabulary};
pub use weights::{Weight, Weights};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::algebra::{
        Algebra, AlgebraWeights, ElemWeights, Exact, LogF64, LogWeight, Poly, VarPairs,
    };
    pub use crate::builders::*;
    pub use crate::clause::{ClausalSentence, Clause, Literal};
    pub use crate::cq::ConjunctiveQuery;
    pub use crate::poly::Polynomial;
    pub use crate::syntax::{Atom, Formula};
    pub use crate::term::{Constant, Term, Variable};
    pub use crate::vocabulary::{Predicate, Vocabulary};
    pub use crate::weights::{Weight, Weights};
}
