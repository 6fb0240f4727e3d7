//! Error types for the lifted algorithms and the governed solve surface.

use std::fmt;
use std::time::Duration;

use wfomc_guard::{ExhaustKind, Interrupt};

/// Why a lifted algorithm declined (or failed) to handle an input.
///
/// "Declined" is the common case: the paper's hardness results mean no lifted
/// algorithm can cover all sentences, so the [`crate::solver::Solver`] treats
/// most of these as a signal to fall back to the grounded pipeline rather than
/// as a hard failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LiftError {
    /// The sentence uses more distinct variables than the algorithm supports
    /// (e.g. an FO³ sentence handed to the FO² algorithm).
    TooManyVariables {
        /// Number of distinct variables found.
        found: usize,
        /// Maximum supported.
        max: usize,
    },
    /// A predicate has higher arity than the algorithm supports.
    ArityTooLarge {
        /// The offending predicate name.
        predicate: String,
        /// Its arity.
        arity: usize,
        /// Maximum supported arity.
        max: usize,
    },
    /// The input is not a sentence (it has free variables).
    NotASentence,
    /// The formula could not be interpreted as a conjunctive query.
    NotAConjunctiveQuery,
    /// The conjunctive query has a self-join, which Theorem 3.6 excludes.
    HasSelfJoin,
    /// The query hypergraph is not γ-acyclic, so Fagin's reduction got stuck.
    NotGammaAcyclic,
    /// A weight pair has `w + w̄ = 0`, so it admits no probability
    /// normalization (required by the probability-space CQ algorithm).
    NoProbabilityNormalization {
        /// The offending predicate.
        predicate: String,
    },
    /// The domain is too large to count over: a ground tuple count overflows
    /// `usize`.
    DomainTooLarge,
    /// The sentence does not match the special-case algorithm it was handed to
    /// (e.g. a non-QS4 sentence given to the QS4 dynamic program).
    PatternMismatch {
        /// Description of the expected pattern.
        expected: String,
    },
    /// The normalization produced something the cell algorithm cannot consume;
    /// this indicates a bug and carries a description.
    Internal(String),
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::TooManyVariables { found, max } => write!(
                f,
                "sentence uses {found} distinct variables but the algorithm supports at most {max}"
            ),
            LiftError::ArityTooLarge {
                predicate,
                arity,
                max,
            } => write!(
                f,
                "predicate {predicate} has arity {arity}, above the supported maximum {max}"
            ),
            LiftError::NotASentence => write!(f, "the formula has free variables"),
            LiftError::NotAConjunctiveQuery => {
                write!(f, "the formula is not a conjunctive query")
            }
            LiftError::HasSelfJoin => {
                write!(f, "the conjunctive query has a self-join")
            }
            LiftError::NotGammaAcyclic => {
                write!(f, "the query hypergraph is not γ-acyclic")
            }
            LiftError::NoProbabilityNormalization { predicate } => write!(
                f,
                "predicate {predicate} has w + w̄ = 0, so tuple probabilities are undefined"
            ),
            LiftError::DomainTooLarge => {
                write!(
                    f,
                    "the domain is too large: a ground tuple count overflows usize"
                )
            }
            LiftError::PatternMismatch { expected } => {
                write!(
                    f,
                    "the sentence does not match the expected pattern: {expected}"
                )
            }
            LiftError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for LiftError {}

/// Why a governed solve ([`crate::plan::Plan::count_with_limits`] and
/// friends) failed: either an ordinary [`LiftError`], or a structured
/// resource-exhaustion report.
///
/// Exhaustion is not corruption — the plan and all of its caches remain
/// consistent, so retrying the same point with larger (or no) limits
/// succeeds and agrees with an unbudgeted solve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveError {
    /// The underlying algorithm declined or failed (see [`LiftError`]).
    Lift(LiftError),
    /// The wall-clock deadline expired inside `phase`.
    DeadlineExceeded {
        /// The pipeline loop that observed the expiry.
        phase: &'static str,
        /// Time since the solve started when the expiry was observed.
        elapsed: Duration,
    },
    /// The work cap was exhausted inside `phase`.
    WorkCapExceeded {
        /// The pipeline loop that observed the exhaustion.
        phase: &'static str,
        /// Work units recorded when the cap tripped.
        work: u64,
        /// The armed cap.
        cap: u64,
    },
    /// An up-front memory estimate exceeded the cap in `phase`.
    MemEstimateExceeded {
        /// The phase whose allocation estimate tripped the cap.
        phase: &'static str,
        /// The a-priori estimate.
        estimate: u64,
        /// The armed cap.
        cap: u64,
    },
    /// The [`wfomc_guard::CancelToken`] was raised; observed inside `phase`.
    Cancelled {
        /// The pipeline loop that observed the cancellation.
        phase: &'static str,
    },
    /// A batch worker panicked while evaluating one point. The panic was
    /// contained with `catch_unwind`; other points are unaffected.
    WorkerPanicked {
        /// Best-effort panic payload (the `&str`/`String` message if any).
        message: String,
    },
}

impl SolveError {
    /// True when the error reports resource exhaustion or cancellation (as
    /// opposed to an algorithmic [`LiftError`] or a contained panic) — the
    /// cases where retrying with a larger budget can succeed.
    pub fn is_exhaustion(&self) -> bool {
        matches!(
            self,
            SolveError::DeadlineExceeded { .. }
                | SolveError::WorkCapExceeded { .. }
                | SolveError::MemEstimateExceeded { .. }
                | SolveError::Cancelled { .. }
        )
    }
}

impl From<LiftError> for SolveError {
    fn from(e: LiftError) -> SolveError {
        SolveError::Lift(e)
    }
}

/// Unwraps a [`SolveError`] coming back through an *unarmed* guard, where
/// exhaustion is impossible by construction.
pub(crate) fn demote(e: SolveError) -> LiftError {
    match e {
        SolveError::Lift(e) => e,
        other => unreachable!("an unarmed guard cannot interrupt: {other}"),
    }
}

impl From<Interrupt> for SolveError {
    fn from(i: Interrupt) -> SolveError {
        match i.kind {
            ExhaustKind::Deadline { elapsed } => SolveError::DeadlineExceeded {
                phase: i.phase,
                elapsed,
            },
            ExhaustKind::WorkCap { work, cap } => SolveError::WorkCapExceeded {
                phase: i.phase,
                work,
                cap,
            },
            ExhaustKind::MemEstimate { estimate, cap } => SolveError::MemEstimateExceeded {
                phase: i.phase,
                estimate,
                cap,
            },
            ExhaustKind::Cancelled => SolveError::Cancelled { phase: i.phase },
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lift(e) => write!(f, "{e}"),
            SolveError::DeadlineExceeded { phase, elapsed } => write!(
                f,
                "deadline exceeded in phase `{phase}` after {:.1}ms",
                elapsed.as_secs_f64() * 1e3
            ),
            SolveError::WorkCapExceeded { phase, work, cap } => write!(
                f,
                "work cap exceeded in phase `{phase}` ({work} of {cap} units)"
            ),
            SolveError::MemEstimateExceeded {
                phase,
                estimate,
                cap,
            } => write!(
                f,
                "memory estimate {estimate} exceeds cap {cap} in phase `{phase}`"
            ),
            SolveError::Cancelled { phase } => write!(f, "cancelled in phase `{phase}`"),
            SolveError::WorkerPanicked { message } => {
                write!(f, "a batch worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Lift(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LiftError::TooManyVariables { found: 3, max: 2 };
        assert!(e.to_string().contains('3'));
        let e = LiftError::ArityTooLarge {
            predicate: "R".into(),
            arity: 4,
            max: 2,
        };
        assert!(e.to_string().contains("R"));
        assert!(LiftError::NotGammaAcyclic.to_string().contains("γ-acyclic"));
        assert!(LiftError::Internal("oops".into())
            .to_string()
            .contains("oops"));
    }
}
