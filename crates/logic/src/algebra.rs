//! The generic evaluation algebra of the WFOMC pipeline.
//!
//! Every algorithm in this workspace — the FO² cell-decomposition sum, the
//! QS4 dynamic program, d-DNNF circuit evaluation, grounded weighted model
//! counting — only ever *adds* and *multiplies* weights (plus the occasional
//! additive inverse from Lemma 3.3's (1, −1) Skolem pair). They are
//! algorithms over an arbitrary **commutative ring**, and the [`Algebra`]
//! trait makes that explicit: plan-time analysis (normal forms, cells,
//! signature multisets, lineage, circuit structure) is weight-free, and the
//! evaluation half of every pipeline is generic over the ring the weights
//! live in.
//!
//! Three instances ship with the workspace:
//!
//! * [`Exact`] — [`Weight`] (arbitrary-precision rationals). The default;
//!   every pre-existing API evaluates in this algebra and is bit-for-bit
//!   unchanged.
//! * [`LogF64`] — sign-tracked log-space floats ([`LogWeight`]). Constant
//!   word size regardless of the magnitudes involved, which turns the exact
//!   pipelines into serving-speed approximate ones (MLN marginals, large-`n`
//!   sweeps) without touching any algorithm.
//! * [`Poly`] — dense univariate polynomials over the rationals
//!   ([`Polynomial`]). Makes weight sweeps symbolic: one lifted evaluation
//!   with an indeterminate weight computes the whole weight polynomial, e.g.
//!   the Lemma 3.5 Eq-weight polynomial in a single run instead of `n² + 1`
//!   interpolation points.
//!
//! ```
//! use wfomc_logic::algebra::{Algebra, Exact, LogF64, Poly};
//! use wfomc_logic::poly::Polynomial;
//! use wfomc_logic::weights::weight_int;
//!
//! let w = weight_int(-6);
//! let exact = Exact.from_weight(&w);
//! assert_eq!(Exact.mul(&exact, &exact), weight_int(36));
//!
//! let log = LogF64.from_weight(&w);
//! assert!((LogF64.mul(&log, &log).to_f64() - 36.0).abs() < 1e-9);
//!
//! let poly = Poly.mul(&Polynomial::x(), &Poly.from_weight(&w));
//! assert_eq!(poly.eval(&weight_int(2)), weight_int(-12));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use num_bigint::{BigInt, BigUint};
use num_traits::{One, Signed, ToPrimitive, Zero};

use crate::poly::Polynomial;
use crate::vocabulary::{Predicate, Vocabulary};
use crate::weights::{weight_pow, Weight, Weights};

/// A commutative ring the evaluation half of the WFOMC pipeline can run in.
///
/// Implementations are stateless handles (all four shipped algebras are
/// zero-sized); the element type carries the values. The operations take the
/// receiver so richer algebras (e.g. a fixed-modulus ring, a tropical
/// semiring without `neg`, floats with a configurable precision) can carry
/// configuration — in their *type* (a const-generic modulus, say): a plan
/// caches its weight bindings and reduction tables per algebra type, keyed
/// by the weights alone.
///
/// # Contract
///
/// `add`/`mul` must be commutative and associative with `zero`/`one` as
/// identities, `mul` must distribute over `add`, and `neg` must be the
/// additive inverse. `is_zero` must agree with `zero()` — the engines prune
/// subtrees when a partial product `is_zero`, which is sound in any ring
/// because `0 · x = 0`. Approximate algebras (such as [`LogF64`]) satisfy
/// these laws only up to rounding; the workspace's differential tests pin
/// the accepted tolerance.
pub trait Algebra: Send + Sync + 'static {
    /// The ring element type.
    type Elem: Clone + PartialEq + fmt::Debug + fmt::Display + Send + Sync + 'static;

    /// A short human-readable name (used by benches and reports).
    fn name(&self) -> &'static str;

    /// The additive identity.
    fn zero(&self) -> Self::Elem;

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// True exactly for [`zero`](Self::zero).
    fn is_zero(&self, a: &Self::Elem) -> bool;

    /// Sum.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Additive inverse.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;

    /// Product.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Injects an exact rational weight into the ring.
    ///
    /// (Takes `&self` deliberately — the algebra handle is the conversion
    /// context, not the value being converted.)
    #[allow(clippy::wrong_self_convention)]
    fn from_weight(&self, w: &Weight) -> Self::Elem;

    /// Difference `a − b`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.add(a, &self.neg(b))
    }

    /// In-place sum (override when the element supports it natively).
    fn add_assign(&self, a: &mut Self::Elem, b: &Self::Elem) {
        *a = self.add(a, b);
    }

    /// In-place product (override when the element supports it natively).
    fn mul_assign(&self, a: &mut Self::Elem, b: &Self::Elem) {
        *a = self.mul(a, b);
    }

    /// `base^exp` by square-and-multiply (`pow(0, 0) = one`).
    fn pow(&self, base: &Self::Elem, exp: usize) -> Self::Elem {
        let mut result = self.one();
        let mut base = base.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                self.mul_assign(&mut result, &base);
            }
            e >>= 1;
            if e > 0 {
                base = self.mul(&base, &base);
            }
        }
        result
    }

    /// Exact division `a / b` when `b` divides `a` in the ring, `None`
    /// otherwise (always `None` for `b = 0`). Fields return `Some` for every
    /// non-zero `b`; [`Poly`] returns `Some` exactly for remainder-free
    /// divisions.
    fn try_div(&self, a: &Self::Elem, b: &Self::Elem) -> Option<Self::Elem>;

    /// True when the size of an element — and so the cost of adding two —
    /// grows with the magnitude (or degree) of the value it represents, as
    /// for exact rationals and polynomials. Accumulators use this to choose
    /// between a balanced sum tree (operands of comparable size; the
    /// asymptotic win for growing elements) and a plain running total
    /// (optimal for constant-size elements such as log-space floats, where
    /// the tree's bookkeeping is pure overhead).
    fn growing_elements(&self) -> bool {
        true
    }

    /// True when the grouping of ring operations is observable in the result,
    /// as for floating-point algebras where addition and multiplication are
    /// commutative but not associative. Engines must then evaluate sums in a
    /// deterministic, weight-independent order — no dropping or reordering of
    /// zero terms for speed — so repeated runs are bit-for-bit reproducible
    /// and a lane algebra stays bit-identical to its scalar counterpart lane
    /// by lane. Exact algebras return `false` and let engines reorder freely.
    fn order_sensitive(&self) -> bool {
        false
    }

    /// A non-zero `d` that makes the weight pair `(d·w, d·w̄)` cheaper to
    /// count with than `(w, w̄)`, or `None` (the default) when scaling gains
    /// nothing. Every ground tuple contributes exactly one of `w` and `w̄`,
    /// so a count over the scaled pair is the original count times
    /// `d^{#tuples}`, which the caller divides back out once. [`Exact`]
    /// returns the least common multiple of the two denominators, so counts
    /// multiply integers instead of reducing fractions at every step.
    fn pair_scale(&self, _pos: &Self::Elem, _neg: &Self::Elem) -> Option<Self::Elem> {
        None
    }
}

// ---------------------------------------------------------------------------
// Exact
// ---------------------------------------------------------------------------

/// The exact algebra: arbitrary-precision rationals ([`Weight`]). This is
/// the ring every pre-existing API evaluates in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact;

impl Algebra for Exact {
    type Elem = Weight;

    fn name(&self) -> &'static str {
        "exact"
    }

    fn zero(&self) -> Weight {
        Weight::zero()
    }

    fn one(&self) -> Weight {
        Weight::one()
    }

    fn is_zero(&self, a: &Weight) -> bool {
        a.is_zero()
    }

    fn add(&self, a: &Weight, b: &Weight) -> Weight {
        a + b
    }

    fn neg(&self, a: &Weight) -> Weight {
        -a
    }

    fn mul(&self, a: &Weight, b: &Weight) -> Weight {
        a * b
    }

    fn sub(&self, a: &Weight, b: &Weight) -> Weight {
        a - b
    }

    fn add_assign(&self, a: &mut Weight, b: &Weight) {
        *a += b;
    }

    fn mul_assign(&self, a: &mut Weight, b: &Weight) {
        *a *= b;
    }

    fn pow(&self, base: &Weight, exp: usize) -> Weight {
        weight_pow(base, exp)
    }

    fn from_weight(&self, w: &Weight) -> Weight {
        w.clone()
    }

    fn try_div(&self, a: &Weight, b: &Weight) -> Option<Weight> {
        if b.is_zero() {
            None
        } else {
            Some(a / b)
        }
    }

    fn pair_scale(&self, pos: &Weight, neg: &Weight) -> Option<Weight> {
        let (a, b) = (pos.denom(), neg.denom());
        let lcm = a / BigInt::from(a.magnitude().gcd(b.magnitude())) * b;
        (!lcm.is_one()).then(|| Weight::from_integer(lcm))
    }
}

// ---------------------------------------------------------------------------
// LogF64
// ---------------------------------------------------------------------------

/// A sign-tracked log-space float: `sign · exp(ln)`.
///
/// Covers the full range the exact pipelines produce (counts like `2^{n²}`
/// overflow a plain `f64` long before `n` gets interesting) in one machine
/// word per component, and keeps negative weights — which Skolemization
/// makes unavoidable — first-class. Zero is canonical: `sign = 0`,
/// `ln = −∞`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogWeight {
    sign: i8,
    ln: f64,
}

impl LogWeight {
    /// The zero element.
    pub fn zero() -> LogWeight {
        LogWeight {
            sign: 0,
            ln: f64::NEG_INFINITY,
        }
    }

    /// The unit element.
    pub fn one() -> LogWeight {
        LogWeight { sign: 1, ln: 0.0 }
    }

    /// Builds a log-weight from a plain float.
    pub fn from_f64(x: f64) -> LogWeight {
        if x == 0.0 {
            LogWeight::zero()
        } else {
            LogWeight {
                sign: if x < 0.0 { -1 } else { 1 },
                ln: x.abs().ln(),
            }
        }
    }

    /// Converts back to a plain float (`±∞` when the magnitude overflows).
    pub fn to_f64(self) -> f64 {
        f64::from(self.sign) * self.ln.exp()
    }

    /// The sign: −1, 0 or 1.
    pub fn signum(self) -> i8 {
        self.sign
    }

    /// The natural log of the magnitude (`−∞` for zero).
    pub fn ln_abs(self) -> f64 {
        self.ln
    }

    /// True for the zero element.
    pub fn is_zero(self) -> bool {
        self.sign == 0
    }
}

impl fmt::Display for LogWeight {
    /// Shows the sign and the natural log of the magnitude, which stays
    /// readable when the value itself would overflow a plain float.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sign {
            0 => write!(f, "0"),
            s => {
                let sign = if s < 0 { "-" } else { "" };
                write!(f, "{sign}exp({:.6})", self.ln)
            }
        }
    }
}

/// Natural log of a [`BigUint`] magnitude without overflowing `f64`: values
/// wider than 512 bits are divided down to a 512-bit mantissa and the
/// discarded bit count is added back as `shift · ln 2`.
fn ln_biguint(x: &BigUint) -> f64 {
    let bits = x.bits();
    if bits == 0 {
        return f64::NEG_INFINITY;
    }
    if bits <= 512 {
        return x.to_f64().expect("≤512-bit values convert to f64").ln();
    }
    let shift = (bits - 512) as usize;
    let divisor = &BigUint::one() << shift;
    let (mantissa, _) = x.div_rem(&divisor);
    mantissa
        .to_f64()
        .expect("512-bit mantissa converts to f64")
        .ln()
        + shift as f64 * std::f64::consts::LN_2
}

/// The log-space float algebra. Approximate: sums of opposite-sign values
/// cancel with relative (not absolute) precision, so results that are
/// exactly zero in [`Exact`] come out as *tiny* rather than zero here — the
/// usual floating-point contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogF64;

impl Algebra for LogF64 {
    type Elem = LogWeight;

    fn name(&self) -> &'static str {
        "log-f64"
    }

    fn zero(&self) -> LogWeight {
        LogWeight::zero()
    }

    fn one(&self) -> LogWeight {
        LogWeight::one()
    }

    fn is_zero(&self, a: &LogWeight) -> bool {
        a.sign == 0
    }

    fn add(&self, a: &LogWeight, b: &LogWeight) -> LogWeight {
        if a.sign == 0 {
            return *b;
        }
        if b.sign == 0 {
            return *a;
        }
        // Same sign: log-sum-exp. Opposite signs: the larger magnitude wins
        // and the smaller is subtracted out; exactly equal magnitudes cancel
        // to true zero.
        let (hi, lo) = if a.ln >= b.ln { (a, b) } else { (b, a) };
        let d = lo.ln - hi.ln; // ≤ 0
        if a.sign == b.sign {
            LogWeight {
                sign: a.sign,
                ln: hi.ln + d.exp().ln_1p(),
            }
        } else if a.ln == b.ln {
            LogWeight::zero()
        } else {
            // ln(1 − e^d): `ln(−expm1 d)` keeps the digits of a near
            // cancellation (d → 0⁻), where `ln_1p(−e^d)` would round e^d
            // to 1 and lose the whole difference; `ln_1p` is the accurate
            // form further out (Mächler, "Accurately computing
            // log(1 − exp(−|a|))", 2012).
            let ln_rest = if d > -std::f64::consts::LN_2 {
                (-d.exp_m1()).ln()
            } else {
                (-d.exp()).ln_1p()
            };
            LogWeight {
                sign: hi.sign,
                ln: hi.ln + ln_rest,
            }
        }
    }

    fn neg(&self, a: &LogWeight) -> LogWeight {
        LogWeight {
            sign: -a.sign,
            ln: a.ln,
        }
    }

    fn mul(&self, a: &LogWeight, b: &LogWeight) -> LogWeight {
        if a.sign == 0 || b.sign == 0 {
            return LogWeight::zero();
        }
        LogWeight {
            sign: a.sign * b.sign,
            ln: a.ln + b.ln,
        }
    }

    fn pow(&self, base: &LogWeight, exp: usize) -> LogWeight {
        if exp == 0 {
            return LogWeight::one();
        }
        if base.sign == 0 {
            return LogWeight::zero();
        }
        LogWeight {
            sign: if base.sign < 0 && exp % 2 == 1 { -1 } else { 1 },
            ln: base.ln * exp as f64,
        }
    }

    fn from_weight(&self, w: &Weight) -> LogWeight {
        if w.is_zero() {
            return LogWeight::zero();
        }
        LogWeight {
            sign: if w.is_negative() { -1 } else { 1 },
            ln: ln_bigint(w.numer()) - ln_bigint(w.denom()),
        }
    }

    fn try_div(&self, a: &LogWeight, b: &LogWeight) -> Option<LogWeight> {
        if b.sign == 0 {
            return None;
        }
        if a.sign == 0 {
            return Some(LogWeight::zero());
        }
        Some(LogWeight {
            sign: a.sign * b.sign,
            ln: a.ln - b.ln,
        })
    }

    fn growing_elements(&self) -> bool {
        // A LogWeight is two machine words regardless of magnitude; adding
        // through a balanced tree would only add bookkeeping.
        false
    }

    fn order_sensitive(&self) -> bool {
        // f64 addition rounds, so grouping is observable; engines must keep
        // a weight-independent traversal order for reproducibility.
        true
    }
}

/// Natural log of a [`BigInt`]'s magnitude.
fn ln_bigint(x: &BigInt) -> f64 {
    ln_biguint(x.magnitude())
}

// ---------------------------------------------------------------------------
// LogF64xN
// ---------------------------------------------------------------------------

/// Number of lanes in [`LogF64xN`]: eight sign/magnitude pairs per element,
/// one AVX-512 register (or two AVX2 registers) of `f64` magnitudes.
pub const LOG_LANES: usize = 8;

/// [`LOG_LANES`] independent [`LogWeight`]s evaluated in lockstep.
///
/// Lane `i` of every operation is **bit-identical** to the corresponding
/// scalar [`LogF64`] operation on lane `i` of the operands — each per-lane
/// step delegates to the scalar implementation, so a lane-batched traversal
/// reproduces `LOG_LANES` scalar traversals exactly (the differential
/// proptests in `wfomc-core` pin this down across all four methods).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogWeightxN {
    sign: [i8; LOG_LANES],
    ln: [f64; LOG_LANES],
}

impl LogWeightxN {
    /// All lanes zero.
    pub fn zero() -> LogWeightxN {
        LogWeightxN::splat(LogWeight::zero())
    }

    /// All lanes one.
    pub fn one() -> LogWeightxN {
        LogWeightxN::splat(LogWeight::one())
    }

    /// The same scalar in every lane.
    pub fn splat(w: LogWeight) -> LogWeightxN {
        LogWeightxN {
            sign: [w.sign; LOG_LANES],
            ln: [w.ln; LOG_LANES],
        }
    }

    /// Builds an element from [`LOG_LANES`] independent scalars.
    pub fn from_lanes(lanes: [LogWeight; LOG_LANES]) -> LogWeightxN {
        let mut out = LogWeightxN::zero();
        for (i, lane) in lanes.into_iter().enumerate() {
            out.sign[i] = lane.sign;
            out.ln[i] = lane.ln;
        }
        out
    }

    /// Extracts lane `i` as a scalar [`LogWeight`].
    ///
    /// # Panics
    /// Panics if `i >= LOG_LANES`.
    pub fn lane(&self, i: usize) -> LogWeight {
        LogWeight {
            sign: self.sign[i],
            ln: self.ln[i],
        }
    }

    /// Maps a scalar [`LogF64`] operation over paired lanes.
    fn zip_with(
        &self,
        other: &LogWeightxN,
        op: impl Fn(&LogWeight, &LogWeight) -> LogWeight,
    ) -> LogWeightxN {
        let mut out = LogWeightxN::zero();
        for i in 0..LOG_LANES {
            let r = op(&self.lane(i), &other.lane(i));
            out.sign[i] = r.sign;
            out.ln[i] = r.ln;
        }
        out
    }

    /// Maps a scalar [`LogF64`] operation over each lane.
    fn map(&self, op: impl Fn(&LogWeight) -> LogWeight) -> LogWeightxN {
        let mut out = LogWeightxN::zero();
        for i in 0..LOG_LANES {
            let r = op(&self.lane(i));
            out.sign[i] = r.sign;
            out.ln[i] = r.ln;
        }
        out
    }
}

impl fmt::Display for LogWeightxN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..LOG_LANES {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.lane(i))?;
        }
        write!(f, "]")
    }
}

/// The lane-batched log-space algebra: [`LOG_LANES`] weight vectors run
/// through one generic traversal (cell-sum DFS, circuit evaluation, DPLL,
/// QS4 DP) in lockstep instead of [`LOG_LANES`] traversals.
///
/// The only semantic difference from running [`LogF64`] per lane is
/// pruning: [`Algebra::is_zero`] holds only when *every* lane is zero, so a
/// batch does the union of the per-lane work. That is sound and preserves
/// bit-identity — a canonically-zero lane (`sign = 0`, `ln = −∞`) is
/// absorbing under `mul`/`pow` and an exact identity under `add`, so extra
/// un-pruned work contributes exact zeros to the zero lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogF64xN;

impl LogF64xN {
    /// Packs up to [`LOG_LANES`] exact weight functions into one lane-valued
    /// weight function: lane `i` carries `points[i]`, and a ragged batch
    /// (`points.len() < LOG_LANES`) repeats the last point in the tail
    /// lanes, so every lane is always a well-formed weight vector.
    ///
    /// Each lane of each pair is built with the scalar
    /// [`LogF64::from_weight`] path, and predicates a point leaves unset
    /// get the same `(1, 1)` default the scalar run would use — bitwise.
    ///
    /// # Panics
    /// Panics if `points` is empty or longer than [`LOG_LANES`].
    pub fn pack_weights(points: &[&Weights]) -> AlgebraWeights<LogF64xN> {
        assert!(
            !points.is_empty() && points.len() <= LOG_LANES,
            "pack_weights takes 1..={LOG_LANES} points"
        );
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for point in points {
            names.extend(point.iter().map(|(name, _)| name));
        }
        let mut packed = AlgebraWeights::ones();
        for name in names {
            let mut pos = [LogWeight::zero(); LOG_LANES];
            let mut neg = [LogWeight::zero(); LOG_LANES];
            for i in 0..LOG_LANES {
                let pair = points[i.min(points.len() - 1)].pair(name);
                pos[i] = LogF64.from_weight(&pair.pos);
                neg[i] = LogF64.from_weight(&pair.neg);
            }
            packed.set(
                name,
                LogWeightxN::from_lanes(pos),
                LogWeightxN::from_lanes(neg),
            );
        }
        packed
    }
}

impl Algebra for LogF64xN {
    type Elem = LogWeightxN;

    fn name(&self) -> &'static str {
        "log-f64x8"
    }

    fn zero(&self) -> LogWeightxN {
        LogWeightxN::zero()
    }

    fn one(&self) -> LogWeightxN {
        LogWeightxN::one()
    }

    fn is_zero(&self, a: &LogWeightxN) -> bool {
        a.sign == [0; LOG_LANES]
    }

    fn add(&self, a: &LogWeightxN, b: &LogWeightxN) -> LogWeightxN {
        a.zip_with(b, |x, y| LogF64.add(x, y))
    }

    fn neg(&self, a: &LogWeightxN) -> LogWeightxN {
        a.map(|x| LogF64.neg(x))
    }

    fn mul(&self, a: &LogWeightxN, b: &LogWeightxN) -> LogWeightxN {
        a.zip_with(b, |x, y| LogF64.mul(x, y))
    }

    fn pow(&self, base: &LogWeightxN, exp: usize) -> LogWeightxN {
        base.map(|x| LogF64.pow(x, exp))
    }

    fn from_weight(&self, w: &Weight) -> LogWeightxN {
        LogWeightxN::splat(LogF64.from_weight(w))
    }

    fn try_div(&self, a: &LogWeightxN, b: &LogWeightxN) -> Option<LogWeightxN> {
        // Division is all-or-nothing: any zero-divisor lane poisons the
        // whole element, mirroring the scalar contract per lane.
        if b.sign.contains(&0) {
            return None;
        }
        Some(a.zip_with(b, |x, y| {
            LogF64.try_div(x, y).expect("no lane divisor is zero")
        }))
    }

    fn growing_elements(&self) -> bool {
        // Fixed-size lanes, like the scalar LogF64.
        false
    }

    fn order_sensitive(&self) -> bool {
        // Lane-by-lane bit-identity with scalar LogF64 runs requires every
        // lane to see the exact traversal order a scalar run would use.
        true
    }
}

// ---------------------------------------------------------------------------
// Poly
// ---------------------------------------------------------------------------

/// The polynomial algebra: dense univariate polynomials over the exact
/// rationals. Give one predicate the indeterminate [`Polynomial::x`] as its
/// weight and a single lifted evaluation computes the entire weight
/// polynomial symbolically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Poly;

impl Algebra for Poly {
    type Elem = Polynomial;

    fn name(&self) -> &'static str {
        "poly"
    }

    fn zero(&self) -> Polynomial {
        Polynomial::zero()
    }

    fn one(&self) -> Polynomial {
        Polynomial::one()
    }

    fn is_zero(&self, a: &Polynomial) -> bool {
        a.is_zero()
    }

    fn add(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.add(b)
    }

    fn neg(&self, a: &Polynomial) -> Polynomial {
        a.neg()
    }

    fn sub(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.sub(b)
    }

    fn mul(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.mul(b)
    }

    fn from_weight(&self, w: &Weight) -> Polynomial {
        Polynomial::constant(w.clone())
    }

    fn try_div(&self, a: &Polynomial, b: &Polynomial) -> Option<Polynomial> {
        a.div_exact(b)
    }
}

// ---------------------------------------------------------------------------
// Algebra-valued symmetric weight functions
// ---------------------------------------------------------------------------

/// A symmetric weight function with values in an arbitrary algebra: one
/// `(w, w̄)` pair of ring elements per predicate name, defaulting to
/// `(1, 1)` — the algebra-generic counterpart of [`Weights`].
///
/// Built either by lifting an exact weight function
/// ([`AlgebraWeights::lift`]) or entry by entry ([`AlgebraWeights::set`]),
/// which is how non-rational weights (the [`Poly`] indeterminate, a measured
/// log-space weight) enter the pipeline.
pub struct AlgebraWeights<A: Algebra> {
    by_predicate: BTreeMap<String, (A::Elem, A::Elem)>,
}

impl<A: Algebra> Clone for AlgebraWeights<A> {
    fn clone(&self) -> Self {
        AlgebraWeights {
            by_predicate: self.by_predicate.clone(),
        }
    }
}

impl<A: Algebra> fmt::Debug for AlgebraWeights<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgebraWeights")
            .field("by_predicate", &self.by_predicate)
            .finish()
    }
}

impl<A: Algebra> PartialEq for AlgebraWeights<A> {
    fn eq(&self, other: &Self) -> bool {
        self.by_predicate == other.by_predicate
    }
}

impl<A: Algebra> Default for AlgebraWeights<A> {
    fn default() -> Self {
        AlgebraWeights {
            by_predicate: BTreeMap::new(),
        }
    }
}

impl<A: Algebra> AlgebraWeights<A> {
    /// The all-ones weight function (every predicate defaults to `(1, 1)`).
    pub fn ones() -> Self {
        AlgebraWeights::default()
    }

    /// Lifts an exact weight function into the algebra via
    /// [`Algebra::from_weight`].
    pub fn lift(algebra: &A, weights: &Weights) -> Self {
        let mut out = AlgebraWeights::default();
        for (name, pair) in weights.iter() {
            out.set(
                name,
                algebra.from_weight(&pair.pos),
                algebra.from_weight(&pair.neg),
            );
        }
        out
    }

    /// Sets the pair for a predicate name.
    pub fn set(&mut self, name: impl Into<String>, pos: A::Elem, neg: A::Elem) -> &mut Self {
        self.by_predicate.insert(name.into(), (pos, neg));
        self
    }

    /// The `(w, w̄)` pair for a predicate name (defaults to `(1, 1)`).
    pub fn pair(&self, algebra: &A, name: &str) -> (A::Elem, A::Elem) {
        self.by_predicate
            .get(name)
            .cloned()
            .unwrap_or_else(|| (algebra.one(), algebra.one()))
    }

    /// The pair for a predicate symbol.
    pub fn pair_of(&self, algebra: &A, p: &Predicate) -> (A::Elem, A::Elem) {
        self.pair(algebra, p.name())
    }

    /// `w + w̄` for a predicate name.
    pub fn total(&self, algebra: &A, name: &str) -> A::Elem {
        let (pos, neg) = self.pair(algebra, name);
        algebra.add(&pos, &neg)
    }

    /// Iterates over the explicitly set entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &(A::Elem, A::Elem))> {
        self.by_predicate.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `WFOMC(true) = Π_R (w_R + w̄_R)^{n^arity}` in the algebra — the
    /// normalization constant of the probability semantics.
    pub fn wfomc_of_true(&self, algebra: &A, vocabulary: &Vocabulary, n: usize) -> A::Elem {
        let mut total = algebra.one();
        for p in vocabulary.iter() {
            let t = self.total(algebra, p.name());
            let factor = algebra.pow(&t, p.num_ground_tuples(n));
            algebra.mul_assign(&mut total, &factor);
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Indexed weight pairs (the propositional layer's view)
// ---------------------------------------------------------------------------

/// Per-variable weight pairs in an algebra — the propositional counters'
/// and the circuit evaluator's view of a weight assignment. Variables beyond
/// the table carry the implicit pair `(1, 1)`, matching the exact counters'
/// long-standing contract.
pub trait VarPairs<A: Algebra> {
    /// The weight of variable `var` under truth value `value`.
    fn var_weight(&self, algebra: &A, var: usize, value: bool) -> A::Elem;

    /// `w(var) + w̄(var)` — the contribution of an unconstrained variable.
    fn var_total(&self, algebra: &A, var: usize) -> A::Elem {
        algebra.add(
            &self.var_weight(algebra, var, true),
            &self.var_weight(algebra, var, false),
        )
    }

    /// Number of variables the table covers explicitly.
    fn table_len(&self) -> usize;
}

/// Dense per-variable weight pairs backed by element vectors — the generic
/// analogue of the propositional layer's `VarWeights`.
pub struct ElemWeights<A: Algebra> {
    pos: Vec<A::Elem>,
    neg: Vec<A::Elem>,
}

impl<A: Algebra> Clone for ElemWeights<A> {
    fn clone(&self) -> Self {
        ElemWeights {
            pos: self.pos.clone(),
            neg: self.neg.clone(),
        }
    }
}

impl<A: Algebra> fmt::Debug for ElemWeights<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElemWeights")
            .field("pos", &self.pos)
            .field("neg", &self.neg)
            .finish()
    }
}

impl<A: Algebra> ElemWeights<A> {
    /// An empty table (every variable defaults to `(1, 1)`).
    pub fn new() -> Self {
        ElemWeights {
            pos: Vec::new(),
            neg: Vec::new(),
        }
    }

    /// Builds a table from parallel `(pos, neg)` vectors.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn from_vecs(pos: Vec<A::Elem>, neg: Vec<A::Elem>) -> Self {
        assert_eq!(pos.len(), neg.len(), "weight vectors must align");
        ElemWeights { pos, neg }
    }

    /// Appends one variable's pair.
    pub fn push(&mut self, pos: A::Elem, neg: A::Elem) {
        self.pos.push(pos);
        self.neg.push(neg);
    }

    /// Number of variables covered explicitly.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

impl<A: Algebra> Default for ElemWeights<A> {
    fn default() -> Self {
        ElemWeights::new()
    }
}

impl<A: Algebra> VarPairs<A> for ElemWeights<A> {
    fn var_weight(&self, algebra: &A, var: usize, value: bool) -> A::Elem {
        let table = if value { &self.pos } else { &self.neg };
        table.get(var).cloned().unwrap_or_else(|| algebra.one())
    }

    fn table_len(&self) -> usize {
        self.pos.len()
    }
}

// ---------------------------------------------------------------------------
// Generic power cache
// ---------------------------------------------------------------------------

/// A per-base cache of integer powers of a ring element, used by the FO²
/// cell-sum engine. A dense table `base⁰ … base^cap` grows incrementally (one
/// multiplication per new entry); exponents beyond `cap` fall back to
/// memoized square-and-multiply.
pub struct Powers<A: Algebra> {
    base: A::Elem,
    dense: Vec<A::Elem>,
    cap: usize,
    sparse: BTreeMap<usize, A::Elem>,
}

impl<A: Algebra> Clone for Powers<A> {
    fn clone(&self) -> Self {
        Powers {
            base: self.base.clone(),
            dense: self.dense.clone(),
            cap: self.cap,
            sparse: self.sparse.clone(),
        }
    }
}

impl<A: Algebra> fmt::Debug for Powers<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Powers")
            .field("base", &self.base)
            .field("cap", &self.cap)
            .field("dense_len", &self.dense.len())
            .field("sparse_len", &self.sparse.len())
            .finish()
    }
}

impl<A: Algebra> Powers<A> {
    /// Creates a cache for `base` with a dense table up to exponent `cap`
    /// (inclusive).
    pub fn new(algebra: &A, base: A::Elem, cap: usize) -> Self {
        Powers {
            dense: vec![algebra.one()],
            base,
            cap,
            sparse: BTreeMap::new(),
        }
    }

    /// The cached base.
    pub fn base(&self) -> &A::Elem {
        &self.base
    }

    /// `base^exp` by value.
    pub fn pow(&mut self, algebra: &A, exp: usize) -> A::Elem {
        self.pow_ref(algebra, exp).clone()
    }

    /// `base^exp` by reference — hot loops that immediately multiply the
    /// power in avoid a clone per lookup.
    pub fn pow_ref(&mut self, algebra: &A, exp: usize) -> &A::Elem {
        if exp <= self.cap {
            while self.dense.len() <= exp {
                let next = algebra.mul(
                    self.dense.last().expect("dense table is non-empty"),
                    &self.base,
                );
                self.dense.push(next);
            }
            return &self.dense[exp];
        }
        let base = &self.base;
        self.sparse.entry(exp).or_insert_with(|| {
            wfomc_obs::metrics::POWERS_SPARSE.inc();
            algebra.pow(base, exp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{weight_int, weight_ratio};

    fn assert_close(a: f64, b: f64) {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() <= 1e-9 * scale, "{a} vs {b}");
    }

    #[test]
    fn exact_algebra_matches_weight_arithmetic() {
        let a = Exact.from_weight(&weight_ratio(3, 2));
        let b = Exact.from_weight(&weight_int(-4));
        assert_eq!(Exact.add(&a, &b), weight_ratio(-5, 2));
        assert_eq!(Exact.mul(&a, &b), weight_int(-6));
        assert_eq!(Exact.sub(&a, &a), Weight::zero());
        assert_eq!(Exact.pow(&a, 3), weight_ratio(27, 8));
        assert_eq!(Exact.try_div(&b, &a).unwrap(), weight_ratio(-8, 3));
        assert!(Exact.try_div(&a, &Exact.zero()).is_none());
        assert!(Exact.is_zero(&Exact.zero()) && !Exact.is_zero(&Exact.one()));
    }

    /// Exact pairs scale by the LCM of their denominators; integer pairs
    /// (zero included) and the other algebras do not scale.
    #[test]
    fn exact_pairs_scale_to_integers() {
        let scale = |a, b| Exact.pair_scale(&a, &b);
        assert_eq!(
            scale(weight_ratio(-3, 4), weight_ratio(5, 6)),
            Some(weight_int(12))
        );
        assert_eq!(
            scale(weight_int(0), weight_ratio(7, 9)),
            Some(weight_int(9))
        );
        assert_eq!(scale(weight_int(2), weight_int(-1)), None);
        let half = LogF64.from_weight(&weight_ratio(1, 2));
        assert!(LogF64.pair_scale(&half, &half).is_none());
    }

    #[test]
    fn log_algebra_tracks_signs_and_magnitudes() {
        let a = LogF64.from_weight(&weight_int(3));
        let b = LogF64.from_weight(&weight_int(-5));
        assert_close(LogF64.add(&a, &b).to_f64(), -2.0);
        assert_close(LogF64.add(&b, &a).to_f64(), -2.0);
        assert_close(LogF64.mul(&a, &b).to_f64(), -15.0);
        assert_close(LogF64.sub(&a, &b).to_f64(), 8.0);
        assert_close(LogF64.pow(&b, 3).to_f64(), -125.0);
        assert_close(LogF64.pow(&b, 0).to_f64(), 1.0);
        assert_close(LogF64.try_div(&a, &b).unwrap().to_f64(), -0.6);
        assert!(LogF64.try_div(&a, &LogF64.zero()).is_none());
        // Exactly opposite values cancel to true zero.
        assert!(LogF64.is_zero(&LogF64.add(&b, &LogF64.neg(&b))));
        // Zero is absorbing and has sign 0.
        assert!(LogF64.mul(&a, &LogF64.zero()).is_zero());
        assert_eq!(LogWeight::from_f64(0.0), LogWeight::zero());
        assert_eq!(LogWeight::from_f64(-2.5).signum(), -1);
    }

    #[test]
    fn log_algebra_keeps_near_cancellations() {
        // 1 − (1 − 10⁻³⁰): the difference survives as ln(10⁻³⁰) instead of
        // rounding e^d to 1 and collapsing to a signed ln = −∞.
        let almost_one = LogWeight {
            sign: 1,
            ln: -1e-30,
        };
        let rest = LogF64.sub(&LogF64.one(), &almost_one);
        assert_eq!(rest.signum(), 1);
        assert_close(rest.ln_abs(), (1e-30f64).ln());
        let rest = LogF64.sub(&almost_one, &LogF64.one());
        assert_eq!(rest.signum(), -1);
        assert_close(rest.ln_abs(), (1e-30f64).ln());
        // Away from cancellation the two forms agree.
        let a = LogF64.from_weight(&weight_int(10));
        let b = LogF64.from_weight(&weight_int(-9));
        assert_close(LogF64.add(&a, &b).to_f64(), 1.0);
        let b = LogF64.from_weight(&weight_int(-1));
        assert_close(LogF64.add(&a, &b).to_f64(), 9.0);
    }

    #[test]
    fn lane_algebra_ops_are_bit_identical_to_scalar_lanes() {
        // A spread of magnitudes and signs, including zero, across the lanes.
        let xs: [Weight; LOG_LANES] = [
            weight_int(3),
            weight_int(-5),
            Weight::zero(),
            weight_ratio(1, 7),
            weight_int(1),
            weight_ratio(-9, 4),
            weight_int(1_000_000),
            weight_ratio(-1, 1_000_000),
        ];
        let ys: [Weight; LOG_LANES] = [
            weight_int(-3),
            weight_int(5),
            weight_int(2),
            Weight::zero(),
            weight_ratio(1, 7),
            weight_ratio(9, 4),
            weight_int(-1),
            weight_int(42),
        ];
        let a = LogWeightxN::from_lanes(xs.clone().map(|w| LogF64.from_weight(&w)));
        let b = LogWeightxN::from_lanes(ys.clone().map(|w| LogF64.from_weight(&w)));
        let assert_lanes =
            |lane_value: LogWeightxN, scalar: &dyn Fn(usize) -> LogWeight, op: &str| {
                for i in 0..LOG_LANES {
                    let got = lane_value.lane(i);
                    let want = scalar(i);
                    assert_eq!(got.signum(), want.signum(), "{op} lane {i} sign");
                    assert_eq!(
                        got.ln_abs().to_bits(),
                        want.ln_abs().to_bits(),
                        "{op} lane {i} magnitude"
                    );
                }
            };
        let sa: Vec<LogWeight> = xs.iter().map(|w| LogF64.from_weight(w)).collect();
        let sb: Vec<LogWeight> = ys.iter().map(|w| LogF64.from_weight(w)).collect();
        assert_lanes(LogF64xN.add(&a, &b), &|i| LogF64.add(&sa[i], &sb[i]), "add");
        assert_lanes(LogF64xN.sub(&a, &b), &|i| LogF64.sub(&sa[i], &sb[i]), "sub");
        assert_lanes(LogF64xN.mul(&a, &b), &|i| LogF64.mul(&sa[i], &sb[i]), "mul");
        assert_lanes(LogF64xN.neg(&a), &|i| LogF64.neg(&sa[i]), "neg");
        for exp in [0usize, 1, 2, 7, 100] {
            assert_lanes(LogF64xN.pow(&a, exp), &|i| LogF64.pow(&sa[i], exp), "pow");
        }
        // try_div: poisoned by any zero-divisor lane, per-lane scalar otherwise.
        assert!(LogF64xN.try_div(&a, &b).is_none(), "lane 3 divisor is zero");
        let c = LogWeightxN::splat(LogF64.from_weight(&weight_ratio(-2, 3)));
        assert_lanes(
            LogF64xN.try_div(&a, &c).unwrap(),
            &|i| LogF64.try_div(&sa[i], &c.lane(i)).unwrap(),
            "div",
        );
    }

    #[test]
    fn lane_algebra_zero_and_pruning_contract() {
        assert!(LogF64xN.is_zero(&LogF64xN.zero()));
        assert!(!LogF64xN.is_zero(&LogF64xN.one()));
        // A partially-zero element must NOT count as zero: pruning it would
        // drop live lanes.
        let mut lanes = [LogWeight::zero(); LOG_LANES];
        lanes[LOG_LANES - 1] = LogWeight::one();
        let partial = LogWeightxN::from_lanes(lanes);
        assert!(!LogF64xN.is_zero(&partial));
        // Zero lanes stay canonical through mul and pow (absorbing), and are
        // exact identities under add.
        let product = LogF64xN.mul(&partial, &LogF64xN.from_weight(&weight_int(-7)));
        for i in 0..LOG_LANES - 1 {
            assert_eq!(product.lane(i), LogWeight::zero(), "lane {i}");
        }
        let total = LogF64xN.add(&partial, &LogF64xN.from_weight(&weight_int(2)));
        for i in 0..LOG_LANES - 1 {
            assert_eq!(
                total.lane(i).ln_abs().to_bits(),
                LogF64.from_weight(&weight_int(2)).ln_abs().to_bits(),
                "lane {i}"
            );
        }
        assert!(!LogF64xN.growing_elements());
    }

    #[test]
    fn pack_weights_matches_scalar_lift_per_lane() {
        let points = [
            Weights::from_ints([("R", 2, 1), ("S", 1, 3)]),
            Weights::from_ints([("R", 0, 1), ("T", -1, 2)]),
            Weights::ones(),
        ];
        let refs: Vec<&Weights> = points.iter().collect();
        let packed = LogF64xN::pack_weights(&refs);
        for (i, point) in points.iter().enumerate() {
            let scalar = AlgebraWeights::lift(&LogF64, point);
            for name in ["R", "S", "T", "Unset"] {
                let (pos, neg) = packed.pair(&LogF64xN, name);
                let (spos, sneg) = scalar.pair(&LogF64, name);
                for (lane, want) in [(pos.lane(i), spos), (neg.lane(i), sneg)] {
                    assert_eq!(lane.signum(), want.signum(), "{name} lane {i}");
                    assert_eq!(
                        lane.ln_abs().to_bits(),
                        want.ln_abs().to_bits(),
                        "{name} lane {i}"
                    );
                }
            }
        }
        // Ragged tails repeat the last point.
        let last = AlgebraWeights::lift(&LogF64, &points[2]);
        let (pos, _) = packed.pair(&LogF64xN, "R");
        for i in points.len()..LOG_LANES {
            assert_eq!(
                pos.lane(i).ln_abs().to_bits(),
                last.pair(&LogF64, "R").0.ln_abs().to_bits(),
                "tail lane {i}"
            );
        }
    }

    #[test]
    fn log_algebra_survives_huge_magnitudes() {
        // 2^(10_000) overflows f64 but not the log representation.
        let huge = Exact.pow(&weight_int(2), 10_000);
        let log = LogF64.from_weight(&huge);
        assert_close(log.ln_abs(), 10_000.0 * std::f64::consts::LN_2);
        // Ratios of huge values come back into range.
        let ratio = LogF64
            .try_div(&log, &LogF64.from_weight(&Exact.pow(&weight_int(2), 9_999)))
            .unwrap();
        assert_close(ratio.to_f64(), 2.0);
        // Huge denominators too.
        let tiny = LogF64.from_weight(&(Weight::one() / huge));
        assert_close(tiny.ln_abs(), -10_000.0 * std::f64::consts::LN_2);
    }

    #[test]
    fn poly_algebra_is_symbolic() {
        let x = Polynomial::x();
        let c = Poly.from_weight(&weight_int(3));
        // (x + 3)² = x² + 6x + 9.
        let p = Poly.pow(&Poly.add(&x, &c), 2);
        assert_eq!(p.coeff(0), weight_int(9));
        assert_eq!(p.coeff(1), weight_int(6));
        assert_eq!(p.coeff(2), weight_int(1));
        assert_eq!(
            Poly.try_div(&p, &Poly.add(&x, &c)).unwrap(),
            Poly.add(&x, &c)
        );
        assert!(Poly.try_div(&p, &Poly.zero()).is_none());
        assert!(Poly.is_zero(&Poly.sub(&p, &p)));
    }

    #[test]
    fn algebra_weights_lift_and_default() {
        let w = Weights::from_ints([("R", 2, -1)]);
        let lifted = AlgebraWeights::lift(&Exact, &w);
        assert_eq!(lifted.pair(&Exact, "R"), (weight_int(2), weight_int(-1)));
        assert_eq!(lifted.pair(&Exact, "S"), (weight_int(1), weight_int(1)));
        assert_eq!(lifted.total(&Exact, "R"), weight_int(1));
        assert_eq!(lifted.iter().count(), 1);
        // wfomc_of_true matches the exact computation.
        let voc = Vocabulary::from_pairs([("R", 2), ("S", 1)]);
        assert_eq!(
            lifted.wfomc_of_true(&Exact, &voc, 3),
            w.wfomc_of_true(&voc, 3)
        );
    }

    #[test]
    fn elem_weights_default_beyond_table() {
        let mut ew: ElemWeights<Exact> = ElemWeights::new();
        assert!(ew.is_empty());
        ew.push(weight_int(5), weight_int(7));
        assert_eq!(ew.len(), 1);
        assert_eq!(ew.var_weight(&Exact, 0, true), weight_int(5));
        assert_eq!(ew.var_weight(&Exact, 0, false), weight_int(7));
        assert_eq!(ew.var_weight(&Exact, 3, true), weight_int(1));
        assert_eq!(ew.var_total(&Exact, 0), weight_int(12));
        assert_eq!(ew.var_total(&Exact, 9), weight_int(2));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_elem_weight_vectors_panic() {
        ElemWeights::<Exact>::from_vecs(vec![weight_int(1)], vec![]);
    }

    #[test]
    fn generic_power_cache_matches_algebra_pow() {
        let base = LogF64.from_weight(&weight_ratio(-3, 2));
        let mut cache = Powers::new(&LogF64, base, 8);
        for e in [0usize, 3, 1, 8, 5, 20, 100, 20, 8] {
            let direct = LogF64.pow(cache.base(), e);
            let cached = cache.pow(&LogF64, e);
            assert_eq!(cached.signum(), direct.signum(), "e = {e}");
            assert_close(cached.ln_abs(), direct.ln_abs());
        }
    }
}
