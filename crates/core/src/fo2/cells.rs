//! 1-types (cells) and two-element tables for the FO² algorithm.
//!
//! A *cell* (the appendix calls them `C₁ … C_{2^m}`; the lifted-inference
//! literature calls them 1-types) is a complete truth assignment to all atoms
//! that mention a single element: the unary atoms `U(x)` and the reflexive
//! binary atoms `B(x,x)`. A cell is *valid* if it satisfies the diagonal
//! constraint `Ψ(x, x)`.
//!
//! For an (unordered) pair of elements with cells `i` and `j`, the table entry
//! `r_{ij}` sums, over all assignments to the cross atoms `B(x,y)`, `B(y,x)`,
//! the weight of the assignments satisfying `Ψ(x,y) ∧ Ψ(y,x)`.

use num_traits::One;

use wfomc_logic::algebra::{Algebra, AlgebraWeights};
use wfomc_logic::syntax::Formula;
use wfomc_logic::term::Term;
use wfomc_logic::vocabulary::Predicate;
use wfomc_logic::weights::Weight;

use super::normalize::{VAR_X, VAR_Y};
use crate::error::LiftError;

/// The unary / binary predicates over which cells are formed.
#[derive(Clone, Debug)]
pub struct CellSpace {
    /// Unary predicates, in a fixed order.
    pub unary: Vec<Predicate>,
    /// Binary predicates, in a fixed order.
    pub binary: Vec<Predicate>,
}

impl CellSpace {
    /// Number of bits in a cell description.
    pub fn cell_bits(&self) -> usize {
        self.unary.len() + self.binary.len()
    }
}

/// A valid 1-type. Its weight `u_c = Π_U w-or-w̄(U) · Π_B w-or-w̄(B)` over
/// its unary and reflexive atoms depends on the weight function, so
/// [`bind_cell_weights_in`] computes it per binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Truth values of the unary atoms, aligned with [`CellSpace::unary`].
    pub unary: Vec<bool>,
    /// Truth values of the reflexive binary atoms, aligned with
    /// [`CellSpace::binary`].
    pub reflexive: Vec<bool>,
    /// Always 1: prepared cells are weight-free shapes. The field stays
    /// because the `wfomc-snap/v1` format stores it.
    pub weight: Weight,
}

/// An assignment to the cross atoms of an ordered pair `(x, y)`.
struct CrossAssign {
    /// `B_k(x, y)` values.
    fwd: Vec<bool>,
    /// `B_k(y, x)` values.
    bwd: Vec<bool>,
}

/// The weight-independent part of the pair table: for every unordered pair of
/// valid cells `i ≤ j`, the multiset of *signatures* of the cross assignments
/// satisfying `Ψ(x,y) ∧ Ψ(y,x)`.
///
/// A satisfying assignment to the `2b` cross atoms contributes
/// `Π_t w_t^{a_t} · w̄_t^{2 − a_t}` where `a_t ∈ {0, 1, 2}` counts how many of
/// `B_t(x,y)`, `B_t(y,x)` are true — so only the signature `(a_1, …, a_b)`
/// matters, and the up-to-`4^b` assignments collapse into at most `3^b`
/// signatures with multiplicities.
///
/// Finding the satisfying assignments is the expensive part of building the
/// table (it evaluates the matrix `2^{2b}` times per cell pair); summing the
/// signature weights ([`bind_pair_table_in`]) is cheap and can be redone per
/// weight function, which is what lets a [`crate::plan::Plan`] analyze a
/// sentence once and re-weight it many times.
#[derive(Clone, Debug)]
pub struct PairStructure {
    /// `sat[i][j - i]` holds the signature multiset of the pair `(i, j)`,
    /// `i ≤ j`.
    sat: Vec<Vec<SignatureMultiset>>,
}

/// The satisfying cross assignments of one cell pair, grouped by signature:
/// `(per-predicate true-counts, multiplicity)` in increasing signature order.
pub(crate) type SignatureMultiset = Vec<(Vec<u8>, u64)>;

impl PairStructure {
    /// Total number of satisfying cross assignments over all cell pairs.
    pub fn num_satisfying(&self) -> usize {
        self.sat
            .iter()
            .flatten()
            .flatten()
            .map(|(_, count)| *count as usize)
            .sum()
    }

    /// Per-cell count of *structural* zeros: pairs `(i, j)` with no
    /// satisfying cross assignment at all, whose bound table entry is zero
    /// for every weight function. Unlike the bound entries these counts are
    /// weight-independent, so a cell order derived from them is shared by
    /// every weight vector — which is what lets order-sensitive (float)
    /// algebras front-load constrained cells without breaking bit-for-bit
    /// lane/scalar agreement.
    pub fn structural_zero_counts(&self) -> Vec<usize> {
        let k = self.sat.len();
        let mut zeros = vec![0usize; k];
        for (i, row) in self.sat.iter().enumerate() {
            for (d, signatures) in row.iter().enumerate() {
                if signatures.is_empty() {
                    zeros[i] += 1;
                    if d > 0 {
                        zeros[i + d] += 1;
                    }
                }
            }
        }
        zeros
    }

    /// Reindexes the structure by `perm` (new index `a` maps to old cell
    /// `perm[a]`), preserving the triangular `i ≤ j` layout.
    pub fn permute(&self, perm: &[usize]) -> PairStructure {
        let k = self.sat.len();
        debug_assert_eq!(perm.len(), k);
        let mut sat = Vec::with_capacity(k);
        for a in 0..k {
            let mut row = Vec::with_capacity(k - a);
            for b in a..k {
                let (i, j) = if perm[a] <= perm[b] {
                    (perm[a], perm[b])
                } else {
                    (perm[b], perm[a])
                };
                row.push(self.sat[i][j - i].clone());
            }
            sat.push(row);
        }
        PairStructure { sat }
    }

    /// The triangular signature table, row-major, for the snapshot codec.
    pub(crate) fn sat_rows(&self) -> &[Vec<SignatureMultiset>] {
        &self.sat
    }

    /// Rebuilds a structure from decoded rows, validating the triangular
    /// layout (`sat[i].len() == k − i`). Returns `None` on violation.
    pub(crate) fn from_rows(sat: Vec<Vec<SignatureMultiset>>) -> Option<PairStructure> {
        let k = sat.len();
        for (i, row) in sat.iter().enumerate() {
            if row.len() != k - i {
                return None;
            }
        }
        Some(PairStructure { sat })
    }
}

/// Enumerates the valid cell *shapes* of a matrix: the truth assignments
/// satisfying the diagonal constraint `Ψ(x, x)`, with every weight left at 1.
/// [`bind_cell_weights_in`] computes their weights under a weight function.
pub fn build_cell_shapes(matrix: &Formula, space: &CellSpace) -> Result<Vec<Cell>, LiftError> {
    let bits = space.cell_bits();
    if bits > 24 {
        return Err(LiftError::Internal(format!(
            "cell space over {bits} atoms is too large; the sentence is not practically liftable"
        )));
    }
    let mut cells = Vec::new();
    for code in 0u64..(1u64 << bits) {
        let unary: Vec<bool> = (0..space.unary.len()).map(|i| code >> i & 1 == 1).collect();
        let reflexive: Vec<bool> = (0..space.binary.len())
            .map(|i| code >> (space.unary.len() + i) & 1 == 1)
            .collect();
        let candidate = Cell {
            unary,
            reflexive,
            weight: Weight::one(),
        };
        // Validity: Ψ(x, x) must hold.
        if !eval_matrix(matrix, space, &candidate, &candidate, None, true)? {
            continue;
        }
        cells.push(candidate);
    }
    Ok(cells)
}

/// Computes the cell weights `u_c` of a slice of (structural) cells in an
/// arbitrary [`Algebra`]: the same product of `w` / `w̄` elements over the
/// cell's unary and reflexive atoms, returned as a bare weight vector
/// aligned with `shapes` (the shapes themselves are weight-free structure).
pub fn bind_cell_weights_in<A: Algebra>(
    shapes: &[Cell],
    space: &CellSpace,
    algebra: &A,
    weights: &AlgebraWeights<A>,
) -> Vec<A::Elem> {
    let unary_pairs: Vec<_> = space
        .unary
        .iter()
        .map(|p| weights.pair_of(algebra, p))
        .collect();
    let binary_pairs: Vec<_> = space
        .binary
        .iter()
        .map(|p| weights.pair_of(algebra, p))
        .collect();
    shapes
        .iter()
        .map(|shape| {
            let mut weight = algebra.one();
            for (i, (pos, neg)) in unary_pairs.iter().enumerate() {
                algebra.mul_assign(&mut weight, if shape.unary[i] { pos } else { neg });
            }
            for (i, (pos, neg)) in binary_pairs.iter().enumerate() {
                algebra.mul_assign(&mut weight, if shape.reflexive[i] { pos } else { neg });
            }
            weight
        })
        .collect()
}

/// Finds, for every unordered pair of cells, the cross assignments satisfying
/// `Ψ(x,y) ∧ Ψ(y,x)` — the weight-independent part of the pair table.
pub fn build_pair_structure(
    matrix: &Formula,
    space: &CellSpace,
    cells: &[Cell],
) -> Result<PairStructure, LiftError> {
    let b = space.binary.len();
    if 2 * b > 24 {
        return Err(LiftError::Internal(format!(
            "pair table over {} cross atoms is too large",
            2 * b
        )));
    }
    let k = cells.len();
    let mut sat = Vec::with_capacity(k);
    for i in 0..k {
        let mut row = Vec::with_capacity(k - i);
        for j in i..k {
            let mut signatures: std::collections::BTreeMap<Vec<u8>, u64> =
                std::collections::BTreeMap::new();
            for code in 0u64..(1u64 << (2 * b)) {
                let fwd: Vec<bool> = (0..b).map(|t| code >> t & 1 == 1).collect();
                let bwd: Vec<bool> = (0..b).map(|t| code >> (b + t) & 1 == 1).collect();
                let cross = CrossAssign {
                    fwd: fwd.clone(),
                    bwd: bwd.clone(),
                };
                let cross_swapped = CrossAssign { fwd: bwd, bwd: fwd };
                let forward_ok =
                    eval_matrix(matrix, space, &cells[i], &cells[j], Some(&cross), false)?;
                if !forward_ok {
                    continue;
                }
                let backward_ok = eval_matrix(
                    matrix,
                    space,
                    &cells[j],
                    &cells[i],
                    Some(&cross_swapped),
                    false,
                )?;
                if !backward_ok {
                    continue;
                }
                let signature: Vec<u8> = (0..b)
                    .map(|t| (code >> t & 1) as u8 + (code >> (b + t) & 1) as u8)
                    .collect();
                *signatures.entry(signature).or_insert(0) += 1;
            }
            row.push(signatures.into_iter().collect());
        }
        sat.push(row);
    }
    Ok(PairStructure { sat })
}

/// Sums the weights of the satisfying cross assignments of every cell pair
/// in an arbitrary [`Algebra`], producing the symmetric table `r_{ij}` for
/// a weight function. Per binary predicate only the three products `w̄²`,
/// `w·w̄`, `w²` exist, so each signature costs `b` multiplications instead
/// of `2b` per raw assignment.
pub fn bind_pair_table_in<A: Algebra>(
    structure: &PairStructure,
    space: &CellSpace,
    algebra: &A,
    weights: &AlgebraWeights<A>,
) -> Vec<Vec<A::Elem>> {
    let pows: Vec<[A::Elem; 3]> = space
        .binary
        .iter()
        .map(|p| {
            let (pos, neg) = weights.pair_of(algebra, p);
            [
                algebra.mul(&neg, &neg),
                algebra.mul(&pos, &neg),
                algebra.mul(&pos, &pos),
            ]
        })
        .collect();
    let k = structure.sat.len();
    let mut table = vec![vec![algebra.zero(); k]; k];
    for (i, row) in structure.sat.iter().enumerate() {
        for (d, signatures) in row.iter().enumerate() {
            let j = i + d;
            let mut total = algebra.zero();
            for (signature, count) in signatures {
                let mut weight = if *count == 1 {
                    algebra.one()
                } else {
                    algebra.from_weight(&Weight::from_integer((*count).into()))
                };
                for (t, pow) in pows.iter().enumerate() {
                    algebra.mul_assign(&mut weight, &pow[signature[t] as usize]);
                }
                algebra.add_assign(&mut total, &weight);
            }
            table[i][j] = total.clone();
            table[j][i] = total;
        }
    }
    table
}

/// Evaluates the matrix under a cell assignment for `x` and `y`.
///
/// `same_element = true` means `x` and `y` denote the same element (used for
/// the diagonal validity check); in that case `cross` is ignored and the
/// reflexive atoms of `cell_x` are used for every binary atom.
fn eval_matrix(
    matrix: &Formula,
    space: &CellSpace,
    cell_x: &Cell,
    cell_y: &Cell,
    cross: Option<&CrossAssign>,
    same_element: bool,
) -> Result<bool, LiftError> {
    #[derive(PartialEq, Clone, Copy)]
    enum Role {
        X,
        Y,
    }
    fn role_of(t: &Term) -> Result<Role, LiftError> {
        match t {
            Term::Var(v) if v.name() == VAR_X => Ok(Role::X),
            Term::Var(v) if v.name() == VAR_Y => Ok(Role::Y),
            other => Err(LiftError::Internal(format!(
                "non-canonical term {other} in FO² matrix"
            ))),
        }
    }

    match matrix {
        Formula::Top => Ok(true),
        Formula::Bottom => Ok(false),
        Formula::Not(g) => Ok(!eval_matrix(g, space, cell_x, cell_y, cross, same_element)?),
        Formula::And(gs) => {
            for g in gs {
                if !eval_matrix(g, space, cell_x, cell_y, cross, same_element)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval_matrix(g, space, cell_x, cell_y, cross, same_element)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => Ok(!eval_matrix(a, space, cell_x, cell_y, cross, same_element)?
            || eval_matrix(b, space, cell_x, cell_y, cross, same_element)?),
        Formula::Iff(a, b) => Ok(eval_matrix(a, space, cell_x, cell_y, cross, same_element)?
            == eval_matrix(b, space, cell_x, cell_y, cross, same_element)?),
        Formula::Equals(a, b) => {
            let ra = role_of(a)?;
            let rb = role_of(b)?;
            Ok(ra == rb || same_element)
        }
        Formula::Atom(atom) => match atom.args.len() {
            0 => Err(LiftError::Internal(format!(
                "nullary atom {} should have been removed by Shannon expansion",
                atom.predicate.name()
            ))),
            1 => {
                let idx = space
                    .unary
                    .iter()
                    .position(|p| p == &atom.predicate)
                    .ok_or_else(|| {
                        LiftError::Internal(format!(
                            "unary predicate {} missing from cell space",
                            atom.predicate.name()
                        ))
                    })?;
                match role_of(&atom.args[0])? {
                    Role::X => Ok(cell_x.unary[idx]),
                    Role::Y => Ok(if same_element {
                        cell_x.unary[idx]
                    } else {
                        cell_y.unary[idx]
                    }),
                }
            }
            2 => {
                let idx = space
                    .binary
                    .iter()
                    .position(|p| p == &atom.predicate)
                    .ok_or_else(|| {
                        LiftError::Internal(format!(
                            "binary predicate {} missing from cell space",
                            atom.predicate.name()
                        ))
                    })?;
                let r0 = role_of(&atom.args[0])?;
                let r1 = role_of(&atom.args[1])?;
                if same_element {
                    return Ok(cell_x.reflexive[idx]);
                }
                Ok(match (r0, r1) {
                    (Role::X, Role::X) => cell_x.reflexive[idx],
                    (Role::Y, Role::Y) => cell_y.reflexive[idx],
                    (Role::X, Role::Y) => {
                        cross
                            .ok_or_else(|| {
                                LiftError::Internal("cross assignment required".to_string())
                            })?
                            .fwd[idx]
                    }
                    (Role::Y, Role::X) => {
                        cross
                            .ok_or_else(|| {
                                LiftError::Internal("cross assignment required".to_string())
                            })?
                            .bwd[idx]
                    }
                })
            }
            a => Err(LiftError::Internal(format!(
                "predicate {} of arity {a} in FO² matrix",
                atom.predicate.name()
            ))),
        },
        Formula::Forall(..) | Formula::Exists(..) => Err(LiftError::Internal(
            "quantifier inside the FO² matrix".to_string(),
        )),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wfomc_logic::algebra::Exact;
    use wfomc_logic::builders::*;
    use wfomc_logic::term::Variable;
    use wfomc_logic::transform::substitute;
    use wfomc_logic::weights::{weight_int, Weights};

    /// The valid cells of a matrix with their exact weights `u` and pair
    /// table `r` under `weights`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn exact_cells(
        matrix: &Formula,
        space: &CellSpace,
        weights: &Weights,
    ) -> Result<(Vec<Cell>, Vec<Weight>, Vec<Vec<Weight>>), LiftError> {
        let cells = build_cell_shapes(matrix, space)?;
        let lifted = AlgebraWeights::lift(&Exact, weights);
        let u = bind_cell_weights_in(&cells, space, &Exact, &lifted);
        let structure = build_pair_structure(matrix, space, &cells)?;
        let table = bind_pair_table_in(&structure, space, &Exact, &lifted);
        Ok((cells, u, table))
    }

    /// Builds the Table 1 matrix over the canonical variables.
    fn table1_matrix() -> Formula {
        let m = or(vec![
            atom("R", &["x"]),
            atom("S", &["x", "y"]),
            atom("T", &["y"]),
        ]);
        let m = substitute(&m, &Variable::new("x"), &Term::var(VAR_X));
        substitute(&m, &Variable::new("y"), &Term::var(VAR_Y))
    }

    fn table1_space() -> CellSpace {
        CellSpace {
            unary: vec![Predicate::new("R", 1), Predicate::new("T", 1)],
            binary: vec![Predicate::new("S", 2)],
        }
    }

    #[test]
    fn valid_cells_of_table1() {
        let (cells, u, _) =
            exact_cells(&table1_matrix(), &table1_space(), &Weights::ones()).unwrap();
        // 8 candidate cells; only R=T=S(x,x)=false violates Ψ(x,x).
        assert_eq!(cells.len(), 7);
        assert!(u.iter().all(|w| *w == weight_int(1)));
    }

    #[test]
    fn cell_weights_multiply_unary_and_reflexive_atoms() {
        let weights = Weights::from_ints([("R", 2, 3), ("T", 5, 7), ("S", 11, 13)]);
        let (cells, u, _) = exact_cells(&table1_matrix(), &table1_space(), &weights).unwrap();
        // The cell with R true, T false, S(x,x) false weighs 2·7·13.
        assert!(cells
            .iter()
            .zip(&u)
            .any(|(c, w)| c.unary == vec![true, false]
                && c.reflexive == vec![false]
                && *w == weight_int(2 * 7 * 13)));
    }

    #[test]
    fn pair_table_counts_cross_assignments() {
        let (cells, _, table) =
            exact_cells(&table1_matrix(), &table1_space(), &Weights::ones()).unwrap();
        // Find the cell where R and T are both true: the matrix is satisfied
        // regardless of the S cross atoms, so r = 4.
        let i = cells
            .iter()
            .position(|c| c.unary == vec![true, true] && c.reflexive == vec![false])
            .unwrap();
        assert_eq!(table[i][i], weight_int(4));
        // The cell with R=false, T=false (and S(x,x)=true to stay valid)
        // paired with itself requires S(x,y) and S(y,x) both true: r = 1.
        let j = cells
            .iter()
            .position(|c| c.unary == vec![false, false] && c.reflexive == vec![true])
            .unwrap();
        assert_eq!(table[j][j], weight_int(1));
        // Mixed pair (R true, T false) with (R false, T true):
        // Ψ(x,y) = R(x) ∨ … = true; Ψ(y,x) = R(y) ∨ S(y,x) ∨ T(x): R(y) is
        // false and T(x) is false, so S(y,x) must be true: r = 2.
        let a = cells
            .iter()
            .position(|c| c.unary == vec![true, false] && c.reflexive == vec![false])
            .unwrap();
        let b = cells
            .iter()
            .position(|c| c.unary == vec![false, true] && c.reflexive == vec![false])
            .unwrap();
        assert_eq!(table[a][b], weight_int(2));
        assert_eq!(table[b][a], weight_int(2));
    }

    #[test]
    fn equality_atoms_distinguish_diagonal_from_pairs() {
        // Matrix: x = y ∨ S(x,y) — diagonal always valid, off-diagonal needs S.
        let m = or(vec![eq(VAR_X, VAR_Y), atom("S", &[VAR_X, VAR_Y])]);
        let space = CellSpace {
            unary: vec![],
            binary: vec![Predicate::new("S", 2)],
        };
        let (cells, _, table) = exact_cells(&m, &space, &Weights::ones()).unwrap();
        assert_eq!(cells.len(), 2);
        // Off-diagonal: S(x,y) ∧ S(y,x) both required → exactly 1 assignment.
        assert_eq!(table[0][0], weight_int(1));
    }
}
