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
//!
//! Off the diagonal the matrix reads only part of a cell: the unary atoms it
//! mentions and the reflexive atoms `B(v,v)` it mentions. Cells that agree on
//! those bits form one *row class*: their pair rows are identical, so the
//! cross assignments are enumerated once per class pair, not once per cell
//! pair.

use std::collections::{BTreeMap, HashMap};

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

/// A valid 1-type: a weight-free shape. Its weight
/// `u_c = Π_U w-or-w̄(U) · Π_B w-or-w̄(B)` over its unary and reflexive atoms
/// depends on the weight function, so [`bind_cell_weights_in`] computes it
/// per binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Truth values of the unary atoms, aligned with [`CellSpace::unary`].
    pub unary: Vec<bool>,
    /// Truth values of the reflexive binary atoms, aligned with
    /// [`CellSpace::binary`].
    pub reflexive: Vec<bool>,
}

/// An assignment to the cross atoms of an ordered pair `(x, y)`.
struct CrossAssign {
    /// `B_k(x, y)` values.
    fwd: Vec<bool>,
    /// `B_k(y, x)` values.
    bwd: Vec<bool>,
}

/// The weight-independent part of the pair table: the row class of every
/// valid cell and, for every unordered pair of row classes `a ≤ b`, the
/// multiset of *signatures* of the cross assignments satisfying
/// `Ψ(x,y) ∧ Ψ(y,x)`. The cell pair `(i, j)` reads the multiset of its class
/// pair.
///
/// A satisfying assignment to the `2b` cross atoms contributes
/// `Π_t w_t^{a_t} · w̄_t^{2 − a_t}` where `a_t ∈ {0, 1, 2}` counts how many of
/// `B_t(x,y)`, `B_t(y,x)` are true — so only the signature `(a_1, …, a_b)`
/// matters, and the up-to-`4^b` assignments collapse into at most `3^b`
/// signatures with multiplicities.
///
/// Finding the satisfying assignments is the expensive part of building the
/// table (it evaluates the matrix `2^{2b}` times per class pair); summing the
/// signature weights ([`bind_pair_table_in`]) is cheap and can be redone per
/// weight function, which is what lets a [`crate::plan::Plan`] analyze a
/// sentence once and re-weight it many times.
#[derive(Clone, Debug)]
pub struct PairStructure {
    /// The row class of every cell, in cell order. Every class has a member.
    class_of: Vec<usize>,
    /// `sat[a][b - a]` holds the signature multiset of the class pair
    /// `(a, b)`, `a ≤ b`.
    sat: Vec<Vec<SignatureMultiset>>,
}

/// The satisfying cross assignments of one cell pair, grouped by signature:
/// `(per-predicate true-counts, multiplicity)` in increasing signature order.
pub(crate) type SignatureMultiset = Vec<(Vec<u8>, u64)>;

impl PairStructure {
    /// Number of row classes.
    pub fn num_classes(&self) -> usize {
        self.sat.len()
    }

    /// The row class of every cell, in cell order.
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// Number of cells in every row class.
    fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.num_classes()];
        for &a in &self.class_of {
            sizes[a] += 1;
        }
        sizes
    }

    /// The signature multiset of the class pair `(a, b)`, in either order.
    fn signatures(&self, a: usize, b: usize) -> &SignatureMultiset {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        &self.sat[a][b - a]
    }

    /// Total number of satisfying cross assignments over all unordered cell
    /// pairs `i ≤ j`.
    pub fn num_satisfying(&self) -> usize {
        let sizes = self.class_sizes();
        let mut total = 0;
        for (a, row) in self.sat.iter().enumerate() {
            for (d, signatures) in row.iter().enumerate() {
                let cell_pairs = if d == 0 {
                    sizes[a] * (sizes[a] + 1) / 2
                } else {
                    sizes[a] * sizes[a + d]
                };
                let per_pair = signatures.iter().fold(0usize, |sum, (_, count)| {
                    sum.saturating_add(*count as usize)
                });
                total = cell_pairs.saturating_mul(per_pair).saturating_add(total);
            }
        }
        total
    }

    /// Per-cell count of *structural* zeros: cells `j` (the cell itself
    /// included once) whose pair with the cell has no satisfying cross
    /// assignment at all, so its bound table entry is zero for every weight
    /// function. Unlike the bound entries these counts are weight-independent,
    /// so a cell order derived from them is shared by every weight vector —
    /// which is what lets order-sensitive (float) algebras front-load
    /// constrained cells without breaking bit-for-bit lane/scalar agreement.
    pub fn structural_zero_counts(&self) -> Vec<usize> {
        let sizes = self.class_sizes();
        let classes = self.num_classes();
        let class_zeros: Vec<usize> = (0..classes)
            .map(|a| {
                (0..classes)
                    .filter(|&b| self.signatures(a, b).is_empty())
                    .map(|b| sizes[b])
                    .sum()
            })
            .collect();
        self.class_of.iter().map(|&a| class_zeros[a]).collect()
    }

    /// Reindexes the cells by `perm` (new index `a` maps to old cell
    /// `perm[a]`). The classes and their pair table stay as they are.
    pub fn permute(&self, perm: &[usize]) -> PairStructure {
        debug_assert_eq!(perm.len(), self.class_of.len());
        PairStructure {
            class_of: perm.iter().map(|&i| self.class_of[i]).collect(),
            sat: self.sat.clone(),
        }
    }

    /// The triangular class-pair signature table, row-major, for the
    /// snapshot codec.
    pub(crate) fn sat_rows(&self) -> &[Vec<SignatureMultiset>] {
        &self.sat
    }

    /// Rebuilds a structure from decoded parts, validating the triangular
    /// layout (`sat[a].len() == c − a`), that every signature has one count
    /// in `0..=2` per binary predicate, that every class index is below `c`
    /// and that every class has a member cell.
    pub(crate) fn from_parts(
        class_of: Vec<usize>,
        sat: Vec<Vec<SignatureMultiset>>,
        binary: usize,
    ) -> Result<PairStructure, &'static str> {
        let classes = sat.len();
        if sat
            .iter()
            .enumerate()
            .any(|(a, row)| row.len() != classes - a)
        {
            return Err("class-pair table is not triangular");
        }
        let well_formed = |signature: &Vec<u8>| {
            signature.len() == binary && signature.iter().all(|&count| count <= 2)
        };
        if !sat
            .iter()
            .flatten()
            .flatten()
            .all(|(sig, _)| well_formed(sig))
        {
            return Err("signature does not match the binary predicates");
        }
        let mut seen = vec![false; classes];
        for &a in &class_of {
            *seen.get_mut(a).ok_or("row class index out of range")? = true;
        }
        if seen.contains(&false) {
            return Err("row class without a member cell");
        }
        Ok(PairStructure { class_of, sat })
    }
}

/// Enumerates the valid cell *shapes* of a matrix: the truth assignments
/// satisfying the diagonal constraint `Ψ(x, x)`. [`bind_cell_weights_in`]
/// computes their weights under a weight function.
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
        let candidate = Cell { unary, reflexive };
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

/// The cell bits the matrix reads off the diagonal: the unary predicates it
/// mentions and the binary predicates it mentions with a repeated variable
/// (`B(v,v)`), as masks aligned with `space`.
fn off_diagonal_reads(matrix: &Formula, space: &CellSpace) -> (Vec<bool>, Vec<bool>) {
    let mut unary = vec![false; space.unary.len()];
    let mut reflexive = vec![false; space.binary.len()];
    matrix.visit(&mut |node| {
        let Formula::Atom(atom) = node else { return };
        let (reads, predicates) = match atom.args.as_slice() {
            [_] => (&mut unary, &space.unary),
            [a, b] if a == b => (&mut reflexive, &space.binary),
            _ => return,
        };
        if let Some(i) = predicates.iter().position(|p| p == &atom.predicate) {
            reads[i] = true;
        }
    });
    (unary, reflexive)
}

/// Groups the cells into row classes: cells that agree on every bit the
/// matrix reads off the diagonal. Returns every cell's class and every
/// class's first member, classes numbered by first occurrence.
fn row_classes(matrix: &Formula, space: &CellSpace, cells: &[Cell]) -> (Vec<usize>, Vec<usize>) {
    let (unary, reflexive) = off_diagonal_reads(matrix, space);
    let mut index: HashMap<Vec<bool>, usize> = HashMap::new();
    let mut representatives = Vec::new();
    let class_of = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let key: Vec<bool> = (cell.unary.iter().zip(&unary))
                .chain(cell.reflexive.iter().zip(&reflexive))
                .filter(|(_, &read)| read)
                .map(|(&bit, _)| bit)
                .collect();
            *index.entry(key).or_insert_with(|| {
                representatives.push(i);
                representatives.len() - 1
            })
        })
        .collect();
    (class_of, representatives)
}

/// Finds, for every unordered pair of row classes, the cross assignments
/// satisfying `Ψ(x,y) ∧ Ψ(y,x)` — the weight-independent part of the pair
/// table. Each class pair is enumerated once, on the classes' first members.
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
    let (class_of, representatives) = row_classes(matrix, space, cells);
    let mut sat = Vec::with_capacity(representatives.len());
    for (a, &i) in representatives.iter().enumerate() {
        let row = representatives[a..]
            .iter()
            .map(|&j| pair_signatures(matrix, space, &cells[i], &cells[j]))
            .collect::<Result<_, _>>()?;
        sat.push(row);
    }
    Ok(PairStructure { class_of, sat })
}

/// The signature multiset of the cross assignments satisfying
/// `Ψ(x,y) ∧ Ψ(y,x)` with `x` in `cell_x` and `y` in `cell_y`.
fn pair_signatures(
    matrix: &Formula,
    space: &CellSpace,
    cell_x: &Cell,
    cell_y: &Cell,
) -> Result<SignatureMultiset, LiftError> {
    let b = space.binary.len();
    let mut signatures: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for code in 0u64..(1u64 << (2 * b)) {
        let fwd: Vec<bool> = (0..b).map(|t| code >> t & 1 == 1).collect();
        let bwd: Vec<bool> = (0..b).map(|t| code >> (b + t) & 1 == 1).collect();
        let cross = CrossAssign {
            fwd: fwd.clone(),
            bwd: bwd.clone(),
        };
        let cross_swapped = CrossAssign { fwd: bwd, bwd: fwd };
        if !eval_matrix(matrix, space, cell_x, cell_y, Some(&cross), false)? {
            continue;
        }
        if !eval_matrix(matrix, space, cell_y, cell_x, Some(&cross_swapped), false)? {
            continue;
        }
        let signature: Vec<u8> = (0..b)
            .map(|t| (code >> t & 1) as u8 + (code >> (b + t) & 1) as u8)
            .collect();
        *signatures.entry(signature).or_insert(0) += 1;
    }
    Ok(signatures.into_iter().collect())
}

/// Sums the weights of the satisfying cross assignments of every class pair
/// in an arbitrary [`Algebra`], then fills the symmetric cell table `r_{ij}`
/// for a weight function from the class table. Per binary predicate only the
/// three products `w̄²`, `w·w̄`, `w²` exist, so each signature costs `b`
/// multiplications instead of `2b` per raw assignment.
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
    let classes: Vec<Vec<A::Elem>> = structure
        .sat
        .iter()
        .map(|row| {
            row.iter()
                .map(|signatures| {
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
                    total
                })
                .collect()
        })
        .collect();
    let class_of = &structure.class_of;
    class_of
        .iter()
        .map(|&a| {
            class_of
                .iter()
                .map(|&b| {
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    classes[a][b - a].clone()
                })
                .collect()
        })
        .collect()
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
    use proptest::prelude::*;
    use wfomc_logic::algebra::{Exact, LogF64, LogF64xN, LOG_LANES};
    use wfomc_logic::builders::*;
    use wfomc_logic::term::Variable;
    use wfomc_logic::transform::substitute;
    use wfomc_logic::weights::{weight_int, Weights};

    /// The per-cell-pair enumeration the class form replaces, kept as the
    /// differential oracle: every cell is its own row class.
    pub(crate) fn build_pair_structure_per_pair(
        matrix: &Formula,
        space: &CellSpace,
        cells: &[Cell],
    ) -> Result<PairStructure, LiftError> {
        let mut sat = Vec::with_capacity(cells.len());
        for (i, cell_x) in cells.iter().enumerate() {
            let row = cells[i..]
                .iter()
                .map(|cell_y| pair_signatures(matrix, space, cell_x, cell_y))
                .collect::<Result<_, _>>()?;
            sat.push(row);
        }
        Ok(PairStructure {
            class_of: (0..cells.len()).collect(),
            sat,
        })
    }

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

    #[test]
    fn reflexive_atoms_the_matrix_mentions_split_classes() {
        // S(x,x) ∨ S(x,y): only cells with S(x,x) true are valid, so the
        // S(x,x) bit the matrix reads is the same in all of them; E(x,x),
        // which the matrix never mentions, does not split them either.
        let space = CellSpace {
            unary: vec![],
            binary: vec![Predicate::new("S", 2), Predicate::new("E", 2)],
        };
        let s_xx = atom("S", &[VAR_X, VAR_X]);
        let s_xy = atom("S", &[VAR_X, VAR_Y]);
        let matrix = or(vec![s_xx.clone(), s_xy.clone()]);
        let cells = build_cell_shapes(&matrix, &space).unwrap();
        assert_eq!(cells.len(), 2, "S(x,x) true, E(x,x) free");
        assert_eq!(
            build_pair_structure(&matrix, &space, &cells)
                .unwrap()
                .num_classes(),
            1
        );
        // x = y ∨ (S(x,x) ∧ S(x,y)): every cell is valid, and the row of a
        // cell depends on its S(x,x) bit.
        let matrix = or(vec![eq(VAR_X, VAR_Y), and(vec![s_xx, s_xy])]);
        let cells = build_cell_shapes(&matrix, &space).unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            build_pair_structure(&matrix, &space, &cells)
                .unwrap()
                .num_classes(),
            2
        );
    }

    #[test]
    fn from_parts_rejects_bad_class_maps_and_layouts() {
        let table = |signature: Vec<u8>| vec![vec![vec![(signature, 1)], vec![]], vec![vec![]]];
        assert!(PairStructure::from_parts(vec![0, 1, 1], table(vec![2]), 1).is_ok());
        assert_eq!(
            PairStructure::from_parts(vec![0, 2], table(vec![2]), 1).unwrap_err(),
            "row class index out of range"
        );
        assert_eq!(
            PairStructure::from_parts(vec![1, 1], table(vec![2]), 1).unwrap_err(),
            "row class without a member cell"
        );
        assert_eq!(
            PairStructure::from_parts(vec![0, 1], vec![vec![vec![]], vec![vec![]]], 1).unwrap_err(),
            "class-pair table is not triangular"
        );
        for signature in [vec![3], vec![1, 1], vec![]] {
            assert_eq!(
                PairStructure::from_parts(vec![0, 1], table(signature), 1).unwrap_err(),
                "signature does not match the binary predicates"
            );
        }
    }

    /// A random quantifier-free FO² matrix over `unary` unary predicates,
    /// `binary` binary predicates and a Skolem predicate `Sk`, drawn from
    /// `picks`: a conjunction of clauses over unary, reflexive, cross and
    /// equality literals, plus a Skolemized piece `¬clause ∨ Sk(x)`.
    fn random_matrix(unary: usize, binary: usize, picks: &[u64]) -> (Formula, CellSpace) {
        let (x, y) = (VAR_X, VAR_Y);
        let mut atoms = vec![eq(x, y)];
        for u in 0..unary {
            let name = format!("U{u}");
            atoms.push(atom(&name, &[x]));
            atoms.push(atom(&name, &[y]));
        }
        for b in 0..binary {
            let name = format!("B{b}");
            for args in [[x, x], [y, y], [x, y], [y, x], [x, y], [y, x]] {
                atoms.push(atom(&name, &args));
            }
        }
        let mut picks = picks.iter().copied();
        let literal = |picks: &mut dyn Iterator<Item = u64>| {
            let pick = picks.next().unwrap_or(0);
            let a = atoms[(pick >> 1) as usize % atoms.len()].clone();
            if pick & 1 == 1 {
                not(a)
            } else {
                a
            }
        };
        let clause = |picks: &mut dyn Iterator<Item = u64>| {
            let len = 1 + picks.next().unwrap_or(0) % 3;
            or((0..len).map(|_| literal(&mut *picks)).collect())
        };
        let mut pieces: Vec<Formula> = (0..2).map(|_| clause(&mut picks)).collect();
        pieces.push(or(vec![not(clause(&mut picks)), atom("Sk", &[x])]));
        let space = CellSpace {
            unary: (0..unary)
                .map(|u| Predicate::new(format!("U{u}"), 1))
                .chain([Predicate::new("Sk", 1)])
                .collect(),
            binary: (0..binary)
                .map(|b| Predicate::new(format!("B{b}"), 2))
                .collect(),
        };
        (and(pieces), space)
    }

    /// Integer weight pairs (zero and negative included) for every predicate
    /// of `space`, `Sk` at its Skolem pair (1, −1).
    fn random_weights(space: &CellSpace, picks: &[i64]) -> Weights {
        let mut weights = Weights::ones();
        let mut picks = picks.iter().cycle();
        for p in space.unary.iter().chain(&space.binary) {
            let (pos, neg) = if p.name() == "Sk" {
                (1, -1)
            } else {
                (*picks.next().unwrap(), *picks.next().unwrap())
            };
            weights.set(p.name(), weight_int(pos), weight_int(neg));
        }
        weights
    }

    /// Bit-level identity of two log-space tables.
    fn log_bits(table: &[Vec<wfomc_logic::algebra::LogWeight>]) -> Vec<(i8, u64)> {
        table
            .iter()
            .flatten()
            .map(|w| (w.signum(), w.ln_abs().to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The class-built structure binds to the per-pair oracle's table:
        /// equal in `Exact`, bit-identical in `LogF64` and every lane of
        /// `LogF64xN`, with the same satisfying count and structural zeros.
        #[test]
        fn class_form_matches_the_per_pair_oracle(
            binary in 1usize..5,
            unary in 0usize..3,
            picks in proptest::collection::vec(0u64..1024, 24..25),
            weight_picks in proptest::collection::vec(-2i64..4, 16..17),
        ) {
            // Keep the oracle's k²·4^b evaluations small: at most 5 cell bits
            // with four binary predicates.
            let unary = unary.min(4usize.saturating_sub(binary));
            let (matrix, space) = random_matrix(unary, binary, &picks);
            let cells = build_cell_shapes(&matrix, &space).unwrap();
            let classes = build_pair_structure(&matrix, &space, &cells).unwrap();
            let oracle = build_pair_structure_per_pair(&matrix, &space, &cells).unwrap();
            prop_assert!(classes.num_classes() <= cells.len().max(1));
            prop_assert_eq!(classes.num_satisfying(), oracle.num_satisfying());
            prop_assert_eq!(classes.structural_zero_counts(), oracle.structural_zero_counts());

            let weights = random_weights(&space, &weight_picks);
            let exact = AlgebraWeights::lift(&Exact, &weights);
            prop_assert_eq!(
                bind_pair_table_in(&classes, &space, &Exact, &exact),
                bind_pair_table_in(&oracle, &space, &Exact, &exact)
            );
            let log = AlgebraWeights::lift(&LogF64, &weights);
            prop_assert_eq!(
                log_bits(&bind_pair_table_in(&classes, &space, &LogF64, &log)),
                log_bits(&bind_pair_table_in(&oracle, &space, &LogF64, &log))
            );
            let sweep: Vec<Weights> = (0..LOG_LANES)
                .map(|lane| {
                    let shifted: Vec<i64> = weight_picks.iter().map(|w| w + lane as i64 - 2).collect();
                    random_weights(&space, &shifted)
                })
                .collect();
            let lanes = LogF64xN::pack_weights(&sweep.iter().collect::<Vec<_>>());
            let by_class = bind_pair_table_in(&classes, &space, &LogF64xN, &lanes);
            let by_pair = bind_pair_table_in(&oracle, &space, &LogF64xN, &lanes);
            for lane in 0..LOG_LANES {
                let pick = |table: &[Vec<wfomc_logic::algebra::LogWeightxN>]| -> Vec<Vec<_>> {
                    table.iter().map(|row| row.iter().map(|w| w.lane(lane)).collect()).collect()
                };
                prop_assert_eq!(log_bits(&pick(&by_class)), log_bits(&pick(&by_pair)), "lane {}", lane);
            }
        }
    }
}
