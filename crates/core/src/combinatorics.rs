//! Exact combinatorics on big integers: factorials, binomials, multinomials
//! and compositions. These are the building blocks of every counting formula
//! in the paper (the Table 1 sums, the FO² cell decomposition, the QS4 dynamic
//! program, the γ-acyclic rule (b)).

use std::cell::RefCell;
use std::sync::Arc;

use num_bigint::BigInt;
use num_rational::BigRational;
use num_traits::{One, Zero};

use wfomc_logic::weights::Weight;

thread_local! {
    /// Memoized factorial table, grown on demand: `FACTORIALS[i] = i!`.
    static FACTORIALS: RefCell<Vec<BigInt>> = RefCell::new(vec![BigInt::one()]);
}

/// `n!` as a big integer, memoized in a thread-local growable table so
/// repeated calls (every [`multinomial`] evaluates one factorial per part)
/// cost one table lookup instead of `n` multiplications.
pub fn factorial(n: usize) -> BigInt {
    FACTORIALS.with(|cell| {
        let mut table = cell.borrow_mut();
        while table.len() <= n {
            let next =
                table.last().expect("factorial table is non-empty") * BigInt::from(table.len());
            table.push(next);
        }
        table[n].clone()
    })
}

/// Binomial coefficient `C(n, k)` as a big integer (0 when `k > n`).
pub fn binomial(n: usize, k: usize) -> BigInt {
    if k > n {
        return BigInt::zero();
    }
    let k = k.min(n - k);
    let mut num = BigInt::one();
    let mut den = BigInt::one();
    for i in 0..k {
        num *= BigInt::from(n - i);
        den *= BigInt::from(i + 1);
    }
    num / den
}

/// Multinomial coefficient `n! / (parts₁! · … · parts_k!)`.
///
/// # Panics
/// Panics if the parts do not sum to `n`.
pub fn multinomial(n: usize, parts: &[usize]) -> BigInt {
    assert_eq!(
        parts.iter().sum::<usize>(),
        n,
        "multinomial parts must sum to n"
    );
    let mut result = factorial(n);
    for &p in parts {
        result /= factorial(p);
    }
    result
}

/// Converts a big integer into a rational [`Weight`].
fn weight_from_bigint(i: BigInt) -> Weight {
    BigRational::from_integer(i)
}

/// Binomial coefficient as a [`Weight`].
pub fn binomial_weight(n: usize, k: usize) -> Weight {
    weight_from_bigint(binomial(n, k))
}

/// Multinomial coefficient as a [`Weight`].
pub fn multinomial_weight(n: usize, parts: &[usize]) -> Weight {
    weight_from_bigint(multinomial(n, parts))
}

thread_local! {
    /// Memoized Pascal's triangle, grown on demand and shared via `Arc` so
    /// repeated cell sums (one per Shannon branch, one per solver call) do
    /// not rebuild it.
    static TRIANGLE: RefCell<Arc<Vec<Vec<Weight>>>> =
        RefCell::new(Arc::new(vec![vec![Weight::one()]]));
}

/// Pascal's triangle containing at least rows `0..=n`:
/// `triangle[r][c] = C(r, c)` as [`Weight`]s.
///
/// The FO² cell-sum engine consumes binomials as rationals on its hot path;
/// the rows are computed once per thread (each entry a single big-integer
/// addition), grown on demand, and handed out as a shared `Arc` — no
/// per-hit clone of the rows, far cheaper than re-deriving multinomials per
/// composition. Entries that do get cloned downstream (an engine lifting
/// the rows into its evaluation algebra) are allocation-free for every
/// binomial that fits a machine word, thanks to the vendored bignum's
/// inline small-value representation — `C(n, k)` for `n ≤ 62` never touches
/// the heap. The returned triangle may contain rows beyond `n` from
/// earlier, larger requests.
pub fn binomial_weight_triangle(n: usize) -> Arc<Vec<Vec<Weight>>> {
    TRIANGLE.with(|cell| {
        let mut shared = cell.borrow_mut();
        if shared.len() <= n {
            // Clones the existing rows only if another Arc is still alive.
            let triangle = Arc::make_mut(&mut shared);
            while triangle.len() <= n {
                let prev = triangle.last().expect("triangle is non-empty");
                let r = prev.len();
                let mut row = Vec::with_capacity(r + 1);
                row.push(Weight::one());
                for c in 1..r {
                    row.push(&prev[c - 1] + &prev[c]);
                }
                row.push(Weight::one());
                triangle.push(row);
            }
        }
        shared.clone()
    })
}

/// The number of compositions of `n` into `k` non-negative parts,
/// `C(n+k−1, k−1)`, saturating at `usize::MAX` (used for statistics only).
pub fn num_compositions(n: usize, k: usize) -> usize {
    if k == 0 {
        return usize::from(n == 0);
    }
    let mut acc: u128 = 1;
    for i in 0..(k - 1) {
        acc = acc.saturating_mul((n + k - 1 - i) as u128) / (i + 1) as u128;
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

/// Iterator over all compositions of `n` into exactly `k` non-negative parts,
/// i.e. all vectors `(n₁, …, n_k)` with `Σ nᵢ = n`. There are `C(n+k−1, k−1)`
/// of them. For `k = 0` the iterator yields a single empty composition when
/// `n = 0` and nothing otherwise.
pub fn compositions(n: usize, k: usize) -> Compositions {
    Compositions {
        n,
        k,
        current: None,
        pivot: None,
        done: false,
    }
}

/// See [`compositions`].
pub struct Compositions {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
    /// Rightmost non-zero index among positions `0..k-1` (the invariant
    /// maintained by [`advance_composition`]), or `None` when those positions
    /// are all zero. Tracking it makes the successor O(1) instead of an O(k)
    /// suffix-sum rescan per step.
    pivot: Option<usize>,
    done: bool,
}

/// Advances `current` to the next composition in the stars-and-bars order,
/// maintaining `pivot` = rightmost non-zero index before the last slot.
/// Returns `false` when `current` was the final composition.
fn advance_composition(current: &mut [usize], pivot: &mut Option<usize>) -> bool {
    let k = current.len();
    if k <= 1 {
        return false;
    }
    if current[k - 1] > 0 {
        // Move one unit from the tail into the second-to-last slot.
        current[k - 2] += 1;
        current[k - 1] -= 1;
        *pivot = Some(k - 2);
        return true;
    }
    // The tail is empty: shift one unit left from the pivot and dump the rest
    // of its mass back into the tail. All slots strictly between the pivot and
    // the last are already zero.
    let Some(j) = *pivot else { return false };
    if j == 0 {
        return false;
    }
    let mass = current[j];
    current[j] = 0;
    current[j - 1] += 1;
    current[k - 1] = mass - 1;
    *pivot = Some(j - 1);
    true
}

impl Iterator for Compositions {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        match &mut self.current {
            None => {
                // First composition: everything in the last slot.
                if self.k == 0 {
                    self.done = true;
                    return if self.n == 0 { Some(vec![]) } else { None };
                }
                let mut first = vec![0; self.k];
                first[self.k - 1] = self.n;
                self.current = Some(first.clone());
                Some(first)
            }
            Some(current) => {
                if advance_composition(current, &mut self.pivot) {
                    Some(current.clone())
                } else {
                    self.done = true;
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), BigInt::from(1));
        assert_eq!(factorial(5), BigInt::from(120));
        assert_eq!(factorial(20), BigInt::from(2432902008176640000u64));
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(5, 2), BigInt::from(10));
        assert_eq!(binomial(5, 0), BigInt::from(1));
        assert_eq!(binomial(5, 5), BigInt::from(1));
        assert_eq!(binomial(5, 6), BigInt::from(0));
        assert_eq!(
            binomial(50, 25),
            "126410606437752".parse::<BigInt>().unwrap()
        );
    }

    #[test]
    fn multinomials() {
        assert_eq!(multinomial(4, &[2, 2]), BigInt::from(6));
        assert_eq!(multinomial(6, &[1, 2, 3]), BigInt::from(60));
        assert_eq!(multinomial(0, &[0, 0]), BigInt::from(1));
    }

    #[test]
    #[should_panic(expected = "must sum to n")]
    fn multinomial_bad_parts_panics() {
        multinomial(4, &[1, 1]);
    }

    #[test]
    fn compositions_enumerate_stars_and_bars() {
        let all: Vec<_> = compositions(3, 2).collect();
        assert_eq!(all, vec![vec![0, 3], vec![1, 2], vec![2, 1], vec![3, 0]]);
        // C(n+k-1, k-1) counts.
        assert_eq!(compositions(5, 3).count(), 21);
        assert_eq!(compositions(0, 4).count(), 1);
        assert_eq!(compositions(4, 1).count(), 1);
        assert_eq!(compositions(0, 0).count(), 1);
        assert_eq!(compositions(2, 0).count(), 0);
    }

    #[test]
    fn compositions_each_sum_to_n() {
        for comp in compositions(6, 4) {
            assert_eq!(comp.iter().sum::<usize>(), 6);
            assert_eq!(comp.len(), 4);
        }
        // No duplicates.
        let all: Vec<_> = compositions(6, 4).collect();
        let dedup: std::collections::BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn iterator_yields_each_composition_once_in_order() {
        for (n, k) in [(0usize, 0usize), (0, 3), (3, 1), (5, 3), (6, 4), (2, 0)] {
            let all: Vec<Vec<usize>> = compositions(n, k).collect();
            assert_eq!(
                all.len(),
                num_compositions(n, k),
                "count for n = {n}, k = {k}"
            );
            // Stars-and-bars order is strictly increasing lexicographically,
            // so no composition repeats.
            assert!(
                all.windows(2).all(|w| w[0] < w[1]),
                "order for n = {n}, k = {k}"
            );
        }
    }

    #[test]
    fn composition_counts() {
        assert_eq!(num_compositions(5, 3), 21);
        assert_eq!(num_compositions(0, 4), 1);
        assert_eq!(num_compositions(0, 0), 1);
        assert_eq!(num_compositions(2, 0), 0);
        // C(111, 11): the composition space of the 12-cell scaling benchmark.
        assert_eq!(num_compositions(100, 12), 473_239_787_751_081);
        // Saturates instead of overflowing.
        assert_eq!(num_compositions(1_000_000, 24), usize::MAX);
    }

    #[test]
    fn binomial_triangle_matches_binomial() {
        let triangle = binomial_weight_triangle(12);
        // The memo may hold more rows than requested, never fewer.
        assert!(triangle.len() >= 13);
        for (r, row) in triangle.iter().enumerate().take(13) {
            assert_eq!(row.len(), r + 1);
            for (c, entry) in row.iter().enumerate() {
                assert_eq!(entry, &binomial_weight(r, c), "C({r}, {c})");
            }
        }
        // Growing after a smaller request keeps earlier rows intact.
        let bigger = binomial_weight_triangle(20);
        assert_eq!(bigger[20][10], binomial_weight(20, 10));
        assert_eq!(bigger[12][5], binomial_weight(12, 5));
    }

    #[test]
    fn factorial_memo_is_consistent_after_growth() {
        // Growing the table in one call must not corrupt earlier entries.
        let big = factorial(30);
        assert_eq!(factorial(5), BigInt::from(120));
        assert_eq!(&factorial(29) * BigInt::from(30), big);
    }

    #[test]
    fn weight_conversions() {
        assert_eq!(binomial_weight(4, 2), Weight::from_integer(6.into()));
        assert_eq!(
            multinomial_weight(3, &[1, 1, 1]),
            Weight::from_integer(6.into())
        );
    }
}
