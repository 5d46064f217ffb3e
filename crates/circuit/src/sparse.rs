//! Sparse-structure support for the transient solver.
//!
//! The backward-Euler system matrix `G + C/Δt` of an extracted memory
//! array is sparse and, after node reordering, nearly banded: wordlines,
//! bitlines and RC ladders are chains, and drivers/switches attach at
//! chain ends. This module supplies the pieces the solver needs to
//! exploit that:
//!
//! * [`rcm_order`] — a reverse Cuthill–McKee ordering of the circuit's
//!   connectivity graph, which compresses chain-structured systems to
//!   half-bandwidth 1 regardless of node insertion order;
//! * [`Banded`] — a banded matrix with an in-place LU factorization
//!   (no pivoting; the stamped systems are symmetric and diagonally
//!   dominant, for which elimination without pivoting is stable) and
//!   in-place triangular solves for a panel of right-hand sides
//!   ([`Banded::solve_many`]);
//! * [`Panel`] — a row-major block of right-hand-side columns, laid out
//!   so a substitution sweep touches each row's columns contiguously.
//!
//! Factoring a half-bandwidth-`k` system costs `O(n·k²)` and each solve
//! `O(n·k)`, versus `O(n³)` / `O(n²)` for dense LU — a ~100×
//! reduction for the tridiagonal-ish ladders the golden flow simulates.
//! The factorization keeps the reciprocal of each pivot so the
//! per-step back-substitution multiplies instead of divides; at `k = 1`
//! the division was the single most expensive operation per node-step.

/// Undirected adjacency lists over `n` nodes built from an edge
/// iterator. Self-loops are ignored; duplicate edges are deduplicated.
pub fn adjacency(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    // Collect with duplicates, then sort+dedup each list once. Probing
    // with `contains` on insert is O(deg²) per node, which a high-fanout
    // driver (a wordline touching every bitcell) turns quadratic.
    for (a, b) in edges {
        if a == b || a >= n || b >= n {
            continue;
        }
        adj[a].push(b);
        adj[b].push(a);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Reverse Cuthill–McKee ordering: returns `order` with
/// `order[position] = original node index`. Disconnected components are
/// each seeded from their minimum-degree node.
pub fn rcm_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    // Seed candidates sorted by (degree, index) once, consumed by a
    // rolling cursor. Rescanning all n nodes per component makes a
    // netlist with many isolated nodes (tie-offs after extraction)
    // O(n²); the cursor keeps total seeding cost at O(n log n). The
    // cursor's next unvisited entry is exactly the minimum-degree
    // unvisited node, so orderings are unchanged.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_unstable_by_key(|&i| (adj[i].len(), i));
    let mut cursor = 0;
    while cursor < n {
        let seed = seeds[cursor];
        cursor += 1;
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut next: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            next.sort_unstable_by_key(|&v| (adj[v].len(), v));
            for v in next {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Inverts an ordering: `pos[node] = position of node in order`.
pub fn positions(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0usize; order.len()];
    for (p, &node) in order.iter().enumerate() {
        pos[node] = p;
    }
    pos
}

/// Half-bandwidth of the permuted matrix: `max |pos[a] − pos[b]|` over
/// all edges (0 for a diagonal system).
pub fn half_bandwidth(adj: &[Vec<usize>], pos: &[usize]) -> usize {
    let mut k = 0usize;
    for (a, neighbours) in adj.iter().enumerate() {
        for &b in neighbours {
            k = k.max(pos[a].abs_diff(pos[b]));
        }
    }
    k
}

/// A pivot rejected by [`Banded::factor`]: the permuted row whose pivot
/// magnitude fell below the row-relative threshold, with the offending
/// magnitude itself (so callers can report *how* singular the system
/// was, not just where).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotError {
    /// Permuted row (= column) of the failing pivot.
    pub row: usize,
    /// Magnitude of the rejected pivot.
    pub magnitude: f64,
}

/// Pivot acceptance threshold, relative to the largest magnitude in the
/// pivot's row of the assembled matrix. An absolute threshold is
/// scale-dependent: a femtofarad-scaled system (entries ~1e-15) would
/// false-trip it, while a badly scaled one could pass a garbage pivot.
const REL_PIVOT_TOL: f64 = 1e-12;

/// A square banded matrix of half-bandwidth `k`, stored row-major with
/// `2k+1` slots per row. Doubles as its own LU container after
/// [`Banded::factor`].
#[derive(Debug, Clone)]
pub struct Banded {
    n: usize,
    k: usize,
    data: Vec<f64>,
    /// Reciprocals of the U diagonal, filled by [`Banded::factor`] so
    /// solves multiply instead of divide.
    inv_diag: Vec<f64>,
}

impl Banded {
    /// An `n×n` zero matrix of half-bandwidth `k`.
    pub fn zeros(n: usize, k: usize) -> Banded {
        Banded {
            n,
            k,
            data: vec![0.0; n * (2 * k + 1)],
            inv_diag: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Half-bandwidth.
    pub fn half_bandwidth(&self) -> usize {
        self.k
    }

    /// Reciprocal pivots recorded by [`Banded::factor`] (empty before
    /// factoring). Exposed so batched solvers can interleave several
    /// factorizations' coefficient streams into one sweep.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// True when `other` has the same dimensions and bit-identical
    /// storage (comparing bit patterns, so `-0.0 != 0.0` and matrices
    /// containing NaN never compare equal to anything, including
    /// themselves — a shared factorization must be exactly the same
    /// arithmetic).
    pub fn bitwise_eq(&self, other: &Banded) -> bool {
        self.n == other.n
            && self.k == other.k
            && self.data.len() == other.data.len()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i.abs_diff(j) <= self.k, "({i},{j}) outside band k={}", self.k);
        i * (2 * self.k + 1) + (j + self.k - i)
    }

    /// Entry `(i, j)`; must lie within the band.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Adds `v` to entry `(i, j)`; must lie within the band.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.idx(i, j);
        self.data[idx] += v;
    }

    /// In-place LU factorization without pivoting. Also records the
    /// reciprocal of each pivot for the solves.
    ///
    /// # Errors
    ///
    /// Returns a [`PivotError`] naming the offending row when a pivot
    /// magnitude falls below [`REL_PIVOT_TOL`] of its row's largest
    /// assembled magnitude (a singular system, e.g. a floating node).
    pub fn factor(&mut self) -> Result<(), PivotError> {
        let (n, k) = (self.n, self.k);
        // Row scales from the assembled matrix, before elimination
        // rewrites it: the relative pivot test compares against what
        // the row originally looked like.
        let width = 2 * k + 1;
        let row_scale: Vec<f64> = self
            .data
            .chunks_exact(width)
            .map(|row| row.iter().fold(0.0f64, |m, v| m.max(v.abs())))
            .collect();
        self.inv_diag.clear();
        self.inv_diag.reserve(n);
        for (col, &scale) in row_scale.iter().enumerate() {
            let pivot = self.get(col, col);
            if pivot.abs() < REL_PIVOT_TOL * scale || scale == 0.0 {
                return Err(PivotError {
                    row: col,
                    magnitude: pivot.abs(),
                });
            }
            self.inv_diag.push(1.0 / pivot);
            let row_end = (col + k).min(n.saturating_sub(1));
            for row in col + 1..=row_end {
                let factor = self.get(row, col) / pivot;
                let idx = self.idx(row, col);
                self.data[idx] = factor;
                if factor != 0.0 {
                    for j in col + 1..=row_end {
                        let u = self.get(col, j);
                        if u != 0.0 {
                            let idx = self.idx(row, j);
                            self.data[idx] -= factor * u;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `A X = B` in place for every column of `panel`, given a
    /// prior [`Banded::factor`].
    ///
    /// Each column's arithmetic is independent and executes in the same
    /// order as a one-column panel, so a panel column is bit-identical to
    /// solving that right-hand side by itself — the property the batched
    /// transient path relies on.
    ///
    /// # Panics
    ///
    /// Panics if the panel's row count differs from the matrix
    /// dimension.
    pub fn solve_many(&self, panel: &mut Panel) {
        assert_eq!(panel.rows, self.n, "panel rows must match matrix dim");
        let cols = panel.cols;
        if cols == 0 {
            return;
        }
        self.solve_columns(&mut panel.data, cols);
    }

    /// Shared substitution kernel: `data` holds `n` rows of `w`
    /// interleaved right-hand sides (`data[row * w + col]`).
    fn solve_columns(&self, data: &mut [f64], w: usize) {
        let (n, k) = (self.n, self.k);
        debug_assert_eq!(data.len(), n * w);
        // Forward-substitute through L (unit diagonal).
        for i in 0..n {
            let lo = i.saturating_sub(k);
            for j in lo..i {
                let l = self.get(i, j);
                let (head, tail) = data.split_at_mut(i * w);
                let src = &head[j * w..j * w + w];
                let dst = &mut tail[..w];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d -= l * *s;
                }
            }
        }
        // Back-substitute through U, scaling by the stored reciprocal
        // pivots instead of dividing.
        for i in (0..n).rev() {
            let hi = (i + k).min(n - 1);
            for j in i + 1..=hi {
                let u = self.get(i, j);
                let (head, tail) = data.split_at_mut(j * w);
                let src = &tail[..w];
                let dst = &mut head[i * w..i * w + w];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d -= u * *s;
                }
            }
            let inv = self.inv_diag[i];
            for d in &mut data[i * w..i * w + w] {
                *d *= inv;
            }
        }
    }
}

/// A block of `cols` right-hand-side / solution vectors over `rows`
/// unknowns, stored row-major (`data[row * cols + col]`) so banded
/// substitution sweeps touch each row's columns contiguously.
///
/// Columns can be appended and copied out, which is how the batched
/// transient solver gathers the runs sharing one factorization class
/// into a sub-panel.
#[derive(Debug, Clone)]
pub struct Panel {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Panel {
    /// An empty panel (no columns yet) over `rows` unknowns.
    pub fn new(rows: usize) -> Panel {
        Panel {
            rows,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at (`row`, `col`).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Sets entry (`row`, `col`).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        let w = self.cols;
        self.data[row * w + col] = v;
    }

    /// Flat row-major storage (`rows × cols` entries).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Appends a column, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != rows`.
    pub fn push_col(&mut self, col: &[f64]) -> usize {
        assert_eq!(col.len(), self.rows, "column length must match rows");
        let old = self.cols;
        let new = old + 1;
        let mut data = Vec::with_capacity(self.rows * new);
        for (r, &v) in col.iter().enumerate() {
            data.extend_from_slice(&self.data[r * old..(r + 1) * old]);
            data.push(v);
        }
        self.data = data;
        self.cols = new;
        old
    }

    /// Copies column `col` out into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows`.
    pub fn copy_col(&self, col: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "output length must match rows");
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.data[r * self.cols + col];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Banded {
        /// Solves `A x = b` in place given a prior [`Banded::factor`] —
        /// the one-right-hand-side reference `solve_many` is checked
        /// against.
        fn solve(&self, b: &mut [f64]) {
            debug_assert_eq!(b.len(), self.n);
            self.solve_columns(b, 1);
        }
    }

    #[test]
    fn rcm_compresses_a_chain_with_appended_driver() {
        // Chain 0-1-2-3 plus a "driver" node 4 attached to node 0 — the
        // `driven_ladder` shape, whose natural order has bandwidth n−1.
        let adj = adjacency(5, [(0, 1), (1, 2), (2, 3), (4, 0)].into_iter());
        let order = rcm_order(&adj);
        let pos = positions(&order);
        assert_eq!(half_bandwidth(&adj, &pos), 1);
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        let adj = adjacency(6, [(0, 1), (2, 3), (3, 4)].into_iter());
        let order = rcm_order(&adj);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        assert!(half_bandwidth(&adj, &positions(&order)) <= 1);
    }

    #[test]
    fn adjacency_dedups_and_handles_high_fanout_star_quickly() {
        // Regression: `adjacency` used to probe with `Vec::contains` on
        // every insert, making a 1k-fanout star (a wordline driver
        // touching every bitcell) O(deg²). With each edge duplicated the
        // old code walks ~1k-entry lists two million times; the sort+dedup
        // build finishes in well under the suite's patience.
        let n = 1001;
        let star = (1..n).map(|i| (0usize, i)).chain((1..n).map(|i| (0usize, i)));
        let start = std::time::Instant::now();
        let adj = adjacency(n, star);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "high-fanout adjacency took {:?}",
            start.elapsed()
        );
        assert_eq!(adj[0].len(), n - 1, "duplicates must collapse");
        assert_eq!(adj[0], (1..n).collect::<Vec<_>>(), "lists stay sorted");
        for list in &adj[1..] {
            assert_eq!(list, &vec![0usize]);
        }
    }

    #[test]
    fn rcm_many_isolated_components_in_bounded_time() {
        // Regression: seeding each component used to rescan all n nodes,
        // so a netlist of isolated tie-off nodes was O(n²) — 25k isolated
        // nodes cost ~625M probes. The degree-sorted seed cursor keeps it
        // near-linear.
        let n = 25_000;
        let adj = adjacency(n, std::iter::empty());
        let start = std::time::Instant::now();
        let order = rcm_order(&adj);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "many-component RCM took {:?}",
            start.elapsed()
        );
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_seed_choice_matches_min_degree_scan() {
        // Mixed components with distinct degrees: the cursor must seed
        // exactly where the old min-scan did, keeping orderings stable.
        let adj = adjacency(
            9,
            [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)].into_iter(),
        );
        let order = rcm_order(&adj);
        let pos = positions(&order);
        // Node 8 is isolated (degree 0) and must be seeded first; after
        // reversal it therefore lands last.
        assert_eq!(order[8], 8);
        assert!(half_bandwidth(&adj, &pos) <= 2);
    }

    #[test]
    fn banded_factor_solve_matches_hand_solution() {
        // Tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]], b = [1,0,1]:
        // x = [1, 1, 1].
        let mut a = Banded::zeros(3, 1);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        for i in 0..2 {
            a.add(i, i + 1, -1.0);
            a.add(i + 1, i, -1.0);
        }
        a.factor().unwrap();
        let mut b = vec![1.0, 0.0, 1.0];
        a.solve(&mut b);
        for x in b {
            assert!((x - 1.0).abs() < 1e-12, "{x}");
        }
    }

    #[test]
    fn singular_banded_system_reports_row_and_magnitude() {
        let mut a = Banded::zeros(2, 0);
        a.add(0, 0, 1.0);
        assert_eq!(
            a.factor(),
            Err(PivotError {
                row: 1,
                magnitude: 0.0
            })
        );
    }

    #[test]
    fn pivot_threshold_is_scale_relative() {
        // Femtofarad-scaled diagonal (~1e-15): far below the old 1e-18
        // guard's comfort zone once entries mix with ~1e-15 off-diagonals,
        // but perfectly well-conditioned relative to its own rows.
        let mut a = Banded::zeros(3, 1);
        for i in 0..3 {
            a.add(i, i, 2e-15);
        }
        for i in 0..2 {
            a.add(i, i + 1, -1e-15);
            a.add(i + 1, i, -1e-15);
        }
        a.factor().expect("tiny but well-scaled system must factor");
        let mut b = vec![1e-15, 0.0, 1e-15];
        a.solve(&mut b);
        for x in &b {
            assert!((x - 1.0).abs() < 1e-9, "{x}");
        }

        // A pivot ~1e-14 of its own row's scale is numerically garbage
        // even though it clears any absolute threshold the old code
        // would have used.
        let mut bad = Banded::zeros(2, 1);
        bad.add(0, 0, 1.0);
        bad.add(1, 0, 1e6);
        bad.add(1, 1, 1e-8);
        let err = bad.factor().unwrap_err();
        assert_eq!(err.row, 1);
        assert!(err.magnitude > 0.0);
    }

    #[test]
    fn zero_bandwidth_diagonal_system() {
        let mut a = Banded::zeros(3, 0);
        for i in 0..3 {
            a.add(i, i, (i + 1) as f64);
        }
        a.factor().unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        a.solve(&mut b);
        assert_eq!(b, vec![1.0, 1.0, 1.0]);
    }

    fn tridiag(n: usize) -> Banded {
        let mut a = Banded::zeros(n, 1);
        for i in 0..n {
            a.add(i, i, 2.5);
        }
        for i in 0..n - 1 {
            a.add(i, i + 1, -1.0);
            a.add(i + 1, i, -1.0);
        }
        a
    }

    #[test]
    fn solve_many_columns_are_bit_identical_to_lone_solves() {
        let n = 17;
        let mut a = tridiag(n);
        a.factor().unwrap();
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|c| (0..n).map(|i| ((i * 7 + c * 3) % 11) as f64 - 4.0).collect())
            .collect();
        let mut panel = Panel::new(n);
        for b in &rhs {
            panel.push_col(b);
        }
        a.solve_many(&mut panel);
        for (c, b) in rhs.iter().enumerate() {
            let mut lone = b.clone();
            a.solve(&mut lone);
            for (i, v) in lone.iter().enumerate() {
                assert_eq!(panel.get(i, c).to_bits(), v.to_bits(), "row {i} col {c}");
            }
        }
    }

    #[test]
    fn panel_push_and_copy_preserve_columns() {
        let mut p = Panel::new(3);
        p.push_col(&[1.0, 2.0, 3.0]);
        p.push_col(&[4.0, 5.0, 6.0]);
        p.push_col(&[7.0, 8.0, 9.0]);
        assert_eq!(p.cols(), 3);
        let mut col = [0.0; 3];
        p.copy_col(0, &mut col);
        assert_eq!(col, [1.0, 2.0, 3.0]);
        p.copy_col(2, &mut col);
        assert_eq!(col, [7.0, 8.0, 9.0]);
    }

    #[test]
    fn bitwise_eq_distinguishes_values_and_shapes() {
        let a = tridiag(4);
        let b = tridiag(4);
        assert!(a.bitwise_eq(&b));
        let mut c = tridiag(4);
        c.add(2, 2, 1e-9);
        assert!(!a.bitwise_eq(&c));
        assert!(!a.bitwise_eq(&tridiag(5)));
    }
}
