//! Weighted greedy construction and local search for MWIS.
//!
//! Used to obtain lower bounds for the exact solver and as the fallback when
//! an instance exceeds the exact-search budget. The local search combines the
//! classic moves from practical MWIS solvers: free-vertex insertion,
//! `(1,2)`-swaps, and weighted `(ω,1)` insertions that evict a heavier
//! vertex's lighter selected neighborhood, with random perturbation restarts.
//!
//! The search asks two adjacency questions in its hot loops: which selected
//! vertices block `v`, and which is the first non-adjacent pair among a
//! selected vertex's swap candidates. On a dense graph it answers both from
//! bit rows, one `⌈n/64⌉`-word row per vertex built once per call, with one
//! AND per word against a bit set of the selection or of the candidates.
//! The rows are built only when they take no more memory than the adjacency
//! lists (`n·⌈n/64⌉ ≤ m`); sparser graphs answer the same questions from the
//! lists. Both ways yield the same vertices in the same ascending order, so
//! every move, float sum and random draw, and thus every returned solution,
//! is the same either way. A scratch buffer lives in the search, so its
//! sweeps allocate nothing.
//!
//! Most blocked vertices are far lighter than their selected neighbors, so
//! the insertion sweep first asks a cheaper question. Each insertion and
//! removal already walks the vertex's neighbors to count their selected
//! neighbors; it also keeps, per vertex, a running sum of those neighbors'
//! weights and a bound on that sum's rounding error, both reset to exactly
//! 0 when the count reaches 0. A vertex whose weight is below the sum minus
//! its error, shrunk by the rounding of a `k`-term sum, provably fails the
//! eviction test, and the sweep skips it without listing its blockers
//! (`Search::eviction_fails` holds the proof). Every other vertex runs the
//! exact ascending sum and its 1e-12 margin unchanged, so the skip too
//! leaves every move and every returned solution as it was.

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Greedy MWIS: repeatedly select the vertex maximizing
/// `w(v) / (deg_alive(v) + 1)` among vertices with no selected neighbor.
///
/// Runs in `O(n log n + m)` using a lazily-revalidated priority heap.
pub fn greedy(g: &Graph) -> Vec<u32> {
    let n = g.len();
    let mut alive_deg: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let mut state = vec![VertexState::Free; n];
    let mut heap: std::collections::BinaryHeap<HeapEntry> = (0..n as u32)
        .filter(|&v| g.weight(v) > 0.0)
        .map(|v| HeapEntry::new(v, g.weight(v), alive_deg[v as usize]))
        .collect();
    let mut solution = Vec::new();
    while let Some(entry) = heap.pop() {
        let v = entry.vertex;
        if state[v as usize] != VertexState::Free {
            continue;
        }
        // Lazy revalidation: the degree may have dropped since insertion.
        if alive_deg[v as usize] != entry.degree {
            heap.push(HeapEntry::new(v, g.weight(v), alive_deg[v as usize]));
            continue;
        }
        state[v as usize] = VertexState::Selected;
        solution.push(v);
        for &u in g.neighbors(v) {
            if state[u as usize] == VertexState::Free {
                state[u as usize] = VertexState::Excluded;
                for &t in g.neighbors(u) {
                    alive_deg[t as usize] = alive_deg[t as usize].saturating_sub(1);
                }
            }
        }
    }
    solution.sort_unstable();
    solution
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VertexState {
    Free,
    Selected,
    Excluded,
}

struct HeapEntry {
    score: f64,
    vertex: u32,
    degree: usize,
}

impl HeapEntry {
    fn new(vertex: u32, weight: f64, degree: usize) -> Self {
        Self {
            score: weight / (degree as f64 + 1.0),
            vertex,
            degree,
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.vertex == other.vertex
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// Improves `init` (must be independent) by local search and returns the best
/// solution found within `max_rounds` perturbation rounds.
///
/// Deterministic for a fixed `seed`.
pub fn local_search(g: &Graph, init: &[u32], max_rounds: usize, seed: u64) -> Vec<u32> {
    let mut search = Search::new(g, init);
    let mut rng = StdRng::seed_from_u64(seed);
    search.improve_to_local_optimum();
    let mut best = search.solution();
    let mut best_weight = search.weight;
    for _ in 0..max_rounds {
        search.perturb(&mut rng);
        search.improve_to_local_optimum();
        if search.weight > best_weight + 1e-12 {
            best_weight = search.weight;
            best = search.solution();
        }
    }
    best
}

/// Repairs a possibly-stale solution `hint` against the *current* graph and
/// improves it with [`local_search`]: hint vertices that fell out of range,
/// lost their weight, or now conflict are dropped (heaviest-first retention,
/// ties by id), the surviving independent subset seeds the search, and an
/// empty surviving hint falls back to a fresh [`greedy`] construction.
///
/// This is the entry point for incremental callers re-solving a locally
/// changed conflict graph: pass the previous solution (restricted to the
/// region being re-solved) as the hint. Deterministic for a fixed `seed`,
/// and a pure function of `(g, hint, max_rounds, seed)`.
pub fn repair(g: &Graph, hint: &[u32], max_rounds: usize, seed: u64) -> Vec<u32> {
    let n = g.len() as u32;
    let mut order: Vec<u32> = hint
        .iter()
        .copied()
        .filter(|&v| v < n && g.weight(v) > 0.0)
        .collect();
    order.sort_unstable();
    order.dedup();
    order.sort_by(|&a, &b| g.weight(b).total_cmp(&g.weight(a)).then(a.cmp(&b)));
    let mut kept: Vec<u32> = Vec::with_capacity(order.len());
    for v in order {
        if kept.iter().all(|&u| !g.has_edge(u, v)) {
            kept.push(v);
        }
    }
    if kept.is_empty() {
        kept = greedy(g);
    }
    kept.sort_unstable();
    local_search(g, &kept, max_rounds, seed)
}

/// Local-search state: the selection, per-vertex selected-neighbour counts
/// and running blocked weights, optional bit rows, and a scratch buffer
/// reused by every sweep, so that a sweep allocates nothing.
struct Search<'g> {
    g: &'g Graph,
    in_sol: Vec<bool>,
    /// Number of selected neighbors per vertex.
    sel_neighbors: Vec<u32>,
    /// Running weight of each vertex's selected neighbors.
    blocked: Vec<Blocked>,
    weight: f64,
    /// Present when the graph passes the row rule ([`BitRows::build`]).
    rows: Option<BitRows>,
    /// Scratch: one vertex's blockers or swap candidates, ascending.
    buf: Vec<u32>,
}

/// The adjacency matrix as one bit row of `words` `u64`s per vertex (bit
/// `u` of row `v` is set iff `{u, v}` is an edge), plus the selection and
/// the current swap candidates as bit sets of the same width.
struct BitRows {
    words: usize,
    rows: Vec<u64>,
    sel: Vec<u64>,
    cand: Vec<u64>,
}

impl BitRows {
    /// Builds the rows when they take no more memory than the graph's
    /// adjacency lists: `n·⌈n/64⌉` words of 8 bytes against `2m` entries of
    /// 4 bytes, i.e. `n·⌈n/64⌉ ≤ m`. Sparser graphs get `None` and are
    /// searched through the lists.
    fn build(g: &Graph) -> Option<Self> {
        let n = g.len();
        let words = n.div_ceil(64);
        if n == 0 || n * words > g.num_edges() {
            return None;
        }
        let mut rows = vec![0u64; n * words];
        for (v, row) in rows.chunks_exact_mut(words).enumerate() {
            for &u in g.neighbors(v as u32) {
                set_bit(row, u);
            }
        }
        Some(Self {
            words,
            rows,
            sel: vec![0; words],
            cand: vec![0; words],
        })
    }

    fn row(&self, v: u32) -> &[u64] {
        &self.rows[v as usize * self.words..][..self.words]
    }
}

/// A running float sum of the weights of one vertex's selected neighbors,
/// kept in insertion and removal order, with a bound `err` on its distance
/// from the exact real sum. Both are exactly 0 while the vertex has no
/// selected neighbor.
#[derive(Clone, Copy, Default)]
struct Blocked {
    sum: f64,
    err: f64,
}

impl Blocked {
    /// Adds `w` (negative to take it away). Rounding moves the new sum by at
    /// most `ε·|sum|`; the bound grows by `2ε·(|sum| + err)`, which also
    /// covers the rounding of the bound's own addition.
    fn shift(&mut self, w: f64) {
        self.sum += w;
        self.err += 2.0 * f64::EPSILON * (self.sum.abs() + self.err);
    }
}

fn set_bit(bits: &mut [u64], v: u32) {
    bits[v as usize / 64] |= 1 << (v % 64);
}

fn clear_bit(bits: &mut [u64], v: u32) {
    bits[v as usize / 64] &= !(1 << (v % 64));
}

/// Appends the vertices of a bit set (word `i` holds `64i..64i + 63`) to
/// `out` in ascending order.
fn push_bits(out: &mut Vec<u32>, words: impl Iterator<Item = u64>) {
    for (i, mut word) in words.enumerate() {
        while word != 0 {
            out.push((i * 64) as u32 + word.trailing_zeros());
            word &= word - 1;
        }
    }
}

impl<'g> Search<'g> {
    fn new(g: &'g Graph, init: &[u32]) -> Self {
        let n = g.len();
        let mut s = Self {
            g,
            in_sol: vec![false; n],
            sel_neighbors: vec![0; n],
            blocked: vec![Blocked::default(); n],
            weight: 0.0,
            rows: BitRows::build(g),
            buf: Vec::new(),
        };
        for &v in init {
            s.insert(v);
        }
        s
    }

    fn solution(&self) -> Vec<u32> {
        (0..self.g.len() as u32)
            .filter(|&v| self.in_sol[v as usize])
            .collect()
    }

    fn insert(&mut self, v: u32) {
        debug_assert!(!self.in_sol[v as usize]);
        debug_assert_eq!(self.sel_neighbors[v as usize], 0);
        self.in_sol[v as usize] = true;
        let w = self.g.weight(v);
        self.weight += w;
        for &u in self.g.neighbors(v) {
            self.sel_neighbors[u as usize] += 1;
            self.blocked[u as usize].shift(w);
        }
        if let Some(r) = &mut self.rows {
            set_bit(&mut r.sel, v);
        }
    }

    fn remove(&mut self, v: u32) {
        debug_assert!(self.in_sol[v as usize]);
        self.in_sol[v as usize] = false;
        let w = self.g.weight(v);
        self.weight -= w;
        for &u in self.g.neighbors(v) {
            let u = u as usize;
            self.sel_neighbors[u] -= 1;
            if self.sel_neighbors[u] == 0 {
                self.blocked[u] = Blocked::default();
            } else {
                self.blocked[u].shift(-w);
            }
        }
        if let Some(r) = &mut self.rows {
            clear_bit(&mut r.sel, v);
        }
    }

    fn is_free(&self, v: u32) -> bool {
        !self.in_sol[v as usize] && self.sel_neighbors[v as usize] == 0
    }

    /// Applies insertion, weighted-eviction, and (1,2)-swap moves until none
    /// improves the solution weight.
    fn improve_to_local_optimum(&mut self) {
        loop {
            let mut improved = false;
            // Free-vertex insertions and weighted evictions.
            for v in 0..self.g.len() as u32 {
                if self.in_sol[v as usize] || self.g.weight(v) <= 0.0 {
                    continue;
                }
                if self.is_free(v) {
                    self.insert(v);
                    improved = true;
                    continue;
                }
                if self.eviction_fails(v) {
                    debug_assert!({
                        self.collect_blockers(v);
                        let exact: f64 = self.buf.iter().map(|&u| self.g.weight(u)).sum();
                        self.g.weight(v) <= exact + 1e-12
                    });
                    continue;
                }
                self.collect_blockers(v);
                // Summed in ascending vertex order, whichever way the
                // blockers were found.
                let blocked_weight: f64 = self.buf.iter().map(|&u| self.g.weight(u)).sum();
                if self.g.weight(v) > blocked_weight + 1e-12 {
                    for i in 0..self.buf.len() {
                        self.remove(self.buf[i]);
                    }
                    self.insert(v);
                    improved = true;
                }
            }
            // (1,2)-swaps: replace a selected vertex by two of its neighbors.
            for v in 0..self.g.len() as u32 {
                if !self.in_sol[v as usize] {
                    continue;
                }
                if let Some((a, b)) = self.find_one_two_swap(v) {
                    self.remove(v);
                    self.insert(a);
                    self.insert(b);
                    improved = true;
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// `true` when the running blocked weight proves that evicting `v`'s
    /// selected neighbors for `v` fails the sweep's test
    /// `w(v) > T + 1e-12`, where `T` is their weights summed in ascending
    /// order, so the sweep may skip collecting them.
    ///
    /// Proof. Let `S` be the exact sum of the `k` blocking weights and
    /// `u = ε/2` the unit roundoff. [`Blocked`] keeps `|sum − S| ≤ err`.
    /// Summing `k` non-negative terms one by one loses at most a factor
    /// `(1 − u)^(k−1)`, so `T ≥ S·(1 − (k − 1)·u)`. The bound below is
    /// `c = fl(fl(sum − err)·fl(1 − 4(k + 2)ε))`. When `sum − err ≤ 0`, `c ≤ 0`
    /// and no weight is below it. Otherwise its three roundings give
    /// `c ≤ (sum − err)·(1 + u)³·(1 − 8(k + 2)·u) ≤ S·(1 − (k + 2)·u) ≤ T`.
    /// So `w(v) < c` gives `w(v) < T ≤ fl(T + 1e-12)`: the test fails, and
    /// skipping it changes no move, float sum or random draw.
    fn eviction_fails(&self, v: u32) -> bool {
        let Blocked { sum, err } = self.blocked[v as usize];
        let k = self.sel_neighbors[v as usize] as f64;
        self.g.weight(v) < (sum - err) * (1.0 - 4.0 * (k + 2.0) * f64::EPSILON)
    }

    /// Fills `buf` with the selected neighbors of `v`, ascending: one AND
    /// per word with bit rows, a scan of `v`'s list without.
    fn collect_blockers(&mut self, v: u32) {
        self.buf.clear();
        match &self.rows {
            Some(r) => push_bits(
                &mut self.buf,
                r.row(v).iter().zip(&r.sel).map(|(row, sel)| row & sel),
            ),
            None => self.buf.extend(
                self.g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| self.in_sol[u as usize]),
            ),
        }
    }

    /// Finds non-adjacent neighbors `a, b` of selected `v`, each blocked only
    /// by `v`, with `w(a) + w(b) > w(v)`: the first such pair in `(a, b)`
    /// order.
    fn find_one_two_swap(&mut self, v: u32) -> Option<(u32, u32)> {
        let g = self.g;
        self.buf.clear();
        self.buf.extend(g.neighbors(v).iter().copied().filter(|&u| {
            !self.in_sol[u as usize] && self.sel_neighbors[u as usize] == 1 && g.weight(u) > 0.0
        }));
        let swaps = |a: u32, b: u32| g.weight(a) + g.weight(b) > g.weight(v) + 1e-12;
        let Some(r) = &mut self.rows else {
            for (i, &a) in self.buf.iter().enumerate() {
                for &b in &self.buf[i + 1..] {
                    if !g.has_edge(a, b) && swaps(a, b) {
                        return Some((a, b));
                    }
                }
            }
            return None;
        };
        for &u in &self.buf {
            set_bit(&mut r.cand, u);
        }
        // The partners of `a` are the candidates outside its row, above it.
        let found = self.buf.iter().find_map(|&a| {
            let first = a as usize / 64;
            let row = r.row(a);
            (first..r.words).find_map(|i| {
                let mut partners = r.cand[i] & !row[i];
                if i == first {
                    // Bits above `a`; two shifts, as a shift by 64 overflows.
                    partners &= u64::MAX << (a % 64) << 1;
                }
                while partners != 0 {
                    let b = (i * 64) as u32 + partners.trailing_zeros();
                    if swaps(a, b) {
                        return Some((a, b));
                    }
                    partners &= partners - 1;
                }
                None
            })
        });
        r.cand.fill(0);
        found
    }

    /// Removes a random small subset of the solution to escape the local
    /// optimum.
    fn perturb(&mut self, rng: &mut StdRng) {
        let selected = self.solution();
        if selected.is_empty() {
            return;
        }
        let k = (selected.len() / 10).clamp(1, 8);
        for _ in 0..k {
            let v = selected[rng.gen_range(0..selected.len())];
            if self.in_sol[v as usize] {
                self.remove(v);
                // Insert its first free neighbor to push the search elsewhere.
                let g = self.g;
                if let Some(&u) = g.neighbors(v).iter().find(|&&u| self.is_free(u)) {
                    self.insert(u);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_graph_solution;

    fn path5() -> Graph {
        Graph::new(vec![1.0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn greedy_on_empty_graph() {
        let g = Graph::new(vec![], &[]);
        assert!(greedy(&g).is_empty());
    }

    #[test]
    fn greedy_solves_unweighted_path() {
        let g = path5();
        let sol = greedy(&g);
        assert_eq!(verify_graph_solution(&g, &sol), Some(3.0));
        assert_eq!(sol, vec![0, 2, 4]);
    }

    #[test]
    fn greedy_prefers_heavy_vertex_over_light_pair() {
        // Triangle-free star: center weight 10 beats three leaves of weight 1.
        let g = Graph::new(vec![10.0, 1.0, 1.0, 1.0], &[(0, 1), (0, 2), (0, 3)]);
        let sol = greedy(&g);
        assert_eq!(verify_graph_solution(&g, &sol), Some(10.0));
    }

    #[test]
    fn greedy_skips_zero_weight_vertices() {
        let g = Graph::new(vec![0.0, 1.0], &[(0, 1)]);
        assert_eq!(greedy(&g), vec![1]);
    }

    #[test]
    fn local_search_finds_one_two_swap() {
        // Star with heavy center but two heavier combined leaves.
        let g = Graph::new(vec![3.0, 2.0, 2.0], &[(0, 1), (0, 2)]);
        let sol = local_search(&g, &[0], 0, 7);
        assert_eq!(verify_graph_solution(&g, &sol), Some(4.0));
    }

    #[test]
    fn local_search_weighted_eviction() {
        // v=2 (weight 5) should evict selected neighbors 0 and 1 (weight 2+2).
        let g = Graph::new(vec![2.0, 2.0, 5.0], &[(0, 2), (1, 2)]);
        let sol = local_search(&g, &[0, 1], 0, 7);
        assert_eq!(verify_graph_solution(&g, &sol), Some(5.0));
    }

    #[test]
    fn repair_filters_conflicting_hint_vertices() {
        // Hint vertices 0 and 1 conflict; ties break by id so 0 survives and
        // free insertion completes the optimal {0, 2, 4}.
        let g = path5();
        let sol = repair(&g, &[0, 1, 4], 0, 7);
        assert!(verify_graph_solution(&g, &sol).is_some());
        assert_eq!(sol, vec![0, 2, 4]);
    }

    #[test]
    fn repair_drops_out_of_range_and_zero_weight_hints() {
        let g = Graph::new(vec![0.0, 1.0], &[(0, 1)]);
        let sol = repair(&g, &[0, 99], 0, 7);
        assert_eq!(sol, vec![1]);
    }

    #[test]
    fn repair_with_empty_hint_matches_greedy_seeded_search() {
        let g = Graph::new(vec![3.0, 2.0, 2.0], &[(0, 1), (0, 2)]);
        assert_eq!(repair(&g, &[], 5, 7), local_search(&g, &greedy(&g), 5, 7));
    }

    #[test]
    fn repair_is_deterministic_and_independent() {
        let g = path5();
        let a = repair(&g, &[1, 3], 20, 42);
        let b = repair(&g, &[1, 3], 20, 42);
        assert_eq!(a, b);
        assert!(verify_graph_solution(&g, &a).is_some());
    }

    #[test]
    fn local_search_is_deterministic() {
        let g = path5();
        let a = local_search(&g, &greedy(&g), 20, 42);
        let b = local_search(&g, &greedy(&g), 20, 42);
        assert_eq!(a, b);
    }
}
