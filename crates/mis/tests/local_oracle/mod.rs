//! A reference implementation of `oct_mis::local::{local_search, repair}`
//! for the differential suite: the plain neighbour-list search, which
//! tests adjacency with `Graph::has_edge` and collects every vertex's
//! blockers and swap candidates into fresh `Vec`s. The library's search
//! must return exactly the same `Vec<u32>` for every input.

use oct_mis::{local::greedy, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Oracle for `oct_mis::local::local_search`.
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

/// Oracle for `oct_mis::local::repair`.
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

struct Search<'g> {
    g: &'g Graph,
    in_sol: Vec<bool>,
    /// Number of selected neighbors per vertex.
    sel_neighbors: Vec<u32>,
    weight: f64,
}

impl<'g> Search<'g> {
    fn new(g: &'g Graph, init: &[u32]) -> Self {
        let n = g.len();
        let mut s = Self {
            g,
            in_sol: vec![false; n],
            sel_neighbors: vec![0; n],
            weight: 0.0,
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
        assert!(!self.in_sol[v as usize]);
        assert_eq!(self.sel_neighbors[v as usize], 0);
        self.in_sol[v as usize] = true;
        self.weight += self.g.weight(v);
        for &u in self.g.neighbors(v) {
            self.sel_neighbors[u as usize] += 1;
        }
    }

    fn remove(&mut self, v: u32) {
        assert!(self.in_sol[v as usize]);
        self.in_sol[v as usize] = false;
        self.weight -= self.g.weight(v);
        for &u in self.g.neighbors(v) {
            self.sel_neighbors[u as usize] -= 1;
        }
    }

    fn is_free(&self, v: u32) -> bool {
        !self.in_sol[v as usize] && self.sel_neighbors[v as usize] == 0
    }

    fn improve_to_local_optimum(&mut self) {
        loop {
            let mut improved = false;
            for v in 0..self.g.len() as u32 {
                if self.in_sol[v as usize] || self.g.weight(v) <= 0.0 {
                    continue;
                }
                if self.is_free(v) {
                    self.insert(v);
                    improved = true;
                    continue;
                }
                let blockers: Vec<u32> = self
                    .g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| self.in_sol[u as usize])
                    .collect();
                let blocked_weight: f64 = blockers.iter().map(|&u| self.g.weight(u)).sum();
                if self.g.weight(v) > blocked_weight + 1e-12 {
                    for u in blockers {
                        self.remove(u);
                    }
                    self.insert(v);
                    improved = true;
                }
            }
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

    fn find_one_two_swap(&self, v: u32) -> Option<(u32, u32)> {
        let candidates: Vec<u32> = self
            .g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| {
                !self.in_sol[u as usize]
                    && self.sel_neighbors[u as usize] == 1
                    && self.g.weight(u) > 0.0
            })
            .collect();
        for (i, &a) in candidates.iter().enumerate() {
            for &b in &candidates[i + 1..] {
                if !self.g.has_edge(a, b)
                    && self.g.weight(a) + self.g.weight(b) > self.g.weight(v) + 1e-12
                {
                    return Some((a, b));
                }
            }
        }
        None
    }

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
                let frees: Vec<u32> = self
                    .g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| self.is_free(u))
                    .collect();
                if let Some(&u) = frees.first() {
                    self.insert(u);
                }
            }
        }
    }
}
