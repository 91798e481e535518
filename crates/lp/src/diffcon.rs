//! Difference-constraint systems solved by longest-path passes.
//!
//! The sampler-initialization constraints (`a_e = d_{π(e)}` collapsed,
//! queue-order inequalities, non-negative services) form a system of pure
//! precedence constraints `x_u ≤ x_v`, with some variables fixed by
//! observations. The *minimal* feasible completion is the longest path
//! from below (each variable as small as its predecessors allow), the
//! *maximal* one the symmetric pass from above; any value between the two
//! bounds is feasible for that variable given the others are at their
//! bounds' side. `qni-core` uses the pair as a feasibility box for
//! initialization.
//!
//! The graph is acyclic unless times tie: two tasks that reach a queue
//! at the same instant can be ordered one way by one queue's FIFO edge
//! and the other way by the next queue's arrival order. A cycle of `≤`
//! forces its members equal, so [`DiffSystem::solve`] collapses each one
//! into a single variable (see [`DiffSolution::tied_to`]).

use crate::error::LpError;

/// A system of `x_u ≤ x_v` constraints with fixed values and box bounds.
///
/// # Examples
///
/// ```
/// use qni_lp::diffcon::DiffSystem;
///
/// let mut sys = DiffSystem::new(3);
/// sys.le(0, 1).unwrap();
/// sys.le(1, 2).unwrap();
/// sys.fix(2, 5.0).unwrap();
/// let sol = sys.solve().unwrap();
/// assert_eq!(sol.min, vec![0.0, 0.0, 5.0]);
/// assert_eq!(sol.max, vec![5.0, 5.0, 5.0]);
/// ```
#[derive(Debug, Clone)]
pub struct DiffSystem {
    n: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    fixed: Vec<Option<f64>>,
    /// Edges `u → v` meaning `x_u ≤ x_v`.
    edges: Vec<(usize, usize)>,
}

/// Minimal and maximal feasible completions.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffSolution {
    /// Smallest feasible value per variable.
    pub min: Vec<f64>,
    /// Largest feasible value per variable (`+inf` when unbounded).
    pub max: Vec<f64>,
    /// The topological order the passes walked (see
    /// [`DiffSystem::topo_order`]). On a cyclic graph, the order of the
    /// collapsed cycles, each cycle's members listed together, leader
    /// first.
    pub order: Vec<usize>,
    /// Each variable's predecessors `u` (edges `x_u ≤ x_v`), in edge
    /// insertion order. On a cyclic graph, a cycle's leader has the
    /// leaders of the cycles with an edge into it, and every other
    /// member has its leader alone.
    pub preds: Adjacency,
    /// Each variable's cycle leader (empty when the graph is acyclic).
    leaders: Vec<usize>,
}

impl DiffSolution {
    /// The leader of `v`'s `≤` cycle, whose value `v` must share, when
    /// `v` is on a cycle and is not its leader. A leader is its cycle's
    /// first fixed member, or its first member when none is fixed.
    pub fn tied_to(&self, v: usize) -> Option<usize> {
        self.leaders.get(v).copied().filter(|&l| l != v)
    }
}

/// Per-vertex neighbour lists of a graph on `0..n`, stored flat: the
/// neighbours of `v` are `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// Groups `(from, to)` pairs by `from`, keeping each group in pair
    /// order.
    fn group<I>(n: usize, pairs: I) -> Self
    where
        I: DoubleEndedIterator<Item = (usize, usize)> + Clone,
    {
        // Count each vertex's pairs, turn the counts into group ends, then
        // fill every group back to front so the ends become starts.
        let mut offsets = vec![0usize; n + 1];
        for (from, _) in pairs.clone() {
            offsets[from] += 1;
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut targets = vec![0usize; end];
        for (from, to) in pairs.rev() {
            offsets[from] -= 1;
            targets[offsets[from]] = to;
        }
        Adjacency { offsets, targets }
    }

    /// The neighbours of `v`.
    pub fn of(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl DiffSystem {
    /// Creates a system of `n` variables with default bounds `[0, +inf)`.
    pub fn new(n: usize) -> Self {
        DiffSystem {
            n,
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
            fixed: vec![None; n],
            edges: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system has no variables.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `x_u ≤ x_v`.
    pub fn le(&mut self, u: usize, v: usize) -> Result<(), LpError> {
        if u >= self.n {
            return Err(LpError::BadVariable { index: u });
        }
        if v >= self.n {
            return Err(LpError::BadVariable { index: v });
        }
        if u != v {
            self.edges.push((u, v));
        }
        Ok(())
    }

    /// Fixes `x_v = value`.
    pub fn fix(&mut self, v: usize, value: f64) -> Result<(), LpError> {
        if v >= self.n {
            return Err(LpError::BadVariable { index: v });
        }
        if !value.is_finite() {
            return Err(LpError::ShapeMismatch);
        }
        self.fixed[v] = Some(value);
        Ok(())
    }

    /// Tightens the lower bound of `x_v`.
    pub fn set_lower(&mut self, v: usize, value: f64) -> Result<(), LpError> {
        if v >= self.n {
            return Err(LpError::BadVariable { index: v });
        }
        self.lower[v] = self.lower[v].max(value);
        Ok(())
    }

    /// Tightens the upper bound of `x_v`.
    pub fn set_upper(&mut self, v: usize, value: f64) -> Result<(), LpError> {
        if v >= self.n {
            return Err(LpError::BadVariable { index: v });
        }
        self.upper[v] = self.upper[v].min(value);
        Ok(())
    }

    /// Solves for the minimal and maximal feasible completions.
    ///
    /// A cycle of `≤` is an equality: when Kahn's algorithm cannot order
    /// the graph, each strongly connected component becomes one variable
    /// whose bounds are its members' bounds intersected, and which is
    /// fixed when a member is. The collapsed system is solved instead,
    /// and every member takes its component's `min` and `max`. Errors
    /// with [`LpError::Infeasible`] if bounds/fixed values conflict,
    /// including two fixed members of one cycle more than `1e-9` apart.
    pub fn solve(&self) -> Result<DiffSolution, LpError> {
        let (succs, preds) = self.adjacency();
        let Ok(order) = kahn(&succs, &preds) else {
            return self.solve_collapsed(&succs, &preds);
        };
        // Effective bounds: fixed values collapse the box.
        let mut lo = self.lower.clone();
        let mut hi = self.upper.clone();
        for v in 0..self.n {
            if let Some(f) = self.fixed[v] {
                if f < self.lower[v] - 1e-12 || f > self.upper[v] + 1e-12 {
                    return Err(LpError::Infeasible);
                }
                lo[v] = f;
                hi[v] = f;
            }
        }
        // Forward pass: minimal values.
        let mut min = vec![0.0f64; self.n];
        for &v in &order {
            let from_preds = preds
                .of(v)
                .iter()
                .map(|&u| min[u])
                .fold(f64::NEG_INFINITY, f64::max);
            min[v] = lo[v].max(from_preds);
            if min[v] > hi[v] + 1e-9 {
                return Err(LpError::Infeasible);
            }
            if self.fixed[v].is_some() && min[v] > lo[v] + 1e-9 {
                // A fixed value below what predecessors force.
                return Err(LpError::Infeasible);
            }
            if self.fixed[v].is_some() {
                min[v] = lo[v];
            }
        }
        // Backward pass: maximal values.
        let mut max = vec![f64::INFINITY; self.n];
        for &v in order.iter().rev() {
            let from_succs = succs
                .of(v)
                .iter()
                .map(|&u| max[u])
                .fold(f64::INFINITY, f64::min);
            max[v] = hi[v].min(from_succs);
            if self.fixed[v].is_some() {
                max[v] = hi[v].min(max[v]);
                if max[v] < hi[v] - 1e-9 {
                    // Successors force the fixed value lower than it is.
                    return Err(LpError::Infeasible);
                }
            }
            if max[v] < min[v] - 1e-9 {
                return Err(LpError::Infeasible);
            }
        }
        Ok(DiffSolution {
            min,
            max,
            order,
            preds,
            leaders: Vec::new(),
        })
    }

    /// [`DiffSystem::solve`] on a cyclic graph: solves the system with
    /// every strongly connected component collapsed to one variable,
    /// then maps the solution back onto the members.
    fn solve_collapsed(
        &self,
        succs: &Adjacency,
        preds: &Adjacency,
    ) -> Result<DiffSolution, LpError> {
        let (comp, count) = components(succs, preds);
        let mut leader = vec![usize::MAX; count];
        for (v, &c) in comp.iter().enumerate() {
            let l = &mut leader[c];
            if *l == usize::MAX || (self.fixed[v].is_some() && self.fixed[*l].is_none()) {
                *l = v;
            }
        }
        let mut sys = DiffSystem::new(count);
        for (v, &c) in comp.iter().enumerate() {
            sys.lower[c] = sys.lower[c].max(self.lower[v]);
            sys.upper[c] = sys.upper[c].min(self.upper[v]);
            sys.fixed[c] = self.fixed[leader[c]];
            if let (Some(f), Some(g)) = (self.fixed[v], sys.fixed[c]) {
                if (f - g).abs() > 1e-9 {
                    return Err(LpError::Infeasible);
                }
            }
        }
        sys.edges = (self.edges.iter())
            .map(|&(u, v)| (comp[u], comp[v]))
            .filter(|(a, b)| a != b)
            .collect();
        let sol = sys.solve()?;
        let members = Adjacency::group(count, comp.iter().enumerate().map(|(v, &c)| (c, v)));
        let mut order = Vec::with_capacity(self.n);
        for &c in &sol.order {
            order.push(leader[c]);
            order.extend(members.of(c).iter().filter(|&&v| v != leader[c]));
        }
        let mut pairs = Vec::new();
        for (v, &c) in comp.iter().enumerate() {
            let l = leader[c];
            if v == l {
                pairs.extend(sol.preds.of(c).iter().map(|&p| (v, leader[p])));
            } else {
                pairs.push((v, l));
            }
        }
        Ok(DiffSolution {
            min: comp.iter().map(|&c| sol.min[c]).collect(),
            max: comp.iter().map(|&c| sol.max[c]).collect(),
            order,
            preds: Adjacency::group(self.n, pairs.iter().copied()),
            leaders: comp.iter().map(|&c| leader[c]).collect(),
        })
    }

    /// The precedence edges `(u, v)` meaning `x_u ≤ x_v`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// A topological order of the precedence graph (Kahn's algorithm);
    /// errors on cycles. [`DiffSystem::solve`] walks the same order.
    pub fn topo_order(&self) -> Result<Vec<usize>, LpError> {
        let (succs, preds) = self.adjacency();
        kahn(&succs, &preds)
    }

    /// The successor and predecessor lists, each in edge insertion order.
    fn adjacency(&self) -> (Adjacency, Adjacency) {
        (
            Adjacency::group(self.n, self.edges.iter().copied()),
            Adjacency::group(self.n, self.edges.iter().map(|&(u, v)| (v, u))),
        )
    }
}

/// Kahn's algorithm with a stack seeded by the sources in index order,
/// visiting successors in edge insertion order.
fn kahn(succs: &Adjacency, preds: &Adjacency) -> Result<Vec<usize>, LpError> {
    let n = succs.offsets.len() - 1;
    let mut indeg: Vec<usize> = (0..n).map(|v| preds.of(v).len()).collect();
    let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        order.push(v);
        for &s in succs.of(v) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                stack.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(LpError::CyclicConstraints);
    }
    Ok(order)
}

/// The strongly connected components (Kosaraju): each vertex's
/// component index, and the component count.
fn components(succs: &Adjacency, preds: &Adjacency) -> (Vec<usize>, usize) {
    let n = succs.offsets.len() - 1;
    // Pass 1: every vertex in increasing depth-first finish time.
    let mut finished = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let v = top.0;
            match succs.of(v).get(top.1) {
                Some(&s) => {
                    top.1 += 1;
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                }
                None => {
                    finished.push(v);
                    stack.pop();
                }
            }
        }
    }
    // Pass 2: what reaches each root backwards, latest finisher first.
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut todo = Vec::new();
    for &root in finished.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = count;
        todo.push(root);
        while let Some(v) = todo.pop() {
            for &u in preds.of(v) {
                if comp[u] == usize::MAX {
                    comp[u] = count;
                    todo.push(u);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_with_fixed_endpoint() {
        let mut sys = DiffSystem::new(4);
        sys.le(0, 1).unwrap();
        sys.le(1, 2).unwrap();
        sys.le(2, 3).unwrap();
        sys.fix(1, 2.0).unwrap();
        let sol = sys.solve().unwrap();
        assert_eq!(sol.min, vec![0.0, 2.0, 2.0, 2.0]);
        assert_eq!(sol.max[0], 2.0);
        assert_eq!(sol.max[1], 2.0);
        assert_eq!(sol.max[2], f64::INFINITY);
    }

    #[test]
    fn diamond() {
        // 0 ≤ {1,2} ≤ 3, with 0 fixed at 1 and 3 fixed at 4.
        let mut sys = DiffSystem::new(4);
        sys.le(0, 1).unwrap();
        sys.le(0, 2).unwrap();
        sys.le(1, 3).unwrap();
        sys.le(2, 3).unwrap();
        sys.fix(0, 1.0).unwrap();
        sys.fix(3, 4.0).unwrap();
        let sol = sys.solve().unwrap();
        assert_eq!(sol.min[1], 1.0);
        assert_eq!(sol.max[1], 4.0);
        assert_eq!(sol.min[2], 1.0);
        assert_eq!(sol.max[2], 4.0);
    }

    #[test]
    fn infeasible_fixed_order() {
        let mut sys = DiffSystem::new(2);
        sys.le(0, 1).unwrap();
        sys.fix(0, 5.0).unwrap();
        sys.fix(1, 3.0).unwrap();
        assert_eq!(sys.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn infeasible_bounds() {
        let mut sys = DiffSystem::new(1);
        sys.set_lower(0, 2.0).unwrap();
        sys.set_upper(0, 1.0).unwrap();
        assert_eq!(sys.solve(), Err(LpError::Infeasible));
        let mut sys = DiffSystem::new(1);
        sys.set_upper(0, 1.0).unwrap();
        sys.fix(0, 2.0).unwrap();
        assert_eq!(sys.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn cycle_detected() {
        let mut sys = DiffSystem::new(2);
        sys.le(0, 1).unwrap();
        sys.le(1, 0).unwrap();
        assert_eq!(sys.topo_order(), Err(LpError::CyclicConstraints));
        // `solve` reads the cycle as `x_0 = x_1`.
        let sol = sys.solve().unwrap();
        assert_eq!(sol.min, vec![0.0, 0.0]);
        assert_eq!(sol.max, vec![f64::INFINITY; 2]);
        assert_eq!((sol.tied_to(0), sol.tied_to(1)), (None, Some(0)));
    }

    #[test]
    fn a_cycle_is_an_equality_led_by_its_fixed_member() {
        // 0 → {1 ⇄ 2} → 3, with 2 fixed at 1.5, 3 bounded by 4 and 0 by 1
        // from below: the cycle pins 1 to 1.5 and bounds 3 from below.
        let mut sys = DiffSystem::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 1), (2, 3)] {
            sys.le(u, v).unwrap();
        }
        sys.fix(2, 1.5).unwrap();
        sys.set_lower(0, 1.0).unwrap();
        sys.set_upper(3, 4.0).unwrap();
        let sol = sys.solve().unwrap();
        assert_eq!(sol.min, vec![1.0, 1.5, 1.5, 1.5]);
        assert_eq!(sol.max, vec![1.5, 1.5, 1.5, 4.0]);
        assert_eq!(sol.order, vec![0, 2, 1, 3]);
        assert_eq!(sol.tied_to(1), Some(2));
        assert!([0, 2, 3].iter().all(|&v| sol.tied_to(v).is_none()));
        // The leader holds the cycle's outside predecessors.
        assert_eq!((sol.preds.of(2), sol.preds.of(1)), (&[0][..], &[2][..]));
        // Fixed members of one cycle must agree.
        sys.fix(1, 2.0).unwrap();
        assert_eq!(sys.solve(), Err(LpError::Infeasible));
        sys.fix(1, 1.5).unwrap();
        assert!(sys.solve().is_ok());
    }

    #[test]
    fn self_loop_ignored() {
        let mut sys = DiffSystem::new(1);
        sys.le(0, 0).unwrap();
        assert!(sys.solve().is_ok());
    }

    #[test]
    fn bounds_propagate_through_chain() {
        let mut sys = DiffSystem::new(3);
        sys.le(0, 1).unwrap();
        sys.le(1, 2).unwrap();
        sys.set_lower(0, 1.5).unwrap();
        sys.set_upper(2, 9.0).unwrap();
        let sol = sys.solve().unwrap();
        assert_eq!(sol.min, vec![1.5, 1.5, 1.5]);
        assert_eq!(sol.max, vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn min_is_feasible_and_extreme() {
        // Property on a random DAG: the minimal solution satisfies every
        // constraint and is pointwise ≤ the maximal one.
        use qni_stats::rng::rng_from_seed;
        use rand::Rng;
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            let n = 12;
            let mut sys = DiffSystem::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.random::<f64>() < 0.2 {
                        sys.le(u, v).unwrap();
                    }
                }
            }
            sys.fix(n - 1, 10.0).unwrap();
            if rng.random::<f64>() < 0.5 {
                sys.fix(0, 1.0).unwrap();
            }
            let sol = sys.solve().unwrap();
            for &(u, v) in &sys.edges {
                assert!(sol.min[u] <= sol.min[v] + 1e-12);
                assert!(sol.max[u] <= sol.max[v] + 1e-12);
            }
            for v in 0..n {
                assert!(sol.min[v] <= sol.max[v] + 1e-12);
            }
        }
    }

    /// The least and greatest completions by naive fixed-point relaxation
    /// over the edge list, or `None` when the least one breaks a bound or
    /// an edge into a fixed variable (then no completion exists).
    fn relax(
        edges: &[(usize, usize)],
        lower: &[f64],
        upper: &[f64],
        fixed: &[Option<f64>],
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        let n = lower.len();
        let lo: Vec<f64> = (0..n).map(|v| fixed[v].unwrap_or(lower[v])).collect();
        let hi: Vec<f64> = (0..n).map(|v| fixed[v].unwrap_or(upper[v])).collect();
        let (mut min, mut max) = (lo.clone(), hi.clone());
        let mut changed = true;
        while changed {
            changed = false;
            for &(u, v) in edges {
                if fixed[v].is_none() && min[u] > min[v] {
                    min[v] = min[u];
                    changed = true;
                }
                if fixed[u].is_none() && max[v] < max[u] {
                    max[u] = max[v];
                    changed = true;
                }
            }
        }
        let feasible = (0..n).all(|v| lower[v] <= lo[v] && hi[v] <= upper[v] && min[v] <= hi[v])
            && edges.iter().all(|&(u, v)| min[u] <= min[v]);
        feasible.then_some((min, max))
    }

    /// A random DAG on `n` variables (edges follow a random ranking,
    /// inserted in random order) with some variables fixed and some
    /// bounded, all on a quarter grid so no tolerance is ever in play.
    fn random_system(rng: &mut proptest::TestRng) -> DiffSystem {
        let n = 1 + rng.below(12) as usize;
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let density = rng.unit_f64() * 0.5;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.unit_f64() < density {
                    edges.push((rank[a], rank[b]));
                }
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut sys = DiffSystem::new(n);
        for &(u, v) in &edges {
            sys.le(u, v).unwrap();
        }
        let grid = |rng: &mut proptest::TestRng| rng.below(40) as f64 / 4.0;
        for v in 0..n {
            if rng.unit_f64() < 0.3 {
                sys.fix(v, grid(rng)).unwrap();
            }
            if rng.unit_f64() < 0.15 {
                sys.set_lower(v, grid(rng)).unwrap();
            }
            if rng.unit_f64() < 0.15 {
                sys.set_upper(v, grid(rng)).unwrap();
            }
        }
        sys
    }

    proptest::proptest! {
        /// `solve` agrees bit for bit with naive relaxation on random
        /// DAGs and walks a valid topological order. Once one edge is
        /// reversed, `topo_order` reports the cycle and `solve` still
        /// agrees with the relaxation, whose least and greatest
        /// completions hold every cycle's members equal.
        #[test]
        fn solve_matches_naive_relaxation(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let sys = random_system(&mut rng);
            let order = sys.topo_order().unwrap();
            let mut pos = vec![usize::MAX; sys.len()];
            for (i, &v) in order.iter().enumerate() {
                pos[v] = i;
            }
            proptest::prop_assert!(pos.iter().all(|&p| p < sys.len()), "not a permutation");
            for &(u, v) in sys.edges() {
                proptest::prop_assert!(pos[u] < pos[v], "edge {u}->{v} out of order");
            }
            match (sys.solve(), relax(&sys.edges, &sys.lower, &sys.upper, &sys.fixed)) {
                (Ok(sol), Some((min, max))) => {
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(&sol.min), bits(&min));
                    proptest::prop_assert_eq!(bits(&sol.max), bits(&max));
                    proptest::prop_assert_eq!(&sol.order, &order);
                    for v in 0..sys.len() {
                        let preds: Vec<usize> =
                            sys.edges().iter().filter(|e| e.1 == v).map(|e| e.0).collect();
                        proptest::prop_assert_eq!(sol.preds.of(v), &preds[..]);
                    }
                }
                (Err(LpError::Infeasible), None) => {}
                (got, want) => proptest::prop_assert!(false, "solve {got:?}, relaxation {want:?}"),
            }
            if let Some(&(u, v)) = sys.edges().first() {
                let mut cyclic = sys.clone();
                cyclic.le(v, u).unwrap();
                proptest::prop_assert_eq!(cyclic.topo_order(), Err(LpError::CyclicConstraints));
                let relaxed =
                    relax(&cyclic.edges, &cyclic.lower, &cyclic.upper, &cyclic.fixed);
                match (cyclic.solve(), relaxed) {
                    (Ok(sol), Some((min, max))) => {
                        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(bits(&sol.min), bits(&min));
                        proptest::prop_assert_eq!(bits(&sol.max), bits(&max));
                        let lead = |x: usize| sol.tied_to(x).unwrap_or(x);
                        proptest::prop_assert_eq!(lead(u), lead(v), "the cycle's ends are tied");
                    }
                    (Err(LpError::Infeasible), None) => {}
                    (got, want) => proptest::prop_assert!(false, "cyclic solve {got:?}, relaxation {want:?}"),
                }
            }
        }
    }

    #[test]
    fn bad_indices() {
        let mut sys = DiffSystem::new(2);
        assert!(sys.le(0, 5).is_err());
        assert!(sys.fix(9, 0.0).is_err());
        assert!(sys.fix(0, f64::NAN).is_err());
        assert!(sys.set_lower(7, 0.0).is_err());
        assert!(sys.set_upper(7, 0.0).is_err());
    }
}
