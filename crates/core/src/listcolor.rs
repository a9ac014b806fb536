//! List-coloring of the conflict graph (§IV-B, Algorithm 2) — the
//! solver's Line-8/9 scheme lattice.
//!
//! The default scheme is the paper's dynamic greedy: vertices live in
//! buckets keyed by their *current* list size; each step picks a uniform
//! random vertex from the lowest non-empty bucket (the most constrained
//! vertices first), colors it with a uniform random list color, and
//! removes that color from every uncolored neighbor's list, moving them
//! between buckets in O(1). A vertex whose list empties joins `Vu` and is
//! retried in the next Picasso iteration. Total time
//! O((|Vc| + |Ec|)·L). The `_into` variant runs against a persistent
//! [`ColorScratch`], keeping the warm sequential path at exactly zero
//! heap allocations (pinned by `tests/memory.rs`).
//!
//! Static-order alternatives (Natural / Random / LF / SL / DLF / ID over
//! the conflict graph) are provided for the paper's comparison that
//! favoured the dynamic scheme, and two deterministic parallel kernels —
//! [`jp_list_color_into`] (list-constrained Jones–Plassmann rounds) and
//! [`speculative_list_color_into`] (optimistic color-then-repair) — wrap
//! the `coloring` crate's partition-invariant implementations. The
//! configured [`crate::ListColoringScheme`] alone picks the kernel.

use crate::assign::ColorLists;
use coloring::OrderingHeuristic;
use graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Outcome of list-coloring a conflict graph.
#[derive(Clone, Debug, Default)]
pub struct ListColorOutcome {
    /// `(local vertex, color)` assignments made.
    pub assigned: Vec<(u32, u32)>,
    /// Local vertices whose lists ran dry (`Vu` in the paper).
    pub uncolored: Vec<u32>,
    /// Rounds the kernel ran (1 for the sequential schemes).
    pub rounds: u32,
    /// Same-color speculation conflicts repaired (speculative only).
    pub repair_conflicts: u64,
}

impl ListColorOutcome {
    /// Resets for reuse without releasing buffer capacity.
    pub fn clear(&mut self) {
        self.assigned.clear();
        self.uncolored.clear();
        self.rounds = 0;
        self.repair_conflicts = 0;
    }
}

const PENDING: u8 = 0;
const COLORED: u8 = 1;
const DRY: u8 = 2;

/// Persistent buffers for the sequential list-coloring schemes, owned by
/// `IterationScratch` so warm solver iterations allocate nothing: live
/// lists are a flat `m × L` matrix, buckets/positions/states are reset by
/// `clear + resize` (capacity retained), and the static scheme's
/// forbidden-set uses a generation-stamped palette row instead of a hash
/// set.
#[derive(Clone, Debug, Default)]
pub struct ColorScratch {
    /// Flat live-list matrix: vertex `v`'s list is `live[v*L .. v*L + live_len[v]]`.
    live: Vec<u32>,
    live_len: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    bucket_of: Vec<u32>,
    pos: Vec<u32>,
    state: Vec<u8>,
    /// Static scheme: committed color per vertex.
    colors: Vec<u32>,
    /// Static scheme: active-vertex mask.
    active_mask: Vec<u8>,
    /// Static scheme: generation stamps per palette slot (forbidden iff
    /// `stamp[c - palette_base] == generation`).
    stamp: Vec<u32>,
    generation: u32,
}

impl ColorScratch {
    /// Resets the greedy buffers for `m` vertices × `l_max` list slots.
    /// Allocation-free once capacities have warmed up.
    fn prepare_greedy(&mut self, m: usize, l_max: usize) {
        self.live.clear();
        self.live.resize(m * l_max, 0);
        self.live_len.clear();
        self.live_len.resize(m, 0);
        while self.buckets.len() < l_max + 1 {
            self.buckets.push(Vec::new());
        }
        for b in &mut self.buckets {
            b.clear();
        }
        self.bucket_of.clear();
        self.bucket_of.resize(m, u32::MAX);
        self.pos.clear();
        self.pos.resize(m, u32::MAX);
        self.state.clear();
        self.state.resize(m, PENDING);
    }
}

/// Algorithm 2: dynamic bucket greedy list-coloring.
///
/// `active` lists the local vertex ids to color (the conflicted vertices
/// `Vc`); `gc` must contain edges only among them. Produces exactly the
/// same assignments as [`greedy_list_color`] (identical RNG sequence);
/// warm calls against a reused [`ColorScratch`] perform zero heap
/// allocations.
pub fn greedy_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    out.clear();
    out.rounds = 1;
    let m = gc.num_vertices();
    let l_max = lists.list_size();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C01D);

    scratch.prepare_greedy(m, l_max);
    let ColorScratch {
        live,
        live_len,
        buckets,
        bucket_of,
        pos,
        state,
        ..
    } = scratch;

    // Live (mutable) copy of each active vertex's list, flat at stride
    // `l_max`, plus the size-keyed buckets with O(1) swap-removal.
    for &v in active {
        let vi = v as usize;
        let row = lists.row(vi);
        live[vi * l_max..vi * l_max + row.len()].copy_from_slice(row);
        live_len[vi] = row.len() as u32;
        let k = row.len();
        bucket_of[vi] = k as u32;
        pos[vi] = buckets[k].len() as u32;
        buckets[k].push(v);
    }

    let mut remaining = active.len();

    // O(1) removal of a vertex from its bucket.
    let remove_from_bucket =
        |buckets: &mut [Vec<u32>], bucket_of: &mut [u32], pos: &mut [u32], v: u32| {
            let b = bucket_of[v as usize] as usize;
            let p = pos[v as usize] as usize;
            let last = *buckets[b].last().expect("bucket underflow");
            buckets[b][p] = last;
            pos[last as usize] = p as u32;
            buckets[b].pop();
            bucket_of[v as usize] = u32::MAX;
        };

    while remaining > 0 {
        // Lowest non-empty bucket (≥1: empty-list vertices are retired
        // eagerly below, so bucket 0 is always empty here).
        let lowest = buckets
            .iter()
            .position(|b| !b.is_empty())
            .expect("remaining > 0 but all buckets empty");
        // Uniform random vertex from the lowest bucket.
        let pick = rng.random_range(0..buckets[lowest].len());
        let v = buckets[lowest][pick];
        remove_from_bucket(buckets, bucket_of, pos, v);
        remaining -= 1;

        // Uniform random color from the vertex's live list.
        let vi = v as usize;
        let len = live_len[vi] as usize;
        debug_assert!(len > 0);
        let c = live[vi * l_max + rng.random_range(0..len)];
        state[vi] = COLORED;
        out.assigned.push((v, c));

        // Strike c from every uncolored neighbor's list.
        for &u in gc.neighbors(vi) {
            let ui = u as usize;
            if state[ui] != PENDING {
                continue;
            }
            let ulen = live_len[ui] as usize;
            let base = ui * l_max;
            if let Ok(idx) = live[base..base + ulen].binary_search(&c) {
                live.copy_within(base + idx + 1..base + ulen, base + idx);
                live_len[ui] = (ulen - 1) as u32;
                remove_from_bucket(buckets, bucket_of, pos, u);
                if ulen == 1 {
                    state[ui] = DRY;
                    out.uncolored.push(u);
                    remaining -= 1;
                } else {
                    let k = ulen - 1;
                    bucket_of[ui] = k as u32;
                    pos[ui] = buckets[k].len() as u32;
                    buckets[k].push(u);
                }
            }
        }
    }
}

/// Convenience wrapper over [`greedy_list_color_into`] with fresh
/// buffers.
pub fn greedy_list_color(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
) -> ListColorOutcome {
    let mut scratch = ColorScratch::default();
    let mut out = ListColorOutcome::default();
    greedy_list_color_into(gc, lists, active, seed, &mut scratch, &mut out);
    out
}

/// Static-order list coloring: visit `active` in the heuristic's order
/// over the conflict graph; give each vertex the first color of its list
/// not already taken by a colored neighbor.
pub fn static_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    heuristic: OrderingHeuristic,
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    out.clear();
    out.rounds = 1;
    let m = gc.num_vertices();
    let order = heuristic.order(gc, seed);

    scratch.colors.clear();
    scratch.colors.resize(m, u32::MAX);
    scratch.active_mask.clear();
    scratch.active_mask.resize(m, 0);
    for &v in active {
        scratch.active_mask[v as usize] = 1;
    }
    // Generation-stamped forbidden set over the current palette window:
    // all colors in play lie in `palette_base .. palette_base + palette_size`.
    let palette_base = lists.palette_base();
    scratch.stamp.clear();
    scratch.stamp.resize(lists.palette_size() as usize, 0);
    scratch.generation = 0;

    for &v in &order {
        if scratch.active_mask[v as usize] == 0 {
            continue;
        }
        scratch.generation += 1;
        let generation = scratch.generation;
        for &u in gc.neighbors(v as usize) {
            let c = scratch.colors[u as usize];
            if c != u32::MAX {
                scratch.stamp[(c - palette_base) as usize] = generation;
            }
        }
        match lists
            .row(v as usize)
            .iter()
            .find(|&&c| scratch.stamp[(c - palette_base) as usize] != generation)
        {
            Some(&c) => {
                scratch.colors[v as usize] = c;
                out.assigned.push((v, c));
            }
            None => out.uncolored.push(v),
        }
    }
}

/// Convenience wrapper over [`static_list_color_into`] with fresh
/// buffers.
pub fn static_list_color(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    heuristic: OrderingHeuristic,
    seed: u64,
) -> ListColorOutcome {
    let mut scratch = ColorScratch::default();
    let mut out = ListColorOutcome::default();
    static_list_color_into(gc, lists, active, heuristic, seed, &mut scratch, &mut out);
    out
}

/// Converts a `coloring` list-kernel result into the solver's
/// assignment-pair outcome shape.
fn adopt_parallel_outcome(
    active: &[u32],
    res: coloring::ListParallelOutcome,
    out: &mut ListColorOutcome,
) {
    out.clear();
    for &v in active {
        let c = res.colors[v as usize];
        if c != coloring::UNCOLORED {
            out.assigned.push((v, c));
        }
    }
    out.uncolored.extend_from_slice(&res.uncolored);
    out.rounds = res.rounds;
    out.repair_conflicts = res.repair_conflicts;
}

/// List-constrained Jones–Plassmann rounds
/// ([`coloring::jones_plassmann_list`]) over the conflict graph. The
/// result is a pure function of `(gc, lists, active, seed)` —
/// bit-identical for any `chunks` partition / thread count.
pub fn jp_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    chunks: usize,
    out: &mut ListColorOutcome,
) {
    let res = coloring::jones_plassmann_list(gc, &|v| lists.row(v as usize), active, seed, chunks);
    adopt_parallel_outcome(active, res, out);
}

/// Deterministic speculative color-then-repair
/// ([`coloring::speculative_list`]) over the conflict graph. Same purity
/// contract as [`jp_list_color_into`]; additionally reports
/// `repair_conflicts`.
pub fn speculative_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    chunks: usize,
    out: &mut ListColorOutcome,
) {
    let res = coloring::speculative_list(gc, &|v| lists.row(v as usize), active, seed, chunks);
    adopt_parallel_outcome(active, res, out);
}

/// Which Line-8/9 kernel actually ran for an iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum SchemeKind {
    /// Sequential dynamic bucket greedy (Algorithm 2).
    #[default]
    Greedy,
    /// Sequential static-order first-fit under an ordering heuristic.
    Static,
    /// Parallel list-constrained Jones–Plassmann rounds.
    JonesPlassmann,
    /// Parallel speculative color-then-repair.
    Speculative,
}

impl SchemeKind {
    /// Stable lowercase label (serde/CLI).
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Greedy => "greedy",
            SchemeKind::Static => "static",
            SchemeKind::JonesPlassmann => "jp",
            SchemeKind::Speculative => "spec",
        }
    }

    /// One-letter code for dense `--stats` columns.
    pub fn letter(self) -> char {
        match self {
            SchemeKind::Greedy => 'g',
            SchemeKind::Static => 't',
            SchemeKind::JonesPlassmann => 'j',
            SchemeKind::Speculative => 's',
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::{complete_graph, cycle_graph, erdos_renyi};

    /// Coloring must use only list colors and never color an edge
    /// monochromatically.
    fn check_outcome(gc: &CsrGraph, lists: &ColorLists, active: &[u32], out: &ListColorOutcome) {
        let mut color: Vec<Option<u32>> = vec![None; gc.num_vertices()];
        for &(v, c) in &out.assigned {
            assert!(
                lists.row(v as usize).contains(&c),
                "vertex {v} got color {c} outside its list"
            );
            color[v as usize] = Some(c);
        }
        for (u, v) in gc.edges() {
            if let (Some(cu), Some(cv)) = (color[u as usize], color[v as usize]) {
                assert_ne!(cu, cv, "edge ({u},{v}) monochromatic");
            }
        }
        // Every active vertex is either assigned or declared dry.
        assert_eq!(out.assigned.len() + out.uncolored.len(), active.len());
    }

    #[test]
    fn greedy_on_cycle_with_ample_lists() {
        let gc = cycle_graph(20);
        let active: Vec<u32> = (0..20).collect();
        let lists = ColorLists::assign(20, 0, 10, 4, 1, 0);
        let out = greedy_list_color(&gc, &lists, &active, 7);
        check_outcome(&gc, &lists, &active, &out);
        // With 4 colors per list on a cycle, everything should color.
        assert!(out.uncolored.is_empty(), "uncolored: {:?}", out.uncolored);
    }

    #[test]
    fn greedy_on_complete_graph_small_palette_leaves_dry_vertices() {
        // K10 with a 4-color palette: at most 4 vertices can be colored.
        let gc = complete_graph(10);
        let active: Vec<u32> = (0..10).collect();
        let lists = ColorLists::assign(10, 0, 4, 4, 1, 0);
        let out = greedy_list_color(&gc, &lists, &active, 3);
        check_outcome(&gc, &lists, &active, &out);
        assert!(out.assigned.len() <= 4);
        assert!(!out.uncolored.is_empty());
    }

    #[test]
    fn greedy_respects_active_subset() {
        let gc = cycle_graph(10);
        let active: Vec<u32> = vec![0, 1, 2];
        let lists = ColorLists::assign(10, 0, 6, 3, 2, 0);
        let out = greedy_list_color(&gc, &lists, &active, 1);
        check_outcome(&gc, &lists, &active, &out);
        for &(v, _) in &out.assigned {
            assert!(active.contains(&v));
        }
    }

    #[test]
    fn greedy_is_deterministic_per_seed() {
        let gc = erdos_renyi(60, 0.3, 4);
        let active: Vec<u32> = (0..60).collect();
        let lists = ColorLists::assign(60, 0, 16, 5, 9, 0);
        let a = greedy_list_color(&gc, &lists, &active, 42);
        let b = greedy_list_color(&gc, &lists, &active, 42);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.uncolored, b.uncolored);
    }

    #[test]
    fn greedy_scratch_reuse_matches_fresh() {
        // A warm (reused) scratch must yield bit-identical outcomes to a
        // fresh one, across differently-shaped back-to-back instances.
        let mut scratch = ColorScratch::default();
        let mut out = ListColorOutcome::default();
        for (n, p, palette, l, seed) in [
            (60usize, 0.3, 16u32, 5u32, 9u64),
            (30, 0.5, 8, 4, 3),
            (90, 0.1, 20, 6, 11),
        ] {
            let gc = erdos_renyi(n, p, seed);
            let active: Vec<u32> = (0..n as u32).collect();
            let lists = ColorLists::assign(n, 0, palette, l, seed, 0);
            greedy_list_color_into(&gc, &lists, &active, seed, &mut scratch, &mut out);
            let fresh = greedy_list_color(&gc, &lists, &active, seed);
            assert_eq!(out.assigned, fresh.assigned);
            assert_eq!(out.uncolored, fresh.uncolored);
            check_outcome(&gc, &lists, &active, &out);
        }
    }

    #[test]
    fn static_schemes_produce_valid_partial_colorings() {
        let gc = erdos_renyi(80, 0.25, 2);
        let active: Vec<u32> = (0..80).collect();
        let lists = ColorLists::assign(80, 0, 20, 6, 5, 0);
        let mut scratch = ColorScratch::default();
        let mut out = ListColorOutcome::default();
        for h in [
            OrderingHeuristic::Natural,
            OrderingHeuristic::Random,
            OrderingHeuristic::LargestFirst,
            OrderingHeuristic::SmallestLast,
            OrderingHeuristic::DynamicLargestFirst,
            OrderingHeuristic::IncidenceDegree,
        ] {
            static_list_color_into(&gc, &lists, &active, h, 3, &mut scratch, &mut out);
            check_outcome(&gc, &lists, &active, &out);
            let fresh = static_list_color(&gc, &lists, &active, h, 3);
            assert_eq!(out.assigned, fresh.assigned);
            assert_eq!(out.uncolored, fresh.uncolored);
        }
    }

    #[test]
    fn dynamic_tends_to_beat_static_natural() {
        // The paper's stated reason for Algorithm 2. On a tight palette
        // the dynamic scheme should color at least as many vertices as
        // natural-order first-fit, averaged over seeds.
        let gc = erdos_renyi(120, 0.4, 8);
        let active: Vec<u32> = (0..120).collect();
        let mut dyn_total = 0usize;
        let mut nat_total = 0usize;
        for seed in 0..5 {
            let lists = ColorLists::assign(120, 0, 12, 4, seed, 0);
            dyn_total += greedy_list_color(&gc, &lists, &active, seed).assigned.len();
            nat_total += static_list_color(&gc, &lists, &active, OrderingHeuristic::Natural, seed)
                .assigned
                .len();
        }
        assert!(
            dyn_total * 10 >= nat_total * 9,
            "dynamic {dyn_total} far below natural {nat_total}"
        );
    }

    #[test]
    fn empty_active_set() {
        let gc = cycle_graph(5);
        let lists = ColorLists::assign(5, 0, 4, 2, 1, 0);
        let out = greedy_list_color(&gc, &lists, &[], 0);
        assert!(out.assigned.is_empty());
        assert!(out.uncolored.is_empty());
    }

    #[test]
    fn parallel_wrappers_produce_valid_outcomes() {
        let gc = erdos_renyi(100, 0.2, 6);
        let active: Vec<u32> = (0..100).collect();
        let lists = ColorLists::assign(100, 0, 18, 6, 4, 0);
        let mut out = ListColorOutcome::default();
        jp_list_color_into(&gc, &lists, &active, 12, 4, &mut out);
        check_outcome(&gc, &lists, &active, &out);
        assert!(out.rounds >= 1);
        speculative_list_color_into(&gc, &lists, &active, 12, 4, &mut out);
        check_outcome(&gc, &lists, &active, &out);
        assert!(out.rounds >= 1);
    }
}
