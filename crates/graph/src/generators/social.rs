//! The paper's synthetic social-graph construction and the MSN-like stand-in.
//!
//! App. F.1: *"We first generate multiple small graphs with small-world
//! characteristics using an existing generator \[R-MAT\], and next randomly
//! change a ratio (p_r) of edges to connect these small graphs into a large
//! graph. The default value of p_r is 5 %."*
//!
//! [`stitched_small_worlds`] implements exactly that: per-community R-MAT
//! graphs, then a `p_r` fraction of edge *endpoints* rewired to vertices of
//! other communities. The resulting graph has pronounced community structure
//! (so a good partitioner achieves a high inner-edge ratio) with a controlled
//! amount of cross-community linkage — which is what makes Table 5 and the
//! locality-optimization results reproducible in shape.
//!
//! [`msn_like`] is the scaled stand-in for the proprietary MSN 2007 snapshot
//! (508.7 M vertices, 29.6 B edges): same construction, power-law degrees via
//! skewed R-MAT, average degree ≈ 58 like the real snapshot.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::generators::rmat::{sample_distinct, RmatConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;

/// Configuration for [`stitched_small_worlds`].
#[derive(Debug, Clone)]
pub struct SocialGraphConfig {
    /// Number of small community graphs to generate.
    pub communities: u32,
    /// log2 of the vertex count of each community (R-MAT scale).
    pub community_scale: u32,
    /// Edges sampled per community.
    pub edges_per_community: u64,
    /// Ratio of edge endpoints rewired across communities (paper default 5 %).
    pub rewire_ratio: f64,
    /// Strength of hierarchical locality for rewired endpoints, in `[0, 1]`.
    /// A rewired endpoint diverges from its source community at hierarchy
    /// level k with probability proportional to `(1 - locality)^(k-1)` —
    /// sibling communities attract exponentially more cross edges than
    /// distant ones. 0 reproduces plain uniform stitching. See
    /// `hierarchical_target` for the model.
    pub locality: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SocialGraphConfig {
    /// Paper-default configuration: `communities` R-MAT communities of
    /// `2^scale` vertices, average out-degree ~12, p_r = 5 %.
    pub fn new(communities: u32, community_scale: u32, seed: u64) -> Self {
        let verts = 1u64 << community_scale;
        SocialGraphConfig {
            communities,
            community_scale,
            edges_per_community: verts * 12,
            rewire_ratio: 0.05,
            locality: 0.75,
            seed,
        }
    }

    /// Total vertex count of the stitched graph.
    pub fn num_vertices(&self) -> u32 {
        self.communities * (1u32 << self.community_scale)
    }
}

/// Generate the paper's synthetic graph: R-MAT communities stitched with a
/// `rewire_ratio` of cross-community endpoints. The communities are sampled
/// on all of the host's cores.
pub fn stitched_small_worlds(cfg: &SocialGraphConfig) -> CsrGraph {
    stitch(cfg, std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`stitched_small_worlds`], sampling the communities on up to `workers`
/// threads. Each community has its own seed and the rewiring pass runs in
/// community order on one rng, so the graph does not depend on `workers`.
pub(crate) fn stitch(cfg: &SocialGraphConfig, workers: usize) -> CsrGraph {
    assert!(cfg.communities >= 1, "need at least one community");
    assert!((0.0..=1.0).contains(&cfg.rewire_ratio), "rewire_ratio in [0,1]");
    assert!((0.0..=1.0).contains(&cfg.locality), "locality in [0,1]");
    let community_size = 1u32 << cfg.community_scale;
    let local_cfg = |c: usize| {
        let seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(c as u64);
        RmatConfig::new(cfg.community_scale, cfg.edges_per_community, seed)
    };
    local_cfg(0).validate();

    // Every buffer comes from this thread's allocator: one slot of `per`
    // edges per community, and one slot plus one count per local vertex id
    // for each group's counting sort. Slot `c` ends up holding community
    // `c`'s distinct edges in its first `lens[c]` entries. Workers only
    // write into these, so no per-thread heap is left holding set-up data.
    let communities = cfg.communities as usize;
    let per = cfg.edges_per_community as usize;
    let ids = community_size as usize + 1;
    let group = communities.div_ceil(workers.max(1));
    let groups = communities.div_ceil(group);
    let mut edges = vec![Edge::raw(0, 0); communities * per];
    let mut lens = vec![0usize; communities];
    let mut scratch = vec![Edge::raw(0, 0); groups * per];
    let mut counts = vec![0usize; groups * ids];
    let sample_group = |first: usize, slots: &mut [Edge], lens: &mut [usize], scratch: &mut [Edge], counts: &mut [usize]| {
        for (i, (slot, len)) in slots.chunks_mut(per.max(1)).zip(lens).enumerate() {
            *len = sample_distinct(&local_cfg(first + i), slot, scratch, counts);
        }
    };
    std::thread::scope(|s| {
        let mut groups = edges
            .chunks_mut((group * per).max(1))
            .zip(lens.chunks_mut(group))
            .zip(scratch.chunks_mut(per.max(1)).zip(counts.chunks_mut(ids)))
            .enumerate();
        let own = groups.next();
        for (g, ((slots, lens), (scratch, counts))) in groups {
            s.spawn(move || sample_group(g * group, slots, lens, scratch, counts));
        }
        if let Some((_, ((slots, lens), (scratch, counts)))) = own {
            sample_group(0, slots, lens, scratch, counts);
        }
    });
    drop((scratch, counts));

    // Rewire each endpoint across communities with probability p_r,
    // targeting a hierarchically-near community, and compact the kept
    // edges to the front: the write cursor never passes the read cursor.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut kept = 0;
    for (c, &len) in (0u32..).zip(&lens) {
        let base = c * community_size;
        let mut pick = |orig: u32| -> u32 {
            if cfg.communities > 1 && rng.gen::<f64>() < cfg.rewire_ratio {
                let tc = hierarchical_target(c, cfg.communities, cfg.locality, &mut rng);
                tc * community_size + rng.gen_range(0..community_size)
            } else {
                base + orig
            }
        };
        let from = c as usize * per;
        for r in from..from + len {
            let e = edges[r];
            let src = pick(e.src.0);
            let dst = pick(e.dst.0);
            if src != dst {
                edges[kept] = Edge::raw(src, dst);
                kept += 1;
            }
        }
    }
    // Hand the slots' unused tails (about a third) back before the build
    // allocates its arrays, so the set-up's peak stays at the old one's.
    edges.truncate(kept);
    edges.shrink_to_fit();
    GraphBuilder::from_edge_vec(cfg.num_vertices(), edges).build()
}

/// Choose a target community for a rewired endpoint.
///
/// Communities form a complete binary hierarchy (think: city, region,
/// country). A rewired endpoint diverges from its source community at
/// hierarchy level `k` (k = 1 flips only the lowest bit — the *sibling*
/// community) with probability proportional to `beta^(k-1)`, where
/// `beta = 1 - locality`; the bits below the divergence level are uniform.
/// Sibling communities therefore attract exponentially more cross edges
/// than communities separated by the top of the hierarchy — the structure
/// the partition sketch's proximity property (§4.1) describes, and the
/// reason bandwidth-aware placement has anything to exploit. `locality = 0`
/// (or a non-power-of-two community count) falls back to uniform targets.
fn hierarchical_target(src_community: u32, communities: u32, locality: f64, rng: &mut StdRng) -> u32 {
    if communities == 1 {
        return 0;
    }
    if locality <= 0.0 || !communities.is_power_of_two() {
        return rng.gen_range(0..communities);
    }
    let beta = 1.0 - locality;
    let bits = communities.trailing_zeros();
    // Sample the divergence level k in 1..=bits with P(k) ~ beta^(k-1).
    let mut total = 0.0;
    let mut w = 1.0;
    for _ in 0..bits {
        total += w;
        w *= beta;
    }
    let mut x = rng.gen::<f64>() * total;
    let mut k = bits;
    w = 1.0;
    for level in 1..=bits {
        x -= w;
        if x <= 0.0 {
            k = level;
            break;
        }
        w *= beta;
    }
    // Flip bit k-1, randomize the bits below it.
    let flipped = src_community ^ (1 << (k - 1));
    let low_mask = (1u32 << (k - 1)) - 1;
    (flipped & !low_mask) | (rng.gen::<u32>() & low_mask)
}

/// Scale presets for [`msn_like`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsnScale {
    /// ~8 K vertices — unit tests.
    Tiny,
    /// ~65 K vertices — integration tests.
    Small,
    /// ~260 K vertices — the default for the reproduction harness.
    Medium,
    /// ~1 M vertices — benchmark runs.
    Large,
}

/// Generate an MSN-2007-like social graph at the chosen scale.
///
/// Mirrors the real snapshot's shape — strong communities, power-law degree
/// distribution, dense average degree — at a size a single machine can hold.
/// The substitution is recorded in DESIGN.md §2.
pub fn msn_like(scale: MsnScale, seed: u64) -> CsrGraph {
    // Many small communities: the hierarchical rewiring supplies the
    // coarser structure, so partition counts up to 128 still align with
    // community boundaries (Table 5's regime).
    let (communities, community_scale) = match scale {
        MsnScale::Tiny => (16, 9),      // 16 * 512      =   8_192 vertices
        MsnScale::Small => (64, 10),    // 64 * 1024     =  65_536
        MsnScale::Medium => (128, 11),  // 128 * 2048    = 262_144
        MsnScale::Large => (256, 12),   // 256 * 4096    = 1_048_576
    };
    let mut cfg = SocialGraphConfig::new(communities, community_scale, seed);
    // MSN snapshot: 29.6 B edges / 508.7 M vertices ≈ 58 edges per vertex;
    // we sample ~25% extra because R-MAT dedup removes repeats.
    cfg.edges_per_community = (1u64 << community_scale) * 24;
    stitched_small_worlds(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn stitched_graph_shape() {
        let cfg = SocialGraphConfig::new(4, 8, 1);
        let g = stitched_small_worlds(&cfg);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 8_000, "got {}", g.num_edges());
    }

    #[test]
    fn deterministic() {
        let cfg = SocialGraphConfig::new(4, 8, 42);
        assert_eq!(stitched_small_worlds(&cfg), stitched_small_worlds(&cfg));
    }

    #[test]
    fn communities_dominate_cross_edges() {
        let cfg = SocialGraphConfig::new(8, 8, 3);
        let g = stitched_small_worlds(&cfg);
        let size = 256u32;
        let cross = g
            .edges()
            .filter(|e| e.src.0 / size != e.dst.0 / size)
            .count() as f64;
        let frac = cross / g.num_edges() as f64;
        // p_r = 5% per endpoint → just under 10% of edges cross communities.
        assert!(frac > 0.02 && frac < 0.20, "cross fraction {frac}");
    }

    #[test]
    fn zero_rewire_keeps_communities_disconnected() {
        let mut cfg = SocialGraphConfig::new(3, 6, 5);
        cfg.rewire_ratio = 0.0;
        let g = stitched_small_worlds(&cfg);
        let size = 64u32;
        assert!(g.edges().all(|e| e.src.0 / size == e.dst.0 / size));
    }

    #[test]
    fn msn_like_tiny_has_power_law_tail() {
        let g = msn_like(MsnScale::Tiny, 7);
        assert_eq!(g.num_vertices(), 8192);
        assert!(f64::from(g.max_out_degree()) > 5.0 * g.avg_out_degree());
        let hist = properties::degree_histogram(&g);
        // Many low-degree vertices, few high-degree ones.
        let low: u64 = hist.iter().filter(|(d, _)| *d <= 5).map(|(_, c)| *c).sum();
        let high: u64 = hist.iter().filter(|(d, _)| *d >= 100).map(|(_, c)| *c).sum();
        assert!(low > 10 * high.max(1), "low {low} high {high}");
    }

    #[test]
    fn locality_concentrates_cross_edges_near_siblings() {
        let mut cfg = SocialGraphConfig::new(8, 8, 13);
        cfg.rewire_ratio = 0.2; // plenty of cross edges to measure
        cfg.locality = 0.75;
        let g = stitched_small_worlds(&cfg);
        let size = 256u32;
        let (mut sibling, mut top) = (0u64, 0u64);
        for e in g.edges() {
            let (cs, cd) = (e.src.0 / size, e.dst.0 / size);
            if cs == cd {
                continue;
            }
            if cs ^ cd == 1 {
                sibling += 1; // 8 ordered sibling pairs
            } else if (cs >= 4) != (cd >= 4) {
                top += 1; // 32 ordered top-crossing pairs
            }
        }
        // Proximity: per-pair sibling volume must dwarf per-pair top volume.
        let sibling_pp = sibling as f64 / 8.0;
        let top_pp = top as f64 / 32.0;
        assert!(sibling_pp > 8.0 * top_pp, "sibling/pair {sibling_pp:.1} !>> top/pair {top_pp:.1}");
    }

    #[test]
    fn zero_locality_is_uniform() {
        let mut cfg = SocialGraphConfig::new(8, 8, 13);
        cfg.rewire_ratio = 0.2;
        cfg.locality = 0.0;
        let g = stitched_small_worlds(&cfg);
        let size = 256u32;
        let (mut sibling, mut top) = (0u64, 0u64);
        for e in g.edges() {
            let (cs, cd) = (e.src.0 / size, e.dst.0 / size);
            if cs == cd {
                continue;
            }
            if cs ^ cd == 1 {
                sibling += 1;
            } else if (cs >= 4) != (cd >= 4) {
                top += 1;
            }
        }
        let ratio = (sibling as f64 / 8.0) / (top as f64 / 32.0);
        assert!((0.7..1.4).contains(&ratio), "uniform stitching should be flat, ratio {ratio}");
    }

    #[test]
    fn worker_count_does_not_change_the_graph() {
        // Five communities: uneven groups at 2 and 3 workers, idle ones at 8.
        let mut odd = SocialGraphConfig::new(5, 7, 21);
        odd.rewire_ratio = 0.2;
        let pow2 = SocialGraphConfig::new(4, 8, 3);
        for cfg in [odd, pow2] {
            let one = stitch(&cfg, 1);
            assert!(one.num_edges() > 0);
            for workers in [0, 2, 3, 8] {
                assert_eq!(stitch(&cfg, workers), one, "{workers} workers");
            }
            assert_eq!(stitched_small_worlds(&cfg), one);
        }
    }

    #[test]
    fn communities_without_edges_stitch_to_an_edgeless_graph() {
        let mut cfg = SocialGraphConfig::new(3, 4, 1);
        cfg.edges_per_community = 0;
        for workers in [1, 2] {
            assert_eq!(stitch(&cfg, workers), CsrGraph::empty(48));
        }
    }

    #[test]
    fn single_community_never_rewires() {
        let cfg = SocialGraphConfig::new(1, 8, 9);
        let g = stitched_small_worlds(&cfg);
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 0);
    }
}
