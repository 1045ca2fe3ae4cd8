//! Golden oracle for the seeded generators.
//!
//! Each digest below is an FNV-1a hash of a generated graph's CSR: the vertex
//! count, then every vertex's out-degree followed by its sorted neighbor ids.
//! They were recorded while every generator still sampled on one thread and
//! `GraphBuilder` still sorted its edge list with a comparison sort. Every
//! partitioning, simulated table and benchmark digest downstream is a
//! function of these graphs, so any change here moves all of them. Do not
//! refresh these values to make a change pass.

use surfer_graph::generators::erdos::gnm;
use surfer_graph::generators::rmat::{rmat, RmatConfig};
use surfer_graph::generators::social::{msn_like, stitched_small_worlds, MsnScale, SocialGraphConfig};
use surfer_graph::CsrGraph;

fn digest(g: &CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(g.num_vertices());
    for v in g.vertices() {
        word(g.out_degree(v));
        for t in g.neighbors(v) {
            word(t.0);
        }
    }
    h
}

fn check(cases: &[(&str, u64, CsrGraph)]) {
    let wrong: Vec<String> = cases
        .iter()
        .map(|(name, want, g)| (name, want, digest(g)))
        .filter(|(_, want, got)| *want != got)
        .map(|(name, want, got)| format!("{name}: recorded {want:#018x}, got {got:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "generated graph changed:\n{}", wrong.join("\n"));
}

#[test]
fn msn_like_matches_recorded_digests() {
    check(&[
        ("msn_like(Tiny, 7)", 0xaaf0_4109_0d19_e43c, msn_like(MsnScale::Tiny, 7)),
        ("msn_like(Tiny, 2010)", 0xf069_b65c_0689_8b89, msn_like(MsnScale::Tiny, 2010)),
        ("msn_like(Small, 2010)", 0xa5cf_258f_130c_6f10, msn_like(MsnScale::Small, 2010)),
        ("msn_like(Small, 4242)", 0xd198_7217_2315_008e, msn_like(MsnScale::Small, 4242)),
    ]);
}

#[test]
fn other_generators_match_recorded_digests() {
    // Three communities: not a power of two, so rewired endpoints take the
    // uniform-target path of the stitching.
    let mut odd = SocialGraphConfig::new(3, 9, 11);
    odd.rewire_ratio = 0.2;
    check(&[
        ("rmat(scale 12, 40000 edges, seed 3)", 0x7a8a_5a6b_f737_dcaa, rmat(&RmatConfig::new(12, 40_000, 3))),
        ("stitched_small_worlds(3 x 2^9, p_r 0.2, seed 11)", 0x1ea4_4e83_3283_7914, stitched_small_worlds(&odd)),
        ("gnm(3000, 20000, 5)", 0x882c_bac8_7e99_0dfd, gnm(3000, 20_000, 5)),
        ("msn_like(Tiny, 7).symmetrize()", 0x3ce3_8cb9_e392_6032, msn_like(MsnScale::Tiny, 7).symmetrize()),
    ]);
}
