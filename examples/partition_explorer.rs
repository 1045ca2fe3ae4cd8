//! Explore the partitioning machinery: multilevel bisection quality, the
//! partition sketch and its §4.1 properties, bandwidth-aware placement on a
//! tree topology, and the on-disk partition store.
//!
//! ```text
//! cargo run --release --example partition_explorer
//! ```

use std::sync::Arc;
use surfer::cluster::Topology;
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::partition::{
    bandwidth_aware_partition, cut_between, load_partitioned, quality, random_partition,
    write_partitioned, BisectConfig, PartitionedGraph, RecursivePartitioner,
};

fn main() {
    let graph = msn_like(MsnScale::Tiny, 99);
    println!("graph: {} vertices, {} edges\n", graph.num_vertices(), graph.num_edges());

    // --- Partition quality vs a random assignment (Table 5 in miniature) ---
    println!("{:<12} {:>10} {:>10}", "partitions", "ier ours", "ier random");
    for p in [4u32, 8, 16, 32] {
        let kway = RecursivePartitioner::default().partition(&graph, p);
        let ours = quality(&graph, &kway.partitioning).inner_edge_ratio;
        let rand = quality(&graph, &random_partition(graph.num_vertices(), p, 1)).inner_edge_ratio;
        println!("{p:<12} {:>9.1}% {:>9.1}%", ours * 100.0, rand * 100.0);
    }

    // --- The partition sketch and its properties (§4.1) ---
    let kway = RecursivePartitioner::default().partition(&graph, 8);
    println!("\npartition sketch ({} levels, monotone: {}):", kway.sketch.num_levels(), kway.sketch.is_monotone());
    for l in 0..kway.sketch.num_levels() {
        println!("  T_{l} (cross edges above level {l}): {}", kway.sketch.total_cut_at_level(l));
    }
    let p = &kway.partitioning;
    println!(
        "proximity: sibling pair cut C(0,1) = {}, far pair cut C(0,7) = {}",
        cut_between(&graph, p, 0, 1),
        cut_between(&graph, p, 0, 7)
    );

    // --- Bandwidth-aware placement on a 2-pod tree ---
    let topo = Topology::t2(2, 1, 8);
    let placed = bandwidth_aware_partition(&graph, &topo, 8, &BisectConfig::default());
    println!("\nbandwidth-aware placement on {}:", topo.name());
    for (pid, m) in placed.placement.iter().enumerate() {
        println!("  partition {pid} -> {m} (pod {})", topo.pod_of(*m));
    }

    // --- Round-trip through the on-disk partition store ---
    let pg = PartitionedGraph::new(Arc::new(graph), &placed);
    let dir = std::env::temp_dir().join("surfer-partition-explorer");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_partitioned(&dir, &pg).expect("write partition store");
    let back = load_partitioned(&dir).expect("reload partition store");
    println!(
        "\nwrote {} partitions to {} and reloaded them (identical: {})",
        manifest.partitions.len(),
        dir.display(),
        back.graph() == pg.graph() && back.placement() == pg.placement()
    );
    for pid in pg.partitions().take(3) {
        let meta = pg.meta(pid);
        println!(
            "  partition {pid}: {} vertices, {} bytes, {:.0}% inner vertices, boundary {}",
            meta.members.len(),
            meta.bytes,
            meta.inner_vertex_ratio() * 100.0,
            meta.members.len() as u64 - meta.inner_members
        );
    }
}
