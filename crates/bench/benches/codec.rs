//! Criterion micro-benchmarks of the adjacency-list codec, the frame
//! checksum and CSR ops.

use criterion::{criterion_group, criterion_main, Criterion};
use surfer_graph::adjacency::{decode_graph, encode_graph};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::properties;
use surfer_partition::store_fs::crc32;

fn bench_codec(c: &mut Criterion) {
    let g = msn_like(MsnScale::Tiny, 42);
    let blob = encode_graph(&g);
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);

    group.bench_function("encode_8k_graph", |b| b.iter(|| encode_graph(&g)));
    group.bench_function("decode_8k_graph", |b| b.iter(|| decode_graph(&blob).unwrap()));
    group.bench_function("transpose_8k", |b| b.iter(|| g.transpose()));
    group.bench_function("triangle_count_8k", |b| b.iter(|| properties::triangle_count(&g)));
    group.bench_function("degree_histogram_8k", |b| b.iter(|| properties::degree_histogram(&g)));
    // Every spilled byte passes through this twice (write, reread).
    let mut x = 42u32;
    let mib: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect();
    group.bench_function("crc32_1mib", |b| b.iter(|| crc32(std::hint::black_box(&mib))));
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
