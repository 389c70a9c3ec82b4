//! Criterion micro-benchmarks of Skyway's hot paths: the send traversal
//! (§4.2), absolutization (§4.3), and the parallel sender (§4.2 threads).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mheap::{ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes};
use serlab::Serializer;
use simnet::{NodeId, Profile};
use skyway::{ShuffleController, SkywaySerializer, Tracking, TypeDirectory};

const N_RECORDS: usize = 500;

struct Env {
    cp: Arc<ClassPath>,
    vm: Vm,
    dir: Arc<TypeDirectory>,
    roots: Vec<mheap::Addr>,
}

fn env() -> Env {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    let mut vm =
        Vm::new("bench", &HeapConfig::default().with_capacity(256 << 20), Arc::clone(&cp)).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&vm).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    let handles = build_dataset(&mut vm, N_RECORDS).unwrap();
    let roots: Vec<_> = handles.iter().map(|h| vm.resolve(*h).unwrap()).collect();
    Env { cp, vm, dir, roots }
}

fn bench_traversal(c: &mut Criterion) {
    let mut e = env();
    let mut g = c.benchmark_group("send_traversal_500_records");
    for (label, tracking) in [("baddr", Tracking::Baddr), ("hashtable", Tracking::HashTable)] {
        let sky = SkywaySerializer::new(
            Arc::clone(&e.dir),
            NodeId(0),
            Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        )
        .with_tracking(tracking);
        g.bench_function(label, |b| {
            b.iter(|| {
                sky.controller().start_phase();
                let mut p = Profile::new();
                sky.serialize(&mut e.vm, &e.roots, &mut p).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_absolutization(c: &mut Criterion) {
    let mut e = env();
    let sky = SkywaySerializer::new(
        Arc::clone(&e.dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    );
    let mut p = Profile::new();
    let bytes = sky.serialize(&mut e.vm, &e.roots, &mut p).unwrap();
    let rx = SkywaySerializer::new(
        Arc::clone(&e.dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    );
    c.bench_function("absolutize_500_records", |b| {
        b.iter_batched(
            || {
                Vm::new("recv", &HeapConfig::default().with_capacity(256 << 20), Arc::clone(&e.cp))
                    .unwrap()
            },
            |mut recv| {
                let mut p = Profile::new();
                rx.deserialize(&mut recv, &bytes, &mut p).unwrap()
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_parallel_send(c: &mut Criterion) {
    let mut e = env();
    let mut g = c.benchmark_group("parallel_send_500_records");
    for threads in [1usize, 2, 4] {
        let sky = SkywaySerializer::new(
            Arc::clone(&e.dir),
            NodeId(0),
            Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        )
        .with_parallel_streams(threads);
        g.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                sky.controller().start_phase();
                let mut p = Profile::new();
                sky.serialize(&mut e.vm, &e.roots, &mut p).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_traversal, bench_absolutization, bench_parallel_send
}
criterion_main!(benches);
