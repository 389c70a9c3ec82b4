//! Segment-store integration tests: attach must be observationally equal
//! to a byte-cloning transfer, refcounts must pin segments across GC and
//! epoch advances, and the global chunk pool must make back-to-back
//! pipelined transfers allocation-free.

use std::sync::Arc;

use proptest::prelude::*;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, Gen, HeapConfig, KlassDef, PrimType, Vm};
use segstore::{shared_transfer, SegStore};
use simnet::NodeId;
use skyway::{
    sequential_transfer, ChunkPool, PipelineConfig, PipelineEngine, SendConfig, TransferMode,
    TypeDirectory,
};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "SNode",
        None,
        vec![
            ("tag", FieldType::Prim(PrimType::Long)),
            ("left", FieldType::Ref),
            ("right", FieldType::Ref),
        ],
    ));
    cp
}

#[derive(Debug, Clone)]
struct GraphSpec {
    tags: Vec<i64>,
    lefts: Vec<Option<usize>>,
    rights: Vec<Option<usize>>,
    roots: Vec<usize>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<i64>(), n),
                proptest::collection::vec(proptest::option::of(0..n), n),
                proptest::collection::vec(proptest::option::of(0..n), n),
                proptest::collection::vec(0..n, 1..5),
            )
        })
        .prop_map(|(tags, lefts, rights, roots)| {
            let clamp = |v: Vec<Option<usize>>| {
                v.into_iter().enumerate().map(|(i, e)| e.filter(|&t| t < i)).collect::<Vec<_>>()
            };
            GraphSpec { tags, lefts: clamp(lefts), rights: clamp(rights), roots }
        })
}

fn build(vm: &mut Vm, spec: &GraphSpec) -> Vec<mheap::Handle> {
    let k = vm.load_class("SNode").unwrap();
    let mut handles = Vec::with_capacity(spec.tags.len());
    for i in 0..spec.tags.len() {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_long(node, "tag", spec.tags[i]).unwrap();
        let h = vm.handle(node);
        if let Some(l) = spec.lefts[i] {
            let node = vm.resolve(h).unwrap();
            let t = vm.resolve(handles[l]).unwrap();
            vm.set_ref(node, "left", t).unwrap();
        }
        if let Some(r) = spec.rights[i] {
            let node = vm.resolve(h).unwrap();
            let t = vm.resolve(handles[r]).unwrap();
            vm.set_ref(node, "right", t).unwrap();
        }
        handles.push(h);
    }
    handles
}

/// Canonical form of the graph reachable from `root`: DFS preorder with
/// edges as discovery indices — identical graphs canonicalize identically
/// regardless of where their bytes live (owned heap or attached segment).
fn canonicalize(vm: &Vm, root: Addr) -> Vec<(i64, Option<usize>, Option<usize>)> {
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut order: Vec<Addr> = Vec::new();
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if a.is_null() || index.contains_key(&a.0) {
            continue;
        }
        index.insert(a.0, order.len());
        order.push(a);
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        stack.push(r);
        stack.push(l);
    }
    let mut out = Vec::with_capacity(order.len());
    for &a in &order {
        let tag = vm.get_long(a, "tag").unwrap();
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        out.push((tag, (!l.is_null()).then(|| index[&l.0]), (!r.is_null()).then(|| index[&r.0])));
    }
    out
}

/// Two co-located VMs on node 0 sharing one type directory.
fn same_node_env() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = classpath();
    let sender =
        Vm::new("s", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("r", &HeapConfig::small().with_capacity(8 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

fn resolve_roots(vm: &Vm, handles: &[mheap::Handle], idx: &[usize]) -> Vec<Addr> {
    idx.iter().map(|&i| vm.resolve(handles[i]).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The tentpole property: attaching a sealed segment must be
    // observationally identical to cloning the graph byte-by-byte through
    // the wire path — same per-root structure, tags, and sharing — while
    // doing none of the receive-side work (zero chunks, fixups, dirtied
    // cards) and keeping every heap invariant intact, even with owned→
    // segment references created after the attach.
    #[test]
    fn attach_equals_clone(spec in graph_spec(32)) {
        let (dir, mut sender, mut receiver) = same_node_env();
        let handles = build(&mut sender, &spec);
        let roots = resolve_roots(&sender, &handles, &spec.roots);

        // Reference run: the ordinary cloning transfer of the same graph
        // in an independent environment.
        let (dir2, mut sender2, mut receiver2) = same_node_env();
        let handles2 = build(&mut sender2, &spec);
        let roots2 = resolve_roots(&sender2, &handles2, &spec.roots);
        let cfg = SendConfig::for_vm(&sender2);
        let (cloned, _, _) = sequential_transfer(
            &sender2, &mut receiver2, &dir2, NodeId(0), NodeId(1), 1, 1, &roots2, None, cfg,
        ).unwrap();

        let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
        let (attached, report) =
            shared_transfer(&store, &sender, &mut receiver, &dir, NodeId(0), &roots, obs::TraceCtx::NONE)
                .unwrap();

        prop_assert_eq!(report.mode, TransferMode::Shared);
        prop_assert_eq!(report.recv_stats.chunks, 0);
        prop_assert_eq!(report.recv_stats.ref_fixups, 0);
        prop_assert_eq!(report.recv_stats.cards_dirtied, 0);
        prop_assert_eq!(attached.len(), cloned.len());
        for ((a, c), &orig) in attached.iter().zip(&cloned).zip(&roots) {
            let want = canonicalize(&sender, orig);
            prop_assert_eq!(&canonicalize(&receiver, *a), &want);
            prop_assert_eq!(&canonicalize(&receiver2, *c), &want);
        }

        // Owned objects may point INTO the segment (cross-segment refs);
        // the heap must verify clean and survive a full GC with the
        // segment acting as a boundary.
        let k = receiver.load_class("SNode").unwrap();
        let owned = receiver.alloc_instance(k).unwrap();
        let h = receiver.handle(owned);
        let owned = receiver.resolve(h).unwrap();
        receiver.set_ref(owned, "left", attached[0]).unwrap();
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
        receiver.full_gc().unwrap();
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
        let owned = receiver.resolve(h).unwrap();
        let through = receiver.get_ref(owned, "left").unwrap();
        prop_assert_eq!(&canonicalize(&receiver, through), &canonicalize(&sender, roots[0]));
    }
}

// A segment stays mapped and readable across minor and full GC of the
// attacher, advance_epoch can never reclaim it while a refcount pins it,
// and detach + one epoch advance reclaims it exactly once.
#[test]
fn detach_under_gc_never_reclaims_attached() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![7, 11, 13, 17],
        lefts: vec![None, Some(0), Some(1), Some(2)],
        rights: vec![None, None, Some(0), Some(1)],
        roots: vec![3],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let want = canonicalize(&sender, roots[0]);

    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots, obs::TraceCtx::NONE).unwrap();
    let attached = store.attach(&mut receiver, seal.base, obs::TraceCtx::NONE).unwrap();
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(receiver.gen_of(attached[0]).unwrap(), Gen::Segment);

    // Churn the attacher's own heap so both GC flavors actually run.
    let k = receiver.load_class("SNode").unwrap();
    for i in 0..200 {
        let n = receiver.alloc_instance(k).unwrap();
        receiver.set_long(n, "tag", i).unwrap();
    }
    receiver.minor_gc().unwrap();
    receiver.full_gc().unwrap();
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);

    // Epochs may advance arbitrarily while attached: nothing is reclaimed.
    for _ in 0..3 {
        assert_eq!(store.advance_epoch(), 0);
    }
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(canonicalize(&receiver, attached[0]), want);

    // Detach retires the segment into limbo; it survives the epoch it
    // retired in and is reclaimed by the next advance.
    store.detach(&mut receiver, seal.base, obs::TraceCtx::NONE).unwrap();
    assert_eq!(store.refcount(seal.base), None);
    assert!(receiver.gen_of(attached[0]).is_err());
    assert_eq!(store.live_segments(), 1);
    assert_eq!(store.advance_epoch(), 1);
    assert_eq!(store.live_segments(), 0);
    assert_eq!(store.advance_epoch(), 0);
}

// Broadcast shape: one seal, N attachers sharing the same physical bytes.
#[test]
fn broadcast_attaches_share_one_segment() {
    let cp = classpath();
    let mut driver =
        Vm::new("driver", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp)).unwrap();
    let dir = Arc::new(TypeDirectory::new(1, NodeId(0)));
    dir.bootstrap_driver(&driver).unwrap();
    let spec = GraphSpec {
        tags: vec![1, 2, 3],
        lefts: vec![None, Some(0), Some(1)],
        rights: vec![None, None, Some(0)],
        roots: vec![2],
    };
    let handles = build(&mut driver, &spec);
    let roots = resolve_roots(&driver, &handles, &spec.roots);
    let want = canonicalize(&driver, roots[0]);

    let registry = Arc::new(obs::Registry::new());
    let store = SegStore::new().with_metrics(Arc::clone(&registry));
    let seal = store.seal(&driver, &dir, NodeId(0), &roots, obs::TraceCtx::NONE).unwrap();

    const N: usize = 4;
    let mut executors: Vec<Vm> = (0..N)
        .map(|i| Vm::new(format!("exec{i}"), &HeapConfig::small(), Arc::clone(&cp)).unwrap())
        .collect();
    let mut per_vm_roots = Vec::new();
    for vm in &mut executors {
        per_vm_roots.push(store.attach(vm, seal.base, obs::TraceCtx::NONE).unwrap());
    }
    // One copy, N views.
    assert_eq!(store.refcount(seal.base), Some(N as u32));
    assert_eq!(store.live_segments(), 1);
    let nc = registry.counter(obs::names::SEGSTORE_BYTES_NOT_COPIED).get();
    assert_eq!(nc, seal.bytes * N as u64);
    for (vm, roots) in executors.iter().zip(&per_vm_roots) {
        assert_eq!(canonicalize(vm, roots[0]), want);
        assert_eq!(vm.verify_heap().unwrap(), vec![]);
    }
    // Same base address in every attacher: the roots are literally equal.
    for roots in &per_vm_roots {
        assert_eq!(roots[0], per_vm_roots[0][0]);
    }
    for vm in &mut executors {
        store.detach(vm, seal.base, obs::TraceCtx::NONE).unwrap();
    }
    assert_eq!(store.advance_epoch(), 1);
    assert_eq!(registry.counter(obs::names::SEGSTORE_RECLAIMED).get(), 1);
}

// Double attach of one segment to one VM must fail cleanly and leave the
// refcount where it was.
#[test]
fn double_attach_rolls_back_refcount() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![5, 6],
        lefts: vec![None, Some(0)],
        rights: vec![None, None],
        roots: vec![1],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots, obs::TraceCtx::NONE).unwrap();
    store.attach(&mut receiver, seal.base, obs::TraceCtx::NONE).unwrap();
    assert!(store.attach(&mut receiver, seal.base, obs::TraceCtx::NONE).is_err());
    assert_eq!(store.refcount(seal.base), Some(1));
    assert!(matches!(
        store.attach(&mut receiver, seal.base + 0x5555, obs::TraceCtx::NONE),
        Err(segstore::Error::UnknownSegment(_))
    ));
}

// The per-node global chunk pool: two fresh engines share it, so the
// second transfer's chunks all come from the first transfer's returns.
#[test]
fn back_to_back_transfers_have_zero_pool_misses() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: (0..24).collect(),
        lefts: (0..24).map(|i| if i > 0 { Some(i - 1) } else { None }).collect(),
        rights: vec![None; 24],
        roots: vec![23],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);

    // Both engines are constructed independently — sharing happens only
    // through the process-global pool that `new` defaults to.
    let e1 = PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..Default::default() });
    let e2 = PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..Default::default() });
    assert!(Arc::ptr_eq(e1.pool(), e2.pool()));
    assert!(Arc::ptr_eq(e1.pool(), ChunkPool::global()));

    let (_, r1) = e1
        .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None)
        .unwrap();
    let (_, r2) = e2
        .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 2, &roots, None)
        .unwrap();
    // First run may allocate; the second must be served entirely from the
    // chunks the first returned to the shared pool.
    assert!(r1.pool_hits + r1.pool_misses > 0);
    assert_eq!(r2.pool_misses, 0);
    assert!(r2.pool_hits > 0);
}
