//! The transfer path's bookkeeping — lane clocks read at chunk boundaries,
//! class facts resolved once per class on both sides — must not change what
//! arrives: graphs that interleave several classes land byte for byte as
//! the sequential reference lands them, in every engine mode, and the
//! report still accounts for every lane's time.

use std::collections::HashMap;
use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, Handle, HeapConfig, KlassKind, Vm};
use simnet::NodeId;
use skyway::buffer::TOP_MARK;
use skyway::{
    sequential_transfer, Error, GraphSender, ParallelConfig, PipelineConfig, PipelineEngine,
    PipelineReport, SendConfig, SkywayObjectInputStream, TransferMode, TypeDirectory,
};

fn vm(name: &str, cp: &Arc<ClassPath>) -> Vm {
    Vm::new(name, &HeapConfig::default().with_capacity(8 << 20), Arc::clone(cp)).unwrap()
}

fn env() -> (Arc<TypeDirectory>, Arc<ClassPath>, Vm) {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let sender = vm("s", &cp);
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, cp, sender)
}

fn char_array(vm: &mut Vm, len: u64, seed: u64) -> Addr {
    let k = vm.load_class("[C").unwrap();
    let a = vm.alloc_array(k, len).unwrap();
    for i in 0..len {
        vm.array_set_raw(a, i, (seed * 31 + i) % 0xd7ff).unwrap();
    }
    a
}

/// Roots interleaving ref-bearing instances (`Pair`, `String`,
/// `ArrayList`), prim arrays (`char[]`) and ref arrays (`Object[]`), with
/// shared strings so later roots reach back into earlier graphs.
fn ref_graph(vm: &mut Vm, n: usize) -> Vec<Handle> {
    let mut handles = Vec::new();
    let mut shared = Vec::new();
    for i in 0..n {
        let s = vm.new_string(&format!("root {i} {}", "z".repeat(i % 23))).unwrap();
        let sh = vm.handle(s);
        let list = vm.new_list(4).unwrap();
        let lh = vm.handle(list);
        let int = vm.new_integer(i as i32).unwrap();
        vm.list_push(vm.resolve(lh).unwrap(), int).unwrap();
        let arr = char_array(vm, (i % 9) as u64, i as u64);
        vm.list_push(vm.resolve(lh).unwrap(), arr).unwrap();
        if let Some(&prev) = shared.last() {
            let prev = vm.resolve(prev).unwrap();
            vm.list_push(vm.resolve(lh).unwrap(), prev).unwrap();
        }
        let pair = vm.new_pair(vm.resolve(sh).unwrap(), vm.resolve(lh).unwrap()).unwrap();
        handles.push(vm.handle(pair));
        shared.push(sh);
    }
    handles
}

/// Reference-free roots of four classes in turn (boxed int, long and
/// double, and char arrays): the graphs the inline mode accepts.
fn flat_roots(vm: &mut Vm, n: usize) -> Vec<Handle> {
    (0..n)
        .map(|i| {
            let a = match i % 4 {
                0 => vm.new_integer(i as i32).unwrap(),
                1 => vm.new_long(-(i as i64) << 20).unwrap(),
                2 => vm.new_double(i as f64 / 7.0).unwrap(),
                _ => char_array(vm, (i % 13) as u64, i as u64),
            };
            vm.handle(a)
        })
        .collect()
}

/// Current addresses of `handles` (resolved after every allocation, so a
/// collection during set-up cannot leave them stale).
fn resolve(vm: &Vm, handles: &[Handle]) -> Vec<Addr> {
    handles.iter().map(|&h| vm.resolve(h).unwrap()).collect()
}

/// The graph under `root` as bytes: objects in breadth-first order, each
/// as its class name and its raw words, with the klass word dropped and
/// every reference slot replaced by the target's position in that order.
fn canonical_bytes(vm: &Vm, root: Addr) -> Vec<(String, Vec<u64>)> {
    let klass_off = vm.spec().klass_off();
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut order = vec![root];
    index.insert(root.0, 0);
    let mut out = Vec::new();
    let mut next = 0;
    while next < order.len() {
        let obj = order[next];
        next += 1;
        let k = vm.klass_of(obj).unwrap();
        let size = vm.obj_size(obj).unwrap();
        let mut words: Vec<u64> =
            (0..size / 8).map(|w| vm.heap().arena().load_word(obj.0 + w * 8).unwrap()).collect();
        words[(klass_off / 8) as usize] = 0;
        for off in vm.ref_slots(obj).unwrap() {
            let tgt = vm.read_ref_at(obj, off).unwrap();
            words[(off / 8) as usize] = if tgt.is_null() {
                u64::MAX
            } else {
                *index.entry(tgt.0).or_insert_with(|| {
                    order.push(tgt);
                    order.len() - 1
                }) as u64
            };
        }
        out.push((k.name.clone(), words));
    }
    out
}

fn engine(chunk_limit: usize, workers: Option<usize>) -> PipelineEngine {
    PipelineEngine::new(PipelineConfig {
        chunk_limit,
        parallel: workers.map(|w| ParallelConfig {
            workers: w,
            min_roots_per_worker: 1,
            ..Default::default()
        }),
        ..PipelineConfig::default()
    })
}

/// Transfers `roots` through `engine` and through `sequential_transfer`
/// into fresh receivers, asserting the mode taken, clean heaps and
/// byte-identical graphs per root.
fn assert_matches_sequential(
    dir: &TypeDirectory,
    cp: &Arc<ClassPath>,
    sender: &Vm,
    roots: &[Addr],
    engine: &PipelineEngine,
    sid: u8,
    want_mode: TransferMode,
) -> PipelineReport {
    let mut r_engine = vm("r", cp);
    let (got, report) = engine
        .transfer(sender, &mut r_engine, dir, NodeId(0), NodeId(1), sid, 1, roots, None)
        .unwrap();
    assert_eq!(report.mode, want_mode);
    let mut r_seq = vm("r2", cp);
    let cfg = SendConfig { chunk_limit: engine.config().chunk_limit, ..SendConfig::for_vm(sender) };
    let (want, _, _) = sequential_transfer(
        sender,
        &mut r_seq,
        dir,
        NodeId(0),
        NodeId(1),
        sid + 1,
        1,
        roots,
        None,
        cfg,
    )
    .unwrap();
    assert!(r_engine.verify_heap().unwrap().is_empty(), "{want_mode:?} left a faulty heap");
    assert!(r_seq.verify_heap().unwrap().is_empty());
    assert_eq!(got.len(), roots.len());
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            canonical_bytes(&r_engine, g),
            canonical_bytes(&r_seq, w),
            "{want_mode:?} root {i} differs from the sequential transfer"
        );
    }
    report
}

#[test]
fn interleaved_classes_land_byte_identical_in_every_mode() {
    let (dir, cp, mut sender) = env();
    let graph = ref_graph(&mut sender, 96);
    let flat = flat_roots(&mut sender, 64);
    let (graph, flat) = (resolve(&sender, &graph), resolve(&sender, &flat));
    let kinds: std::collections::HashSet<_> = graph
        .iter()
        .flat_map(|&r| canonical_bytes(&sender, r))
        .map(|(name, _)| sender.klasses().by_name(&name).unwrap().kind)
        .collect();
    assert!(kinds.contains(&KlassKind::Instance) && kinds.contains(&KlassKind::RefArray));
    assert!(kinds.iter().any(|k| matches!(k, KlassKind::PrimArray(_))));

    assert_matches_sequential(
        &dir,
        &cp,
        &sender,
        &graph,
        &engine(512, None),
        1,
        TransferMode::Pipelined,
    );
    assert_matches_sequential(
        &dir,
        &cp,
        &sender,
        &graph,
        &engine(512, Some(4)),
        3,
        TransferMode::Parallel,
    );
    assert_matches_sequential(
        &dir,
        &cp,
        &sender,
        &flat,
        &engine(1 << 20, None),
        5,
        TransferMode::Inline,
    );
    assert_matches_sequential(
        &dir,
        &cp,
        &sender,
        &flat,
        &engine(256, None),
        7,
        TransferMode::Pipelined,
    );
    assert_matches_sequential(
        &dir,
        &cp,
        &sender,
        &flat,
        &engine(256, Some(4)),
        9,
        TransferMode::Parallel,
    );
}

#[test]
fn lane_clocks_read_per_chunk_still_account_every_lane() {
    let (dir, cp, mut sender) = env();
    let graph = ref_graph(&mut sender, 128);
    let graph = resolve(&sender, &graph);
    for (sid, workers, mode) in
        [(1, None, TransferMode::Pipelined), (3, Some(4), TransferMode::Parallel)]
    {
        let report =
            assert_matches_sequential(&dir, &cp, &sender, &graph, &engine(512, workers), sid, mode);
        assert!(report.chunk_bytes.len() > 4, "{mode:?} must span many chunks");
        assert!(report.produce_ns > 0, "{mode:?} lost its produce time");
        assert!(report.absorb_ns > 0, "{mode:?} lost its absorb time");
        assert!(report.pipelined_ns >= report.wire_ns, "{mode:?} schedule shorter than its wire");
    }
}

#[test]
fn never_issued_tid_is_a_typed_error() {
    let (dir, cp, mut sender) = env();
    let root = sender.new_integer(7).unwrap();
    let mut gs =
        GraphSender::new(&sender, &dir, NodeId(0), 1, 1, SendConfig::for_vm(&sender)).unwrap();
    gs.write_root(root).unwrap();
    let mut chunks = gs.finish().chunks;
    assert_eq!(chunks.len(), 1);
    let chunk = &mut chunks[0];
    assert_eq!(u64::from_le_bytes(chunk[0..8].try_into().unwrap()), TOP_MARK);
    // The object starts after the top mark; overwrite its klass slot.
    let at = 8 + sender.spec().klass_off() as usize;
    chunk[at..at + 8].copy_from_slice(&0xFFFF_FFF0u64.to_le_bytes());

    let mut receiver = vm("r", &cp);
    let mut gr = SkywayObjectInputStream::new(&mut receiver, &dir, NodeId(1));
    gr.push_chunk(chunk).unwrap();
    let err = gr.read_objects(None).unwrap_err();
    assert!(matches!(err, Error::UnknownTypeId(0xFFFF_FFF0)), "got {err:?}");
}
