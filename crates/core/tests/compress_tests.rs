//! Tests for the compressed wire format (the paper's future-work
//! extension): correctness of expansion, byte savings, and preserved
//! semantics (aliasing, hashcodes, cycles).

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::verify::assert_heap_ok;
use mheap::{Addr, ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, verify_media_content};
use serlab::Serializer;
use simnet::{NodeId, Profile};
use skyway::{ShuffleController, SkywaySerializer, TypeDirectory};

fn setup() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    define_core_classes(&cp);
    let sender =
        Vm::new("n0", &HeapConfig::default().with_capacity(24 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("n1", &HeapConfig::default().with_capacity(24 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

fn serializer(dir: &Arc<TypeDirectory>, node: usize, compressed: bool) -> SkywaySerializer {
    SkywaySerializer::new(
        Arc::clone(dir),
        NodeId(node),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_wire_compression(compressed)
}

#[test]
fn compressed_roundtrip_preserves_structure() {
    let (dir, mut sender, mut receiver) = setup();
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, true);
    let rx = serializer(&dir, 1, true);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(rebuilt.len(), 20);
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i}");
    }
    // The expanded objects must form a well-formed heap.
    let rh: Vec<_> = rebuilt.iter().map(|&r| receiver.handle(r)).collect();
    let _ = rh;
    assert_heap_ok(&receiver);
}

#[test]
fn compressed_stream_is_smaller() {
    let (dir, mut sender, _) = setup();
    let handles = build_dataset(&mut sender, 100).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let plain = serializer(&dir, 0, false);
    let compressed = serializer(&dir, 0, true);
    let mut p = Profile::new();
    let plain_bytes = plain.serialize(&mut sender, &roots, &mut p).unwrap().len();
    let comp_bytes = compressed.serialize(&mut sender, &roots, &mut p).unwrap().len();
    assert!(
        (comp_bytes as f64) < plain_bytes as f64 * 0.90,
        "compressed {comp_bytes} not at least 10% under plain {plain_bytes}"
    );
}

#[test]
fn compressed_preserves_hashcodes_and_aliasing() {
    let (dir, mut sender, mut receiver) = setup();
    let s = sender.new_string("shared through compression").unwrap();
    let sh = sender.handle(s);
    let s1 = sender.resolve(sh).unwrap();
    let hash_before = sender.identity_hash(s1).unwrap();
    let a = sender.new_pair(s1, Addr::NULL).unwrap();
    let ah = sender.handle(a);
    let s1 = sender.resolve(sh).unwrap();
    let b = sender.new_pair(s1, Addr::NULL).unwrap();
    let bh = sender.handle(b);

    let tx = serializer(&dir, 0, true);
    let rx = serializer(&dir, 1, true);
    let mut p = Profile::new();
    let roots = vec![sender.resolve(ah).unwrap(), sender.resolve(bh).unwrap()];
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let fa = receiver.get_ref(rebuilt[0], "first").unwrap();
    let fb = receiver.get_ref(rebuilt[1], "first").unwrap();
    assert_eq!(fa, fb, "aliasing lost through compression");
    assert_eq!(receiver.identity_hash(fa).unwrap(), hash_before);
}

#[test]
fn compressed_cycles_roundtrip() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(mheap::KlassDef::new(
        "CNode",
        None,
        vec![("id", mheap::FieldType::Prim(mheap::PrimType::Int)), ("next", mheap::FieldType::Ref)],
    ));
    let mut sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver = Vm::new("n1", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let k = sender.load_class("CNode").unwrap();
    let a = sender.alloc_instance(k).unwrap();
    let ah = sender.handle(a);
    let b = sender.alloc_instance(k).unwrap();
    let a = sender.resolve(ah).unwrap();
    sender.set_int(a, "id", 1).unwrap();
    sender.set_int(b, "id", 2).unwrap();
    sender.set_ref(a, "next", b).unwrap();
    sender.set_ref(b, "next", a).unwrap();

    let tx = serializer(&dir, 0, true);
    let rx = serializer(&dir, 1, true);
    let mut p = Profile::new();
    let a = sender.resolve(ah).unwrap();
    let bytes = tx.serialize(&mut sender, &[a], &mut p).unwrap();
    let roots = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let ra = roots[0];
    let rb = receiver.get_ref(ra, "next").unwrap();
    assert_eq!(receiver.get_int(rb, "id").unwrap(), 2);
    assert_eq!(receiver.get_ref(rb, "next").unwrap(), ra);
}

#[test]
fn compressed_repeated_roots_use_backrefs() {
    let (dir, mut sender, mut receiver) = setup();
    let s = sender.new_string("twice").unwrap();
    let h = sender.handle(s);
    let tx = serializer(&dir, 0, true);
    let rx = serializer(&dir, 1, true);
    let mut p = Profile::new();
    let root = sender.resolve(h).unwrap();
    let bytes = tx.serialize(&mut sender, &[root, root], &mut p).unwrap();
    let roots = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(roots.len(), 2);
    assert_eq!(roots[0], roots[1]);
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "twice");
}

#[test]
fn plain_receiver_rejects_compressed_stream_gracefully() {
    // A receiver that doesn't understand the compressed flag must not
    // misinterpret the stream: flags carry the bit, so a mismatched local
    // spec errors instead of corrupting the heap.
    let (dir, mut sender, _) = setup();
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    let mut stock_receiver =
        Vm::new("stock", &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() }, cp)
            .unwrap();
    let handles = build_dataset(&mut sender, 2).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, true);
    let rx = serializer(&dir, 1, true); // declares SKYWAY local format
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    assert!(rx.deserialize(&mut stock_receiver, &bytes, &mut p).is_err());
}

#[test]
fn compression_works_with_small_chunks() {
    let (dir, mut sender, mut receiver) = setup();
    let handles = build_dataset(&mut sender, 30).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, true).with_chunk_limit(512);
    let rx = serializer(&dir, 1, true);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap());
    }
}

#[test]
fn compressed_two_lane_roundtrip() {
    let (dir, mut sender, mut receiver) = setup();
    let handles = build_dataset(&mut sender, 24).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, true).with_parallel_streams(2);
    let rx = serializer(&dir, 1, true).with_parallel_streams(2);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(rebuilt.len(), 24);
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i}");
    }
    assert!(receiver.verify_heap().unwrap().is_empty());
}
