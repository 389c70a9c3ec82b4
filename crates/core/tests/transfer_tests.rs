//! End-to-end Skyway transfer tests: correctness of the full
//! sender→chunks→receiver pipeline, hashcode preservation, aliasing,
//! threading, heterogeneous formats, GC interaction, and failure modes.

use std::sync::Arc;

use mheap::{Addr, ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, verify_media_content};
use serlab::Serializer;
use simnet::{Cluster, NodeId, Profile, SimConfig};
use skyway::buffer::{Frame, Header, Lane, FLAG_COMPRESSED};
use skyway::{
    scrub_baddrs, ParallelConfig, PipelineConfig, PipelineEngine, SendConfig, ShuffleController,
    SkywayFileInputStream, SkywayObjectInputStream, SkywayObjectOutputStream, SkywaySerializer,
    SkywaySocketInputStream, SkywaySocketOutputStream, Tracking, TypeDirectory, UpdateRegistry,
};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    cp
}

fn setup_pair() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = classpath();
    let sender =
        Vm::new("n0", &HeapConfig::default().with_capacity(24 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("n1", &HeapConfig::default().with_capacity(24 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

/// `frame` again, its one lane's chunks replaced by `chunks`.
fn with_chunks(frame: &Frame<&[u8]>, chunks: Vec<Vec<u8>>) -> Vec<u8> {
    let roots = frame.lanes[0].roots.clone();
    Frame { header: frame.header, lanes: vec![Lane { roots, chunks }] }.encode()
}

fn skyway_for(dir: &Arc<TypeDirectory>, node: usize) -> SkywaySerializer {
    SkywaySerializer::new(
        Arc::clone(dir),
        NodeId(node),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
}

#[test]
fn jsbs_records_roundtrip() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 30).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(rebuilt.len(), 30);
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i}");
    }
    // Skyway's defining property: zero S/D function invocations.
    assert_eq!(p.ser_invocations, 0);
    assert_eq!(p.deser_invocations, 0);
    assert!(p.objects_transferred > 0);
}

#[test]
fn identity_hashcode_survives_transfer() {
    // §4.2 Header Update: the cached hashcode rides the mark word across
    // the wire, so hash structures need no rehash.
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("hash me").unwrap();
    let h = sender.handle(s);
    let s = sender.resolve(h).unwrap();
    let hash_before = sender.identity_hash(s).unwrap();

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let s = sender.resolve(h).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let hash_after = receiver.identity_hash(roots[0]).unwrap();
    assert_eq!(hash_before, hash_after);
}

#[test]
fn transferred_hashmap_is_usable_without_rehash() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let map = sender.new_hash_map(16).unwrap();
    let mh = sender.handle(map);
    let mut key_handles = Vec::new();
    for i in 0..40 {
        let k = sender.new_integer(i).unwrap();
        key_handles.push(sender.handle(k));
        let v = sender.new_integer(i * 3).unwrap();
        let map = sender.resolve(mh).unwrap();
        let k = sender.resolve(*key_handles.last().unwrap()).unwrap();
        sender.map_put(map, k, v).unwrap();
    }
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let map = sender.resolve(mh).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[map], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let rmap = roots[0];
    assert_eq!(receiver.map_len(rmap).unwrap(), 40);
    // The bucket layout is still consistent with the (preserved) hashes —
    // no rehash required.
    assert!(receiver.map_is_consistent(rmap).unwrap());
}

#[test]
fn aliasing_is_preserved_within_a_phase() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("shared").unwrap();
    let sh = sender.handle(s);
    let s1 = sender.resolve(sh).unwrap();
    let a = sender.new_pair(s1, Addr::NULL).unwrap();
    let ah = sender.handle(a);
    let s1 = sender.resolve(sh).unwrap();
    let b = sender.new_pair(s1, Addr::NULL).unwrap();
    let bh = sender.handle(b);

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let roots = vec![sender.resolve(ah).unwrap(), sender.resolve(bh).unwrap()];
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let fa = receiver.get_ref(rebuilt[0], "first").unwrap();
    let fb = receiver.get_ref(rebuilt[1], "first").unwrap();
    assert_eq!(fa, fb, "shared object duplicated");
    assert_eq!(receiver.read_string(fa).unwrap(), "shared");
}

#[test]
fn repeated_root_uses_backward_reference() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("root twice").unwrap();
    let h = sender.handle(s);
    let controller = ShuffleController::new();
    let mut out = SkywayObjectOutputStream::new(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap();
    let root = sender.resolve(h).unwrap();
    out.write_object(root).unwrap();
    out.write_object(root).unwrap(); // already sent in this phase
    let stream = out.finish();

    let mut input = SkywayObjectInputStream::new(&mut receiver, &dir, NodeId(1));
    for c in &stream.chunks {
        input.push_chunk(c).unwrap();
    }
    let (roots, stats) = input.read_objects(None).unwrap();
    assert_eq!(roots.len(), 2);
    assert_eq!(roots[0], roots[1], "backward reference must alias the same object");
    // Only 2 objects (string + char array) crossed, not 4.
    assert_eq!(stats.objects, 2);
}

#[test]
fn cyclic_graphs_transfer() {
    let cp = classpath();
    cp.define(mheap::KlassDef::new(
        "Cyc",
        None,
        vec![("id", mheap::FieldType::Prim(mheap::PrimType::Int)), ("next", mheap::FieldType::Ref)],
    ));
    let mut sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver = Vm::new("n1", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let k = sender.load_class("Cyc").unwrap();
    let a = sender.alloc_instance(k).unwrap();
    let ah = sender.handle(a);
    let b = sender.alloc_instance(k).unwrap();
    let a = sender.resolve(ah).unwrap();
    sender.set_int(a, "id", 1).unwrap();
    sender.set_int(b, "id", 2).unwrap();
    sender.set_ref(a, "next", b).unwrap();
    sender.set_ref(b, "next", a).unwrap();

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let a = sender.resolve(ah).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[a], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let ra = roots[0];
    let rb = receiver.get_ref(ra, "next").unwrap();
    assert_eq!(receiver.get_int(rb, "id").unwrap(), 2);
    assert_eq!(receiver.get_ref(rb, "next").unwrap(), ra, "cycle broken");
}

#[test]
fn streaming_small_chunks_roundtrip() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    // Tiny 256-byte chunks force many flushes and cross-chunk references.
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_chunk_limit(256);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap());
    }
}

#[test]
fn parallel_send_with_shared_objects() {
    let (dir, mut sender, mut receiver) = setup_pair();
    // Many pairs sharing one string → cross-thread contention on baddr.
    let s = sender.new_string("contended").unwrap();
    let sh = sender.handle(s);
    let mut pair_handles = Vec::new();
    for _ in 0..64 {
        let s = sender.resolve(sh).unwrap();
        let pr = sender.new_pair(s, Addr::NULL).unwrap();
        pair_handles.push(sender.handle(pr));
    }
    let roots: Vec<Addr> = pair_handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let mut p = Profile::new();
    let bytes = skyway_for(&dir, 0)
        .with_parallel_streams(4)
        .serialize(&mut sender, &roots, &mut p)
        .unwrap();
    // Work stealing means the 64 roots may end up on fewer than 4 lanes
    // (a fast lane can drain its victims), but never more.
    let frame = Frame::parse(&bytes).unwrap();
    assert!(!frame.lanes.is_empty() && frame.lanes.len() <= 4);
    assert_eq!(frame.lanes.iter().map(|l| l.roots.len()).sum::<usize>(), 64);

    // Each lane is an independent stream; receive them all.
    let got = skyway_for(&dir, 1).deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(got.len(), 64);
    for &r in &got {
        let first = receiver.get_ref(r, "first").unwrap();
        assert_eq!(receiver.read_string(first).unwrap(), "contended");
    }
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);
}

#[test]
fn heterogeneous_format_adjustment() {
    // Sender uses the Skyway format (3-word header); receiver runs a
    // compact stock JVM (2-word header, 4-byte array length). The sender
    // adjusts object formats while copying (§3.1).
    let cp = classpath();
    let mut sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver =
        Vm::new("n1", &HeapConfig { spec: LayoutSpec::COMPACT, ..HeapConfig::small() }, cp)
            .unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let s = sender.new_string("format shift").unwrap();
    let h = sender.handle(s);
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT, // receiver's format
    );
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT,
    );
    let mut p = Profile::new();
    let s = sender.resolve(h).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "format shift");
}

#[test]
fn spec_mismatch_is_rejected() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("x").unwrap();
    // Sender prepares a COMPACT-format stream but the receiver runs SKYWAY.
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT,
    );
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    assert!(sky_rx.deserialize(&mut receiver, &bytes, &mut p).is_err());
}

#[test]
fn received_objects_survive_gc_and_stay_usable() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 10).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    // Root them (the caller contract), then stress the receiver heap.
    let root_handles: Vec<_> = rebuilt.iter().map(|&r| receiver.handle(r)).collect();
    for i in 0..5000 {
        receiver.new_string(&format!("gc pressure {i}")).unwrap();
    }
    receiver.full_gc().unwrap();
    for (i, h) in root_handles.iter().enumerate() {
        let mc = receiver.resolve(*h).unwrap();
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i} after GC");
    }
}

#[test]
fn hashtable_tracking_works_without_baddr_word() {
    // Ablation path: a stock-format heap (no baddr) can still send via the
    // side-table tracker.
    let cp = classpath();
    let mut sender = Vm::new(
        "n0",
        &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() },
        Arc::clone(&cp),
    )
    .unwrap();
    let mut receiver =
        Vm::new("n1", &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() }, cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    let s = sender.new_string("no baddr").unwrap();
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::STOCK,
    )
    .with_tracking(Tracking::HashTable);
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::STOCK,
    );
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "no baddr");
}

#[test]
fn baddr_tracking_on_stock_heap_is_rejected() {
    let cp = classpath();
    let sender =
        Vm::new("n0", &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() }, cp).unwrap();
    let dir = TypeDirectory::new(1, NodeId(0));
    let controller = ShuffleController::new();
    let cfg = SendConfig {
        chunk_limit: 1024,
        receiver_spec: LayoutSpec::STOCK,
        tracking: Tracking::Baddr,
    };
    assert!(matches!(
        SkywayObjectOutputStream::new(&sender, &dir, NodeId(0), &controller, cfg),
        Err(skyway::Error::NeedsBaddr)
    ));
}

#[test]
fn update_hooks_run_after_transfer() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let i = sender.new_integer(41).unwrap();
    let hooks = Arc::new(UpdateRegistry::new());
    hooks.register_update(mheap::stdlib::INTEGER, |vm, obj| {
        let v = vm.get_int(obj, "value").map_err(skyway::Error::Heap)?;
        vm.set_int(obj, "value", v + 1).map_err(skyway::Error::Heap)?;
        Ok(())
    });
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_hooks(hooks);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[i], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.get_int(roots[0], "value").unwrap(), 42);
}

#[test]
fn phase_isolation_new_phase_resends() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("phased").unwrap();
    let h = sender.handle(s);
    let controller = Arc::new(ShuffleController::new());
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::clone(&controller),
        LayoutSpec::SKYWAY,
    );
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let s1 = sender.resolve(h).unwrap();
    let b1 = sky_tx.serialize(&mut sender, &[s1], &mut p).unwrap();
    controller.start_phase(); // shuffleStart
    let s2 = sender.resolve(h).unwrap();
    let b2 = sky_tx.serialize(&mut sender, &[s2], &mut p).unwrap();
    // Both are full copies (no cross-phase backward refs).
    let r1 = sky_rx.deserialize(&mut receiver, &b1, &mut p).unwrap();
    let r2 = sky_rx.deserialize(&mut receiver, &b2, &mut p).unwrap();
    assert_ne!(r1[0], r2[0]);
    assert_eq!(receiver.read_string(r1[0]).unwrap(), "phased");
    assert_eq!(receiver.read_string(r2[0]).unwrap(), "phased");
}

#[test]
fn scrub_baddrs_clears_everything() {
    let (_dir, mut sender, _receiver) = setup_pair();
    let dir = Arc::new(TypeDirectory::new(1, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    let s = sender.new_string("scrubbed").unwrap();
    let h = sender.handle(s);
    let controller = ShuffleController::new();
    let mut out = SkywayObjectOutputStream::new(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap();
    let s = sender.resolve(h).unwrap();
    out.write_object(s).unwrap();
    let _ = out.finish();
    // The baddr word now carries phase state.
    let s = sender.resolve(h).unwrap();
    let off = sender.spec().baddr_off().unwrap();
    assert_ne!(sender.heap().arena().load_word(s.0 + off).unwrap(), 0);
    scrub_baddrs(&mut sender).unwrap();
    let s = sender.resolve(h).unwrap();
    assert_eq!(sender.heap().arena().load_word(s.0 + off).unwrap(), 0);
}

#[test]
fn corrupt_stream_is_an_error() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("x").unwrap();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let mut bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    // Corrupt the tID of the first object: after the 24-byte frame header,
    // the lane's root count and one-entry root table, its chunk count, the
    // 4-byte chunk len, the 8-byte TOP_MARK and the 8-byte mark word.
    let off = 24 + 4 + 4 + 4 + 4 + 8 + 8;
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(sky_rx.deserialize(&mut receiver, &bytes, &mut p).is_err());
}

#[test]
fn misaligned_relative_addresses_are_rejected() {
    let (dir, mut sender, _) = setup_pair();
    let s = sender.new_string("on the grid").unwrap();
    let value_off = sender.ref_slots(s).unwrap()[0] as usize;
    let mut p = Profile::new();
    // The string twice: the repeat goes out as a top reference.
    let blob = skyway_for(&dir, 0).serialize(&mut sender, &[s, s], &mut p).unwrap();
    let frame = Frame::parse(&blob).unwrap();
    assert_eq!(frame.lanes.len(), 1);
    assert_eq!(frame.lanes[0].chunks.len(), 1);
    let chunk = frame.lanes[0].chunks[0].to_vec();
    let word = |c: &[u8], at: usize| u64::from_le_bytes(c[at..at + 8].try_into().unwrap());
    // Top mark, then the string at logical 8, its char array, and last the
    // top reference to logical 8 (stored as logical + 1).
    let top_ref = chunk.len() - 8;
    assert_eq!(word(&chunk, top_ref), 8 + 1);
    for (at, what) in [(8 + value_off, "ref slot"), (top_ref, "top reference")] {
        // Still inside the stream, but 4 bytes off the object grid.
        let mut bad = chunk.clone();
        let v = word(&bad, at) + 4;
        bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let blob = with_chunks(&frame, vec![bad]);
        let mut receiver = Vm::new("n1", &HeapConfig::default(), classpath()).unwrap();
        let err = skyway_for(&dir, 1).deserialize(&mut receiver, &blob, &mut p).unwrap_err();
        let want = skyway::Error::MisalignedRelativeAddr(v - 1).to_string();
        assert!(matches!(&err, serlab::Error::Malformed(m) if *m == want), "{what}: {err:?}");
    }
}

#[test]
fn interior_relative_addresses_are_rejected() {
    let (dir, mut sender, _) = setup_pair();
    let s = sender.new_string("on the grid").unwrap();
    let value_off = sender.ref_slots(s).unwrap()[0] as usize;
    let mut p = Profile::new();
    // The string twice: the repeat goes out as a top reference.
    let blob = skyway_for(&dir, 0).serialize(&mut sender, &[s, s], &mut p).unwrap();
    let frame = Frame::parse(&blob).unwrap();
    assert_eq!(frame.lanes.len(), 1);
    assert_eq!(frame.lanes[0].chunks.len(), 1);
    let chunk = frame.lanes[0].chunks[0].to_vec();
    let word = |c: &[u8], at: usize| u64::from_le_bytes(c[at..at + 8].try_into().unwrap());
    let top_ref = chunk.len() - 8;
    assert_eq!(word(&chunk, top_ref), 8 + 1);
    for (at, what) in [(8 + value_off, "ref slot"), (top_ref, "top reference")] {
        // On the grid and inside the stream, but one word into an object:
        // the ref slot's target moves into the char array's header, the
        // top reference's into the string itself.
        let mut bad = chunk.clone();
        let v = word(&bad, at) + 8;
        bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let blob = with_chunks(&frame, vec![bad]);
        let mut receiver = Vm::new("n1", &HeapConfig::default(), classpath()).unwrap();
        let err = skyway_for(&dir, 1).deserialize(&mut receiver, &blob, &mut p).unwrap_err();
        let want = skyway::Error::MisalignedRelativeAddr(v - 1).to_string();
        assert!(matches!(&err, serlab::Error::Malformed(m) if *m == want), "{what}: {err:?}");
    }
}

#[test]
fn foreign_object_format_is_a_spec_mismatch() {
    let (dir, mut sender, _) = setup_pair();
    let s = sender.new_string("framed for another format").unwrap();
    let mut p = Profile::new();
    let blob = skyway_for(&dir, 0).serialize(&mut sender, &[s], &mut p).unwrap();
    let frame = Frame::parse(&blob).unwrap();
    // Flag bit 0 is the baddr word: toggled, the frame names a format the
    // receiver does not run.
    let foreign_spec =
        LayoutSpec { with_baddr: !LayoutSpec::SKYWAY.with_baddr, ..LayoutSpec::SKYWAY };
    let want = skyway::Error::SpecMismatch {
        wire: format!("{foreign_spec:?}"),
        local: format!("{:?}", LayoutSpec::SKYWAY),
    }
    .to_string();
    let reflag = |flags: u8, lanes: usize| {
        let lane = &frame.lanes[0];
        Frame {
            header: Header { flags, ..frame.header },
            lanes: (0..lanes as u32)
                .map(|i| Lane { roots: vec![i], chunks: lane.chunks.clone() })
                .collect(),
        }
        .encode()
    };
    let flags = frame.header.flags;
    let foreign = reflag(flags ^ 1, 1);
    // The same, also flagged as compressed wire.
    let foreign_compressed = reflag((flags ^ 1) | FLAG_COMPRESSED, 1);
    // Two lanes, one root each.
    let two_lanes = reflag(flags ^ 1, 2);

    let sky_rx = skyway_for(&dir, 1);
    let mut receiver = Vm::new("n1", &HeapConfig::default(), classpath()).unwrap();
    assert!(sky_rx.deserialize(&mut receiver, &blob, &mut p).is_ok(), "the unaltered frame");
    for (what, bytes) in [
        ("single stream", &foreign),
        ("compressed single stream", &foreign_compressed),
        ("two lanes", &two_lanes),
    ] {
        let err = sky_rx.deserialize(&mut receiver, bytes, &mut p).unwrap_err();
        assert!(matches!(&err, serlab::Error::Malformed(m) if *m == want), "{what}: {err:?}");
    }

    let mut cluster = Cluster::new(2, SimConfig::default());
    cluster.disk_write(NodeId(1), "foreign.sort.result", foreign).unwrap();
    let err = SkywayFileInputStream::open_and_read(
        &mut receiver,
        &dir,
        NodeId(1),
        &mut cluster,
        "foreign.sort.result",
        None,
    )
    .unwrap_err();
    assert_eq!(err.to_string(), want, "file stream");

    // A socket stream written for the stock format: the carrier must name
    // the format, or the receiver misreads the objects.
    let s = sender.new_string("framed for another format").unwrap();
    let cfg = SendConfig { receiver_spec: LayoutSpec::STOCK, ..SendConfig::for_vm(&sender) };
    let controller = ShuffleController::new();
    let mut out =
        SkywaySocketOutputStream::connect(&sender, &dir, NodeId(0), NodeId(1), &controller, cfg)
            .unwrap();
    out.write_object(s, &mut cluster).unwrap();
    out.close(&mut cluster).unwrap();
    let err = SkywaySocketInputStream::read_all(
        &mut receiver,
        &dir,
        NodeId(1),
        NodeId(0),
        &mut cluster,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, skyway::Error::SpecMismatch { .. }), "socket stream: {err:?}");
}

#[test]
fn repeated_receives_reclaim_dead_input_buffers() {
    // A VM that only receives: every blob lands in raw old-generation
    // input buffers and the results die right away, so nothing on this VM
    // allocates in the young generation to set off a collection.
    let (dir, mut sender, _) = setup_pair();
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let mut p = Profile::new();
    let blob = skyway_for(&dir, 0).serialize(&mut sender, &roots, &mut p).unwrap();
    let mut receiver =
        Vm::new("n1", &HeapConfig::default().with_capacity(1 << 20), classpath()).unwrap();
    let sky_rx = skyway_for(&dir, 1);
    // Twice the heap's capacity in received bytes.
    for i in 0..2 * (1 << 20) / blob.len() {
        let got = sky_rx.deserialize(&mut receiver, &blob, &mut p);
        assert!(got.is_ok(), "receive {i} of a {}-byte blob: {got:?}", blob.len());
    }
    assert!(receiver.stats.full_gcs > 0);
    assert!(receiver.verify_heap().unwrap().is_empty());
}

#[test]
fn engine_transfer_that_runs_out_of_room_leaves_no_residue() {
    // Each lane has placed and partly absorbed chunks, with forward
    // references still relative, when the old generation runs out.
    let (dir, mut sender, _) = setup_pair();
    let mut handles = Vec::new();
    for i in 0..4000 {
        let s = sender.new_string(&format!("pair {i}")).unwrap();
        let pr = sender.new_pair(s, Addr::NULL).unwrap();
        handles.push(sender.handle(pr));
    }
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    for (stream, parallel) in [
        (1, None),
        (2, Some(ParallelConfig { workers: 2, min_roots_per_worker: 1, ..Default::default() })),
    ] {
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 4096,
            parallel,
            ..PipelineConfig::default()
        });
        let mut receiver =
            Vm::new("n1", &HeapConfig::default().with_capacity(256 << 10), classpath()).unwrap();
        let err = engine
            .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, stream, &roots, None)
            .unwrap_err();
        assert!(
            matches!(err, skyway::Error::Heap(mheap::Error::OldGenFull { .. })),
            "{parallel:?}: {err:?}"
        );
        assert_eq!(receiver.verify_heap().unwrap(), vec![], "{parallel:?}");
    }
}

#[test]
fn skyway_emits_more_bytes_than_kryo_but_no_invocations() {
    // The paper's trade-off in one test: more bytes, zero S/D calls.
    let (dir, mut sender, _) = setup_pair();
    let handles = build_dataset(&mut sender, 50).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();

    let reg = serlab::KryoRegistry::new();
    reg.register_all(serlab::jsbs::jsbs_class_names()).unwrap();
    let kryo = serlab::KryoSerializer::manual(Arc::new(reg));
    let mut pk = Profile::new();
    let kryo_bytes = kryo.serialize(&mut sender, &roots, &mut pk).unwrap().len();

    let sky = skyway_for(&dir, 0);
    let mut ps = Profile::new();
    let sky_bytes = sky.serialize(&mut sender, &roots, &mut ps).unwrap().len();

    assert!(sky_bytes > kryo_bytes, "skyway {sky_bytes} <= kryo {kryo_bytes}");
    assert_eq!(ps.ser_invocations, 0);
    assert!(pk.ser_invocations > 0);
    // Headers + padding should dominate the extra bytes (§5.2).
    let stats = sky.last_send_stats();
    assert!(stats.header_bytes > 0);
    assert!(stats.header_bytes + stats.padding_bytes > stats.pointer_bytes);
}
