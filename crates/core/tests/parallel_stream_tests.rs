//! Multi-stream (parallel-send) serializer tests: the §4.2 threading path
//! exposed through the ordinary serializer interface.

use std::sync::Arc;

use mheap::{Addr, ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, verify_media_content};
use serlab::Serializer;
use simnet::{NodeId, Profile};
use skyway::buffer::Frame;
use skyway::{ShuffleController, SkywaySerializer, TypeDirectory};

fn setup() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    let sender =
        Vm::new("n0", &HeapConfig::default().with_capacity(32 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("n1", &HeapConfig::default().with_capacity(32 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

fn serializer(dir: &Arc<TypeDirectory>, node: usize, threads: usize) -> SkywaySerializer {
    SkywaySerializer::new(
        Arc::clone(dir),
        NodeId(node),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_parallel_streams(threads)
}

#[test]
fn parallel_streams_preserve_root_order() {
    for threads in [2, 3, 4, 7] {
        let (dir, mut sender, mut receiver) = setup();
        let handles = build_dataset(&mut sender, 41).unwrap();
        let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let tx = serializer(&dir, 0, threads);
        let rx = serializer(&dir, 1, threads);
        let mut p = Profile::new();
        let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
        // One lane per stream that emitted roots, their root tables
        // together naming every record once.
        let frame = Frame::parse(&bytes).unwrap();
        assert!((1..=threads).contains(&frame.lanes.len()));
        assert_eq!(frame.lanes.iter().map(|l| l.roots.len()).sum::<usize>(), 41);
        let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
        assert_eq!(rebuilt.len(), 41);
        for (i, &mc) in rebuilt.iter().enumerate() {
            assert!(
                verify_media_content(&receiver, mc, i as u64).unwrap(),
                "{threads} threads, record {i} out of order or corrupt"
            );
        }
    }
}

#[test]
fn single_stream_config_stays_plain_format() {
    let (dir, mut sender, mut receiver) = setup();
    let handles = build_dataset(&mut sender, 5).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, 1);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    // One lane whose root table is the identity.
    let frame = Frame::parse(&bytes).unwrap();
    assert_eq!(frame.lanes.len(), 1);
    assert_eq!(frame.lanes[0].roots, (0..5).collect::<Vec<u32>>());
    let rx = serializer(&dir, 1, 1);
    assert_eq!(rx.deserialize(&mut receiver, &bytes, &mut p).unwrap().len(), 5);
}

#[test]
fn parallel_streams_duplicate_cross_stream_shared_objects() {
    // Objects shared between roots that land in different streams are
    // duplicated per stream (paper: "these copies will become separate
    // objects after delivered to a remote node"); within one stream
    // aliasing is preserved.
    let (dir, mut sender, mut receiver) = setup();
    let s = sender.new_string("contended").unwrap();
    let sh = sender.handle(s);
    let mut pair_handles = Vec::new();
    for _ in 0..8 {
        let s = sender.resolve(sh).unwrap();
        let p = sender.new_pair(s, Addr::NULL).unwrap();
        pair_handles.push(sender.handle(p));
    }
    let roots: Vec<Addr> = pair_handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, 4);
    let rx = serializer(&dir, 1, 4);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    // Work stealing decides how many of the 4 workers actually emit roots;
    // the frame carries one lane per stream shipped.
    let streams = Frame::parse(&bytes).unwrap().lanes.len();
    assert!((1..=4).contains(&streams));
    let rebuilt = rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let firsts: Vec<Addr> =
        rebuilt.iter().map(|&r| receiver.get_ref(r, "first").unwrap()).collect();
    let distinct: std::collections::HashSet<u64> = firsts.iter().map(|a| a.0).collect();
    assert_eq!(
        distinct.len(),
        streams,
        "exactly one copy of the shared object per stream: CAS-losing \
         streams duplicate it, aliasing within a stream is preserved"
    );
    for f in firsts {
        assert_eq!(receiver.read_string(f).unwrap(), "contended");
    }
}

#[test]
fn truncated_container_is_an_error() {
    let (dir, mut sender, mut receiver) = setup();
    let handles = build_dataset(&mut sender, 10).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx = serializer(&dir, 0, 3);
    let rx = serializer(&dir, 1, 3);
    let mut p = Profile::new();
    let bytes = tx.serialize(&mut sender, &roots, &mut p).unwrap();
    assert!(rx.deserialize(&mut receiver, &bytes[..bytes.len() / 2], &mut p).is_err());
    // A truncated frame header.
    assert!(rx.deserialize(&mut receiver, &bytes[..6], &mut p).is_err());
}

#[test]
fn parallel_send_stats_are_merged() {
    let (dir, mut sender, _) = setup();
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let tx1 = serializer(&dir, 0, 1);
    let tx4 = serializer(&dir, 0, 4);
    let mut p = Profile::new();
    tx1.serialize(&mut sender, &roots, &mut p).unwrap();
    let s1 = tx1.last_send_stats();
    tx4.controller().start_phase();
    tx4.serialize(&mut sender, &roots, &mut p).unwrap();
    let s4 = tx4.last_send_stats();
    // No sharing between records in this dataset → identical object counts.
    assert_eq!(s1.objects, s4.objects);
    assert!(s4.header_bytes >= s1.header_bytes);
}
