//! Tests for the carrier streams (§3.3): file and socket transfer with
//! cost accounting through the simulated cluster.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, HeapConfig, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes};
use simnet::{Category, Cluster, NodeId, SimConfig};
use skyway::{
    SendConfig, ShuffleController, SkywayFileInputStream, SkywayFileOutputStream,
    SkywaySocketInputStream, SkywaySocketOutputStream, TypeDirectory, UpdateRegistry,
};

fn setup() -> (Arc<TypeDirectory>, Vm, Vm, Cluster) {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("n1", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver, Cluster::new(2, SimConfig::default()))
}

#[test]
fn file_stream_roundtrip_with_io_accounting() {
    let (dir, mut sender, mut receiver, mut cluster) = setup();
    let controller = ShuffleController::new();
    let mut handles = Vec::new();
    for i in 0..10 {
        let s = sender.new_string(&format!("file record {i}")).unwrap();
        handles.push(sender.handle(s));
    }

    let mut out = SkywayFileOutputStream::create(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
        "a.sort.result",
    )
    .unwrap();
    for h in &handles {
        out.write_object(sender.resolve(*h).unwrap()).unwrap();
    }
    let stats = out.close(&mut cluster).unwrap();
    assert_eq!(stats.objects, 20); // 10 strings + 10 char arrays
    assert!(cluster.profile(NodeId(0)).ns(Category::WriteIo) > 0);
    assert_eq!(cluster.disk_files(NodeId(0)).unwrap(), vec!["a.sort.result".to_owned()]);

    // The receiver pulls the file from its own disk in this test, so copy
    // it over (a shuffle fetch would do this through the network).
    let blob = cluster.disk_read_serve(NodeId(0), "a.sort.result").unwrap();
    cluster.disk_write(NodeId(1), "a.sort.result", blob).unwrap();
    let roots = SkywayFileInputStream::open_and_read(
        &mut receiver,
        &dir,
        NodeId(1),
        &mut cluster,
        "a.sort.result",
        None,
    )
    .unwrap();
    assert_eq!(roots.len(), 10);
    for (i, &r) in roots.iter().enumerate() {
        assert_eq!(receiver.read_string(r).unwrap(), format!("file record {i}"));
    }
    assert!(cluster.profile(NodeId(1)).ns(Category::ReadIo) > 0);
}

#[test]
fn missing_file_is_an_error() {
    let (dir, _sender, mut receiver, mut cluster) = setup();
    assert!(SkywayFileInputStream::open_and_read(
        &mut receiver,
        &dir,
        NodeId(1),
        &mut cluster,
        "nope.sort.result",
        None,
    )
    .is_err());
}

#[test]
fn socket_stream_roundtrip_counts_remote_bytes() {
    let (dir, mut sender, mut receiver, mut cluster) = setup();
    let controller = ShuffleController::new();
    let mut handles = Vec::new();
    for i in 0..25 {
        let s = sender.new_string(&format!("socket {i}")).unwrap();
        handles.push(sender.handle(s));
    }

    let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&sender) };
    let mut out =
        SkywaySocketOutputStream::connect(&sender, &dir, NodeId(0), NodeId(1), &controller, cfg)
            .unwrap();
    for h in &handles {
        let root = sender.resolve(*h).unwrap();
        out.write_object(root, &mut cluster).unwrap();
    }
    // Small chunks → some messages must already be in flight before close.
    assert!(cluster.pending(NodeId(0), NodeId(1)) > 0, "streaming should overlap traversal");
    out.close(&mut cluster).unwrap();

    let roots = SkywaySocketInputStream::read_all(
        &mut receiver,
        &dir,
        NodeId(1),
        NodeId(0),
        &mut cluster,
        None,
    )
    .unwrap();
    assert_eq!(roots.len(), 25);
    for (i, &r) in roots.iter().enumerate() {
        assert_eq!(receiver.read_string(r).unwrap(), format!("socket {i}"));
    }
    assert!(cluster.profile(NodeId(1)).bytes_remote > 0);
}

#[test]
fn socket_stream_applies_update_hooks() {
    let (dir, mut sender, mut receiver, mut cluster) = setup();
    let controller = ShuffleController::new();
    let i = sender.new_integer(9).unwrap();
    let hooks = UpdateRegistry::new();
    hooks.register_update(mheap::stdlib::INTEGER, |vm, obj| {
        vm.set_int(obj, "value", 10).map_err(skyway::Error::Heap)
    });

    let mut out = SkywaySocketOutputStream::connect(
        &sender,
        &dir,
        NodeId(0),
        NodeId(1),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap();
    out.write_object(i, &mut cluster).unwrap();
    out.close(&mut cluster).unwrap();
    let roots = SkywaySocketInputStream::read_all(
        &mut receiver,
        &dir,
        NodeId(1),
        NodeId(0),
        &mut cluster,
        Some(&hooks),
    )
    .unwrap();
    assert_eq!(receiver.get_int(roots[0], "value").unwrap(), 10);
}

#[test]
fn file_carrier_receives_reclaim_dead_input_buffers() {
    // A VM that only receives, through the file carrier: every file lands
    // in raw old-generation input buffers and the results die right away,
    // so nothing on this VM allocates in the young generation to set off a
    // collection.
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    let mut sender =
        Vm::new("n0", &HeapConfig::default().with_capacity(24 << 20), Arc::clone(&cp)).unwrap();
    let mut receiver = Vm::new("n1", &HeapConfig::default().with_capacity(1 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    let mut cluster = Cluster::new(2, SimConfig::default());
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let controller = ShuffleController::new();
    let mut out = SkywayFileOutputStream::create(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
        "in.sort.result",
    )
    .unwrap();
    for &r in &roots {
        out.write_object(r).unwrap();
    }
    out.close(&mut cluster).unwrap();
    let blob = cluster.disk_read_serve(NodeId(0), "in.sort.result").unwrap();
    let blob_len = blob.len();
    cluster.disk_write(NodeId(1), "in.sort.result", blob).unwrap();
    // Twice the heap's capacity in received bytes.
    for i in 0..2 * (1 << 20) / blob_len {
        let got = SkywayFileInputStream::open_and_read(
            &mut receiver,
            &dir,
            NodeId(1),
            &mut cluster,
            "in.sort.result",
            None,
        );
        assert!(got.is_ok(), "receive {i} of a {blob_len}-byte file: {got:?}");
    }
    assert!(receiver.stats.full_gcs > 0);
    assert!(receiver.verify_heap().unwrap().is_empty());
}

/// The receiver's chunk-absorb spans recorded under `ctx`'s trace.
fn absorb_spans(ctx: obs::TraceCtx) -> usize {
    obs::global()
        .tracer()
        .spans()
        .iter()
        .filter(|s| s.trace_id == ctx.trace_id && s.name == obs::names::TRACE_RECEIVER_CHUNK_ABSORB)
        .count()
}

#[test]
fn traced_carriers_stitch_receiver_spans_into_the_senders_trace() {
    let (dir, mut sender, mut receiver, mut cluster) = setup();
    let tracer = obs::global().tracer();
    tracer.set_enabled(true);
    let controller = ShuffleController::new();
    let s = sender.new_string("traced").unwrap();
    let h = sender.handle(s);

    let file_ctx = tracer.new_trace();
    let mut out = SkywayFileOutputStream::create(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
        "t.sort.result",
    )
    .unwrap()
    .with_trace(file_ctx);
    out.write_object(sender.resolve(h).unwrap()).unwrap();
    out.close(&mut cluster).unwrap();
    let blob = cluster.disk_read_serve(NodeId(0), "t.sort.result").unwrap();
    cluster.disk_write(NodeId(1), "t.sort.result", blob).unwrap();
    let roots = SkywayFileInputStream::open_and_read(
        &mut receiver,
        &dir,
        NodeId(1),
        &mut cluster,
        "t.sort.result",
        None,
    )
    .unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "traced");
    assert!(absorb_spans(file_ctx) > 0, "file carrier");

    let socket_ctx = tracer.new_trace();
    let mut out = SkywaySocketOutputStream::connect(
        &sender,
        &dir,
        NodeId(0),
        NodeId(1),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap()
    .with_trace(socket_ctx);
    out.write_object(sender.resolve(h).unwrap(), &mut cluster).unwrap();
    out.close(&mut cluster).unwrap();
    let roots = SkywaySocketInputStream::read_all(
        &mut receiver,
        &dir,
        NodeId(1),
        NodeId(0),
        &mut cluster,
        None,
    )
    .unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "traced");
    assert!(absorb_spans(socket_ctx) > 0, "socket carrier");
}

#[test]
fn rejected_socket_streams_leave_the_link_in_step() {
    let (dir, mut sender, mut receiver, mut cluster) = setup();
    let controller = ShuffleController::new();
    let stock =
        SendConfig { receiver_spec: mheap::LayoutSpec::STOCK, ..SendConfig::for_vm(&sender) };
    // A foreign-format stream, a stream with an unaligned chunk in it, then
    // a good one: each rejected stream is read to its end marker.
    for (i, cfg) in
        [stock, SendConfig::for_vm(&sender), SendConfig::for_vm(&sender)].into_iter().enumerate()
    {
        let s = sender.new_string(&format!("stream {i}")).unwrap();
        let mut out = SkywaySocketOutputStream::connect(
            &sender,
            &dir,
            NodeId(0),
            NodeId(1),
            &controller,
            cfg,
        )
        .unwrap();
        out.write_object(s, &mut cluster).unwrap();
        if i == 1 {
            cluster.net_send(NodeId(0), NodeId(1), vec![0u8; 7]).unwrap();
        }
        out.close(&mut cluster).unwrap();
        let got = SkywaySocketInputStream::read_all(
            &mut receiver,
            &dir,
            NodeId(1),
            NodeId(0),
            &mut cluster,
            None,
        );
        match i {
            0 => assert!(matches!(got, Err(skyway::Error::SpecMismatch { .. })), "{got:?}"),
            1 => assert!(matches!(got, Err(skyway::Error::BadFrame(_))), "{got:?}"),
            _ => assert_eq!(receiver.read_string(got.unwrap()[0]).unwrap(), "stream 2"),
        }
    }
    assert_eq!(cluster.pending(NodeId(0), NodeId(1)), 0);
}
