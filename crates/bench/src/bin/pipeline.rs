//! **Pipelined shuffle engine** — sequential vs pipelined wall-clock on the
//! fig7 (JSBS media-content) and fig8-style (graph edge records) payloads.
//!
//! Both modes move the identical object graph heap-to-heap and must report
//! identical receive statistics; what differs is *when* work happens. The
//! sequential path is the three-phase barrier (traverse everything, move
//! everything, absolutize everything): its simnet-charged wall-clock is
//! `scaled(produce) + net(total) + scaled(absorb)`. The pipelined path
//! overlaps the phases at chunk granularity and is charged by the
//! overlap-aware link schedule. Expected shape: ≥25% lower wall-clock for
//! the pipeline on the fig7 payload at default scale, `pool_misses == 0`
//! on the steady-state repeat transfer.
//!
//! Flags: `--objects N` (JSBS records, default 2000), `--scale N`,
//! `--seed N`, `--metrics-out <path>`, `--trace-out <path>` (span trace as
//! Chrome trace-event JSON plus a critical-path summary).

use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, ClassPath, HeapConfig, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes};
use simnet::{NodeId, SimConfig};
use skyway::{
    GraphSender, PipelineConfig, PipelineEngine, ReceiveStats, SendConfig, SkywayObjectInputStream,
    TypeDirectory,
};
use sparklite::classes::{define_spark_classes, new_edge};
use sparklite::graphgen::{generate, GraphKind};

#[derive(serde::Serialize, Clone, Copy)]
struct ModeResult {
    wall_ns: u64,
    produce_ns: u64,
    net_ns: u64,
    absorb_ns: u64,
    objects: u64,
    bytes: u64,
    ref_fixups: u64,
    chunks: u64,
}

#[derive(serde::Serialize)]
struct RepeatResult {
    wall_ns: u64,
    pool_hits: u64,
    pool_misses: u64,
}

#[derive(serde::Serialize)]
struct Row {
    workload: String,
    receivers: usize,
    sequential: ModeResult,
    pipelined: ModeResult,
    /// Second transfer on the same engine: the steady state.
    repeat: RepeatResult,
    improvement_pct: f64,
    stats_match: bool,
    max_in_flight: u64,
    sender_stall_ns: u64,
    receiver_stall_ns: u64,
    /// p99.9 of `skyway.pipeline.chunk_stall_ns` when this workload
    /// finished (cumulative across the process's workloads so far).
    chunk_stall_p999_ns: u64,
}

fn scale_ns(raw: u64, sim: &SimConfig) -> u64 {
    (raw as f64 * sim.sd_cpu_scale) as u64
}

/// One sequential barrier transfer, charged like the spill-free sequential
/// path: scaled produce, whole-payload network, scaled absorb.
fn sequential_once(
    sender: &Vm,
    receiver: &mut Vm,
    dir: &TypeDirectory,
    roots: &[Addr],
    stream: u16,
    sim: &SimConfig,
) -> (ModeResult, ReceiveStats) {
    let cfg = SendConfig::for_vm(sender);
    let t0 = Instant::now();
    let mut gs = GraphSender::new(sender, dir, NodeId(0), 1, stream, cfg).expect("sender");
    for &r in roots {
        gs.write_root(r).expect("write_root");
    }
    let out = gs.finish();
    let produce_raw = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let mut gr = SkywayObjectInputStream::new(receiver, dir, NodeId(1));
    for c in &out.chunks {
        gr.push_chunk(c).expect("push_chunk");
    }
    let (_, stats) = gr.read_objects(None).expect("read_objects");
    let absorb_raw = t1.elapsed().as_nanos() as u64;
    let produce_ns = scale_ns(produce_raw, sim);
    let absorb_ns = scale_ns(absorb_raw, sim);
    let net_ns = sim.net_ns(out.stats.total_bytes);
    (
        ModeResult {
            wall_ns: produce_ns + net_ns + absorb_ns,
            produce_ns,
            net_ns,
            absorb_ns,
            objects: stats.objects,
            bytes: stats.bytes,
            ref_fixups: stats.ref_fixups,
            chunks: stats.chunks,
        },
        stats,
    )
}

/// Runs one workload: sequential reference, pipelined, and a steady-state
/// repeat on the same engine, across `receivers` destination VMs.
#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &str,
    receivers: usize,
    cp: &Arc<ClassPath>,
    heap: &HeapConfig,
    build: &dyn Fn(&mut Vm) -> Vec<Addr>,
    sim: &SimConfig,
) -> Row {
    // Sequential reference: fresh sender, one fresh receiver per stream.
    let mut seq_sender = Vm::new("seq-s", heap, Arc::clone(cp)).expect("vm");
    let seq_dir = TypeDirectory::new(receivers + 1, NodeId(0));
    seq_dir.bootstrap_driver(&seq_sender).expect("bootstrap");
    let seq_roots = build(&mut seq_sender);
    let mut seq_total = ModeResult {
        wall_ns: 0,
        produce_ns: 0,
        net_ns: 0,
        absorb_ns: 0,
        objects: 0,
        bytes: 0,
        ref_fixups: 0,
        chunks: 0,
    };
    let mut seq_stats: Vec<ReceiveStats> = Vec::new();
    for i in 0..receivers {
        seq_dir.worker_startup(NodeId(i + 1)).expect("worker");
        let mut rvm = Vm::new(format!("seq-r{i}"), heap, Arc::clone(cp)).expect("vm");
        let (m, stats) =
            sequential_once(&seq_sender, &mut rvm, &seq_dir, &seq_roots, (i + 1) as u16, sim);
        seq_total.wall_ns += m.wall_ns;
        seq_total.produce_ns += m.produce_ns;
        seq_total.net_ns += m.net_ns;
        seq_total.absorb_ns += m.absorb_ns;
        seq_total.objects += m.objects;
        seq_total.bytes += m.bytes;
        seq_total.ref_fixups += m.ref_fixups;
        seq_total.chunks += m.chunks;
        seq_stats.push(stats);
    }

    // Pipelined: same graph, one engine whose pool persists across streams
    // and across the repeat pass.
    let mut pipe_sender = Vm::new("pipe-s", heap, Arc::clone(cp)).expect("vm");
    let pipe_dir = TypeDirectory::new(receivers + 1, NodeId(0));
    pipe_dir.bootstrap_driver(&pipe_sender).expect("bootstrap");
    let pipe_roots = build(&mut pipe_sender);
    let engine = PipelineEngine::new(PipelineConfig { sim: *sim, ..PipelineConfig::default() });
    let mut pipe_total = ModeResult {
        wall_ns: 0,
        produce_ns: 0,
        net_ns: 0,
        absorb_ns: 0,
        objects: 0,
        bytes: 0,
        ref_fixups: 0,
        chunks: 0,
    };
    let mut stats_match = true;
    let mut max_in_flight = 0u64;
    let mut sender_stall_ns = 0u64;
    let mut receiver_stall_ns = 0u64;
    let mut rvms = Vec::new();
    for i in 0..receivers {
        pipe_dir.worker_startup(NodeId(i + 1)).expect("worker");
        rvms.push(Vm::new(format!("pipe-r{i}"), heap, Arc::clone(cp)).expect("vm"));
    }
    for (i, rvm) in rvms.iter_mut().enumerate() {
        let ctx = obs::global().tracer().new_trace();
        let (got, report) = engine
            .transfer_with_trace(
                &pipe_sender,
                rvm,
                &pipe_dir,
                NodeId(0),
                NodeId(i + 1),
                1,
                (i + 1) as u16,
                &pipe_roots,
                None,
                ctx,
            )
            .expect("pipelined transfer");
        // Root the received graph and run a minor collection: the pause
        // lands in the trace attributed to this transfer (the VM keeps the
        // transfer's context). Unconditional, so traced and untraced runs
        // do identical work and stay comparable.
        for &a in &got {
            rvm.handle(a);
        }
        rvm.minor_gc().expect("minor gc");
        pipe_total.wall_ns += report.pipelined_ns;
        pipe_total.produce_ns += report.produce_ns;
        pipe_total.net_ns += report.wire_ns;
        pipe_total.absorb_ns += report.absorb_ns;
        pipe_total.objects += report.recv_stats.objects;
        pipe_total.bytes += report.recv_stats.bytes;
        pipe_total.ref_fixups += report.recv_stats.ref_fixups;
        pipe_total.chunks += report.recv_stats.chunks;
        max_in_flight = max_in_flight.max(report.max_in_flight);
        sender_stall_ns += report.sender_stall_ns;
        receiver_stall_ns += report.receiver_stall_ns;
        let s = &seq_stats[i];
        stats_match &= report.recv_stats.objects == s.objects
            && report.recv_stats.bytes == s.bytes
            && report.recv_stats.ref_fixups == s.ref_fixups;
    }

    // Steady-state repeat: same engine, same receivers (new streams); the
    // pool now holds every backing the first pass used.
    let mut repeat = RepeatResult { wall_ns: 0, pool_hits: 0, pool_misses: 0 };
    for (i, rvm) in rvms.iter_mut().enumerate() {
        let ctx = obs::global().tracer().new_trace();
        let (_, report) = engine
            .transfer_with_trace(
                &pipe_sender,
                rvm,
                &pipe_dir,
                NodeId(0),
                NodeId(i + 1),
                1,
                (receivers + i + 1) as u16,
                &pipe_roots,
                None,
                ctx,
            )
            .expect("repeat transfer");
        repeat.wall_ns += report.pipelined_ns;
        repeat.pool_hits += report.pool_hits;
        repeat.pool_misses += report.pool_misses;
    }

    let improvement_pct = if seq_total.wall_ns > 0 {
        (1.0 - pipe_total.wall_ns as f64 / seq_total.wall_ns as f64) * 100.0
    } else {
        0.0
    };
    let chunk_stall_p999_ns = obs::global()
        .snapshot()
        .histograms
        .get(obs::names::PIPELINE_CHUNK_STALL_NS)
        .map_or(0, |h| h.p999);
    Row {
        workload: name.to_owned(),
        receivers,
        sequential: seq_total,
        pipelined: pipe_total,
        repeat,
        improvement_pct,
        stats_match,
        max_in_flight,
        sender_stall_ns,
        receiver_stall_ns,
        chunk_stall_p999_ns,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n_objects = arg("--objects", 2_000) as usize;
    let scale = arg("--scale", 10_000);
    let seed = arg("--seed", 42);
    let sim = SimConfig::default();
    let tracing = skyway_bench::init_tracing();

    println!("Pipelined shuffle engine: sequential barrier vs chunk-granularity overlap");
    if tracing {
        println!("(tracing enabled)");
    }

    // fig7 payload: JSBS media-content records, 4 receivers (the paper's
    // five-node broadcast).
    let jsbs_cp = ClassPath::new();
    define_jsbs_classes(&jsbs_cp);
    let heap = HeapConfig::default().with_capacity(256 << 20);
    let fig7 = run_workload(
        "fig7-jsbs",
        4,
        &jsbs_cp,
        &heap,
        &|vm: &mut Vm| {
            let handles = build_dataset(vm, n_objects).expect("dataset");
            handles.iter().map(|h| vm.resolve(*h).expect("resolve")).collect()
        },
        &sim,
    );

    // fig8-style payload: graph edge records (what the Spark shuffles
    // actually move), single destination like one map→reduce stream.
    let spark_cp = ClassPath::new();
    define_spark_classes(&spark_cp);
    let graph = generate(GraphKind::LiveJournal, scale, seed);
    let fig8 = run_workload(
        "fig8-edges",
        1,
        &spark_cp,
        &heap,
        &|vm: &mut Vm| {
            let mut handles = Vec::with_capacity(graph.edges.len());
            for &(s, d) in &graph.edges {
                let e = new_edge(vm, s as i64, d as i64).expect("edge");
                handles.push(vm.handle(e));
            }
            handles.iter().map(|h| vm.resolve(*h).expect("resolve")).collect()
        },
        &sim,
    );

    for row in [&fig7, &fig8] {
        println!(
            "\n{} ({} receiver{}):",
            row.workload,
            row.receivers,
            if row.receivers == 1 { "" } else { "s" }
        );
        println!(
            "  sequential {:8.2} ms  (produce {:.2} + net {:.2} + absorb {:.2})",
            row.sequential.wall_ns as f64 / 1e6,
            row.sequential.produce_ns as f64 / 1e6,
            row.sequential.net_ns as f64 / 1e6,
            row.sequential.absorb_ns as f64 / 1e6,
        );
        println!(
            "  pipelined  {:8.2} ms  (wire {:.2}, max {} in flight)",
            row.pipelined.wall_ns as f64 / 1e6,
            row.pipelined.net_ns as f64 / 1e6,
            row.max_in_flight,
        );
        println!(
            "  improvement {:.1}%  stats_match {}  repeat: {:.2} ms, pool {} hits / {} misses",
            row.improvement_pct,
            row.stats_match,
            row.repeat.wall_ns as f64 / 1e6,
            row.repeat.pool_hits,
            row.repeat.pool_misses,
        );
        println!("  chunk stall p99.9 {:.3} ms", row.chunk_stall_p999_ns as f64 / 1e6,);
    }

    skyway_bench::write_json("BENCH_pipeline", &vec![fig7, fig8]);
    skyway_bench::dump_metrics();
    skyway_bench::dump_trace();
}
