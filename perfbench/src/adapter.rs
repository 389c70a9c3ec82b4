//! The one file that calls into the program.
//!
//! Every other module of the benchmark works on the plain values this file
//! hands out (wall times, counter maps, folded span records), so an API
//! change in the measured crates — merging the `*_with_trace` twins, or
//! folding the `SparkConfig` mode flags into one policy — touches only this
//! file.
//!
//! Each `transfer`/`job` method times exactly one public call with
//! `Instant` and does its bookkeeping (phase start, baddr scrub) outside
//! the timed interval; checks and receiver resets are separate methods.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, ClassPath, HeapConfig, Vm, VmStats};
use serlab::jsbs::{build_media_content, define_jsbs_classes, verify_media_content};
use simnet::NodeId;
use skyway::{
    scrub_baddrs, ParallelConfig, PipelineConfig, PipelineEngine, ShuffleController, TypeDirectory,
};
use sparklite::classes::{define_spark_classes, new_edge, read_edge};
use sparklite::engine::{SerializerKind, SparkCluster, SparkConfig};
use sparklite::graphgen::{generate, GraphKind};

use crate::fold::SpanRec;

/// Host facts every record carries.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// The program's own worker count, `ParallelConfig::default().workers`.
    pub workers: usize,
}

/// Reads the host core count and the program's default worker count.
pub fn host() -> Host {
    Host {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers: ParallelConfig::default().workers,
    }
}

// ---------------------------------------------------------------------------
// Observability: tracer, registry counters
// ---------------------------------------------------------------------------

/// Turns the process-wide span tracer on or off.
pub fn set_tracing(on: bool) {
    obs::global().tracer().set_enabled(on);
}

/// Lifetime span budget of the process-wide tracer.
pub fn span_capacity() -> usize {
    obs::DEFAULT_SPAN_CAPACITY
}

/// Takes every span published since the last drain, in the folder's form.
pub fn drain_spans() -> Vec<SpanRec> {
    let tracer = obs::global().tracer();
    let spans = tracer.spans();
    tracer.clear();
    spans
        .into_iter()
        .map(|s| SpanRec {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            sim_clock: s.sim_clock,
            args: s.args,
        })
        .collect()
}

/// Spans the tracer dropped because its budget ran out.
pub fn spans_dropped() -> u64 {
    obs::global().tracer().dropped()
}

/// Registry counters the metrics read, by short name, plus the receivers'
/// chunk-wait histogram sum and the segment-store gauge.
pub fn counters() -> BTreeMap<&'static str, u64> {
    use obs::names as n;
    let snap = obs::global().snapshot();
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0, |h| h.sum);
    let mut m = BTreeMap::new();
    for (key, name) in [
        ("sender.objects_visited", n::SENDER_OBJECTS_VISITED),
        ("sender.fallback_hits", n::SENDER_FALLBACK_HITS),
        ("sender.steals", n::SENDER_STEALS),
        ("sender.cas_conflicts", n::SENDER_CAS_CONFLICTS),
        ("pipeline.stall_ns", n::PIPELINE_STALL_NS),
        ("pipeline.mode_inline", n::PIPELINE_MODE_INLINE),
        ("pipeline.mode_pipelined", n::PIPELINE_MODE_PIPELINED),
        ("pipeline.mode_parallel", n::PIPELINE_MODE_PARALLEL),
        ("pipeline.mode_shared", n::PIPELINE_MODE_SHARED),
        ("buffer.pool_hits", n::PIPELINE_POOL_HITS),
        ("buffer.pool_misses", n::PIPELINE_POOL_MISSES),
        ("receiver.bytes", n::RECEIVER_BYTES_ABSORBED),
        ("receiver.chunks", n::RECEIVER_CHUNKS_ABSORBED),
        ("receiver.ref_fixups", n::RECEIVER_REF_FIXUPS),
        ("receiver.cards_dirtied", n::RECEIVER_CARDS_DIRTIED),
        ("segstore.bytes_sealed", n::SEGSTORE_BYTES_SEALED),
        ("segstore.bytes_not_copied", n::SEGSTORE_BYTES_NOT_COPIED),
    ] {
        m.insert(key, snap.counter(name));
    }
    m.insert("pipeline.receiver_stall_ns", hist_sum(n::PIPELINE_CHUNK_STALL_NS));
    m.insert("segstore.segments_live", snap.gauge(n::SEGSTORE_SEGMENTS_LIVE).max(0) as u64);
    m
}

/// GC totals summed over a set of VMs.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Gc {
    /// Minor collections.
    pub minor: u64,
    /// Full collections.
    pub full: u64,
    /// Bytes promoted young → old.
    pub promoted_bytes: u64,
    /// Measured pause time.
    pub pause_ns: u64,
}

impl Gc {
    fn of<'a>(vms: impl IntoIterator<Item = &'a Vm>) -> Gc {
        vms.into_iter().fold(Gc::default(), |acc, vm| {
            let s: VmStats = vm.stats;
            Gc {
                minor: acc.minor + s.minor_gcs,
                full: acc.full + s.full_gcs,
                promoted_bytes: acc.promoted_bytes + s.bytes_promoted,
                pause_ns: acc.pause_ns + s.gc_ns,
            }
        })
    }

    /// Component-wise `self - earlier`.
    pub fn since(self, earlier: Gc) -> Gc {
        Gc {
            minor: self.minor - earlier.minor,
            full: self.full - earlier.full,
            promoted_bytes: self.promoted_bytes - earlier.promoted_bytes,
            pause_ns: self.pause_ns - earlier.pause_ns,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, o: Gc) -> Gc {
        Gc {
            minor: self.minor + o.minor,
            full: self.full + o.full,
            promoted_bytes: self.promoted_bytes + o.promoted_bytes,
            pause_ns: self.pause_ns + o.pause_ns,
        }
    }
}

/// Class-registry protocol totals (`RegistryStats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Registry {
    /// Individual `LOOKUP` round trips.
    pub lookups: u64,
    /// Protocol messages.
    pub messages: u64,
}

fn registry_of(dir: &TypeDirectory) -> Registry {
    let s = dir.stats();
    Registry { lookups: s.lookups, messages: s.messages }
}

// ---------------------------------------------------------------------------
// Transfer workloads
// ---------------------------------------------------------------------------

/// What one timed `PipelineEngine::transfer` call did.
#[derive(Debug)]
pub struct Transfer {
    /// Wall time of the call alone.
    pub wall_ns: u64,
    /// `Err` text when the call failed.
    pub error: Option<String>,
    /// Graph bytes the receiver absorbed.
    pub bytes: u64,
    /// Chunks in flight at the high-water mark (`PipelineReport`).
    pub max_in_flight: u64,
    /// GC work on the sender and receiver during the call.
    pub gc: Gc,
    roots: Vec<Addr>,
}

/// The sending side shared by both transfer workloads: one sender VM with
/// prebuilt roots, N receiver VMs, the engine under the default policy.
struct Link {
    sender: Vm,
    receivers: Vec<Vm>,
    dir: TypeDirectory,
    ctl: ShuffleController,
    engine: PipelineEngine,
}

impl Link {
    fn boot(cp: &Arc<ClassPath>, n_receivers: usize, heap: HeapConfig) -> Result<Link, String> {
        let sender = Vm::new("sender", &heap, Arc::clone(cp)).map_err(|e| e.to_string())?;
        let dir = TypeDirectory::new(n_receivers + 1, NodeId(0));
        dir.bootstrap_driver(&sender).map_err(|e| e.to_string())?;
        let mut receivers = Vec::with_capacity(n_receivers);
        for i in 1..=n_receivers {
            dir.worker_startup(NodeId(i)).map_err(|e| e.to_string())?;
            receivers.push(
                Vm::new(format!("recv-{i}"), &heap, Arc::clone(cp)).map_err(|e| e.to_string())?,
            );
        }
        let engine = PipelineEngine::new(PipelineConfig {
            parallel: Some(ParallelConfig::default()),
            ..PipelineConfig::default()
        });
        Ok(Link { sender, receivers, dir, ctl: ShuffleController::new(), engine })
    }

    /// One transfer of `roots` to receiver `r`, in a shuffle phase of its
    /// own so no `baddr` claim of an earlier transfer is mistaken for a
    /// concurrent one.
    fn transfer(&mut self, roots: &[Addr], r: usize, traced: bool) -> Transfer {
        if self.ctl.start_phase() {
            if let Err(e) = scrub_baddrs(&mut self.sender) {
                return Transfer::failed(format!("scrub: {e}"));
            }
        }
        // Parallel worker `t` sends as stream `stream + t`.
        let workers = self.engine.config().parallel.map_or(1, |p| p.workers);
        let (sid, stream) = (self.ctl.sid(), self.ctl.next_stream_block(workers as u16));
        let ctx =
            if traced { self.ctl.begin_transfer(obs::TraceCtx::NONE) } else { obs::TraceCtx::NONE };
        let dst = NodeId(r + 1);
        let gc0 = Gc::of([&self.sender, &self.receivers[r]]);
        let recv = &mut self.receivers[r];
        let t0 = Instant::now();
        let out = if traced {
            self.engine.transfer_with_trace(
                &self.sender,
                recv,
                &self.dir,
                NodeId(0),
                dst,
                sid,
                stream,
                roots,
                None,
                ctx,
            )
        } else {
            self.engine.transfer(
                &self.sender,
                recv,
                &self.dir,
                NodeId(0),
                dst,
                sid,
                stream,
                roots,
                None,
            )
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let gc = Gc::of([&self.sender, &self.receivers[r]]).since(gc0);
        match out {
            Ok((roots, report)) => Transfer {
                wall_ns,
                error: None,
                bytes: report.recv_stats.bytes,
                max_in_flight: report.max_in_flight,
                gc,
                roots,
            },
            Err(e) => Transfer { wall_ns, gc, ..Transfer::failed(e.to_string()) },
        }
    }

    /// `verify_heap` on receiver `r`; any fault is a failure.
    fn verify(&self, r: usize) -> Result<(), String> {
        let faults = self.receivers[r].verify_heap().map_err(|e| e.to_string())?;
        match faults.first() {
            None => Ok(()),
            Some(f) => Err(format!("{} heap fault(s), first: {f:?}", faults.len())),
        }
    }

    /// Empties receiver `r`: nothing roots the received graphs, so one
    /// full collection frees them.
    fn reset(&mut self, r: usize) -> Result<(), String> {
        self.receivers[r].full_gc().map_err(|e| e.to_string())
    }
}

impl Transfer {
    fn failed(error: String) -> Transfer {
        Transfer {
            wall_ns: 0,
            error: Some(error),
            bytes: 0,
            max_in_flight: 0,
            gc: Gc::default(),
            roots: Vec::new(),
        }
    }
}

/// Which shape of the JSBS dataset a fan-out transfer ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One root per record (a partition).
    PerRecord,
    /// One list root holding every record (a broadcast variable).
    List,
}

/// jsbs-fanout: the JSBS media-content dataset on one sender, shipped to
/// several receivers.
pub struct Jsbs {
    link: Link,
    records: Vec<Addr>,
    list: Vec<Addr>,
    first_seed: u64,
}

impl Jsbs {
    /// Boots the sender and `receivers` receiver VMs, registers the JSBS
    /// classes and builds `n` records whose contents derive from `seed`.
    pub fn setup(seed: u64, n: usize, receivers: usize) -> Result<Jsbs, String> {
        let cp = ClassPath::new();
        define_jsbs_classes(&cp);
        let mut link = Link::boot(&cp, receivers, HeapConfig::default())?;
        let first_seed = seed.wrapping_mul(1_000_003) % 1_000_000_000;
        let vm = &mut link.sender;
        let mut handles = Vec::with_capacity(n);
        for i in 0..n as u64 {
            handles.push(build_media_content(vm, first_seed + i).map_err(|e| e.to_string())?);
        }
        let list = vm.new_list(n as u64).map_err(|e| e.to_string())?;
        let list_h = vm.handle(list);
        for &h in &handles {
            let (l, rec) = (vm.resolve(list_h), vm.resolve(h));
            let (l, rec) = (l.map_err(|e| e.to_string())?, rec.map_err(|e| e.to_string())?);
            vm.list_push(l, rec).map_err(|e| e.to_string())?;
        }
        // The sender allocates nothing after this, so addresses stay put.
        let records = handles
            .iter()
            .map(|&h| vm.resolve(h))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let list = vec![vm.resolve(list_h).map_err(|e| e.to_string())?];
        Ok(Jsbs { link, records, list, first_seed })
    }

    /// Number of receivers.
    pub fn receivers(&self) -> usize {
        self.link.receivers.len()
    }

    /// Times one transfer of the dataset in `shape` to receiver `r`.
    pub fn transfer(&mut self, shape: Shape, r: usize, traced: bool) -> Transfer {
        let roots = match shape {
            Shape::PerRecord => &self.records,
            Shape::List => &self.list,
        };
        self.link.transfer(roots, r, traced)
    }

    /// Empties receiver `r`.
    pub fn reset(&mut self, r: usize) -> Result<(), String> {
        self.link.reset(r)
    }

    /// The oracle for one received dataset: a clean receiver heap and
    /// every record equal to its seed under the structural check.
    pub fn check(&self, shape: Shape, r: usize, t: &Transfer) -> Result<(), String> {
        if let Some(e) = &t.error {
            return Err(e.clone());
        }
        self.link.verify(r)?;
        let vm = &self.link.receivers[r];
        let n = self.records.len();
        let records: Vec<Addr> = match shape {
            Shape::PerRecord => t.roots.clone(),
            Shape::List => {
                let list = *t.roots.first().ok_or("no list root received")?;
                let len = vm.list_len(list).map_err(|e| e.to_string())?;
                (0..len)
                    .map(|i| vm.list_get(list, i))
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?
            }
        };
        if records.len() != n {
            return Err(format!("received {} records, sent {n}", records.len()));
        }
        for (i, &rec) in records.iter().enumerate() {
            let seed = self.first_seed + i as u64;
            if !verify_media_content(vm, rec, seed).map_err(|e| e.to_string())? {
                return Err(format!("record {i} differs from its source"));
            }
        }
        Ok(())
    }

    /// Registry protocol totals so far.
    pub fn registry(&self) -> Registry {
        registry_of(&self.link.dir)
    }

    /// Test hook: points the first reference slot of the first received
    /// record at a misaligned address, as a corrupt stream would.
    pub fn corrupt_received(&mut self, r: usize, t: &Transfer) -> Result<(), String> {
        corrupt_first_ref(&self.link.receivers[r], &t.roots)
    }
}

fn corrupt_first_ref(vm: &Vm, roots: &[Addr]) -> Result<(), String> {
    let obj = *roots.first().ok_or("no root to corrupt")?;
    let slot =
        *vm.ref_slots(obj).map_err(|e| e.to_string())?.first().ok_or("root has no ref slot")?;
    vm.heap().arena().store_word(obj.0 + slot, obj.0 + 3).map_err(|e| e.to_string())
}

/// edges-batches: flat `Edge` records of an R-MAT LiveJournal-shaped graph
/// on one sender, shipped in batches to one receiver.
pub struct Edges {
    link: Link,
    edges: Vec<(u64, u64)>,
    roots: Vec<Addr>,
}

impl Edges {
    /// Generates the graph (`scale` divides the paper's LiveJournal size)
    /// and builds one `Edge` object per edge on the sender.
    pub fn setup(seed: u64, scale: u64) -> Result<Edges, String> {
        let cp = ClassPath::new();
        define_spark_classes(&cp);
        let graph = generate(GraphKind::LiveJournal, scale, seed);
        let mut link = Link::boot(&cp, 1, HeapConfig::default())?;
        let vm = &mut link.sender;
        let mut handles = Vec::with_capacity(graph.edges.len());
        for &(s, d) in &graph.edges {
            let e = new_edge(vm, s as i64, d as i64).map_err(|e| e.to_string())?;
            handles.push(vm.handle(e));
        }
        let roots = handles
            .iter()
            .map(|&h| vm.resolve(h))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Edges { link, edges: graph.edges, roots })
    }

    /// Number of edges on the sender.
    pub(crate) fn len(&self) -> usize {
        self.edges.len()
    }

    /// Times one transfer of edges `[start, start + len)`.
    pub fn transfer(&mut self, start: usize, len: usize, traced: bool) -> Transfer {
        self.link.transfer(&self.roots[start..start + len], 0, traced)
    }

    /// Empties the receiver.
    pub fn reset(&mut self) -> Result<(), String> {
        self.link.reset(0)
    }

    /// The oracle: a clean receiver heap and every received edge equal to
    /// its source field by field.
    pub fn check(&self, start: usize, len: usize, t: &Transfer) -> Result<(), String> {
        if let Some(e) = &t.error {
            return Err(e.clone());
        }
        self.link.verify(0)?;
        if t.roots.len() != len {
            return Err(format!("received {} edges, sent {len}", t.roots.len()));
        }
        let vm = &self.link.receivers[0];
        for (i, &root) in t.roots.iter().enumerate() {
            let (s, d) = read_edge(vm, root).map_err(|e| e.to_string())?;
            let want = self.edges[start + i];
            if (s as u64, d as u64) != want {
                return Err(format!("edge {} arrived as ({s}, {d}), sent {want:?}", start + i));
            }
        }
        Ok(())
    }

    /// Registry protocol totals so far.
    pub fn registry(&self) -> Registry {
        registry_of(&self.link.dir)
    }
}

// ---------------------------------------------------------------------------
// spark-pagerank
// ---------------------------------------------------------------------------

/// One timed `run_pagerank` job.
#[derive(Debug)]
pub struct Job {
    /// Wall time of the call alone.
    pub wall_ns: u64,
    /// Every `(vertex, rank)` the job collected, or the error text.
    pub ranks: Result<Vec<(i64, f64)>, String>,
    /// GC work on every VM during the call.
    pub gc: Gc,
}

/// spark-pagerank: a sparklite cluster with the Skyway serializer,
/// pipelined cross-node shuffles and same-node buckets through the
/// segment store.
pub struct Spark {
    sc: SparkCluster,
    graph: sparklite::graphgen::Graph,
    iters: usize,
}

impl Spark {
    /// Boots `workers` worker VMs of `heap_bytes` each and generates the
    /// graph (`scale` divides the paper's LiveJournal size).
    pub fn setup(
        seed: u64,
        scale: u64,
        workers: usize,
        heap_bytes: usize,
        iters: usize,
    ) -> Result<Spark, String> {
        let cfg = SparkConfig {
            n_workers: workers,
            serializer: SerializerKind::Skyway,
            heap_bytes,
            pipeline: true,
            pipeline_workers: ParallelConfig::default().workers,
            shared_segments: true,
            ..SparkConfig::default()
        };
        let sc = SparkCluster::new(&cfg).map_err(|e| e.to_string())?;
        let graph = generate(GraphKind::LiveJournal, scale, seed);
        Ok(Spark { sc, graph, iters })
    }

    /// The job's input edge list (for the reference PageRank).
    pub fn edges(&self) -> &[(u64, u64)] {
        &self.graph.edges
    }

    /// PageRank iterations per job.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// Times one `run_pagerank` job collecting every vertex's rank.
    pub fn job(&mut self) -> Job {
        let gc0 = self.gc();
        let t0 = Instant::now();
        let ranks =
            sparklite::workloads::run_pagerank(&mut self.sc, &self.graph, self.iters, usize::MAX);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        Job { wall_ns, ranks: ranks.map_err(|e| e.to_string()), gc: self.gc().since(gc0) }
    }

    /// After a job: every heap verifies clean (with the job's segments
    /// still attached, as its records were read), then the shared spills
    /// are detached, the store epoch advances and the store must be empty.
    pub fn verify_and_reclaim(&mut self) -> Result<(), String> {
        for node in 0..=self.sc.n_workers() {
            let faults = self.sc.vm(NodeId(node)).verify_heap().map_err(|e| e.to_string())?;
            if let Some(f) = faults.first() {
                return Err(format!("node {node}: {} heap fault(s), first: {f:?}", faults.len()));
            }
        }
        self.sc.reclaim_shared_spills().map_err(|e| e.to_string())?;
        let live = self.sc.segment_store().live_segments();
        if live != 0 {
            return Err(format!("{live} segment(s) still live after reclaim"));
        }
        Ok(())
    }

    /// GC totals over every VM of the cluster.
    pub fn gc(&self) -> Gc {
        Gc::of((0..=self.sc.n_workers()).map(|n| self.sc.vm(NodeId(n))))
    }

    /// Registry protocol totals so far.
    pub fn registry(&self) -> Registry {
        registry_of(self.sc.type_directory())
    }
}
