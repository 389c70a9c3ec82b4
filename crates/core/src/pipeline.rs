//! The transfer engine: one N-lane run moves an object graph heap to heap.
//!
//! The sequential path (`SkywaySerializer::serialize` → transport →
//! `deserialize`) is a strict three-phase barrier: build every chunk, move
//! every chunk, then absolutize everything in one pass — paying
//! sum-of-phases wall-clock. This engine overlaps the phases at chunk
//! granularity, the way each Skyway sending thread streams its own output
//! buffers and the receiver absorbs each stream as it arrives (paper
//! §4.2–4.3): a sender *lane* walks its share of the roots and flushes
//! chunks into its own bounded channel while that lane's absorber places
//! and absolutizes each chunk as it arrives, so chunk *N* is being
//! absolutized while chunk *N+1* is in flight and chunk *N+2* is still
//! being cloned out of the sender heap.
//!
//! The mode policy only chooses how many lanes a transfer gets, and one
//! run executes every choice:
//!
//! * [`TransferMode::Inline`] — a flat graph that provably fits one chunk
//!   is produced, moved and absorbed on the calling thread (nothing to
//!   overlap, so no lanes at all);
//! * [`TransferMode::Parallel`] — with [`PipelineConfig::parallel`] set
//!   and enough roots, `workers` work-stealing lanes;
//! * [`TransferMode::Pipelined`] — every other transfer: the one-lane run.
//!
//! One scheduler turns every mode's measurements into simulated time.
//!
//! The channel bound provides backpressure: a slow absorber stalls its
//! sender instead of letting chunks pile up unboundedly. Chunk backings
//! come from a [`ChunkPool`] shared by senders (acquire) and absorbers
//! (release), so steady-state transfer performs zero per-chunk heap
//! allocations.
//!
//! Simulated time is charged with the overlap-aware [`LinkClock`] schedule
//! rather than the whole-payload `net_ns` formula, and both the pipelined
//! schedule and the sequential sum are reported so benchmarks can compare
//! like for like.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, Vm};
use simnet::{Cluster, LinkClock, NodeId, SimConfig};

use crate::buffer::ChunkPool;
use crate::receiver::{ReceiveStats, SkywayObjectInputStream, StreamAbsorber, StreamIn};
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, LaneSent, ParallelConfig, SendConfig, SendStats, StealSet};
use crate::stream::UpdateRegistry;
use crate::{Error, Result};

/// One lane's chunk timeline — `(ready_raw_ns, bytes, absorb_raw_ns)` per
/// chunk in stream order — plus that lane's fixup CPU time, as fed to the
/// shared-link schedule.
type StreamTimeline<'a> = (&'a [(u64, u64, u64)], u64);

/// Default flush threshold for engine transfers. Much smaller than the
/// sequential default (1 MiB): a lane's overlap window is one chunk, so
/// finer chunks mean earlier first-byte and smoother overlap, at the cost
/// of per-chunk bookkeeping the pool keeps negligible.
pub const DEFAULT_PIPELINE_CHUNK: usize = 64 << 10;

/// Default bound of a lane's in-flight chunk channel.
pub const DEFAULT_DEPTH: usize = 4;

/// Which execution strategy a transfer took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Flat single-chunk graph: produce, move, absorb inline on the
    /// calling thread — nothing to overlap.
    Inline,
    /// One lane: a sender thread overlapped with its absorber.
    Pipelined,
    /// N work-stealing sender lanes, each streaming to its own
    /// concurrent absorber over the shared receiving heap.
    Parallel,
    /// Same-node zero-copy: the graph was sealed into (or already lived
    /// in) a shared immutable segment and the receiver attached it
    /// metadata-only — no bytes cloned, no wire time. Produced by the
    /// `segstore` crate's shared path, never by this engine directly.
    Shared,
}

impl TransferMode {
    /// Stable lowercase name (used in benchmark JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            TransferMode::Inline => "inline",
            TransferMode::Pipelined => "pipelined",
            TransferMode::Parallel => "parallel",
            TransferMode::Shared => "shared",
        }
    }
}

/// Configuration of the transfer engine. The sender's visited tracking is
/// not configured: it follows the sender heap's format (`baddr` when the
/// heap carries the word, the hash table otherwise).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Flush threshold of every lane's output buffer in bytes; a flat graph
    /// that fits one chunk of this size runs inline.
    pub chunk_limit: usize,
    /// Maximum chunks in flight between a lane's sender and its absorber
    /// (the per-lane channel bound; the backpressure window).
    pub depth: usize,
    /// Cost-model parameters for the simulated-time schedule.
    pub sim: SimConfig,
    /// Lane policy. With `Some(par)`, a transfer of at least
    /// `par.workers * par.min_roots_per_worker` roots that is not a flat
    /// single chunk runs `par.workers` work-stealing lanes. Every other
    /// threaded transfer — and every one under `None` — runs one lane.
    pub parallel: Option<ParallelConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_limit: DEFAULT_PIPELINE_CHUNK,
            depth: DEFAULT_DEPTH,
            sim: SimConfig::default(),
            parallel: None,
        }
    }
}

/// Cached observability handles (`skyway.pipeline.*`).
#[derive(Debug)]
struct PipelineMetrics {
    registry: Arc<obs::Registry>,
    chunks_in_flight: Arc<obs::Gauge>,
    stall_ns: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    pool_misses: Arc<obs::Counter>,
    chunk_stall_ns: Arc<obs::Histogram>,
    mode_inline: Arc<obs::Counter>,
    mode_pipelined: Arc<obs::Counter>,
    mode_parallel: Arc<obs::Counter>,
    steals: Arc<obs::Counter>,
}

impl PipelineMetrics {
    fn new(registry: Arc<obs::Registry>) -> Self {
        PipelineMetrics {
            chunks_in_flight: registry.gauge(obs::names::PIPELINE_CHUNKS_IN_FLIGHT),
            stall_ns: registry.counter(obs::names::PIPELINE_STALL_NS),
            pool_hits: registry.counter(obs::names::PIPELINE_POOL_HITS),
            pool_misses: registry.counter(obs::names::PIPELINE_POOL_MISSES),
            chunk_stall_ns: registry.histogram(obs::names::PIPELINE_CHUNK_STALL_NS),
            mode_inline: registry.counter(obs::names::PIPELINE_MODE_INLINE),
            mode_pipelined: registry.counter(obs::names::PIPELINE_MODE_PIPELINED),
            mode_parallel: registry.counter(obs::names::PIPELINE_MODE_PARALLEL),
            steals: registry.counter(obs::names::SENDER_STEALS),
            registry,
        }
    }
}

/// What one engine transfer did and what it would have cost.
///
/// All `*_ns` figures are *simulated* nanoseconds on the [`SimConfig`]
/// timeline: measured CPU time scaled by `sd_cpu_scale` (the same
/// calibration every serializer pays in `simnet`) and wire time from the
/// bandwidth/latency model.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Sender-side composition statistics.
    pub send_stats: SendStats,
    /// Receiver-side statistics (identical to the sequential path's).
    pub recv_stats: ReceiveStats,
    /// Per-chunk wire sizes, in scheduled link order.
    pub chunk_bytes: Vec<u64>,
    /// End-to-end simulated time of the overlapped schedule.
    pub pipelined_ns: u64,
    /// Simulated time the sequential three-phase barrier would have paid
    /// for the same work: produce + whole-payload transfer + absolutize.
    pub sequential_ns: u64,
    /// Scaled sender time. Each lane's thread CPU time, sampled when its
    /// chunks became ready, summed over lanes (lanes read their clock at
    /// chunk boundaries, never per root); the calling thread's wall time
    /// for an inline transfer.
    pub produce_ns: u64,
    /// Wire-occupancy time of all chunks (link busy time, no latency).
    pub wire_ns: u64,
    /// Scaled receiver absolutization CPU time (including final fixups).
    pub absorb_ns: u64,
    /// Real time the senders spent blocked on a full channel.
    pub sender_stall_ns: u64,
    /// Real time the absorbers spent blocked on an empty channel.
    pub receiver_stall_ns: u64,
    /// Chunk-pool hits during this transfer.
    pub pool_hits: u64,
    /// Chunk-pool misses (fresh allocations) during this transfer.
    pub pool_misses: u64,
    /// High-water mark of chunks in flight.
    pub max_in_flight: u64,
    /// Which execution strategy the policy picked.
    pub mode: TransferMode,
    /// Sender lanes (1 for inline and pipelined transfers).
    pub workers: u64,
    /// Successful inter-lane root steals (0 with one lane).
    pub steals: u64,
    /// Share of the pipelined schedule the modeled link spent busy
    /// (0–100; the wire is the shared resource parallel streams contend
    /// for, so high utilization means the transfer is link-bound).
    pub link_utilization_pct: f64,
}

impl PipelineReport {
    /// Charges this transfer into a [`Cluster`]'s per-node profiles using
    /// the chunk-granularity accounting: scaled traversal CPU as `Ser` on
    /// `src`, scaled absolutization CPU as `Deser` on `dst`, and each chunk
    /// through [`Cluster::net_send_chunk`] / [`Cluster::net_recv_chunk`]
    /// so the stream pays wire time per chunk but latency once.
    ///
    /// # Errors
    /// [`simnet::Error::UnknownNode`].
    pub fn charge(&self, cluster: &mut Cluster, src: NodeId, dst: NodeId) -> simnet::Result<()> {
        use simnet::Category;
        cluster.profile_mut(src).add_ns(Category::Ser, self.produce_ns);
        cluster.profile_mut(dst).add_ns(Category::Deser, self.absorb_ns);
        for &len in &self.chunk_bytes {
            // Replay sizes only: the payload already moved in-process.
            cluster.net_send_chunk(src, dst, vec![0u8; len as usize])?;
            cluster.net_recv_chunk(dst, src)?;
        }
        cluster.net_stream_done(src, dst);
        Ok(())
    }
}

/// One chunk in flight: its bytes plus the sender lane's cumulative time
/// (unscaled) sampled at the moment the chunk was ready.
type InFlight = (Vec<u8>, u64);

/// What one transfer measured, in raw (unscaled) nanoseconds, for
/// [`PipelineEngine::schedule`] to turn into a report.
struct Run<'a> {
    mode: TransferMode,
    /// Every lane's chunk timeline and fixup time.
    lanes: &'a [StreamTimeline<'a>],
    send_stats: SendStats,
    recv_stats: ReceiveStats,
    produce_raw_ns: u64,
    /// The calling thread's finish after every lane joined.
    merge_raw_ns: u64,
    sender_stall_ns: u64,
    receiver_stall_ns: u64,
    max_in_flight: u64,
    steals: u64,
}

/// The transfer engine. Holds the shared [`ChunkPool`] so buffer backings
/// survive across transfers — the second transfer of a similar shape
/// allocates nothing.
#[derive(Debug)]
pub struct PipelineEngine {
    cfg: PipelineConfig,
    pool: Arc<ChunkPool>,
    metrics: PipelineMetrics,
}

impl PipelineEngine {
    /// An engine drawing chunk backings from the process-wide per-node
    /// [`ChunkPool::global`], so back-to-back transfers through different
    /// engines still recycle the same backings.
    pub fn new(cfg: PipelineConfig) -> Self {
        PipelineEngine {
            cfg,
            pool: Arc::clone(ChunkPool::global()),
            metrics: PipelineMetrics::new(Arc::clone(obs::global())),
        }
    }

    /// Uses an explicit chunk pool instead of the global per-node one
    /// (tests asserting exact hit/miss counts need isolation — the global
    /// pool's counters aggregate every transfer in the process).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ChunkPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.metrics = PipelineMetrics::new(registry);
        self
    }

    /// The engine's chunk pool (shared with every transfer's sender).
    pub fn pool(&self) -> &Arc<ChunkPool> {
        &self.pool
    }

    /// The engine's configuration.
    pub fn config(&self) -> PipelineConfig {
        self.cfg
    }

    /// Moves the object graphs of `roots` from `sender_vm` to
    /// `receiver_vm`, overlapping traversal, transfer, and absolutization.
    /// Returns the received roots (in `roots` order, as on the sequential
    /// path) and the transfer report.
    ///
    /// Flat graphs that provably fit one chunk (see
    /// [`GraphSender::estimate_flat_bytes`]) skip the lanes and run the
    /// three phases inline — with a single chunk there is nothing to
    /// overlap, and the thread + channel overhead would make the transfer
    /// strictly slower than the sequential path.
    ///
    /// `src`/`dst` are the nodes the VMs live on; `sid`/`stream` identify
    /// the shuffle stream exactly as on the sequential path. Lane `t` sends
    /// as stream `stream + t`, so callers whose engine has
    /// [`PipelineConfig::parallel`] set reserve one stream id per worker
    /// ([`crate::ShuffleController::next_stream_block`]).
    ///
    /// # Errors
    /// Heap/registry/corrupt-stream errors from either side; sender-side
    /// errors surface even when the receiver finished cleanly.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        self.transfer_with_trace(
            sender_vm,
            receiver_vm,
            dir,
            src,
            dst,
            sid,
            stream,
            roots,
            hooks,
            obs::TraceCtx::NONE,
        )
    }

    /// [`Self::transfer`] under a trace context: opens a
    /// [`obs::names::TRACE_TRANSFER`] root span and threads its child
    /// context through the sender (traversal and chunk-send spans), the
    /// simulated link (occupancy spans on the sim clock), and the receiver
    /// (absorb, fixup, and card spans; GC pauses on the receiving VM are
    /// attributed to this transfer until the next one re-tags it). With
    /// [`obs::TraceCtx::NONE`] — or tracing disabled — this is exactly
    /// [`Self::transfer`]: the traced path adds one branch per call site.
    ///
    /// # Errors
    /// As for [`Self::transfer`].
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_with_trace(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        parent: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        let registry = Arc::clone(&self.metrics.registry);
        let mut root_span = if parent.is_none() {
            None
        } else {
            Some(registry.tracer().start(obs::names::TRACE_TRANSFER, parent, &sender_vm.name))
        };
        let ctx = root_span.as_ref().map_or(obs::TraceCtx::NONE, obs::ActiveSpan::ctx);
        let r = self.transfer_inner(
            sender_vm,
            receiver_vm,
            dir,
            src,
            dst,
            sid,
            stream,
            roots,
            hooks,
            ctx,
        );
        if let (Some(span), Ok((_, report))) = (root_span.as_mut(), &r) {
            span.annotate("bytes", report.send_stats.total_bytes);
            span.annotate("chunks", report.chunk_bytes.len() as u64);
            span.annotate("pipelined_sim_ns", report.pipelined_ns);
            span.annotate("sequential_sim_ns", report.sequential_ns);
        }
        r
    }

    /// The mode policy: inline for a flat single chunk, otherwise a lane
    /// count for [`Self::transfer_lanes`].
    #[allow(clippy::too_many_arguments)]
    fn transfer_inner(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        ctx: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        let send_cfg = SendConfig {
            chunk_limit: self.cfg.chunk_limit,
            receiver_spec: receiver_vm.spec(),
            ..SendConfig::for_vm(sender_vm)
        };
        let pool0 = (self.pool.hits(), self.pool.misses());

        // First gate — flat single-chunk fast path: when every root is
        // reference-free the whole stream provably fits one chunk, so
        // there is nothing to overlap — threads, channels, and per-chunk
        // bookkeeping would be pure overhead (measurably negative on small
        // flat payloads). Run the three phases inline instead; the
        // estimate is an upper bound, so taking this branch guarantees a
        // single chunk. This gate outranks parallel mode: a single chunk
        // gives N lanes nothing to share.
        {
            let mut gs = GraphSender::new(sender_vm, dir, src, sid, stream, send_cfg)?
                .with_metrics(Arc::clone(&self.metrics.registry))
                .with_pool(Arc::clone(&self.pool))
                .with_trace(ctx);
            if gs.estimate_flat_bytes(roots, self.cfg.chunk_limit as u64)?.is_some() {
                return self.transfer_inline(gs, receiver_vm, dir, dst, roots, hooks, pool0, ctx);
            }
        }

        // Second gate — lane count: the configured workers only when there
        // are enough roots to amortize the per-lane setup (each lane owns
        // a stream, a channel, and an absorber); one lane otherwise.
        let lanes = match self.cfg.parallel {
            Some(par) if roots.len() >= par.workers * par.min_roots_per_worker.max(1) => {
                par.workers.max(1)
            }
            _ => 1,
        };
        self.transfer_lanes(
            sender_vm,
            receiver_vm,
            dir,
            src,
            dst,
            sid,
            stream,
            roots,
            hooks,
            ctx,
            send_cfg,
            lanes,
            pool0,
        )
    }

    /// Inline mode: produce, move, absorb, strictly in sequence on the
    /// calling thread — no lanes, no channel — for flat graphs whose whole
    /// stream fits one chunk. With a single chunk the overlapped schedule
    /// *is* the three-phase barrier, so the report carries the same figure
    /// for both timelines and a zero in-flight high-water mark.
    #[allow(clippy::too_many_arguments)]
    fn transfer_inline(
        &self,
        mut gs: GraphSender<'_>,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        dst: NodeId,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        pool0: (u64, u64),
        ctx: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        self.metrics.mode_inline.inc();
        let link_node = gs.node_name();
        let t0 = Instant::now();
        for &root in roots {
            gs.write_root(root)?;
        }
        let out = gs.finish();
        let produce_raw_ns = t0.elapsed().as_nanos() as u64;

        let mut gr = SkywayObjectInputStream::new(receiver_vm, dir, dst)
            .with_metrics(Arc::clone(&self.metrics.registry));
        if !ctx.is_none() {
            gr = gr.with_trace(ctx);
        }
        let t1 = Instant::now();
        for c in &out.chunks {
            gr.push_chunk(c)?;
        }
        let (roots_out, recv_stats) = gr.read_objects(hooks)?;
        let absorb_raw_ns = t1.elapsed().as_nanos() as u64;

        let timeline: Vec<(u64, u64, u64)> =
            out.chunks.iter().map(|c| (produce_raw_ns, c.len() as u64, absorb_raw_ns)).collect();
        for c in out.chunks {
            self.pool.release(c);
        }
        let run = Run {
            mode: TransferMode::Inline,
            lanes: &[(timeline.as_slice(), 0)],
            send_stats: out.stats,
            recv_stats,
            produce_raw_ns,
            merge_raw_ns: 0,
            sender_stall_ns: 0,
            receiver_stall_ns: 0,
            max_in_flight: 0,
            steals: 0,
        };
        Ok((roots_out, self.schedule(run, pool0, ctx, link_node)))
    }

    /// The threaded run, for any lane count: `lanes` sender threads run
    /// [`StealSet::send_lane`] over one root set (roots start as
    /// contiguous blocks, idle lanes steal), each shipping its chunks
    /// through its own bounded channel to its own [`StreamAbsorber`]
    /// thread, and all absorbers place input buffers concurrently through
    /// the receiving heap's shared old-generation window. Lane `t` sends
    /// as stream `stream_base + t`; cross-stream CAS races on `baddr`
    /// duplicate contended objects per stream, as in the serializer's
    /// lanes. A lane whose absorber fails rolls its own buffers back
    /// before its thread returns. The lanes' [`StreamIn`]s merge into
    /// one, finished on the calling thread — one batched card-table pass,
    /// then update hooks — after every lane joined and the shared window
    /// closed. One lane is [`TransferMode::Pipelined`], more are
    /// [`TransferMode::Parallel`].
    ///
    /// Lane produce/absorb time is measured on the *thread* CPU clock
    /// ([`obs::thread_cpu_ns`]), not wall time: on a host with fewer cores
    /// than threads, wall time would charge every lane for its timeslice
    /// waits and inflate the simulated cost N-fold. A sender lane reads it
    /// at lane start, whenever a chunk becomes ready and at finish; an
    /// absorber around each chunk and its fixup drain.
    #[allow(clippy::too_many_arguments)]
    fn transfer_lanes(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream_base: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        ctx: obs::TraceCtx,
        send_cfg: SendConfig,
        lanes: usize,
        pool0: (u64, u64),
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        struct AbsorbOut {
            stream_in: StreamIn,
            timeline: Vec<(u64, u64, u64)>,
            stall_ns: u64,
            fixup_raw_ns: u64,
        }

        let mode = if lanes == 1 {
            self.metrics.mode_pipelined.inc();
            TransferMode::Pipelined
        } else {
            self.metrics.mode_parallel.inc();
            TransferMode::Parallel
        };
        if !ctx.is_none() {
            receiver_vm.set_trace_ctx(ctx);
        }
        let steal_set = StealSet::new(roots, lanes, self.cfg.parallel.map_or(1, |p| p.steal_batch));
        let in_flight = AtomicI64::new(0);
        let max_in_flight = AtomicU64::new(0);
        let sender_stall_ns = AtomicU64::new(0);

        // All absorbers allocate input buffers concurrently through the
        // shared window; it must close again before any `&mut Vm` use.
        receiver_vm.heap_mut().begin_shared_old_alloc();
        let joined = {
            let rvm: &Vm = receiver_vm;
            std::thread::scope(|scope| -> (Vec<Result<LaneSent>>, Vec<Result<AbsorbOut>>) {
                let mut sender_tasks = Vec::with_capacity(lanes);
                let mut absorb_tasks = Vec::with_capacity(lanes);
                for t in 0..lanes {
                    let (tx, rx) = mpsc::sync_channel::<InFlight>(self.cfg.depth.max(1));
                    let lane = t as u32 + 1;
                    let steal_set = &steal_set;
                    let in_flight = &in_flight;
                    let max_in_flight = &max_in_flight;
                    let sender_stall_ns = &sender_stall_ns;
                    let metrics = &self.metrics;
                    let pool = &self.pool;
                    sender_tasks.push(scope.spawn(move || -> Result<LaneSent> {
                        let ship = |chunks: Vec<Vec<u8>>, produce_ns: u64| {
                            for c in chunks {
                                // The span covers the (possibly blocking)
                                // hand-off, so backpressure stalls show as
                                // long chunk-send spans in the trace.
                                let mut span = metrics.registry.tracer().start_on(
                                    obs::names::TRACE_SENDER_CHUNK_SEND,
                                    ctx,
                                    &sender_vm.name,
                                    lane,
                                );
                                span.annotate("bytes", c.len() as u64);
                                let t0 = Instant::now();
                                // A closed channel means this lane's
                                // absorber bailed with an error; stop
                                // producing quietly — its error wins.
                                if tx.send((c, produce_ns)).is_err() {
                                    return false;
                                }
                                let stall = t0.elapsed().as_nanos() as u64;
                                sender_stall_ns.fetch_add(stall, Ordering::Relaxed);
                                drop(span);
                                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                                metrics.chunks_in_flight.set(now);
                                max_in_flight.fetch_max(now.max(0) as u64, Ordering::Relaxed);
                            }
                            true
                        };
                        let open = |stream| {
                            Ok(GraphSender::new(sender_vm, dir, src, sid, stream, send_cfg)?
                                .with_metrics(Arc::clone(&metrics.registry))
                                .with_pool(Arc::clone(pool))
                                .with_trace(ctx))
                        };
                        steal_set.send_lane(t, stream_base, open, ship)
                    }));
                    absorb_tasks.push(scope.spawn(move || -> Result<AbsorbOut> {
                        let mut sa = StreamAbsorber::new(rvm, dir, dst)
                            .with_metrics(Arc::clone(&metrics.registry))
                            .with_trace(ctx, lane);
                        let mut timeline: Vec<(u64, u64, u64)> = Vec::new();
                        let mut stall_ns = 0u64;
                        loop {
                            let t0 = Instant::now();
                            let Ok((chunk, ready_ns)) = rx.recv() else { break };
                            let waited = t0.elapsed().as_nanos() as u64;
                            stall_ns += waited;
                            metrics.chunk_stall_ns.record(waited);
                            let now = in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
                            metrics.chunks_in_flight.set(now);
                            let c0 = obs::thread_cpu_ns();
                            sa.push_chunk(&chunk)?;
                            sa.absorb_ready(hooks)?;
                            timeline.push((
                                ready_ns,
                                chunk.len() as u64,
                                obs::thread_cpu_ns().saturating_sub(c0),
                            ));
                            pool.release(chunk);
                        }
                        let c0 = obs::thread_cpu_ns();
                        let stream_in = sa.finish_stream(hooks)?;
                        let fixup_raw_ns = obs::thread_cpu_ns().saturating_sub(c0);
                        Ok(AbsorbOut { stream_in, timeline, stall_ns, fixup_raw_ns })
                    }));
                }
                fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
                    match h.join() {
                        Ok(r) => r,
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
                (
                    sender_tasks.into_iter().map(join).collect(),
                    absorb_tasks.into_iter().map(join).collect(),
                )
            })
        };
        receiver_vm.heap_mut().end_shared_old_alloc();
        self.metrics.chunks_in_flight.set(0);

        // Sender errors first: a sender failure closes its channel, which
        // makes its absorber fail on the truncated stream — the sender's
        // error is the root cause.
        let souts = joined.0.into_iter().collect::<Result<Vec<LaneSent>>>()?;
        let aouts = joined.1.into_iter().collect::<Result<Vec<AbsorbOut>>>()?;

        // Merge on the calling thread, which owns `&mut Vm` again: roots
        // back into original order, every lane's card spans and hooks into
        // one stream, then the shared receive finish.
        let merge0 = obs::thread_cpu_ns();
        let mut send_stats = SendStats::default();
        let mut merged = StreamIn {
            roots: vec![Addr::NULL; roots.len()],
            stats: ReceiveStats::default(),
            card_spans: Vec::new(),
            pending_hooks: Vec::new(),
        };
        let mut produce_raw_ns = 0u64;
        let mut receiver_stall_ns = 0u64;
        for (t, (so, ao)) in souts.iter().zip(&aouts).enumerate() {
            let lane_in = &ao.stream_in;
            if so.order.len() != lane_in.roots.len() {
                return Err(Error::BadFrame(format!(
                    "lane {t} absorbed {} roots but its sender emitted {}",
                    lane_in.roots.len(),
                    so.order.len()
                )));
            }
            for (&orig, &root) in so.order.iter().zip(&lane_in.roots) {
                merged.roots[orig as usize] = root;
            }
            send_stats.merge(&so.stats);
            merged.stats.merge(&lane_in.stats);
            merged.card_spans.extend(&lane_in.card_spans);
            merged.pending_hooks.extend(&lane_in.pending_hooks);
            produce_raw_ns += so.produce_raw_ns;
            receiver_stall_ns += ao.stall_ns;
        }
        let (roots_out, recv_stats) =
            merged.finish(receiver_vm, hooks, &self.metrics.registry, ctx)?;
        let merge_raw_ns = obs::thread_cpu_ns().saturating_sub(merge0);

        let per_lane: Vec<StreamTimeline<'_>> =
            aouts.iter().map(|a| (a.timeline.as_slice(), a.fixup_raw_ns)).collect();
        let run = Run {
            mode,
            lanes: &per_lane,
            send_stats,
            recv_stats,
            produce_raw_ns,
            merge_raw_ns,
            sender_stall_ns: sender_stall_ns.load(Ordering::Relaxed),
            receiver_stall_ns,
            max_in_flight: max_in_flight.load(Ordering::Relaxed),
            steals: steal_set.steals(),
        };
        Ok((roots_out, self.schedule(run, pool0, ctx, &sender_vm.name)))
    }

    /// The one scheduler: builds the simulated-time report from a run's
    /// measured lane timelines, and publishes the run's pool, stall and
    /// steal counters.
    ///
    /// Pipelined: every lane's chunks contend for ONE shared link (taken
    /// in scaled ready order, each lane's occupancy on its own trace
    /// lane); each chunk then chains through its lane's absorber, which
    /// absolutizes it as soon as both it and the absorber are free. The
    /// transfer ends when the slowest lane finishes its fixups plus the
    /// calling thread's merge. Sequential: all produce, then the whole
    /// payload at `net_ns`, then all absorption — the three-phase barrier
    /// the sequential path pays for the same work.
    fn schedule(
        &self,
        run: Run<'_>,
        pool0: (u64, u64),
        ctx: obs::TraceCtx,
        link_node: &str,
    ) -> PipelineReport {
        let pool_hits = self.pool.hits() - pool0.0;
        let pool_misses = self.pool.misses() - pool0.1;
        self.metrics.pool_hits.add(pool_hits);
        self.metrics.pool_misses.add(pool_misses);
        self.metrics.stall_ns.add(run.sender_stall_ns + run.receiver_stall_ns);
        self.metrics.steals.add(run.steals);

        let scale = |ns: u64| -> u64 { (ns as f64 * self.cfg.sim.sd_cpu_scale) as u64 };
        // (scaled ready, lane, bytes, scaled absorb) for every chunk of
        // every lane. Within a lane ready times are cumulative, so the
        // global sort preserves each stream's chunk order.
        let mut events: Vec<(u64, usize, u64, u64)> = Vec::new();
        let mut absorb_raw_ns = run.merge_raw_ns;
        for (t, &(timeline, fixup_raw)) in run.lanes.iter().enumerate() {
            absorb_raw_ns += fixup_raw;
            for &(ready_raw, bytes, absorb_raw) in timeline {
                events.push((scale(ready_raw), t, bytes, scale(absorb_raw)));
                absorb_raw_ns += absorb_raw;
            }
        }
        events.sort_by_key(|&(ready, t, _, _)| (ready, t));
        let mut link = LinkClock::new(&self.cfg.sim);
        let mut absorber_free = vec![0u64; run.lanes.len()];
        let mut total_bytes = 0u64;
        let mut chunk_bytes = Vec::with_capacity(events.len());
        for &(ready, t, bytes, absorb) in &events {
            let xmit = link.send(t, ready, bytes);
            if !ctx.is_none() {
                self.metrics.registry.tracer().record_sim_on(
                    obs::names::TRACE_LINK_XMIT,
                    ctx,
                    link_node,
                    t as u32 + 1,
                    xmit.start_ns,
                    xmit.end_ns,
                    &[("bytes", bytes)],
                );
            }
            absorber_free[t] = absorber_free[t].max(xmit.arrival_ns) + absorb;
            total_bytes += bytes;
            chunk_bytes.push(bytes);
        }
        let slowest_lane = run
            .lanes
            .iter()
            .zip(&absorber_free)
            .map(|(&(_, fixup_raw), &free)| free + scale(fixup_raw))
            .max()
            .unwrap_or(0);
        let pipelined_ns = slowest_lane + scale(run.merge_raw_ns);
        let sequential_ns =
            scale(run.produce_raw_ns) + self.cfg.sim.net_ns(total_bytes) + scale(absorb_raw_ns);
        PipelineReport {
            send_stats: run.send_stats,
            recv_stats: run.recv_stats,
            chunk_bytes,
            pipelined_ns,
            sequential_ns,
            produce_ns: scale(run.produce_raw_ns),
            wire_ns: link.busy_ns(),
            absorb_ns: scale(absorb_raw_ns),
            sender_stall_ns: run.sender_stall_ns,
            receiver_stall_ns: run.receiver_stall_ns,
            pool_hits,
            pool_misses,
            max_in_flight: run.max_in_flight,
            mode: run.mode,
            workers: run.lanes.len() as u64,
            steals: run.steals,
            link_utilization_pct: link.utilization_pct(pipelined_ns),
        }
    }
}

/// A sequential (three-phase) reference transfer over the same VM pair,
/// for equivalence tests and benchmarks: send everything, then push every
/// chunk, then absolutize in one pass.
///
/// # Errors
/// Heap/registry/corrupt-stream errors.
#[allow(clippy::too_many_arguments)]
pub fn sequential_transfer(
    sender_vm: &Vm,
    receiver_vm: &mut Vm,
    dir: &TypeDirectory,
    src: NodeId,
    dst: NodeId,
    sid: u8,
    stream: u16,
    roots: &[Addr],
    hooks: Option<&UpdateRegistry>,
    cfg: SendConfig,
) -> Result<(Vec<Addr>, SendStats, ReceiveStats)> {
    let mut gs = GraphSender::new(sender_vm, dir, src, sid, stream, cfg)?;
    for &root in roots {
        gs.write_root(root)?;
    }
    let out = gs.finish();
    let mut gr = SkywayObjectInputStream::new(receiver_vm, dir, dst);
    for c in &out.chunks {
        gr.push_chunk(c)?;
    }
    let (roots_out, recv_stats) = gr.read_objects(hooks)?;
    Ok((roots_out, out.stats, recv_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::{stdlib::define_core_classes, ClassPath, HeapConfig};

    fn env() -> (Arc<TypeDirectory>, Vm, Vm) {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        let sender = Vm::new("s", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
        let receiver = Vm::new("r", &HeapConfig::small(), cp).unwrap();
        let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
        dir.bootstrap_driver(&sender).unwrap();
        dir.worker_startup(NodeId(1)).unwrap();
        (dir, sender, receiver)
    }

    #[test]
    fn pipelined_matches_sequential_roots() {
        let (dir, mut s, mut r) = env();
        let mut root_addrs = Vec::new();
        for i in 0..64 {
            root_addrs.push(s.new_string(&format!("payload {i} {}", "x".repeat(i))).unwrap());
        }
        let engine =
            PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..PipelineConfig::default() });
        let (got, report) = engine
            .transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &root_addrs, None)
            .unwrap();
        assert_eq!(got.len(), root_addrs.len());
        for (i, a) in got.iter().enumerate() {
            assert!(r.read_string(*a).unwrap().starts_with(&format!("payload {i} ")));
        }
        // Same work as the sequential reference path over identical input.
        let (dir2, mut s2, mut r2) = env();
        let mut addrs2 = Vec::new();
        for i in 0..64 {
            addrs2.push(s2.new_string(&format!("payload {i} {}", "x".repeat(i))).unwrap());
        }
        let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&s2) };
        let (got2, sstats2, rstats2) = sequential_transfer(
            &s2,
            &mut r2,
            &dir2,
            NodeId(0),
            NodeId(1),
            1,
            1,
            &addrs2,
            None,
            cfg,
        )
        .unwrap();
        assert_eq!(got2.len(), got.len());
        assert_eq!(report.recv_stats.objects, rstats2.objects);
        assert_eq!(report.recv_stats.bytes, rstats2.bytes);
        assert_eq!(report.recv_stats.ref_fixups, rstats2.ref_fixups);
        assert_eq!(report.send_stats.total_bytes, sstats2.total_bytes);
        assert!(report.chunk_bytes.len() > 1, "test must span multiple chunks");
        assert_eq!(
            report.chunk_bytes.iter().sum::<u64>(),
            report.send_stats.total_bytes,
            "every produced byte crossed the channel"
        );
    }

    #[test]
    fn second_transfer_reuses_every_backing() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..32 {
            addrs.push(s.new_string(&format!("pooled {i}")).unwrap());
        }
        let reg = Arc::new(obs::Registry::new());
        // Exact hit/miss assertions need an isolated pool — the global
        // per-node pool aggregates every concurrently running test.
        let engine =
            PipelineEngine::new(PipelineConfig { chunk_limit: 128, ..PipelineConfig::default() })
                .with_metrics(Arc::clone(&reg))
                .with_pool(ChunkPool::new());
        let (_, first) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert!(first.pool_misses > 0, "cold pool must allocate");
        let (_, second) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &addrs, None).unwrap();
        // The warm pool serves the second run: it reuses backings (hits)
        // and never allocates more than the cold run's peak did — exact
        // zero would be flaky, since the peak of concurrently outstanding
        // chunks depends on thread scheduling.
        assert!(
            second.pool_misses <= first.pool_misses,
            "steady state allocates no more than cold"
        );
        assert!(second.pool_hits > 0, "warm pool must serve backings");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(obs::names::PIPELINE_POOL_MISSES),
            first.pool_misses + second.pool_misses
        );
        assert!(snap.counter(obs::names::PIPELINE_POOL_HITS) >= second.pool_hits);
    }

    #[test]
    fn flat_roots_take_single_chunk_fallback() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..16 {
            addrs.push(s.new_integer(i).unwrap());
        }
        // Isolated pool: the test asserts exact steady-state miss counts.
        let engine = PipelineEngine::new(PipelineConfig::default()).with_pool(ChunkPool::new());
        let (got, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(got.len(), 16);
        for (i, a) in got.iter().enumerate() {
            assert_eq!(r.get_int(*a, "value").unwrap(), i as i32);
        }
        assert_eq!(report.mode, TransferMode::Inline);
        assert_eq!(report.chunk_bytes.len(), 1, "flat graph travels as one chunk");
        assert_eq!(report.max_in_flight, 0, "fallback never opens the channel");
        assert_eq!(report.pipelined_ns, report.sequential_ns, "nothing overlaps");
        assert_eq!(report.sender_stall_ns + report.receiver_stall_ns, 0);
        assert_eq!(report.chunk_bytes[0], report.send_stats.total_bytes);
        // The pool serves the fallback too: an identical second transfer
        // runs entirely on the released backing.
        let (_, second) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &addrs, None).unwrap();
        assert_eq!(second.pool_misses, 0, "steady-state fallback allocates nothing");
        assert!(second.pool_hits > 0);
        // A ref-bearing root disqualifies the graph and keeps the
        // overlapped path (strings reference their char arrays). The mode
        // is the deterministic witness — max_in_flight depends on thread
        // scheduling and can legitimately be 0 on a busy host.
        let mixed = [addrs[0], s.new_string("not flat").unwrap()];
        let (_, threaded) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 3, &mixed, None).unwrap();
        assert_eq!(threaded.mode, TransferMode::Pipelined, "ref-bearing roots stay pipelined");
    }

    #[test]
    fn parallel_transfer_matches_sequential() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..48 {
            addrs.push(s.new_string(&format!("parallel payload {i} {}", "y".repeat(i))).unwrap());
        }
        let par = ParallelConfig { workers: 4, min_roots_per_worker: 1, ..Default::default() };
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 256,
            parallel: Some(par),
            ..PipelineConfig::default()
        });
        let (got, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(report.mode, TransferMode::Parallel);
        assert_eq!(report.workers, 4);
        assert_eq!(got.len(), addrs.len());
        // Root order is restored from the per-stream index tables even
        // though workers interleave and steal.
        for (i, a) in got.iter().enumerate() {
            assert!(r.read_string(*a).unwrap().starts_with(&format!("parallel payload {i} ")));
        }
        // Strings share nothing, so parallel absorbs exactly the
        // sequential object population.
        let (dir2, mut s2, mut r2) = env();
        let mut addrs2 = Vec::new();
        for i in 0..48 {
            addrs2.push(s2.new_string(&format!("parallel payload {i} {}", "y".repeat(i))).unwrap());
        }
        let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&s2) };
        let (got2, sstats2, rstats2) = sequential_transfer(
            &s2,
            &mut r2,
            &dir2,
            NodeId(0),
            NodeId(1),
            1,
            1,
            &addrs2,
            None,
            cfg,
        )
        .unwrap();
        assert_eq!(got2.len(), got.len());
        assert_eq!(report.recv_stats.objects, rstats2.objects);
        assert_eq!(report.recv_stats.bytes, rstats2.bytes);
        assert_eq!(report.recv_stats.ref_fixups, rstats2.ref_fixups);
        assert_eq!(report.send_stats.objects, sstats2.objects);
        assert_eq!(report.send_stats.total_bytes, sstats2.total_bytes);
        assert_eq!(
            report.chunk_bytes.iter().sum::<u64>(),
            report.send_stats.total_bytes,
            "every produced byte crossed a channel"
        );
        // The receiving heap stays coherent for further mutation: a GC
        // after the parallel absorb must keep every transferred string.
        let keep: Vec<_> = got.iter().map(|&a| r.handle(a)).collect();
        r.full_gc().unwrap();
        for (i, h) in keep.iter().enumerate() {
            let a = r.resolve(*h).unwrap();
            assert!(r.read_string(a).unwrap().starts_with(&format!("parallel payload {i} ")));
        }
    }

    #[test]
    fn parallel_policy_falls_back_below_root_floor() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..6 {
            addrs.push(s.new_string(&format!("few {i}")).unwrap());
        }
        // 6 roots < 4 workers × 8 roots/worker → pipelined, not parallel.
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 128,
            parallel: Some(ParallelConfig { workers: 4, ..Default::default() }),
            ..PipelineConfig::default()
        });
        let (_, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(report.mode, TransferMode::Pipelined);
        assert_eq!(report.workers, 1);
        // And a flat graph that fits one chunk stays inline even with
        // parallel enabled and enough roots for the worker floor.
        let roomy = PipelineEngine::new(PipelineConfig {
            parallel: Some(ParallelConfig { workers: 4, ..Default::default() }),
            ..PipelineConfig::default()
        });
        let flat: Vec<Addr> = (0..64).map(|i| s.new_integer(i).unwrap()).collect();
        let (_, flat_report) =
            roomy.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &flat, None).unwrap();
        assert_eq!(flat_report.mode, TransferMode::Inline);
    }

    #[test]
    fn update_hooks_fire_once_per_instance_in_every_mode() {
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let hooks = UpdateRegistry::new();
        let counter = Arc::clone(&calls);
        hooks.register_update(mheap::stdlib::INTEGER, move |vm, obj| {
            counter.fetch_add(1, Ordering::Relaxed);
            let v = vm.get_int(obj, "value").map_err(Error::Heap)?;
            vm.set_int(obj, "value", v + 1000).map_err(Error::Heap)
        });
        // 48 roots, one Integer each: bare (flat) or inside a Pair. Returns
        // the values the receiver reads back and the mode taken (`None`
        // for the sequential reference).
        let receive = |engine: Option<&PipelineEngine>, flat: bool| {
            let (dir, mut s, mut r) = env();
            let roots: Vec<Addr> = (0..48)
                .map(|i| {
                    let int = s.new_integer(i).unwrap();
                    if flat {
                        int
                    } else {
                        s.new_pair(int, Addr::NULL).unwrap()
                    }
                })
                .collect();
            calls.store(0, Ordering::Relaxed);
            let (got, mode) = match engine {
                Some(e) => {
                    let (got, report) = e
                        .transfer(
                            &s,
                            &mut r,
                            &dir,
                            NodeId(0),
                            NodeId(1),
                            1,
                            1,
                            &roots,
                            Some(&hooks),
                        )
                        .unwrap();
                    (got, Some(report.mode))
                }
                None => {
                    let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&s) };
                    let got = sequential_transfer(
                        &s,
                        &mut r,
                        &dir,
                        NodeId(0),
                        NodeId(1),
                        1,
                        1,
                        &roots,
                        Some(&hooks),
                        cfg,
                    )
                    .unwrap()
                    .0;
                    (got, None)
                }
            };
            assert_eq!(calls.load(Ordering::Relaxed), 48, "{mode:?}: one call per Integer");
            assert_eq!(r.verify_heap().unwrap(), vec![], "{mode:?}");
            let values: Vec<i32> = got
                .iter()
                .map(|&a| {
                    let int = if flat { a } else { r.get_ref(a, "first").unwrap() };
                    r.get_int(int, "value").unwrap()
                })
                .collect();
            (values, mode)
        };
        let want: Vec<i32> = (1000..1048).collect();
        assert_eq!(receive(None, true).0, want);
        assert_eq!(receive(None, false).0, want);

        let small = PipelineConfig { chunk_limit: 256, ..PipelineConfig::default() };
        let par = ParallelConfig { workers: 4, min_roots_per_worker: 1, ..Default::default() };
        for (cfg, flat, mode) in [
            (PipelineConfig::default(), true, TransferMode::Inline),
            (small, false, TransferMode::Pipelined),
            (PipelineConfig { parallel: Some(par), ..small }, false, TransferMode::Parallel),
        ] {
            let (values, got_mode) = receive(Some(&PipelineEngine::new(cfg)), flat);
            assert_eq!(got_mode, Some(mode));
            assert_eq!(values, want, "{mode:?}");
        }
    }

    #[test]
    fn report_charges_cluster_stream() {
        let (dir, mut s, mut r) = env();
        let addrs = [s.new_string("charged").unwrap()];
        let engine = PipelineEngine::new(PipelineConfig::default());
        let (_, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        let mut cluster = Cluster::new(2, SimConfig::default());
        report.charge(&mut cluster, NodeId(0), NodeId(1)).unwrap();
        let p = cluster.profile(NodeId(1));
        assert_eq!(p.bytes_remote, report.send_stats.total_bytes);
        assert_eq!(cluster.profile(NodeId(0)).ns(simnet::Category::Ser), report.produce_ns);
        assert_eq!(cluster.profile(NodeId(1)).ns(simnet::Category::Deser), report.absorb_ns);
    }
}
