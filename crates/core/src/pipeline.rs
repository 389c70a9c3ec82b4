//! Chunk-granularity pipelined shuffle engine.
//!
//! The sequential path (`SkywaySerializer::serialize` → transport →
//! `deserialize`) is a strict three-phase barrier: build every chunk, move
//! every chunk, then absolutize everything in one pass — paying
//! sum-of-phases wall-clock. This module overlaps the phases at chunk
//! granularity: a sender thread walks the object graph and flushes chunks
//! into a bounded channel while the receiving thread places and absolutizes
//! each chunk as it arrives, so chunk *N* is being absolutized while chunk
//! *N+1* is in flight and chunk *N+2* is still being cloned out of the
//! sender heap (paper §4.3 streams output buffers the same way).
//!
//! The channel bound provides backpressure: a slow receiver stalls the
//! sender instead of letting chunks pile up unboundedly. Chunk backings
//! come from a [`ChunkPool`] shared by sender (acquire) and receiver
//! (release), so steady-state transfer performs zero per-chunk heap
//! allocations.
//!
//! Simulated time is charged with the overlap-aware [`LinkClock`] schedule
//! rather than the whole-payload `net_ns` formula, and both the pipelined
//! schedule and the sequential sum are reported so benchmarks can compare
//! like for like.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, Vm};
use simnet::{Cluster, LinkClock, NodeId, SimConfig};

use crate::buffer::ChunkPool;
use crate::receiver::{GraphReceiver, ReceiveStats, StreamAbsorber, StreamIn};
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, ParallelConfig, SendConfig, SendStats, StealSet, Tracking};
use crate::stream::UpdateRegistry;
use crate::{Error, Result};

/// One parallel stream's chunk timeline — `(ready_raw_ns, bytes,
/// absorb_raw_ns)` per chunk in stream order — plus that stream's fixup
/// CPU time, as fed to the shared-link schedule.
type StreamTimeline<'a> = (&'a [(u64, u64, u64)], u64);

/// Default flush threshold for pipelined transfer. Much smaller than the
/// sequential default (1 MiB): the pipeline's overlap window is one chunk,
/// so finer chunks mean earlier first-byte and smoother overlap, at the
/// cost of per-chunk bookkeeping the pool keeps negligible.
pub const DEFAULT_PIPELINE_CHUNK: usize = 64 << 10;

/// Default bound of the in-flight chunk channel.
pub const DEFAULT_DEPTH: usize = 4;

/// Adaptive chunk-sizing floor.
pub const MIN_ADAPTIVE_CHUNK: usize = 16 << 10;

/// Adaptive chunk-sizing ceiling.
pub const MAX_ADAPTIVE_CHUNK: usize = 1 << 20;

/// Which execution strategy a transfer took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Flat single-chunk graph: produce, move, absorb inline on the
    /// calling thread — nothing to overlap.
    Inline,
    /// One sender thread overlapped with absorption on the calling thread.
    Pipelined,
    /// N work-stealing traversal workers, each streaming to its own
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

/// Configuration of the pipelined engine.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Flush threshold of the sender's output buffer in bytes.
    pub chunk_limit: usize,
    /// Maximum chunks in flight between sender and receiver (channel
    /// bound; the backpressure window). Parallel mode applies it per
    /// worker pair.
    pub depth: usize,
    /// Visited-tracking mode for the sender; `None` picks `Baddr` when the
    /// sender heap carries the word, `HashTable` otherwise.
    pub tracking: Option<Tracking>,
    /// Cost-model parameters for the simulated-time schedule.
    pub sim: SimConfig,
    /// Opt-in parallel mode: with `Some(par)` the engine runs
    /// `par.workers` work-stealing sender workers, each feeding its own
    /// absorber, whenever `roots >= workers * min_roots_per_worker` (and
    /// the graph is not a flat single chunk). `None` keeps the classic
    /// single-sender pipeline.
    pub parallel: Option<ParallelConfig>,
    /// Adapt `chunk_limit` between transfers from the observed stalls:
    /// grow (×2, up to [`MAX_ADAPTIVE_CHUNK`]) while sender stalls
    /// dominate, shrink (÷2, down to [`MIN_ADAPTIVE_CHUNK`]) while
    /// receiver stalls dominate.
    pub adaptive_chunking: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_limit: DEFAULT_PIPELINE_CHUNK,
            depth: DEFAULT_DEPTH,
            tracking: None,
            sim: SimConfig::default(),
            parallel: None,
            adaptive_chunking: false,
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
    chunk_limit: Arc<obs::Gauge>,
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
            chunk_limit: registry.gauge(obs::names::PIPELINE_CHUNK_LIMIT),
            steals: registry.counter(obs::names::SENDER_STEALS),
            registry,
        }
    }
}

/// What one pipelined transfer did and what it would have cost.
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
    /// Per-chunk wire sizes, in stream order.
    pub chunk_bytes: Vec<u64>,
    /// End-to-end simulated time of the overlapped schedule.
    pub pipelined_ns: u64,
    /// Simulated time the sequential three-phase barrier would have paid
    /// for the same work: produce + whole-payload transfer + absolutize.
    pub sequential_ns: u64,
    /// Scaled sender lane time: each lane's cumulative time sampled when
    /// its chunks became ready (wall time minus channel stalls on the
    /// pipelined lane, thread CPU time on parallel lanes), summed over
    /// lanes. Lanes read their clock at chunk boundaries, never per root.
    pub produce_ns: u64,
    /// Wire-occupancy time of all chunks.
    pub wire_ns: u64,
    /// Scaled receiver absolutization CPU time (including final fixups).
    pub absorb_ns: u64,
    /// Real time the sender spent blocked on a full channel.
    pub sender_stall_ns: u64,
    /// Real time the receiver spent blocked on an empty channel.
    pub receiver_stall_ns: u64,
    /// Chunk-pool hits during this transfer.
    pub pool_hits: u64,
    /// Chunk-pool misses (fresh allocations) during this transfer.
    pub pool_misses: u64,
    /// High-water mark of chunks in flight.
    pub max_in_flight: u64,
    /// Which execution strategy the adaptive policy picked.
    pub mode: TransferMode,
    /// Traversal workers (1 outside parallel mode).
    pub workers: u64,
    /// Successful inter-worker root steals (parallel mode only).
    pub steals: u64,
    /// Share of the pipelined schedule the modeled link spent busy
    /// (0–100; the wire is the shared resource parallel streams contend
    /// for, so high utilization means the transfer is link-bound).
    pub link_utilization_pct: f64,
}

impl PipelineReport {
    /// Fraction of sequential time the pipeline saved (0..1).
    pub fn speedup(&self) -> f64 {
        if self.sequential_ns == 0 {
            return 0.0;
        }
        1.0 - self.pipelined_ns as f64 / self.sequential_ns as f64
    }

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

/// What the sender thread hands back at join: its send statistics plus
/// raw (unscaled) produce and channel-stall nanoseconds.
type SenderSide = (SendStats, u64, u64);

/// The pipelined shuffle engine. Holds the shared [`ChunkPool`] so buffer
/// backings survive across transfers — the second transfer of a similar
/// shape allocates nothing.
#[derive(Debug)]
pub struct PipelineEngine {
    cfg: PipelineConfig,
    pool: Arc<ChunkPool>,
    metrics: PipelineMetrics,
    /// Adaptive chunk-sizing state: the live flush threshold (0 = not yet
    /// adapted, use `cfg.chunk_limit`).
    live_chunk_limit: AtomicUsize,
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
            live_chunk_limit: AtomicUsize::new(0),
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

    /// The flush threshold the next transfer will use: the configured
    /// limit, or the adaptively tuned one once stall feedback moved it.
    pub fn effective_chunk_limit(&self) -> usize {
        let live = self.live_chunk_limit.load(Ordering::Relaxed);
        if self.cfg.adaptive_chunking && live != 0 {
            live
        } else {
            self.cfg.chunk_limit
        }
    }

    /// Stall-feedback controller for the flush threshold: sender stalls
    /// (channel full — per-chunk overhead downstream) grow the chunks,
    /// receiver stalls (channel empty — first byte arrives too late)
    /// shrink them. A 2× dominance band keeps the controller from
    /// oscillating on balanced transfers.
    fn adapt_chunk_limit(&self, sender_stall_ns: u64, receiver_stall_ns: u64) {
        let cur = self.effective_chunk_limit();
        let next = if sender_stall_ns > 2 * receiver_stall_ns {
            (cur.saturating_mul(2)).min(MAX_ADAPTIVE_CHUNK)
        } else if receiver_stall_ns > 2 * sender_stall_ns {
            (cur / 2).max(MIN_ADAPTIVE_CHUNK)
        } else {
            cur
        };
        if next != cur {
            self.live_chunk_limit.store(next, Ordering::Relaxed);
        }
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
    /// Returns the received roots (arrival order, same as the sequential
    /// path) and the transfer report.
    ///
    /// Flat graphs that provably fit one chunk (see
    /// [`GraphSender::estimate_flat_bytes`]) skip the overlap machinery
    /// and run the three phases inline — with a single chunk there is
    /// nothing to overlap, and the thread + channel overhead would make
    /// the pipeline strictly slower than the sequential path.
    ///
    /// `src`/`dst` are the nodes the VMs live on; `sid`/`stream` identify
    /// the shuffle stream exactly as on the sequential path.
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
        let chunk_limit = self.effective_chunk_limit();
        self.metrics.chunk_limit.set(chunk_limit as i64);
        let send_cfg = SendConfig {
            chunk_limit,
            receiver_spec: receiver_vm.spec(),
            tracking: self.cfg.tracking.unwrap_or(if sender_vm.spec().with_baddr {
                Tracking::Baddr
            } else {
                Tracking::HashTable
            }),
        };
        let pool_hits0 = self.pool.hits();
        let pool_misses0 = self.pool.misses();

        // Mode policy, first gate — flat single-chunk fast path: when
        // every root is reference-free the whole stream provably fits one
        // chunk, so there is nothing to overlap — threads, channels, and
        // per-chunk bookkeeping would be pure overhead (measurably
        // negative on small flat payloads). Run the three phases inline
        // instead; the estimate is an upper bound, so taking this branch
        // guarantees a single chunk. This gate outranks parallel mode: a
        // single chunk gives N workers nothing to share.
        {
            let mut gs = GraphSender::new(sender_vm, dir, src, sid, stream, send_cfg)?
                .with_metrics(Arc::clone(&self.metrics.registry))
                .with_pool(Arc::clone(&self.pool))
                .with_trace(ctx);
            if gs.estimate_flat_bytes(roots, chunk_limit as u64)?.is_some() {
                return self.transfer_single_chunk(
                    gs,
                    receiver_vm,
                    dir,
                    dst,
                    roots,
                    hooks,
                    pool_hits0,
                    pool_misses0,
                    ctx,
                );
            }
        }

        // Second gate — parallel mode: opt-in, and only when there are
        // enough roots to amortize the per-worker setup (each worker owns
        // a stream, a channel, and an absorber).
        if let Some(par) = self.cfg.parallel {
            if par.workers >= 2 && roots.len() >= par.workers * par.min_roots_per_worker.max(1) {
                let r = self.transfer_parallel(
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
                    par,
                );
                if let (true, Ok((_, report))) = (self.cfg.adaptive_chunking, &r) {
                    self.adapt_chunk_limit(report.sender_stall_ns, report.receiver_stall_ns);
                }
                return r;
            }
        }

        self.metrics.mode_pipelined.inc();
        let in_flight = AtomicI64::new(0);
        let max_in_flight = AtomicU64::new(0);
        let (tx, rx) = mpsc::sync_channel::<InFlight>(self.cfg.depth.max(1));

        // Timeline entries: (cumulative produce ns when ready, bytes,
        // absorb ns for this chunk). Scaled and scheduled after the join.
        let mut timeline: Vec<(u64, u64, u64)> = Vec::new();
        let mut receiver_stall_ns = 0u64;
        let mut absorb_raw_ns = 0u64;
        let mut fixup_raw_ns = 0u64;

        let (roots_out, recv_stats, send_side) =
            std::thread::scope(|scope| -> Result<(Vec<Addr>, ReceiveStats, SenderSide)> {
                // The sender thread owns `tx`: when it returns, the channel
                // closes and the receive loop below terminates. Everything
                // else crosses as shared references (`Vm`, the registry,
                // and the pool are all `Sync`).
                let in_flight = &in_flight;
                let max_in_flight = &max_in_flight;
                let metrics = &self.metrics;
                let pool = &self.pool;
                let sender_task = scope.spawn(move || -> Result<(SendStats, u64, u64)> {
                    let mut gs = GraphSender::new(sender_vm, dir, src, sid, stream, send_cfg)?
                        .with_metrics(Arc::clone(&metrics.registry))
                        .with_pool(Arc::clone(pool))
                        .with_trace(ctx);
                    let mut stall_ns = 0u64;
                    let ship = |chunks: Vec<Vec<u8>>, produce_ns: u64, stall: &mut u64| {
                        for c in chunks {
                            // The span covers the (possibly blocking) hand-
                            // off, so backpressure stalls are visible as
                            // long chunk-send spans in the trace.
                            let mut span = if ctx.is_none() {
                                None
                            } else {
                                Some(metrics.registry.tracer().start(
                                    obs::names::TRACE_SENDER_CHUNK_SEND,
                                    ctx,
                                    &sender_vm.name,
                                ))
                            };
                            if let Some(s) = span.as_mut() {
                                s.annotate("bytes", c.len() as u64);
                            }
                            let t0 = Instant::now();
                            // A closed channel means the receiver bailed
                            // with an error; stop producing quietly — the
                            // receiver's error wins.
                            if tx.send((c, produce_ns)).is_err() {
                                return false;
                            }
                            *stall += t0.elapsed().as_nanos() as u64;
                            drop(span);
                            let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                            metrics.chunks_in_flight.set(now);
                            max_in_flight.fetch_max(now.max(0) as u64, Ordering::Relaxed);
                        }
                        true
                    };
                    // The clock is read at lane start, at each chunk
                    // boundary and at finish — never per root. Produce
                    // time is the lane's wall time minus its stalls.
                    let lane0 = Instant::now();
                    let produced = |stall_ns: u64| {
                        (lane0.elapsed().as_nanos() as u64).saturating_sub(stall_ns)
                    };
                    for &root in roots {
                        gs.write_root(root)?;
                        let chunks = gs.take_ready_chunks();
                        if !chunks.is_empty() && !ship(chunks, produced(stall_ns), &mut stall_ns) {
                            return Ok((gs.finish().stats, produced(stall_ns), stall_ns));
                        }
                    }
                    let out = gs.finish();
                    let produce_ns = produced(stall_ns);
                    ship(out.chunks, produce_ns, &mut stall_ns);
                    Ok((out.stats, produce_ns, stall_ns))
                });

                // Receiver runs on this thread: it owns `&mut Vm`.
                let recv_result = (|| -> Result<(Vec<Addr>, ReceiveStats)> {
                    let mut gr = GraphReceiver::new(receiver_vm, dir, dst)
                        .with_metrics(Arc::clone(&self.metrics.registry));
                    if !ctx.is_none() {
                        gr = gr.with_trace(ctx);
                    }
                    loop {
                        let t0 = Instant::now();
                        let Ok((chunk, ready_ns)) = rx.recv() else { break };
                        let waited = t0.elapsed().as_nanos() as u64;
                        receiver_stall_ns += waited;
                        self.metrics.chunk_stall_ns.record(waited);
                        let now = in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
                        self.metrics.chunks_in_flight.set(now);
                        let t1 = Instant::now();
                        gr.push_chunk(&chunk)?;
                        gr.absorb_ready(hooks)?;
                        let absorb = t1.elapsed().as_nanos() as u64;
                        absorb_raw_ns += absorb;
                        timeline.push((ready_ns, chunk.len() as u64, absorb));
                        self.pool.release(chunk);
                    }
                    let t0 = Instant::now();
                    let out = gr.finish(hooks)?;
                    fixup_raw_ns = t0.elapsed().as_nanos() as u64;
                    Ok(out)
                })();
                // Receiver error: drop the channel end so a blocked sender
                // unblocks, then surface whichever error came first.
                drop(rx);
                let send_side = match sender_task.join() {
                    Ok(r) => r?,
                    Err(p) => std::panic::resume_unwind(p),
                };
                let (roots_out, recv_stats) = recv_result?;
                Ok((roots_out, recv_stats, send_side))
            })?;
        let (send_stats, produce_raw_ns, sender_stall_ns) = send_side;

        self.metrics.chunks_in_flight.set(0);
        self.metrics.stall_ns.add(sender_stall_ns + receiver_stall_ns);
        let pool_hits = self.pool.hits() - pool_hits0;
        let pool_misses = self.pool.misses() - pool_misses0;
        self.metrics.pool_hits.add(pool_hits);
        self.metrics.pool_misses.add(pool_misses);

        let report = self.schedule(
            &timeline,
            produce_raw_ns,
            absorb_raw_ns + fixup_raw_ns,
            fixup_raw_ns,
            send_stats,
            recv_stats,
            sender_stall_ns,
            receiver_stall_ns,
            pool_hits,
            pool_misses,
            max_in_flight.load(Ordering::Relaxed),
            ctx,
            &sender_vm.name,
        );
        if self.cfg.adaptive_chunking {
            self.adapt_chunk_limit(report.sender_stall_ns, report.receiver_stall_ns);
        }
        Ok((roots_out, report))
    }

    /// The inline (no threads, no channel) variant of [`Self::transfer`]
    /// for flat graphs whose whole stream fits one chunk: produce, move,
    /// absorb, strictly in sequence. With a single chunk the pipelined
    /// schedule *is* the three-phase barrier, so the report carries the
    /// same figure for both timelines and a zero in-flight high-water mark.
    #[allow(clippy::too_many_arguments)]
    fn transfer_single_chunk(
        &self,
        mut gs: GraphSender<'_>,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        dst: NodeId,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        pool_hits0: u64,
        pool_misses0: u64,
        ctx: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        self.metrics.mode_inline.inc();
        let gs_node = gs.node_name().to_owned();
        let t0 = Instant::now();
        for &root in roots {
            gs.write_root(root)?;
        }
        let out = gs.finish();
        let produce_raw_ns = t0.elapsed().as_nanos() as u64;

        let mut gr = GraphReceiver::new(receiver_vm, dir, dst)
            .with_metrics(Arc::clone(&self.metrics.registry));
        if !ctx.is_none() {
            gr = gr.with_trace(ctx);
        }
        let t1 = Instant::now();
        for c in &out.chunks {
            gr.push_chunk(c)?;
            gr.absorb_ready(hooks)?;
        }
        let (roots_out, recv_stats) = gr.finish(hooks)?;
        let absorb_raw_ns = t1.elapsed().as_nanos() as u64;

        let chunk_bytes: Vec<u64> = out.chunks.iter().map(|c| c.len() as u64).collect();
        let total_bytes: u64 = chunk_bytes.iter().sum();
        for c in out.chunks {
            self.pool.release(c);
        }
        let pool_hits = self.pool.hits() - pool_hits0;
        let pool_misses = self.pool.misses() - pool_misses0;
        self.metrics.pool_hits.add(pool_hits);
        self.metrics.pool_misses.add(pool_misses);

        let scale = |ns: u64| -> u64 { (ns as f64 * self.cfg.sim.sd_cpu_scale) as u64 };
        let wire_ns = self.cfg.sim.net_ns(total_bytes);
        if !ctx.is_none() {
            // One inline chunk, one occupancy interval on the sim clock.
            let start = scale(produce_raw_ns);
            self.metrics.registry.tracer().record_sim(
                obs::names::TRACE_LINK_XMIT,
                ctx,
                &gs_node,
                start,
                start + wire_ns,
                &[("bytes", total_bytes)],
            );
        }
        let wall = scale(produce_raw_ns) + wire_ns + scale(absorb_raw_ns);
        let report = PipelineReport {
            send_stats: out.stats,
            recv_stats,
            chunk_bytes,
            pipelined_ns: wall,
            sequential_ns: wall,
            produce_ns: scale(produce_raw_ns),
            wire_ns,
            absorb_ns: scale(absorb_raw_ns),
            sender_stall_ns: 0,
            receiver_stall_ns: 0,
            pool_hits,
            pool_misses,
            max_in_flight: 0,
            mode: TransferMode::Inline,
            workers: 1,
            steals: 0,
            link_utilization_pct: if wall == 0 {
                0.0
            } else {
                100.0 * wire_ns as f64 / wall as f64
            },
        };
        Ok((roots_out, report))
    }

    /// The parallel strategy: `workers` work-stealing traversal workers
    /// share the root set through a [`StealSet`] (roots start as
    /// contiguous blocks, idle workers steal), each worker streams its
    /// chunks through its own bounded channel to its own
    /// [`StreamAbsorber`], and all absorbers place input buffers
    /// concurrently through the receiving heap's shared old-generation
    /// window. Cross-stream CAS races on `baddr` duplicate contended
    /// objects per stream exactly as on the sequential parallel path.
    /// Heap-mutating finish work — the batched card-table pass and update
    /// hooks — runs once on the calling thread after every worker joined
    /// and the shared window closed.
    ///
    /// Per-worker produce/absorb time is measured on the *thread* CPU
    /// clock ([`obs::thread_cpu_ns`]), not wall time: on a host with
    /// fewer cores than workers, wall time would charge every worker for
    /// its timeslice waits and inflate the simulated cost N-fold. A
    /// sender lane reads it at lane start, whenever a chunk becomes ready
    /// and at finish; an absorber around each chunk and its fixup drain.
    #[allow(clippy::too_many_arguments)]
    fn transfer_parallel(
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
        par: ParallelConfig,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        struct SenderOut {
            stats: SendStats,
            order: Vec<u32>,
            produce_raw_ns: u64,
            stall_ns: u64,
        }
        struct AbsorbOut {
            stream_in: StreamIn,
            timeline: Vec<(u64, u64, u64)>,
            stall_ns: u64,
            fixup_raw_ns: u64,
        }

        let workers = par.workers.max(2);
        self.metrics.mode_parallel.inc();
        let pool_hits0 = self.pool.hits();
        let pool_misses0 = self.pool.misses();
        if !ctx.is_none() {
            receiver_vm.set_trace_ctx(ctx);
        }
        let steal_set = StealSet::new(roots, workers, par.steal_batch);
        let in_flight = AtomicI64::new(0);
        let max_in_flight = AtomicU64::new(0);

        // All absorbers allocate input buffers concurrently through the
        // shared window; it must close again before any `&mut Vm` use.
        receiver_vm.heap_mut().begin_shared_old_alloc();
        let joined = {
            let rvm: &Vm = receiver_vm;
            std::thread::scope(|scope| -> (Vec<Result<SenderOut>>, Vec<Result<AbsorbOut>>) {
                let mut sender_tasks = Vec::with_capacity(workers);
                let mut absorb_tasks = Vec::with_capacity(workers);
                for t in 0..workers {
                    let (tx, rx) = mpsc::sync_channel::<InFlight>(self.cfg.depth.max(1));
                    let steal_set = &steal_set;
                    let in_flight = &in_flight;
                    let max_in_flight = &max_in_flight;
                    let metrics = &self.metrics;
                    let pool = &self.pool;
                    sender_tasks.push(scope.spawn(move || -> Result<SenderOut> {
                        let lane = t as u32 + 1;
                        let mut gs: Option<GraphSender<'_>> = None;
                        let mut order: Vec<u32> = Vec::new();
                        let mut stall_ns = 0u64;
                        let mut open = true;
                        let ship = |chunks: Vec<Vec<u8>>, produce_ns: u64, stall: &mut u64| {
                            for c in chunks {
                                let mut span = if ctx.is_none() {
                                    None
                                } else {
                                    Some(metrics.registry.tracer().start_on(
                                        obs::names::TRACE_SENDER_CHUNK_SEND,
                                        ctx,
                                        &sender_vm.name,
                                        lane,
                                    ))
                                };
                                if let Some(s) = span.as_mut() {
                                    s.annotate("bytes", c.len() as u64);
                                }
                                let t0 = Instant::now();
                                // A closed channel means this worker's
                                // absorber bailed with an error; stop
                                // producing quietly — its error wins.
                                if tx.send((c, produce_ns)).is_err() {
                                    return false;
                                }
                                *stall += t0.elapsed().as_nanos() as u64;
                                drop(span);
                                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                                metrics.chunks_in_flight.set(now);
                                max_in_flight.fetch_max(now.max(0) as u64, Ordering::Relaxed);
                            }
                            true
                        };
                        // The lane's thread CPU clock is read at lane
                        // start, at each chunk boundary and at finish —
                        // never per root.
                        let lane0 = obs::thread_cpu_ns();
                        loop {
                            let (idx, root) = match steal_set.pop_local(t) {
                                Some(item) => item,
                                None => {
                                    let t0 = Instant::now();
                                    match steal_set.steal(t) {
                                        Some((victim, batch)) => {
                                            if let Some(s) = gs.as_ref() {
                                                s.note_steal(
                                                    victim,
                                                    batch,
                                                    t0.elapsed().as_nanos() as u64,
                                                );
                                            }
                                            continue;
                                        }
                                        None => break,
                                    }
                                }
                            };
                            if gs.is_none() {
                                gs = Some(
                                    GraphSender::new(
                                        sender_vm,
                                        dir,
                                        src,
                                        sid,
                                        stream_base.wrapping_add(t as u16),
                                        send_cfg,
                                    )?
                                    .with_metrics(Arc::clone(&metrics.registry))
                                    .with_pool(Arc::clone(pool))
                                    .with_trace(ctx)
                                    .with_lane(lane),
                                );
                            }
                            if let Some(s) = gs.as_mut() {
                                s.write_root(root)?;
                                order.push(idx);
                                let chunks = s.take_ready_chunks();
                                if !chunks.is_empty() {
                                    let produce_ns = obs::thread_cpu_ns().saturating_sub(lane0);
                                    if !ship(chunks, produce_ns, &mut stall_ns) {
                                        open = false;
                                        break;
                                    }
                                }
                            }
                        }
                        let (stats, produce_raw_ns) = match gs {
                            Some(s) => {
                                let out = s.finish();
                                let produce_ns = obs::thread_cpu_ns().saturating_sub(lane0);
                                if open {
                                    ship(out.chunks, produce_ns, &mut stall_ns);
                                }
                                (out.stats, produce_ns)
                            }
                            // Zero roots reached this worker (all stolen
                            // away): no stream, no channel traffic.
                            None => (SendStats::default(), 0),
                        };
                        Ok(SenderOut { stats, order, produce_raw_ns, stall_ns })
                    }));
                    absorb_tasks.push(scope.spawn(move || -> Result<AbsorbOut> {
                        let mut sa = StreamAbsorber::new(rvm, dir, dst)
                            .with_metrics(Arc::clone(&metrics.registry));
                        if !ctx.is_none() {
                            sa = sa.with_trace(ctx, t as u32 + 1);
                        }
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
        let souts = joined.0.into_iter().collect::<Result<Vec<SenderOut>>>()?;
        let aouts = joined.1.into_iter().collect::<Result<Vec<AbsorbOut>>>()?;

        // Merge on the calling thread, which owns `&mut Vm` again: roots
        // back into original order, one batched card pass over every
        // stream's input buffers, then update hooks.
        let merge0 = obs::thread_cpu_ns();
        let mut send_stats = SendStats::default();
        let mut recv_stats = ReceiveStats::default();
        let mut roots_out = vec![Addr::NULL; roots.len()];
        let mut produce_raw_ns = 0u64;
        let mut sender_stall_ns = 0u64;
        let mut receiver_stall_ns = 0u64;
        let mut card_spans: Vec<(Addr, u64)> = Vec::new();
        let mut pending_hooks: Vec<(Addr, usize)> = Vec::new();
        for (t, (so, ao)) in souts.iter().zip(&aouts).enumerate() {
            if so.order.len() != ao.stream_in.roots.len() {
                return Err(Error::BadFrame(format!(
                    "parallel stream {t} absorbed {} roots but the sender emitted {}",
                    ao.stream_in.roots.len(),
                    so.order.len()
                )));
            }
            for (j, &orig) in so.order.iter().enumerate() {
                roots_out[orig as usize] = ao.stream_in.roots[j];
            }
            send_stats.merge(&so.stats);
            recv_stats.merge(&ao.stream_in.stats);
            produce_raw_ns += so.produce_raw_ns;
            sender_stall_ns += so.stall_ns;
            receiver_stall_ns += ao.stall_ns;
            card_spans.extend(&ao.stream_in.card_spans);
            pending_hooks.extend(&ao.stream_in.pending_hooks);
        }
        let cards = receiver_vm.heap_mut().dirty_card_batch(&card_spans);
        recv_stats.cards_dirtied += cards;
        self.metrics.registry.counter(obs::names::RECEIVER_CARDS_DIRTIED).add(cards);
        if let Some(h) = hooks {
            for (obj, idx) in pending_hooks {
                h.apply(receiver_vm, obj, idx)?;
            }
        }
        let merge_raw_ns = obs::thread_cpu_ns().saturating_sub(merge0);

        let steals = steal_set.steals();
        self.metrics.steals.add(steals);
        self.metrics.stall_ns.add(sender_stall_ns + receiver_stall_ns);
        let pool_hits = self.pool.hits() - pool_hits0;
        let pool_misses = self.pool.misses() - pool_misses0;
        self.metrics.pool_hits.add(pool_hits);
        self.metrics.pool_misses.add(pool_misses);

        let per_stream: Vec<StreamTimeline<'_>> =
            aouts.iter().map(|a| (a.timeline.as_slice(), a.fixup_raw_ns)).collect();
        let absorb_raw_total_ns: u64 = aouts
            .iter()
            .map(|a| a.fixup_raw_ns + a.timeline.iter().map(|&(_, _, ns)| ns).sum::<u64>())
            .sum::<u64>()
            + merge_raw_ns;
        let report = self.schedule_parallel(
            &per_stream,
            produce_raw_ns,
            absorb_raw_total_ns,
            merge_raw_ns,
            send_stats,
            recv_stats,
            sender_stall_ns,
            receiver_stall_ns,
            pool_hits,
            pool_misses,
            max_in_flight.load(Ordering::Relaxed),
            workers as u64,
            steals,
            ctx,
            &sender_vm.name,
        );
        Ok((roots_out, report))
    }

    /// The parallel analogue of [`Self::schedule`]: every worker's chunks
    /// contend for ONE shared link (sorted by scaled ready time, each on
    /// its own trace lane), then chain through that worker's absorber;
    /// the transfer ends when the slowest stream finishes its fixups plus
    /// the coordinator's merge. The sequential comparison charges the sum
    /// of all workers' CPU — the same work one thread would have done.
    #[allow(clippy::too_many_arguments)]
    fn schedule_parallel(
        &self,
        per_stream: &[StreamTimeline<'_>],
        produce_raw_ns: u64,
        absorb_raw_total_ns: u64,
        merge_raw_ns: u64,
        send_stats: SendStats,
        recv_stats: ReceiveStats,
        sender_stall_ns: u64,
        receiver_stall_ns: u64,
        pool_hits: u64,
        pool_misses: u64,
        max_in_flight: u64,
        workers: u64,
        steals: u64,
        ctx: obs::TraceCtx,
        link_node: &str,
    ) -> PipelineReport {
        let scale = |ns: u64| -> u64 { (ns as f64 * self.cfg.sim.sd_cpu_scale) as u64 };
        // (scaled ready, worker, bytes, scaled absorb) for every chunk of
        // every stream; the greedy in-ready-order schedule through one
        // LinkClock models the shared wire all streams contend for.
        // Within a worker ready times are cumulative, so the global sort
        // preserves each stream's chunk order.
        let mut events: Vec<(u64, usize, u64, u64)> = Vec::new();
        for (t, (timeline, _)) in per_stream.iter().enumerate() {
            for &(ready_raw, bytes, absorb_raw) in *timeline {
                events.push((scale(ready_raw), t, bytes, scale(absorb_raw)));
            }
        }
        events.sort_by_key(|&(ready, t, _, _)| (ready, t));
        let mut link = LinkClock::new(&self.cfg.sim);
        let mut absorber_free = vec![0u64; per_stream.len()];
        let mut total_bytes = 0u64;
        let mut chunk_bytes = Vec::with_capacity(events.len());
        for &(ready, t, bytes, absorb) in &events {
            let xmit = link.send_traced_on(t, ready, bytes);
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
        let slowest_stream = per_stream
            .iter()
            .enumerate()
            .map(|(t, &(_, fixup_raw))| absorber_free[t] + scale(fixup_raw))
            .max()
            .unwrap_or(0);
        let pipelined_ns = slowest_stream + scale(merge_raw_ns);
        let sequential_ns =
            scale(produce_raw_ns) + self.cfg.sim.net_ns(total_bytes) + scale(absorb_raw_total_ns);
        PipelineReport {
            send_stats,
            recv_stats,
            chunk_bytes,
            pipelined_ns,
            sequential_ns,
            produce_ns: scale(produce_raw_ns),
            wire_ns: link.busy_ns(),
            absorb_ns: scale(absorb_raw_total_ns),
            sender_stall_ns,
            receiver_stall_ns,
            pool_hits,
            pool_misses,
            max_in_flight,
            mode: TransferMode::Parallel,
            workers,
            steals,
            link_utilization_pct: link.utilization_pct(pipelined_ns),
        }
    }

    /// Builds the simulated-time comparison from the measured timeline.
    ///
    /// Pipelined: each chunk becomes ready at its (scaled) cumulative
    /// produce time, crosses the wire under the [`LinkClock`] schedule,
    /// and is absolutized as soon as both it and the absorber are free;
    /// the final fixup drain runs after the last chunk. Sequential: all
    /// produce, then the whole payload at `net_ns`, then all absorption —
    /// the three-phase barrier the sequential path actually pays.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &self,
        timeline: &[(u64, u64, u64)],
        produce_raw_ns: u64,
        absorb_raw_total_ns: u64,
        fixup_raw_ns: u64,
        send_stats: SendStats,
        recv_stats: ReceiveStats,
        sender_stall_ns: u64,
        receiver_stall_ns: u64,
        pool_hits: u64,
        pool_misses: u64,
        max_in_flight: u64,
        ctx: obs::TraceCtx,
        link_node: &str,
    ) -> PipelineReport {
        let scale = |ns: u64| -> u64 { (ns as f64 * self.cfg.sim.sd_cpu_scale) as u64 };
        let mut link = LinkClock::new(&self.cfg.sim);
        let mut absorber_free = 0u64;
        let mut total_bytes = 0u64;
        let mut chunk_bytes = Vec::with_capacity(timeline.len());
        for &(ready_raw, bytes, absorb_raw) in timeline {
            let xmit = link.send_traced(scale(ready_raw), bytes);
            if !ctx.is_none() {
                self.metrics.registry.tracer().record_sim(
                    obs::names::TRACE_LINK_XMIT,
                    ctx,
                    link_node,
                    xmit.start_ns,
                    xmit.end_ns,
                    &[("bytes", bytes)],
                );
            }
            absorber_free = absorber_free.max(xmit.arrival_ns) + scale(absorb_raw);
            total_bytes += bytes;
            chunk_bytes.push(bytes);
        }
        let pipelined_ns = absorber_free + scale(fixup_raw_ns);
        let sequential_ns =
            scale(produce_raw_ns) + self.cfg.sim.net_ns(total_bytes) + scale(absorb_raw_total_ns);
        PipelineReport {
            send_stats,
            recv_stats,
            chunk_bytes,
            pipelined_ns,
            sequential_ns,
            produce_ns: scale(produce_raw_ns),
            wire_ns: link.busy_ns(),
            absorb_ns: scale(absorb_raw_total_ns),
            sender_stall_ns,
            receiver_stall_ns,
            pool_hits,
            pool_misses,
            max_in_flight,
            mode: TransferMode::Pipelined,
            workers: 1,
            steals: 0,
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
    let mut gr = GraphReceiver::new(receiver_vm, dir, dst);
    for c in &out.chunks {
        gr.push_chunk(c)?;
    }
    let (roots_out, recv_stats) = gr.finish(hooks)?;
    Ok((roots_out, out.stats, recv_stats))
}

// Sanity: the sender half is moved into a scoped thread holding `&Vm`,
// `&TypeDirectory`, and `&PipelineEngine`; this is only sound because all
// three are `Sync` (the registry serves concurrent tID lookups, the pool
// is lock-protected). The compiler enforces it — this note is for readers.
#[allow(dead_code)]
fn _assert_sync(v: &Vm, d: &TypeDirectory, p: &PipelineEngine) {
    fn is_sync<T: Sync>(_: &T) {}
    is_sync(v);
    is_sync(d);
    is_sync(p);
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
    fn adaptive_chunking_moves_the_limit_with_stalls() {
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 64 << 10,
            adaptive_chunking: true,
            ..PipelineConfig::default()
        });
        assert_eq!(engine.effective_chunk_limit(), 64 << 10);
        // Sender-stall dominance grows the chunks…
        engine.adapt_chunk_limit(10_000, 1_000);
        assert_eq!(engine.effective_chunk_limit(), 128 << 10);
        // …balanced stalls hold steady…
        engine.adapt_chunk_limit(5_000, 4_000);
        assert_eq!(engine.effective_chunk_limit(), 128 << 10);
        // …receiver-stall dominance shrinks, and the floor holds.
        for _ in 0..10 {
            engine.adapt_chunk_limit(0, 10_000);
        }
        assert_eq!(engine.effective_chunk_limit(), MIN_ADAPTIVE_CHUNK);
        // The ceiling holds too.
        for _ in 0..10 {
            engine.adapt_chunk_limit(10_000, 0);
        }
        assert_eq!(engine.effective_chunk_limit(), MAX_ADAPTIVE_CHUNK);
        // Without the opt-in flag the configured limit is authoritative.
        let fixed = PipelineEngine::new(PipelineConfig::default());
        fixed.adapt_chunk_limit(10_000, 0);
        assert_eq!(fixed.effective_chunk_limit(), DEFAULT_PIPELINE_CHUNK);
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
