//! The [`serlab::Serializer`] adapter: lets Skyway plug into the same
//! shuffle pipelines and benchmarks as every baseline library (paper §3.3 —
//! "directly compatible with the standard Java serializer").
//!
//! One adapter instance belongs to one node: it serializes outgoing data
//! from that node's VM and deserializes incoming data into it. A blob is
//! one wire frame ([`crate::buffer::Frame`]), the same one files carry,
//! with one frame lane per sender lane. Sending runs the engine's sender
//! lane body ([`crate::sender`]) for every lane count: one lane on the
//! calling thread, whose root table is `0..n`, or
//! [`SkywaySerializer::with_parallel_streams`] lanes on scoped threads,
//! each table naming the roots work stealing gave that lane. Receiving is
//! [`crate::receiver::receive_frame`], shared with the file stream.

use std::sync::Arc;

use mheap::{Addr, LayoutSpec, Vm};
use simnet::{NodeId, Profile};

use crate::buffer::{spec_flags, Frame, Header, Lane, FLAG_COMPRESSED};
use crate::receiver::receive_frame;
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, SendConfig, SendStats, StealSet, Tracking, DEFAULT_STEAL_BATCH};
use crate::stream::{ShuffleController, UpdateRegistry};
use crate::{Error, Result};

/// Skyway as a pluggable serializer for one cluster node.
#[derive(Debug)]
pub struct SkywaySerializer {
    dir: Arc<TypeDirectory>,
    node: NodeId,
    controller: Arc<ShuffleController>,
    chunk_limit: usize,
    receiver_spec: LayoutSpec,
    tracking: Tracking,
    hooks: Option<Arc<UpdateRegistry>>,
    compressed_wire: bool,
    parallel_streams: usize,
    last_send_stats: parking_lot::Mutex<SendStats>,
}

impl SkywaySerializer {
    /// Creates the adapter for `node`. `receiver_spec` is the object format
    /// of the nodes this one sends to (same as the local format in
    /// homogeneous clusters).
    pub fn new(
        dir: Arc<TypeDirectory>,
        node: NodeId,
        controller: Arc<ShuffleController>,
        receiver_spec: LayoutSpec,
    ) -> Self {
        SkywaySerializer {
            dir,
            node,
            controller,
            chunk_limit: crate::buffer::DEFAULT_CHUNK,
            receiver_spec,
            tracking: Tracking::Baddr,
            hooks: None,
            compressed_wire: false,
            parallel_streams: 1,
            last_send_stats: parking_lot::Mutex::new(SendStats::default()),
        }
    }

    /// Enables the compressed wire format (the paper's future-work
    /// extension): objects travel without the `baddr` header word and with
    /// 4-byte array lengths; the receiver expands them back to the local
    /// format before absolutization. Smaller streams, slower receive — see
    /// the `ablations` harness for the measured trade-off.
    pub fn with_wire_compression(mut self, on: bool) -> Self {
        self.compressed_wire = on;
        self
    }

    /// Overrides the chunk size, builder-style.
    pub fn with_chunk_limit(mut self, chunk_limit: usize) -> Self {
        self.chunk_limit = chunk_limit.max(64);
        self
    }

    /// Selects the visited-tracking mode, builder-style (the ablation
    /// switch).
    pub fn with_tracking(mut self, tracking: Tracking) -> Self {
        self.tracking = tracking;
        self
    }

    /// Installs post-transfer update hooks, builder-style.
    pub fn with_hooks(mut self, hooks: Arc<UpdateRegistry>) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Sends with `n` work-stealing parallel workers (§4.2 "Support for
    /// Threads"): roots start as contiguous per-worker blocks, idle
    /// workers steal from victims, shared objects are claimed via CAS on
    /// `baddr` and duplicated per stream — the same semantics as the
    /// existing serializers.
    pub fn with_parallel_streams(mut self, n: usize) -> Self {
        self.parallel_streams = n.max(1);
        self
    }

    /// Byte-composition statistics of the most recent `serialize` call
    /// (the §5.2 extra-bytes analysis).
    pub fn last_send_stats(&self) -> SendStats {
        *self.last_send_stats.lock()
    }

    /// The shuffle controller (engines call `start_phase` through it).
    pub fn controller(&self) -> &Arc<ShuffleController> {
        &self.controller
    }

    fn send_config(&self) -> SendConfig {
        SendConfig {
            chunk_limit: self.chunk_limit,
            receiver_spec: if self.compressed_wire {
                crate::compress::WIRE_SPEC
            } else {
                self.receiver_spec
            },
            tracking: self.tracking,
        }
    }
}

impl serlab::Serializer for SkywaySerializer {
    fn name(&self) -> &str {
        "skyway"
    }

    fn serialize(
        &self,
        vm: &mut Vm,
        roots: &[Addr],
        profile: &mut Profile,
    ) -> serlab::Result<Vec<u8>> {
        let mut flags = spec_flags(self.receiver_spec);
        if self.compressed_wire {
            flags |= FLAG_COMPRESSED;
        }
        let vm: &Vm = vm;
        let lanes = self.parallel_streams;
        let (sid, stream_base) =
            (self.controller.sid(), self.controller.next_stream_block(lanes as u16));
        let steal_set = StealSet::new(roots, lanes, DEFAULT_STEAL_BATCH);
        // One frame lane per stream, with its root-index table: work
        // stealing makes the assignment dynamic, so the wire must say which
        // roots a stream carries.
        let send = |t: usize| -> Result<(Lane<Vec<u8>>, SendStats)> {
            let open = |stream| {
                GraphSender::new(vm, &self.dir, self.node, sid, stream, self.send_config())
            };
            let mut chunks = Vec::new();
            let sink = |c: Vec<Vec<u8>>, _| {
                chunks.extend(c);
                true
            };
            let sent = steal_set.send_lane(t, stream_base, open, sink)?;
            Ok((Lane { roots: sent.order, chunks }, sent.stats))
        };
        // One lane runs on the calling thread, more on a scoped thread each.
        let sent: Vec<Result<_>> = if lanes == 1 {
            vec![send(0)]
        } else {
            let send = &send;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..lanes).map(|t| scope.spawn(move || send(t))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let mut stats = SendStats::default();
        let mut frame_lanes = Vec::with_capacity(lanes);
        for r in sent {
            let (lane, lane_stats) = r.map_err(to_serlab)?;
            // A lane whose roots were all stolen sent nothing and is left
            // out; a one-lane send writes its lane even with no roots.
            if lanes == 1 || !lane.roots.is_empty() {
                frame_lanes.push(lane);
            }
            stats.merge(&lane_stats);
        }
        obs::global().counter(obs::names::SENDER_STEALS).add(steal_set.steals());
        // Note what is conspicuously absent: no per-object S/D function
        // invocations are counted, because none happen.
        profile.objects_transferred += stats.objects;
        *self.last_send_stats.lock() = stats;
        let header = Header { flags, trace: obs::TraceCtx::NONE };
        Ok(Frame { header, lanes: frame_lanes }.encode())
    }

    fn deserialize(
        &self,
        vm: &mut Vm,
        bytes: &[u8],
        _profile: &mut Profile,
    ) -> serlab::Result<Vec<Addr>> {
        receive_frame(vm, &self.dir, self.node, bytes, self.hooks.as_deref()).map_err(to_serlab)
    }

    fn preserves_sharing(&self) -> bool {
        true
    }
}

fn to_serlab(e: Error) -> serlab::Error {
    match e {
        Error::Heap(h) => serlab::Error::Heap(h),
        other => serlab::Error::Malformed(other.to_string()),
    }
}
