//! Carrier streams (paper §3.3): `SkywayFileOutputStream` /
//! `SkywayFileInputStream` and `SkywaySocketOutputStream` /
//! `SkywaySocketInputStream` — "one can easily program with Skyway in the
//! same way as programming with the Java serializer".
//!
//! These wrap the format-level [`crate::stream`] classes with a carrier:
//! the simulated per-node disk (shuffle spill files) or the simulated
//! network (socket-style links). Both carry the one wire frame of
//! [`crate::buffer`]. A file holds a whole frame and is read through
//! [`crate::receiver::receive_frame`], the serializer's receive path. A
//! socket sends the frame header first and then streams each chunk as
//! the output buffer flushes, so transfer overlaps with traversal just as
//! §3.2 describes; its reader checks the header the same way before it
//! absorbs a byte.

use mheap::layout::Addr;
use mheap::Vm;
use simnet::{Cluster, NodeId};

use crate::buffer::{parse_stream_header, spec_flags, Frame, Header, Lane};
use crate::receiver::{receive_frame, SkywayObjectInputStream};
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, SendConfig, SendStats};
use crate::stream::{ShuffleController, UpdateRegistry};
use crate::{Error, Result};

/// Writes object graphs into a named file on a node's simulated disk.
///
/// The counterpart of `SkywayFileOutputStream`: construct, call
/// [`SkywayFileOutputStream::write_object`] for every root, then
/// [`SkywayFileOutputStream::close`] to commit the file (charging write-I/O
/// on the owning node).
#[derive(Debug)]
pub struct SkywayFileOutputStream<'a> {
    sender: GraphSender<'a>,
    node: NodeId,
    name: String,
    roots: u32,
}

impl<'a> SkywayFileOutputStream<'a> {
    /// Opens a file stream on `node`'s disk.
    ///
    /// # Errors
    /// [`Error::NeedsBaddr`] as for any sender.
    pub fn create(
        vm: &'a Vm,
        dir: &'a TypeDirectory,
        node: NodeId,
        controller: &ShuffleController,
        cfg: SendConfig,
        name: impl Into<String>,
    ) -> Result<Self> {
        let sender =
            GraphSender::new(vm, dir, node, controller.sid(), controller.next_stream(), cfg)?;
        Ok(SkywayFileOutputStream { sender, node, name: name.into(), roots: 0 })
    }

    /// Attaches a transfer trace context, propagated in the file's frame
    /// header so the reading node stitches into the same trace.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.sender = self.sender.with_trace(ctx);
        self
    }

    /// Transfers one object graph (drop-in `writeObject`).
    ///
    /// # Errors
    /// Heap/registry errors.
    pub fn write_object(&mut self, root: Addr) -> Result<()> {
        self.sender.write_root(root)?;
        self.roots += 1;
        Ok(())
    }

    /// Commits the file to the node's disk, charging write-I/O time, and
    /// returns the send statistics.
    ///
    /// # Errors
    /// Cluster errors.
    pub fn close(self, cluster: &mut Cluster) -> Result<SendStats> {
        let header = Header {
            flags: spec_flags(self.sender.receiver_spec()),
            trace: self.sender.trace_ctx(),
        };
        let registry = std::sync::Arc::clone(self.sender.registry());
        let node_name = self.sender.node_name();
        let out = self.sender.finish();
        let chunks = out.chunks.len();
        let lanes = vec![Lane { roots: (0..self.roots).collect(), chunks: out.chunks }];
        let blob = Frame { header, lanes }.encode();
        let mut span =
            registry.tracer().start(obs::names::TRACE_SENDER_CHUNK_SEND, header.trace, node_name);
        span.annotate("bytes", blob.len() as u64);
        span.annotate("chunks", chunks as u64);
        cluster.disk_write(self.node, self.name, blob).map_err(Error::Cluster)?;
        drop(span);
        Ok(out.stats)
    }
}

/// Reads object graphs from a named file on a node's simulated disk —
/// the counterpart of `SkywayFileInputStream`.
#[derive(Debug)]
pub struct SkywayFileInputStream;

impl SkywayFileInputStream {
    /// Reads and absolutizes a Skyway file, charging read-I/O time, and
    /// returns the root objects (callers must root them before further
    /// allocation).
    ///
    /// # Errors
    /// Missing-file, corrupt-stream, and heap errors.
    pub fn open_and_read(
        vm: &mut Vm,
        dir: &TypeDirectory,
        node: NodeId,
        cluster: &mut Cluster,
        name: &str,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<Vec<Addr>> {
        let blob = cluster.disk_read(node, name).map_err(Error::Cluster)?;
        receive_frame(vm, dir, node, &blob, hooks)
    }
}

/// Sends object graphs over a simulated socket link, streaming each chunk
/// as it flushes — the counterpart of `SkywaySocketOutputStream`.
#[derive(Debug)]
pub struct SkywaySocketOutputStream<'a> {
    sender: GraphSender<'a>,
    src: NodeId,
    dst: NodeId,
    header_sent: bool,
}

impl<'a> SkywaySocketOutputStream<'a> {
    /// Connects a socket stream from `src` to `dst`.
    ///
    /// # Errors
    /// [`Error::NeedsBaddr`] as for any sender.
    pub fn connect(
        vm: &'a Vm,
        dir: &'a TypeDirectory,
        src: NodeId,
        dst: NodeId,
        controller: &ShuffleController,
        cfg: SendConfig,
    ) -> Result<Self> {
        let sender =
            GraphSender::new(vm, dir, src, controller.sid(), controller.next_stream(), cfg)?;
        Ok(SkywaySocketOutputStream { sender, src, dst, header_sent: false })
    }

    /// Attaches a transfer trace context, carried in the stream's frame
    /// header so the receiving node stitches into the same trace.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.sender = self.sender.with_trace(ctx);
        self
    }

    /// Transfers one object graph, streaming any chunks that flushed while
    /// traversing (transfer overlaps computation, §3.2).
    ///
    /// # Errors
    /// Heap/registry/cluster errors.
    pub fn write_object(&mut self, root: Addr, cluster: &mut Cluster) -> Result<()> {
        self.sender.write_root(root)?;
        self.send_ready(cluster)
    }

    /// Flushes the tail and sends the end-of-stream marker.
    ///
    /// # Errors
    /// Cluster errors.
    pub fn close(mut self, cluster: &mut Cluster) -> Result<SendStats> {
        self.sender.flush();
        self.send_ready(cluster)?;
        let out = self.sender.finish();
        // An empty message ends the stream (see `crate::buffer`).
        cluster.net_send(self.src, self.dst, Vec::new()).map_err(Error::Cluster)?;
        Ok(out.stats)
    }

    /// Sends the frame header ahead of the first chunk, then every chunk
    /// flushed so far.
    fn send_ready(&mut self, cluster: &mut Cluster) -> Result<()> {
        let ctx = self.sender.trace_ctx();
        if !self.header_sent {
            // The header of the one lane this stream carries.
            let header = Header { flags: spec_flags(self.sender.receiver_spec()), trace: ctx };
            cluster
                .net_send(self.src, self.dst, header.to_bytes(1).to_vec())
                .map_err(Error::Cluster)?;
            self.header_sent = true;
        }
        for chunk in self.sender.take_ready_chunks() {
            let mut span = self.sender.registry().tracer().start(
                obs::names::TRACE_SENDER_CHUNK_SEND,
                ctx,
                self.sender.node_name(),
            );
            span.annotate("bytes", chunk.len() as u64);
            cluster.net_send(self.src, self.dst, chunk).map_err(Error::Cluster)?;
        }
        Ok(())
    }
}

/// Receives a socket stream — the counterpart of `SkywaySocketInputStream`.
#[derive(Debug)]
pub struct SkywaySocketInputStream;

impl SkywaySocketInputStream {
    /// Reads the stream's frame header and checks its object format, then
    /// drains queued messages from `src` until the end-of-stream marker,
    /// placing each chunk into an input buffer as it arrives, then
    /// absolutizes. Returns the roots.
    ///
    /// # Errors
    /// Transport, corrupt-stream, format-mismatch and heap errors.
    pub fn read_all(
        vm: &mut Vm,
        dir: &TypeDirectory,
        node: NodeId,
        src: NodeId,
        cluster: &mut Cluster,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<Vec<Addr>> {
        let header = parse_stream_header(&cluster.net_recv(node, src).map_err(Error::Cluster)?)?;
        // A stream rejected after its header (foreign format, bad chunk) is
        // still read to its end marker, so the link stays in step for the
        // next stream.
        let mut placed = header.check_spec(vm.spec());
        let mut rx = SkywayObjectInputStream::new(vm, dir, node).with_trace(header.trace);
        loop {
            let chunk = cluster.net_recv(node, src).map_err(Error::Cluster)?;
            if chunk.is_empty() {
                break;
            }
            if placed.is_ok() {
                placed = rx.push_chunk(&chunk);
            }
        }
        placed?;
        let (roots, _) = rx.read_objects(hooks)?;
        Ok(roots)
    }
}
