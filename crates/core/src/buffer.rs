//! Output buffers: native (non-heap) memory that objects are cloned into,
//! flushed in chunks to a sink (paper §3.2, §4.2).
//!
//! Output buffers live *outside* the managed heap so the GC cannot reclaim
//! objects mid-transfer. Relative ("logical") addresses assigned during
//! relativization are gapless and keep growing across flushes —
//! `flushed_bytes` converts between the logical space and the physical
//! buffer. The byte stream cut into chunks at flush points *is* the logical
//! space; objects never span a chunk boundary (the flush happens when the
//! next object does not fit).
//!
//! # The wire frame
//!
//! This module is the one place that defines how a transfer looks as
//! bytes. Every carrier uses the same frame: a serializer blob, a shuffle
//! file, and a socket stream. All integers are little-endian.
//!
//! | Bytes | Field | Meaning |
//! |---|---|---|
//! | 4 | magic | `"SKYW"` |
//! | 1 | version | `3` (the retired v1/v2 frames are rejected) |
//! | 1 | flags | bit 0 the `baddr` word, bit 1 4-byte array lengths (the object format), bit 2 [`FLAG_COMPRESSED`]; other bits must be 0 |
//! | 2 | lanes | number of lanes that follow |
//! | 8 | trace_id | the sender's transfer trace; 0 when untraced |
//! | 8 | parent | the parent span of the receiver's spans; 0 when untraced |
//! | | *per lane:* | |
//! | 4 | root_count | roots the lane carries |
//! | 4 × root_count | root_index | where each of them, in emission order, sits in the transfer's root list |
//! | 4 | chunk_count | chunks in the lane |
//! | 4 + len, per chunk | len, bytes | one chunk of the lane's stream |
//!
//! The root tables of all lanes together name each index `0..total`
//! exactly once. A single sender writes one lane with table `0..n`; a
//! parallel send writes one lane per stream. The parser caps every count
//! by the bytes left and checks everything before the receiver places a
//! byte.
//!
//! The socket carrier streams one lane. Its first message is the 24-byte
//! header alone (lanes = 1, never compressed). Each chunk follows as one
//! bare message, and an empty message ends the stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mheap::LayoutSpec;

use crate::{Error, Result};

/// Marker word: the next object in the stream is a top-level (root) object
/// (§4.2 "Root Object Recognition").
pub const TOP_MARK: u64 = 0xffff_ffff_ffff_fff0;

/// Marker word: the following word is the logical address (+1) of an
/// already-transferred root — the paper's "backward reference" for a root
/// that was copied earlier in the same shuffle phase.
pub const TOP_REF: u64 = 0xffff_ffff_ffff_fff1;

/// Default chunk size (1 MiB).
pub const DEFAULT_CHUNK: usize = 1 << 20;

/// A reusable pool of chunk backings shared between output buffers and the
/// consumers that drain their chunks. In steady state a pipelined transfer
/// cycles the same handful of `Vec`s — sender acquires, receiver releases —
/// so per-chunk heap allocation drops to zero after warm-up.
#[derive(Debug, Default)]
pub struct ChunkPool {
    free: parking_lot::Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ChunkPool {
    /// An empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(ChunkPool::default())
    }

    /// The process-wide per-node pool. Every [`crate::pipeline::PipelineEngine`]
    /// draws from it by default, so back-to-back transfers — even through
    /// different engines — recycle the same chunk backings instead of
    /// re-allocating per transfer. Tests that assert exact hit/miss counts
    /// should use an explicit pool ([`ChunkPool::new`]) instead: the global
    /// counters aggregate every transfer in the process.
    pub fn global() -> &'static Arc<ChunkPool> {
        static GLOBAL: std::sync::OnceLock<Arc<ChunkPool>> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ChunkPool::new)
    }

    /// Hands out an empty `Vec` with at least `cap` capacity, preferring a
    /// recycled backing (a *hit*) over a fresh allocation (a *miss*).
    pub fn acquire(&self, cap: usize) -> Vec<u8> {
        let recycled = {
            let mut free = self.free.lock();
            let idx = free.iter().position(|v| v.capacity() >= cap);
            idx.map(|i| free.swap_remove(i))
        };
        match recycled {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a chunk backing to the pool (cleared, capacity kept).
    pub fn release(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        self.free.lock().push(v);
    }

    /// Number of backings currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Acquisitions served from the pool so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate fresh memory so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// An output buffer bound to one destination/stream.
#[derive(Debug)]
pub struct OutputBuffer {
    data: Vec<u8>,
    chunk_limit: usize,
    /// Bytes already flushed out of the physical buffer (the paper's
    /// `ob.flushedBytes`).
    pub flushed_bytes: u64,
    /// Next logical allocation address (the paper's `ob.allocableAddr`).
    pub allocable_addr: u64,
    chunks: Vec<Vec<u8>>,
    pool: Option<Arc<ChunkPool>>,
}

impl OutputBuffer {
    /// Creates a buffer with the given flush threshold.
    pub fn new(chunk_limit: usize) -> Self {
        OutputBuffer {
            data: Vec::with_capacity(chunk_limit.min(DEFAULT_CHUNK)),
            chunk_limit: chunk_limit.max(64),
            flushed_bytes: 0,
            allocable_addr: 0,
            chunks: Vec::new(),
            pool: None,
        }
    }

    /// Creates a buffer whose chunk backings come from (and should be
    /// released back to) `pool`. The backing for each chunk is acquired
    /// lazily on first placement, so a final flush never strands a buffer.
    pub fn new_pooled(chunk_limit: usize, pool: Arc<ChunkPool>) -> Self {
        OutputBuffer {
            data: Vec::new(),
            chunk_limit: chunk_limit.max(64),
            flushed_bytes: 0,
            allocable_addr: 0,
            chunks: Vec::new(),
            pool: Some(pool),
        }
    }

    /// Logical bytes produced so far (flushed + pending).
    pub fn total_bytes(&self) -> u64 {
        self.flushed_bytes + self.data.len() as u64
    }

    /// Assigns logical space for an object of `size` bytes *without*
    /// consuming physical buffer space — this is the address-assignment of
    /// Algorithm 2 line 21/24. The physical bytes are reserved later by
    /// [`OutputBuffer::place`] when the object is popped from the gray
    /// queue, which is what lets earlier objects finish their reference
    /// patching before a flush cuts the stream.
    pub fn assign(&mut self, size: u64) -> u64 {
        let at = self.allocable_addr;
        self.allocable_addr += size;
        at
    }

    /// Reserves the physical bytes for a previously assigned logical
    /// address. Placements must happen in logical order (the gray queue is
    /// FIFO, so they do); if the object does not fit in the current chunk,
    /// the pending data is flushed first.
    ///
    /// # Errors
    /// [`Error::OutOfOrderPlacement`] if `logical` is not the next pending
    /// position.
    pub fn place(&mut self, logical: u64, size: u64) -> Result<()> {
        if self.data.len() + size as usize > self.chunk_limit && !self.data.is_empty() {
            self.flush();
        }
        if self.data.capacity() == 0 {
            if let Some(pool) = &self.pool {
                self.data = pool.acquire(self.chunk_limit);
            }
        }
        if logical != self.flushed_bytes + self.data.len() as u64 {
            return Err(Error::OutOfOrderPlacement {
                logical,
                expected: self.flushed_bytes + self.data.len() as u64,
            });
        }
        self.data.resize(self.data.len() + size as usize, 0);
        Ok(())
    }

    /// Assigns *and* places in one step (markers, which are emitted
    /// immediately).
    ///
    /// # Errors
    /// As [`OutputBuffer::place`].
    pub fn emit(&mut self, size: u64) -> Result<u64> {
        let at = self.assign(size);
        self.place(at, size)?;
        Ok(at)
    }

    /// Cuts the pending data into a chunk (no-op when empty).
    pub fn flush(&mut self) {
        if self.data.is_empty() {
            return;
        }
        self.flushed_bytes += self.data.len() as u64;
        self.chunks.push(std::mem::take(&mut self.data));
    }

    /// Finishes the stream, returning all chunks.
    pub fn finish(mut self) -> Vec<Vec<u8>> {
        self.flush();
        self.chunks
    }

    /// Chunks flushed so far (streaming consumers may drain these early).
    pub fn take_ready_chunks(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.chunks)
    }

    fn phys(&self, logical: u64, len: usize) -> Result<usize> {
        let start = logical
            .checked_sub(self.flushed_bytes)
            .ok_or(Error::BufferUnderflow { logical, flushed: self.flushed_bytes })?
            as usize;
        if start + len > self.data.len() {
            return Err(Error::BufferUnderflow { logical, flushed: self.flushed_bytes });
        }
        Ok(start)
    }

    /// Writes an 8-byte word at a logical address (must not be flushed yet).
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`] if the address was already flushed.
    pub fn write_word(&mut self, logical: u64, val: u64) -> Result<()> {
        let p = self.phys(logical, 8)?;
        self.data[p..p + 8].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Writes a 4-byte value at a logical address.
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`].
    pub fn write_u32(&mut self, logical: u64, val: u32) -> Result<()> {
        let p = self.phys(logical, 4)?;
        self.data[p..p + 4].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Writes raw bytes at a logical address.
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`].
    pub fn write_bytes(&mut self, logical: u64, bytes: &[u8]) -> Result<()> {
        let p = self.phys(logical, bytes.len())?;
        self.data[p..p + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Mutable slice at a logical address (for direct heap→buffer copies).
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`].
    pub fn slice_mut(&mut self, logical: u64, len: usize) -> Result<&mut [u8]> {
        let p = self.phys(logical, len)?;
        Ok(&mut self.data[p..p + len])
    }
}

/// Frame flag bit 2: the lanes carry the compressed wire format
/// ([`crate::compress::WIRE_SPEC`]), expanded before absorption.
pub const FLAG_COMPRESSED: u8 = 0b100;

/// Every flag bit a frame may set: the object format and [`FLAG_COMPRESSED`].
const KNOWN_FLAGS: u8 = 0b111;

/// The frame flag bits naming object format `spec`: bit 0 is the `baddr`
/// header word, bit 1 a 4-byte array length.
pub(crate) fn spec_flags(spec: LayoutSpec) -> u8 {
    u8::from(spec.with_baddr) | (u8::from(spec.array_len_size == 4) << 1)
}

/// The fixed front of every frame. The lane count sits in it on the wire
/// but belongs to the body: [`Header::to_bytes`] takes it and
/// [`Header::parse`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Object format bits and [`FLAG_COMPRESSED`].
    pub flags: u8,
    /// The sender's transfer trace ([`obs::TraceCtx::NONE`] when untraced).
    pub trace: obs::TraceCtx,
}

impl Header {
    /// Encoded length in bytes.
    pub const LEN: usize = 24;
    const MAGIC: &'static [u8; 4] = b"SKYW";
    const VERSION: u8 = 3;

    /// The header of a frame of `lanes` lanes.
    pub fn to_bytes(&self, lanes: u16) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..4].copy_from_slice(Self::MAGIC);
        b[4] = Self::VERSION;
        b[5] = self.flags;
        b[6..8].copy_from_slice(&lanes.to_le_bytes());
        b[8..16].copy_from_slice(&self.trace.trace_id.to_le_bytes());
        b[16..24].copy_from_slice(&self.trace.parent.to_le_bytes());
        b
    }

    /// Reads the header at the front of `bytes` and the lane count.
    ///
    /// # Errors
    /// [`Error::BadFrame`] for another magic (the retired multi-stream
    /// container's included), any version but 3 (the retired v1/v2 frames
    /// included), unknown flag bits or truncation.
    pub fn parse(bytes: &[u8]) -> Result<(Header, u16)> {
        if !bytes.starts_with(Self::MAGIC) {
            return Err(Error::BadFrame("missing SKYW magic".into()));
        }
        let mut c = Cursor { blob: bytes, pos: Self::MAGIC.len() };
        let [version, flags] = c.array("frame header")?;
        if version != Self::VERSION {
            return Err(Error::BadFrame(format!("unsupported version {version}")));
        }
        if flags & !KNOWN_FLAGS != 0 {
            return Err(Error::BadFrame(format!("unknown flag bits {flags:#04x}")));
        }
        let lanes = u16::from_le_bytes(c.array("frame header")?);
        let trace_id = u64::from_le_bytes(c.array("frame header")?);
        let parent = u64::from_le_bytes(c.array("frame header")?);
        Ok((Header { flags, trace: obs::TraceCtx { trace_id, parent } }, lanes))
    }

    /// Whether the lanes carry the compressed wire format.
    pub fn compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }

    /// Checks that the object format named by flag bits 0–1 is the
    /// `local` heap's.
    ///
    /// # Errors
    /// [`Error::SpecMismatch`] naming both formats.
    pub fn check_spec(&self, local: LayoutSpec) -> Result<()> {
        let wire = LayoutSpec {
            with_baddr: self.flags & 1 != 0,
            array_len_size: if self.flags & 2 != 0 { 4 } else { 8 },
        };
        if wire != local {
            let (wire, local) = (format!("{wire:?}"), format!("{local:?}"));
            return Err(Error::SpecMismatch { wire, local });
        }
        Ok(())
    }
}

/// One sender stream of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane<C> {
    /// Root table: where each root of this lane, in emission order, sits
    /// in the transfer's root list.
    pub roots: Vec<u32>,
    /// The lane's chunks, in stream order.
    pub chunks: Vec<C>,
}

/// A whole transfer as one blob (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<C> {
    /// Flags and trace context.
    pub header: Header,
    /// The lanes (at most `u16::MAX`).
    pub lanes: Vec<Lane<C>>,
}

impl<C: AsRef<[u8]>> Frame<C> {
    /// The frame's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let roots: usize = self.lanes.iter().map(|l| l.roots.len()).sum();
        let chunks = self.lanes.iter().flat_map(|l| &l.chunks);
        let body =
            8 * self.lanes.len() + 4 * roots + chunks.map(|c| 4 + c.as_ref().len()).sum::<usize>();
        let mut out = Vec::with_capacity(Header::LEN + body);
        out.extend_from_slice(&self.header.to_bytes(self.lanes.len() as u16));
        for lane in &self.lanes {
            out.extend_from_slice(&(lane.roots.len() as u32).to_le_bytes());
            for &ix in &lane.roots {
                out.extend_from_slice(&ix.to_le_bytes());
            }
            out.extend_from_slice(&(lane.chunks.len() as u32).to_le_bytes());
            for c in &lane.chunks {
                out.extend_from_slice(&(c.as_ref().len() as u32).to_le_bytes());
                out.extend_from_slice(c.as_ref());
            }
        }
        out
    }
}

impl<'a> Frame<&'a [u8]> {
    /// Parses and checks a whole frame, chunks borrowed from `blob`.
    ///
    /// # Errors
    /// [`Error::BadFrame`] as for [`Header::parse`], and for truncation,
    /// trailing bytes, a count the bytes left cannot hold, or root tables
    /// that together are not a permutation of `0..total roots`.
    pub fn parse(blob: &'a [u8]) -> Result<Self> {
        let (header, lane_count) = Header::parse(blob)?;
        let mut c = Cursor { blob, pos: Header::LEN };
        // Counts are capped by the bytes left before anything is sized from
        // them: a lane costs at least 8 bytes, a root or chunk at least 4.
        let mut lanes = Vec::with_capacity(usize::from(lane_count).min(c.left() / 8));
        for _ in 0..lane_count {
            let n = c.count("root table")?;
            let roots = (0..n).map(|_| c.u32("root table")).collect::<Result<Vec<_>>>()?;
            let n = c.count("chunk list")?;
            let chunks = (0..n)
                .map(|_| {
                    let len = c.u32("chunk header")? as usize;
                    c.take(len, "chunk body")
                })
                .collect::<Result<Vec<_>>>()?;
            lanes.push(Lane { roots, chunks });
        }
        if c.left() != 0 {
            return Err(Error::BadFrame(format!("{} trailing bytes", c.left())));
        }
        // In range and never twice, over exactly `total` entries: then no
        // index is missing either.
        let mut seen = vec![false; lanes.iter().map(|l| l.roots.len()).sum()];
        for &ix in lanes.iter().flat_map(|l| &l.roots) {
            let slot = seen
                .get_mut(ix as usize)
                .ok_or_else(|| Error::BadFrame(format!("root index {ix} out of range")))?;
            if std::mem::replace(slot, true) {
                return Err(Error::BadFrame(format!("duplicate root index {ix}")));
            }
        }
        Ok(Frame { header, lanes })
    }
}

/// Reads a socket stream's first message: the header alone
/// (`to_bytes(1)`), naming the one lane whose chunks follow as bare
/// messages until an empty message (a flushed chunk is never empty).
///
/// # Errors
/// As [`Header::parse`]; [`Error::BadFrame`] also for trailing bytes, a
/// lane count other than one, or the compressed flag (a streamed lane
/// cannot be expanded before it is absorbed).
pub(crate) fn parse_stream_header(msg: &[u8]) -> Result<Header> {
    let (header, lanes) = Header::parse(msg)?;
    if msg.len() != Header::LEN || lanes != 1 || header.compressed() {
        return Err(Error::BadFrame("bad socket stream header".into()));
    }
    Ok(header)
}

/// A bounds-checked little-endian reader over a frame.
struct Cursor<'a> {
    blob: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn left(&self) -> usize {
        self.blob.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let s = self.blob[self.pos..]
            .get(..n)
            .ok_or_else(|| Error::BadFrame(format!("truncated {what}")))?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A count of items of at least 4 bytes each, capped by the bytes left.
    fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n > self.left() / 4 {
            return Err(Error::BadFrame(format!("{what} of {n} entries exceeds the frame")));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_flags_roundtrip() {
        let specs = [LayoutSpec::SKYWAY, LayoutSpec::STOCK, LayoutSpec::COMPACT];
        for spec in specs {
            let header = Header { flags: spec_flags(spec), trace: obs::TraceCtx::NONE };
            for local in specs {
                assert_eq!(header.check_spec(local).is_ok(), local == spec);
            }
            let compressed = Header { flags: header.flags | FLAG_COMPRESSED, ..header };
            assert!(compressed.check_spec(spec).is_ok());
        }
    }

    /// A one-lane frame head: header, then `root_count` and what follows.
    fn head(lanes: u16, rest: &[u32]) -> Vec<u8> {
        let h = Header { flags: 0, trace: obs::TraceCtx::NONE };
        let mut blob = h.to_bytes(lanes).to_vec();
        for w in rest {
            blob.extend_from_slice(&w.to_le_bytes());
        }
        blob
    }

    fn is_bad_frame(blob: &[u8]) -> bool {
        matches!(Frame::parse(blob), Err(Error::BadFrame(_)))
    }

    #[test]
    fn huge_chunk_count_is_rejected_without_allocating() {
        // 0x7fff_ffff chunks claimed by a 32-byte blob: sizing the chunk
        // list from the count alone would ask for ~32 GiB.
        assert!(is_bad_frame(&head(1, &[0, 0x7fff_ffff])));
    }

    #[test]
    fn huge_root_count_is_rejected_without_allocating() {
        assert!(is_bad_frame(&head(1, &[0x7fff_ffff, 0])));
    }

    #[test]
    fn huge_lane_count_is_rejected_without_allocating() {
        assert!(is_bad_frame(&head(u16::MAX, &[0, 0])));
    }

    #[test]
    fn logical_space_is_gapless_across_flushes() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.emit(48).unwrap();
        let a2 = b.emit(48).unwrap(); // doesn't fit with a1 → flush first
        let a3 = b.emit(8).unwrap();
        assert_eq!(a1, 0);
        assert_eq!(a2, 48);
        assert_eq!(a3, 96);
        let chunks = b.finish();
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, 104);
        // First chunk holds only the first object (flush-at-boundary).
        assert_eq!(chunks[0].len(), 48);
    }

    #[test]
    fn assignment_does_not_consume_physical_space() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.assign(32);
        let a2 = b.assign(32);
        assert_eq!((a1, a2), (0, 32));
        // Place in order; no flush needed (64 bytes fits exactly).
        b.place(a1, 32).unwrap();
        b.place(a2, 32).unwrap();
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn out_of_order_placement_errors() {
        let mut b = OutputBuffer::new(64);
        let _a1 = b.assign(16);
        let a2 = b.assign(16);
        assert!(matches!(b.place(a2, 16), Err(Error::OutOfOrderPlacement { .. })));
    }

    #[test]
    fn writes_after_flush_fail() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.emit(48).unwrap();
        b.write_word(a1, 42).unwrap();
        let _a2 = b.emit(48).unwrap(); // flushes chunk 1
        assert!(matches!(b.write_word(a1, 7), Err(Error::BufferUnderflow { .. })));
    }

    #[test]
    fn oversized_object_gets_its_own_chunk() {
        let mut b = OutputBuffer::new(64);
        b.emit(8).unwrap();
        let big = b.emit(500).unwrap();
        assert_eq!(big, 8);
        let chunks = b.finish();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].len(), 500);
    }

    #[test]
    fn word_roundtrip_via_frames() {
        let mut b = OutputBuffer::new(1024);
        let a = b.emit(16).unwrap();
        b.write_word(a, 0x1122_3344_5566_7788).unwrap();
        b.write_word(a + 8, TOP_MARK).unwrap();
        let chunks = b.finish();
        let header = Header { flags: 3, trace: obs::TraceCtx::NONE };
        let blob = Frame { header, lanes: vec![Lane { roots: vec![0], chunks }] }.encode();
        let frame = Frame::parse(&blob).unwrap();
        assert_eq!(frame.header, header);
        let parsed = &frame.lanes[0].chunks;
        assert_eq!(parsed.len(), 1);
        assert_eq!(u64::from_le_bytes(parsed[0][0..8].try_into().unwrap()), 0x1122_3344_5566_7788);
        assert_eq!(u64::from_le_bytes(parsed[0][8..16].try_into().unwrap()), TOP_MARK);
    }

    #[test]
    fn bad_frames_rejected() {
        // Any other magic, the retired multi-stream container's included.
        assert!(is_bad_frame(b"nope"));
        assert!(is_bad_frame(b"SKYW"));
        // The retired v1 and v2 single-stream frames.
        assert!(is_bad_frame(b"SKYW\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00"));
        assert!(is_bad_frame(b"SKYW\x02\x00\x00\x00\x00\x00"));
        let mut unknown_flag = head(0, &[]);
        unknown_flag[5] = 0b1000;
        assert!(is_bad_frame(&unknown_flag));
        let header = Header { flags: 0, trace: obs::TraceCtx::NONE };
        let blob =
            Frame { header, lanes: vec![Lane { roots: vec![0], chunks: vec![vec![0u8; 8]] }] }
                .encode();
        assert!(Frame::parse(&blob).is_ok());
        for cut in 0..blob.len() {
            assert!(is_bad_frame(&blob[..cut]), "truncated at {cut}");
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(is_bad_frame(&trailing));
    }

    #[test]
    fn root_tables_must_permute_the_roots() {
        let header = Header { flags: 0, trace: obs::TraceCtx::NONE };
        let frame = |tables: &[&[u32]]| {
            let lanes = tables
                .iter()
                .map(|t| Lane { roots: t.to_vec(), chunks: Vec::<Vec<u8>>::new() })
                .collect();
            Frame { header, lanes }.encode()
        };
        assert!(Frame::parse(&frame(&[&[2, 0], &[1]])).is_ok());
        assert!(is_bad_frame(&frame(&[&[0, 3], &[1]])), "out of range");
        assert!(is_bad_frame(&frame(&[&[0, 1], &[1]])), "duplicate");
        // Three slots, index 2 never named: the stray 3 is out of range.
        assert!(is_bad_frame(&frame(&[&[0], &[1, 3]])), "gap");
    }

    #[test]
    fn frames_roundtrip_lanes_and_the_trace_context() {
        let header =
            Header { flags: 5, trace: obs::TraceCtx { trace_id: 0xdead_beef, parent: 42 } };
        let frame = Frame {
            header,
            lanes: vec![
                Lane { roots: vec![1], chunks: vec![vec![0u8; 8], vec![1u8; 16]] },
                Lane { roots: vec![0, 2], chunks: vec![vec![2u8; 24]] },
            ],
        };
        let blob = frame.encode();
        let parsed = Frame::parse(&blob).unwrap();
        assert_eq!(parsed.header, header);
        assert!(parsed.header.compressed());
        assert_eq!(parsed.lanes.len(), 2);
        for (got, want) in parsed.lanes.iter().zip(&frame.lanes) {
            assert_eq!(got.roots, want.roots);
            assert!(got.chunks.iter().map(|c| c.to_vec()).eq(want.chunks.iter().cloned()));
        }
        // Untraced frames carry a zero context.
        let untraced = Header { flags: 0, trace: obs::TraceCtx::NONE };
        assert_eq!(untraced.to_bytes(1)[8..], [0u8; 16]);
    }

    #[test]
    fn socket_stream_headers_roundtrip() {
        let header = Header { flags: 1, trace: obs::TraceCtx { trace_id: 7, parent: 9 } };
        assert_eq!(parse_stream_header(&header.to_bytes(1)).unwrap(), header);
        // Whole frames, several lanes and compressed lanes are not socket
        // headers.
        assert!(parse_stream_header(&head(1, &[0, 0])).is_err());
        assert!(parse_stream_header(&header.to_bytes(2)).is_err());
        let compressed = Header { flags: 1 | FLAG_COMPRESSED, ..header };
        assert!(parse_stream_header(&compressed.to_bytes(1)).is_err());
    }

    #[test]
    fn pooled_buffer_recycles_backings() {
        let pool = ChunkPool::new();
        let mut b = OutputBuffer::new_pooled(64, Arc::clone(&pool));
        b.emit(48).unwrap();
        b.emit(48).unwrap(); // flush #1
        let chunks = b.finish(); // flush #2
        assert_eq!(chunks.len(), 2);
        assert_eq!(pool.misses(), 2, "cold pool allocates every backing");
        assert_eq!(pool.hits(), 0);
        for c in chunks {
            pool.release(c);
        }
        assert_eq!(pool.idle(), 2);
        // A second stream of the same shape runs entirely on recycled
        // backings: zero new misses.
        let mut b = OutputBuffer::new_pooled(64, Arc::clone(&pool));
        b.emit(48).unwrap();
        b.emit(48).unwrap();
        let chunks = b.finish();
        assert_eq!(chunks.len(), 2);
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.hits(), 2);
        assert!(chunks.iter().all(|c| c.len() == 48));
    }

    #[test]
    fn pool_acquire_respects_capacity() {
        let pool = ChunkPool::new();
        pool.release(Vec::with_capacity(16));
        // Too small for the request: a miss, small backing stays parked.
        let v = pool.acquire(1024);
        assert!(v.capacity() >= 1024);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.idle(), 1);
        // Small request reuses the parked backing.
        let v = pool.acquire(8);
        assert!(v.capacity() >= 8);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn empty_stream_frames_cleanly() {
        let b = OutputBuffer::new(64);
        let chunks = b.finish();
        assert!(chunks.is_empty());
        let header = Header { flags: 0, trace: obs::TraceCtx::NONE };
        let blob = Frame { header, lanes: vec![Lane { roots: vec![], chunks }] }.encode();
        let parsed = Frame::parse(&blob).unwrap();
        assert_eq!(parsed.lanes.len(), 1);
        assert!(parsed.lanes[0].chunks.is_empty());
    }
}
