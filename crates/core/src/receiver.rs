//! Receiving an object graph (paper §4.3).
//!
//! Each received chunk becomes one *input buffer* region allocated directly
//! in the receiving heap's old generation — transferred data is written
//! into the heap and usable right away. Because the sender's logical byte
//! stream is gapless and objects never span a flush boundary, the receiver
//! only needs a (logical start → heap base) map per chunk; a single linear
//! scan then **absolutizes** the buffer:
//!
//! * the `tID` in each klass slot is replaced by the local klass pointer
//!   (loading the class on demand when this node never saw it);
//! * every relativized reference becomes an absolute heap address;
//! * top marks identify the root objects without re-traversal;
//! * card-table entries covering the buffers are dirtied so the collector
//!   accounts for the new pointers.
//!
//! Two front ends share one absorption core and one finish:
//!
//! * [`SkywayObjectInputStream`], the paper's input stream, owns a
//!   `&mut Vm` and completes one stream end to end — the wire paths (the
//!   socket stream, [`receive_frame`] for the serializer and file stream,
//!   the sequential reference transfer) and the engine's inline mode use
//!   it;
//! * [`StreamAbsorber`] runs the same scan over a shared `&Vm` — each lane
//!   of an engine transfer absorbs its stream concurrently, allocating
//!   input buffers through the heap's shared old-generation window.
//!
//! Both end a stream the same way: the core drains the stream's own
//! cross-chunk fixups into a [`StreamIn`], and [`StreamIn::finish`] —
//! run once the caller holds `&mut Vm` again, over one stream or the
//! merge of every lane's — dirties the card table in one batch and
//! applies update hooks. Both roll a stream back the same way too: a
//! front end dropped before its stream finished — on any error — fills
//! every input buffer the stream placed with filler words, so a rejected
//! stream leaves no half-absorbed objects for heap walks to trip on.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use mheap::layout::mark;
use mheap::{Addr, KlassId, KlassKind, Vm, FILLER_WORD};
use simnet::NodeId;

use crate::buffer::{Frame, TOP_MARK, TOP_REF};
use crate::registry::TypeDirectory;
use crate::sender::AddrHasher;
use crate::stream::UpdateRegistry;
use crate::{Error, Result};

#[derive(Debug, Clone, Copy)]
struct ChunkMap {
    logical_start: u64,
    base: Addr,
    len: u64,
}

/// Per-tID facts precomputed once per class so the linear absolutization
/// scan runs at memory speed. `Copy`: the scan takes them by value with one
/// cache probe per object.
#[derive(Debug, Clone, Copy)]
struct TidFacts {
    klass_word: u64,
    kind: KlassKind,
    instance_size: u64,
    elem_size: u64,
    /// Reference-field offsets (instances): the range
    /// `refs_start..refs_end` of [`AbsorbCore`]'s shared `ref_offsets`.
    refs_start: u32,
    refs_end: u32,
    hooked: Option<usize>,
}

/// tID → facts, keyed by the cheap [`AddrHasher`]. Only tIDs the directory
/// resolved are inserted, so a hostile stream cannot grow it past the
/// directory's size.
type TidMap = HashMap<u32, TidFacts, BuildHasherDefault<AddrHasher>>;

/// Receive statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReceiveStats {
    /// Objects absolutized.
    pub objects: u64,
    /// Bytes placed into the heap (markers included).
    pub bytes: u64,
    /// Chunks (old-generation input-buffer regions).
    pub chunks: u64,
    /// Classes loaded on demand during absolutization.
    pub classes_loaded: u64,
    /// Reference slots rewritten from relative to absolute addresses.
    pub ref_fixups: u64,
    /// Card-table entries dirtied to cover the input buffers.
    pub cards_dirtied: u64,
}

impl ReceiveStats {
    /// Accumulates another stream's statistics (parallel-stream merge).
    pub fn merge(&mut self, o: &ReceiveStats) {
        self.objects += o.objects;
        self.bytes += o.bytes;
        self.chunks += o.chunks;
        self.classes_loaded += o.classes_loaded;
        self.ref_fixups += o.ref_fixups;
        self.cards_dirtied += o.cards_dirtied;
    }
}

/// The heap-independent absorption state of one stream: chunk map, caches,
/// fixup lists, statistics. Every method takes `vm: &Vm` — the scan reads
/// and rewrites input-buffer words through the arena's interior
/// mutability, so concurrent absorbers over disjoint buffers never alias.
struct AbsorbCore<'d> {
    dir: &'d TypeDirectory,
    node: NodeId,
    chunks: Vec<ChunkMap>,
    next_logical: u64,
    facts_cache: TidMap,
    /// Reference-field offsets of every resolved class, back to back.
    ref_offsets: Vec<u64>,
    stats: ReceiveStats,
    /// The registry this stream reports into. The scan counts into
    /// `stats` only; [`AbsorbCore::finish_stream`] adds them to the
    /// registry once, so the scan touches no shared atomic per object.
    registry: Arc<obs::Registry>,
    /// Chunks absolutized so far (prefix of `chunks`).
    absorbed: usize,
    /// Roots recovered so far, in arrival order.
    roots: Vec<Addr>,
    /// Reference slots whose target chunk had not arrived when the slot
    /// was scanned: (absolute slot address, logical target).
    ref_fixups: Vec<(u64, u64)>,
    /// Top references whose target chunk had not arrived: (index into
    /// `roots`, logical target).
    root_fixups: Vec<(usize, u64)>,
    /// One bit per 8-byte word of logical space, set where an object
    /// starts (≤ received bytes / 64). A reference must land on a set bit.
    starts: Vec<u64>,
    /// Targets ahead of the scan inside the current chunk, checked
    /// against `starts` once the chunk is scanned (capacity reused).
    chunk_targets: Vec<u64>,
    /// One absorbed range per chunk; cards are dirtied in one batch at
    /// the end instead of object by object during absorption.
    card_spans: Vec<(Addr, u64)>,
    /// A top mark at the very end of a chunk applies to the first object
    /// of the next chunk.
    next_is_root: bool,
    pending_hooks: Vec<(Addr, usize)>,
    /// Trace context re-attached from the wire (or directly by the
    /// pipeline); [`obs::TraceCtx::NONE`] keeps every span inert.
    trace_ctx: obs::TraceCtx,
    /// Trace lane (0 = main; parallel absorber *w* records on lane `w+1`).
    lane: u32,
}

impl std::fmt::Debug for AbsorbCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbsorbCore")
            .field("node", &self.node)
            .field("chunks", &self.chunks.len())
            .field("bytes", &self.next_logical)
            .finish()
    }
}

impl<'d> AbsorbCore<'d> {
    fn new(dir: &'d TypeDirectory, node: NodeId) -> Self {
        AbsorbCore {
            dir,
            node,
            chunks: Vec::new(),
            next_logical: 0,
            facts_cache: TidMap::default(),
            ref_offsets: Vec::new(),
            stats: ReceiveStats::default(),
            registry: Arc::clone(obs::global()),
            absorbed: 0,
            roots: Vec::new(),
            ref_fixups: Vec::new(),
            root_fixups: Vec::new(),
            starts: Vec::new(),
            chunk_targets: Vec::new(),
            card_spans: Vec::new(),
            next_is_root: false,
            pending_hooks: Vec::new(),
            trace_ctx: obs::TraceCtx::NONE,
            lane: 0,
        }
    }

    fn facts_for_tid(
        &mut self,
        vm: &Vm,
        tid: u32,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<TidFacts> {
        match self.facts_cache.get(&tid) {
            Some(facts) => Ok(*facts),
            None => self.resolve_tid(vm, tid, hooks),
        }
    }

    /// Resolves and caches the facts of `tid` (once per class per stream).
    #[cold]
    fn resolve_tid(
        &mut self,
        vm: &Vm,
        tid: u32,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<TidFacts> {
        let kid = self.klass_for_tid(vm, tid)?;
        let k = vm.klasses().get(kid).map_err(Error::Heap)?;
        let refs_start = self.ref_offsets.len() as u32;
        self.ref_offsets.extend(
            k.fields.iter().filter(|f| matches!(f.ty, mheap::FieldType::Ref)).map(|f| f.offset),
        );
        let facts = TidFacts {
            klass_word: u64::from(kid.0),
            kind: k.kind,
            instance_size: k.instance_size,
            elem_size: match k.kind {
                KlassKind::Instance => 0,
                _ => u64::from(k.elem_size().map_err(Error::Heap)?),
            },
            refs_start,
            refs_end: self.ref_offsets.len() as u32,
            hooked: hooks.and_then(|h| h.hook_index(&k.name)),
        };
        self.facts_cache.insert(tid, facts);
        Ok(facts)
    }

    /// The input-buffer length a received chunk needs, or `None` for an
    /// empty chunk, which places nothing.
    ///
    /// # Errors
    /// [`Error::BadFrame`] for a chunk that is not a whole number of words.
    fn buffer_len(bytes: &[u8]) -> Result<Option<u64>> {
        if !bytes.len().is_multiple_of(8) {
            return Err(Error::BadFrame(format!("chunk length {} not 8-aligned", bytes.len())));
        }
        Ok((!bytes.is_empty()).then_some(bytes.len() as u64))
    }

    /// Copies a chunk into the input buffer at `base` (sized by
    /// [`AbsorbCore::buffer_len`]) and appends it to the chunk map — first,
    /// so a failed copy is rolled back with the rest.
    fn place(&mut self, vm: &Vm, base: Addr, bytes: &[u8]) -> Result<()> {
        let len = bytes.len() as u64;
        self.chunks.push(ChunkMap { logical_start: self.next_logical, base, len });
        self.next_logical += len;
        self.starts.resize(self.next_logical.div_ceil(512) as usize, 0);
        self.stats.chunks += 1;
        self.stats.bytes += len;
        self.registry.histogram(obs::names::RECEIVER_CHUNK_BYTES).record(len);
        vm.heap().arena().write_bytes(base.0, bytes).map_err(Error::Heap)
    }

    /// Rolls the stream back: fills every input buffer it placed with
    /// filler words. A half-absorbed buffer still holds wire tIDs and
    /// relative addresses that heap walks and the collector would misread;
    /// filler parses as dead space. Every front end runs this when it is
    /// dropped, so it is a no-op after [`AbsorbCore::finish_stream`], which
    /// hands the buffers over as live objects. Lanes' buffers are disjoint,
    /// so concurrent roll-backs never touch the same word.
    fn roll_back(&mut self, vm: &Vm) {
        for c in self.chunks.drain(..) {
            // The range came from this heap's allocator, so the stores
            // are in bounds and cannot fail.
            let _ = vm.heap().fill_filler(c.base, c.len);
        }
    }

    /// Translates a logical stream offset to an absolute heap address.
    ///
    /// Chunk ranges are sorted, contiguous, and start at logical 0, so the
    /// first chunk whose end lies past `logical` either contains it or does
    /// not exist — any offset at or past the received byte count (and any
    /// offset against an empty chunk list) is dangling, never clamped to
    /// the last chunk. Every object starts on the stream's 8-byte grid, so
    /// an off-grid offset is corrupt input, rejected before it becomes a
    /// heap pointer.
    fn translate(&self, logical: u64) -> Result<Addr> {
        if !logical.is_multiple_of(8) {
            return Err(Error::MisalignedRelativeAddr(logical));
        }
        let idx = self.chunks.partition_point(|c| c.logical_start + c.len <= logical);
        let c = self.chunks.get(idx).ok_or(Error::DanglingRelativeAddr(logical))?;
        debug_assert!(logical >= c.logical_start, "chunk ranges are gapless from 0");
        Ok(c.base.byte_add(logical - c.logical_start))
    }

    /// Rejects a (translated, hence in-range and on-grid) target that the
    /// scan did not find an object at — the middle of an object, a marker
    /// or filler. Only valid once the scan has passed `logical`.
    fn check_start(&self, logical: u64) -> Result<()> {
        let bit = logical / 8;
        if self.starts[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
            return Err(Error::MisalignedRelativeAddr(logical));
        }
        Ok(())
    }

    /// Translates the target of a reference met at scan position `scanned`
    /// (every object start below it is known) in a chunk ending at logical
    /// `chunk_end`. Targets in later chunks return `None`: the caller
    /// queues them for the fixup drain, which translates and checks them
    /// once every chunk is scanned. Targets ahead in this chunk are
    /// checked when the chunk's scan ends.
    fn resolve_target(
        &mut self,
        logical: u64,
        scanned: u64,
        chunk_end: u64,
    ) -> Result<Option<Addr>> {
        if logical >= chunk_end {
            return Ok(None);
        }
        let abs = self.translate(logical)?;
        if logical < scanned {
            self.check_start(logical)?;
        } else {
            self.chunk_targets.push(logical);
        }
        Ok(Some(abs))
    }

    /// Rewrites one reference slot from a relative to an absolute address.
    /// A reference into a later chunk is left relative and queued on the
    /// fixup list for the finish pass.
    fn absolutize_slot(&mut self, vm: &Vm, slot: u64, scanned: u64, chunk_end: u64) -> Result<()> {
        let v = vm.heap().arena().load_word(slot).map_err(Error::Heap)?;
        self.stats.ref_fixups += 1;
        if v == 0 {
            return vm.heap().arena().store_word(slot, Addr::NULL.0).map_err(Error::Heap);
        }
        match self.resolve_target(v - 1, scanned, chunk_end)? {
            Some(abs) => vm.heap().arena().store_word(slot, abs.0).map_err(Error::Heap),
            None => {
                self.ref_fixups.push((slot, v - 1));
                Ok(())
            }
        }
    }

    fn klass_for_tid(&mut self, vm: &Vm, tid: u32) -> Result<KlassId> {
        let name = self.dir.name_for_tid(
            self.node,
            tid,
            self.registry.tracer(),
            self.trace_ctx,
            &vm.name,
        )?;
        let loaded_before = vm.klasses().len();
        let kid = vm.load_class(&name).map_err(Error::Heap)?;
        if vm.klasses().len() > loaded_before {
            self.stats.classes_loaded += 1;
        }
        // Make sure the local klass knows its tid too (it may serve as a
        // sender later).
        let k = vm.klasses().get(kid).map_err(Error::Heap)?;
        self.dir.tid_for(self.node, &k)?;
        Ok(kid)
    }

    /// Absolutizes every chunk placed so far but not yet absorbed — the
    /// pipelined receive path calls this after each arrival so absorption
    /// overlaps with the transfer of later chunks. Intra-chunk and
    /// backward references resolve immediately; forward references into
    /// chunks that have not arrived yet are queued for the finish pass.
    fn absorb_ready(&mut self, vm: &Vm, hooks: Option<&UpdateRegistry>) -> Result<()> {
        let spec = vm.spec();
        // Spans must not borrow `self` while the scan mutates it, so they
        // are anchored to a cloned registry handle (only when traced).
        let traced = if self.trace_ctx.is_none() {
            None
        } else {
            Some((Arc::clone(&self.registry), vm.name.clone()))
        };
        while self.absorbed < self.chunks.len() {
            let c = self.chunks[self.absorbed];
            let mut span = traced.as_ref().map(|(reg, node)| {
                reg.tracer().start_on(
                    obs::names::TRACE_RECEIVER_CHUNK_ABSORB,
                    self.trace_ctx,
                    node,
                    self.lane,
                )
            });
            let objects_before = self.stats.objects;
            let mut at = c.base.0;
            let end = c.base.0 + c.len;
            let chunk_end = c.logical_start + c.len;
            // Logical offset of heap address `a` in this chunk.
            let logical_of = |a: u64| c.logical_start + (a - c.base.0);
            while at < end {
                let w = vm.heap().arena().load_word(at).map_err(Error::Heap)?;
                if w == TOP_MARK {
                    self.next_is_root = true;
                    vm.heap().arena().store_word(at, FILLER_WORD).map_err(Error::Heap)?;
                    at += 8;
                    continue;
                }
                if w == TOP_REF {
                    let l = vm.heap().arena().load_word(at + 8).map_err(Error::Heap)?;
                    if l == 0 {
                        return Err(Error::BadFrame("null top reference".into()));
                    }
                    match self.resolve_target(l - 1, logical_of(at), chunk_end)? {
                        Some(r) => self.roots.push(r),
                        None => {
                            self.root_fixups.push((self.roots.len(), l - 1));
                            self.roots.push(Addr::NULL);
                        }
                    }
                    vm.heap().arena().store_word(at, FILLER_WORD).map_err(Error::Heap)?;
                    vm.heap().arena().store_word(at + 8, FILLER_WORD).map_err(Error::Heap)?;
                    at += 16;
                    continue;
                }
                if w == FILLER_WORD {
                    at += 8;
                    continue;
                }
                // An object: resolve its type, then absolutize.
                let obj = Addr::from_raw(at);
                let tid_word =
                    vm.heap().arena().load_word(at + spec.klass_off()).map_err(Error::Heap)?;
                if tid_word > u64::from(u32::MAX) {
                    return Err(Error::BadFrame(format!("implausible tID {tid_word:#x}")));
                }
                let facts = self.facts_for_tid(vm, tid_word as u32, hooks)?;
                vm.heap()
                    .arena()
                    .store_word(at + spec.klass_off(), facts.klass_word)
                    .map_err(Error::Heap)?;
                // Mark words arrive sanitized; a forwarding bit here means
                // the stream is corrupt (this is untrusted input, so it is
                // a validation error, not an assertion).
                if mark::is_forwarded(vm.heap().arena().load_word(at).map_err(Error::Heap)?) {
                    return Err(Error::BadFrame(format!(
                        "object at logical {at:#x} carries a forwarding mark"
                    )));
                }
                let size = match facts.kind {
                    KlassKind::Instance => facts.instance_size,
                    _ => {
                        let len = vm.array_len(obj).map_err(Error::Heap)?;
                        // Checked arithmetic: a corrupted length must not
                        // overflow into a bogus small size.
                        let body = len
                            .checked_mul(facts.elem_size)
                            .and_then(|b| b.checked_add(spec.array_header()))
                            .filter(|&b| b <= c.len)
                            .ok_or_else(|| {
                                Error::BadFrame(format!("implausible array length {len}"))
                            })?;
                        mheap::layout::align8(body)
                    }
                };
                if size == 0 || at + size > end {
                    return Err(Error::BadFrame("object spans chunk boundary".into()));
                }
                let bit = logical_of(at) / 8;
                self.starts[(bit / 64) as usize] |= 1 << (bit % 64);
                // Every object start below the end of this object is now
                // known: its interior holds none.
                let scanned = logical_of(at + size);
                // Absolutize reference slots.
                match facts.kind {
                    KlassKind::RefArray => {
                        let len = vm.array_len(obj).map_err(Error::Heap)?;
                        let base = at + spec.array_header();
                        for i in 0..len {
                            self.absolutize_slot(vm, base + i * 8, scanned, chunk_end)?;
                        }
                    }
                    KlassKind::Instance => {
                        for i in facts.refs_start..facts.refs_end {
                            let slot = at + self.ref_offsets[i as usize];
                            self.absolutize_slot(vm, slot, scanned, chunk_end)?;
                        }
                    }
                    KlassKind::PrimArray(_) => {}
                }
                if self.next_is_root {
                    self.roots.push(obj);
                    self.next_is_root = false;
                }
                if let Some(hook_idx) = facts.hooked {
                    self.pending_hooks.push((obj, hook_idx));
                }
                self.stats.objects += 1;
                at += size;
            }
            for i in 0..self.chunk_targets.len() {
                self.check_start(self.chunk_targets[i])?;
            }
            self.chunk_targets.clear();
            // New pointers now live in the old generation; the card table
            // is updated in one batch at the end (no allocation — and
            // therefore no GC — can happen before the roots are returned).
            self.card_spans.push((c.base, c.len));
            if let Some(s) = &mut span {
                s.annotate("chunk", self.absorbed as u64);
                s.annotate("bytes", c.len);
                s.annotate("objects", self.stats.objects - objects_before);
            }
            self.absorbed += 1;
        }
        Ok(())
    }

    /// Ends the stream: absorbs any chunks not yet absorbed, then drains
    /// the stream's own cross-chunk fixups — every chunk has arrived, so
    /// any still-unresolved target is genuinely dangling. Streams are
    /// self-contained (relative addresses never cross streams), so each
    /// lane's absorber drains its own list. Adds the stream's statistics
    /// to the registry and returns the roots plus the heap-mutating
    /// leftovers for [`StreamIn::finish`]; the buffers are live objects
    /// from here on, and no longer the stream's to roll back.
    fn finish_stream(&mut self, vm: &Vm, hooks: Option<&UpdateRegistry>) -> Result<StreamIn> {
        self.absorb_ready(vm, hooks)?;
        let registry = Arc::clone(&self.registry);
        let mut span = registry.tracer().start_on(
            obs::names::TRACE_RECEIVER_FIXUP,
            self.trace_ctx,
            &vm.name,
            self.lane,
        );
        span.annotate("fixups", (self.ref_fixups.len() + self.root_fixups.len()) as u64);
        for (slot, logical) in std::mem::take(&mut self.ref_fixups) {
            let abs = self.translate(logical)?;
            self.check_start(logical)?;
            vm.heap().arena().store_word(slot, abs.0).map_err(Error::Heap)?;
        }
        for (idx, logical) in std::mem::take(&mut self.root_fixups) {
            let abs = self.translate(logical)?;
            self.check_start(logical)?;
            self.roots[idx] = abs;
        }
        drop(span);
        self.chunks.clear();
        let reg = &self.registry;
        reg.counter(obs::names::RECEIVER_OBJECTS_ABSORBED).add(self.stats.objects);
        reg.counter(obs::names::RECEIVER_BYTES_ABSORBED).add(self.stats.bytes);
        reg.counter(obs::names::RECEIVER_CHUNKS_ABSORBED).add(self.stats.chunks);
        reg.counter(obs::names::RECEIVER_REF_FIXUPS).add(self.stats.ref_fixups);
        reg.counter(obs::names::RECEIVER_CLASSES_LOADED).add(self.stats.classes_loaded);
        Ok(StreamIn {
            roots: std::mem::take(&mut self.roots),
            stats: self.stats,
            card_spans: std::mem::take(&mut self.card_spans),
            pending_hooks: std::mem::take(&mut self.pending_hooks),
        })
    }
}

/// The analogue of `SkywayObjectInputStream` (§3.3) and the receive
/// front end over a `&mut Vm`: feed it a stream's chunks in order, then
/// [`SkywayObjectInputStream::read_objects`] absolutizes the input buffers
/// and returns the roots. Dropped before `read_objects` succeeds — on any
/// error included — it rolls the stream back.
#[derive(Debug)]
pub struct SkywayObjectInputStream<'a> {
    vm: &'a mut Vm,
    core: AbsorbCore<'a>,
}

impl Drop for SkywayObjectInputStream<'_> {
    fn drop(&mut self) {
        self.core.roll_back(self.vm);
    }
}

impl<'a> SkywayObjectInputStream<'a> {
    /// Opens an input stream into `vm` on `node`.
    pub fn new(vm: &'a mut Vm, dir: &'a TypeDirectory, node: NodeId) -> Self {
        SkywayObjectInputStream { vm, core: AbsorbCore::new(dir, node) }
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.core.registry = registry;
        self
    }

    /// Re-attaches the sender's trace context so receiver-side spans
    /// (absorb, fixup, card dirtying) and subsequent GC pauses on this
    /// VM stitch into the same transfer trace (wire carriers do this from
    /// the frame header). An untraced context ([`obs::TraceCtx::NONE`])
    /// leaves the VM's context as it was.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        if !ctx.is_none() {
            self.core.trace_ctx = ctx;
            self.vm.set_trace_ctx(ctx);
        }
        self
    }

    /// Places one received chunk into a fresh old-generation input buffer
    /// (streaming arrival). Chunks must arrive in stream order (they do:
    /// links are FIFO).
    ///
    /// # Errors
    /// [`mheap::Error::OldGenFull`] (wrapped) when the heap cannot host the
    /// buffer; alignment errors for corrupt chunks.
    pub fn push_chunk(&mut self, bytes: &[u8]) -> Result<()> {
        let Some(len) = AbsorbCore::buffer_len(bytes)? else { return Ok(()) };
        let base = self.vm.heap_mut().alloc_raw_old(len).map_err(Error::Heap)?;
        self.core.place(self.vm, base, bytes)
    }

    #[cfg(test)]
    fn translate(&self, logical: u64) -> Result<Addr> {
        self.core.translate(logical)
    }

    /// Absolutizes every chunk, drains the cross-chunk fixup lists, then
    /// runs [`StreamIn::finish`] — the counterpart of draining
    /// `readObject()` calls. Returns the root objects in arrival order,
    /// plus statistics.
    ///
    /// The returned roots are *not yet GC roots*: callers must register
    /// them (handles) before any further allocation on this VM.
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub fn read_objects(
        mut self,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<(Vec<Addr>, ReceiveStats)> {
        let stream = self.core.finish_stream(self.vm, hooks)?;
        stream.finish(self.vm, hooks, &self.core.registry, self.core.trace_ctx)
    }
}

/// Receives one whole framed blob ([`crate::buffer::Frame`]) into `vm`:
/// the receive path of the serializer and the file stream. The frame is
/// parsed in full first, so a malformed one places nothing. Then the
/// object format is checked, the old generation makes room for the blob,
/// and each lane (expanded first when compressed) is absorbed and finished
/// under the sender's trace context, its roots landing where its root
/// table says. As for [`SkywayObjectInputStream::read_objects`], the roots
/// are *not yet GC roots*.
///
/// # Errors
/// [`Error::BadFrame`] and [`Error::SpecMismatch`] for a frame this VM
/// cannot take; corrupt-stream and heap errors while absorbing.
pub fn receive_frame(
    vm: &mut Vm,
    dir: &TypeDirectory,
    node: NodeId,
    blob: &[u8],
    hooks: Option<&UpdateRegistry>,
) -> Result<Vec<Addr>> {
    let frame = Frame::parse(blob)?;
    frame.header.check_spec(vm.spec())?;
    // The blob bounds the bytes it places (uncompressed); making room now,
    // before any of it is placed, keeps a VM that only receives from
    // filling its old generation with dead input buffers.
    vm.reserve_old(blob.len() as u64).map_err(Error::Heap)?;
    let mut placed = vec![Addr::NULL; frame.lanes.iter().map(|l| l.roots.len()).sum()];
    for lane in &frame.lanes {
        // An expanded lane is one chunk: objects cannot span it.
        let (expanded, one);
        let chunks: &[&[u8]] = if frame.header.compressed() {
            expanded = crate::compress::expand_stream(vm, dir, node, &lane.chunks, vm.spec())?;
            one = [expanded.as_slice()];
            &one
        } else {
            &lane.chunks
        };
        let mut rx = SkywayObjectInputStream::new(vm, dir, node).with_trace(frame.header.trace);
        for c in chunks {
            rx.push_chunk(c)?;
        }
        let (roots, _) = rx.read_objects(hooks)?;
        let (got, listed) = (roots.len(), lane.roots.len());
        if got != listed {
            return Err(Error::BadFrame(format!("lane carried {got} roots, its table {listed}")));
        }
        // `Frame::parse` checked the tables permute `0..placed.len()`.
        for (&ix, root) in lane.roots.iter().zip(roots) {
            placed[ix as usize] = root;
        }
    }
    Ok(placed)
}

/// A received stream — or the merge of every lane's stream of one engine
/// transfer — awaiting the heap-mutating finish work that needs
/// `&mut Vm`: its roots (in emission order), statistics, card-table spans
/// and pending update hooks.
#[derive(Debug)]
pub struct StreamIn {
    /// Roots recovered from this stream, in emission order.
    pub roots: Vec<Addr>,
    /// This stream's receive statistics.
    pub stats: ReceiveStats,
    /// Absorbed input-buffer ranges awaiting one batched card-dirty pass.
    pub card_spans: Vec<(Addr, u64)>,
    /// `(object, hook index)` pairs awaiting post-transfer update hooks.
    pub pending_hooks: Vec<(Addr, usize)>,
}

impl StreamIn {
    /// The receive finish every front end shares: one batched card-table
    /// pass over all absorbed ranges (traced as a card-dirty span under
    /// `ctx`, counted into `registry`), then the post-transfer field
    /// updates (§3.3 registerUpdate). Returns the roots and statistics.
    ///
    /// # Errors
    /// Errors returned by an update hook.
    pub fn finish(
        mut self,
        vm: &mut Vm,
        hooks: Option<&UpdateRegistry>,
        registry: &obs::Registry,
        ctx: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, ReceiveStats)> {
        let mut span =
            registry.tracer().start(obs::names::TRACE_RECEIVER_CARD_DIRTY, ctx, &vm.name);
        let cards = vm.heap_mut().dirty_card_batch(&self.card_spans);
        self.stats.cards_dirtied += cards;
        registry.counter(obs::names::RECEIVER_CARDS_DIRTIED).add(cards);
        span.annotate("cards", cards);
        drop(span);
        if let Some(h) = hooks {
            for (obj, idx) in self.pending_hooks {
                h.apply(vm, obj, idx)?;
            }
        }
        Ok((self.roots, self.stats))
    }
}

/// One lane's absorber in an engine transfer: the same scan as
/// [`SkywayObjectInputStream`] but over a shared `&Vm`, chunk by chunk as
/// they arrive, allocating input buffers through the heap's shared
/// old-generation window ([`mheap::Heap::begin_shared_old_alloc`] must be
/// open). Heap-mutating finish work (card batch, hooks) is returned as a
/// [`StreamIn`] for the coordinator instead of being applied here. Dropped
/// before [`StreamAbsorber::finish_stream`] succeeds, it rolls its stream
/// back, inside the window.
#[derive(Debug)]
pub struct StreamAbsorber<'a> {
    vm: &'a Vm,
    core: AbsorbCore<'a>,
}

impl Drop for StreamAbsorber<'_> {
    fn drop(&mut self) {
        self.core.roll_back(self.vm);
    }
}

impl<'a> StreamAbsorber<'a> {
    /// Starts absorbing one parallel stream into `vm` on `node`.
    pub fn new(vm: &'a Vm, dir: &'a TypeDirectory, node: NodeId) -> Self {
        StreamAbsorber { vm, core: AbsorbCore::new(dir, node) }
    }

    /// Reports into `registry` instead of the process-wide default.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.core.registry = registry;
        self
    }

    /// Attaches the transfer's trace context; spans record on `lane`
    /// (worker *w* of a parallel transfer uses lane `w + 1`).
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx, lane: u32) -> Self {
        self.core.trace_ctx = ctx;
        self.core.lane = lane;
        self
    }

    /// Places one received chunk into a fresh old-generation input buffer
    /// claimed through the heap's shared allocation window.
    ///
    /// # Errors
    /// [`mheap::Error::OldGenFull`] (wrapped) when the heap cannot host
    /// the buffer; alignment errors for corrupt chunks.
    pub fn push_chunk(&mut self, bytes: &[u8]) -> Result<()> {
        let Some(len) = AbsorbCore::buffer_len(bytes)? else { return Ok(()) };
        let base = self.vm.heap().shared_alloc_raw_old(len).map_err(Error::Heap)?;
        self.core.place(self.vm, base, bytes)
    }

    /// Absolutizes every chunk placed so far but not yet absorbed, so
    /// absorption overlaps the transfer of later chunks.
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub fn absorb_ready(&mut self, hooks: Option<&UpdateRegistry>) -> Result<()> {
        self.core.absorb_ready(self.vm, hooks)
    }

    /// Completes this stream: absorbs remaining chunks and drains its own
    /// cross-chunk fixups, returning the roots plus the heap-mutating
    /// leftovers for [`StreamIn::finish`].
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub fn finish_stream(mut self, hooks: Option<&UpdateRegistry>) -> Result<StreamIn> {
        self.core.finish_stream(self.vm, hooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::{stdlib::define_core_classes, ClassPath, HeapConfig};

    fn env() -> (Vm, TypeDirectory) {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        let vm = Vm::new("recv", &HeapConfig::small(), cp).unwrap();
        (vm, TypeDirectory::new(1, NodeId(0)))
    }

    #[test]
    fn translate_empty_chunk_list_is_dangling() {
        let (mut vm, dir) = env();
        let r = SkywayObjectInputStream::new(&mut vm, &dir, NodeId(0));
        assert!(matches!(r.translate(0), Err(Error::DanglingRelativeAddr(0))));
        assert!(matches!(r.translate(64), Err(Error::DanglingRelativeAddr(64))));
    }

    #[test]
    fn translate_past_the_end_is_dangling() {
        let (mut vm, dir) = env();
        let mut r = SkywayObjectInputStream::new(&mut vm, &dir, NodeId(0));
        r.push_chunk(&[0u8; 32]).unwrap();
        r.push_chunk(&[0u8; 16]).unwrap();
        // In-range logicals resolve, and stay contiguous across chunks.
        let a0 = r.translate(0).unwrap();
        let a24 = r.translate(24).unwrap();
        assert_eq!(a24.0 - a0.0, 24);
        assert!(r.translate(32).is_ok());
        assert!(r.translate(40).is_ok());
        // One past the end of the last chunk must not clamp to it.
        assert!(matches!(r.translate(48), Err(Error::DanglingRelativeAddr(48))));
        assert!(matches!(r.translate(u64::MAX - 7), Err(Error::DanglingRelativeAddr(_))));
        // In range but off the object grid.
        assert!(matches!(r.translate(31), Err(Error::MisalignedRelativeAddr(31))));
    }
}
