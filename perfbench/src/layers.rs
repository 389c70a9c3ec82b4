//! Per-layer metrics of a traced window.
//!
//! Times come from the folded spans, counts from registry-counter and
//! `RegistryStats`/`VmStats` deltas over the window. Every value except
//! the ratios and the end-of-window gauges is a total over the window
//! divided by the number of timed calls in it (transfers, or PageRank
//! jobs), so windows of different length compare. Modeled figures — the
//! simulated link schedule — appear only under `simnet.modeled_*`.

use std::collections::BTreeMap;

use crate::adapter::{Gc, Registry};
use crate::fold::{Folded, SpanRec};
use crate::report::Metric;

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// Spans recorded in the window.
    pub spans: &'a [SpanRec],
    /// `spans`, folded.
    pub folded: &'a Folded,
    /// Registry-counter deltas over the window.
    pub counters: &'a BTreeMap<&'static str, u64>,
    /// Segment-store gauge at the end of the window.
    pub segments_live_end: u64,
    /// Class-registry protocol deltas.
    pub registry: Registry,
    /// GC work inside the timed calls.
    pub gc: Gc,
    /// Timed calls in the window.
    pub calls: u64,
    /// Summed wall time of the timed calls.
    pub call_ns: u64,
    /// Highest `max_in_flight` a transfer report gave (0 where the
    /// workload cannot see the reports).
    pub max_in_flight: u64,
    /// Spans the tracer dropped.
    pub spans_dropped: u64,
    /// Traced versus untraced cost of the same work, in percent.
    pub trace_overhead_pct: f64,
    /// Failed / attempted operations over the whole run.
    pub error_rate: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(i: &Inputs<'_>) -> Vec<Metric> {
    let calls = i.calls as f64;
    let per_call = |v: f64| ratio(v, calls);
    let ms = |ns: u64| per_call(ns as f64 / 1e6);
    let count = |key: &str| per_call(i.counters.get(key).copied().unwrap_or(0) as f64);
    let raw = |key: &str| i.counters.get(key).copied().unwrap_or(0);
    let f = i.folded;
    let stall_total = raw("pipeline.stall_ns");
    let recv_stall = raw("pipeline.receiver_stall_ns");
    let (hits, misses) = (raw("buffer.pool_hits"), raw("buffer.pool_misses"));
    let stage = f.wall("trace.stage");
    let compute_ns = if stage.count == 0 { 0 } else { i.call_ns.saturating_sub(stage.total_ns) };
    let (mut modeled_ns, mut sequential_ns) = (0u64, 0u64);
    for s in i.spans.iter().filter(|s| s.name == "trace.transfer") {
        modeled_ns += s.arg("pipelined_sim_ns").unwrap_or(0);
        sequential_ns += s.arg("sequential_sim_ns").unwrap_or(0);
    }
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    vec![
        m("sender.traverse_ms", "ms", ms(f.wall("trace.sender.traverse").self_ns)),
        m("sender.objects_visited", "count", count("sender.objects_visited")),
        m("sender.fallback_hits", "count", count("sender.fallback_hits")),
        m("sender.steals", "count", count("sender.steals")),
        m("sender.cas_conflicts", "count", count("sender.cas_conflicts")),
        m("pipeline.self_ms", "ms", ms(f.wall("trace.transfer").self_ns)),
        m("pipeline.sender_stall_ms", "ms", ms(stall_total.saturating_sub(recv_stall))),
        m("pipeline.receiver_stall_ms", "ms", ms(recv_stall)),
        m("pipeline.max_in_flight", "count", i.max_in_flight as f64),
        m("pipeline.mode_inline", "count", count("pipeline.mode_inline")),
        m("pipeline.mode_pipelined", "count", count("pipeline.mode_pipelined")),
        m("pipeline.mode_parallel", "count", count("pipeline.mode_parallel")),
        m("pipeline.mode_shared", "count", count("pipeline.mode_shared")),
        m("buffer.pool_hits", "count", count("buffer.pool_hits")),
        m("buffer.pool_misses", "count", count("buffer.pool_misses")),
        m("buffer.pool_hit_ratio", "ratio", ratio(hits as f64, (hits + misses) as f64)),
        m("buffer.chunks", "count", count("receiver.chunks")),
        m("receiver.absorb_ms", "ms", ms(f.wall("trace.receiver.chunk_absorb").self_ns)),
        m("receiver.fixup_ms", "ms", ms(f.wall("trace.receiver.fixup").self_ns)),
        m("receiver.card_dirty_ms", "ms", ms(f.wall("trace.receiver.card_dirty").self_ns)),
        m("receiver.ref_fixups", "count", count("receiver.ref_fixups")),
        m("receiver.cards_dirtied", "count", count("receiver.cards_dirtied")),
        m("registry.class_load_ms", "ms", ms(f.wall("trace.registry.class_load").self_ns)),
        m("registry.lookups", "count", per_call(i.registry.lookups as f64)),
        m("registry.messages", "count", per_call(i.registry.messages as f64)),
        m("segstore.seal_ms", "ms", ms(f.wall("trace.segstore.seal").total_ns)),
        m("segstore.attach_ms", "ms", ms(f.wall("trace.segstore.attach").total_ns)),
        m("segstore.bytes_not_copied", "bytes", count("segstore.bytes_not_copied")),
        m("segstore.segments_live_end", "count", i.segments_live_end as f64),
        m("mheap.gc_pause_ms", "ms", ms(i.gc.pause_ns)),
        m("mheap.minor_gcs", "count", per_call(i.gc.minor as f64)),
        m("mheap.full_gcs", "count", per_call(i.gc.full as f64)),
        m("mheap.promoted_bytes", "bytes", per_call(i.gc.promoted_bytes as f64)),
        m("sparklite.stage_ms", "ms", ms(stage.total_ns)),
        m("sparklite.stage_self_ms", "ms", ms(stage.self_ns)),
        m("sparklite.compute_ms", "ms", ms(compute_ns)),
        m("simnet.modeled_transfer_ms", "ms", ms(modeled_ns)),
        m("simnet.modeled_sequential_ms", "ms", ms(sequential_ns)),
        m("simnet.modeled_wire_ms", "ms", ms(f.sim_ns)),
        m("simnet.link_utilization_pct", "%", 100.0 * ratio(f.sim_ns as f64, modeled_ns as f64)),
        m("obs.spans_dropped", "count", i.spans_dropped as f64),
        m("obs.trace_overhead_pct", "%", i.trace_overhead_pct),
        m("error_rate", "ratio", i.error_rate),
    ]
}
