//! Folds recorded spans into total and self time per span kind.
//!
//! A span's self time is its duration minus the part of its interval that
//! its wall-clock children cover. Coverage is the union of the children's
//! intervals (clipped to the parent), so parallel lanes that overlap in
//! time count once. Spans on the simulated clock never cover a wall-clock
//! parent: they are summed apart, for the modeled `simnet.*` metrics only.

use std::collections::{BTreeMap, HashMap};

/// One finished span, as the folder needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id (0 for a trace root).
    pub parent: u64,
    /// Span kind, e.g. `trace.transfer`.
    pub name: &'static str,
    /// Start, in the span's own clock.
    pub start_ns: u64,
    /// End, in the span's own clock.
    pub end_ns: u64,
    /// Timestamps are simulated-network nanoseconds, not wall time.
    pub sim_clock: bool,
    /// Numeric annotations.
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The annotation `key`, if present.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Accumulated time of one span kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KindTime {
    /// Spans of this kind.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Per-kind wall-clock times, and the simulated-clock total kept apart.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Folded {
    /// Wall-clock span kinds.
    pub wall: BTreeMap<&'static str, KindTime>,
    /// Summed durations of every simulated-clock span (`simnet.*` only).
    pub sim_ns: u64,
}

impl Folded {
    /// Wall-clock times of `kind` (zero when absent).
    pub fn wall(&self, kind: &str) -> KindTime {
        self.wall.get(kind).copied().unwrap_or_default()
    }
}

/// Length of the union of `intervals` (each `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// Folds `spans` into per-kind total and self time.
pub fn fold(spans: &[SpanRec]) -> Folded {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| !s.sim_clock && s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out = Folded::default();
    for s in spans {
        let dur = s.dur();
        if s.sim_clock {
            out.sim_ns += dur;
            continue;
        }
        let mut clipped: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&(cs, ce)| (cs.max(s.start_ns), ce.min(s.end_ns)))
                    .filter(|(cs, ce)| cs < ce)
                    .collect()
            })
            .unwrap_or_default();
        let k = out.wall.entry(s.name).or_default();
        k.count += 1;
        k.total_ns += dur;
        k.self_ns += dur - union_len(&mut clipped);
    }
    out
}
