//! Overlap-aware link scheduling for chunk-granularity transfer.
//!
//! [`Cluster::net_recv`](crate::Cluster::net_recv) charges whole-payload
//! time: `latency + bytes / bandwidth` per message, which models a
//! store-and-forward transfer where nothing else happens while the payload
//! is on the wire. A pipelined shuffle overlaps traversal, transfer, and
//! absorption, so its simulated cost is a *schedule*, not a sum:
//! [`LinkClock`] serializes chunk transmissions on one link (a link carries
//! one chunk at a time) while letting producer and consumer time run
//! concurrently with the wire time.
//!
//! All times are nanoseconds on a single simulated timeline starting at 0.

use crate::cluster::SimConfig;

/// Schedules transmissions on one point-to-point link.
///
/// For each chunk that becomes ready (fully produced) at time `ready`,
/// [`LinkClock::send`] charges transmission starting when both the chunk
/// and the link are available, and returns the occupancy interval and the
/// arrival time at the far end (one-way latency added once per chunk —
/// chunks are cut-through, so latencies of consecutive chunks overlap on
/// the wire).
#[derive(Debug, Clone)]
pub struct LinkClock {
    bandwidth_bps: u64,
    latency_ns: u64,
    free_at_ns: u64,
    busy_ns: u64,
    /// Wire-occupancy per stream lane (parallel transfer: one lane per
    /// worker stream sharing this physical link). Lane 0 is the default.
    lane_busy_ns: Vec<u64>,
}

impl LinkClock {
    /// A clock for one link under `cfg`'s bandwidth/latency model.
    pub fn new(cfg: &SimConfig) -> Self {
        LinkClock {
            bandwidth_bps: cfg.net_bandwidth_bps.max(1),
            latency_ns: cfg.net_latency_ns,
            free_at_ns: 0,
            busy_ns: 0,
            lane_busy_ns: Vec::new(),
        }
    }

    /// Schedules a chunk of `bytes` from stream `lane` that becomes ready
    /// at `ready_ns`, and returns its wire-occupancy interval and arrival
    /// time (callers emit a simulated-clock trace span from it). The chunk
    /// serializes with every other lane's chunks on the shared physical
    /// wire, but its occupancy is charged to that lane's bucket so a
    /// parallel transfer can report per-stream wire shares.
    pub fn send(&mut self, lane: usize, ready_ns: u64, bytes: u64) -> LinkXmit {
        let start = self.free_at_ns.max(ready_ns);
        let tx = bytes.saturating_mul(1_000_000_000) / self.bandwidth_bps;
        self.free_at_ns = start.saturating_add(tx);
        self.busy_ns += tx;
        if self.lane_busy_ns.len() <= lane {
            self.lane_busy_ns.resize(lane + 1, 0);
        }
        self.lane_busy_ns[lane] += tx;
        LinkXmit {
            start_ns: start,
            end_ns: self.free_at_ns,
            arrival_ns: self.free_at_ns.saturating_add(self.latency_ns),
        }
    }

    /// When the link next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at_ns
    }

    /// Total wire-occupancy time charged so far (excludes latency).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Wire-occupancy time charged to stream `lane` (0 when the lane never
    /// transmitted).
    pub fn lane_busy_ns(&self, lane: usize) -> u64 {
        self.lane_busy_ns.get(lane).copied().unwrap_or(0)
    }

    /// Link utilization over `[0, horizon_ns]` as a percentage: the share
    /// of the timeline the wire spent occupied. The pipelined/parallel
    /// engines pass their schedule's finish time to answer "how far below
    /// the modeled 10/40GbE ceiling did this transfer run?".
    pub fn utilization_pct(&self, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 {
            return 0.0;
        }
        100.0 * self.busy_ns as f64 / horizon_ns as f64
    }
}

/// One scheduled transmission on the simulated timeline: when the chunk
/// occupied the wire and when it arrived at the far end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkXmit {
    /// Wire occupancy begins (chunk and link both available).
    pub start_ns: u64,
    /// Wire occupancy ends (transmission complete, pre-latency).
    pub end_ns: u64,
    /// Arrival at the receiver (`end_ns` + one-way latency).
    pub arrival_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            net_bandwidth_bps: 1_000_000_000, // 1 ns per byte
            net_latency_ns: 50,
            ..SimConfig::default()
        }
    }

    #[test]
    fn back_to_back_chunks_serialize_on_the_wire() {
        let mut l = LinkClock::new(&cfg());
        // Both ready at t=0: the second waits for the link.
        assert_eq!(l.send(0, 0, 100).arrival_ns, 150); // 0..100 on wire, +50 latency
        assert_eq!(l.send(0, 0, 100).arrival_ns, 250); // 100..200 on wire, +50
        assert_eq!(l.busy_ns(), 200);
    }

    #[test]
    fn late_chunk_waits_for_production_not_link() {
        let mut l = LinkClock::new(&cfg());
        assert_eq!(l.send(0, 0, 100).arrival_ns, 150);
        // Ready only at t=500, link free since t=100: starts at 500.
        assert_eq!(l.send(0, 500, 100).arrival_ns, 650);
        assert_eq!(l.free_at(), 600);
    }

    #[test]
    fn traced_send_reports_the_occupancy_interval() {
        let mut l = LinkClock::new(&cfg());
        assert_eq!(l.send(0, 0, 100).arrival_ns, 150);
        // Ready at t=50 but the link is busy until t=100.
        let x = l.send(0, 50, 100);
        assert_eq!(x, LinkXmit { start_ns: 100, end_ns: 200, arrival_ns: 250 });
        assert_eq!(l.busy_ns(), 200);
    }

    #[test]
    fn lane_accounting_splits_shared_wire_time() {
        let mut l = LinkClock::new(&cfg());
        l.send(0, 0, 100);
        l.send(1, 0, 300);
        let x = l.send(0, 0, 100);
        // Lanes share one wire: the last chunk queued behind both others.
        assert_eq!(x.start_ns, 400);
        assert_eq!(l.busy_ns(), 500);
        assert_eq!(l.lane_busy_ns(0), 200);
        assert_eq!(l.lane_busy_ns(1), 300);
        assert_eq!(l.lane_busy_ns(7), 0);
        // Fully back-to-back: 500 busy ns over a 500 ns horizon = 100%.
        assert!((l.utilization_pct(500) - 100.0).abs() < 1e-9);
        assert!((l.utilization_pct(1000) - 50.0).abs() < 1e-9);
        assert_eq!(l.utilization_pct(0), 0.0);
    }

    #[test]
    fn overlapped_schedule_beats_whole_payload_charge() {
        let c = cfg();
        let mut l = LinkClock::new(&c);
        // Producer emits a chunk every 100 ns; wire also needs 100 ns per
        // chunk: perfect overlap means last arrival ≈ produce + one chunk.
        let mut arrival = 0;
        for i in 0..10u64 {
            arrival = l.send(0, i * 100, 100).arrival_ns;
        }
        assert_eq!(arrival, 1050);
        // The sequential model would pay produce (1000) then the whole
        // payload (1000 + 50) after it: strictly worse.
        assert!(arrival < 1000 + 1050);
    }
}
