//! Tests of the benchmark's own logic: tail selection, span folding and
//! the error tally.

use std::collections::BTreeMap;

use perfbench::adapter::{Jsbs, Shape};
use perfbench::fold::{fold, union_len, SpanRec};
use perfbench::oracle::{compare_ranks, reference_pagerank, Tally};
use perfbench::stats::{median, tail};

fn ramp(n: usize) -> Vec<f64> {
    // Reversed, so the functions must sort.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_takes_the_highest_rung_with_ten_beyond() {
    let t = tail(&ramp(1000));
    assert_eq!((t.percentile, t.value, t.samples, t.beyond), (99.0, 990.0, 1000, 10));

    // p99.9 and p99 leave 0 and 1 samples beyond: p90 is the highest rung
    // with ten.
    let t = tail(&ramp(100));
    assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));

    // One sample short of the p99 band: p90, with 100 beyond.
    let t = tail(&ramp(999));
    assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 99));

    let t = tail(&ramp(99));
    assert_eq!((t.percentile, t.value, t.beyond), (75.0, 75.0, 24));

    let t = tail(&ramp(10_000));
    assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
}

#[test]
fn tail_falls_back_to_the_median_and_says_so() {
    let t = tail(&ramp(20));
    assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    let t = tail(&ramp(15));
    assert_eq!((t.percentile, t.value, t.beyond), (50.0, 8.0, 7));
    assert_eq!(tail(&[]).samples, 0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&ramp(5)), 3.0);
    assert_eq!(median(&ramp(4)), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, sim: bool) -> SpanRec {
    SpanRec { id, parent, name, start_ns: start, end_ns: end, sim_clock: sim, args: Vec::new() }
}

#[test]
fn union_counts_overlap_once() {
    assert_eq!(union_len(&mut [(10, 60), (40, 90)]), 80);
    assert_eq!(union_len(&mut [(50, 60), (0, 10), (5, 20)]), 30);
    assert_eq!(union_len(&mut []), 0);
}

#[test]
fn self_time_subtracts_union_of_overlapping_lanes() {
    let spans = vec![
        span(1, 0, "trace.transfer", 0, 100, false),
        // Two parallel lanes overlapping on [40, 60): covered once.
        span(2, 1, "trace.sender.traverse", 10, 60, false),
        span(3, 1, "trace.sender.traverse", 40, 90, false),
        // A grandchild covers its parent, not the transfer.
        span(4, 2, "trace.registry.class_load", 20, 30, false),
        // Simulated-clock spans never cover wall time.
        span(5, 1, "trace.link.xmit", 0, 1000, true),
    ];
    let f = fold(&spans);
    let transfer = f.wall("trace.transfer");
    assert_eq!((transfer.count, transfer.total_ns, transfer.self_ns), (1, 100, 20));
    let traverse = f.wall("trace.sender.traverse");
    assert_eq!((traverse.count, traverse.total_ns, traverse.self_ns), (2, 100, 90));
    assert_eq!(f.wall("trace.registry.class_load").self_ns, 10);
    assert!(!f.wall.contains_key("trace.link.xmit"));
    assert_eq!(f.sim_ns, 1000);
}

#[test]
fn children_outside_the_parent_are_clipped() {
    let spans = vec![
        span(1, 0, "trace.transfer", 100, 200, false),
        // A GC pause recorded after the transfer ended, and one straddling
        // its end: only the overlap counts against the transfer.
        span(2, 1, "trace.gc.pause", 300, 400, false),
        span(3, 1, "trace.gc.pause", 180, 220, false),
    ];
    let f = fold(&spans);
    assert_eq!(f.wall("trace.transfer").self_ns, 80);
    assert_eq!(f.wall("trace.gc.pause").self_ns, 140);
}

#[test]
fn corrupted_receiver_heap_counts_as_a_failure() {
    let mut h = Jsbs::setup(7, 16, 1).expect("set-up");
    let mut tally = Tally::default();

    let t = h.transfer(Shape::PerRecord, 0, false);
    h.corrupt_received(0, &t).expect("corrupt");
    tally.record(h.check(Shape::PerRecord, 0, &t));
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(tally.first_error.as_deref().unwrap_or("").contains("heap fault"), "{tally:?}");

    // The reset receiver takes the next transfer cleanly.
    h.reset(0).expect("reset");
    let t = h.transfer(Shape::List, 0, false);
    tally.record(h.check(Shape::List, 0, &t));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.error_rate(), 0.5);
}

#[test]
fn reference_pagerank_matches_a_hand_computed_graph() {
    // 0 -> 1, 0 -> 2 (and a parallel 0 -> 1), 1 -> 0; vertex 2 has no
    // out-edges, so it is not a vertex of the job.
    let edges = [(0, 1), (0, 2), (0, 1), (1, 0)];
    let r = reference_pagerank(&edges, 1);
    // rank(0) = 0.15 + 0.85 * 1.0 (all of vertex 1); rank(1) = 0.15 +
    // 0.85 * 0.5 (half of vertex 0).
    let want: BTreeMap<i64, f64> = [(0, 1.0), (1, 0.575)].into_iter().collect();
    assert_eq!(r.len(), 2);
    for (n, v) in &want {
        assert!((r[n] - v).abs() < 1e-12, "{n}: {} vs {v}", r[n]);
    }
    assert!(compare_ranks(&[(1, 0.575), (0, 1.0)], &want).is_ok());
    assert!(compare_ranks(&[(1, 0.575 + 1e-6), (0, 1.0)], &want).is_err());
    assert!(compare_ranks(&[(0, 1.0), (0, 1.0)], &want).is_err());
    assert!(compare_ranks(&[(0, 1.0)], &want).is_err());
}
