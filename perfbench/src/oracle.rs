//! Correctness bookkeeping: the pass/fail tally behind `error_rate`, and a
//! plain-Rust PageRank that sparklite's result is compared against.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Largest accepted difference between a collected rank and the
/// reference, relative to `max(1, |reference|)`. Both sides sum the same
/// contributions in different orders, so they agree to a few ulps.
pub const RANK_TOLERANCE: f64 = 1e-9;

/// Attempted and failed operations. An operation fails when the program
/// returns an error, its heap verifies with faults, or its output differs
/// from the reference; a failure is counted, never a panic.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure's description.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// PageRank as sparklite defines it: vertices are the distinct edge
/// sources, parallel edges count once, ranks start at 1.0 and each
/// iteration sets `rank = 0.15 + 0.85 * Σ rank(u) / outdeg(u)` over
/// in-neighbours `u`.
pub fn reference_pagerank(edges: &[(u64, u64)], iters: usize) -> BTreeMap<i64, f64> {
    let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(s, d) in edges {
        adj.entry(s as i64).or_default().push(d as i64);
    }
    for v in adj.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    let mut rank: BTreeMap<i64, f64> = adj.keys().map(|&n| (n, 1.0)).collect();
    for _ in 0..iters {
        let mut sums: HashMap<i64, f64> = HashMap::new();
        for (n, nbrs) in &adj {
            let share = rank[n] / nbrs.len() as f64;
            for d in nbrs {
                *sums.entry(*d).or_insert(0.0) += share;
            }
        }
        for (n, r) in rank.iter_mut() {
            *r = 0.15 + 0.85 * sums.get(n).copied().unwrap_or(0.0);
        }
    }
    rank
}

/// Checks collected `(vertex, rank)` pairs against the reference: the
/// same vertex set, each rank within [`RANK_TOLERANCE`].
pub fn compare_ranks(got: &[(i64, f64)], want: &BTreeMap<i64, f64>) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} ranks collected, reference has {}", got.len(), want.len()));
    }
    let mut seen = BTreeSet::new();
    for &(n, r) in got {
        if !seen.insert(n) {
            return Err(format!("vertex {n} collected twice"));
        }
        let w = *want.get(&n).ok_or_else(|| format!("vertex {n} is not in the reference"))?;
        if (r - w).abs() > RANK_TOLERANCE * w.abs().max(1.0) {
            return Err(format!("vertex {n}: rank {r}, reference {w}"));
        }
    }
    Ok(())
}
