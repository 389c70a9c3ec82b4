//! The three workloads and the measuring loop around them.
//!
//! One single-threaded, closed loop: it issues the next timed call
//! only after the previous one returned and was checked. A *job* is the
//! workload's unit of work — one fan-out round, one group of edge batches,
//! one PageRank job — and the loop runs whole jobs until the run's time is
//! up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, Gc, Registry, Shape, Transfer};
use crate::fold::{self, SpanRec};
use crate::layers;
use crate::oracle::{self, Tally};
use crate::report::Metric;
use crate::stats::{self, Tail};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["jsbs-fanout", "edges-batches", "spark-pagerank"];

/// JSBS records in the fan-out dataset.
const JSBS_RECORDS: usize = 2000;
/// Receivers of each fan-out round (the paper's five-node broadcast).
const JSBS_RECEIVERS: usize = 4;
/// Divisor of the paper's LiveJournal size for the edge stream.
const EDGES_SCALE: u64 = 500;
/// Edge batches per edges-batches job.
const EDGES_BATCHES_PER_JOB: usize = 40;
/// Divisor of the paper's LiveJournal size for PageRank.
const SPARK_SCALE: u64 = 3500;
/// sparklite workers.
const SPARK_WORKERS: usize = 3;
/// Heap per sparklite VM: small enough that collections run in a job.
const SPARK_HEAP: usize = 8 << 20;
/// PageRank iterations per job.
const SPARK_ITERS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Jobs in a traced window (fewer if the span budget would run out).
const TRACE_JOBS: [u64; 3] = [8, 16, 5];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One job's timed cost.
#[derive(Debug, Clone, Copy)]
struct JobRec {
    /// Wall time of its timed calls.
    call_ns: u64,
    /// Job start to a checked result (spark-pagerank) or the summed
    /// calls (transfer workloads).
    job_ns: u64,
    /// Graph bytes its calls moved.
    bytes: u64,
}

/// What a run of jobs measured.
#[derive(Debug, Default)]
struct Window {
    tally: Tally,
    call_ms: Vec<f64>,
    jobs: Vec<JobRec>,
    max_in_flight: u64,
    gc: Gc,
}

impl Window {
    fn calls(&self) -> u64 {
        self.call_ms.len() as u64
    }

    fn call_ns(&self) -> u64 {
        self.jobs.iter().map(|j| j.call_ns).sum()
    }

    fn bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.bytes).sum()
    }

    /// Timed nanoseconds per moved byte over jobs `skip..`.
    fn ns_per_byte(&self, skip: usize) -> f64 {
        let (ns, bytes) = self
            .jobs
            .iter()
            .skip(skip)
            .fold((0u64, 0u64), |(n, b), j| (n + j.call_ns, b + j.bytes));
        if bytes == 0 {
            0.0
        } else {
            ns as f64 / bytes as f64
        }
    }

    fn record_transfer(&mut self, t: &Transfer, job: &mut JobRec) {
        self.call_ms.push(t.wall_ns as f64 / 1e6);
        self.max_in_flight = self.max_in_flight.max(t.max_in_flight);
        self.gc = self.gc.plus(t.gc);
        job.call_ns += t.wall_ns;
        job.job_ns += t.wall_ns;
        job.bytes += t.bytes;
    }
}

/// A deterministic generator for the benchmark's own input choices.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

enum Harness {
    Jsbs(adapter::Jsbs),
    Edges { h: adapter::Edges, rng: SplitMix, cursor: usize },
    Spark { h: adapter::Spark, reference: BTreeMap<i64, f64> },
}

impl Harness {
    /// Boots the workload's VMs and generates its inputs from `seed`.
    fn setup(workload: usize, seed: u64) -> Result<Harness, String> {
        Ok(match workload {
            0 => Harness::Jsbs(adapter::Jsbs::setup(seed, JSBS_RECORDS, JSBS_RECEIVERS)?),
            1 => Harness::Edges {
                h: adapter::Edges::setup(seed, EDGES_SCALE)?,
                rng: SplitMix(seed ^ 0xed6e_5ba7),
                cursor: 0,
            },
            _ => Harness::Spark {
                h: adapter::Spark::setup(
                    seed,
                    SPARK_SCALE,
                    SPARK_WORKERS,
                    SPARK_HEAP,
                    SPARK_ITERS,
                )?,
                reference: BTreeMap::new(),
            },
        })
    }

    /// Work the oracle needs before the first job, outside `setup_s`.
    fn prepare_oracle(&mut self) {
        if let Harness::Spark { h, reference } = self {
            *reference = oracle::reference_pagerank(h.edges(), h.iters());
        }
    }

    fn registry(&self) -> Registry {
        match self {
            Harness::Jsbs(h) => h.registry(),
            Harness::Edges { h, .. } => h.registry(),
            Harness::Spark { h, .. } => h.registry(),
        }
    }

    /// Runs one job, recording its timings and checks into `w`.
    fn job(&mut self, traced: bool, w: &mut Window) {
        let mut job = JobRec { call_ns: 0, job_ns: 0, bytes: 0 };
        match self {
            Harness::Jsbs(h) => {
                for shape in [Shape::PerRecord, Shape::List] {
                    for r in 0..h.receivers() {
                        let t = h.transfer(shape, r, traced);
                        w.record_transfer(&t, &mut job);
                        let checked = h.check(shape, r, &t);
                        w.tally.record(checked.and(h.reset(r)));
                    }
                }
            }
            Harness::Edges { h, rng, cursor } => {
                for i in 0..EDGES_BATCHES_PER_JOB {
                    let len = edge_batch_len(i, rng).min(h.len());
                    let start = if *cursor + len > h.len() { 0 } else { *cursor };
                    *cursor = start + len;
                    let t = h.transfer(start, len, traced);
                    w.record_transfer(&t, &mut job);
                    let checked = h.check(start, len, &t);
                    w.tally.record(checked.and(h.reset()));
                }
            }
            Harness::Spark { h, reference } => {
                let c0 = adapter::counters();
                let t0 = Instant::now();
                let run = h.job();
                let checked = match &run.ranks {
                    Ok(ranks) => oracle::compare_ranks(ranks, reference),
                    Err(e) => Err(e.clone()),
                };
                job.job_ns = t0.elapsed().as_nanos() as u64;
                let c1 = adapter::counters();
                let moved =
                    |c: &BTreeMap<&str, u64>| c["receiver.bytes"] + c["segstore.bytes_sealed"];
                job.call_ns = run.wall_ns;
                job.bytes = moved(&c1) - moved(&c0);
                w.call_ms.push(run.wall_ns as f64 / 1e6);
                w.gc = w.gc.plus(run.gc);
                w.tally.record(checked.and_then(|()| h.verify_and_reclaim()));
            }
        }
        w.jobs.push(job);
    }
}

/// Edges in batch `i` of a job: every fourth batch spans many chunks (the
/// engine runs it in parallel mode), the rest fit one chunk (inline). A
/// fixed mix per job keeps `job_s` about the engine, not about how many
/// large batches the seed happened to put in a job.
fn edge_batch_len(i: usize, rng: &mut SplitMix) -> usize {
    if i % 4 == 3 {
        6_000 + rng.below(14_000) as usize
    } else {
        64 + rng.below(1_000) as usize
    }
}

/// Runs jobs until `deadline`, and at least `min_jobs`.
fn measure(h: &mut Harness, deadline: Instant, min_jobs: usize, w: &mut Window) {
    while w.jobs.len() < min_jobs || Instant::now() < deadline {
        h.job(false, w);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn delta(
    after: &BTreeMap<&'static str, u64>,
    before: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after.iter().map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0)))).collect()
}

/// `(key, JSON value)` pairs of the detail line.
pub type Detail = Vec<(&'static str, String)>;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed (and, traced, no span was dropped).
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Context for the detail line.
    pub detail: Detail,
}

/// Runs one workload: set-up, then the end-to-end or the traced
/// measurement. `started` is the process start.
pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let host = adapter::host();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut harness = None;
    for _ in 0..SETUP_REPS {
        drop(harness.take());
        let t0 = Instant::now();
        harness = Some(Harness::setup(args.workload, args.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut h = harness.ok_or("no set-up ran")?;
    h.prepare_oracle();
    let first_op_s = started.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let detail = vec![
        ("workload", crate::report::string(WORKLOADS[args.workload])),
        ("seed", args.seed.to_string()),
        ("host_cores", host.cores.to_string()),
        ("workers", host.workers.to_string()),
        ("process_start_to_first_op_s", crate::report::num(first_op_s)),
    ];
    Ok(if args.trace {
        traced(&mut h, deadline, detail)
    } else {
        end_to_end(&mut h, deadline, &setups, detail)
    })
}

fn end_to_end(h: &mut Harness, deadline: Instant, setups: &[f64], mut detail: Detail) -> Outcome {
    let c0 = adapter::counters();
    let mut w = Window::default();
    measure(h, deadline, 1, &mut w);
    let c = delta(&adapter::counters(), &c0);
    let tail: Tail = stats::tail(&w.call_ms);
    let job_s: Vec<f64> = w.jobs.iter().map(|j| j.job_ns as f64 / 1e9).collect();
    let moved = (c["receiver.bytes"] + c["segstore.bytes_sealed"]) as f64;
    let objects = c["sender.objects_visited"] as f64;
    let call_s = w.call_ns() as f64 / 1e9;
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    let metrics = vec![
        m("setup_s", "s", stats::median(setups)),
        m(
            "transfer_mb_per_s",
            "MB/s",
            if call_s > 0.0 { w.bytes() as f64 / 1e6 / call_s } else { 0.0 },
        ),
        m("transfer_p50_ms", "ms", stats::median(&w.call_ms)),
        m("transfer_tail_ms", "ms", tail.value),
        m("job_s", "s", stats::median(&job_s)),
        m("wire_bytes_per_object", "bytes", if objects > 0.0 { moved / objects } else { 0.0 }),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    detail.extend([
        ("timed_calls", w.calls().to_string()),
        ("jobs", w.jobs.len().to_string()),
        ("transfer_tail_percentile", crate::report::num(tail.percentile)),
        ("transfer_tail_samples", tail.samples.to_string()),
        ("transfer_tail_beyond", tail.beyond.to_string()),
        (
            "setup_reps_s",
            format!(
                "[{}]",
                setups.iter().map(|v| crate::report::num(*v)).collect::<Vec<_>>().join(", ")
            ),
        ),
        (
            "first_error",
            w.tally.first_error.as_deref().map_or("null".to_owned(), crate::report::string),
        ),
    ]);
    Outcome {
        correct: w.tally.failed == 0,
        attempted: w.tally.attempted,
        failed: w.tally.failed,
        metrics,
        detail,
    }
}

fn traced(h: &mut Harness, deadline: Instant, mut detail: Detail) -> Outcome {
    let workload_jobs = match h {
        Harness::Jsbs(_) => TRACE_JOBS[0],
        Harness::Edges { .. } => TRACE_JOBS[1],
        Harness::Spark { .. } => TRACE_JOBS[2],
    };
    adapter::set_tracing(true);
    let _ = adapter::drain_spans();
    let (c0, r0) = (adapter::counters(), h.registry());
    let mut tw = Window::default();
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut most_per_job = 0usize;
    let budget = adapter::span_capacity();
    while (tw.jobs.len() as u64) < workload_jobs && spans.len() + 2 * most_per_job < budget {
        h.job(true, &mut tw);
        let got = adapter::drain_spans();
        most_per_job = most_per_job.max(got.len());
        spans.extend(got);
    }
    adapter::set_tracing(false);
    let c1 = adapter::counters();
    let r1 = h.registry();
    let dropped = adapter::spans_dropped();

    // The same work untraced, for the tracing overhead. The first traced
    // job also pays the receivers' first class loads, so it is left out.
    let mut uw = Window { tally: tw.tally.clone(), ..Window::default() };
    measure(h, deadline, 2, &mut uw);
    let overhead_pct = {
        let (t, u) = (tw.ns_per_byte(1), uw.ns_per_byte(0));
        if u > 0.0 && t > 0.0 {
            100.0 * (t / u - 1.0)
        } else {
            0.0
        }
    };

    let folded = fold::fold(&spans);
    let counters = delta(&c1, &c0);
    let inputs = layers::Inputs {
        spans: &spans,
        folded: &folded,
        counters: &counters,
        segments_live_end: c1["segstore.segments_live"],
        registry: Registry {
            lookups: r1.lookups - r0.lookups,
            messages: r1.messages - r0.messages,
        },
        gc: tw.gc,
        calls: tw.calls(),
        call_ns: tw.call_ns(),
        max_in_flight: tw.max_in_flight,
        spans_dropped: dropped,
        trace_overhead_pct: overhead_pct,
        error_rate: uw.tally.error_rate(),
    };
    let metrics = layers::per_layer(&inputs);
    detail.extend([
        ("traced_jobs", tw.jobs.len().to_string()),
        ("traced_calls", tw.calls().to_string()),
        ("spans", spans.len().to_string()),
        ("untraced_jobs", uw.jobs.len().to_string()),
        (
            "first_error",
            uw.tally.first_error.as_deref().map_or("null".to_owned(), crate::report::string),
        ),
    ]);
    Outcome {
        correct: uw.tally.failed == 0 && dropped == 0,
        attempted: uw.tally.attempted,
        failed: uw.tally.failed,
        metrics,
        detail,
    }
}
