//! The engine half of a run: the four public entry points users call
//! (`schedule_theorem1`, `run_to_completion`, `route_online`,
//! `run_sharded`) on the workload's jobs, timed from outside, with their
//! outputs checked after each timed call.

use crate::report::{Metrics, Tally};
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Spans};
use crate::workload::{engine_job, job_seed, Machine, Workload};
use ft_core::{FatTree, MessageSet, SplitMix64};
use ft_sched::{route_online, schedule_theorem1, OnlineArena, OnlineConfig, SchedArena};
use ft_shard::{run_sharded, run_sharded_with, ShardConfig, ShardRunReport, ShardRunStats};
use ft_sim::{run_to_completion, run_to_completion_with, RunReport, SimConfig};
use ft_telemetry::Recorder;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sharded runs: 2 shards over the in-process transport.
const SHARDS: u32 = 2;
/// Set-up repetitions; `setup_s` reports their median.
pub const SETUP_ROUNDS: usize = 3;
/// Quantile of an op's per-job times that `*.msgs_per_s` divides by. The
/// shared host runs in fast and slow stretches lasting seconds to minutes,
/// so a run's median op time follows how much of the run fell in slow
/// stretches; its 10th percentile follows the speed the code reaches when
/// the host lets it, and holds still from run to run.
pub const OP_QUANTILE: f64 = 0.1;

pub const OPS: [&str; 4] = ["schedule", "simulate", "online", "shard"];

/// Deliberate corruption for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Perturb the first job's sharded report before it is compared.
    ShardMismatch,
    /// Flip a bit in one served response before it is verified.
    CorruptResponse,
}

/// What the engine half hands back besides metrics.
pub struct EngineOut {
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Simulated values over the fixed jobs, which must repeat exactly for
    /// a seed.
    pub simulated: BTreeMap<String, f64>,
}

fn online_rng(seed: u64, i: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(job_seed(seed, i) ^ 0x0471_3E00)
}

fn shard_cfg() -> ShardConfig {
    ShardConfig::new(SHARDS, SimConfig::default())
}

/// One untraced pass of the four ops over `job`, with its timings (s).
struct Untraced {
    secs: [f64; 4],
    sched: (ft_sched::Schedule, ft_sched::Theorem1Stats),
    sim: RunReport,
    online: ft_sched::OnlineResult,
    shard: Result<ShardRunReport, ft_shard::ShardError>,
}

fn run_untraced(ft: &FatTree, job: &MessageSet, rng: &mut SplitMix64) -> Untraced {
    let cfg = SimConfig::default();
    let t = Instant::now();
    let sched = schedule_theorem1(ft, job);
    let s0 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = run_to_completion(ft, job, &cfg);
    let s1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let online = route_online(ft, job, rng, OnlineConfig::default());
    let s2 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shard = run_sharded(ft, job, &shard_cfg());
    let s3 = t.elapsed().as_secs_f64();
    Untraced {
        secs: [s0, s1, s2, s3],
        sched,
        sim,
        online,
        shard,
    }
}

/// Output checks, outside every timed region. Counts one op per entry
/// point; a failed check fails its op.
fn check(ft: &FatTree, job: &MessageSet, u: &mut Untraced, inject: bool, tally: &mut Tally) {
    let m = job.len();
    let (sched, st) = &u.sched;
    let ok = st.total_cycles == sched.num_cycles()
        && st.total_cycles <= st.paper_bound(ft)
        && sched.validate(ft, job).is_ok();
    let ok = tally.check(ok, || {
        format!(
            "schedule_theorem1: {} cycles against bound {} or an invalid schedule",
            st.total_cycles,
            st.paper_bound(ft)
        )
    });
    tally.op(ok);

    let sim = &u.sim;
    let mut order = sim.delivery_order.clone();
    order.sort_unstable();
    let ok = sim.delivered_per_cycle.iter().sum::<usize>() == m
        && sim.cycles == sim.delivered_per_cycle.len()
        && order.iter().enumerate().all(|(i, &x)| i == x);
    let ok = tally.check(ok, || {
        "run_to_completion lost or duplicated messages".into()
    });
    tally.op(ok);

    let on = &u.online;
    let ok = !on.truncated && on.total_delivered() == m;
    let ok = tally.check(ok, || {
        format!(
            "route_online delivered {} of {m} (truncated: {})",
            on.total_delivered(),
            on.truncated
        )
    });
    tally.op(ok);

    if inject {
        if let Ok(r) = u.shard.as_mut() {
            r.run.total_ticks += 1;
        }
    }
    let ok = match &u.shard {
        Ok(r) => r.run == u.sim,
        Err(_) => false,
    };
    let ok = tally.check(ok, || match &u.shard {
        Ok(_) => "run_sharded differs from run_to_completion".into(),
        Err(e) => format!("run_sharded failed: {e}"),
    });
    tally.op(ok);
}

/// Σ(live − delivered) over the cycles of a run: messages sent again.
fn resends(m: usize, dpc: &[usize]) -> u64 {
    let mut live = m as u64;
    let mut sum = 0;
    for &d in dpc {
        sum += live - d as u64;
        live -= d as u64;
    }
    sum
}

/// Benchmark-owned recorder: stamps the clock only at phase transitions
/// (cycle boundaries, the first Theorem 1 split) and tallies counts.
struct PhaseRec {
    first_cycle: Option<Instant>,
    open: Option<Instant>,
    last_end: Option<Instant>,
    cycle_ns: Vec<f64>,
    live_sum: u64,
    first_split: Option<Instant>,
    buckets: u64,
    claimed: u64,
    blocked: u64,
    wasted: u64,
}

impl PhaseRec {
    fn new() -> Self {
        PhaseRec {
            first_cycle: None,
            open: None,
            last_end: None,
            cycle_ns: Vec::new(),
            live_sum: 0,
            first_split: None,
            buckets: 0,
            claimed: 0,
            blocked: 0,
            wasted: 0,
        }
    }

    fn cycle_total_s(&self) -> f64 {
        self.cycle_ns.iter().sum::<f64>() / 1e9
    }
}

impl Recorder for PhaseRec {
    fn cycle_start(&mut self, _cycle: u32, live: u32) {
        let now = Instant::now();
        self.first_cycle.get_or_insert(now);
        self.open = Some(now);
        self.live_sum += live as u64;
    }

    fn cycle_end(&mut self, _cycle: u32, _delivered: u32) {
        let now = Instant::now();
        if let Some(o) = self.open.take() {
            self.cycle_ns.push((now - o).as_nanos() as f64);
        }
        self.last_end = Some(now);
    }

    fn bucket_split(&mut self, _level: u32, _size: u32, _parts: u32) {
        if self.first_split.is_none() {
            self.first_split = Some(Instant::now());
        }
        self.buckets += 1;
    }

    fn wire_claims(&mut self, _c: u32, _l: u32, claimed: u64, blocked: u64, wasted: u64) {
        self.claimed += claimed;
        self.blocked += blocked;
        self.wasted += wasted;
    }
}

/// Per-layer samples gathered by the traced run.
#[derive(Default)]
struct LayerSamples {
    /// By metric name: one sample per job (medians are reported).
    per_job: BTreeMap<&'static str, Vec<f64>>,
    /// Traced op times (s), by op, for `trace.overhead`.
    traced: [Vec<f64>; 4],
    /// Cycle durations pooled over jobs (µs), by op.
    cycle_us: BTreeMap<&'static str, Vec<f64>>,
    shard_retries: u64,
}

impl LayerSamples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.per_job.entry(name).or_default().push(v);
    }
}

/// Run the four ops traced on `job`, recording per-layer samples and
/// job → op → phase spans.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    ft: &FatTree,
    job: &MessageSet,
    rng: &mut SplitMix64,
    untraced_secs: &[f64; 4],
    fixed: bool,
    ls: &mut LayerSamples,
    sim_vals: &mut BTreeMap<String, f64>,
    spans: &mut Spans,
    job_span: SpanId,
) {
    // Theorem 1: λ tally until the first bucket split, then splitting.
    let mut rec = PhaseRec::new();
    let t0 = Instant::now();
    SchedArena::new(ft).schedule_with(ft, job, 1, &mut rec);
    let t1 = Instant::now();
    let split_at = rec.first_split.unwrap_or(t1);
    ls.traced[0].push((t1 - t0).as_secs_f64());
    ls.push("sched.tally_ms", (split_at - t0).as_secs_f64() * 1e3);
    ls.push("sched.split_ms", (t1 - split_at).as_secs_f64() * 1e3);
    let op = spans.add("schedule_theorem1", job_span, t0, t1);
    spans.add("tally", op, t0, split_at);
    spans.add("split", op, split_at, t1);
    if fixed {
        *sim_vals.entry("sched.buckets".into()).or_default() += rec.buckets as f64;
    }

    // Delivery cycles: ingest until the first cycle, then cycles and the
    // settle/retry gaps between them.
    let mut rec = PhaseRec::new();
    let t0 = Instant::now();
    run_to_completion_with(ft, job, &SimConfig::default(), &mut rec);
    let t1 = Instant::now();
    let first = rec.first_cycle.unwrap_or(t1);
    ls.traced[1].push((t1 - t0).as_secs_f64());
    ls.push("sim.ingest_ms", (first - t0).as_secs_f64() * 1e3);
    ls.push(
        "sim.settle_ms",
        ((t1 - first).as_secs_f64() - rec.cycle_total_s()) * 1e3,
    );
    ls.push(
        "sim.ns_per_msg_cycle",
        untraced_secs[1] * 1e9 / rec.live_sum.max(1) as f64,
    );
    ls.cycle_us
        .entry("sim")
        .or_default()
        .extend(rec.cycle_ns.iter().map(|ns| ns / 1e3));
    let op = spans.add("run_to_completion", job_span, t0, t1);
    spans.add("ingest", op, t0, first);
    spans.add("cycles", op, first, rec.last_end.unwrap_or(t1));
    spans.add("finish", op, rec.last_end.unwrap_or(t1), t1);

    // On-line routing: claim/settle rounds per cycle.
    let mut rec = PhaseRec::new();
    let t0 = Instant::now();
    OnlineArena::new(ft).route_with(ft, job, rng, OnlineConfig::default(), &mut rec);
    let t1 = Instant::now();
    ls.traced[2].push((t1 - t0).as_secs_f64());
    ls.cycle_us
        .entry("online")
        .or_default()
        .extend(rec.cycle_ns.iter().map(|ns| ns / 1e3));
    let op = spans.add("route_online", job_span, t0, t1);
    let first = rec.first_cycle.unwrap_or(t1);
    spans.add("setup", op, t0, first);
    spans.add("cycles", op, first, rec.last_end.unwrap_or(t1));
    if fixed {
        for (k, v) in [
            ("online.claimed", rec.claimed as f64),
            ("online.blocked", rec.blocked as f64),
            ("online.wasted", rec.wasted as f64),
        ] {
            *sim_vals.entry(k.into()).or_default() += v;
        }
    }

    // Sharded: the coordinator's own barrier/merge/top counters plus the
    // shards' self-reported compute.
    let mut rec = PhaseRec::new();
    let t0 = Instant::now();
    let res = run_sharded_with(ft, job, &shard_cfg(), &mut rec);
    let t1 = Instant::now();
    ls.traced[3].push((t1 - t0).as_secs_f64());
    ls.cycle_us
        .entry("shard")
        .or_default()
        .extend(rec.cycle_ns.iter().map(|ns| ns / 1e3));
    let op = spans.add("run_sharded", job_span, t0, t1);
    let first = rec.first_cycle.unwrap_or(t1);
    spans.add("load", op, t0, first);
    spans.add("cycles", op, first, rec.last_end.unwrap_or(t1));
    if let Ok(r) = res {
        shard_samples(&r.stats, ls, fixed, sim_vals);
    }
    ls.push("shard.vs_single", untraced_secs[3] / untraced_secs[1]);
}

fn shard_samples(
    s: &ShardRunStats,
    ls: &mut LayerSamples,
    fixed: bool,
    sim_vals: &mut BTreeMap<String, f64>,
) {
    ls.push("shard.barrier_wait_ms", s.barrier_wait_ns as f64 / 1e6);
    ls.push("shard.merge_ms", s.merge_ns as f64 / 1e6);
    ls.push("shard.top_ms", s.top_ns as f64 / 1e6);
    let compute: Vec<f64> = s
        .shard_up_ns
        .iter()
        .zip(&s.shard_down_ns)
        .map(|(u, d)| (u + d) as f64 / 1e6)
        .collect();
    let max = compute.iter().cloned().fold(0.0, f64::max);
    let mean = compute.iter().sum::<f64>() / compute.len().max(1) as f64;
    ls.push("shard.compute_ms.max", max);
    ls.push("shard.imbalance", if mean > 0.0 { max / mean } else { 1.0 });
    ls.shard_retries += s.retries + s.checksum_rejects + s.duplicates;
    if fixed {
        *sim_vals.entry("shard.frames".into()).or_default() +=
            (s.frames_sent + s.frames_received) as f64;
        *sim_vals.entry("shard.words".into()).or_default() +=
            (s.words_sent + s.words_received) as f64;
    }
}

/// Run the engine half: set-up rounds, then jobs until `budget` has passed
/// (and at least the workload's fixed jobs have run).
#[allow(clippy::too_many_arguments)]
pub fn run(
    wl: &Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
    inject: Inject,
    tally: &mut Tally,
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> EngineOut {
    // Set-up: tree (or embedding) build plus one warm-up job through all
    // four ops. The warm-up job is generated before the clock starts.
    let warm_real = engine_job(wl, seed, u64::MAX);
    let mut setups = Vec::new();
    let mut machine = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let m = Machine::build(wl);
        let warm = map_job(&m, &warm_real);
        let u = run_untraced(&m.tree, &warm, &mut online_rng(seed, u64::MAX));
        drop(u);
        setups.push(t.elapsed().as_secs_f64());
        machine = Some(m);
    }
    let machine = machine.expect("at least one set-up round");
    let ft = &machine.tree;

    let mut op_secs: [Vec<f64>; 4] = Default::default();
    let mut map_ms = Vec::new();
    let mut ls = LayerSamples::default();
    let mut sim_vals: BTreeMap<String, f64> = BTreeMap::new();
    let mut msgs_per_job = 0usize;
    let start = Instant::now();
    let mut i = 0u64;
    while (i as usize) < wl.fixed_jobs || start.elapsed() < budget {
        let fixed = (i as usize) < wl.fixed_jobs;
        let real = engine_job(wl, seed, i);
        let t = Instant::now();
        let job = map_job(&machine, &real);
        map_ms.push(t.elapsed().as_secs_f64() * 1e3);
        msgs_per_job = job.len();

        let job_t0 = Instant::now();
        let mut u = run_untraced(ft, &job, &mut online_rng(seed, i));
        for (k, s) in u.secs.iter().enumerate() {
            op_secs[k].push(*s);
        }
        if fixed {
            for (k, v) in [
                ("lambda", u.sched.1.load_factor),
                ("schedule.cycles", u.sched.1.total_cycles as f64),
                ("simulate.cycles", u.sim.cycles as f64),
                (
                    "simulate.resends",
                    resends(job.len(), &u.sim.delivered_per_cycle) as f64,
                ),
                ("online.cycles", u.online.cycles as f64),
            ] {
                *sim_vals.entry(k.into()).or_default() += v;
            }
        }
        if traced {
            let job_span = spans.add("job", 0, job_t0, Instant::now());
            run_traced(
                ft,
                &job,
                &mut online_rng(seed, i),
                &u.secs,
                fixed,
                &mut ls,
                &mut sim_vals,
                spans,
                job_span,
            );
            spans.extend_end(job_span, Instant::now());
        }
        check(
            ft,
            &job,
            &mut u,
            inject == Inject::ShardMismatch && i == 0,
            tally,
        );
        i += 1;
    }

    let msgs = msgs_per_job as f64;
    for (k, op) in OPS.iter().enumerate() {
        metrics.set(
            format!("{op}.msgs_per_s"),
            msgs / quantile(&op_secs[k], OP_QUANTILE),
        );
    }
    let lam = sim_vals["lambda"];
    for op in ["schedule", "simulate", "online"] {
        metrics.set(
            format!("{op}.cycles_per_lambda"),
            sim_vals[&format!("{op}.cycles")] / lam,
        );
    }
    let fixed = wl.fixed_jobs as f64;
    metrics.set("topology.map_ms", median(&map_ms));
    metrics.set(
        "topology.padding",
        machine
            .emb
            .as_ref()
            .map_or(1.0, |e| e.padded_n() as f64 / e.leaves() as f64),
    );
    if traced {
        for (name, v) in &ls.per_job {
            metrics.set(*name, median(v));
        }
        for (layer, v) in &ls.cycle_us {
            metrics.set(format!("{layer}.cycle_us.p50"), quantile(v, 0.5));
        }
        for (name, key) in [
            ("sched.buckets", "sched.buckets"),
            ("sched.cycles", "schedule.cycles"),
            ("sim.cycles", "simulate.cycles"),
            ("sim.resends", "simulate.resends"),
            ("online.cycles", "online.cycles"),
            ("online.claimed", "online.claimed"),
            ("online.blocked", "online.blocked"),
            ("shard.frames", "shard.frames"),
            ("shard.words", "shard.words"),
        ] {
            metrics.set(name, sim_vals[key] / fixed);
        }
        metrics.set(
            "online.wasted_ratio",
            sim_vals["online.wasted"] / sim_vals["online.claimed"].max(1.0),
        );
        metrics.set("shard.retries", ls.shard_retries as f64);
        for (k, op) in OPS.iter().enumerate() {
            metrics.set(
                format!("trace.overhead.{op}"),
                median(&ls.traced[k]) / median(&op_secs[k]),
            );
        }
    }
    EngineOut {
        setup_s: median(&setups),
        simulated: sim_vals,
    }
}

/// A job in the engine tree's leaf ids: pod jobs go through the
/// embedding's map once, everything else is already binary.
fn map_job<'a>(m: &Machine, real: &'a MessageSet) -> Cow<'a, MessageSet> {
    match &m.emb {
        Some(e) => Cow::Owned(e.map_set(real)),
        None => Cow::Borrowed(real),
    }
}
