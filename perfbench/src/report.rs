//! Metric names and units (mirrored by `BENCHMARK.json`; the self-test
//! checks the two agree) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by untraced runs.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("schedule.msgs_per_s", "msg/s"),
    ("simulate.msgs_per_s", "msg/s"),
    ("online.msgs_per_s", "msg/s"),
    ("schedule.cycles_per_lambda", "ratio"),
    ("simulate.cycles_per_lambda", "ratio"),
    ("online.cycles_per_lambda", "ratio"),
    ("serve.p50_us.low", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

const LAYER_FIXED: [(&str, &str); 37] = [
    ("sim.ingest_ms", "ms"),
    ("sim.cycle_us.p50", "us"),
    ("sim.settle_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.resends", "count"),
    ("sim.ns_per_msg_cycle", "ns"),
    ("sched.tally_ms", "ms"),
    ("sched.split_ms", "ms"),
    ("sched.buckets", "count"),
    ("sched.cycles", "count"),
    ("online.cycle_us.p50", "us"),
    ("online.cycles", "count"),
    ("online.claimed", "count"),
    ("online.blocked", "count"),
    ("online.wasted_ratio", "ratio"),
    ("shard.msgs_per_s", "msg/s"),
    ("shard.cycle_us.p50", "us"),
    ("shard.barrier_wait_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.top_ms", "ms"),
    ("shard.compute_ms.max", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.frames", "count"),
    ("shard.words", "count"),
    ("shard.retries", "count"),
    ("shard.vs_single", "ratio"),
    ("topology.map_ms", "ms"),
    ("topology.padding", "ratio"),
    ("serve.p99_us.low", "us"),
    ("serve.p50_us.high", "us"),
    ("serve.p99_us.high", "us"),
    ("serve.max_rps", "req/s"),
    ("gen.late_us.p99", "us"),
    ("trace.overhead.schedule", "ratio"),
    ("trace.overhead.simulate", "ratio"),
    ("trace.overhead.online", "ratio"),
    ("trace.overhead.shard", "ratio"),
];

/// Serve pipeline stages as `/metrics.json` names them.
pub const STAGES: [&str; 6] = [
    "decode",
    "admit_wait",
    "batch_wait",
    "schedule",
    "encode",
    "wall",
];

pub const RATES: [&str; 2] = ["low", "high"];

/// Per-layer metrics: printed by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for rate in RATES {
        for stage in STAGES {
            for q in ["p50", "p99"] {
                v.push((format!("serve.{stage}_us.{q}.{rate}"), "us"));
            }
        }
        v.push((format!("serve.net_us.p50.{rate}"), "us"));
        v.push((format!("serve.batch_mean.{rate}"), "req"));
        v.push((format!("serve.busy_rejects.{rate}"), "count"));
        v.push((format!("serve.lambda_max.{rate}"), "ratio"));
    }
    v
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), v);
    }

    /// The `"metrics"` object over `wanted`, in the result line's shape. A
    /// metric the run could not measure is an error: the caller reports
    /// it as a failed run instead of printing a partial result.
    pub fn render(&self, wanted: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in wanted {
            let v = *self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            parts.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(v)
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Tallies of operations attempted and failed, and of output-check
/// failures (which also make the run incorrect).
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Record a failed output check (counted once as a failed op by the
    /// caller's [`Tally::op`]).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok && self.check_failures.len() < 32 {
            self.check_failures.push(what());
        }
        ok
    }
}
