//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <bulk_uniform|pod_incast|serve_small> --seed <n>
//!           --seconds <s> --trace <0|1> --ftsim <path to ftsim>
//!           [--out <dir>] [--tiny 1] [--inject shard-mismatch|corrupt-response]
//!           [--rustc <version>] [--git-rev <rev>] [--date <iso>]
//! ```
//!
//! Every run has an engine half (the four engine entry points on the
//! workload's jobs, three quarters of `--seconds`) and a serve half
//! (`ftsim serve` under paced open-loop traffic). The last stdout line is
//! the result object; the line before it is the run's provenance. A fuller
//! report, and for traced runs the spans, are written under `--out`.

mod engine;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use engine::Inject;
use report::{jstr, num, per_layer, Metrics, Tally, END_TO_END};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Spans;
use workload::{Workload, WORKLOADS};

/// Share of `--seconds` the engine half measures; the serve half's fixed
/// steps take about 5 s untraced (plus windows the generator ran late in).
const ENGINE_SHARE: f64 = 0.75;

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --ftsim <path>",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: HashMap<String, String> = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(k[2..].to_string(), v.clone());
            }
            _ => usage(&format!("bad arguments near {pair:?}")),
        }
    }
    let get = |k: &str| opts.get(k).map(String::as_str);
    let need = |k: &str| get(k).unwrap_or_else(|| usage(&format!("--{k} is required")));
    let tiny = get("tiny") == Some("1");
    let wl = Workload::named(need("workload"), tiny)
        .unwrap_or_else(|| usage(&format!("unknown workload {}", need("workload"))));
    let seed: u64 = need("seed").parse().unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = need("seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("bad --seconds"));
    let traced = match need("trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let ftsim = PathBuf::from(need("ftsim"));
    let out_dir = PathBuf::from(get("out").unwrap_or(".bench_out"));
    let inject = match get("inject").unwrap_or("none") {
        "none" => Inject::None,
        "shard-mismatch" => Inject::ShardMismatch,
        "corrupt-response" => Inject::CorruptResponse,
        other => usage(&format!("unknown --inject {other}")),
    };

    let epoch = Instant::now();
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut spans = Spans::new(epoch);

    let eng = engine::run(
        &wl,
        seed,
        Duration::from_secs_f64(seconds * ENGINE_SHARE),
        traced,
        inject,
        &mut tally,
        &mut metrics,
        &mut spans,
    );
    let plan = serve::Plan::new(&wl.serve, traced, tiny);
    let srv = serve::run(
        &ftsim,
        &wl,
        seed,
        &plan,
        traced,
        inject,
        &mut metrics,
        &mut spans,
    )
    .unwrap_or_else(|e| {
        eprintln!("perfbench: serve half failed: {e}");
        exit(1)
    });

    tally.attempted += srv.attempted;
    tally.failed += srv.failed;
    if srv.mismatches > 0 {
        tally.check_failures.push(format!(
            "{} served responses differ from solo_schedule_frame",
            srv.mismatches
        ));
    }
    metrics.set("setup_s", eng.setup_s + srv.setup_s);
    let own_rss = serve::vm_hwm_mb("/proc/self/status").unwrap_or(0.0);
    metrics.set(
        "peak_rss_mb",
        if wl.name == "serve_small" {
            srv.server_rss_mb
        } else {
            own_rss
        },
    );
    metrics.set(
        "ok_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
    );

    let sim_file = out_dir.join(format!(
        "simulated-{}-{seed}{}.json",
        wl.name,
        if tiny { "-tiny" } else { "" }
    ));
    if let Err(why) = check_simulated(&sim_file, &eng.simulated) {
        tally.check_failures.push(why);
    }

    let provenance = provenance(&opts, traced, seconds, &wl, seed);
    let wanted: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let rendered = metrics.render(&wanted);
    let correct = tally.check_failures.is_empty();
    for f in &tally.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let stem = format!("{}-seed{seed}-trace{}", wl.name, traced as u8);
    let report = format!(
        "{{\"provenance\":{provenance},\"correct\":{correct},\"attempted\":{},\"failed\":{},\
         \"check_failures\":[{}],\"serve_steps\":[{}],\"simulated\":{},\"all_metrics\":{{{}}}}}\n",
        tally.attempted,
        tally.failed,
        tally
            .check_failures
            .iter()
            .map(|s| jstr(s))
            .collect::<Vec<_>>()
            .join(","),
        srv.steps_json.join(","),
        json_map(&eng.simulated),
        metrics
            .0
            .iter()
            .map(|(k, v)| format!(
                "{}:{}",
                jstr(k),
                if v.is_finite() {
                    num(*v)
                } else {
                    "null".into()
                }
            ))
            .collect::<Vec<_>>()
            .join(","),
    );
    if let Err(e) = write_outputs(&out_dir, &stem, &report, traced, &spans, &srv.pages) {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
        exit(1);
    }

    let rendered = rendered.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    println!("{{\"provenance\":{provenance}}}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{rendered}}}",
        tally.attempted, tally.failed
    );
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{}", jstr(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Simulated metrics must repeat exactly for a seed: compare with the
/// values an earlier run of this workload and seed stored, then store the
/// union.
fn check_simulated(path: &Path, now: &BTreeMap<String, f64>) -> Result<(), String> {
    let mut all = now.clone();
    if let Ok(text) = std::fs::read_to_string(path) {
        let old = ft_bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let ft_bench::json::Value::Obj(fields) = old else {
            return Err(format!("{} is not an object", path.display()));
        };
        for (k, v) in fields {
            let v = v.as_num().unwrap_or(f64::NAN);
            match now.get(&k) {
                Some(cur) if num(*cur) != num(v) => {
                    return Err(format!(
                        "simulated {k} = {} differs from {} in an earlier run of this seed",
                        num(*cur),
                        num(v)
                    ))
                }
                Some(_) => {}
                None => {
                    all.insert(k, v);
                }
            }
        }
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, json_map(&all)).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_outputs(
    dir: &Path,
    stem: &str,
    report: &str,
    traced: bool,
    spans: &Spans,
    pages: &[(String, String)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{stem}.json")), report)?;
    if traced {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}-spans.jsonl")),
        )?);
        spans.write_jsonl(&mut f)?;
        std::io::Write::flush(&mut f)?;
        for (name, body) in pages {
            std::fs::write(dir.join(format!("{stem}-server-{name}")), body)?;
        }
    }
    Ok(())
}

/// Host and build facts every result carries.
fn provenance(
    opts: &HashMap<String, String>,
    traced: bool,
    seconds: f64,
    wl: &Workload,
    seed: u64,
) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let opt = |k: &str| opts.get(k).cloned().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{},\"traced\":{traced},\"nproc\":{nproc},\
         \"cpu\":{},\"rustc\":{},\"git_rev\":{},\"date\":{},\"serve_traffic\":\"loopback only (127.0.0.1)\"}}",
        jstr(wl.name),
        num(seconds),
        jstr(&cpu),
        jstr(&opt("rustc")),
        jstr(&opt("git-rev")),
        jstr(&opt("date")),
    )
}
