//! `boe-e2ebench` — the end-to-end enrichment benchmark.
//!
//! ```text
//! boe-e2ebench --workload <extract|enrich|senses|link> --seed <n> \
//!              --seconds <n> --trace <0|1> [--record]
//! ```
//!
//! Generates the workload's inputs from the seed (untimed), then drives
//! the library the way a user does: raw text through
//! `CorpusBuilder::add_texts`, then the public API of each step. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate traced run.
//! A details line before it records the host, the checks and the tail
//! percentile. `--record` prints the values the output checks compare
//! against, for `expected.txt`. See `README.md`.

mod fingerprint;
mod inputs;
mod replay;
mod stats;
mod trace;
mod workloads;

use inputs::{Inputs, Workload};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Check, Recorded};

/// Per-layer metric names, in the order `BENCHMARK.json` lists them.
const LAYER_METRICS: [&str; 27] = [
    "corpus.ingest_ms",
    "corpus.docs",
    "corpus.tokens",
    "termex.extract_ms",
    "termex.candidates",
    "termex.rank_lidf_ms",
    "termex.rank_tergraph_ms",
    "occurrence.build_ms",
    "polysemy.context_ms",
    "polysemy.train_features_ms",
    "polysemy.train_rows",
    "polysemy.train_positives",
    "polysemy.fit_ms",
    "polysemy.detect_busy_ms",
    "polysemy.flagged",
    "senses.setup_ms",
    "senses.induce_busy_ms",
    "senses.contexts",
    "senses.k_sweeps",
    "linkage.setup_ms",
    "linkage.inventory_terms",
    "linkage.propose_busy_ms",
    "linkage.propositions",
    "pipeline.fanout_wall_ms",
    "pipeline.fanout_efficiency",
    "pipeline.unaccounted_ms",
    "trace.overhead_ms",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: boe-e2ebench --workload <extract|enrich|senses|link> --seed <n> \
                     --seconds <n> --trace <0|1> [--record]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        record,
    })
}

/// The values recorded in `expected.txt` for one workload and seed.
/// Lines read `<workload> <seed> <check> <value>`, where a seed of `*`
/// matches every seed; `#` starts a comment.
fn recorded(workload: Workload, seed: u64) -> Recorded {
    include_str!("../expected.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, s, name, value]
                    if *w == workload.name() && (*s == "*" || s.parse() == Ok(seed)) =>
                {
                    Some(((*name).to_owned(), (*value).to_owned()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"recorded\":{},\"first\":{},\"mismatches\":{}}}",
                json_str(c.name),
                c.recorded.as_deref().map_or("null".to_owned(), json_str),
                c.first.as_deref().map_or("null".to_owned(), json_str),
                c.mismatches
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    // `+ 0.0` prints an empty sum (-0.0) as 0.
    let value = value + 0.0;
    format!(
        "{}:{{\"value\":{value},\"unit\":{}}}",
        json_str(name),
        json_str(unit)
    )
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("efficiency") {
        "ratio"
    } else {
        "count"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("boe-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Injected stalls and panics would poison every timing.
    if boe_chaos::is_enabled() {
        eprintln!("boe-e2ebench: a chaos plan is armed (BOE_CHAOS); unset it or set BOE_CHAOS=off");
        return ExitCode::from(3);
    }
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = boe_par::threads();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let rec = recorded(args.workload, args.seed);

    let t = Instant::now();
    let inp = Inputs::generate(args.workload, args.seed);
    let generate_s = t.elapsed().as_secs_f64();

    if args.record {
        let m = workloads::measure(&inp, f64::MIN_POSITIVE, &Recorded::new());
        let c = &m.checks[0];
        println!(
            "{} {} {} {}",
            args.workload.name(),
            args.seed,
            c.name,
            c.first.as_deref().unwrap_or("none")
        );
        return if m.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut details = vec![
        format!("\"workload\":{}", json_str(args.workload.name())),
        format!("\"seed\":{}", args.seed),
        format!("\"trace\":{}", args.trace),
        format!("\"nproc\":{nproc}"),
        format!("\"threads\":{threads}"),
        format!("\"commit\":{}", json_str(&env("E2EBENCH_COMMIT"))),
        format!("\"rustc\":{}", json_str(&env("E2EBENCH_RUSTC"))),
        format!("\"generate_s\":{generate_s}"),
        format!("\"recorded_seed\":{}", !rec.is_empty()),
    ];
    let (attempted, failed, checks, metrics) = if args.trace {
        let tr = workloads::trace(&inp, args.seconds, &rec, threads);
        details.push(format!("\"pairs\":{}", tr.pairs));
        details.push(format!("\"spans\":{}", tr.trace_json));
        let metrics: Vec<String> = LAYER_METRICS
            .iter()
            .map(|&n| metric(n, tr.layers.get(n).copied().unwrap_or(0.0), layer_unit(n)))
            .collect();
        (tr.attempted, tr.failed, tr.checks, metrics)
    } else {
        let m = workloads::measure(&inp, args.seconds, &rec);
        let setup_s = stats::median(&m.setup_s);
        let run_s = stats::median(&m.run_s);
        let per_run = m.queries_per_run as f64;
        let throughput: Vec<f64> = m.run_s.iter().map(|s| per_run / s).collect();
        let p50 = stats::median(&m.query_ms);
        // The latency tail metric is p95 where at least 10 samples lie
        // beyond it, else the highest percentile that has them, else the
        // median.
        let p95 = stats::tail(&m.query_ms, 95.0);
        let tail = |t: Option<stats::Tail>| {
            t.map_or("null".to_owned(), |t| {
                format!(
                    "{{\"pct\":{},\"value_ms\":{},\"beyond\":{},\"samples\":{}}}",
                    t.pct, t.value, t.beyond, t.samples
                )
            })
        };
        details.push(format!("\"docs\":{},\"tokens\":{}", m.docs, m.tokens));
        details.push(format!(
            "\"setups\":{},\"runs\":{},\"queries\":{}",
            m.setup_s.len(),
            m.run_s.len(),
            m.query_ms.len()
        ));
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        details.push(format!("\"setup_samples_s\":[{}]", list(&m.setup_s)));
        details.push(format!("\"run_samples_s\":[{}]", list(&m.run_s)));
        details.push(format!(
            "\"query_tail\":{},\"query_p95_from\":{}",
            tail(stats::tail(&m.query_ms, 100.0)),
            tail(p95)
        ));
        let quality = m
            .quality
            .map_or(String::new(), |(k, v)| format!("{}:{v}", json_str(k)));
        details.push(format!("\"quality\":{{{quality}}}"));
        let metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("run_s", run_s, "s"),
            metric("tokens_per_s", m.tokens as f64 / (setup_s + run_s), "1/s"),
            metric("queries_per_s", stats::median(&throughput), "1/s"),
            metric("query_p50_ms", p50, "ms"),
            metric("query_p95_ms", p95.map_or(p50, |t| t.value), "ms"),
            metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        ];
        (m.attempted, m.failed, m.checks, metrics)
    };
    let correct = failed == 0 && checks.iter().all(|c| c.mismatches == 0);
    details.push(format!("\"checks\":{}", checks_json(&checks)));
    details.push(format!("\"total_s\":{}", started.elapsed().as_secs_f64()));
    println!("{{\"details\":{{{}}}}}", details.join(","));
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer metrics printed are the ones `BENCHMARK.json` lists,
    /// in its order and with its units.
    #[test]
    fn layer_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
        };
        let listed: Vec<(String, String)> = per_layer
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        let printed: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|n| (n.to_string(), layer_unit(n).to_owned()))
            .collect();
        assert_eq!(listed, printed);
    }

    #[test]
    fn arguments_are_validated() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let a = args("--workload link --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Link, 7, 3.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload link --seed 1 --trace 2").is_err());
        assert!(args("--workload link --seed 1 --seconds 0").is_err());
        assert!(args("--workload link").is_err());
        assert!(args("--workload link --seed 1 --bogus 1").is_err());
    }
}
