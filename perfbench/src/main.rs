//! The repository's benchmark: four seeded workloads over the serving
//! stack, from `pt-feed` through `pt-timetable` / `pt-graph` to `pt-spcs`,
//! driven through the public API only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload o2a-uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload twice with the same seed, each for half the time: once
//! untraced, once traced. It reports the per-layer metrics of the traced
//! run and, as `overhead.*`, each end-to-end metric of the traced run minus
//! the untraced one. The last line of standard output is the result as one
//! JSON object; the lines before it are for people. Every answer class is
//! checked against an oracle outside the timed window.

mod common;
mod cross_shard;
mod feed;
mod feed_replay;
mod o2a;
mod s2s_live;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use common::{median, pct, Window, LAYERS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

const WORKLOADS: &[&str] = &["o2a-uniform", "s2s-live", "feed-replay", "cross-shard"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds =
                    value.parse::<f64>().map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One measured run: set-up time and the window.
struct Run {
    setup_s: f64,
    window: Window,
}

/// Builds the world and runs the window on it; then builds `setups - 1`
/// more worlds only to time them. `setup_s` is the median build time. The
/// extra builds come after the window so their freed memory cannot inflate
/// the window's memory high-water mark.
fn measure<W>(
    setups: usize,
    mut build: impl FnMut() -> W,
    window: impl FnOnce(W) -> Window,
) -> Run {
    let timed = |build: &mut dyn FnMut() -> W| {
        let start = Instant::now();
        let world = build();
        (start.elapsed().as_secs_f64(), world)
    };
    let (first, world) = timed(&mut build);
    let window = window(world);
    let mut secs = vec![first];
    for _ in 1..setups {
        secs.push(timed(&mut build).0);
    }
    Run { setup_s: median(&secs), window }
}

fn run(workload: &str, setups: usize, seed: u64, seconds: f64, traced: bool) -> Run {
    match workload {
        "o2a-uniform" => measure(setups, o2a::setup, |w| o2a::window(w, seed, seconds, traced)),
        "s2s-live" => {
            measure(setups, s2s_live::setup, |w| s2s_live::window(w, seed, seconds, traced))
        }
        "feed-replay" => {
            measure(setups, feed_replay::setup, |w| feed_replay::window(w, seed, seconds, traced))
        }
        _ => measure(setups, cross_shard::setup, |w| cross_shard::window(w, seed, seconds, traced)),
    }
}

fn end_to_end(r: &Run) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("op_p50_ms", "ms", pct(&r.window.op_ms, 50.0)),
        ("op_p90_ms", "ms", pct(&r.window.op_ms, 90.0)),
        ("ops_per_s", "1/s", r.window.ops_per_s()),
        ("setup_s", "s", r.setup_s),
        ("peak_rss_mib", "MiB", r.window.rss_mib),
    ]
}

fn print_human(workload: &str, label: &str, r: &Run) {
    let w = &r.window;
    println!("# {workload} ({label}): {} operations in {:.2} s", w.op_ms.len(), w.wall_s);
    for (name, unit, value) in &w.named {
        println!("  {name:<24} {value:>12.4} {unit}");
    }
    println!("  {:<24} {:>12.4} s", "setup_s", r.setup_s);
    println!("  {:<24} {:>12.4} MiB", "peak_rss_mib", r.window.rss_mib);
    let error_rate = w.failed as f64 / w.attempted.max(1) as f64;
    println!(
        "  {:<24} {:>12.6} ({} of {} operations)",
        "error_rate", error_rate, w.failed, w.attempted
    );
    for note in &w.notes {
        println!("  {note}");
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_traces(workload: &str, seed: u64, w: &Window) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let mut out = String::new();
    for t in &w.tracers {
        t.write_jsonl(&mut out);
    }
    let path = format!("{dir}/{workload}-seed{seed}.jsonl");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("  spans written to {path}"),
        Err(e) => eprintln!("could not write spans to {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics) = if !args.trace {
        let r = run(&args.workload, SETUPS, args.seed, args.seconds, false);
        print_human(&args.workload, "untraced", &r);
        (r.window.correct, r.window.attempted, r.window.failed, end_to_end(&r))
    } else {
        let half = args.seconds / 2.0;
        let plain = run(&args.workload, 1, args.seed, half, false);
        print_human(&args.workload, "untraced half", &plain);
        let traced = run(&args.workload, 1, args.seed, half, true);
        print_human(&args.workload, "traced half", &traced);
        let mut layers: BTreeMap<&str, f64> = LAYERS.iter().map(|&(n, _)| (n, 0.0)).collect();
        layers.extend(traced.window.layers.iter().map(|(&k, &v)| (k, v)));
        for ((name, _, t), (_, _, u)) in end_to_end(&traced).into_iter().zip(end_to_end(&plain)) {
            let key = LAYERS
                .iter()
                .find(|(n, _)| n.strip_prefix("overhead.") == Some(name))
                .expect("listed")
                .0;
            layers.insert(key, t - u);
        }
        println!("# per-layer metrics (traced half)");
        let metrics: Vec<(&str, &str, f64)> =
            LAYERS.iter().map(|&(n, unit)| (n, unit, layers[n])).collect();
        for (name, unit, v) in &metrics {
            println!("  {name:<32} {v:>14.4} {unit}");
        }
        write_traces(&args.workload, args.seed, &traced.window);
        let (p, t) = (&plain.window, &traced.window);
        (p.correct && t.correct, p.attempted + t.attempted, p.failed + t.failed, metrics)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
