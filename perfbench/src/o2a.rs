//! `o2a-uniform`: read only. One closed-loop client issues
//! `ShardedService::one_to_all` from uniformly drawn global sources over
//! Oahu-, Germany- and Metro-like shards, with `threads(nproc)` engines, no
//! cache and no tables — the paper's query (§3).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_core::StationId;
use pt_spcs::{time_query, Network, PartitionStrategy, ProfileEngine, ProfileSet, ShardedService};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{mean, median, nproc, pct, permutation, ratio, Window};
use crate::trace::Tracer;
use crate::world;

/// Preset scale: 40 / 71 / 400 stations, Metro with 140k connections.
pub const SCALE: f64 = 0.1;
/// Every this many queries one answer is kept for the oracle.
const SAMPLE_EVERY: usize = 23;
const MAX_SAMPLES: usize = 12;

pub fn setup() -> ShardedService {
    let nets = world::presets(SCALE).into_iter().map(Network::new).collect();
    ShardedService::builder().threads(nproc()).build(nets)
}

/// Per-query figures of the traced run's own engine calls.
#[derive(Default)]
struct ReadLayers {
    search_p_ms: Vec<f64>,
    search_1_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    balance: Vec<f64>,
    imbalance: Vec<f64>,
    settled: Vec<f64>,
    useful: Vec<f64>,
    relaxed: Vec<f64>,
    bucket_phases: Vec<f64>,
    lane_chunks: Vec<f64>,
    masked_prunes: Vec<f64>,
}

pub fn window(svc: ShardedService, seed: u64, seconds: f64, traced: bool) -> Window {
    let mut rng = StdRng::seed_from_u64(seed);
    // Uniform without replacement: a seeded permutation of all global
    // stations, cycled.
    let order = permutation(&mut rng, svc.num_stations());
    let mut w = Window { correct: true, ..Window::default() };
    let mut samples: Vec<(StationId, Arc<ProfileSet>)> = Vec::new();
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer::new("client", origin));
    let p = nproc();
    let engine_p = ProfileEngine::new().threads(p);
    let engine_1 = ProfileEngine::new();
    let mut layers = ReadLayers::default();

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < end {
        let source = StationId(order[i % order.len()]);
        w.attempted += 1;
        let answer = match tracer.as_mut() {
            None => {
                let t0 = Instant::now();
                let r = svc.one_to_all(source);
                w.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r.map(|r| r.value).map_err(|e| e.to_string())
            }
            Some(tr) => {
                traced_query(&svc, tr, i as u64, source, &engine_p, &engine_1, &mut layers, &mut w)
            }
        };
        match answer {
            Ok(set) => {
                if i.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
                    samples.push((source, set));
                }
            }
            Err(e) => w.fail(format!("one_to_all({source}): {e}")),
        }
        i += 1;
    }
    w.close(start);

    for (source, set) in &samples {
        if let Err(e) = oracle(&svc, *source, set) {
            w.fail(e);
        }
    }
    w.named = vec![
        ("query_p50_ms".into(), "ms", pct(&w.op_ms, 50.0)),
        ("query_p90_ms".into(), "ms", pct(&w.op_ms, 90.0)),
        ("queries_per_s".into(), "1/s", w.ops_per_s()),
    ];
    if let Some(tr) = tracer {
        let selfs = tr.self_times();
        let l = &layers;
        let total_p: f64 = l.search_p_ms.iter().sum();
        let ins = [
            ("shard.locate_ns", median(selfs.get("shard.locate").map_or(&[][..], |v| v))),
            ("network.pin_ns", median(selfs.get("network.pin").map_or(&[][..], |v| v))),
            ("parallel.search_ms", median(&l.search_p_ms)),
            ("parallel.merge_ms", median(&l.merge_ms)),
            ("parallel.merge_share", ratio(l.merge_ms.iter().sum(), total_p)),
            ("parallel.thread_balance", mean(&l.balance)),
            ("parallel.speedup", ratio(l.search_1_ms.iter().sum(), total_p)),
            ("kernel.settled", mean(&l.settled)),
            ("kernel.self_pruned_ratio", ratio(l.useful.iter().sum(), l.settled.iter().sum())),
            ("kernel.relaxed", mean(&l.relaxed)),
            ("kernel.bucket_phases", mean(&l.bucket_phases)),
            ("kernel.lane_chunks", mean(&l.lane_chunks)),
            ("kernel.masked_prunes", mean(&l.masked_prunes)),
            ("partition.imbalance", mean(&l.imbalance)),
        ];
        w.layers.extend(ins);
        w.notes.push(format!(
            "Table 1 setting (paper: Oahu/Germany/Europe, p = 1..8, equal-connections partition): \
             parallel.speedup p=1 -> p={p} = {:.3} over {} sources, interleaved per source",
            w.layers["parallel.speedup"],
            l.search_p_ms.len()
        ));
        w.tracers.push(tr);
    }
    w
}

/// One traced query: the service call is the end-to-end operation; the
/// spans around it split it into directory lookup, snapshot pin, the
/// parallel search (with its §3.2 merge), the p = 1 reference and the
/// partition of `conn(S)`.
#[allow(clippy::too_many_arguments)]
fn traced_query(
    svc: &ShardedService,
    tr: &mut Tracer,
    req: u64,
    source: StationId,
    engine_p: &ProfileEngine,
    engine_1: &ProfileEngine,
    l: &mut ReadLayers,
    w: &mut Window,
) -> Result<Arc<ProfileSet>, String> {
    let root = tr.open("request", req);
    let out = (|| {
        let (located, _) = tr.span("shard.locate", req, || svc.locate(source));
        let (shard, local) = located.map_err(|e| e.to_string())?;
        let (answer, id) = tr.span("service.one_to_all", req, || svc.one_to_all(source));
        w.op_ms.push(tr.dur_ns(id) as f64 / 1e6);
        let answer = answer.map_err(|e| e.to_string())?.value;
        let (snap, _) = tr.span("network.pin", req, || svc.network(shard));
        let snap = snap.map_err(|e| e.to_string())?;
        // Alternate which configuration runs first, so neither always
        // inherits the other's warm caches.
        let run_p = |tr: &mut Tracer| {
            let (r, id) =
                tr.span("parallel.search", req, || engine_p.one_to_all_with_stats(&snap, local));
            tr.inner(id, "parallel.merge", r.stats.merge_ns);
            (r, tr.dur_ns(id))
        };
        let run_1 = |tr: &mut Tracer| {
            let (r, id) =
                tr.span("parallel.search_p1", req, || engine_1.one_to_all_with_stats(&snap, local));
            (r, tr.dur_ns(id))
        };
        let ((rp, p_ns), (_, one_ns)) = if req.is_multiple_of(2) {
            let a = run_p(tr);
            (a, run_1(tr))
        } else {
            let b = run_1(tr);
            (run_p(tr), b)
        };
        if rp.profiles != answer {
            return Err(format!(
                "engine on the pinned snapshot disagrees with the service from {source}"
            ));
        }
        let p = nproc();
        let period = snap.timetable().period();
        let (sizes, _) = tr.span("partition.class_sizes", req, || {
            PartitionStrategy::EqualConnections.class_sizes(snap.timetable().conn(local), p, period)
        });
        let s = &rp.stats;
        l.search_p_ms.push(p_ns as f64 / 1e6);
        l.search_1_ms.push(one_ns as f64 / 1e6);
        l.merge_ms.push(s.merge_ns as f64 / 1e6);
        let ts: Vec<f64> = rp.thread_settled.iter().map(|&x| x as f64).collect();
        let max_t = ts.iter().cloned().fold(0.0, f64::max);
        l.balance.push(if max_t == 0.0 { 1.0 } else { mean(&ts) / max_t });
        let sz: Vec<f64> = sizes.iter().map(|&x| x as f64).collect();
        let mean_sz = mean(&sz);
        l.imbalance.push(if mean_sz == 0.0 {
            1.0
        } else {
            sz.iter().cloned().fold(0.0, f64::max) / mean_sz
        });
        l.settled.push(s.settled as f64);
        l.useful.push(s.settled.saturating_sub(s.self_pruned) as f64);
        l.relaxed.push(s.relaxed as f64);
        l.bucket_phases.push(s.bucket_phases as f64);
        l.lane_chunks.push(s.lane_chunks as f64);
        l.masked_prunes.push(s.masked_prunes as f64);
        Ok(answer)
    })();
    tr.close(root);
    out
}

/// Holds one sampled answer to the time-query ground truth at the standard
/// departures, for every target of the source's shard.
fn oracle(svc: &ShardedService, source: StationId, set: &ProfileSet) -> Result<(), String> {
    let (shard, local) = svc.locate(source).map_err(|e| e.to_string())?;
    let snap = svc.network(shard).map_err(|e| e.to_string())?;
    let period = snap.timetable().period();
    for dep in pt_bench::conncheck::standard_departures() {
        let truth = time_query::earliest_arrivals(&snap, local, dep);
        for t in snap.station_ids().filter(|&t| t != local) {
            let got = set.profile(t).eval_arr(dep, period);
            if got != truth.arrival_at(t) {
                return Err(format!(
                    "{shard} {local}->{t} at {dep}: profile {got}, time query {}",
                    truth.arrival_at(t)
                ));
            }
        }
    }
    Ok(())
}
