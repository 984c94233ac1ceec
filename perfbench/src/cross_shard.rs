//! `cross-shard`: the gateway and the profile cache. One thread issues
//! cross-shard `ShardedService::s2s` pairs drawn Zipf-skewed from a seeded
//! pool and applies a small shard-tagged feed every few queries, so border
//! stitching, border-set refresh and cache invalidation are all measured.
//! Single-threaded interleaving makes hits and refreshed rows repeat
//! exactly for a seed.

use std::time::{Duration, Instant};

use pt_bench::conncheck::{gateway_scenario, GatewayScenario};
use pt_core::{Profile, StationId, TrainId};
use pt_spcs::{BorderSpec, ProfileEngine, QueryKind, ShardId, ShardedService};
use pt_timetable::DelayEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{median, pct, ratio, Window, Zipf};
use crate::feed::{check_exact, report_layers, Shadow};
use crate::trace::Tracer;

const SHARDS: usize = 3;
const BORDERS: usize = 4;
const LOCALS: usize = 150;
const TRIPS: usize = 3000;
/// The scenario is one fixed network, like the presets of the other
/// workloads; `--seed` draws the pool, the pair sequence and the feeds.
const SCENARIO_SEED: u64 = 1;
/// Cross-shard pairs in the pool, and the Zipf exponent of their draw.
const POOL: usize = 64;
const ZIPF_S: f64 = 1.0;
/// A feed of `FEED_EVENTS` events after every `FEED_EVERY` queries.
const FEED_EVERY: usize = 25;
const FEED_EVENTS: usize = 4;
/// Profile-cache entries per shard stripe.
const CACHE: usize = 32;
const SAMPLE_EVERY: usize = 5;
const MAX_SAMPLES: usize = 60;

pub struct World {
    sc: GatewayScenario,
    svc: ShardedService,
}

pub fn setup() -> World {
    let sc = gateway_scenario(SHARDS, BORDERS, LOCALS, TRIPS, SCENARIO_SEED);
    let svc = ShardedService::builder()
        .threads(1)
        .cache(CACHE)
        .gateway(BorderSpec::ByName)
        .build(sc.shards.clone());
    World { sc, svc }
}

/// A pool pair: global endpoints for the service, monolith endpoints for
/// the oracle.
struct Pair {
    global: (StationId, StationId),
    mono: (StationId, StationId),
}

fn pool(w: &World, rng: &mut StdRng) -> Vec<Pair> {
    let sc = &w.sc;
    (0..POOL)
        .map(|_| loop {
            let a = rng.gen_range(0..SHARDS);
            let b = (a + rng.gen_range(1..SHARDS)) % SHARDS;
            let s = rng.gen_range(0..sc.to_mono[a].len());
            let t = rng.gen_range(0..sc.to_mono[b].len());
            // One physical border seen from both sides is one monolith
            // station; its self-profile convention differs, so resample.
            if sc.to_mono[a][s] == sc.to_mono[b][t] {
                continue;
            }
            let g = |sh: usize, l: usize| {
                w.svc.global_id(ShardId(sh as u32), StationId(l as u32)).expect("local id")
            };
            break Pair { global: (g(a, s), g(b, t)), mono: (sc.to_mono[a][s], sc.to_mono[b][t]) };
        })
        .collect()
}

fn feed(w: &World, rng: &mut StdRng) -> Vec<(ShardId, DelayEvent)> {
    (0..FEED_EVENTS)
        .map(|_| {
            let sh = rng.gen_range(0..SHARDS);
            let trains = w.sc.shards[sh].timetable().num_trains() as u32;
            (ShardId(sh as u32), pt_bench::random_feed(rng, trains, 1, 60)[0])
        })
        .collect()
}

/// Shifts an event's train into the monolith's id space.
fn to_mono(e: DelayEvent, base: u32) -> DelayEvent {
    match e {
        DelayEvent::Delay { train, from_hop, delay, recovery } => {
            DelayEvent::Delay { train: TrainId(train.0 + base), from_hop, delay, recovery }
        }
        DelayEvent::Cancel { train } => DelayEvent::Cancel { train: TrainId(train.0 + base) },
    }
}

pub fn window(world: World, seed: u64, seconds: f64, traced: bool) -> Window {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC055);
    let pairs = pool(&world, &mut rng);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let svc = &world.svc;
    let mut shadow = traced.then(|| {
        Shadow::new(world.sc.shards.iter().map(|n| n.timetable().clone()).collect(), None)
    });
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer::new("client", origin));
    let cache0 = svc.cache_stats().unwrap_or_default();
    let rows0: u64 = svc.gateway_stats().map_or(0, |g| g.rows_refreshed.iter().sum());
    let mut feeds: Vec<Vec<(ShardId, DelayEvent)>> = Vec::new();
    // (feeds applied before the query, pool index, answer)
    let mut samples: Vec<(usize, usize, Profile)> = Vec::new();
    let mut w = Window { correct: true, ..Window::default() };

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut q = 0usize;
    while Instant::now() < end {
        if q > 0 && q.is_multiple_of(FEED_EVERY) {
            let events = feed(&world, &mut rng);
            w.attempted += events.len() as u64;
            let req = q as u64;
            let r = match (tracer.as_mut(), shadow.as_mut()) {
                (Some(tr), Some(sh)) => {
                    let (r, id) = tr.span("shard.apply_feed", req, || svc.apply_feed(&events));
                    let svc_ms = tr.dur_ns(id) as f64 / 1e6;
                    let batch = sh.apply_events(tr, req, &events);
                    if let Ok(summary) = &r {
                        if let Err(e) = check_exact(summary, &batch.outcomes) {
                            w.fail(format!("shadow feed {}: {e}", feeds.len()));
                        }
                    }
                    sh.record_service_ms(svc_ms, &batch);
                    r
                }
                _ => svc.apply_feed(&events),
            };
            if let Err(e) = r {
                w.fail(format!("apply_feed: {e}"));
            }
            feeds.push(events);
        }
        let k = zipf.draw(&mut rng);
        let (s, t) = pairs[k].global;
        w.attempted += 1;
        let r = match tracer.as_mut() {
            None => {
                let t0 = Instant::now();
                let r = svc.s2s(s, t);
                w.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r
            }
            Some(tr) => {
                let req = q as u64;
                let root = tr.open("request", req);
                let _ = tr.span("shard.locate", req, || (svc.locate(s), svc.locate(t)));
                let (r, id) = tr.span("gateway.cross", req, || svc.s2s(s, t));
                w.op_ms.push(tr.dur_ns(id) as f64 / 1e6);
                tr.close(root);
                r
            }
        };
        match r {
            Ok(r) if r.value.kind != QueryKind::Gateway => {
                w.fail(format!("{s}->{t} not stitched: {:?}", r.value.kind))
            }
            Ok(r) => {
                if q.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
                    samples.push((feeds.len(), k, r.value.profile));
                }
            }
            Err(e) => w.fail(format!("s2s({s}, {t}): {e}")),
        }
        q += 1;
    }
    w.close(start);

    // Oracle: replay the same feeds on the merged monolith, checking each
    // sample against the monolith state it was answered at.
    let mut mono = world.sc.mono.clone();
    let mut applied = 0usize;
    for (round, k, profile) in &samples {
        while applied < *round {
            let mapped: Vec<DelayEvent> = feeds[applied]
                .iter()
                .map(|&(sh, e)| to_mono(e, world.sc.mono_train_base[sh.idx()]))
                .collect();
            mono.apply_feed(&mapped);
            applied += 1;
        }
        let (ms, mt) = pairs[*k].mono;
        if ProfileEngine::new().one_to_all(&mono, ms).profile(mt) != profile {
            w.fail(format!("stitched pair {k} after {round} feeds != monolith"));
        }
    }

    w.named = vec![
        ("query_p50_ms".into(), "ms", pct(&w.op_ms, 50.0)),
        ("query_p90_ms".into(), "ms", pct(&w.op_ms, 90.0)),
        ("queries_per_s".into(), "1/s", w.ops_per_s()),
    ];
    w.notes.push(format!(
        "{} feeds of {FEED_EVENTS} events, {} samples checked against the monolith",
        feeds.len(),
        samples.len()
    ));
    if let (Some(sh), Some(tr)) = (shadow, tracer) {
        let selfs = tr.self_times();
        let get = |k: &str| selfs.get(k).map_or(&[][..], |v| &v[..]);
        let cache = svc.cache_stats().unwrap_or_default();
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        let gw = svc.gateway_stats().expect("built with a gateway");
        report_layers(&mut w, &sh.layers);
        w.layers.extend([
            ("shard.locate_ns", median(get("shard.locate"))),
            ("gateway.cross_ms", median(get("gateway.cross")) / 1e6),
            ("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64)),
            ("cache.evictions", (cache.evictions - cache0.evictions) as f64),
            ("gateway.rows_refreshed", (gw.rows_refreshed.iter().sum::<u64>() - rows0) as f64),
            ("gateway.border_groups", gw.groups as f64),
        ]);
        w.tracers.push(tr);
    }
    w
}
