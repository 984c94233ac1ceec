//! `feed-replay`: writes only. A recorded feed day streams at full speed
//! through `FeedDriver` in 8-event windows into a service without tables or
//! readers: decode, `patch_feed`, route repatch or refit, graph repatch or
//! rebuild, and publish carry all the work.

use std::time::{Duration, Instant};

use pt_core::StationId;
use pt_feed::{FeedDriver, FeedDriverConfig, FeedSource, RecordedFeed, TickOutcome};
use pt_spcs::{Network, ProfileEngine, ShardedService};

use crate::common::{nproc, pct, Window};
use crate::feed::{
    check_observed, driver_layers, pin_all, record_day, report_layers, trains_per_shard, Shadow,
};
use crate::trace::Tracer;
use crate::world;

/// Preset scale: Metro has 2,000 stations and 690k connections.
pub const SCALE: f64 = 0.5;
/// Events per window (lines per poll and per `apply_feed`).
const WINDOW: usize = 8;
/// Lines recorded per second of window, well above the writer's rate.
const LINES_PER_S: f64 = 4000.0;

pub fn setup() -> ShardedService {
    let nets = world::presets(SCALE).into_iter().map(Network::new).collect();
    ShardedService::builder().threads(1).build(nets)
}

pub fn window(svc: ShardedService, seed: u64, seconds: f64, traced: bool) -> Window {
    let trains = trains_per_shard(&svc);
    let lines = record_day(&trains, (LINES_PER_S * seconds).ceil() as usize, seed);
    let total = lines.len();
    let mut shadow = traced.then(|| Shadow::new(world::presets(SCALE), None));
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer::new("writer", origin));
    let config = FeedDriverConfig { batch_events: WINDOW, ..FeedDriverConfig::replay() };
    let mut driver = FeedDriver::new(&svc, config);
    let mut src = RecordedFeed::new(lines.clone(), WINDOW);
    let mut w = Window { correct: true, ..Window::default() };
    let mut applied = 0usize;
    let mut req = 0u64;

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let before = shadow.as_ref().map(|_| pin_all(&svc));
        let apply_ns = driver.stats().apply_ns;
        let handed = Instant::now();
        let tick = tracer.as_mut().map(|tr| tr.open("writer.tick", req));
        let r = driver.tick(&mut src as &mut dyn FeedSource);
        let ended = matches!(r, Ok(TickOutcome::End));
        let r = if ended { driver.drain() } else { r.map(|_| ()) };
        if let (Some(tr), Some(id)) = (tracer.as_mut(), tick) {
            tr.close(id);
        }
        if let Err(e) = r {
            w.fail(format!("driver: {e}"));
            break;
        }
        let now = Instant::now();
        let newly = driver.stats().events_applied as usize;
        for _ in applied..newly {
            w.op_ms.push(now.duration_since(handed).as_secs_f64() * 1e3);
        }
        if let (Some(sh), Some(tr), Some((snaps, pubs))) =
            (shadow.as_mut(), tracer.as_mut(), before)
        {
            if newly > applied {
                let batch = sh.apply_lines(tr, req, &lines[applied..newly]);
                if let Err(e) = check_observed(&svc, &snaps, &pubs, &batch.outcomes) {
                    w.fail(format!("shadow batch {req}: {e}"));
                }
                sh.record_service_ms((driver.stats().apply_ns - apply_ns) as f64 / 1e6, &batch);
            }
        }
        applied = newly;
        req += 1;
        if ended {
            break;
        }
    }
    w.close(start);
    let handed = total - src.remaining();
    let stats = driver.stats().clone();
    w.attempted = handed as u64;

    let quarantined = stats.quarantine.total;
    if quarantined > 0 {
        w.fail_n(quarantined, format!("{quarantined} lines quarantined"));
    }
    if stats.events_applied as usize != handed {
        w.fail(format!(
            "{handed} lines handed to FeedDriver, {} events applied",
            stats.events_applied
        ));
    }
    let engine = ProfileEngine::new().threads(nproc());
    for shard in svc.shard_ids() {
        let snap = svc.network(shard).expect("listed shard");
        let rebuilt = Network::new(snap.timetable().clone());
        let n = snap.num_stations() as u32;
        for s in [n / 4, 3 * n / 4].map(StationId) {
            if engine.one_to_all(snap.network(), s) != engine.one_to_all(&rebuilt, s) {
                w.fail(format!("{shard}: patched network != rebuild from {s}"));
            }
        }
    }

    w.named = vec![
        ("events_per_s".into(), "1/s", w.ops_per_s()),
        ("visible_p50_ms".into(), "ms", pct(&w.op_ms, 50.0)),
        ("visible_p90_ms".into(), "ms", pct(&w.op_ms, 90.0)),
    ];
    w.notes.push(format!(
        "driver: {} events in {} batches, {} changed the network",
        stats.events_applied, stats.batches_applied, stats.changed_batches
    ));
    if let (Some(sh), Some(tr)) = (shadow, tracer) {
        report_layers(&mut w, &sh.layers);
        let wall_s = w.wall_s;
        driver_layers(&mut w, &stats, wall_s, stats.max_queue_len as f64, 0.0);
        w.layers.insert("driver.visible_p50_ms", pct(&w.op_ms, 50.0));
        w.layers.insert("driver.visible_p90_ms", pct(&w.op_ms, 90.0));
        w.tracers.push(tr);
    }
    w
}
