//! `s2s-live`: reads beside writes. One closed-loop reader issues
//! same-shard `ShardedService::s2s` queries (table pruning, the paper's 5 %
//! row of Table 2) while one writer thread drives `FeedDriver` from a
//! recorded feed released on an open-loop schedule.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_core::{Profile, StationId};
use pt_feed::{FeedDriver, FeedDriverConfig, FeedStats};
use pt_spcs::{
    Network, NetworkSnapshot, ProfileEngine, QueryKind, S2sEngine, ShardedService,
    TransferSelection,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{mean, median, pct, permutation, ratio, Window};
use crate::feed::{
    check_observed, driver_layers, pin_all, record_day, report_layers, trains_per_shard, OpenLoop,
    Shadow,
};
use crate::trace::Tracer;
use crate::world;

/// Preset scale: 20 / 42 / 200 stations.
pub const SCALE: f64 = 0.05;
/// Open-loop feed rate, events per second. Half the writer's load at 4
/// events/s: each table refresh takes both CPUs, and at 4 events/s they
/// were busy often enough that the reader's p90 swung with host speed.
pub const RATE: f64 = 2.0;
/// Most events per `apply_feed` call.
const WINDOW: usize = 8;
const SAMPLE_EVERY: usize = 7;
const MAX_SAMPLES: usize = 16;

fn selection() -> TransferSelection {
    TransferSelection::Fraction(0.05)
}

pub fn setup() -> ShardedService {
    let nets = world::presets(SCALE).into_iter().map(Network::new).collect();
    ShardedService::builder().threads(1).tables(selection()).build(nets)
}

/// A sampled answer: the snapshot it was computed on, the local pair, and
/// the profile.
type Sample = (Arc<NetworkSnapshot>, StationId, StationId, Profile);

#[derive(Default)]
struct ReaderOut {
    op_ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    samples: Vec<Sample>,
    tracer: Option<Tracer>,
    search_ms: Vec<f64>,
    settled: Vec<f64>,
    stop_pruned: Vec<f64>,
    table_pruned: Vec<f64>,
    kinds: Vec<QueryKind>,
}

struct WriterOut {
    visible_ms: Vec<f64>,
    stats: FeedStats,
    backlog: Vec<(f64, f64)>,
    errors: Vec<String>,
    shadow: Option<Shadow>,
    tracer: Option<Tracer>,
    released: usize,
    wall_s: f64,
}

pub fn window(svc: ShardedService, seed: u64, seconds: f64, traced: bool) -> Window {
    let trains = trains_per_shard(&svc);
    let lines = record_day(&trains, (RATE * seconds).ceil() as usize + 2 * WINDOW, seed);
    let shadow = traced.then(|| Shadow::new(world::presets(SCALE), Some(&selection())));
    // Table 2's preprocessing figures, read before any feed refreshes them.
    let tables: Vec<_> = svc.shard_ids().filter_map(|s| svc.table(s).ok().flatten()).collect();
    let build_s: f64 = tables.iter().map(|t| t.build_time().as_secs_f64()).sum();
    let size_mib: f64 = tables.iter().map(|t| t.size_mib()).sum();
    drop(tables);

    let origin = Instant::now();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (reader, writer) = std::thread::scope(|scope| {
        let svc = &svc;
        let writer = scope.spawn(move || writer_loop(svc, lines, start, end, shadow, origin));
        let reader = reader_loop(svc, seed, end, traced, origin);
        (reader, writer.join().expect("writer thread"))
    });

    let mut w = Window { correct: true, ..Window::default() };
    w.close(start);
    w.op_ms = reader.op_ms;
    w.attempted = reader.attempted + writer.released as u64;
    for e in reader.errors.into_iter().chain(writer.errors) {
        w.fail(e);
    }
    let quarantined = writer.stats.quarantine.total;
    if quarantined > 0 {
        w.fail_n(quarantined, format!("{quarantined} lines quarantined"));
    }
    if writer.stats.events_applied as usize != writer.released {
        w.fail(format!(
            "{} lines released, {} events applied",
            writer.released, writer.stats.events_applied
        ));
    }
    // The traced writer also feeds the shadow, so only an untraced run's
    // backlog speaks for the service.
    let overloaded = over_rate(&writer.backlog);
    if overloaded && !traced {
        w.fail(format!(
            "writer over the sustainable rate of {RATE} events/s: backlog kept growing"
        ));
    }
    for (snap, s, t, profile) in &reader.samples {
        let want = ProfileEngine::new().one_to_all(snap.network(), *s);
        if want.profile(*t) != profile {
            w.fail(format!(
                "s2s {s}->{t} at generation {} != one_to_all on the same snapshot",
                snap.generation()
            ));
        }
    }
    for shard in svc.shard_ids() {
        if let Err(e) = final_oracle(&svc, shard) {
            w.fail(e);
        }
    }

    let backlog_max = writer.backlog.iter().map(|&(_, b)| b).fold(0.0, f64::max);
    w.named = vec![
        ("query_p50_ms".into(), "ms", pct(&w.op_ms, 50.0)),
        ("query_p90_ms".into(), "ms", pct(&w.op_ms, 90.0)),
        ("queries_per_s".into(), "1/s", w.ops_per_s()),
        ("visible_p50_ms".into(), "ms", pct(&writer.visible_ms, 50.0)),
        ("visible_p90_ms".into(), "ms", pct(&writer.visible_ms, 90.0)),
        ("events_per_s".into(), "1/s", writer.stats.events_applied as f64 / writer.wall_s),
    ];
    w.notes.push(format!(
        "writer: {} events in {} batches, generator backlog max {backlog_max} events, trend {:+.4} events/s{}",
        writer.stats.events_applied,
        writer.stats.batches_applied,
        slope(&writer.backlog),
        if overloaded { " (over the sustainable rate)" } else { "" }
    ));

    if traced {
        let mut tracers: Vec<Tracer> = reader.tracer.into_iter().chain(writer.tracer).collect();
        let selfs = crate::trace::self_times(&tracers);
        let get = |k: &str| selfs.get(k).map_or(&[][..], |v| &v[..]);
        let n = reader.kinds.len() as f64;
        let share =
            |k: QueryKind| reader.kinds.iter().filter(|&&x| x == k).count() as f64 / n.max(1.0);
        let ins = [
            ("shard.locate_ns", median(get("shard.locate"))),
            ("network.pin_ns", median(get("network.pin"))),
            ("s2s.search_ms", median(&reader.search_ms)),
            ("s2s.settled", mean(&reader.settled)),
            ("s2s.stop_pruned", mean(&reader.stop_pruned)),
            ("s2s.table_pruned", mean(&reader.table_pruned)),
            ("s2s.kind.table_direct_share", share(QueryKind::TableDirect)),
            ("s2s.kind.local_share", share(QueryKind::Local)),
            ("s2s.kind.global_share", share(QueryKind::Global)),
            ("s2s.kind.target_transfer_share", share(QueryKind::TargetTransfer)),
            ("distance_table.build_s", build_s),
            ("distance_table.size_mib", size_mib),
        ];
        w.layers.extend(ins);
        if let Some(shadow) = &writer.shadow {
            report_layers(&mut w, &shadow.layers);
        }
        driver_layers(&mut w, &writer.stats, writer.wall_s, backlog_max, slope(&writer.backlog));
        w.layers.insert("driver.visible_p50_ms", pct(&writer.visible_ms, 50.0));
        w.layers.insert("driver.visible_p90_ms", pct(&writer.visible_ms, 90.0));
        w.notes.push(format!(
            "Table 2 setting (paper: 5 % transfer stations by degree, s2s with distance-table pruning): \
             distance_table.build_s = {build_s:.4}, distance_table.size_mib = {size_mib:.4}, \
             s2s.table_pruned = {:.3} per query",
            w.layers["s2s.table_pruned"]
        ));
        w.tracers.append(&mut tracers);
    }
    w
}

fn reader_loop(
    svc: &ShardedService,
    seed: u64,
    end: Instant,
    traced: bool,
    origin: Instant,
) -> ReaderOut {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E5D);
    let ranges: Vec<_> =
        svc.shard_ids().map(|s| svc.station_range(s).expect("listed shard")).collect();
    // Sources uniform without replacement: a seeded permutation of all
    // global stations, cycled.
    let order = permutation(&mut rng, svc.num_stations());
    let engine = S2sEngine::new();
    let mut out =
        ReaderOut { tracer: traced.then(|| Tracer::new("reader", origin)), ..ReaderOut::default() };
    let mut i = 0u64;
    while Instant::now() < end {
        let s = order[i as usize % order.len()];
        let range = ranges.iter().find(|r| r.contains(&s)).expect("global id in range").clone();
        let t = loop {
            let t = rng.gen_range(range.clone());
            if t != s {
                break t;
            }
        };
        let (s, t) = (StationId(s), StationId(t));
        out.attempted += 1;
        let sample = (i as usize).is_multiple_of(SAMPLE_EVERY) && out.samples.len() < MAX_SAMPLES;
        let r = match out.tracer.take() {
            None => plain_query(svc, s, t, sample, &mut out.op_ms),
            Some(mut tr) => {
                let r = traced_query(svc, &mut tr, i, s, t, &engine, &mut out);
                out.tracer = Some(tr);
                r
            }
        };
        match r {
            Ok(Some(sampled)) if sample => out.samples.push(sampled),
            Ok(_) => {}
            Err(e) => out.errors.push(format!("s2s({s}, {t}): {e}")),
        }
        i += 1;
    }
    out
}

/// One untimed-pin, timed-query round. When sampling, the shard is pinned
/// before and after the call; equal generations mean the answer was
/// computed on the pinned snapshot, which the oracle then re-queries.
fn plain_query(
    svc: &ShardedService,
    s: StationId,
    t: StationId,
    sample: bool,
    op_ms: &mut Vec<f64>,
) -> Result<Option<Sample>, String> {
    let pin = |svc: &ShardedService| -> Result<_, String> {
        let (shard, _) = svc.locate(s).map_err(|e| e.to_string())?;
        svc.network(shard).map_err(|e| e.to_string())
    };
    let before = if sample { Some(pin(svc)?) } else { None };
    let t0 = Instant::now();
    let r = svc.s2s(s, t).map_err(|e| e.to_string())?;
    op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let Some(before) = before else { return Ok(None) };
    if pin(svc)?.generation() != before.generation() {
        return Ok(None);
    }
    let (_, ls) = svc.locate(s).map_err(|e| e.to_string())?;
    let (_, lt) = svc.locate(t).map_err(|e| e.to_string())?;
    Ok(Some((before, ls, lt, r.value.profile)))
}

/// One traced query: directory lookup, snapshot pin, the service call, and
/// the s2s engine on the pinned snapshot with its table, whose answer must
/// equal the service's.
fn traced_query(
    svc: &ShardedService,
    tr: &mut Tracer,
    req: u64,
    s: StationId,
    t: StationId,
    engine: &S2sEngine<'static>,
    out: &mut ReaderOut,
) -> Result<Option<Sample>, String> {
    let root = tr.open("request", req);
    let r = (|| {
        let (located, _) =
            tr.span("shard.locate", req, || svc.locate(s).and_then(|a| Ok((a, svc.locate(t)?))));
        let ((shard, ls), (_, lt)) = located.map_err(|e| e.to_string())?;
        let (snap, _) = tr.span("network.pin", req, || svc.network(shard));
        let snap = snap.map_err(|e| e.to_string())?;
        let (answer, id) = tr.span("service.s2s", req, || svc.s2s(s, t));
        out.op_ms.push(tr.dur_ns(id) as f64 / 1e6);
        let answer = answer.map_err(|e| e.to_string())?.value;
        let (mine, id) = tr
            .span("s2s.search", req, || engine.try_query_on(snap.network(), snap.table(), ls, lt));
        let mine = mine.map_err(|e| e.to_string())?;
        out.search_ms.push(tr.dur_ns(id) as f64 / 1e6);
        out.settled.push(mine.stats.settled as f64);
        out.stop_pruned.push(mine.stats.stop_pruned as f64);
        out.table_pruned.push(mine.stats.table_pruned as f64);
        out.kinds.push(mine.kind);
        let same_snapshot =
            svc.network(shard).map_err(|e| e.to_string())?.generation() == snap.generation();
        if same_snapshot && mine.profile != answer.profile {
            return Err("s2s engine on the pinned snapshot disagrees with the service".to_string());
        }
        Ok(same_snapshot.then_some((snap, ls, lt, answer.profile)))
    })();
    tr.close(root);
    r
}

fn writer_loop(
    svc: &ShardedService,
    lines: Vec<String>,
    start: Instant,
    end: Instant,
    mut shadow: Option<Shadow>,
    origin: Instant,
) -> WriterOut {
    let config = FeedDriverConfig {
        batch_events: WINDOW,
        backoff: Duration::ZERO,
        poll_interval: Duration::ZERO,
        ..FeedDriverConfig::default()
    };
    let mut driver = FeedDriver::new(svc, config);
    let mut src = OpenLoop::new(lines, start, RATE, WINDOW);
    let mut tracer = shadow.is_some().then(|| Tracer::new("writer", origin));
    let mut out = WriterOut {
        visible_ms: Vec::new(),
        stats: FeedStats::default(),
        backlog: Vec::new(),
        errors: Vec::new(),
        shadow: None,
        tracer: None,
        released: 0,
        wall_s: 0.0,
    };
    let mut applied = 0usize;
    let mut req = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let before = shadow.as_ref().map(|_| pin_all(svc));
        let apply_ns = driver.stats().apply_ns;
        let tick = tracer.as_mut().map(|tr| tr.open("writer.tick", req));
        let mut r = driver.tick(&mut src).map(|_| ());
        // The source is idle: flush the partial window now rather than
        // let its events wait for the window to fill.
        if r.is_ok() && driver.queued() > 0 && src.due_by(Instant::now()) <= src.released() {
            r = driver.drain();
        }
        if let (Some(tr), Some(id)) = (tracer.as_mut(), tick) {
            tr.close(id);
        }
        if let Err(e) = r {
            out.errors.push(format!("driver: {e}"));
            break;
        }
        let now = Instant::now();
        let newly = driver.stats().events_applied as usize;
        for i in applied..newly {
            out.visible_ms.push(now.saturating_duration_since(src.due(i)).as_secs_f64() * 1e3);
        }
        if let (Some(sh), Some(tr), Some((snaps, pubs))) =
            (shadow.as_mut(), tracer.as_mut(), before)
        {
            if newly > applied {
                let batch = sh.apply_lines(tr, req, src.lines(applied..newly));
                if let Err(e) = check_observed(svc, &snaps, &pubs, &batch.outcomes) {
                    out.errors.push(format!("shadow batch {req}: {e}"));
                }
                sh.record_service_ms((driver.stats().apply_ns - apply_ns) as f64 / 1e6, &batch);
            }
        }
        applied = newly;
        req += 1;
        let now = Instant::now();
        out.backlog
            .push((now.duration_since(start).as_secs_f64(), (src.due_by(now) - applied) as f64));
        if src.due_by(now) <= applied {
            let wake = src.due(applied).min(end);
            std::thread::sleep(wake.saturating_duration_since(now));
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.stats = driver.stats().clone();
    out.released = src.released();
    out.shadow = shadow;
    out.tracer = tracer;
    out
}

/// Least-squares slope of the backlog over time, in events per second.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    ratio(sxy, sxx)
}

/// The generator ran over the sustainable rate when its backlog kept
/// growing: the last quarter of the window averaged at least twice the
/// first quarter's backlog, and at least a second's worth of events.
fn over_rate(backlog: &[(f64, f64)]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let first = mean(&backlog[..q].iter().map(|p| p.1).collect::<Vec<_>>());
    let last = mean(&backlog[backlog.len() - q..].iter().map(|p| p.1).collect::<Vec<_>>());
    last >= RATE && last >= 2.0 * first.max(1.0)
}

/// After the window: the shard's snapshot answers equal those of a
/// `Network::new` rebuild of its patched timetable, and its table is fresh.
fn final_oracle(svc: &ShardedService, shard: pt_spcs::ShardId) -> Result<(), String> {
    let snap = svc.network(shard).map_err(|e| e.to_string())?;
    let rebuilt = Network::new(snap.timetable().clone());
    let n = snap.num_stations() as u32;
    for s in [0, n / 3, 2 * n / 3].map(StationId) {
        if ProfileEngine::new().one_to_all(snap.network(), s)
            != ProfileEngine::new().one_to_all(&rebuilt, s)
        {
            return Err(format!("{shard}: patched snapshot != rebuild from {s}"));
        }
    }
    match snap.table() {
        Some(table) => table.check_fresh(snap.network()).map_err(|e| format!("{shard}: {e}")),
        None => Err(format!("{shard}: service built without its table")),
    }
}
