//! The write side: recorded feed days, the open-loop source, and the shadow
//! write pipeline that splits a batch's cost across the write layers.
//!
//! The shadow holds, per shard, a `Timetable`, a `Network` and (when the
//! service has tables) a `DistanceTable` built from the same seed as the
//! service's. It receives every batch the service receives, and each of its
//! steps is timed on its own: `Timetable::patch_feed` (model),
//! `Network::apply_feed` (routes and graph, plus its own patch), and
//! `DistanceTable::refresh`. The traced run fails unless the shadow's
//! outcome equals the service's for every batch, so the split measures the
//! same work the service did.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_core::{Dur, Time, TrainId};
use pt_feed::{
    encode_csv, encode_json, FeedDecoder, FeedPoll, FeedSource, FeedStats, Quarantine, SourceError,
    WireEvent,
};
use pt_spcs::{
    DistanceTable, FeedSummary, Network, NetworkSnapshot, ShardId, ShardedFeedSummary,
    ShardedService, TransferSelection,
};
use pt_timetable::{DelayEvent, Recovery, Timetable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{mean, median, ratio, Window};
use crate::trace::Tracer;

/// Trains per shard of `svc` (the feed's shard weights and the decoder's
/// roster).
pub fn trains_per_shard(svc: &ShardedService) -> Vec<u32> {
    svc.shard_ids()
        .map(|s| svc.network(s).expect("listed shard").timetable().num_trains() as u32)
        .collect()
}

/// `pt_bench::random_feed`'s event mix: one cancellation in four, and
/// delays of 1 to 44 minutes from one of the first four hops, half of them
/// with catch-up recovery. The kind and the recovery are taken in turn
/// rather than drawn, so every seed sends the same mix; the train, the hop
/// and the amounts are drawn.
fn mixed_event(i: usize, rng: &mut StdRng, trains: u32) -> DelayEvent {
    let train = TrainId(rng.gen_range(0..trains.max(1)));
    if i % 4 == 3 {
        return DelayEvent::Cancel { train };
    }
    let recovery = if (i / 4 * 3 + i % 4).is_multiple_of(2) {
        Recovery::None
    } else {
        Recovery::CatchUp { per_hop: Dur::minutes(rng.gen_range(1..20u32)) }
    };
    DelayEvent::Delay {
        train,
        from_hop: rng.gen_range(0..4u16),
        delay: Dur::minutes(rng.gen_range(1..45u32)),
        recovery,
    }
}

/// One recorded feed day of `events` wire lines, CSV and JSON alternating,
/// producer time 06:00 → 18:00. Shards take turns in proportion to their
/// trains (smooth weighted round-robin, so every seed sends each shard the
/// same share); the events follow [`mixed_event`].
pub fn record_day(trains: &[u32], events: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FEE_DDA7);
    let total: i64 = trains.iter().map(|&t| t as i64).sum();
    let mut credit = vec![0i64; trains.len()];
    (0..events)
        .map(|i| {
            for (c, &t) in credit.iter_mut().zip(trains) {
                *c += t as i64;
            }
            let shard = (0..trains.len())
                .max_by_key(|&s| (credit[s], std::cmp::Reverse(s)))
                .expect("shards");
            credit[shard] -= total;
            let event = mixed_event(i, &mut rng, trains[shard]);
            let wire = WireEvent {
                time: Time(6 * 3600 + (i * 43_200 / events.max(1)) as u32),
                shard: ShardId(shard as u32),
                event,
            };
            if i % 2 == 0 {
                encode_csv(&wire)
            } else {
                encode_json(&wire)
            }
        })
        .collect()
}

/// Releases recorded lines on an open-loop schedule: line `i` is due at
/// `start + i / rate`, whatever the consumer is doing. One poll hands over
/// the due lines, at most `window` of them, so each driver tick applies at
/// most one batch.
pub struct OpenLoop {
    lines: Vec<String>,
    next: usize,
    start: Instant,
    interval: Duration,
    window: usize,
}

impl OpenLoop {
    pub fn new(lines: Vec<String>, start: Instant, rate_per_s: f64, window: usize) -> OpenLoop {
        OpenLoop {
            lines,
            next: 0,
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
            window,
        }
    }

    /// When line `i` was due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Lines due by `now`.
    pub fn due_by(&self, now: Instant) -> usize {
        let elapsed = now.saturating_duration_since(self.start);
        ((elapsed.as_nanos() / self.interval.as_nanos()) as usize + 1).min(self.lines.len())
    }

    /// Lines handed to the consumer so far.
    pub fn released(&self) -> usize {
        self.next
    }

    pub fn lines(&self, range: std::ops::Range<usize>) -> &[String] {
        &self.lines[range]
    }
}

impl FeedSource for OpenLoop {
    fn poll(&mut self) -> Result<FeedPoll, SourceError> {
        if self.next >= self.lines.len() {
            return Ok(FeedPoll::End);
        }
        let due = self.due_by(Instant::now());
        if due <= self.next {
            return Ok(FeedPoll::Idle);
        }
        let end = due.min(self.next + self.window);
        let batch = self.lines[self.next..end].to_vec();
        self.next = end;
        Ok(FeedPoll::Batch(batch))
    }
}

struct ShadowShard {
    tt: Timetable,
    net: Network,
    table: Option<DistanceTable>,
}

/// What the shadow did with one batch: per touched shard, and the time its
/// network applies and table refreshes took.
pub struct ShadowBatch {
    pub outcomes: Vec<ShadowOutcome>,
    pub work_ns: u64,
}

/// What the shadow did with one shard's slice of a batch.
pub struct ShadowOutcome {
    pub shard: ShardId,
    pub summary: FeedSummary,
    pub rows: usize,
    pub generation: u64,
}

/// Per-batch figures of the write layers, gathered over a traced window.
#[derive(Default)]
pub struct WriteLayers {
    pub decode_us_per_line: Vec<f64>,
    pub quarantined: u64,
    pub patch_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub rows: Vec<f64>,
    pub changed: u64,
    pub rebuilt: u64,
    pub routes_touched: Vec<f64>,
    pub routes_refit: Vec<f64>,
    pub svc_apply_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub checked: u64,
}

/// The shadow write pipeline (see the module docs).
pub struct Shadow {
    shards: Vec<ShadowShard>,
    decoder: FeedDecoder,
    pub layers: WriteLayers,
}

impl Shadow {
    /// Shadows of the service's shards, built from the same timetables
    /// (and table selection) the service was built from.
    pub fn new(timetables: Vec<Timetable>, tables: Option<&TransferSelection>) -> Shadow {
        let roster = timetables.iter().map(|t| t.num_trains() as u32).collect();
        let shards = timetables
            .into_iter()
            .map(|tt| {
                let net = Network::new(tt.clone());
                let table = tables.map(|sel| DistanceTable::build(&net, sel));
                ShadowShard { tt, net, table }
            })
            .collect();
        Shadow { shards, decoder: FeedDecoder::with_roster(roster), layers: WriteLayers::default() }
    }

    /// Decodes `lines` the way `FeedDriver` does, then applies them.
    pub fn apply_lines(&mut self, tr: &mut Tracer, req: u64, lines: &[String]) -> ShadowBatch {
        let mut quarantine = Quarantine::default();
        let (events, id) =
            tr.span("wire.decode", req, || self.decoder.decode_batch(lines, &mut quarantine));
        self.layers.decode_us_per_line.push(tr.dur_ns(id) as f64 / 1e3 / lines.len().max(1) as f64);
        self.layers.quarantined += quarantine.total;
        let events: Vec<(ShardId, DelayEvent)> =
            events.into_iter().map(|w| (w.shard, w.event)).collect();
        self.apply_events(tr, req, &events)
    }

    /// Applies one mixed batch shard by shard, as `ShardedService::apply_feed`
    /// does, timing each write layer.
    pub fn apply_events(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        events: &[(ShardId, DelayEvent)],
    ) -> ShadowBatch {
        let mut out = ShadowBatch { outcomes: Vec::new(), work_ns: 0 };
        for (idx, sh) in self.shards.iter_mut().enumerate() {
            let batch: Vec<DelayEvent> =
                events.iter().filter(|(s, _)| s.idx() == idx).map(|&(_, e)| e).collect();
            if batch.is_empty() {
                continue;
            }
            let (_, patch_id) = tr.span("model.patch", req, || sh.tt.patch_feed(&batch));
            let (summary, apply_id) = tr.span("network.apply", req, || sh.net.apply_feed(&batch));
            let (patch_ns, apply_ns) = (tr.dur_ns(patch_id), tr.dur_ns(apply_id));
            self.layers.patch_ms.push(patch_ns as f64 / 1e6);
            // Network::apply_feed patches its own timetable first; its
            // routes-and-graph share is the rest.
            self.layers.apply_ms.push(apply_ns.saturating_sub(patch_ns) as f64 / 1e6);
            out.work_ns += apply_ns;
            let mut rows = 0;
            if summary.changed() {
                self.layers.changed += 1;
                self.layers.rebuilt += summary.rebuilt() as u64;
                self.layers.routes_touched.push(summary.touched_routes as f64);
                self.layers.routes_refit.push(summary.refit_routes as f64);
                if let Some(table) = sh.table.as_mut() {
                    let (r, id) = tr.span("distance_table.refresh", req, || table.refresh(&sh.net));
                    rows = r.expect("the shadow table follows its own network");
                    out.work_ns += tr.dur_ns(id);
                    self.layers.refresh_ms.push(tr.dur_ns(id) as f64 / 1e6);
                    self.layers.rows.push(rows as f64);
                }
            }
            out.outcomes.push(ShadowOutcome {
                shard: ShardId(idx as u32),
                summary,
                rows,
                generation: sh.net.generation(),
            });
        }
        out
    }

    /// Records the service's time for a batch the shadow also applied;
    /// the publish share is the service's time minus the shadow's network
    /// applies and table refreshes.
    pub fn record_service_ms(&mut self, svc_ms: f64, batch: &ShadowBatch) {
        self.layers.svc_apply_ms.push(svc_ms);
        self.layers.publish_ms.push(svc_ms - batch.work_ns as f64 / 1e6);
        self.layers.checked += 1;
    }
}

/// Checks the shadow against a batch the service applied through
/// `FeedDriver`, whose per-batch summary is not returned: per touched
/// shard, the published generation, whether a snapshot was published, and
/// the table rows the publish unshared from the previous snapshot's table
/// (a refresh copies exactly the rows it recomputes).
pub fn check_observed(
    svc: &ShardedService,
    before: &[Arc<NetworkSnapshot>],
    publishes_before: &[u64],
    outcomes: &[ShadowOutcome],
) -> Result<(), String> {
    for o in outcomes {
        let i = o.shard.idx();
        let after = svc.network(o.shard).map_err(|e| e.to_string())?;
        if after.generation() != o.generation {
            return Err(format!(
                "{}: service generation {} != shadow {}",
                o.shard,
                after.generation(),
                o.generation
            ));
        }
        let published = svc.publishes(o.shard).map_err(|e| e.to_string())? > publishes_before[i];
        if published != o.summary.changed() {
            return Err(format!(
                "{}: service published {published}, shadow changed {}",
                o.shard,
                o.summary.changed()
            ));
        }
        if let (Some(new), Some(old)) = (after.table(), before[i].table()) {
            let rows = if published { new.len() - new.shared_rows_with(old) } else { 0 };
            if rows != o.rows {
                return Err(format!(
                    "{}: service refreshed {rows} table rows, shadow {}",
                    o.shard, o.rows
                ));
            }
        }
    }
    Ok(())
}

/// Checks the shadow against the service's own per-shard outcomes of a
/// batch applied through `ShardedService::apply_feed`.
pub fn check_exact(summary: &ShardedFeedSummary, outcomes: &[ShadowOutcome]) -> Result<(), String> {
    if summary.shards.len() != outcomes.len() {
        return Err(format!(
            "service touched {} shards, shadow {}",
            summary.shards.len(),
            outcomes.len()
        ));
    }
    for (s, o) in summary.shards.iter().zip(outcomes) {
        if s.shard != o.shard || s.summary != o.summary || s.table_rows_refreshed != o.rows {
            return Err(format!(
                "{}: service outcome {:?} != shadow {:?}",
                s.shard, s.summary, o.summary
            ));
        }
    }
    Ok(())
}

/// Fills the write-layer metrics of a traced window.
pub fn report_layers(w: &mut Window, l: &WriteLayers) {
    w.layers.extend([
        ("wire.decode_us", median(&l.decode_us_per_line)),
        ("wire.quarantined", l.quarantined as f64),
        ("model.patch_ms", median(&l.patch_ms)),
        ("network.apply_ms", median(&l.apply_ms)),
        ("network.rebuild_ratio", ratio(l.rebuilt as f64, l.changed as f64)),
        ("network.routes_touched", mean(&l.routes_touched)),
        ("network.routes_refit", mean(&l.routes_refit)),
        ("network.publish_ms", median(&l.publish_ms)),
        ("distance_table.refresh_ms", median(&l.refresh_ms)),
        ("distance_table.rows_refreshed", mean(&l.rows)),
        ("shard.apply_feed_ms", median(&l.svc_apply_ms)),
        ("shadow.batches_checked", l.checked as f64),
    ]);
}

/// The `driver.*` metrics from `FeedDriver::stats`.
pub fn driver_layers(w: &mut Window, s: &FeedStats, wall_s: f64, backlog_max: f64, trend: f64) {
    w.layers.insert("driver.batches", s.batches_applied as f64);
    w.layers.insert(
        "driver.events_per_batch",
        ratio(s.events_applied as f64, s.batches_applied as f64),
    );
    w.layers.insert("driver.backlog_max", backlog_max);
    w.layers.insert("driver.backlog_trend", trend);
    w.layers.insert("driver.coalesced", s.coalesced_dropped as f64);
    w.layers.insert("driver.apply_share", s.apply_ns as f64 / 1e9 / wall_s);
}

/// Every shard's current snapshot and publish count.
pub fn pin_all(svc: &ShardedService) -> (Vec<Arc<NetworkSnapshot>>, Vec<u64>) {
    svc.shard_ids()
        .map(|s| (svc.network(s).expect("listed shard"), svc.publishes(s).expect("listed shard")))
        .unzip()
}
