//! Partition of trains into *routes* (paper, §2).
//!
//! Two trains are equivalent if they run through the same sequence of
//! stations. The realistic time-dependent model creates one route node per
//! (route, station) pair, and its route edges carry the travel-time PLFs of
//! all trains on the route — which is only sound if no train *overtakes*
//! another on any leg (otherwise the edge function would silently drop the
//! overtaken train) **and** no two trains of the route are ever catchably
//! co-dwelling at an intermediate station: a rider chained along the route
//! nodes arrives at station `i` at `arr_i(B)` and the hop PLF hands them
//! the first departure at or after that instant — if an *earlier* train `A`
//! of the route is still in the station (`dep_i(A) >= arr_i(B)`), the model
//! would board `A` without paying the station's transfer time, fabricating
//! a connection faster than the timetable allows. We therefore split each
//! stop-sequence equivalence class further, greedily, so that within one
//! route all legs are FIFO — departures strictly increasing and arrivals
//! strictly increasing on every hop — and every train *leaves* each
//! intermediate station strictly before its successor arrives there
//! (`dep_i(k) < arr_i(k+1)`, linearly and across the period wrap).
//! Schedules rarely violate the dwell condition, but a `from_hop >= 1`
//! delay stretches exactly one dwell and can manufacture it.
//!
//! The mirror image matters too: a rider who stays on the route node after
//! arriving on train `B` is handed the first of the route's departures at
//! or after `arr_i(B)` (modulo the period). That must be `B`'s own, or one
//! at least the station's transfer time `T(S_i)` later — which the rider
//! could reach by changing trains anyway. A catch-up recovery that is
//! faster than the dwell makes `B` depart *before* it arrives; if another
//! train `C` of the route departs less than `T(S_i)` after `B` arrives,
//! the model would board `C` without the transfer time, so `B` and `C`
//! cannot share a route.

use std::collections::BTreeMap;
use std::sync::Arc;

use pt_core::{RouteId, StationId, Time, TrainId};

use crate::delay::{DelayPatch, FeedPatch};
use crate::model::Timetable;

/// One route: a maximal overtaking-free set of trains sharing a stop
/// sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteInfo {
    /// The stop sequence (length ≥ 2).
    pub stations: Vec<StationId>,
    /// Trains on this route, ordered by departure at the first stop.
    pub trains: Vec<TrainId>,
}

impl RouteInfo {
    /// Number of hops (edges) of the route.
    #[inline]
    pub fn num_hops(&self) -> usize {
        self.stations.len() - 1
    }
}

/// The route partition of a timetable.
///
/// Every route is individually `Arc`-shared so a clone is O(routes)
/// refcount bumps and the incremental followers ([`Routes::repatch_feed`],
/// [`Routes::refit`]) copy-on-write only the routes they actually rewrite —
/// the rest stays physically shared with any snapshot cloned earlier. A
/// train's connections are not stored here: the timetable's per-train
/// index ([`Timetable::train_connections`]) answers that.
#[derive(Debug, Clone)]
pub struct Routes {
    routes: Vec<Arc<RouteInfo>>,
    /// Route of each train, indexed by [`TrainId`]. Rewritten only by
    /// [`Routes::refit`] (topology change), never by a plain repatch.
    train_route: Arc<Vec<RouteId>>,
}

impl Routes {
    /// Computes the route partition. Deterministic: routes are numbered by
    /// stop sequence, then by departure of their first train.
    pub fn partition(tt: &Timetable) -> Routes {
        // Group trains by stop sequence (BTreeMap for determinism).
        let mut groups: BTreeMap<Vec<StationId>, Vec<TrainId>> = BTreeMap::new();
        for t in 0..tt.num_trains() {
            let conns = tt.train_connections(TrainId::from_idx(t));
            if conns.is_empty() {
                continue;
            }
            debug_assert!(
                conns.windows(2).all(|w| { tt.connection(w[0]).to == tt.connection(w[1]).from }),
                "train journey is not contiguous"
            );
            let mut seq = Vec::with_capacity(conns.len() + 1);
            seq.push(tt.connection(conns[0]).from);
            for &c in conns {
                seq.push(tt.connection(c).to);
            }
            groups.entry(seq).or_default().push(TrainId::from_idx(t));
        }

        let mut routes = Vec::new();
        let mut train_route = vec![RouteId(u32::MAX); tt.num_trains()];
        for (stations, mut trains) in groups {
            trains.sort_unstable_by_key(|&t| (first_dep(tt, t), t));
            for members in first_fit(tt, &stations, &trains) {
                let id = RouteId::from_idx(routes.len());
                for &t in &members {
                    train_route[t.idx()] = id;
                }
                routes.push(Arc::new(RouteInfo { stations: stations.clone(), trains: members }));
            }
        }
        Routes { routes, train_route: Arc::new(train_route) }
    }

    /// Iterates over all routes in [`RouteId`] order.
    #[inline]
    pub fn iter_routes(&self) -> impl Iterator<Item = &RouteInfo> {
        self.routes.iter().map(|r| &**r)
    }

    /// A single route.
    #[inline]
    pub fn route(&self, r: RouteId) -> &RouteInfo {
        &self.routes[r.idx()]
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` iff the timetable has no trains.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route a train belongs to.
    #[inline]
    pub fn route_of(&self, t: TrainId) -> RouteId {
        self.train_route[t.idx()]
    }

    /// How many routes of `self` are *physically shared* (same allocation,
    /// by refcount) with `other`. Diagnostics for the copy-on-write publish
    /// path, the route-level analogue of
    /// [`Timetable::shared_buckets_with`].
    pub fn shared_routes_with(&self, other: &Routes) -> usize {
        self.routes.iter().zip(&other.routes).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// A fully unshared copy: every route block and the train → route map
    /// are reallocated (see [`Timetable::deep_clone`]).
    pub fn deep_clone(&self) -> Routes {
        Routes {
            routes: self.routes.iter().map(|r| Arc::new((**r).clone())).collect(),
            train_route: Arc::new((*self.train_route).clone()),
        }
    }

    /// Follows a [`Timetable::patch_delay`]: restores the "trains ordered
    /// by first-stop departure" invariant on the delayed train's route
    /// (renumbered connection ids need no following here — the timetable's
    /// own per-train index tracks them). The partition itself (which
    /// trains share a route) is
    /// deliberately **not** recomputed — call [`Routes::route_is_fifo`] on
    /// the delayed route afterwards to learn whether it is still valid, and
    /// fall back to a fresh [`Routes::partition`] if not.
    ///
    /// `tt` must be the already-patched timetable the patch came from.
    pub fn repatch(&mut self, tt: &Timetable, patch: &DelayPatch) {
        if !patch.changed {
            return;
        }
        let r = self.train_route[patch.train.idx()];
        if r != RouteId(u32::MAX) {
            self.resort_route_trains(tt, r);
        }
    }

    /// The multi-train analogue of [`Routes::repatch`], following a
    /// [`Timetable::patch_feed`]: restores the train order on **each**
    /// route that carries a
    /// net-changed train, returning those routes sorted and deduplicated —
    /// each appears exactly once, so the caller rewrites (or refits) every
    /// touched route exactly once regardless of how many feed events hit
    /// it. The partition itself is not recomputed; run
    /// [`Routes::route_is_fifo`] on the returned routes and
    /// [`Routes::refit`] the ones that fail.
    pub fn repatch_feed(&mut self, tt: &Timetable, patch: &FeedPatch) -> Vec<RouteId> {
        if !patch.changed {
            return Vec::new();
        }
        let mut touched: Vec<RouteId> = patch
            .trains
            .iter()
            .map(|&t| self.train_route[t.idx()])
            .filter(|&r| r != RouteId(u32::MAX))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for &r in &touched {
            self.resort_route_trains(tt, r);
        }
        touched
    }

    /// Restores the "trains ordered by first-stop departure" invariant of
    /// one route.
    fn resort_route_trains(&mut self, tt: &Timetable, r: RouteId) {
        Arc::make_mut(&mut self.routes[r.idx()])
            .trains
            .sort_unstable_by_key(|&t| (first_dep(tt, t), t));
    }

    /// Re-splits each of the given (presumed non-FIFO) routes into
    /// overtaking-free subroutes — the *scoped* fallback when a delay makes
    /// a train overtake a companion: only the offending routes are
    /// repartitioned, every other route keeps its id and trains. The first
    /// subroute reuses the stale [`RouteId`]; extra subroutes are appended
    /// at fresh ids, `len()..`. Existing ids never move, so the graph can
    /// follow in place: `TdGraph::repatch_routes` rewrites the stale routes'
    /// PLFs and appends the new routes' nodes and edges. The partition work
    /// is proportional to the offending routes, not the whole timetable.
    ///
    /// Any finer-than-maximal split is a *sound* partition for the
    /// realistic time-dependent model, so queries on the refit partition
    /// are identical to a from-scratch [`Routes::partition`]. Each
    /// resulting route passes [`Routes::route_is_fifo`] by construction —
    /// refit and partition share the exact same fit check, which covers the
    /// per-hop FIFO, cyclic, and co-dwell conditions.
    pub fn refit(&mut self, tt: &Timetable, stale: &[RouteId]) {
        for &r in stale {
            let info = &self.routes[r.idx()];
            if info.trains.len() <= 1 {
                continue; // a single train can never overtake itself
            }
            let stations = info.stations.clone();
            let mut subroutes = first_fit(tt, &stations, &info.trains).into_iter();
            let first = subroutes.next().expect("a non-empty route splits non-trivially");
            Arc::make_mut(&mut self.routes[r.idx()]).trains = first;
            for members in subroutes {
                let id = RouteId::from_idx(self.routes.len());
                for &t in &members {
                    Arc::make_mut(&mut self.train_route)[t.idx()] = id;
                }
                self.routes
                    .push(Arc::new(RouteInfo { stations: stations.clone(), trains: members }));
            }
            debug_assert!(self.route_is_fifo(tt, r), "refit left route {r:?} non-FIFO");
        }
    }

    /// `true` iff route `r` still satisfies everything the realistic
    /// time-dependent model requires of a route (see the module docs): in
    /// train order, per hop, departures strictly increasing and arrivals
    /// strictly increasing; no arrival a full period (or more) after the
    /// hop's earliest (the cyclic condition of [`pt_core::Plf::is_fifo`]);
    /// at every intermediate station each train departs strictly before
    /// its successor arrives — linearly and across the period wrap; and
    /// the first of the route's departures at or after a train's arrival
    /// (modulo the period) is the train's own or at least the station's
    /// transfer time later.
    /// [`Routes::partition`] and [`Routes::refit`] guarantee all of this by
    /// construction; a delay can break any of it, at which point the
    /// offending routes must be refit.
    pub fn route_is_fifo(&self, tt: &Timetable, r: RouteId) -> bool {
        let info = &self.routes[r.idx()];
        let pi = tt.period().len() as u64;
        let mut legs: Vec<(Time, Time)> = Vec::with_capacity(info.trains.len());
        let mut prev_legs: Vec<(Time, Time)> = Vec::new();
        for hop in 0..info.num_hops() {
            legs.clear();
            legs.extend(info.trains.iter().map(|&t| {
                let c = tt.connection(tt.train_connections(t)[hop]);
                (c.dep, c.arr)
            }));
            // Checked in *train order*, not sorted: sorting per hop would
            // hide trains swapping places between hops.
            if !legs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1) {
                return false;
            }
            if let (Some(f), Some(l)) = (legs.first(), legs.last()) {
                if l.1.secs() as u64 >= f.1.secs() as u64 + pi {
                    return false;
                }
            }
            if hop > 0 {
                // At the station between hop-1 and hop: train k must leave
                // before train k+1 arrives (consecutive pairs suffice —
                // departures increase), and the last train must leave before
                // the first train's next-period arrival.
                if !legs.iter().zip(prev_legs.iter().skip(1)).all(|(cur, nxt)| cur.0 < nxt.1) {
                    return false;
                }
                if let (Some(l), Some(f)) = (legs.last(), prev_legs.first()) {
                    if l.0.secs() as u64 >= f.1.secs() as u64 + pi {
                        return false;
                    }
                }
                // The departure a rider staying on board is handed: the
                // first at or after the arrival (departures are sorted).
                let n = legs.len();
                let transfer = tt.transfer_time(info.stations[hop]).secs() as u64;
                if n > 1
                    && !(0..n).all(|k| {
                        let arr = prev_legs[k].1.secs() as u64;
                        let next = legs.partition_point(|l| (l.0.secs() as u64) < arr % pi) % n;
                        next == k || wait(arr, legs[next].0, pi) >= transfer
                    })
                {
                    return false;
                }
            }
            std::mem::swap(&mut prev_legs, &mut legs);
        }
        true
    }
}

/// Greedy first-fit split of `trains` (ordered by first departure, all on
/// the stop sequence `stations`) into subroutes that each pass
/// [`Routes::route_is_fifo`]: each train joins the first subroute it
/// [`fits`], or opens a new one.
fn first_fit(tt: &Timetable, stations: &[StationId], trains: &[TrainId]) -> Vec<Vec<TrainId>> {
    let pi = tt.period().len() as u64;
    let transfer: Vec<u64> = stations.iter().map(|&s| tt.transfer_time(s).secs() as u64).collect();
    let mut subroutes: Vec<Subroute> = Vec::new();
    'train: for &t in trains {
        let legs = train_legs(tt, t);
        for sub in &mut subroutes {
            if sub.fits(&legs, pi, &transfer) {
                sub.push(t, &legs, pi);
                continue 'train;
            }
        }
        let wrap = (0..legs.len())
            .map(|h| if h == 0 { Vec::new() } else { vec![legs[h - 1].1.secs() as u64 % pi] })
            .collect();
        let hop_points = legs.iter().map(|&leg| vec![leg]).collect();
        subroutes.push(Subroute { members: vec![t], hop_points, wrap });
    }
    subroutes.into_iter().map(|sub| sub.members).collect()
}

/// A subroute being grown by [`first_fit`].
struct Subroute {
    members: Vec<TrainId>,
    /// Per hop, the `(dep, arr)` of each member, in member order.
    hop_points: Vec<Vec<(Time, Time)>>,
    /// Per hop, the arrivals (period-local seconds) at the hop's departure
    /// station that are handed the first member's departure one period on
    /// — the only arrivals a newcomer's departure can come before.
    wrap: Vec<Vec<u64>>,
}

impl Subroute {
    /// Can `legs` join as the new *last* train? Candidates are scanned in
    /// order of first-hop departure, so a train that joins always appends,
    /// on every hop. Enforces, per hop, everything
    /// [`Routes::route_is_fifo`] later checks: the newcomer departs and
    /// arrives strictly after the current last train; its arrival stays
    /// within one period of the hop's earliest; and at the station the hop
    /// departs from (intermediate stations only) the current last train
    /// leaves strictly before the newcomer arrives, the newcomer leaves
    /// strictly before the first train's next-period arrival, and neither
    /// the newcomer nor an earlier arrival handed its departure gets
    /// another train sooner than the transfer time `transfer[h]`.
    fn fits(&self, legs: &[(Time, Time)], pi: u64, transfer: &[u64]) -> bool {
        legs.iter().enumerate().all(|(h, &(dep, arr))| {
            let points = &self.hop_points[h];
            let (first, last) = (points[0], points[points.len() - 1]);
            if dep <= last.0 || arr <= last.1 {
                return false; // would not extend the hop's strict FIFO order
            }
            if arr.secs() as u64 >= first.1.secs() as u64 + pi {
                return false; // cyclic: arrival a full period after the earliest
            }
            if h == 0 {
                return true;
            }
            // No catchable co-dwell at the station this hop departs from.
            if last.0 >= legs[h - 1].1 {
                return false; // current last train still there when we arrive
            }
            if dep.secs() as u64 >= self.hop_points[h - 1][0].1.secs() as u64 + pi {
                return false; // we'd still be there when the first train wraps
            }
            // Handed another train than our own, sooner than a change?
            let arr = legs[h - 1].1.secs() as u64;
            let next = points.partition_point(|p| (p.0.secs() as u64) < arr % pi);
            let other = wait(arr, points.get(next).unwrap_or(&first).0, pi);
            if other < wait(arr, dep, pi) && other < transfer[h] {
                return false;
            }
            // Arrivals that were handed the first train's next-period
            // departure and now get ours first.
            !self.wrap[h].iter().any(|&a| {
                let ours = wait(a, dep, pi);
                ours < wait(a, first.0, pi) && ours < transfer[h]
            })
        })
    }

    /// Appends train `t` with `legs`, which [`Subroute::fits`] admitted.
    fn push(&mut self, t: TrainId, legs: &[(Time, Time)], pi: u64) {
        for (h, &leg) in legs.iter().enumerate() {
            if h > 0 {
                let first = self.hop_points[h][0].0;
                let wrap = &mut self.wrap[h];
                wrap.retain(|&a| wait(a, first, pi) < wait(a, leg.0, pi));
                let arr = legs[h - 1].1.secs() as u64;
                if wait(arr, first, pi) < wait(arr, leg.0, pi) {
                    wrap.push(arr % pi);
                }
            }
            self.hop_points[h].push(leg);
        }
        self.members.push(t);
    }
}

/// The wait from an arrival at `arr` seconds (absolute) until the
/// period-local departure `dep`, modulo the period `pi`.
fn wait(arr: u64, dep: Time, pi: u64) -> u64 {
    (dep.secs() as u64 % pi + pi - arr % pi) % pi
}

/// Departure of train `t` at its first stop.
fn first_dep(tt: &Timetable, t: TrainId) -> Time {
    tt.connection(tt.train_connections(t)[0]).dep
}

/// The `(dep, arr)` of each hop of train `t`, in hop order.
fn train_legs(tt: &Timetable, t: TrainId) -> Vec<(Time, Time)> {
    tt.train_connections(t)
        .iter()
        .map(|&c| {
            let c = tt.connection(c);
            (c.dep, c.arr)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TimetableBuilder;
    use pt_core::{Dur, Period};

    fn line(b: &mut TimetableBuilder, path: &[StationId], starts: &[Time], leg: Dur) {
        let legs = vec![leg; path.len() - 1];
        for &s in starts {
            b.add_simple_trip(path, s, &legs, Dur::ZERO).unwrap();
        }
    }

    #[test]
    fn same_sequence_same_route() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes.route(RouteId(0)).trains.len(), 2);
        assert_eq!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn different_sequences_different_routes() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0)], Dur::minutes(10));
        line(&mut b, &[s[2], s[1], s[0]], &[Time::hm(8, 0)], Dur::minutes(10));
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn overtaking_train_is_split_off() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Slow train departs 08:00, takes 60 min. Express departs 08:10,
        // takes 10 min — it overtakes, so it must land on its own route.
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(60)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 10), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn non_overtaking_trains_share_route() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 10), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        assert_eq!(Routes::partition(&tt).len(), 1);
    }

    #[test]
    fn train_connections_ordered_by_hop() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2], s[3]], &[Time::hm(6, 0)], Dur::minutes(5));
        let tt = b.build().unwrap();
        let conns = tt.train_connections(TrainId(0));
        assert_eq!(conns.len(), 3);
        for (h, &c) in conns.iter().enumerate() {
            assert_eq!(tt.connection(c).seq as usize, h);
            assert_eq!(tt.connection(c).from, s[h]);
        }
    }

    #[test]
    fn repatch_follows_delay_remaps_and_reorders() {
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Delay the 08:00 train to 09:10: it now departs after the 09:00
        // train on every hop (no overtake — it also arrives later).
        let patch = routes_patch(&mut tt, TrainId(0), Dur::minutes(70), Recovery::None);
        assert!(patch.changed && !patch.remapped.is_empty());
        routes.repatch(&tt, &patch);
        // train_connections point at the right (train, hop) again.
        for t in [TrainId(0), TrainId(1)] {
            for (h, &c) in tt.train_connections(t).iter().enumerate() {
                assert_eq!(tt.connection(c).train, t);
                assert_eq!(tt.connection(c).seq as usize, h);
            }
        }
        // The route's trains are re-sorted by first-stop departure…
        let r = routes.route_of(TrainId(0));
        assert_eq!(routes.route(r).trains, vec![TrainId(1), TrainId(0)]);
        // …and the route is still FIFO, identical to a fresh partition.
        assert!(routes.route_is_fifo(&tt, r));
        assert_eq!(Routes::partition(&tt).len(), routes.len());
    }

    #[test]
    fn route_is_fifo_detects_overtaking_delay() {
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1]], &[Time::hm(8, 0), Time::hm(8, 30)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 1);
        let r = routes.route_of(TrainId(0));
        assert!(routes.route_is_fifo(&tt, r));
        // Delay the 08:00 train to 08:40: it departs after the 08:30 train
        // but arrives after it too — still FIFO. Delay to 08:35 with the
        // same duration: departs later (08:35 > 08:30), arrives 08:45 >
        // 08:40 — still FIFO. Make it *equal* departure instead: broken.
        let patch = routes_patch(&mut tt, TrainId(0), Dur::minutes(30), Recovery::None);
        routes.repatch(&tt, &patch);
        assert!(!routes.route_is_fifo(&tt, r), "equal departures must break FIFO");
    }

    fn routes_patch(
        tt: &mut Timetable,
        train: TrainId,
        delay: Dur,
        rec: crate::delay::Recovery,
    ) -> DelayPatch {
        tt.patch_delay(train, 0, delay, rec)
    }

    #[test]
    fn repatch_feed_touches_each_route_once() {
        use crate::delay::{DelayEvent, Recovery};
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Route A: two trains 0/1 over 0→1→2; route B: one train 2 over 3→1.
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        line(&mut b, &[s[3], s[1]], &[Time::hm(8, 30)], Dur::minutes(5));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Three events, two of them on route A's trains: the touched list
        // must still name each route exactly once.
        let patch = tt.patch_feed(&[
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(70),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(1),
                from_hop: 0,
                delay: Dur::minutes(5),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(2),
                from_hop: 0,
                delay: Dur::minutes(3),
                recovery: Recovery::None,
            },
        ]);
        assert!(patch.changed);
        let touched = routes.repatch_feed(&tt, &patch);
        assert_eq!(touched.len(), 2, "two distinct routes touched: {touched:?}");
        let mut expect = vec![routes.route_of(TrainId(0)), routes.route_of(TrainId(2))];
        expect.sort_unstable();
        assert_eq!(touched, expect);
        // Per-train lists point at the right (train, hop) again, and every
        // touched route's trains are re-sorted by first-stop departure.
        for t in [TrainId(0), TrainId(1), TrainId(2)] {
            for (h, &c) in tt.train_connections(t).iter().enumerate() {
                assert_eq!(tt.connection(c).train, t);
                assert_eq!(tt.connection(c).seq as usize, h);
            }
        }
        assert_eq!(
            routes.route(routes.route_of(TrainId(0))).trains,
            vec![TrainId(1), TrainId(0)],
            "delayed train now departs last"
        );
        for &r in &touched {
            assert!(routes.route_is_fifo(&tt, r));
        }
    }

    #[test]
    fn refit_splits_only_the_offending_route() {
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Route A: trains 0/1 on 0→1; route B: trains 2/3 on 1→2.
        line(&mut b, &[s[0], s[1]], &[Time::hm(8, 0), Time::hm(8, 30)], Dur::minutes(10));
        line(&mut b, &[s[1], s[2]], &[Time::hm(9, 0), Time::hm(9, 30)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        let rb = routes.route_of(TrainId(2));
        // Land train 0 exactly on train 1's slot: equal departures on route
        // A break FIFO; route B is untouched.
        let patch = tt.patch_delay(TrainId(0), 0, Dur::minutes(30), Recovery::None);
        let touched = routes.repatch_feed(
            &tt,
            &FeedPatch {
                changed: true,
                event_changed: vec![true],
                trains: vec![TrainId(0)],
                remapped: patch.remapped.clone(),
                touched_stations: vec![s[0]],
            },
        );
        let ra = routes.route_of(TrainId(0));
        assert_eq!(touched, vec![ra]);
        assert!(!routes.route_is_fifo(&tt, ra));
        routes.refit(&tt, &[ra]);
        // The offending route split in two; route B kept its id and trains.
        assert_eq!(routes.len(), 3);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
        assert_eq!(routes.route_of(TrainId(2)), rb);
        assert_eq!(routes.route(rb).trains, vec![TrainId(2), TrainId(3)]);
        for r in 0..routes.len() {
            assert!(routes.route_is_fifo(&tt, RouteId::from_idx(r)), "route {r} not FIFO");
        }
        // The split partition answers like a fresh one: same train sets per
        // stop sequence, every route FIFO (soundness is what matters — the
        // fresh partition may group differently but both are valid).
        let fresh = Routes::partition(&tt);
        for r in 0..fresh.len() {
            assert!(fresh.route_is_fifo(&tt, RouteId::from_idx(r)));
        }
    }

    #[test]
    fn equal_departure_on_a_hop_splits() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(12)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        assert_eq!(Routes::partition(&tt).len(), 2);
    }
}
