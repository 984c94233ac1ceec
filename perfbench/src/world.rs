//! The inputs every workload is built from.

use pt_timetable::synthetic::presets::{germany_like, metro_like, oahu_like};
use pt_timetable::Timetable;

/// Oahu-, Germany- and Metro-like timetables at `scale`: one shard each.
/// The generators are deterministic, so a shadow built from a second call
/// starts from exactly the service's state.
pub fn presets(scale: f64) -> Vec<Timetable> {
    vec![oahu_like(scale).timetable, germany_like(scale).timetable, metro_like(scale).timetable]
}
