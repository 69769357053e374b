//! Quality-vs-staleness harness for the streaming-update loop
//! (DESIGN.md §17): prequential ("test, then learn") evaluation of a
//! model that is refreshed from an interaction stream every
//! `refresh_every` events.
//!
//! Each event is first *predicted* — does the current model generation
//! rank the observed item inside its top-K? — and only then becomes
//! training signal at the next refresh tick. Staleness at any event is
//! the number of events accepted since the generation answering the
//! query was built, which is exactly what the serving tier's `/healthz`
//! reports as `ingest.staleness`: the harness quantifies the
//! recommendation-quality cost of letting that number grow.
//!
//! The harness is generic over the model through two closures, so it
//! drives anything from the in-process incremental fold
//! (`taxorec_core::incremental`) to a mock: `rank_for` queries the
//! current generation, `refresh` folds a slice of pending events into
//! the next one. `refresh_every = 0` disables refreshing — the
//! frozen-model baseline a streaming run is compared against.

/// One measurement bucket of a [`quality_vs_staleness`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalenessPoint {
    /// Events evaluated up to and including this bucket.
    pub events: usize,
    /// Mean staleness (events accepted since the answering generation
    /// was built) over the bucket's queries.
    pub mean_staleness: f64,
    /// Events whose observed item the current generation ranked inside
    /// the top-K.
    pub hits: usize,
    /// Events it did not.
    pub misses: usize,
}

/// The full trajectory of one prequential run.
#[derive(Clone, Debug)]
pub struct StalenessReport {
    /// Ranking cutoff used for hits.
    pub k: usize,
    /// Refresh tick in events (`0` = frozen model, never refreshed).
    pub refresh_every: usize,
    /// Per-bucket trajectory, in stream order.
    pub points: Vec<StalenessPoint>,
    /// Model refreshes performed.
    pub refreshes: usize,
}

impl StalenessReport {
    /// Hit rate over the whole stream.
    pub fn overall_hit_rate(&self) -> f64 {
        let (h, m) = self
            .points
            .iter()
            .fold((0usize, 0usize), |(h, m), p| (h + p.hits, m + p.misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Runs `events` (stream-ordered `(user, item)` pairs) prequentially:
/// each event is scored against the *current* model generation via
/// `rank_for(user, k)` (a hit iff the observed item is in the returned
/// list), then — every `refresh_every` events — all pending events are
/// folded into the model via `refresh(pending)` and staleness resets.
/// Results are aggregated into `points` buckets of (roughly) equal
/// size.
///
/// `refresh_every = 0` never refreshes: the frozen baseline whose
/// staleness grows without bound. Comparing its report against a
/// refreshed run isolates the quality the incremental-update loop buys.
pub fn quality_vs_staleness<F, G>(
    events: &[(u32, u32)],
    k: usize,
    refresh_every: usize,
    points: usize,
    mut rank_for: F,
    mut refresh: G,
) -> StalenessReport
where
    F: FnMut(u32, usize) -> Vec<u32>,
    G: FnMut(&[(u32, u32)]),
{
    assert!(k > 0, "k must be positive");
    let bucket = (events.len() / points.max(1)).max(1);
    let mut report = StalenessReport {
        k,
        refresh_every,
        points: Vec::new(),
        refreshes: 0,
    };
    let mut pending_start = 0usize;
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut staleness_sum = 0usize;
    for (i, &(user, item)) in events.iter().enumerate() {
        // Test…
        let top = rank_for(user, k);
        if top.iter().take(k).any(|&it| it == item) {
            hits += 1;
        } else {
            misses += 1;
        }
        staleness_sum += i - pending_start;
        // …then learn, on the tick.
        if refresh_every > 0 && (i + 1) % refresh_every == 0 {
            refresh(&events[pending_start..=i]);
            pending_start = i + 1;
            report.refreshes += 1;
        }
        let bucket_n = hits + misses;
        if bucket_n >= bucket || i + 1 == events.len() {
            report.points.push(StalenessPoint {
                events: i + 1,
                mean_staleness: staleness_sum as f64 / bucket_n.max(1) as f64,
                hits,
                misses,
            });
            hits = 0;
            misses = 0;
            staleness_sum = 0;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A drifting stream: each user's taste moves to a new item block
    /// halfway through, so a frozen model goes stale and a refreshed
    /// one follows.
    fn drifting_events() -> Vec<(u32, u32)> {
        let mut events = Vec::new();
        for round in 0..40u32 {
            for user in 0..5u32 {
                let block = if round < 20 { 0 } else { 100 };
                events.push((user, block + user * 3 + round % 3));
            }
        }
        events
    }

    /// The model under test: per-user recently-folded items, most
    /// recent first.
    fn harness(refresh_every: usize) -> impl FnMut(&[(u32, u32)]) -> StalenessReport {
        move |events: &[(u32, u32)]| {
            let prefs: std::rc::Rc<std::cell::RefCell<HashMap<u32, Vec<u32>>>> = Default::default();
            let prefs_q = std::rc::Rc::clone(&prefs);
            quality_vs_staleness(
                events,
                5,
                refresh_every,
                4,
                move |user, k| {
                    prefs_q
                        .borrow()
                        .get(&user)
                        .map(|v| v.iter().copied().take(k).collect())
                        .unwrap_or_default()
                },
                move |pending| {
                    let mut p = prefs.borrow_mut();
                    for &(user, item) in pending {
                        let v = p.entry(user).or_default();
                        v.retain(|&it| it != item);
                        v.insert(0, item);
                        v.truncate(8);
                    }
                },
            )
        }
    }

    #[test]
    fn refreshing_beats_the_frozen_baseline_on_a_drifting_stream() {
        let events = drifting_events();
        let frozen = harness(0)(&events);
        let fresh = harness(10)(&events);
        assert_eq!(frozen.refreshes, 0);
        assert_eq!(fresh.refreshes, events.len() / 10);
        assert_eq!(frozen.overall_hit_rate(), 0.0, "never learned anything");
        assert!(
            fresh.overall_hit_rate() > 0.5,
            "refreshed model should track the drift, got {}",
            fresh.overall_hit_rate()
        );
    }

    #[test]
    fn tighter_ticks_mean_lower_staleness_and_no_worse_quality() {
        let events = drifting_events();
        let coarse = harness(50)(&events);
        let tight = harness(5)(&events);
        let mean = |r: &StalenessReport| {
            r.points.iter().map(|p| p.mean_staleness).sum::<f64>() / r.points.len() as f64
        };
        assert!(
            mean(&tight) < mean(&coarse),
            "staleness should fall with the tick: {} vs {}",
            mean(&tight),
            mean(&coarse)
        );
        assert!(tight.overall_hit_rate() >= coarse.overall_hit_rate());
    }

    #[test]
    fn buckets_partition_the_stream_and_staleness_resets_on_refresh() {
        let events = drifting_events();
        let report = harness(10)(&events);
        let counted: usize = report.points.iter().map(|p| p.hits + p.misses).sum();
        assert_eq!(counted, events.len());
        assert!(report.points.iter().all(|p| p.mean_staleness < 10.0));
        let frozen = harness(0)(&events);
        let last = frozen.points.last().unwrap();
        assert!(
            last.mean_staleness > 100.0,
            "frozen staleness should keep growing, got {}",
            last.mean_staleness
        );
    }
}
