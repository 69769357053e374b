//! `serve_cold` and `serve_hot`: the same server and model, asked keys
//! that always miss the response cache or (almost) always hit it.

use std::collections::BTreeMap;
use std::sync::Arc;

use taxorec_core::ModelState;
use taxorec_data::select_top_k;
use taxorec_geometry::lorentz;
use taxorec_serve::{serve_with, Checkpoint, ServeOptions, ServingModel};

use crate::fixtures::{serve_checkpoint, FixtureCounts, HOT_POOL, SERVE_ITEMS, SERVE_USERS};
use crate::harness::{
    body_items, merge_logs, phase_length, recommend_loop, render_recommend_body, warm_up,
    window_count, window_width, Outcome, PhaseMeter, RunConfig, SampledBody, Scrape, Served,
};
use crate::streams::{cold_keys, hot_keys, Key, COLD_K_BASE};

/// Which side of the response cache the workload exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temperature {
    /// No key repeats: every request is scored.
    Cold,
    /// A primed pool of [`HOT_POOL`] users: every request is a cache hit.
    Hot,
}

/// Untimed warm-up requests of the set-up.
const WARMUP_COLD: u32 = 256;
const WARMUP_HOT: u32 = 4096;
/// Sampled top-10 lists compared against the exhaustive ranking.
const RECALL_SAMPLES: usize = 64;

/// Set-up: fixture → artifact → reload → model →
/// (hot: prime the cache before the listener opens) → listener → warm-up.
fn set_up(temp: Temperature) -> Result<Served, String> {
    let ckpt = serve_checkpoint(SERVE_ITEMS, SERVE_USERS);
    let bytes = ckpt.to_bytes();
    let counts = FixtureCounts::of_checkpoint(&ckpt, bytes.len());
    drop(ckpt);
    let loaded = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let model = Arc::new(ServingModel::new(loaded).map_err(|e| e.to_string())?);
    if temp == Temperature::Hot {
        let pool: Vec<u32> = (0..HOT_POOL as u32).collect();
        if model
            .recommend_batch(&pool, COLD_K_BASE)
            .iter()
            .any(Result::is_err)
        {
            return Err("priming the hot pool failed".into());
        }
    }
    let handle = serve_with(model, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("server start: {e}"))?;
    match temp {
        // `k` below the cold key space: a warm-up key can never be a
        // timed key.
        Temperature::Cold => warm_up(
            handle.local_addr(),
            (0..WARMUP_COLD).map(|u| (u, COLD_K_BASE - 1)),
        )?,
        Temperature::Hot => warm_up(
            handle.local_addr(),
            (0..WARMUP_HOT).map(|i| (i % HOT_POOL as u32, COLD_K_BASE)),
        )?,
    }
    Ok(Served {
        handle,
        bytes,
        counts,
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, temp: Temperature) -> Result<Outcome, String> {
    let served = set_up(temp)?;
    let addr = served.handle.local_addr();
    let clients = cfg.clients();
    let phase = phase_length(cfg);
    let cold = match temp {
        Temperature::Cold => cold_keys(cfg.seed, SERVE_USERS),
        Temperature::Hot => Vec::new(),
    };

    let before = Scrape::take(addr)?;
    let meter = PhaseMeter::start(window_count(cfg), window_width(cfg))?;
    let phase_start = meter.started();
    let setup_s = cfg.setup_s(phase_start);
    let deadline = phase_start + phase;
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let cold = &cold;
                scope.spawn(move || {
                    let mut keys: Box<dyn Iterator<Item = Key>> = match temp {
                        Temperature::Cold => {
                            Box::new(cold.iter().copied().skip(t).step_by(clients))
                        }
                        Temperature::Hot => Box::new(hot_keys(cfg.seed, t as u64, HOT_POOL)),
                    };
                    recommend_loop(cfg, addr, t as u32, &mut keys, phase_start, deadline)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let usage = meter.stop()?;
    let after = Scrape::take(addr)?;
    let totals = merge_logs(cfg, logs);

    let hit_share = after.cache_hit_share(&before);
    let completed = totals.attempted - totals.failed;
    let mut out = Outcome::of_reads(
        setup_s,
        &totals,
        &usage,
        format!(
            "{clients} client threads, one request in flight each; fixture {}",
            served.counts.json()
        ),
    );

    match temp {
        Temperature::Cold => out.check(hit_share <= 0.01, || {
            format!("serve_cold: cache hit share {hit_share:.4} exceeds 0.01")
        }),
        Temperature::Hot => out.check(hit_share >= 0.999, || {
            format!("serve_hot: cache hit share {hit_share:.5} is below 0.999")
        }),
    }
    out.check(completed > 0, || "no request completed".to_string());

    // Correctness of what was served, checked against a second model
    // loaded from the same artifact (cache off, so every expectation is
    // computed, never remembered) and against a kernel-free exhaustive
    // ranking.
    drop(served.handle);
    let reference = Checkpoint::from_bytes(&served.bytes).map_err(|e| e.to_string())?;
    let unique = unique_bodies(&totals.sampled, &mut out);
    let agreement = exhaustive_agreement(&reference.state, &unique);
    out.end_to_end.recall_at_10 = agreement;
    out.check(agreement == 1.0, || {
        format!("served top-10 lists differ from the exhaustive ranking (agreement {agreement})")
    });
    let twin = ServingModel::with_cache_capacity(reference, 0).map_err(|e| e.to_string())?;
    let keys: Vec<Key> = unique.keys().copied().collect();
    for (&(user, k), expected) in keys.iter().zip(twin.recommend_many(&keys)) {
        let expected = expected.map_err(|e| e.to_string())?;
        let rendered = render_recommend_body(user, k, &expected);
        out.check(rendered.as_bytes() == unique[&(user, k)].as_slice(), || {
            format!("body of /recommend?user={user}&k={k} differs from the in-process rendering")
        });
    }
    out.report.push(format!(
        "checked {} distinct sampled bodies bit for bit; cache hit share {hit_share:.5}",
        keys.len()
    ));

    if cfg.trace {
        out.trace_reads(&totals, &before, &after);
        usage.layers(&mut out.layers);
        out.spans = totals.spans;
    }
    Ok(out)
}

/// Sampled bodies by key; the same key answered with two different
/// bodies is a violation.
fn unique_bodies(sampled: &[SampledBody], out: &mut Outcome) -> BTreeMap<Key, Vec<u8>> {
    let mut unique: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
    for s in sampled {
        match unique.get(&s.key) {
            Some(seen) if *seen != s.body => out.violate(format!(
                "key {:?} was answered with two different bodies",
                s.key
            )),
            Some(_) => {}
            None => {
                unique.insert(s.key, s.body.clone());
            }
        }
    }
    unique
}

/// Share of (up to [`RECALL_SAMPLES`]) sampled responses whose first ten
/// items equal the exhaustive ranking computed here from the raw
/// embeddings with scalar Lorentz distances — no fused kernel, no cache,
/// no top-K heap of the serving path.
fn exhaustive_agreement(state: &ModelState, unique: &BTreeMap<Key, Vec<u8>>) -> f64 {
    let stride = (unique.len() / RECALL_SAMPLES).max(1);
    let (mut agree, mut total) = (0usize, 0usize);
    let mut scores = vec![0.0; state.n_items()];
    for (&(user, _), body) in unique.iter().step_by(stride).take(RECALL_SAMPLES) {
        let u = user as usize;
        let alpha = state.config.tag_channel_gain * state.alphas[u];
        for (v, s) in scores.iter_mut().enumerate() {
            let mut g = lorentz::distance_sq(state.u_ir.row(u), state.v_ir.row(v));
            g += alpha * lorentz::distance_sq(state.u_tg.row(u), state.v_tg.row(v));
            *s = -g;
        }
        let expected: Vec<u32> = select_top_k(&scores, 10, |_| false)
            .into_iter()
            .map(|(item, _)| item)
            .collect();
        let served: Vec<u32> = body_items(body).into_iter().take(10).collect();
        total += 1;
        agree += usize::from(served == expected);
    }
    agree as f64 / total.max(1) as f64
}
