//! Microbenchmark of the production ranking path (DESIGN.md §12)
//! against the seed scalar implementation it replaced: full-catalog
//! two-channel scoring plus top-K selection per user (users/sec) — the
//! fused side *is* `Scorer::rank` over `Scorer::build`'s caches, what
//! TaxoRec's eval runs. Serving ranks through `Scorer::build_ordered`
//! (spatial order, strip bounds in both channels) and the retrieval index
//! through `Scorer::build_permuted`; the exactness check below covers the
//! ordered scorer too.
//!
//! The metric runs at `TAXOREC_THREADS` = 1 and 4 and reports the naive
//! and fused rates plus their ratio. Results overwrite
//! `BENCH_hotpath.json` in the working directory.
//!
//! `--assert-floor` exits non-zero when a fused rate falls below its
//! naive counterpart — the CI regression floor — or when, outside the
//! timed reps, any user's top-K through either scorer — the plain one
//! and the ordered one serving ships — differs from the naive one in an
//! item id or a score bit, at either thread count. That check runs on
//! the timed fixture's random points and on planted clusters at the same
//! dims, where the prune keeps few items and the strip bounds skip many
//! strips, so a catalogue past the kernel's size crossover also crosses
//! its f32 screen. Problem size is
//! overridable via `TAXOREC_HOTPATH_ITEMS` and `TAXOREC_HOTPATH_USERS`.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_bench::time_it;
use taxorec_core::init;
use taxorec_data::{
    generate_embeddings, select_top_k, Anchor, EmbedConfig, ItemEmbeddings, Scorer,
};
use taxorec_geometry::lorentz;

/// Tag-irrelevant spatial dims — the paper's D − D_t = 52 rounded up to
/// the full D = 64 budget the runtime claims of §V-B are made at.
const DIM_IR: usize = 64;
/// Tag-relevant spatial dims (paper D_t = 12).
const DIM_TAG: usize = 12;
/// Top-K selection width of the eval metric.
const TOP_K: usize = 10;
/// Timed repetitions of each side.
const REPS: usize = 8;
/// Users per batched ranking call in the fused eval path — the same
/// block size the production eval loop hands `top_k_block`.
const EVAL_USER_CHUNK: usize = 32;

/// The shared fixture: user/item embeddings for both channels, flat
/// row-major, plus the production scorer built over the item sides.
struct Fixture {
    n_users: usize,
    n_items: usize,
    u_ir: Vec<f64>,
    u_tg: Vec<f64>,
    v_ir: Vec<f64>,
    v_tg: Vec<f64>,
    scorer: Scorer,
    alphas: Vec<f64>,
}

impl Fixture {
    /// The timed fixture: random points.
    fn build(n_users: usize, n_items: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(0x7a_0f_ec);
        // std 0.8 spreads points from near the origin out to spatial
        // norms past the trainer's radius clip — the full numeric range
        // the kernels see in production.
        let u_ir = init::lorentz_matrix(&mut rng, n_users, DIM_IR, 0.8);
        let v_ir = init::lorentz_matrix(&mut rng, n_items, DIM_IR, 0.8);
        let u_tg = init::lorentz_matrix(&mut rng, n_users, DIM_TAG, 0.8);
        let v_tg = init::lorentz_matrix(&mut rng, n_items, DIM_TAG, 0.8);
        let alphas = (0..n_users).map(|u| 0.5 + (u % 7) as f64 * 0.1).collect();
        let [u_ir, v_ir, u_tg, v_tg] = [u_ir, v_ir, u_tg, v_tg].map(|m| m.data().to_vec());
        Self::new(n_users, n_items, [u_ir, v_ir, u_tg, v_tg], alphas)
    }

    /// Planted tag-tree clusters at the same dims, from the serving
    /// benchmark's generator: the second fixture of the exactness check.
    fn planted(n_users: usize, n_items: usize) -> Self {
        let emb = generate_embeddings(&EmbedConfig {
            n_items,
            n_users,
            dim_ir: DIM_IR,
            dim_tag: DIM_TAG,
            seed: 0x7a_0f_ec,
            ..EmbedConfig::default()
        });
        Self::new(
            n_users,
            n_items,
            [emb.u_ir, emb.v_ir, emb.u_tg, emb.v_tg],
            emb.alphas,
        )
    }

    fn new(n_users: usize, n_items: usize, rows: [Vec<f64>; 4], alphas: Vec<f64>) -> Self {
        let [u_ir, v_ir, u_tg, v_tg] = rows;
        let scorer = Scorer::build(&items(&v_ir, &v_tg));
        Self {
            n_users,
            n_items,
            u_ir,
            u_tg,
            v_ir,
            v_tg,
            scorer,
            alphas,
        }
    }

    /// The serving path's scorer over the same items.
    fn ordered(&self) -> Scorer {
        Scorer::build_ordered(&items(&self.v_ir, &self.v_tg))
    }

    fn u_ir_row(&self, u: usize) -> &[f64] {
        &self.u_ir[u * (DIM_IR + 1)..(u + 1) * (DIM_IR + 1)]
    }

    fn u_tg_row(&self, u: usize) -> &[f64] {
        &self.u_tg[u * (DIM_TAG + 1)..(u + 1) * (DIM_TAG + 1)]
    }

    fn v_ir_row(&self, v: usize) -> &[f64] {
        &self.v_ir[v * (DIM_IR + 1)..(v + 1) * (DIM_IR + 1)]
    }

    fn v_tg_row(&self, v: usize) -> &[f64] {
        &self.v_tg[v * (DIM_TAG + 1)..(v + 1) * (DIM_TAG + 1)]
    }
}

/// The two channels' item rows as a scorer's input.
fn items<'a>(v_ir: &'a [f64], v_tg: &'a [f64]) -> ItemEmbeddings<'a> {
    ItemEmbeddings {
        v_ir,
        ambient_ir: DIM_IR + 1,
        v_tg: Some(v_tg),
        ambient_tg: DIM_TAG + 1,
    }
}

/// One user's top-K on the seed scalar path: fresh score `Vec`, one
/// scalar two-channel distance pair per item, then top-K selection.
fn naive_top(fx: &Fixture, u: usize) -> Vec<(u32, f64)> {
    let urow_ir = fx.u_ir_row(u);
    let urow_tg = fx.u_tg_row(u);
    let alpha = fx.alphas[u];
    let mut scores = Vec::with_capacity(fx.n_items);
    for v in 0..fx.n_items {
        let mut g = lorentz::distance_sq(urow_ir, fx.v_ir_row(v));
        g += alpha * lorentz::distance_sq(urow_tg, fx.v_tg_row(v));
        scores.push(-g);
    }
    select_top_k(&scores, TOP_K, |_| false)
}

/// Top-K lists of user block `c` ([`EVAL_USER_CHUNK`] users) through
/// `scorer`'s [`Scorer::rank`] — the production streaming path itself.
fn fused_block(fx: &Fixture, scorer: &Scorer, c: usize) -> Vec<Vec<(u32, f64)>> {
    let lo = c * EVAL_USER_CHUNK;
    let hi = (lo + EVAL_USER_CHUNK).min(fx.n_users);
    let anchors: Vec<Anchor<'_>> = (lo..hi)
        .map(|u| Anchor {
            ir: fx.u_ir_row(u),
            tg: Some((fx.u_tg_row(u), fx.alphas[u])),
        })
        .collect();
    let ks = [TOP_K; EVAL_USER_CHUNK];
    scorer.rank(&anchors, &ks[..hi - lo], |_, _| false)
}

/// First item id of a top-K list — what a timed rep folds into its sum.
fn first_id(top: &[(u32, f64)]) -> f64 {
    top.first().map(|&(i, _)| i as f64).unwrap_or(0.0)
}

/// Eval-shaped work, seed scalar path, one user per task.
fn eval_naive(fx: &Fixture) -> f64 {
    let tops = taxorec_parallel::par_map("hotpath.eval.naive", fx.n_users, |u| {
        first_id(&naive_top(fx, u))
    });
    tops.iter().sum()
}

/// Eval-shaped work, fused path: blocks of [`EVAL_USER_CHUNK`] users.
fn eval_fused(fx: &Fixture) -> f64 {
    let n_chunks = fx.n_users.div_ceil(EVAL_USER_CHUNK);
    let tops = taxorec_parallel::par_map("hotpath.eval.fused", n_chunks, |c| {
        fused_block(fx, &fx.scorer, c)
            .iter()
            .map(|top| first_id(top))
            .sum::<f64>()
    });
    tops.iter().sum()
}

/// Users whose top-K through `scorer` differs from the naive one in an
/// item id or a score bit — 0 when the pruned kernel is exact.
fn mismatched_users(fx: &Fixture, scorer: &Scorer) -> usize {
    let naive = taxorec_parallel::par_map("hotpath.check.naive", fx.n_users, |u| naive_top(fx, u));
    let n_chunks = fx.n_users.div_ceil(EVAL_USER_CHUNK);
    let fused = taxorec_parallel::par_map("hotpath.check.fused", n_chunks, |c| {
        fused_block(fx, scorer, c)
    });
    let bits = |top: &[(u32, f64)]| -> Vec<(u32, u64)> {
        top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    };
    naive
        .iter()
        .zip(fused.iter().flatten())
        .filter(|(n, f)| bits(n) != bits(f))
        .count()
}

/// Times `reps` *interleaved* runs of the naive and fused workloads
/// (after one warm-up each) and returns both rates as
/// `units_per_rep / best_rep_seconds`. Interleaving pairs each naive
/// rep with a fused rep in the same time window, so noise on a shared
/// machine (other tenants, frequency shifts) hits both paths alike
/// instead of gifting whichever ran during the quiet period.
fn measure_pair(
    reps: usize,
    units_per_rep: f64,
    mut naive: impl FnMut() -> f64,
    mut fused: impl FnMut() -> f64,
) -> (f64, f64) {
    black_box(naive());
    black_box(fused());
    let mut best_naive = f64::INFINITY;
    let mut best_fused = f64::INFINITY;
    for _ in 0..reps {
        let (sum, dt) = time_it(&mut naive);
        black_box(sum);
        best_naive = best_naive.min(dt.as_secs_f64().max(1e-12));
        let (sum, dt) = time_it(&mut fused);
        black_box(sum);
        best_fused = best_fused.min(dt.as_secs_f64().max(1e-12));
    }
    (units_per_rep / best_naive, units_per_rep / best_fused)
}

struct Measurement {
    metric: &'static str,
    threads: usize,
    naive_rate: f64,
    fused_rate: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.fused_rate / self.naive_rate.max(1e-12)
    }
}

pub fn run() {
    let assert_floor = std::env::args().any(|a| a == "--assert-floor");
    let n_items = taxorec_telemetry::env("TAXOREC_HOTPATH_ITEMS")
        .unwrap_or(3584)
        .max(1);
    let n_users = taxorec_telemetry::env("TAXOREC_HOTPATH_USERS")
        .unwrap_or(512)
        .max(1);
    let fx = Fixture::build(n_users, n_items);
    let planted = assert_floor.then(|| Fixture::planted(n_users, n_items));
    // The fixtures the exactness check runs on, and the scorer serving
    // ships for each, beside the one eval times.
    let checked: Vec<&Fixture> = planted.iter().flat_map(|p| [&fx, p]).collect();
    let ordered: Vec<Scorer> = checked.iter().map(|f| f.ordered()).collect();
    let users_per_rep = n_users as f64;

    let prev_threads = std::env::var("TAXOREC_THREADS").ok();
    let mut results: Vec<Measurement> = Vec::new();
    let mut mismatches = Vec::new();
    for &threads in &[1usize, 4] {
        std::env::set_var("TAXOREC_THREADS", threads.to_string());
        if assert_floor {
            let bad: usize = (checked.iter().zip(&ordered))
                .map(|(f, o)| mismatched_users(f, &f.scorer) + mismatched_users(f, o))
                .sum();
            mismatches.push((threads, bad));
        }
        let (en, ef) = measure_pair(REPS, users_per_rep, || eval_naive(&fx), || eval_fused(&fx));
        results.push(Measurement {
            metric: "eval_users_per_sec",
            threads,
            naive_rate: en,
            fused_rate: ef,
        });
    }
    match prev_threads {
        Some(v) => std::env::set_var("TAXOREC_THREADS", v),
        None => std::env::remove_var("TAXOREC_THREADS"),
    }

    let mut json = String::with_capacity(1024);
    json.push_str("{\"bin\":\"hotpath\",\"generated_unix_ms\":");
    json.push_str(&taxorec_telemetry::sink::unix_ms().to_string());
    json.push_str(&format!(
        ",\"n_users\":{n_users},\"n_items\":{n_items},\"dim_ir\":{DIM_IR},\"dim_tag\":{DIM_TAG},\"reps\":{REPS},\"results\":["
    ));
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"metric\":\"{}\",\"threads\":{},\"naive\":{:.1},\"fused\":{:.1},\"speedup\":{:.3}}}",
            m.metric,
            m.threads,
            m.naive_rate,
            m.fused_rate,
            m.speedup()
        ));
    }
    json.push_str("]}");
    if let Err(e) = std::fs::write("BENCH_hotpath.json", format!("{json}\n")) {
        eprintln!("[taxorec:warn] cannot write BENCH_hotpath.json: {e}");
    }

    println!("hotpath microbenchmark ({n_users} users x {n_items} items, best of {REPS} reps)");
    for m in &results {
        println!(
            "  {:<22} threads={} naive={:>14.0}/s fused={:>14.0}/s speedup={:.2}x",
            m.metric,
            m.threads,
            m.naive_rate,
            m.fused_rate,
            m.speedup()
        );
    }

    if assert_floor {
        for &(threads, bad) in &mismatches {
            assert_eq!(
                bad, 0,
                "fused top-{TOP_K} differs from naive for {bad} of 4 × {n_users} users at {threads} threads"
            );
        }
        println!(
            "exactness passed: fused top-{TOP_K} = naive (ids, score bits) for every user of both fixtures, plain and ordered"
        );
        for m in &results {
            assert!(
                m.fused_rate >= m.naive_rate,
                "fused {} regressed below naive at {} threads: {:.0}/s < {:.0}/s",
                m.metric,
                m.threads,
                m.fused_rate,
                m.naive_rate
            );
        }
        println!("floor assertion passed: fused >= naive on every metric");
    }
}
