//! The batch workloads, riceps-large and miss-cold: repeated passes of a
//! fixed unit set through `BatchRunner` on two workers, every pass from an
//! empty verdict cache (as `batch_corpus` runs without `--cache-file`).

use crate::stats::{describe, median, percentile, Metrics};
use crate::trace::{mirror_pass, PassTrace, LAYERS};
use crate::{
    batch_config, calib, fresh_cache, gen, oracle_sample, peak_rss_mb, record, Args, Outcome,
    WORKERS,
};
use delin_vic::batch::{BatchJob, BatchRunner, BatchStats, BatchUnit, UnitOutcome};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Units of the miss-cold pool.
pub const MISS_UNITS: usize = 4000;
/// Lines per RiCEPS program in riceps-large.
const RICEPS_LINES: usize = 800;
/// Set-up repetitions before each measured pass; `setup_s` is the median
/// of all of them. Spreading them over the run blends the machine's fast
/// and slow spells into the figure, as `throughput` does.
const SETUPS_PER_PASS: usize = 3;
/// Concrete pairs the soundness oracle checks per run.
pub const ORACLE_PAIRS: usize = 300;

/// A workload's units plus their assignment-statement count.
struct Input {
    units: Vec<BatchUnit>,
    statements: usize,
}

fn input(args: &Args) -> Input {
    if args.workload == "riceps-large" {
        // The programs are fixed; the seed picks the oracle's sample.
        let units: Vec<BatchUnit> =
            delin_corpus::stream::riceps_units(Some(RICEPS_LINES)).collect();
        let statements = units.iter().map(|u| assignments(&u.source)).sum();
        Input { units, statements }
    } else {
        let generated = gen::miss_units(args.seed, 0, MISS_UNITS);
        let statements = generated.iter().map(|g| g.statements).sum();
        Input { units: generated.into_iter().map(|g| g.unit).collect(), statements }
    }
}

/// Assignment statements of a source (0 when it does not parse).
pub fn assignments(src: &str) -> usize {
    let mut n = 0;
    if let Ok(p) = delin_frontend::parse_program(src) {
        p.visit_assigns(&mut |_| n += 1);
    }
    n
}

/// One timed pass: wall seconds, each unit's completion (seconds from pass
/// start, finishing worker, unit index), the units that failed, and the
/// factor that rescales its times to the reference's nominal speed. Reports
/// are not kept past the pass, so the harness's own memory stays flat
/// across passes.
struct Pass {
    wall: f64,
    done: Vec<(f64, ThreadId, usize)>,
    failed: u64,
    scale: f64,
}

fn timed_pass(runner: &BatchRunner, units: &[BatchUnit]) -> (Pass, BatchStats) {
    let done = Mutex::new(Vec::with_capacity(units.len()));
    let t0 = Instant::now();
    let jobs =
        units.iter().enumerate().map(|(k, u)| BatchJob { tag: k as u64, ..u.clone().into() });
    let stats = runner.run_jobs(jobs, true, |tag, _| {
        let stamp = (t0.elapsed().as_secs_f64(), std::thread::current().id(), tag as usize);
        done.lock().expect("completion stamps").push(stamp);
    });
    let wall = t0.elapsed().as_secs_f64();
    let pass = Pass {
        wall,
        done: done.into_inner().expect("completion stamps"),
        failed: failures(&stats),
        scale: 1.0,
    };
    (pass, stats)
}

/// Units that failed: parse errors, failed attempts, or degraded pairs.
fn failures(stats: &BatchStats) -> u64 {
    stats
        .units
        .iter()
        .filter(|u| !matches!(u.outcome, UnitOutcome::Analyzed) || u.stats.degraded_pairs > 0)
        .count() as u64
}

/// Repeats passes until their measured wall reaches `budget` seconds (at
/// least `min` passes), calling `before` ahead of each (untimed). With a
/// `reference`, the machine-speed reference is timed between the passes
/// (untimed by them) and sets each pass's scale.
/// Returns the passes, the references (one more than the passes, or none),
/// the first pass's report and its render; every later render must equal
/// it.
fn passes(
    runner: &BatchRunner,
    units: &[BatchUnit],
    budget: f64,
    min: usize,
    reference: Option<&calib::Reference>,
    violations: &mut Vec<String>,
    mut before: impl FnMut(&mut Vec<String>),
) -> (Vec<Pass>, Vec<f64>, BatchStats, String) {
    let mut out: Vec<Pass> = Vec::new();
    let mut refs = Vec::new();
    let mut first: Option<(BatchStats, String)> = None;
    let mut measured = 0.0;
    while out.len() < min || measured < budget {
        before(violations);
        if let Some(r) = reference {
            refs.push(r.measure(WORKERS));
        }
        let (pass, stats) = timed_pass(runner, units);
        measured += pass.wall;
        let render = stats.render();
        match &first {
            None => first = Some((stats, render)),
            Some((_, r)) if *r != render => {
                violations.push(format!("pass {} renders differently from pass 0", out.len()));
            }
            Some(_) => {}
        }
        out.push(pass);
    }
    if let Some(r) = reference {
        refs.push(r.measure(WORKERS));
        for (k, pass) in out.iter_mut().enumerate() {
            pass.scale = calib::scale(refs[k], refs[k + 1]);
        }
    }
    let (stats, render) = first.expect("at least one pass");
    (out, refs, stats, render)
}

/// The set-up a batch user pays, in-process: read and decode the recorded
/// trace file, then build the runner and its cache. Returns its seconds and
/// the decoded units; dropping what it built is not timed.
fn setup(trace: &Path) -> Result<(f64, Vec<BatchUnit>), String> {
    let t0 = Instant::now();
    let units = delin_corpus::trace::read_all(trace).map_err(|e| e.to_string())?;
    let built = (BatchRunner::new(batch_config(WORKERS)), fresh_cache());
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&built);
    Ok((secs, units))
}

/// Each unit's edge fingerprint: the oracle's graphs must match them.
fn edge_fps(stats: &BatchStats) -> HashMap<String, u64> {
    stats.units.iter().map(|u| (u.name.clone(), u.edges_fp)).collect()
}

/// Runs riceps-large or miss-cold.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let Input { units, statements } = input(args);
    let trace_path = args.out.join(format!("{}-{}.trace", args.workload, args.seed));
    record(&trace_path, &units)?;
    if args.trace {
        return traced(args, &trace_path);
    }
    let speed = calib::Reference::start();
    // Set-up is single-threaded: each is rescaled by a one-thread reference
    // timed right after it.
    let (first_setup, units) = setup(&trace_path)?;
    let one = speed.measure(1);
    let mut setups = vec![first_setup * calib::scale(one, one)];
    let runner = BatchRunner::new(batch_config(WORKERS));
    let mut violations = Vec::new();
    let more_setups = |violations: &mut Vec<String>| {
        let mut raw = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            match setup(&trace_path) {
                Ok((secs, _)) => raw.push(secs),
                Err(e) => violations.push(format!("set-up: {e}")),
            }
        }
        let one = speed.measure(1);
        setups.extend(raw.iter().map(|secs| secs * calib::scale(one, one)));
    };
    let (done, refs, stats, render) =
        passes(&runner, &units, args.seconds, 2, Some(&speed), &mut violations, more_setups);
    let rss = peak_rss_mb();

    // The one-worker reference every pass must render byte-identically to.
    let reference = BatchRunner::new(batch_config(1)).run(units.iter().cloned());
    if reference.render() != render {
        violations.push("measured passes render differently from the one-worker reference".into());
    }
    let checked = oracle_sample(
        &units,
        args.seed,
        ORACLE_PAIRS,
        Some(&edge_fps(&reference)),
        &mut violations,
    );
    println!("oracle: {checked} concrete pairs brute-forced");

    let raw_wall: f64 = done.iter().map(|p| p.wall).sum();
    let wall: f64 = done.iter().map(|p| p.wall * p.scale).sum();
    let attempted = (units.len() * done.len()) as u64;
    let failed: u64 = done.iter().map(|p| p.failed).sum();
    let latencies = unit_service_ms(&done, units.len());
    let totals = stats.verdict_totals();
    println!(
        "reference ms (nominal {}): {}",
        calib::NOMINAL_S * 1e3,
        describe(&refs.iter().map(|r| r * 1e3).collect::<Vec<_>>())
    );
    println!(
        "set-up ms, rescaled: {}",
        describe(&setups.iter().map(|s| s * 1e3).collect::<Vec<_>>())
    );
    let walls: Vec<f64> = done.iter().map(|p| p.wall).collect();
    let scaled: Vec<f64> = done.iter().map(|p| p.wall * p.scale).collect();
    println!(
        "passes: {} in {raw_wall:.3} s ({:.2} units/s raw); walls {} {walls:.3?}; rescaled {} {scaled:.3?}",
        done.len(),
        attempted as f64 / raw_wall,
        describe(&walls),
        describe(&scaled)
    );
    // lat_p90_ms is a nearest-rank percentile over these n per-unit means;
    // with riceps-large's eight units it is their maximum.
    println!("per-unit mean service ms: {}", describe(&latencies));
    println!(
        "pairs per pass: {} (independent {}, cache {}h/{}m, nodes {}), distinct problems {:?}",
        totals.pairs_tested,
        totals.proven_independent,
        totals.cache_hits,
        totals.cache_misses,
        totals.solver_nodes,
        stats.distinct_problems
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("throughput", attempted as f64 / wall, "units/s");
    metrics.put("lat_p50_ms", median(&latencies), "ms");
    metrics.put("lat_p90_ms", percentile(&latencies, 90.0), "ms");
    metrics.put("peak_rss_mb", rss, "MB");
    metrics.put(
        "indep_pct",
        100.0 * totals.proven_independent as f64 / totals.pairs_tested.max(1) as f64,
        "%",
    );
    metrics.put(
        "vectorized_pct",
        100.0 * stats.vectorized_statements as f64 / statements.max(1) as f64,
        "%",
    );
    metrics.put("ok_pct", 100.0 * (attempted - failed) as f64 / attempted as f64, "%");
    Ok(Outcome { metrics, violations, attempted, failed })
}

/// The traced run: untraced two- and one-worker passes for the engine-level
/// figures, then mirror passes for the per-layer self times.
fn traced(args: &Args, trace_path: &Path) -> Result<Outcome, String> {
    let units = delin_corpus::trace::read_all(trace_path).map_err(|e| e.to_string())?;
    let mut violations = Vec::new();
    let (two, _, two_stats, render) = passes(
        &BatchRunner::new(batch_config(WORKERS)),
        &units,
        args.seconds / 4.0,
        2,
        None,
        &mut violations,
        |_| {},
    );
    let (one, _, reference, render1) = passes(
        &BatchRunner::new(batch_config(1)),
        &units,
        args.seconds / 4.0,
        2,
        None,
        &mut violations,
        |_| {},
    );
    if render1 != render {
        violations
            .push("two-worker passes render differently from the one-worker reference".into());
    }
    let config = batch_config(1);
    let mut mirrors: Vec<PassTrace> = Vec::new();
    let started = Instant::now();
    let spans = loop {
        let (pass, tracer) = mirror_pass(&units, &config, &crate::fresh_cache);
        if pass.engine != pass.replay {
            violations.push(format!(
                "replay counts {:?} differ from the engine's {:?}",
                pass.replay, pass.engine
            ));
        }
        mirrors.push(pass);
        if started.elapsed().as_secs_f64() >= args.seconds / 2.0 {
            break tracer;
        }
    };
    let spans_path = args.out.join(format!("{}-{}-spans.jsonl", args.workload, args.seed));
    spans.write(&spans_path, &args.workload).map_err(|e| format!("write spans: {e}"))?;
    println!("spans of the last mirror pass: {}", spans_path.display());

    let checked = oracle_sample(
        &units,
        args.seed,
        ORACLE_PAIRS,
        Some(&edge_fps(&reference)),
        &mut violations,
    );

    let mut v = layer_values(&mirrors);
    let w1 = median(&one.iter().map(|p| p.wall).collect::<Vec<_>>());
    let w2 = median(&two.iter().map(|p| p.wall).collect::<Vec<_>>());
    let traced_wall = median(&mirrors.iter().map(|m| m.wall_ns as f64 / 1e9).collect::<Vec<_>>());
    let unit_ms = unit_service_ms(&one, units.len());
    let idle: Vec<f64> = two.iter().map(idle_ms).collect();
    v.insert("cache.distinct", two_stats.distinct_problems.unwrap_or(0) as f64);
    v.insert("batch.speedup", w1 / w2);
    v.insert("batch.unit_ms_p50", median(&unit_ms));
    v.insert("batch.idle_ms", median(&idle));
    v.insert("trace.overhead_pct", 100.0 * (traced_wall - w1) / w1);
    v.insert("oracle.pairs", checked as f64);
    println!(
        "passes: two-worker {} s, one-worker {} s, traced {} (n={})",
        describe(&two.iter().map(|p| p.wall).collect::<Vec<_>>()),
        describe(&one.iter().map(|p| p.wall).collect::<Vec<_>>()),
        describe(&mirrors.iter().map(|m| m.wall_ns as f64 / 1e9).collect::<Vec<_>>()),
        mirrors.len()
    );
    let mut attempted = (units.len() * (two.len() + one.len())) as u64;
    let mut failed = two.iter().chain(&one).map(|p| p.failed).sum();
    if args.workload == "miss-cold" {
        // The serving layers, measured on this seed's pool: a serving
        // session against the daemon, warm-started from a file primed on it.
        let (requests, requests_failed) =
            crate::serve::layers(args, args.seconds / 3.0, &mut v, &mut violations)?;
        attempted += requests;
        failed += requests_failed;
    }
    Ok(Outcome { metrics: crate::trace::layer_metrics(&v), violations, attempted, failed })
}

/// Each unit's mean service time in ms over the passes, each pass's times
/// rescaled by its scale. A unit's service time in one pass is the gap
/// between consecutive completions on the worker that finished it (the
/// first from the pass start). Averaging per unit first keeps a workload of
/// few, unequal units (riceps-large has eight) from flipping its
/// percentiles between size classes.
fn unit_service_ms(passes: &[Pass], units: usize) -> Vec<f64> {
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); units];
    for pass in passes {
        let mut last: HashMap<ThreadId, f64> = HashMap::new();
        let mut done = pass.done.clone();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, worker, unit) in done {
            let start = last.insert(worker, t).unwrap_or(0.0);
            per_unit[unit].push((t - start) * pass.scale * 1e3);
        }
    }
    per_unit.iter().map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64).collect()
}

/// Worker idle time at pass end: for each worker, the pass wall minus its
/// last completion (a worker that completed nothing idled the whole pass).
fn idle_ms(pass: &Pass) -> f64 {
    let mut last: BTreeMap<String, f64> = BTreeMap::new();
    for (t, worker, _) in &pass.done {
        let e = last.entry(format!("{worker:?}")).or_insert(0.0);
        *e = e.max(*t);
    }
    let silent = WORKERS.saturating_sub(last.len()) as f64 * pass.wall;
    (last.values().map(|t| pass.wall - t).sum::<f64>() + silent) * 1e3
}

/// Per-layer values from mirror passes: medians of per-pass self times,
/// exact counts from the last pass.
pub fn layer_values(mirrors: &[PassTrace]) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&PassTrace) -> f64| median(&mirrors.iter().map(f).collect::<Vec<_>>());
    let ms = |layer: &'static str| med(&|m: &PassTrace| m.self_ns[layer] as f64 / 1e6);
    let last = mirrors.last().expect("at least one mirror pass");
    let mut v = BTreeMap::new();
    for (name, layer) in [
        ("frontend.parse_ms", "frontend.parse"),
        ("frontend.induction_ms", "frontend.induction"),
        ("frontend.linearize_ms", "frontend.linearize"),
        ("frontend.accesses_ms", "frontend.accesses"),
        ("deps.pair_build_ms", "deps.pair_build"),
        ("deps.fold_ms", "deps.fold"),
        ("cache.fingerprint_ms", "cache.fingerprint"),
        ("cache.lookup_hit_ms", "cache.lookup"),
        ("cache.canonicalize_ms", "cache.canonicalize"),
        ("tech.delinearization_ms", "tech.delinearization"),
        ("tech.battery_ms", "tech.battery"),
        ("codegen.vectorize_ms", "codegen.vectorize"),
        ("codegen.render_ms", "codegen.render"),
    ] {
        v.insert(name, ms(layer));
    }
    let pairs = last.engine.pairs.max(1) as f64;
    v.insert("frontend.sites", last.sites as f64);
    v.insert("deps.pairs", last.engine.pairs as f64);
    v.insert("deps.edges", last.edges as f64);
    v.insert("cache.hits", last.hits as f64);
    v.insert("cache.misses", last.engine.misses as f64);
    v.insert("cache.hit_ratio", last.hits as f64 / pairs);
    v.insert("tech.exact_nodes", last.engine.nodes as f64);
    v.insert("tech.refine_queries", last.refine_queries as f64);
    v.insert("tech.subtree_reuses", last.subtree_reuses as f64);
    v.insert("tech.decided_ratio", last.delin_decided as f64 / last.computed.max(1) as f64);
    v.insert("codegen.vectorized", last.vectorized as f64);
    let share = |f: &dyn Fn(&PassTrace) -> u64| {
        med(&|m: &PassTrace| 100.0 * f(m) as f64 / m.wall_ns.max(1) as f64)
    };
    v.insert("trace.coverage_pct", share(&|m| LAYERS.iter().map(|l| m.self_ns[l]).sum()));
    v.insert(
        "workload.codegen_share_pct",
        share(&|m| m.self_ns["codegen.vectorize"] + m.self_ns["codegen.render"]),
    );
    v.insert("workload.miss_ratio", last.engine.misses as f64 / pairs);
    v.insert(
        "workload.top1_unit_share_pct",
        share(&|m| {
            let mut t = m.unit_ns.clone();
            t.sort_unstable_by(|a, b| b.cmp(a));
            t.iter().take(t.len().div_ceil(100)).sum()
        }),
    );
    v
}
