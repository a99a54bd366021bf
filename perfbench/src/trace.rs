//! The traced mirror pass: one worker calling each layer's public
//! functions in the order `run_pipeline_in` and the engine's pair loop call
//! them, with a span around every call.
//!
//! Per unit the pass runs the frontend steps, the real engine
//! (`build_dependence_graph_in`, whose graph feeds codegen), and codegen,
//! under one `unit` span — the traced pass's wall is the sum of those.
//! The engine's pair loop is private, so its inside is then replayed
//! outside the unit span through public calls on a second, identically
//! seeded cache: `collect_accesses`, the worklist rule, pair construction,
//! `fingerprint_problem`, `VerdictCache::lookup`, and on each miss
//! `env_key` + `canonicalize` and the decision as the engine's `decide`
//! configures it. The replay's times stand in for the engine's per-pair
//! time (`DepStats::test_nanos`); what the engine span spends beyond its
//! pairs and access collection is the fold (worklist, fold, edge
//! emission). The replay must reproduce the engine's counts exactly.
//!
//! The engine builds pair problems through a private pooled wrapper around
//! `dep::problem`'s public `ProblemBuilder` recycling calls; [`PairBuilder`]
//! makes the same calls, so `deps.pair_build_ms` times the engine's own
//! construction rather than the allocating `pair_problem`.

use delin_core::DelinearizationTest;
use delin_dep::acyclic::AcyclicTest;
use delin_dep::banerjee::BanerjeeTest;
use delin_dep::budget::{BudgetSpec, ResourceBudget};
use delin_dep::exact::SubtreeStore;
use delin_dep::gcd::GcdTest;
use delin_dep::hierarchy;
use delin_dep::residue::LoopResidueTest;
use delin_dep::siv::SivTest;
use delin_dep::svpc::SvpcTest;
use delin_dep::{DependenceProblem, DependenceTest, ProblemBuilder, Verdict};
use delin_frontend::access::{collect_accesses, Subscript};
use delin_frontend::affine::infer_bound_assumptions;
use delin_frontend::induction::substitute_inductions;
use delin_frontend::linearize::linearize_aliased;
use delin_frontend::{parse_program, AccessKind, AccessSite, Program};
use delin_numeric::{Assumptions, SymPoly};
use delin_vic::batch::{BatchConfig, BatchUnit};
use delin_vic::cache::{canonicalize, env_key, fingerprint_problem, CachedOutcome, VerdictCache};
use delin_vic::codegen::vectorize;
use delin_vic::deps::{
    build_dependence_graph_in, concretize, pair_problem, DepGraph, EngineConfig,
};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Per-pair calls of the replay are folded into one
/// span per unit and layer: `busy_ns` sums the calls, `calls` counts them.
#[derive(Debug)]
pub struct Span {
    /// Span id (index in the tracer).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Unit (or request) index within the pass.
    pub unit: usize,
    /// Layer name, e.g. `frontend.parse`.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Time inside the layer's calls.
    pub busy_ns: u64,
    /// Calls folded into this span.
    pub calls: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, layer: &'static str, unit: usize, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            unit,
            layer,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
        span.busy_ns
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        unit: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, unit, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an aggregate span of `calls` calls totalling `busy_ns`.
    pub fn aggregate(&mut self, layer: &'static str, unit: usize, parent: Option<usize>, agg: Agg) {
        if agg.calls == 0 {
            return;
        }
        let id = self.spans.len();
        let start_ns = agg.first.map_or(0, |t| t.duration_since(self.origin).as_nanos() as u64);
        let end_ns = agg.last.map_or(0, |t| t.duration_since(self.origin).as_nanos() as u64);
        self.spans.push(Span {
            id,
            parent,
            unit,
            layer,
            start_ns,
            end_ns,
            busy_ns: agg.busy_ns,
            calls: agg.calls,
        });
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"unit\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"busy_ns\":{},\"calls\":{}}}",
                s.id, s.unit, s.layer, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Running total of many short calls of one layer.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    busy_ns: u64,
    calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Agg {
    /// Times one call of `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.add(t0, t1);
        out
    }

    fn add(&mut self, t0: Instant, t1: Instant) {
        self.busy_ns += (t1 - t0).as_nanos() as u64;
        self.calls += 1;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
    }
}

/// The frontend half of `run_pipeline_in`, through the same public calls.
pub fn frontend(
    src: &str,
    base: &Assumptions,
    config: &BatchConfig,
    mut span: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Option<(Program, Assumptions)> {
    let mut parsed = None;
    span("frontend.parse", &mut || parsed = Some(parse_program(src)));
    let mut program = parsed?.ok()?;
    span("frontend.induction", &mut || {
        if config.induction {
            program = substitute_inductions(&program).0;
        }
    });
    let mut assumptions = base.clone();
    span("frontend.linearize", &mut || {
        if config.linearize {
            for (a, b) in program.equivalences.clone() {
                if let Ok((p, _)) = linearize_aliased(&program, &a, &b) {
                    program = p;
                }
            }
        }
        if config.infer_loop_assumptions {
            assumptions = infer_bound_assumptions(&program, base);
        }
    });
    Some((program, assumptions))
}

/// The engine's worklist rule: every pair of sites on the same array with
/// at least one write, same-site pairs only for writes.
pub fn worklist(sites: &[AccessSite]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..sites.len() {
        for j in i..sites.len() {
            let (a, b) = (&sites[i], &sites[j]);
            if a.array != b.array || (a.kind != AccessKind::Write && b.kind != AccessKind::Write) {
                continue;
            }
            if i == j && a.kind != AccessKind::Write {
                continue;
            }
            out.push((i, j));
        }
    }
    out
}

/// Pair-problem construction as the engine's arena path does it: a warm
/// builder overwrites the previous pair's slots from a small pool of
/// retired problems. The problems equal [`pair_problem`]'s.
#[derive(Default)]
struct PairBuilder {
    builder: ProblemBuilder<SymPoly>,
    free: Vec<DependenceProblem<SymPoly>>,
    src: Vec<usize>,
    snk: Vec<usize>,
}

impl PairBuilder {
    fn build(&mut self, a: &AccessSite, b: &AccessSite) -> DependenceProblem<SymPoly> {
        if let Some(slab) = self.free.pop() {
            self.builder.recycle(slab);
        }
        self.src.clear();
        self.snk.clear();
        for l in &a.loops {
            self.src.push(self.builder.var_suffixed(&l.var, '1', &l.upper));
        }
        for l in &b.loops {
            self.snk.push(self.builder.var_suffixed(&l.var, '2', &l.upper));
        }
        for k in 0..a.common_loops_with(b) {
            self.builder.common_pair(self.src[k], self.snk[k]);
        }
        for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
            if let (Subscript::Affine(fa), Subscript::Affine(fb)) = (sa, sb) {
                let _ = self.builder.equation_from_subscripts(fa, &self.src, fb, &self.snk);
            }
        }
        self.builder.build()
    }

    /// Returns a problem's storage once its verdict is in (the engine keeps
    /// four retired problems per worker).
    fn recycle(&mut self, problem: DependenceProblem<SymPoly>) {
        if self.free.len() < 4 {
            self.free.push(problem);
        }
    }
}

/// The engine configuration of a one-worker pass, otherwise the batch
/// defaults.
pub fn engine_config(config: &BatchConfig) -> EngineConfig {
    EngineConfig {
        choice: config.choice,
        workers: 1,
        cache: config.cache,
        keying: config.keying,
        incremental: config.incremental,
        arena: config.arena,
        cache_cap: config.cache_cap,
        budget: config.budget.clone(),
        chaos: None,
    }
}

/// Time spent in the techniques during one decision.
#[derive(Default)]
struct TechTimes {
    delin: Agg,
    battery: Agg,
}

/// The decision as the engine's `decide` makes it under
/// `DelinearizationFirst`: delinearization on the canonical problem with
/// the unit's assumptions installed, then the classical battery and
/// direction vectors after an `Unknown`. Counts solver nodes and
/// refinements the way the engine's accounting does.
fn decide(
    canonical: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
    budget: &ResourceBudget,
    config: &BatchConfig,
    tech: &mut TechTimes,
) -> CachedOutcome {
    let _ = delin_dep::exact::take_thread_nodes();
    delin_dep::exact::reset_thread_refine();
    let store = config.incremental.then(|| Arc::new(SubtreeStore::new()));
    let mut sym = canonical.clone();
    sym.set_assumptions(assumptions.clone());
    let concrete = concretize(&sym);
    let mut delin = DelinearizationTest::with_budget(budget.clone());
    delin.config.incremental = config.incremental;
    delin.config.arena = config.arena;
    delin.config.solve_store = store.clone();
    let mut attempts = vec!["delinearization"];
    let verdict = tech.delin.time(|| match &concrete {
        Some(c) => DependenceTest::<i128>::test(&delin, c),
        None => DependenceTest::<SymPoly>::test(&delin, &sym),
    });
    let (verdict, tested_by) = if !verdict.is_unknown() {
        (verdict, "delinearization")
    } else if budget.exhausted().is_some() {
        (Verdict::Unknown, "degraded")
    } else {
        tech.battery.time(|| battery(&sym, concrete.as_ref(), budget, &mut attempts))
    };
    let refine = delin_dep::exact::take_thread_refine();
    CachedOutcome {
        verdict,
        tested_by,
        attempts,
        solver_nodes: delin_dep::exact::take_thread_nodes(),
        refine_queries: refine.refine_queries,
        subtree_reuses: refine.subtree_reuses,
        nodes_saved: refine.nodes_saved,
        solver_state: store,
        degraded: budget.tripped(),
    }
}

/// The classical battery and Banerjee-hierarchy direction vectors.
fn battery(
    sym: &DependenceProblem<SymPoly>,
    concrete: Option<&DependenceProblem<i128>>,
    budget: &ResourceBudget,
    attempts: &mut Vec<&'static str>,
) -> (Verdict, &'static str) {
    let dirs = if let Some(c) = concrete {
        let tests: [(&'static str, Verdict); 6] = [
            ("gcd", GcdTest.test(c)),
            ("siv", SivTest.test(c)),
            ("svpc", SvpcTest.test(c)),
            ("acyclic", AcyclicTest.test(c)),
            ("loop-residue", LoopResidueTest.test(c)),
            ("banerjee", BanerjeeTest.test(c)),
        ];
        attempts.extend(tests.iter().map(|(name, _)| *name));
        if let Some((name, _)) = tests.iter().find(|(_, v)| v.is_independent()) {
            return (Verdict::Independent, name);
        }
        if budget.exhausted().is_some() {
            return (Verdict::Unknown, "degraded");
        }
        attempts.push("dir-vectors");
        hierarchy::direction_vectors(c, &hierarchy::banerjee_oracle_classical())
    } else {
        attempts.push("gcd");
        if GcdTest.test(sym).is_independent() {
            return (Verdict::Independent, "gcd");
        }
        if budget.exhausted().is_some() {
            return (Verdict::Unknown, "degraded");
        }
        attempts.push("dir-vectors");
        hierarchy::direction_vectors(sym, &hierarchy::banerjee_oracle_classical())
    };
    if dirs.is_empty() {
        (Verdict::Independent, "banerjee")
    } else {
        (Verdict::dependent_with_dirs(dirs), "banerjee")
    }
}

/// Exact counts of one pass, from the engine or from the replay.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Reference pairs tested.
    pub pairs: u64,
    /// Per-unit first references of a canonical problem.
    pub misses: u64,
    /// Pairs proven independent.
    pub independent: u64,
    /// Exact-solver nodes charged.
    pub nodes: u64,
}

/// What one traced pass measured.
#[derive(Default)]
pub struct PassTrace {
    /// Sum of the `unit` spans: the traced pass's wall.
    pub wall_ns: u64,
    /// Each unit span's length, in input order.
    pub unit_ns: Vec<u64>,
    /// Self time per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Engine counts summed over units.
    pub engine: Counts,
    /// Replay counts.
    pub replay: Counts,
    /// Canonical problems the replay cache computed (global misses).
    pub computed: u64,
    /// Cache hits as the engine charges them.
    pub hits: u64,
    /// Access sites.
    pub sites: u64,
    /// Dependence edges.
    pub edges: u64,
    /// Statements emitted in vector form.
    pub vectorized: u64,
    /// Refinement queries of the replayed decisions.
    pub refine_queries: u64,
    /// Subtree reuses of the replayed decisions.
    pub subtree_reuses: u64,
    /// Replayed decisions delinearization settled without an `Unknown`.
    pub delin_decided: u64,
}

/// The layers whose self times partition the traced pass.
pub const LAYERS: [&str; 13] = [
    "frontend.parse",
    "frontend.induction",
    "frontend.linearize",
    "frontend.accesses",
    "deps.pair_build",
    "deps.fold",
    "cache.fingerprint",
    "cache.lookup",
    "cache.canonicalize",
    "tech.delinearization",
    "tech.battery",
    "codegen.vectorize",
    "codegen.render",
];

/// Runs one traced pass over `units`. `make_cache` builds the (identically
/// seeded) caches of the engine and of the replay.
pub fn mirror_pass(
    units: &[BatchUnit],
    config: &BatchConfig,
    make_cache: &dyn Fn() -> VerdictCache,
) -> (PassTrace, Tracer) {
    let mut tracer = Tracer::new();
    let engine_cfg = engine_config(config);
    let engine_cache = make_cache();
    let replay_cache = make_cache();
    let mut out = PassTrace::default();
    let mut busy: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut test_ns = 0u64;
    for (u, unit) in units.iter().enumerate() {
        let root = tracer.open("unit", u, None);
        let prepared = frontend(&unit.source, &unit.assumptions, config, |layer, f| {
            tracer.time(layer, u, Some(root), f)
        });
        let Some((program, assumptions)) = prepared else {
            out.unit_ns.push(tracer.close(root));
            continue;
        };
        let graph: DepGraph = tracer.time("deps.engine", u, Some(root), || {
            build_dependence_graph_in(&program, &assumptions, &engine_cfg, Some(&engine_cache))
        });
        let result =
            tracer.time("codegen.vectorize", u, Some(root), || vectorize(&program, &graph));
        tracer.time("codegen.render", u, Some(root), || black_box(result.render()));
        out.unit_ns.push(tracer.close(root));
        let s = &graph.stats;
        test_ns += s.test_nanos as u64;
        out.engine.pairs += s.pairs_tested as u64;
        out.engine.misses += s.cache_misses as u64;
        out.engine.independent += s.proven_independent as u64;
        out.engine.nodes += s.solver_nodes;
        out.hits += s.cache_hits as u64;
        out.edges += graph.edges.len() as u64;
        out.vectorized += result.vectorized_statements as u64;
        replay_unit(u, &program, &assumptions, config, &replay_cache, &mut tracer, &mut out);
    }
    for s in &tracer.spans {
        *busy.entry(s.layer).or_insert(0) += s.busy_ns;
    }
    let b = |layer: &str| busy.get(layer).copied().unwrap_or(0);
    out.wall_ns = b("unit");
    for layer in LAYERS {
        let v = match layer {
            "deps.fold" => b("deps.engine").saturating_sub(test_ns + b("frontend.accesses")),
            "cache.lookup" => b("cache.lookup").saturating_sub(
                b("cache.fingerprint")
                    + b("cache.canonicalize")
                    + b("tech.delinearization")
                    + b("tech.battery"),
            ),
            _ => b(layer),
        };
        out.self_ns.insert(layer, v);
    }
    (out, tracer)
}

/// Replays one unit's pair loop through public calls on `cache`.
fn replay_unit(
    u: usize,
    program: &Program,
    assumptions: &Assumptions,
    config: &BatchConfig,
    cache: &VerdictCache,
    tracer: &mut Tracer,
    out: &mut PassTrace,
) {
    let root = tracer.open("replay", u, None);
    let sites =
        tracer.time("frontend.accesses", u, Some(root), || collect_accesses(program, assumptions));
    out.sites += sites.len() as u64;
    let (mut build, mut fp, mut lookup, mut canon) =
        (Agg::default(), Agg::default(), Agg::default(), Agg::default());
    let mut tech = TechTimes::default();
    let budget = BudgetSpec::clone(&config.budget).arm();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut pooled = PairBuilder::default();
    // The previous pair's problem, returned to the pool inside the next
    // build's span (the engine returns it right after the lookup).
    let mut retired = None;
    for (i, j) in worklist(&sites) {
        let problem = build.time(|| {
            if !config.arena {
                return pair_problem(&sites[i], &sites[j]);
            }
            if let Some(p) = retired.take() {
                pooled.recycle(p);
            }
            pooled.build(&sites[i], &sites[j])
        });
        fp.time(|| black_box(fingerprint_problem(&problem, assumptions)));
        let hit = lookup.time(|| {
            cache.lookup(assumptions, &problem, |canonical| {
                decide(canonical, assumptions, &budget.fresh(), config, &mut tech)
            })
        });
        if hit.computed {
            out.computed += 1;
            out.delin_decided += u64::from(hit.outcome.tested_by == "delinearization");
            canon.time(|| black_box(canonicalize(&problem, &env_key(&problem, assumptions))));
        }
        out.replay.pairs += 1;
        out.replay.independent += u64::from(hit.outcome.verdict.is_independent());
        if seen.insert(hit.key_fp) {
            out.replay.misses += 1;
            out.replay.nodes += hit.outcome.solver_nodes;
            out.refine_queries += hit.outcome.refine_queries;
            out.subtree_reuses += hit.outcome.subtree_reuses;
        }
        retired = Some(problem);
    }
    tracer.aggregate("deps.pair_build", u, Some(root), build);
    // The fingerprint, canonicalization and decisions ran inside lookups.
    let parent = Some(if lookup.calls > 0 { tracer.spans.len() } else { root });
    tracer.aggregate("cache.lookup", u, Some(root), lookup);
    tracer.aggregate("cache.fingerprint", u, parent, fp);
    tracer.aggregate("cache.canonicalize", u, parent, canon);
    tracer.aggregate("tech.delinearization", u, parent, tech.delin);
    tracer.aggregate("tech.battery", u, parent, tech.battery);
    tracer.close(root);
}

/// Every per-layer metric of the traced run, with its unit, in print
/// order. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.induction_ms", "ms"),
    ("frontend.linearize_ms", "ms"),
    ("frontend.accesses_ms", "ms"),
    ("frontend.sites", "count"),
    ("deps.pairs", "count"),
    ("deps.edges", "count"),
    ("deps.pair_build_ms", "ms"),
    ("deps.fold_ms", "ms"),
    ("cache.fingerprint_ms", "ms"),
    ("cache.lookup_hit_ms", "ms"),
    ("cache.canonicalize_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.distinct", "count"),
    ("cache.disk_hits", "count"),
    ("tech.delinearization_ms", "ms"),
    ("tech.battery_ms", "ms"),
    ("tech.exact_nodes", "count"),
    ("tech.refine_queries", "count"),
    ("tech.subtree_reuses", "count"),
    ("tech.decided_ratio", "ratio"),
    ("codegen.vectorize_ms", "ms"),
    ("codegen.render_ms", "ms"),
    ("codegen.vectorized", "count"),
    ("batch.speedup", "ratio"),
    ("batch.unit_ms_p50", "ms"),
    ("batch.idle_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.loaded", "count"),
    ("serve.parse_us", "us"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.lat_p99_n", "count"),
    ("serve.overloaded", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("workload.codegen_share_pct", "%"),
    ("workload.miss_ratio", "ratio"),
    ("workload.top1_unit_share_pct", "%"),
    ("workload.utilization_pct", "%"),
    ("oracle.pairs", "count"),
];

/// The per-layer metric table; names missing from `values` read 0.
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> crate::stats::Metrics {
    let mut m = crate::stats::Metrics::default();
    for (name, unit) in PER_LAYER {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    for name in values.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted per-layer metric {name}");
    }
    m
}
