//! The in-process workloads: `exact_seq` and `decompose`.
//!
//! Each run builds a pool of instances during set-up, then solves them in
//! pool order (wrapping around) until the measured time is up. The first
//! solve of each instance is kept and checked after the timed phase;
//! every repeat must reproduce its weight bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_bnb::{solve_sequential, ChildBuf, Problem, SearchOptions, SearchOutcome, SearchStats};
use mutree_core::{
    leaf_words_for, plan_pipeline, plan_solver, solve_plan, BoundKernel, EnvOverrides,
    MatrixSource, MutProblem, PruneStrategy, SearchMode, SolvePlan, SolveRequest, ThreeThree,
};
use mutree_distmat::DistanceMatrix;
use mutree_graph::CompactSets;
use mutree_tree::{cluster, Linkage, UltrametricTree};

use crate::stats;
use crate::trace::{self, Recorder};
use crate::workload;
use crate::{check_tree, Metrics, RunResult, SETUP_BUDGET_S, SETUP_REPS};

/// Instances per pool. Each instance's time is its fastest solve, and the
/// fastest of more repeats, spread over more of the run, is less slowed by
/// load outside the benchmark; fewer instances let the pool's cost vary
/// more between seeds. Solved 8 times, alternating over six seeds, these
/// pools' throughputs varied between seeds by 4.5 % (exact) and 3 %
/// (decomposed), coefficient of variation, and a 35 s run solves each
/// instance 15 to 19 times.
const EXACT_POOL: u64 = 4096;
const DECOMPOSE_POOL: u64 = 1024;
/// Branch budget of every exact stage inside a decomposed solve. Without
/// it a rare condensed meta matrix that no longer decomposes is solved
/// exactly at 20+ taxa, and one such 64-taxon instance ran for minutes;
/// with a budget of 5000 the 7 % of instances that reach it still set
/// most of a run's time, and its mean varied by a quarter between seeds.
/// Stages that reach the budget return their best tree (the pipeline's
/// degradation ladder); they are counted in `core.budget_stops`.
pub const DECOMPOSE_BUDGET: u64 = 1000;
/// Fewest timed samples per run: the 95th percentile needs ten beyond it.
pub const MIN_SAMPLES: usize = 200;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact sequential solves.
    ExactSeq,
    /// The compact-set pipeline.
    Decompose,
}

/// The request template every instance of a workload uses.
fn request(kind: Kind, m: DistanceMatrix) -> SolveRequest {
    match kind {
        Kind::ExactSeq => SolveRequest::exact(m).cache(false),
        Kind::Decompose => {
            let mut r = SolveRequest::decompose(m).cache(false);
            r.max_branches = DECOMPOSE_BUDGET;
            r
        }
    }
}

/// The configuration text whose hash the provenance line records.
pub fn config(kind: Kind) -> String {
    let template = request(kind, DistanceMatrix::zeros(2).expect("2 taxa"));
    let pool = match kind {
        Kind::Decompose => DECOMPOSE_POOL,
        _ => EXACT_POOL,
    };
    format!(
        "{kind:?} kind={:?} backend={:?} threshold={} linkage={:?} max_depth={} max_branches={} \
         cache={:?} threads={:?} pool={pool} env=none",
        template.kind,
        template.backend,
        template.threshold,
        template.linkage,
        template.max_depth,
        template.max_branches,
        template.cache,
        template.threads,
    )
}

fn matrix(plan: &SolvePlan) -> &DistanceMatrix {
    match &plan.request.source {
        MatrixSource::Inline(m) => m,
        MatrixSource::PhylipPath(_) => unreachable!("the benchmark builds inline requests"),
    }
}

struct Setup {
    kind: Kind,
    /// Pool instances, planned up front.
    plans: Vec<SolvePlan>,
}

impl Setup {
    fn new(kind: Kind, seed: u64) -> Setup {
        let plan = |m| SolvePlan::resolve(request(kind, m), &EnvOverrides::none());
        let plans = match kind {
            Kind::Decompose => (0..DECOMPOSE_POOL)
                .map(|i| plan(workload::decompose_instance(seed, i)))
                .collect(),
            _ => (0..EXACT_POOL)
                .map(|i| plan(workload::exact_instance(seed, i)))
                .collect(),
        };
        Setup { kind, plans }
    }
}

/// What the first solve of an instance answered.
struct First {
    weight: f64,
    tree: UltrametricTree,
    complete: bool,
}

/// What one mode of a timed phase measured.
#[derive(Default)]
struct Phase {
    /// Solve times in ms, per pool instance.
    times_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    stats: SearchStats,
    budget_stops: u64,
}

/// One solve's answer: weight, tree, whether the search completed, and
/// its counters.
type Solved = (f64, UltrametricTree, bool, SearchStats);

/// Solves the pool's instances in order for at least `seconds`. With
/// several `modes`, whole passes alternate between them, so that a drift
/// in the host's speed touches every mode alike; each mode gets at least
/// [`MIN_SAMPLES`] solves. `step(idx, i, mode)` runs the `i`-th solve, of
/// pool instance `idx`, and returns its answer and the time that counts
/// as its latency.
fn timed_phase(
    pool: usize,
    seconds: f64,
    modes: usize,
    firsts: &mut [Option<First>],
    mut step: impl FnMut(usize, u64, usize) -> (Result<Solved, String>, Duration),
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = (0..modes)
        .map(|_| Phase {
            times_ms: vec![Vec::new(); pool],
            ..Phase::default()
        })
        .collect();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < pool * (modes - 1) + MIN_SAMPLES {
        let idx = i % pool;
        let mode = (i / pool) % modes;
        let phase = &mut phases[mode];
        let (out, took) = step(idx, i as u64, mode);
        phase.attempted += 1;
        phase.times_ms[idx].push(took.as_secs_f64() * 1e3);
        match out {
            Ok((weight, tree, complete, stats)) => {
                phase.stats.merge(&stats);
                phase.budget_stops += u64::from(!complete);
                match &firsts[idx] {
                    None => {
                        firsts[idx] = Some(First {
                            weight,
                            tree,
                            complete,
                        })
                    }
                    Some(f) if f.weight.to_bits() != weight.to_bits() => {
                        eprintln!(
                            "instance {idx}: weight {weight} differs from first solve {}",
                            f.weight
                        );
                        phase.failed += 1;
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                eprintln!("instance {idx}: {e}");
                phase.failed += 1;
            }
        }
        i += 1;
    }
    phases
}

impl Phase {
    fn summary(&self) -> stats::Summary {
        stats::per_instance(&self.times_ms).expect("pools hold more than 200 instances")
    }
}

/// One solve through the public spine, timed.
fn untraced_step(s: &Setup, idx: usize) -> (Result<Solved, String>, Duration) {
    let t = Instant::now();
    let r = solve_plan(&s.plans[idx]).map_err(|e| e.to_string());
    let took = t.elapsed();
    let out = r.map(|rep| {
        let complete = rep.is_complete();
        (rep.weight, rep.tree, complete, rep.stats)
    });
    (out, took)
}

/// Checks every first solve after the timed phase and sums the weights
/// the cost ratio compares. Returns `(failures, Σ weight, Σ UPGMM weight)`.
fn verify(s: &Setup, firsts: &[Option<First>]) -> (u64, f64, f64) {
    let kind = s.kind;
    let mut failed = 0u64;
    let (mut sum_w, mut sum_u) = (0.0, 0.0);
    for (idx, first) in firsts.iter().enumerate() {
        let Some(f) = first else { continue };
        let plan = &s.plans[idx];
        let m = matrix(plan);
        let upgmm = cluster(m, Linkage::Maximum).weight();
        let mut ok = check_tree(&f.tree, m) && f.weight.is_finite();
        if kind != Kind::Decompose {
            // The UPGMM tree seeds the search, so an exact optimum can only
            // improve on it.
            ok &= f.complete && f.weight <= upgmm * (1.0 + 1e-12);
        }
        if !ok {
            eprintln!(
                "instance {idx}: failed its check (weight {}, UPGMM {upgmm})",
                f.weight
            );
            failed += 1;
        }
        sum_w += f.weight;
        sum_u += upgmm;
    }
    (failed, sum_w, sum_u)
}

/// A problem that delegates every call to `inner` and records the UPGMM
/// incumbent, which the search drivers compute inside the search call.
struct Traced<P> {
    inner: P,
    rec: Arc<Recorder>,
    parent: u64,
    req: u64,
}

impl<P: Problem> Problem for Traced<P> {
    type Node = P::Node;
    type Solution = P::Solution;

    fn root(&self) -> Self::Node {
        self.inner.root()
    }
    fn lower_bound(&self, node: &Self::Node) -> f64 {
        self.inner.lower_bound(node)
    }
    fn solution(&self, node: &Self::Node) -> Option<(Self::Solution, f64)> {
        self.inner.solution(node)
    }
    fn branch(&self, node: &Self::Node, out: &mut ChildBuf<Self::Node>) {
        self.inner.branch(node, out)
    }
    fn initial_incumbent(&self) -> Option<(Self::Solution, f64)> {
        self.rec
            .span("tree.upgmm", Some(self.parent), self.req, || {
                self.inner.initial_incumbent()
            })
    }
    fn encode_solution(&self, solution: &Self::Solution) -> Option<Vec<u8>> {
        self.inner.encode_solution(solution)
    }
    fn propagate(&self, node: &Self::Node, ub: f64, opts: &SearchOptions) -> bool {
        self.inner.propagate(node, ub, opts)
    }
}

/// The exact solve split into its public calls, in `MutSolver::solve`'s
/// order: maxmin relabeling (skipped for the identity), problem build at
/// the dispatched leaf width, taxon map, driver; then the taxa of the
/// answer are mapped back. Topology deduplication of co-optimal trees is
/// not repeated here.
fn traced_exact(
    rec: &Arc<Recorder>,
    req: u64,
    m: &DistanceMatrix,
    knobs: (BoundKernel, PruneStrategy),
) -> SearchOutcome<UltrametricTree> {
    let root = rec.open("solve", None, req);
    let rid = Some(root.id());
    let (pm, order) = rec.span("distmat.maxmin", rid, req, || {
        let perm = m.maxmin_permutation();
        if perm.order().iter().enumerate().all(|(i, &o)| i == o) {
            (None, None)
        } else {
            (Some(perm.apply(m)), Some(perm.order().to_vec()))
        }
    });
    let pm = pm.as_ref().unwrap_or(m);
    let mut out = match leaf_words_for(pm.len()).expect("exact instances fit one solve") {
        1 => search::<1>(rec, rid, req, pm, order.as_deref(), knobs),
        2 => search::<2>(rec, rid, req, pm, order.as_deref(), knobs),
        _ => search::<4>(rec, rid, req, pm, order.as_deref(), knobs),
    };
    if let Some(order) = &order {
        rec.span("core.remap", rid, req, || {
            for t in &mut out.solutions {
                t.map_taxa(|permuted| order[permuted]);
            }
        });
    }
    rec.close(root);
    out
}

fn search<const K: usize>(
    rec: &Arc<Recorder>,
    rid: Option<u64>,
    req: u64,
    pm: &DistanceMatrix,
    order: Option<&[usize]>,
    (kernel, prune): (BoundKernel, PruneStrategy),
) -> SearchOutcome<UltrametricTree> {
    let mut problem = rec.span("core.problem_build", rid, req, || {
        MutProblem::<K>::with_config(pm, ThreeThree::Off, true, kernel, prune)
    });
    if let Some(order) = order {
        rec.span("core.problem_build", rid, req, || {
            problem.set_taxon_map(order.to_vec())
        });
    }
    let opts = SearchOptions::new(SearchMode::BestOne);
    let span = rec.open("bnb.search", rid, req);
    let traced = Traced {
        inner: problem,
        rec: Arc::clone(rec),
        parent: span.id(),
        req,
    };
    let out = solve_sequential(&traced, &opts);
    rec.close(span);
    out
}

/// Per-stage seconds of a decomposed solve, read from its timings.
#[derive(Default)]
struct Stages {
    /// Top-level stages only (they run one after another inline).
    top: f64,
    group: f64,
    meta_self: f64,
    merge: f64,
}

fn stages(timings: &[mutree_core::StageTiming]) -> Stages {
    let mut st = Stages::default();
    for t in timings {
        let depth = t.stage.matches('/').count();
        let last = t.stage.rsplit('/').next().unwrap_or("");
        if depth == 0 {
            st.top += t.seconds;
        }
        if last.starts_with("group") || last == "whole" {
            st.group += t.seconds;
        } else if last == "merge" {
            st.merge += t.seconds;
        } else if last == "meta" {
            // A recursive meta stage contains the child run's stages,
            // which carry the prefix `<this stage's prefix>meta[d]/`.
            let prefix = &t.stage[..t.stage.len() - "meta".len()];
            let inner: f64 = timings
                .iter()
                .filter(|c| {
                    c.stage.starts_with(prefix)
                        && c.stage[prefix.len()..].starts_with("meta[")
                        && c.stage[prefix.len()..].matches('/').count() == 1
                })
                .map(|c| c.seconds)
                .sum();
            st.meta_self += t.seconds - inner;
        }
    }
    st
}

/// Per-layer sums of one traced phase.
#[derive(Default)]
struct Layers {
    graph_find: f64,
    graph_partition: f64,
    compact_sets: u64,
    groups: u64,
    pipeline: f64,
    pipeline_build: f64,
    group: f64,
    meta_self: f64,
    merge: f64,
    pipeline_other: f64,
}

/// One solve split into spans, timed.
fn traced_step(
    s: &Setup,
    idx: usize,
    req: u64,
    rec: &Arc<Recorder>,
    layers: &mut Layers,
    knobs: (BoundKernel, PruneStrategy),
) -> (Result<Solved, String>, Duration) {
    let plan = &s.plans[idx];
    let m = matrix(plan);
    match s.kind {
        Kind::Decompose => {
            let t = Instant::now();
            let root = rec.open("solve", None, req);
            let rid = Some(root.id());
            let pipeline = rec.span("core.pipeline_build", rid, req, || plan_pipeline(plan));
            let sol = rec.span("core.pipeline", rid, req, || pipeline.solve(m));
            rec.close(root);
            let took = t.elapsed();
            // The pipeline finds compact sets internally; spans inside
            // the program are a later change, so the same calls are
            // repeated here on the same input, outside the solve.
            let cs = rec.span("graph.compact_sets", None, req, || CompactSets::find(m));
            let groups = rec.span("graph.partition", None, req, || {
                cs.partition(plan.request.threshold.max(2))
            });
            let out = sol.map_err(|e| e.to_string()).map(|sol| {
                let st = stages(&sol.timings);
                layers.compact_sets += sol.compact_sets as u64;
                layers.groups += groups.len() as u64;
                layers.group += st.group;
                layers.meta_self += st.meta_self;
                layers.merge += st.merge;
                // Residual after the stages: compact sets, partition,
                // condensation and task-graph overhead.
                layers.pipeline_other -= st.top;
                let complete = sol.is_complete();
                (sol.weight, sol.tree, complete, sol.stats)
            });
            (out, took)
        }
        _ => {
            let t = Instant::now();
            let out = traced_exact(rec, req, m, knobs);
            let took = t.elapsed();
            let out = match (out.best_value, out.solutions.into_iter().next()) {
                (Some(w), Some(tree)) => Ok((w, tree, out.stop.is_complete(), out.stats)),
                _ => Err(format!("traced search stopped with {}", out.stop)),
            };
            (out, took)
        }
    }
}

/// Runs one in-process workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace_run: bool) -> RunResult {
    let mut setup_times = Vec::new();
    let mut s = None;
    let (fewest, most) = SETUP_REPS;
    while setup_times.len() < fewest
        || (setup_times.len() < most && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(s.take());
        let t = Instant::now();
        s = Some(Setup::new(kind, seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let pool = s.plans.len();
    let mut firsts: Vec<Option<First>> = (0..pool).map(|_| None).collect();
    let mut metrics = Metrics::default();

    if !trace_run {
        let phase = timed_phase(pool, seconds, 1, &mut firsts, |idx, _, _| {
            untraced_step(&s, idx)
        })
        .remove(0);
        let (bad, sum_w, sum_u) = verify(&s, &firsts);
        let failed = phase.failed + bad;
        crate::end_to_end(
            &mut metrics,
            &setup_times,
            phase.attempted,
            failed,
            phase.summary(),
            sum_w / sum_u,
            0.0,
        );
        return RunResult {
            attempted: phase.attempted,
            failed,
            metrics,
            spans: None,
            extra: String::new(),
        };
    }

    // Traced run: passes over the pool alternate untraced and traced, so
    // the throughput ratio compares the same instances at nearly the same
    // time.
    let rec = Arc::new(Recorder::new());
    let knobs = {
        let solver = plan_solver(&s.plans[0]);
        (solver.dispatch_bound_kernel(), solver.dispatch_prune())
    };
    let mut layers = Layers::default();
    let mut phases = timed_phase(pool, seconds, 2, &mut firsts, |idx, i, mode| {
        if mode == 0 {
            untraced_step(&s, idx)
        } else {
            traced_step(&s, idx, i, &rec, &mut layers, knobs)
        }
    });
    let traced = phases.pop().expect("two modes");
    let plain = phases.pop().expect("two modes");
    let (bad, _, _) = verify(&s, &firsts);
    let failed = plain.failed + traced.failed + bad;
    let spans = rec.spans();
    let names = trace::by_name(&spans);
    let sec = |name: &str| names.get(name).map_or(0.0, |v| v.0 as f64 * 1e-9);
    let self_sec = |name: &str| names.get(name).map_or(0.0, |v| v.1 as f64 * 1e-9);
    let wall = sec("solve");

    let st = &traced.stats;
    let (search_s, covered) = match kind {
        Kind::Decompose => {
            layers.graph_find = sec("graph.compact_sets");
            layers.graph_partition = sec("graph.partition");
            layers.pipeline = sec("core.pipeline");
            layers.pipeline_build = sec("core.pipeline_build");
            layers.pipeline_other += layers.pipeline - layers.graph_find - layers.graph_partition;
            let covered = layers.pipeline_build
                + layers.graph_find
                + layers.graph_partition
                + layers.group
                + layers.meta_self
                + layers.merge
                + layers.pipeline_other;
            (layers.group + layers.meta_self, covered)
        }
        _ => {
            let covered = self_sec("distmat.maxmin")
                + self_sec("core.problem_build")
                + self_sec("bnb.search")
                + self_sec("tree.upgmm")
                + self_sec("core.remap");
            (sec("bnb.search"), covered)
        }
    };
    let branched = st.branched.max(1) as f64;
    metrics.push("distmat.maxmin_s", sec("distmat.maxmin"), "s");
    metrics.push("tree.upgmm_s", sec("tree.upgmm"), "s");
    metrics.push("core.problem_build_s", sec("core.problem_build"), "s");
    metrics.push("core.remap_s", sec("core.remap"), "s");
    metrics.push("bnb.search_s", search_s, "s");
    metrics.push("bnb.branched", st.branched as f64, "count");
    metrics.push("bnb.pruned", st.pruned as f64, "count");
    metrics.push(
        "bnb.propagation_pruned",
        st.propagation_pruned as f64,
        "count",
    );
    metrics.push(
        "bnb.incumbent_updates",
        st.incumbent_updates as f64,
        "count",
    );
    metrics.push("bnb.peak_pool", st.peak_pool as f64, "count");
    metrics.push(
        "bnb.pruned_per_branched",
        st.pruned as f64 / branched,
        "ratio",
    );
    metrics.push(
        "bnb.ns_per_branch",
        (search_s - sec("tree.upgmm")) * 1e9 / branched,
        "ns",
    );
    metrics.push("graph.compact_sets_s", layers.graph_find, "s");
    metrics.push("graph.compact_sets", layers.compact_sets as f64, "count");
    metrics.push("graph.partition_s", layers.graph_partition, "s");
    metrics.push("graph.groups", layers.groups as f64, "count");
    metrics.push("core.pipeline_s", layers.pipeline, "s");
    metrics.push("core.pipeline_build_s", layers.pipeline_build, "s");
    metrics.push("core.group_solve_s", layers.group, "s");
    metrics.push("core.meta_solve_s", layers.meta_self, "s");
    metrics.push("core.merge_s", layers.merge, "s");
    metrics.push("core.pipeline_other_s", layers.pipeline_other, "s");
    metrics.push("core.budget_stops", traced.budget_stops as f64, "count");
    metrics.push("trace.coverage", covered / wall, "ratio");
    let (plain_tp, plain_p50, _) = plain.summary();
    let (traced_tp, traced_p50, _) = traced.summary();
    metrics.push("trace.overhead", traced_tp / plain_tp, "ratio");
    metrics.push("trace.untraced_throughput_per_s", plain_tp, "1/s");
    metrics.push("trace.samples", traced.attempted as f64, "count");
    let extra = format!(
        "traced wall {wall:.4} s over {} solves; untraced p50 {plain_p50:.4} ms, traced p50 \
         {traced_p50:.4} ms",
        traced.attempted,
    );
    RunResult {
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics,
        spans: Some(spans),
        extra,
    }
}
