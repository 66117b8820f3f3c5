//! The three workloads. Each builds its inputs from the seed, sets up
//! several times (reporting the median), serves a closed loop of requests
//! on one thread for the requested time, checks every answer apart from the
//! program, and assembles its metrics.

use crate::check::{self, EdgeList, Mirror, Oracle};
use crate::common::{self, Storage, Tally, Tracer, UpdateGen, K, TIER};
use crate::report::{median, per, secs, Report};
use crate::Args;
use graph_gen::prelude::*;
use std::time::{Duration, Instant};
use stwig::prelude::*;
use trinity_sim::epoch::{GraphEpochs, UpdateBatch};
use trinity_sim::ids::{LabelId, LabelInterner, VertexId};
use trinity_sim::loader::StreamLoader;
use trinity_sim::network::CostModel;
use trinity_sim::{GraphBuilder, MemoryCloud};

/// Set-ups before and after the measured window; `setup_s` is the median of
/// all of them. Taking them at both ends of the run keeps one machine-speed
/// episode from deciding the figure.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 3;
/// Distinct queries in the Zipf pools.
const POOL: usize = 16;
const ZIPF_EXPONENT: f64 = 1.1;
/// Queries between update batches in `churn`.
const QUERIES_PER_BATCH: usize = 8;
/// Update batches between seals in `churn`.
const BATCHES_PER_SEAL: usize = 16;
const OPS_PER_BATCH: usize = 32;
/// Queries per fresh engine in `cold-stream`.
const COLD_ROUND: usize = 256;
/// The graphs and query pools are fixed per workload; `--seed` drives the
/// request stream (Zipf draws, DFS query starts) and the update stream. With
/// a 16-query pool, the choice of pool alone moves the median latency by
/// about half across seeds, which would hide any change to the program.
const GRAPH_SEED: u64 = 0xCAC4E;
const POOL_SEED: u64 = 0xBEE5;

/// Answer checking shared by every workload: row validation against the
/// generator's lists, the corrupted-row self-check, and the first errors
/// seen.
struct Checker {
    errors: Vec<String>,
    self_checked: bool,
    corrupt_next: bool,
}

impl Checker {
    fn new(corrupt_row: bool) -> Self {
        Checker {
            errors: Vec::new(),
            self_checked: false,
            corrupt_next: corrupt_row,
        }
    }

    fn fail(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        } else if self.errors.len() == 8 {
            self.errors.push("(further errors suppressed)".into());
        }
    }

    /// Validates one answer's rows.
    fn rows(&mut self, oracle: &dyn Oracle, query: &QueryGraph, table: &ResultTable) {
        if !self.self_checked && table.num_rows() > 0 {
            self.self_checked = true;
            if !check::checker_refuses_corruption(oracle, query, table) {
                self.fail("self-check: the checker accepted a corrupted row".into());
            }
        }
        let result = if self.corrupt_next && table.num_rows() > 0 {
            self.corrupt_next = false;
            check::check_rows(oracle, query, &check::corrupt(table))
        } else {
            check::check_rows(oracle, query, table)
        };
        if let Err(e) = result {
            self.fail(format!("wrong answer: {e}"));
        }
    }

    /// Compares an answer's row count with the reference count.
    fn count(&mut self, what: &str, got: usize, expected: usize) {
        if got != expected {
            self.fail(format!(
                "{what}: {got} rows, but VF2 on the reference graph gives min(k, n) = {expected}"
            ));
        }
    }

    fn correct(&self) -> bool {
        self.self_checked && self.errors.is_empty()
    }
}

/// The pieces every workload reports at the end of a run.
struct Finish {
    report: Report,
    trace: bool,
    tally: Tally,
    timed_us: f64,
    setups: Setups,
    storage: Storage,
    cache: CacheStats,
    peak_rss_mb: f64,
    tracer: Tracer,
    first_row_fallback: Vec<f64>,
    epoch: (Vec<f64>, Vec<f64>, u64),
}

impl Finish {
    fn into_report(self) -> Report {
        println!("queries_per_2s_window: {:?}", self.tally.per_window(2.0));
        let mut report = self.report;
        if !self.trace {
            report.push("setup_s", median(&self.setups.setup_s), "s");
            self.tally.end_to_end(&mut report, self.timed_us);
            report.push("bytes_per_edge", self.storage.bytes_per_edge(), "B/edge");
            report.push("peak_rss_mb", self.peak_rss_mb, "MB");
            return report;
        }
        self.tally.per_layer(&mut report);
        report.push("plan.us_p50", median(&self.tracer.durations("plan")), "us");
        report.push(
            "explore.us_p50",
            median(&self.tracer.durations("explore")),
            "us",
        );
        report.push("join.us_p50", median(&self.tracer.durations("join")), "us");
        common::cache_metrics(&mut report, Some(self.cache), self.tally.queries());
        let first_row = if self.tally.first_row_us.is_empty() {
            &self.first_row_fallback
        } else {
            &self.tally.first_row_us
        };
        report.push("stream.first_row_us_p50", median(first_row), "us");
        self.storage.per_layer(&mut report);
        let load = median(&self.setups.load_s);
        report.push("loader.load_s", load, "s");
        report.push(
            "loader.edges_per_s",
            self.storage.edges as f64 / load,
            "1/s",
        );
        let (apply, seal, ops) = &self.epoch;
        common::epoch_metrics(&mut report, apply, seal, *ops);
        // Tracing overhead: the traced phase replay's query rate against the
        // untraced engine's, both over query time only and on the same
        // queries in the same process.
        let replays = self.tracer.durations("query");
        let traced_qps = replays.len() as f64 / (replays.iter().sum::<f64>() / 1e6);
        let engine_s = self.tally.latency_us.iter().sum::<f64>() / 1e6;
        let untraced_qps = self.tally.queries() as f64 / engine_s;
        report.push("trace.queries_per_s", traced_qps, "1/s");
        report.push("trace.untraced_queries_per_s", untraced_qps, "1/s");
        report.push("trace.overhead_ratio", untraced_qps / traced_qps, "ratio");
        report
    }
}

/// The set-up samples of a run.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
}

impl Setups {
    /// Times one set-up: `load` builds the graph (timed on its own as the
    /// load), then `prepare` constructs an engine over it and runs the
    /// warm-up pass. Returns what `load` built.
    fn time<T>(
        &mut self,
        load: impl FnOnce() -> Result<T, String>,
        prepare: impl FnOnce(&T) -> Result<(), String>,
    ) -> Result<T, String> {
        let started = Instant::now();
        let built = load()?;
        self.load_s.push(secs(started));
        prepare(&built)?;
        self.setup_s.push(secs(started));
        Ok(built)
    }
}

/// The cache counters accumulated since `before`.
fn cache_delta(after: Option<CacheStats>, before: CacheStats) -> CacheStats {
    let after = after.unwrap_or_default();
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        bypasses: after.bypasses - before.bypasses,
        stale_evictions: after.stale_evictions - before.stale_evictions,
        ..after
    }
}

/// The Zipf query pool: `POOL` distinct `nodes`-vertex DFS queries.
fn zipf_pool(cloud: &MemoryCloud, nodes: usize) -> Vec<QueryGraph> {
    query_batch(cloud, POOL, nodes, None, POOL_SEED)
}

/// A request for `query`, with a per-request result-mode override if any.
fn request(query: &QueryGraph, mode: Option<ResultMode>) -> QueryRequest {
    let request = QueryRequest::new(query.clone());
    match mode {
        Some(mode) => request.with_result_mode(mode),
        None => request,
    }
}

/// Serves every query once (the warm-up pass: fills the STwig cache).
fn warm(
    engine: &QueryEngine<'_>,
    queries: &[QueryGraph],
    mode: Option<ResultMode>,
) -> Result<(), String> {
    for query in queries {
        common::serve(engine, request(query, mode))?;
    }
    Ok(())
}

fn build_synthetic(graph: &SyntheticGraph, machines: usize) -> MemoryCloud {
    graph
        .to_builder()
        .with_storage_tier(TIER)
        .build(machines, CostModel::default())
}

/// A plain, single-machine cloud of the generator's graph, built apart from
/// the program's serving cloud: the graph VF2 counts on.
fn reference_cloud(edges: &EdgeList, num_labels: usize) -> MemoryCloud {
    let mut gb =
        GraphBuilder::new_undirected().with_storage_tier(trinity_sim::compact::StorageTier::Plain);
    for l in 0..num_labels as u32 {
        gb.intern_label(&SyntheticGraph::label_name(l));
    }
    for (v, &l) in edges.labels.iter().enumerate() {
        gb.add_vertex_with_label_id(VertexId(v as u64), LabelId(l));
    }
    for &(u, v) in &edges.edges {
        gb.add_edge(VertexId(u), VertexId(v));
    }
    gb.build(1, CostModel::free())
}

/// `zipf-warm`: repeated shapes on a dense 20k-vertex R-MAT graph, cache
/// warm, materialized executor.
pub fn zipf_warm(args: &Args) -> Result<Report, String> {
    let (n, degree, labels) = if args.quick {
        (2_000, 16.0, 60)
    } else {
        (20_000, 48.0, 60)
    };
    let machines = 4;
    let gen_started = Instant::now();
    let graph = synthetic_experiment_graph(n, degree, labels as f64 / n as f64, GRAPH_SEED);
    let oracle = EdgeList::new(graph.labels.clone(), graph.edges.iter().copied());
    let draws = zipf_indices(POOL, 1 << 20, ZIPF_EXPONENT, args.seed ^ 0x21F);
    let mut gen_s = secs(gen_started);

    let config = common::match_config(TransportMode::DirectRead, false, ResultMode::FirstK(K));
    let per_request = args.streaming.then_some(ResultMode::FirstK(K));
    println!("{}", common::describe(&config, per_request, machines));

    let g = Instant::now();
    let pool = zipf_pool(&build_synthetic(&graph, machines), 5);
    gen_s += secs(g);
    let build = || Ok(build_synthetic(&graph, machines));
    let prepare = |cloud: &MemoryCloud| {
        let engine = QueryEngine::new(cloud, common::engine_config(config.clone()));
        warm(&engine, &pool, per_request)
    };
    let mut setups = Setups::default();
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        kept = Some(setups.time(build, prepare)?);
    }
    let cloud = kept.expect("at least one set-up");
    let engine = QueryEngine::new(&cloud, common::engine_config(config.clone()));
    warm(&engine, &pool, per_request)?;
    println!(
        "generation_s: {gen_s:.3} (inputs: {} vertices, {} generated edges, {} distinct queries)",
        n,
        graph.edges.len(),
        pool.len()
    );

    let replay_cache = StwigCache::new(&cloud, CacheConfig::default());
    let mut tracer = Tracer::default();
    if args.trace {
        for (i, q) in pool.iter().enumerate() {
            common::replay(
                &mut Tracer::default(),
                i as u64,
                &cloud,
                q,
                &config,
                &replay_cache,
            )?;
        }
    }

    let mut checker = Checker::new(args.corrupt_row);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut counts: Vec<Option<usize>> = vec![None; pool.len()];
    let mut per_query_us: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    let cache_before = engine.cache_stats().unwrap_or_default();
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut timed_us = 0.0;
    for (i, &d) in draws.iter().enumerate() {
        if started.elapsed() >= window {
            break;
        }
        let query = &pool[d];
        report.attempted += 1;
        let (latency, response) = match common::serve(&engine, request(query, per_request)) {
            Ok(served) => served,
            Err(e) => {
                report.failed += 1;
                checker.fail(format!("query failed: {e}"));
                continue;
            }
        };
        timed_us += latency;
        tally.record(latency, &response);
        per_query_us[d].push(latency);
        let table = response
            .table
            .unwrap_or_else(|| ResultTable::new(query.vertices().collect()));
        checker.rows(&oracle, query, &table);
        match counts[d] {
            Some(c) if c != table.num_rows() => checker.fail(format!(
                "query {d} answered {} rows, earlier {c}",
                table.num_rows()
            )),
            _ => counts[d] = Some(table.num_rows()),
        }
        if args.trace {
            let rows =
                common::replay(&mut tracer, i as u64, &cloud, query, &config, &replay_cache)?;
            if rows != table.num_rows() {
                checker.fail(format!(
                    "replay of query {d}: {rows} rows, engine {}",
                    table.num_rows()
                ));
            }
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    for _ in 0..SETUPS_AFTER {
        setups.time(build, prepare)?;
    }
    let cache = cache_delta(engine.cache_stats(), cache_before);
    println!(
        "cache: {} hits, {} misses, {} bypasses, {} stale evictions over {} queries",
        cache.hits,
        cache.misses,
        cache.bypasses,
        cache.stale_evictions,
        tally.queries()
    );

    for (d, us) in per_query_us.iter().enumerate() {
        println!(
            "query {d}: served {} times, {:?} rows, median {:.3} ms",
            us.len(),
            counts[d],
            median(us) / 1e3
        );
    }
    let checked = Instant::now();
    let reference = reference_cloud(&oracle, graph.num_labels);
    for (d, count) in counts.iter().enumerate() {
        if let Some(got) = *count {
            let expected = check::reference_count(&reference, &pool[d], K);
            checker.count(&format!("query {d}"), got, expected);
        }
    }
    drop(reference);
    println!("reference_check_s: {:.3}", secs(checked));

    let first_row_fallback = if args.trace {
        let streaming = config.clone();
        common::streaming_first_row_us(&cloud, &pool, &streaming, &replay_cache)?
    } else {
        Vec::new()
    };
    let storage = Storage::of(&cloud);
    drop(replay_cache);
    drop(engine);
    let epoch = if args.trace {
        let mut gen = UpdateGen::new(args.seed ^ 0xE90C, n, &oracle.edges);
        common::epoch_probe(cloud, &mut gen, 2)?
    } else {
        Default::default()
    };
    report.correct = checker.correct();
    print_errors(&checker);
    Ok(Finish {
        report,
        trace: args.trace,
        tally,
        timed_us,
        setups,
        storage,
        cache,
        peak_rss_mb,
        tracer: finish_tracer(tracer, args)?,
        first_row_fallback,
        epoch,
    }
    .into_report())
}

/// Writes the spans of a traced run and hands the tracer back.
fn finish_tracer(tracer: Tracer, args: &Args) -> Result<Tracer, String> {
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.tsv",
            args.workload, args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    Ok(tracer)
}

fn print_errors(checker: &Checker) {
    for e in &checker.errors {
        println!("error: {e}");
    }
    if !checker.self_checked {
        println!("error: no answer had a row, so the checker self-check never ran");
    }
}

/// A `GraphMirror` of the generated graph, filled from the generator's lists
/// rather than from the program's cloud. Labels are introduced in index
/// order, so the mirror's reference clouds intern `L<i>` as `LabelId(i)`,
/// as the serving cloud does.
fn mirror_of(graph: &EdgeList, num_labels: usize) -> Result<GraphMirror, String> {
    let mut first_of_label = vec![None; num_labels];
    for (v, &l) in graph.labels.iter().enumerate() {
        first_of_label[l as usize].get_or_insert(v);
    }
    let mut order = Vec::with_capacity(graph.labels.len());
    let mut placed = vec![false; graph.labels.len()];
    for first in first_of_label {
        let v = first.ok_or("a label has no vertex; the mirror's label ids would shift")?;
        order.push(v);
        placed[v] = true;
    }
    order.extend((0..graph.labels.len()).filter(|&v| !placed[v]));
    let mut batch = UpdateBatch::new();
    for v in order {
        let label = SyntheticGraph::label_name(graph.labels[v]);
        batch = batch.add_vertex(VertexId(v as u64), &label);
    }
    for &(u, v) in &graph.edges {
        batch = batch.add_edge(VertexId(u), VertexId(v));
    }
    let mut mirror = GraphMirror::default();
    mirror.apply(&batch);
    Ok(mirror)
}

/// `cold-stream`: a ~200k-vertex R-MAT graph streamed in by `StreamLoader`,
/// message transport with pruning, every request a distinct DFS query with
/// a per-request first-k override (the streaming executor).
pub fn cold_stream(args: &Args) -> Result<Report, String> {
    let (n, degree, labels) = if args.quick {
        (5_000, 8.0, 64)
    } else {
        (200_000, 16.0, 512)
    };
    let machines = 8;
    let gen_started = Instant::now();
    let stream = RmatStream::new(RmatConfig::with_avg_degree(n, degree, GRAPH_SEED));
    let names = StreamingLabels::new(
        LabelModel::Uniform { num_labels: labels },
        GRAPH_SEED ^ 0x1ABE1,
    );
    let n = stream.num_vertices();
    let oracle = EdgeList::new((0..n).map(|v| names.label_of(v)).collect(), stream.edges());
    let mut gen_s = secs(gen_started);

    let config = common::match_config(TransportMode::Messages, true, ResultMode::All);
    let per_request = ResultMode::FirstK(K);
    println!("{}", common::describe(&config, Some(per_request), machines));

    let load = || {
        let mut interner = LabelInterner::default();
        for l in 0..labels as u32 {
            interner.intern(&SyntheticGraph::label_name(l));
        }
        StreamLoader::new(machines, CostModel::default())
            .with_storage_tier(TIER)
            .load(
                interner,
                oracle
                    .labels
                    .iter()
                    .enumerate()
                    .map(|(v, &l)| (VertexId(v as u64), LabelId(l))),
                || {
                    oracle
                        .edges
                        .iter()
                        .map(|&(u, v)| (VertexId(u), VertexId(v)))
                },
            )
            .map_err(|e| e.to_string())
    };
    let query_seed = |i: u64| args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i);
    let g = Instant::now();
    let warmup: Vec<QueryGraph> = {
        let cloud = load()?;
        (0..8u64)
            .filter_map(|i| dfs_query(&cloud, 4, query_seed(u64::MAX - i)))
            .collect()
    };
    gen_s += secs(g);
    let prepare = |cloud: &MemoryCloud| {
        let engine = QueryEngine::new(cloud, common::engine_config(config.clone()));
        warm(&engine, &warmup, Some(per_request))
    };
    let mut setups = Setups::default();
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        kept = Some(setups.time(load, prepare)?);
    }
    let cloud = kept.expect("at least one set-up");

    let replay_config = config.clone().with_result_mode(per_request);
    let mut tracer = Tracer::default();
    let mut checker = Checker::new(args.corrupt_row);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut answered: Vec<(QueryGraph, usize)> = Vec::new();
    let mut cache = CacheStats::default();
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut timed_us = 0.0;
    let mut i = 0u64;
    // Rounds of COLD_ROUND distinct queries, each on a fresh engine (and a
    // fresh replay cache): the STwig cache restarts empty every round, so
    // the hit share does not grow with the number of queries a run gets
    // through, and a faster machine does not also get a warmer cache.
    while started.elapsed() < window {
        let engine = QueryEngine::new(&cloud, common::engine_config(config.clone()));
        let replay_cache = StwigCache::new(&cloud, CacheConfig::default());
        for _ in 0..COLD_ROUND {
            let g = Instant::now();
            let query = dfs_query(&cloud, 4, query_seed(i)).ok_or("the graph has no edge")?;
            gen_s += secs(g);
            i += 1;
            report.attempted += 1;
            let (latency, response) =
                match common::serve(&engine, request(&query, Some(per_request))) {
                    Ok(served) => served,
                    Err(e) => {
                        report.failed += 1;
                        checker.fail(format!("query failed: {e}"));
                        continue;
                    }
                };
            timed_us += latency;
            tally.record(latency, &response);
            let table = response
                .table
                .unwrap_or_else(|| ResultTable::new(query.vertices().collect()));
            checker.rows(&oracle, &query, &table);
            if args.trace {
                let rows = common::replay(
                    &mut tracer,
                    i,
                    &cloud,
                    &query,
                    &replay_config,
                    &replay_cache,
                )?;
                if rows != table.num_rows() {
                    checker.fail(format!(
                        "replay of query {i}: {rows} rows, engine {}",
                        table.num_rows()
                    ));
                }
            }
            answered.push((query, table.num_rows()));
        }
        let round = engine.cache_stats().unwrap_or_default();
        cache.hits += round.hits;
        cache.misses += round.misses;
        cache.bypasses += round.bypasses;
        cache.stale_evictions += round.stale_evictions;
        cache.bytes_resident = round.bytes_resident;
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    for _ in 0..SETUPS_AFTER {
        setups.time(load, prepare)?;
    }
    println!(
        "generation_s: {gen_s:.3} (inputs: {n} vertices, {} distinct edges, {} distinct queries)",
        oracle.edges.len(),
        answered.len()
    );
    println!(
        "cache: {} hits, {} misses, {} bypasses over {} queries",
        cache.hits,
        cache.misses,
        cache.bypasses,
        tally.queries()
    );

    let checked = Instant::now();
    let reference = reference_cloud(&oracle, labels);
    // VF2 over thousands of distinct queries is the slowest check; it runs
    // on this thread and one helper (the run's only second thread), after
    // the measured window and the RSS reading.
    let mismatches = |part: &[(QueryGraph, usize)], offset: usize| -> Vec<(usize, usize, usize)> {
        part.iter()
            .enumerate()
            .filter_map(|(j, (query, got))| {
                let expected = check::reference_count(&reference, query, K);
                (*got != expected).then_some((offset + j, *got, expected))
            })
            .collect()
    };
    let (first, second) = answered.split_at(answered.len() / 2);
    let (mut wrong, helper) = std::thread::scope(|s| {
        let helper = s.spawn(|| mismatches(second, first.len()));
        (mismatches(first, 0), helper.join())
    });
    wrong.extend(helper.map_err(|_| "the VF2 check thread panicked")?);
    for (j, got, expected) in wrong {
        checker.count(&format!("query {j}"), got, expected);
    }
    drop(reference);
    println!("reference_check_s: {:.3}", secs(checked));

    let storage = Storage::of(&cloud);
    let epoch = if args.trace {
        let mut gen = UpdateGen::new(args.seed ^ 0xE90C, n, &oracle.edges);
        common::epoch_probe(cloud, &mut gen, 2)?
    } else {
        Default::default()
    };
    report.correct = checker.correct();
    print_errors(&checker);
    Ok(Finish {
        report,
        trace: args.trace,
        tally,
        timed_us,
        setups,
        storage,
        cache,
        peak_rss_mb,
        tracer: finish_tracer(tracer, args)?,
        first_row_fallback: Vec::new(),
        epoch,
    }
    .into_report())
}

/// `churn`: queries interleaved with update batches and seals on one
/// thread, over a 20k-vertex R-MAT graph in `GraphEpochs`.
pub fn churn(args: &Args) -> Result<Report, String> {
    let (n, degree, labels) = if args.quick {
        (2_000, 8.0, 64)
    } else {
        (20_000, 16.0, 512)
    };
    let machines = 4;
    let gen_started = Instant::now();
    let graph = synthetic_experiment_graph(n, degree, labels as f64 / n as f64, GRAPH_SEED);
    let edges = EdgeList::new(graph.labels.clone(), graph.edges.iter().copied());
    let mut updates = UpdateGen::new(args.seed ^ 0xC4A2, n, &edges.edges);
    let draws = zipf_indices(POOL, 1 << 20, ZIPF_EXPONENT, args.seed ^ 0x21F);
    let mut gen_s = secs(gen_started);
    let mut mirror = Mirror(mirror_of(&edges, labels)?);

    let config = common::match_config(TransportMode::DirectRead, false, ResultMode::FirstK(K));
    println!("{}", common::describe(&config, None, machines));

    let g = Instant::now();
    let pool = zipf_pool(&build_synthetic(&graph, machines), 4);
    gen_s += secs(g);
    let build = || Ok(GraphEpochs::new(build_synthetic(&graph, machines)));
    let prepare = |epochs: &GraphEpochs| {
        let engine = QueryEngine::for_epochs(epochs, common::engine_config(config.clone()));
        warm(&engine, &pool, None)
    };
    let mut setups = Setups::default();
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        kept = Some(setups.time(build, prepare)?);
    }
    let epochs = kept.expect("at least one set-up");
    let engine = QueryEngine::for_epochs(&epochs, common::engine_config(config.clone()));
    warm(&engine, &pool, None)?;

    let replay_cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
    let mut tracer = Tracer::default();
    if args.trace {
        let snapshot = epochs.pin();
        for (i, q) in pool.iter().enumerate() {
            common::replay(
                &mut Tracer::default(),
                i as u64,
                &snapshot,
                q,
                &config,
                &replay_cache,
            )?;
        }
    }

    let mut checker = Checker::new(args.corrupt_row);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let (mut apply_us, mut seal_ms, mut ops) = (Vec::new(), Vec::new(), 0u64);
    let cache_before = engine.cache_stats().unwrap_or_default();
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut timed_us = 0.0;
    let mut next = 0usize;
    let mut seals = 0u64;
    // One cycle: BATCHES_PER_SEAL × (one batch, then QUERIES_PER_BATCH
    // queries), then a seal and the row-count check of the queries served
    // since the last batch.
    while started.elapsed() < window {
        let mut since_batch: Vec<(usize, usize)> = Vec::new();
        for _ in 0..BATCHES_PER_SEAL {
            let g = Instant::now();
            let batch = updates.next_batch(OPS_PER_BATCH);
            gen_s += secs(g);
            report.attempted += 1;
            let t = Instant::now();
            let applied = if args.trace {
                let r = tracer.span(0, "apply", || epochs.apply(&batch));
                r.map(|_| ()).map_err(|e| e.to_string())
            } else {
                match engine.apply_updates(batch.clone()) {
                    Submit::Accepted(handle) => {
                        engine.drain();
                        handle.wait().map(|_| ()).map_err(|e| e.to_string())
                    }
                    Submit::Rejected(reason) => Err(format!("rejected: {reason}")),
                }
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            if let Err(e) = applied {
                report.failed += 1;
                checker.fail(format!("update batch failed: {e}"));
                continue;
            }
            timed_us += us;
            apply_us.push(us);
            ops += batch.len() as u64;
            mirror.0.apply(&batch);
            since_batch.clear();
            for _ in 0..QUERIES_PER_BATCH {
                let d = draws[next % draws.len()];
                next += 1;
                let query = &pool[d];
                report.attempted += 1;
                let (latency, response) =
                    match common::serve(&engine, QueryRequest::new(query.clone())) {
                        Ok(served) => served,
                        Err(e) => {
                            report.failed += 1;
                            checker.fail(format!("query failed: {e}"));
                            continue;
                        }
                    };
                timed_us += latency;
                tally.record(latency, &response);
                let table = response
                    .table
                    .unwrap_or_else(|| ResultTable::new(query.vertices().collect()));
                checker.rows(&mirror, query, &table);
                if args.trace {
                    let snapshot = epochs.pin();
                    let rows = common::replay(
                        &mut tracer,
                        next as u64,
                        &snapshot,
                        query,
                        &config,
                        &replay_cache,
                    )?;
                    if rows != table.num_rows() {
                        checker.fail(format!(
                            "replay of query {d}: {rows} rows, engine {}",
                            table.num_rows()
                        ));
                    }
                }
                since_batch.push((d, table.num_rows()));
            }
        }
        let t = Instant::now();
        if args.trace {
            tracer.span(0, "seal", || epochs.seal_epoch());
        } else {
            engine.seal_epoch();
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        timed_us += us;
        seal_ms.push(us / 1e3);
        seals += 1;
        let reference = mirror.0.build_cloud(1, CostModel::free());
        since_batch.sort_unstable();
        since_batch.dedup();
        for &(d, got) in &since_batch {
            let expected = check::reference_count(&reference, &pool[d], K);
            checker.count(&format!("query {d} at seal {seals}"), got, expected);
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    for _ in 0..SETUPS_AFTER {
        setups.time(build, prepare)?;
    }
    let cache = cache_delta(engine.cache_stats(), cache_before);
    println!(
        "generation_s: {gen_s:.3} (inputs: {n} vertices, {} distinct edges, {} distinct queries, {} batches of {OPS_PER_BATCH} ops)",
        edges.edges.len(),
        pool.len(),
        apply_us.len()
    );
    println!(
        "cache: {} hits, {} misses, {} bypasses, {} stale evictions over {} queries \
         (stale share of misses {:.3})",
        cache.hits,
        cache.misses,
        cache.bypasses,
        cache.stale_evictions,
        tally.queries(),
        per(cache.stale_evictions as f64, cache.misses)
    );

    let first_row_fallback = if args.trace {
        common::streaming_first_row_us(&epochs.pin(), &pool, &config, &replay_cache)?
    } else {
        Vec::new()
    };
    let storage = Storage::of(&epochs.pin());
    drop(replay_cache);
    drop(engine);
    report.correct = checker.correct();
    print_errors(&checker);
    Ok(Finish {
        report,
        trace: args.trace,
        tally,
        timed_us,
        setups,
        storage,
        cache,
        peak_rss_mb,
        tracer: finish_tracer(tracer, args)?,
        first_row_fallback,
        epoch: (apply_us, seal_ms, ops),
    }
    .into_report())
}
