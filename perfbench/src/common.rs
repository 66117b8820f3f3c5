//! Pieces every workload shares: the explicit configuration, the
//! closed-loop client, the per-query tallies, the traced phase replay, the
//! update-stream generator and the storage figures.

use crate::report::{median, micros, per, percentile, Report, SplitMix};
use std::time::Instant;
use stwig::metrics::{ExploreCounters, JoinCounters, MachineMetrics};
use stwig::prelude::*;
use trinity_sim::compact::StorageTier;
use trinity_sim::epoch::{GraphEpochs, UpdateBatch};
use trinity_sim::ids::VertexId;
use trinity_sim::partition::StorageBytes;
use trinity_sim::MemoryCloud;

/// First-k row limit of every workload.
pub const K: usize = 1024;

/// The storage tier every workload builds with, set here rather than taken
/// from `STWIG_STORAGE`.
pub const TIER: StorageTier = StorageTier::Compact;

/// The matcher configuration of a workload. Every knob the program would
/// otherwise read from the environment (`STWIG_TRANSPORT`, `STWIG_PRUNING`,
/// `STWIG_FAULT_PLAN`) is set explicitly, so no environment changes what a
/// workload measures. STwig tables are exact (`max_stwig_rows = None`): the
/// paper's per-STwig row cap can leave a first-k answer short of
/// `min(k, n)` rows, which the answer check would rightly refuse.
pub fn match_config(transport: TransportMode, pruning: bool, mode: ResultMode) -> MatchConfig {
    MatchConfig::default()
        .with_result_mode(mode)
        .with_max_stwig_rows(None)
        .with_num_threads(Some(1))
        .with_transport_mode(transport)
        .with_pruning(pruning)
        .with_fault_plan(None)
}

/// One serving worker, the default STwig cache, and `config`.
pub fn engine_config(config: MatchConfig) -> EngineConfig {
    EngineConfig::default()
        .with_workers(Some(1))
        .with_cache(Some(CacheConfig::default()))
        .with_match_config(config)
}

/// The effective configuration, printed beside the metrics.
pub fn describe(config: &MatchConfig, per_request: Option<ResultMode>, machines: usize) -> String {
    format!(
        "config: machines={machines} storage={} transport={:?} pruning={} fault_plan={:?} \
         engine_result_mode={:?} per_request_result_mode={per_request:?} workers=1 \
         num_threads={:?} max_stwig_rows={:?} cache_budget_bytes={}",
        TIER.as_str(),
        config.transport_mode,
        config.pruning,
        config.fault_plan,
        config.result_mode,
        config.num_threads,
        config.max_stwig_rows,
        CacheConfig::default().budget_bytes,
    )
}

/// Submits one request and serves it on this thread: the closed-loop
/// client. Returns the submit-to-answer latency in µs with the response.
pub fn serve(
    engine: &QueryEngine<'_>,
    request: QueryRequest,
) -> Result<(f64, QueryResponse), String> {
    let started = Instant::now();
    let handle = match engine.submit(request) {
        Submit::Accepted(handle) => handle,
        Submit::Rejected(reason) => return Err(format!("rejected: {reason}")),
    };
    engine.drain();
    let response = handle.wait().map_err(|e| e.to_string())?;
    Ok((micros(started), response))
}

/// Per-query figures gathered from the engine's answers.
#[derive(Default)]
pub struct Tally {
    pub latency_us: Vec<f64>,
    /// Completion time of each query, µs since the first one.
    pub done_us: Vec<f64>,
    origin: Option<Instant>,
    pub queue_wait_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub first_row_us: Vec<f64>,
    pub peak_table_bytes: Vec<f64>,
    pub net_bytes: u64,
    pub stwigs: u64,
    pub explore_rounds: u64,
    pub explore: ExploreCounters,
    pub join: JoinCounters,
    pub phase: PhaseTraffic,
}

impl Tally {
    pub fn record(&mut self, latency_us: f64, response: &QueryResponse) {
        let m = &response.metrics;
        let origin = *self.origin.get_or_insert_with(Instant::now);
        self.done_us.push(micros(origin));
        self.latency_us.push(latency_us);
        self.queue_wait_us.push(response.queue_wait_us);
        self.overhead_us.push(latency_us - m.wall_us);
        if let Some(first) = m.time_to_first_result_us {
            self.first_row_us.push(first);
        }
        self.peak_table_bytes.push(m.peak_table_bytes as f64);
        self.net_bytes += m.network_bytes;
        self.stwigs += m.num_stwigs as u64;
        self.explore_rounds += m.explore_rounds;
        self.explore.merge(&m.explore);
        self.join.merge(&m.join);
        self.phase.merge(&m.phase_traffic);
    }

    /// Queries completed in each `window_s` window of the run: shows
    /// machine-speed episodes within one run.
    pub fn per_window(&self, window_s: f64) -> Vec<u64> {
        let mut counts = Vec::new();
        for &t in &self.done_us {
            let w = (t / 1e6 / window_s) as usize;
            if counts.len() <= w {
                counts.resize(w + 1, 0);
            }
            counts[w] += 1;
        }
        counts
    }

    pub fn queries(&self) -> u64 {
        self.latency_us.len() as u64
    }

    /// The end-to-end query metrics. `timed_us` is the timed window: the
    /// sum of the intervals the client spent waiting on the program.
    pub fn end_to_end(&self, report: &mut Report, timed_us: f64) {
        report.push(
            "query_p50_ms",
            percentile(&self.latency_us, 0.5) / 1e3,
            "ms",
        );
        report.push(
            "query_p99_ms",
            percentile(&self.latency_us, 0.99) / 1e3,
            "ms",
        );
        report.push(
            "queries_per_s",
            self.queries() as f64 / (timed_us / 1e6),
            "1/s",
        );
        report.push(
            "net_bytes_per_query",
            per(self.net_bytes as f64, self.queries()),
            "B",
        );
    }

    /// The per-layer counters and serve figures.
    pub fn per_layer(&self, report: &mut Report) {
        let n = self.queries();
        let mean = |x: u64| per(x as f64, n);
        report.push("serve.queue_wait_us_p50", median(&self.queue_wait_us), "us");
        report.push("serve.overhead_us_p50", median(&self.overhead_us), "us");
        report.push("plan.stwigs_per_query", mean(self.stwigs), "count");
        report.push(
            "explore.roots_scanned",
            mean(self.explore.roots_scanned),
            "count",
        );
        report.push(
            "explore.cells_loaded",
            mean(self.explore.cells_loaded),
            "count",
        );
        report.push(
            "explore.label_probes",
            mean(self.explore.label_probes),
            "count",
        );
        report.push(
            "explore.rows_emitted",
            mean(self.explore.rows_emitted),
            "count",
        );
        report.push(
            "explore.roots_pruned",
            mean(self.explore.roots_pruned),
            "count",
        );
        report.push(
            "explore.rows_pruned_by_bindings",
            mean(self.explore.rows_pruned_by_bindings),
            "count",
        );
        report.push(
            "transport.explore_bytes",
            mean(self.phase.explore_bytes),
            "B",
        );
        report.push(
            "transport.explore_messages",
            mean(self.phase.explore_messages),
            "count",
        );
        report.push(
            "transport.binding_sync_bytes",
            mean(self.phase.binding_sync_bytes),
            "B",
        );
        report.push(
            "transport.join_ship_bytes",
            mean(self.phase.join_ship_bytes),
            "B",
        );
        report.push(
            "join.intermediate_rows",
            mean(self.join.intermediate_rows),
            "count",
        );
        report.push(
            "join.pipeline_rounds",
            mean(self.join.pipeline_rounds),
            "count",
        );
        report.push(
            "join.peak_table_bytes_p50",
            median(&self.peak_table_bytes),
            "B",
        );
        report.push("stream.explore_rounds", mean(self.explore_rounds), "count");
    }
}

/// The cache counters, per query where they count lookups.
pub fn cache_metrics(report: &mut Report, stats: Option<CacheStats>, queries: u64) {
    let s = stats.unwrap_or_default();
    let mean = |x: u64| per(x as f64, queries);
    report.push("cache.hits", mean(s.hits), "count");
    report.push("cache.misses", mean(s.misses), "count");
    report.push("cache.bypasses", mean(s.bypasses), "count");
    report.push("cache.stale_evictions", mean(s.stale_evictions), "count");
    report.push("cache.hit_share", s.hit_rate(), "ratio");
    report.push("cache.bytes_resident", s.bytes_resident as f64, "B");
}

/// The resident bytes of a cloud with its size, taken when set-up ends.
pub struct Storage {
    pub bytes: StorageBytes,
    pub edges: u64,
    pub vertices: u64,
}

impl Storage {
    pub fn of(cloud: &MemoryCloud) -> Self {
        Storage {
            bytes: cloud.storage_bytes(),
            edges: cloud.num_edges(),
            vertices: cloud.num_vertices(),
        }
    }

    /// Total resident bytes per edge.
    pub fn bytes_per_edge(&self) -> f64 {
        per(self.bytes.total() as f64, self.edges)
    }

    /// The storage breakdown.
    pub fn per_layer(&self, report: &mut Report) {
        let (s, e, v) = (&self.bytes, self.edges, self.vertices);
        report.push(
            "storage.adjacency_bytes_per_edge",
            per(s.adjacency as f64, e),
            "B",
        );
        report.push(
            "storage.postings_bytes_per_edge",
            per(s.postings as f64, e),
            "B",
        );
        report.push(
            "storage.id_map_bytes_per_vertex",
            per(s.id_map as f64, v),
            "B",
        );
        report.push(
            "storage.signature_bytes_per_vertex",
            per(s.signatures as f64, v),
            "B",
        );
        report.push("storage.pair_table_bytes", s.pair_table as f64, "B");
    }
}

/// Phase spans of the traced replay, kept in memory and written out when
/// the run ends.
#[derive(Default)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Tracer {
    /// µs since the tracer's origin (its first use).
    pub fn now_us(&mut self) -> f64 {
        micros(*self.origin.get_or_insert_with(Instant::now))
    }

    /// Records span `name` of `request` from `start_us` to now.
    pub fn close(&mut self, request: u64, name: &'static str, start_us: f64) {
        let end_us = self.now_us();
        self.spans.push(Span {
            request,
            name,
            start_us,
            end_us,
        });
    }

    /// Times `f` as span `name` of `request`.
    pub fn span<R>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        self.close(request, name, start_us);
        out
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Writes every span as a tab-separated line (`request`, `name`,
    /// `start_us`, `end_us`; `query` spans are the parents of the phase
    /// spans with the same request id).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_us\tend_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{:.3}\t{:.3}",
                s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Replays one query through the executor's public phase functions —
/// `plan_query_with_config`, `produce_stwig_tables`, `join_stwig_tables` —
/// timing each as a span. Returns the result row count.
pub fn replay(
    tracer: &mut Tracer,
    request: u64,
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    cache: &StwigCache<'_>,
) -> Result<usize, String> {
    let started = tracer.now_us();
    cloud.reset_traffic();
    let plan = tracer
        .span(request, "plan", || {
            plan_query_with_config(cloud, query, config)
        })
        .map_err(|e| e.to_string())?;
    let mut metrics = QueryMetrics::default();
    let mut machines: Vec<MachineMetrics> = (0..cloud.num_machines())
        .map(|k| MachineMetrics {
            machine: k as u16,
            ..MachineMetrics::default()
        })
        .collect();
    let tables = tracer
        .span(request, "explore", || {
            produce_stwig_tables(
                cloud,
                query,
                &plan,
                config,
                Some(cache),
                None,
                &mut metrics,
                &mut machines,
            )
        })
        .map_err(|e| e.to_string())?;
    let rows = match tables {
        None => 0,
        Some(tables) => tracer
            .span(request, "join", || {
                join_stwig_tables(
                    cloud,
                    query,
                    &plan,
                    &tables,
                    config,
                    &mut metrics,
                    &mut machines,
                )
            })
            .map_err(|e| e.to_string())?
            .num_rows(),
    };
    tracer.close(request, "query", started);
    Ok(rows)
}

/// Generator of valid update batches at O(ops · log edges) per batch, so a
/// stream costs time linear in its length. The stream flaps edges: a fresh
/// batch removes `ops / 2` existing edges and inserts as many absent ones,
/// and the batch after it undoes exactly that. The graph therefore returns
/// to the generated one after every second batch — every batch is valid by
/// construction (no vertex is removed, and only edges of the generated
/// graph are removed) — and a run serves the same graph however many
/// batches it gets through, while every batch still touches up to
/// `2 · ops` vertices' labels.
pub struct UpdateGen<'a> {
    rng: SplitMix,
    num_vertices: u64,
    /// The generated graph's edges, canonical `(min, max)`, sorted.
    edges: &'a [(u64, u64)],
    undo: Option<UpdateBatch>,
}

impl<'a> UpdateGen<'a> {
    pub fn new(seed: u64, num_vertices: u64, edges: &'a [(u64, u64)]) -> Self {
        UpdateGen {
            rng: SplitMix(seed),
            num_vertices,
            edges,
            undo: None,
        }
    }

    /// The next batch of exactly `ops` ops.
    pub fn next_batch(&mut self, ops: usize) -> UpdateBatch {
        if let Some(undo) = self.undo.take() {
            return undo;
        }
        let mut removed: Vec<(u64, u64)> = Vec::with_capacity(ops / 2);
        while removed.len() < ops / 2 {
            let e = self.edges[self.rng.below(self.edges.len() as u64) as usize];
            if !removed.contains(&e) {
                removed.push(e);
            }
        }
        let mut added: Vec<(u64, u64)> = Vec::with_capacity(ops - ops / 2);
        while added.len() < ops - ops / 2 {
            let (u, v) = (
                self.rng.below(self.num_vertices),
                self.rng.below(self.num_vertices),
            );
            let key = (u.min(v), u.max(v));
            if u != v && self.edges.binary_search(&key).is_err() && !added.contains(&key) {
                added.push(key);
            }
        }
        let (mut batch, mut undo) = (UpdateBatch::new(), UpdateBatch::new());
        for &(u, v) in &removed {
            batch = batch.remove_edge(VertexId(u), VertexId(v));
            undo = undo.add_edge(VertexId(u), VertexId(v));
        }
        for &(u, v) in &added {
            batch = batch.add_edge(VertexId(u), VertexId(v));
            undo = undo.remove_edge(VertexId(u), VertexId(v));
        }
        self.undo = Some(undo);
        batch
    }
}

/// Epoch-layer probe for the static workloads' traced runs: wraps the
/// workload's own graph in `GraphEpochs`, applies `rounds × 16` generated
/// 32-op batches and seals after every 16, timing each call. Returns
/// (apply µs samples, seal ms samples, ops applied).
pub fn epoch_probe(
    cloud: MemoryCloud,
    gen: &mut UpdateGen<'_>,
    rounds: usize,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let epochs = GraphEpochs::new(cloud);
    let (mut apply, mut seal, mut ops) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..rounds {
        for _ in 0..16 {
            let batch = gen.next_batch(32);
            let t = Instant::now();
            epochs.apply(&batch).map_err(|e| e.to_string())?;
            apply.push(micros(t));
            ops += batch.len() as u64;
        }
        let t = Instant::now();
        epochs.seal_epoch();
        seal.push(micros(t) / 1e3);
    }
    Ok((apply, seal, ops))
}

/// The epoch-layer metrics.
pub fn epoch_metrics(report: &mut Report, apply_us: &[f64], seal_ms: &[f64], ops: u64) {
    let busy_s = (apply_us.iter().sum::<f64>() + seal_ms.iter().sum::<f64>() * 1e3) / 1e6;
    report.push("epoch.apply_us_p50", median(apply_us), "us");
    report.push("epoch.seal_ms_p50", median(seal_ms), "ms");
    report.push("epoch.batches_applied", apply_us.len() as f64, "count");
    report.push("epoch.update_ops_per_s", ops as f64 / busy_s, "1/s");
}

/// First-row latency of the streaming executor on `queries`, for workloads
/// whose requests take the materialized executor (which reports none).
pub fn streaming_first_row_us(
    cloud: &MemoryCloud,
    queries: &[QueryGraph],
    config: &MatchConfig,
    cache: &StwigCache<'_>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for query in queries {
        let mut sink = CollectSink::new();
        let metrics = match_query_streaming_with_cache(
            cloud,
            query,
            config,
            &QueryOptions::none(),
            Some(cache),
            &mut sink,
        )
        .map_err(|e| e.to_string())?;
        out.extend(metrics.time_to_first_result_us);
    }
    Ok(out)
}
