//! Answer checking made apart from the program.
//!
//! Rows are validated against the generator's own edge and label lists
//! (never through the memory cloud), and row counts against
//! `baselines::vf2` run on a graph built separately from the one the
//! program serves.

use graph_gen::GraphMirror;
use stwig::prelude::*;
use trinity_sim::ids::VertexId;

/// The generator-side view of a graph: labels by vertex and edge lookup.
pub trait Oracle {
    /// The label index of vertex `v` (labels are named `L<index>`).
    fn label(&self, v: u64) -> Option<u32>;
    /// Whether the undirected edge `{u, v}` exists.
    fn has_edge(&self, u: u64, v: u64) -> bool;
}

/// A static generated graph: a label per vertex and a sorted, deduplicated
/// list of canonical `(min, max)` edges.
pub struct EdgeList {
    pub labels: Vec<u32>,
    pub edges: Vec<(u64, u64)>,
}

impl EdgeList {
    /// Canonicalizes raw generator edges: self loops dropped, each edge as
    /// `(min, max)`, sorted and deduplicated.
    pub fn new(labels: Vec<u32>, raw: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let n = labels.len() as u64;
        let mut edges: Vec<(u64, u64)> = raw
            .into_iter()
            .filter(|&(u, v)| u != v && u < n && v < n)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        EdgeList { labels, edges }
    }
}

impl Oracle for EdgeList {
    fn label(&self, v: u64) -> Option<u32> {
        self.labels.get(v as usize).copied()
    }

    fn has_edge(&self, u: u64, v: u64) -> bool {
        self.edges.binary_search(&(u.min(v), u.max(v))).is_ok()
    }
}

/// The dynamic graph as `graph_gen::GraphMirror` replays the update stream.
pub struct Mirror(pub GraphMirror);

impl Oracle for Mirror {
    fn label(&self, v: u64) -> Option<u32> {
        self.0
            .label_of(VertexId(v))
            .and_then(|name| name.strip_prefix('L')?.parse().ok())
    }

    fn has_edge(&self, u: u64, v: u64) -> bool {
        self.0.has_edge(VertexId(u), VertexId(v))
    }
}

/// Checks one result table of `query`: every row is an injective mapping
/// that preserves labels and edges, and no row repeats.
pub fn check_rows(
    oracle: &dyn Oracle,
    query: &QueryGraph,
    table: &ResultTable,
) -> Result<(), String> {
    let n = query.num_vertices();
    let mut col = vec![usize::MAX; n];
    for (j, q) in table.columns().iter().enumerate() {
        if q.index() < n {
            col[q.index()] = j;
        }
    }
    if table.num_rows() > 0 && col.contains(&usize::MAX) {
        return Err(format!(
            "table columns {:?} do not cover the {n} query vertices",
            table.columns()
        ));
    }
    let edges: Vec<(usize, usize)> = query
        .edges()
        .map(|(a, b)| (col[a.index()], col[b.index()]))
        .collect();
    for row in table.rows() {
        check_row(oracle, query, &col, &edges, row)?;
    }
    let mut seen: Vec<&[VertexId]> = table.rows().collect();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err("a row repeats".into());
    }
    Ok(())
}

fn check_row(
    oracle: &dyn Oracle,
    query: &QueryGraph,
    col: &[usize],
    edges: &[(usize, usize)],
    row: &[VertexId],
) -> Result<(), String> {
    for q in query.vertices() {
        let v = row[col[q.index()]].raw();
        if oracle.label(v) != Some(query.label(q).0) {
            return Err(format!(
                "row {row:?}: vertex {v} does not carry the label of query vertex {}",
                q.index()
            ));
        }
    }
    let mut ids: Vec<u64> = row.iter().map(|v| v.raw()).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("row {row:?} maps two query vertices to one vertex"));
    }
    for &(a, b) in edges {
        if !oracle.has_edge(row[a].raw(), row[b].raw()) {
            return Err(format!(
                "row {row:?}: no edge {} - {}",
                row[a].raw(),
                row[b].raw()
            ));
        }
    }
    Ok(())
}

/// Two corruptions of one valid row: its first vertex replaced by an id no
/// vertex has, and its first vertex replaced by its second (two query
/// vertices on one data vertex). Each is a wrong answer.
fn corrupted_rows(row: &[VertexId]) -> [Vec<VertexId>; 2] {
    let mut missing = row.to_vec();
    missing[0] = VertexId(u64::MAX / 2);
    let mut doubled = row.to_vec();
    doubled[0] = doubled[doubled.len().min(2) - 1];
    [missing, doubled]
}

/// Feeds the checker each corrupted copy of the table's first row and
/// returns whether it refused them all. A checker that accepts a corrupted
/// row would pass anything, so every run requires this.
pub fn checker_refuses_corruption(
    oracle: &dyn Oracle,
    query: &QueryGraph,
    table: &ResultTable,
) -> bool {
    let Some(row) = table.rows().next() else {
        return true;
    };
    corrupted_rows(row).iter().all(|bad| {
        let mut corrupted = ResultTable::new(table.columns().to_vec());
        corrupted.push_row(bad);
        check_rows(oracle, query, &corrupted).is_err()
    })
}

/// The table with one corrupted row appended, used by `--corrupt-row` to
/// show that a wrong answer makes the run fail.
pub fn corrupt(table: &ResultTable) -> ResultTable {
    let mut out = table.clone();
    if let Some(row) = table.rows().next() {
        let [bad, _] = corrupted_rows(row);
        out.push_row(&bad);
    }
    out
}

/// The reference row count of `query` under a first-`k` request:
/// `min(k, n)` where `n` is VF2's count on the separately built `reference`
/// cloud.
pub fn reference_count(
    reference: &trinity_sim::MemoryCloud,
    query: &QueryGraph,
    k: usize,
) -> usize {
    baselines::vf2(reference, query, Some(k)).num_rows()
}
