//! Hot-path reachability over the workspace [`CallGraph`]: seeds the graph
//! from the `entry_points` declared in `lint.toml` (the per-cycle surface —
//! `Processor::advance_slice`, the `CommitEngine` per-cycle methods, the
//! `MemoryBackend` request/tick/drain hooks, the `Observer` hooks) and
//! propagates a *hot* mark through every resolved call edge.
//!
//! `cold_fns` entries are **cut points**: when the walk reaches a function
//! whose name (or `Type::name` qualified form) is listed there, the
//! function is marked as a cut — it is neither enforced nor traversed, so
//! everything only reachable through it stays cold. This is how
//! constructors (`new`, `with_capacity`, …) and explicitly-cold helpers
//! (reset paths, end-of-run finalization) are carved out of the per-cycle
//! surface.
//!
//! Every hot function remembers the edge that first reached it, so a
//! finding can cite its full seeding chain
//! (`entry → caller → … → offending fn`) — the answer to "why does the
//! lint think this helper is per-cycle?".

use crate::graph::CallGraph;
use serde::Serialize;

/// The result of the reachability pass.
#[derive(Debug)]
pub struct Reachability {
    /// The entry specs, as configured (indexes the `entry` field below).
    pub entry_specs: Vec<String>,
    /// Per global node: reachable from an entry point and not cut.
    pub hot: Vec<bool>,
    /// Per global node: reached but cut by a `cold_fns` entry.
    pub cold_cut: Vec<bool>,
    /// Per global node: the node that first reached it (`None` for seeds).
    pub parent: Vec<Option<u32>>,
    /// Per global node: index into `entry_specs` of the seeding entry.
    pub entry: Vec<Option<u32>>,
    /// Entry specs that resolved to no function (configuration errors).
    pub unresolved: Vec<String>,
}

impl Reachability {
    /// Runs the pass: resolve every entry spec, then breadth-first
    /// propagate the hot mark, cutting at `cold_fns`.
    pub fn compute(
        graph: &CallGraph,
        entry_points: &[String],
        cold_fns: &[String],
    ) -> Reachability {
        let n = graph.nodes.len();
        let mut reach = Reachability {
            entry_specs: entry_points.to_vec(),
            hot: vec![false; n],
            cold_cut: vec![false; n],
            parent: vec![None; n],
            entry: vec![None; n],
            unresolved: Vec::new(),
        };

        let mut queue = std::collections::VecDeque::new();
        for (ei, spec) in entry_points.iter().enumerate() {
            let seeds = graph.resolve_entry(spec);
            if seeds.is_empty() {
                reach.unresolved.push(spec.clone());
                continue;
            }
            for gid in seeds {
                if !reach.hot[gid as usize] && !reach.cold_cut[gid as usize] {
                    if is_cold(graph, gid, cold_fns) {
                        reach.cold_cut[gid as usize] = true;
                        continue;
                    }
                    reach.hot[gid as usize] = true;
                    reach.entry[gid as usize] = Some(ei as u32);
                    queue.push_back(gid);
                }
            }
        }

        while let Some(gid) = queue.pop_front() {
            let ei = reach.entry[gid as usize];
            for &callee in &graph.callees[gid as usize] {
                let c = callee as usize;
                if reach.hot[c] || reach.cold_cut[c] {
                    continue;
                }
                if is_cold(graph, callee, cold_fns) {
                    reach.cold_cut[c] = true;
                    continue;
                }
                reach.hot[c] = true;
                reach.parent[c] = Some(gid);
                reach.entry[c] = ei;
                queue.push_back(callee);
            }
        }

        reach
    }

    /// Number of hot functions.
    pub fn hot_count(&self) -> usize {
        self.hot.iter().filter(|&&h| h).count()
    }

    /// The seeding chain for a hot node:
    /// `entry-spec → caller → … → Type::fn`. Returns `None` for nodes that
    /// are not hot.
    pub fn chain(&self, graph: &CallGraph, gid: u32) -> Option<String> {
        if !self.hot[gid as usize] {
            return None;
        }
        let mut names = Vec::new();
        let mut cur = gid;
        loop {
            names.push(graph.item(cur).qualified());
            match self.parent[cur as usize] {
                Some(p) => cur = p,
                None => break,
            }
        }
        let spec = self.entry[gid as usize].map(|ei| self.entry_specs[ei as usize].as_str());
        let mut chain = String::new();
        if let Some(spec) = spec {
            // Skip the seed's own name when it restates the entry spec.
            if names.last().is_some_and(|n| n == spec) {
                names.pop();
            }
            chain.push_str(spec);
        }
        for name in names.iter().rev() {
            if !chain.is_empty() {
                chain.push_str(" → ");
            }
            chain.push_str(name);
        }
        Some(chain)
    }
}

/// Per-file hot marks handed to the rules: for each code-token index of a
/// [`FileScan`](crate::scan::FileScan), whether the enclosing function is
/// hot and via which seeding chain. Built once per file so the token-stream
/// rules stay O(tokens).
#[derive(Debug)]
pub struct HotMarks {
    /// Per code index: file-local item id of the enclosing fn, kept only
    /// when that fn is hot.
    node_at: Vec<Option<u32>>,
    /// Per file-local item: the seeding chain (`None` when not hot).
    chains: Vec<Option<String>>,
}

impl HotMarks {
    /// Computes the marks for file index `file` of the graph.
    pub fn for_file(graph: &CallGraph, reach: &Reachability, file: usize) -> HotMarks {
        let chains: Vec<Option<String>> = graph.global_of[file]
            .iter()
            .map(|&gid| reach.chain(graph, gid))
            .collect();
        let node_at = graph.files[file]
            .node_at
            .iter()
            .map(|&local| local.filter(|&l| chains[l as usize].is_some()))
            .collect();
        HotMarks { node_at, chains }
    }

    /// Marks with no hot function, for callers that lint a scan outside any
    /// graph (unit tests of the suppression plumbing).
    pub fn none(code_len: usize) -> HotMarks {
        HotMarks {
            node_at: vec![None; code_len],
            chains: Vec::new(),
        }
    }

    /// The seeding chain of the hot function enclosing code token `i`.
    /// `None` when the token sits in cold code (or outside any function).
    pub fn chain_at(&self, i: usize) -> Option<&str> {
        self.node_at
            .get(i)
            .copied()
            .flatten()
            .and_then(|l| self.chains[l as usize].as_deref())
    }

    /// Whether any function in the file is hot.
    pub fn any_hot(&self) -> bool {
        self.chains.iter().any(|c| c.is_some())
    }
}

/// Whether `gid` matches a `cold_fns` entry: a bare `name` matches any
/// function of that name; `Type::name` (or `Trait::name`) matches only
/// functions of that name in impls of (or default bodies of) that type or
/// trait.
fn is_cold(graph: &CallGraph, gid: u32, cold_fns: &[String]) -> bool {
    let item = graph.item(gid);
    cold_fns.iter().any(|spec| match spec.split_once("::") {
        None => item.name == *spec,
        Some((qual, name)) => {
            item.name == name
                && (item.self_ty.as_deref() == Some(qual) || item.trait_ty.as_deref() == Some(qual))
        }
    })
}

/// One node of the serialized call graph.
#[derive(Debug, Serialize)]
pub struct GraphNode {
    /// Global node id (the index edges refer to).
    pub id: u32,
    /// Qualified display name (`Type::fn`, `Trait::fn`, or `fn`).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// On the derived per-cycle hot path.
    pub hot: bool,
    /// Reached but cut by a `cold_fns` entry.
    pub cold_cut: bool,
    /// Seeded directly by an `entry_points` spec.
    pub entry: bool,
    /// The seeding chain, for hot nodes.
    pub via: Option<String>,
}

/// The `koc-callgraph/1` document written by `koc-lint --out-graph`.
#[derive(Debug, Serialize)]
pub struct GraphReport {
    /// Document format identifier.
    pub schema: String,
    /// The configured entry specs.
    pub entry_points: Vec<String>,
    /// Number of hot functions.
    pub hot_fns: usize,
    /// Number of functions cut by `cold_fns`.
    pub cold_cuts: usize,
    /// All workspace functions (test-code functions included, unmarked).
    pub nodes: Vec<GraphNode>,
    /// Resolved call edges as `[caller id, callee id]` pairs.
    pub edges: Vec<(u32, u32)>,
}

impl GraphReport {
    /// Renders the graph plus reachability marks into the serializable
    /// document. `paths[f]` is the workspace-relative path of file `f`.
    pub fn new(graph: &CallGraph, reach: &Reachability, paths: &[String]) -> GraphReport {
        let mut nodes = Vec::with_capacity(graph.nodes.len());
        let mut edges = Vec::new();
        for gid in 0..graph.nodes.len() as u32 {
            let item = graph.item(gid);
            let file = graph.nodes[gid as usize].file;
            nodes.push(GraphNode {
                id: gid,
                name: item.qualified(),
                file: paths[file].clone(),
                line: item.line,
                hot: reach.hot[gid as usize],
                cold_cut: reach.cold_cut[gid as usize],
                entry: reach.hot[gid as usize] && reach.parent[gid as usize].is_none(),
                via: reach.chain(graph, gid),
            });
            for &callee in &graph.callees[gid as usize] {
                edges.push((gid, callee));
            }
        }
        GraphReport {
            schema: "koc-callgraph/1".to_string(),
            entry_points: reach.entry_specs.clone(),
            hot_fns: reach.hot_count(),
            cold_cuts: reach.cold_cut.iter().filter(|&&c| c).count(),
            nodes,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileScan;

    fn setup(src: &str, entries: &[&str], cold: &[&str]) -> (CallGraph, Reachability) {
        let scans = vec![FileScan::new("crates/sim/src/x.rs".into(), src)];
        let graph = CallGraph::build(&scans);
        let entries: Vec<String> = entries.iter().map(|s| s.to_string()).collect();
        let cold: Vec<String> = cold.iter().map(|s| s.to_string()).collect();
        let reach = Reachability::compute(&graph, &entries, &cold);
        (graph, reach)
    }

    fn id_of(g: &CallGraph, name: &str) -> u32 {
        (0..g.nodes.len() as u32)
            .find(|&id| g.item(id).qualified() == name || g.item(id).name == name)
            .unwrap()
    }

    #[test]
    fn hot_propagates_through_calls_and_stops_at_cold_fns() {
        let (g, r) = setup(
            "struct P;\nimpl P {\n fn cycle(&mut self) { self.helper(); self.grow(); }\n \
             fn helper(&self) { deep(); }\n fn grow(&mut self) { only_via_grow(); }\n}\n\
             fn deep() {}\nfn only_via_grow() {}\n",
            &["P::cycle"],
            &["grow"],
        );
        assert!(r.hot[id_of(&g, "P::cycle") as usize]);
        assert!(r.hot[id_of(&g, "P::helper") as usize]);
        assert!(r.hot[id_of(&g, "deep") as usize]);
        assert!(r.cold_cut[id_of(&g, "P::grow") as usize]);
        assert!(!r.hot[id_of(&g, "only_via_grow") as usize]);
    }

    #[test]
    fn qualified_cold_fns_cut_only_that_type() {
        let (g, r) = setup(
            "struct A;\nstruct B;\n\
             impl A { fn go(&self) { self.push(1); } fn push(&self, _x: u64) {} }\n\
             impl B { fn push(&self, _x: u64) { b_helper(); } }\n\
             fn b_helper() {}\n\
             fn entry(a: &A, b: &B) { a.go(); b.push(2); }\n",
            &["entry"],
            &["B::push"],
        );
        assert!(r.hot[id_of(&g, "A::push") as usize]);
        assert!(r.cold_cut[id_of(&g, "B::push") as usize]);
        assert!(!r.hot[id_of(&g, "b_helper") as usize]);
    }

    #[test]
    fn recursion_terminates_and_chains_name_the_entry() {
        let (g, r) = setup(
            "fn spin(n: u64) { if n > 0 { spin(n - 1); leaf(); } }\nfn leaf() {}\n",
            &["spin"],
            &[],
        );
        let leaf = id_of(&g, "leaf");
        assert!(r.hot[leaf as usize]);
        assert_eq!(r.chain(&g, leaf).unwrap(), "spin → leaf");
        // The recursive seed's chain is just the entry spec.
        assert_eq!(r.chain(&g, id_of(&g, "spin")).unwrap(), "spin");
    }

    #[test]
    fn unresolved_entries_are_reported() {
        let (_, r) = setup("fn f() {}\n", &["f", "Ghost::cycle"], &[]);
        assert_eq!(r.unresolved, ["Ghost::cycle"]);
    }

    #[test]
    fn graph_report_serializes_with_marks() {
        let (g, r) = setup("fn a() { b(); }\nfn b() {}\n", &["a"], &[]);
        let report = GraphReport::new(&g, &r, &["crates/sim/src/x.rs".to_string()]);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"koc-callgraph/1\""), "{json}");
        assert!(json.contains("\"hot\":true"), "{json}");
        assert!(json.contains("\"via\":\"a → b\""), "{json}");
        assert_eq!(report.hot_fns, 2);
        assert_eq!(report.edges, [(0, 1)]);
    }
}
