//! Name-based call graph over every non-test `fn` in the workspace.
//!
//! The graph is deliberately an over-approximation built without type
//! resolution: a call edge is any `name(..)` or `.name(..)` token
//! sequence whose name matches a workspace-defined function, with all
//! same-named definitions merged into one node. Universal method names
//! (`new`, `clone`, `push`, ...) are excluded from edge resolution —
//! they would connect everything to everything — so hot-path coverage
//! of such methods relies on marking the definition itself (as the
//! reorder buffer does) rather than on traversal.
//! `cold`-marked definitions are neither scanned nor traversed, which
//! is how acknowledged slow paths (cache rebuilds, online-update
//! absorption) are fenced off from the hot set.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lint::{matching_close, Diagnostic};
use crate::passes::directives::DirectiveKind;
use crate::passes::Workspace;

/// Method/function names too universal to resolve into call edges.
const STOPLIST: [&str; 48] = [
    // `load`/`store` are atomic-cell accessors on every hot path; without
    // stoplisting them, any workspace fn of the same name would merge into
    // the traversal.
    "load",
    "store",
    "new",
    "default",
    "clone",
    "from",
    "into",
    "fmt",
    "drop",
    "eq",
    "ne",
    "hash",
    "cmp",
    "partial_cmp",
    "next",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "iter",
    "iter_mut",
    "as_ref",
    "as_mut",
    "as_slice",
    "send",
    "recv",
    "join",
    "lock",
    "read",
    "write",
    "take",
    "wait",
    "extend",
    "contains",
    "min",
    "max",
    "abs",
    "sqrt",
    "map",
    "filter",
    "parse",
    "at",
    "with_capacity",
];

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token span of the body braces `(open, close)`.
    pub body: (usize, usize),
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Marked `// xtask: cold` — excluded from scan and traversal.
    pub cold: bool,
    /// Marked `// xtask: hot-path` — a reachability seed.
    pub hot_seed: bool,
}

/// The merged-by-name call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every non-test definition found, in file/token order.
    pub defs: Vec<FnDef>,
    calls: BTreeMap<String, BTreeSet<String>>,
    /// Callees per definition (aligned with `defs`; empty for cold
    /// defs). Seeds traverse *their own* callees rather than the
    /// name-merged node, so marking one `push` hot does not pull every
    /// same-named method in the workspace into the hot set.
    def_callees: Vec<BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the graph and attaches `hot-path`/`cold` directives,
    /// reporting markers that precede no function as `bad-directive`.
    #[must_use]
    pub fn build(ws: &Workspace, diags: &mut Vec<Diagnostic>) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.is_test_file {
                continue;
            }
            collect_defs(ws, file_idx, &mut graph.defs);
        }
        attach_markers(ws, &mut graph.defs, diags);
        let names: BTreeSet<String> = graph.defs.iter().map(|d| d.name.clone()).collect();
        for def in &graph.defs {
            let mut callees = BTreeSet::new();
            if !def.cold {
                let toks = &ws.files[def.file].toks;
                let in_test = &ws.files[def.file].in_test;
                for i in def.body.0 + 1..def.body.1 {
                    if in_test[i] {
                        continue;
                    }
                    let t = &toks[i];
                    if t.kind != crate::lexer::TokKind::Ident
                        || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                        || toks
                            .get(i.wrapping_sub(1))
                            .is_some_and(|p| p.is_ident("fn"))
                    {
                        continue;
                    }
                    let name = t.text.as_str();
                    if names.contains(name) && !STOPLIST.contains(&name) && name != def.name {
                        callees.insert(name.to_string());
                    }
                }
                graph
                    .calls
                    .entry(def.name.clone())
                    .or_default()
                    .extend(callees.iter().cloned());
            }
            graph.def_callees.push(callees);
        }
        graph
    }

    /// Names reachable from the hot-path seeds, each with its call path
    /// (`seed -> ... -> name`) for diagnostic context.
    ///
    /// Seed names themselves are NOT inserted: a seed definition is
    /// scanned via its `hot_seed` flag, and only its own callees enter
    /// the frontier. Past that first hop, traversal is name-merged.
    #[must_use]
    pub fn reachable(&self) -> BTreeMap<String, Vec<String>> {
        let mut paths: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for (idx, def) in self.defs.iter().enumerate() {
            if !def.hot_seed {
                continue;
            }
            for callee in &self.def_callees[idx] {
                if !paths.contains_key(callee) {
                    paths.insert(callee.clone(), vec![def.name.clone(), callee.clone()]);
                    queue.push_back(callee.clone());
                }
            }
        }
        while let Some(name) = queue.pop_front() {
            let Some(callees) = self.calls.get(&name) else {
                continue;
            };
            let base = paths.get(&name).cloned().unwrap_or_default();
            for callee in callees {
                if !paths.contains_key(callee) {
                    let mut path = base.clone();
                    path.push(callee.clone());
                    paths.insert(callee.clone(), path);
                    queue.push_back(callee.clone());
                }
            }
        }
        paths
    }

    /// Index into [`CallGraph::defs`] of the first definition in `file`
    /// at or after `line` (how line-anchored directives find their
    /// function).
    #[must_use]
    pub fn def_at_or_after(&self, file: usize, line: u32) -> Option<usize> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.file == file && d.line >= line)
            .min_by_key(|(_, d)| (d.line, d.fn_tok))
            .map(|(i, _)| i)
    }
}

fn collect_defs(ws: &Workspace, file_idx: usize, out: &mut Vec<FnDef>) {
    let file = &ws.files[file_idx];
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test[i] || !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != crate::lexer::TokKind::Ident {
            continue; // `fn(..)` pointer type, not a definition
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            continue; // trait method declaration without a body
        }
        let Some(close) = matching_close(toks, j, '{', '}') else {
            continue;
        };
        out.push(FnDef {
            name: name_tok.text.clone(),
            file: file_idx,
            fn_tok: i,
            body: (j, close),
            line: toks[i].line,
            cold: false,
            hot_seed: false,
        });
    }
}

fn attach_markers(ws: &Workspace, defs: &mut [FnDef], diags: &mut Vec<Diagnostic>) {
    for (file_idx, file) in ws.files.iter().enumerate() {
        for d in &file.directives {
            let (is_hot, label) = match d.kind {
                DirectiveKind::HotPath => (true, "hot-path"),
                DirectiveKind::Cold => (false, "cold"),
                _ => continue,
            };
            let target = defs
                .iter_mut()
                .filter(|f| f.file == file_idx && f.line >= d.line)
                .min_by_key(|f| (f.line, f.fn_tok));
            if let Some(def) = target {
                if is_hot {
                    def.hot_seed = true;
                } else {
                    def.cold = true;
                }
            } else {
                diags.push(Diagnostic::at(
                    &file.rel,
                    d.line,
                    1,
                    "bad-directive",
                    format!("`{label}` directive precedes no function definition"),
                ));
            }
        }
    }
}
