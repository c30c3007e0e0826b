//! Workspace call graph + the three dataflow rules.
//!
//! Built on [`crate::parse`] (items) and [`crate::ir`] (per-fn
//! summaries): symbol resolution good enough for free functions and
//! inherent methods, an interprocedural taint fixed point for
//! `tainted-alloc`, BFS reachability for `determinism-reachability`, and
//! step-ordered guard liveness for `lock-across-pool`. Soundness limits
//! are documented in DESIGN.md §3h.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::ir::{self, Call, Expr, FnSummary, StepKind};
use crate::lexer::{lex, Lexed};
use crate::parse::{self, ParsedFile};
use crate::rules::{self, Suppressions, DET_REACH, LOCK_POOL, TAINTED_ALLOC};
use crate::Finding;

/// Everything the workspace pass needs about one file, produced once per
/// file (in parallel) by [`analyze_file`].
pub struct FileAnalysis {
    /// Repo-relative `/`-separated path.
    pub rel: String,
    /// Token stream.
    pub lexed: Lexed,
    /// Parsed `fn` items.
    pub parsed: ParsedFile,
    /// First `#[cfg(test)]` line (`u32::MAX` when absent).
    pub test_boundary: u32,
    /// Parsed `ds-lint: allow` comments.
    pub suppressions: Suppressions,
    /// Identifiers bound to hash-ordered collections in this file.
    pub hash_names: Vec<String>,
    /// Token-rule findings, suppressions already applied, sorted.
    pub findings: Vec<Finding>,
}

/// Lexes, parses, and token-lints one file. This is the per-file unit of
/// the parallel scan; everything downstream (the graph pass) is serial.
pub fn analyze_file(rel: &str, src: &str, cfg: &Config) -> FileAnalysis {
    let lexed = lex(src);
    let test_boundary = rules::find_test_boundary(&lexed);
    let suppressions = rules::collect_suppressions(&lexed, test_boundary);
    let findings = rules::check_lexed(rel, &lexed, cfg, &suppressions, test_boundary);
    let parsed = parse::parse_items(&lexed);
    let hash_names = rules::hash_idents(&lexed.toks);
    FileAnalysis {
        rel: rel.to_string(),
        lexed,
        parsed,
        test_boundary,
        suppressions,
        hash_names,
        findings,
    }
}

/// Default taint sources: decode-side reads whose result an attacker
/// controls. Extended per-config via `[rule.tainted-alloc] sources`.
const DEFAULT_SOURCES: &[&str] = &[
    "read_varint",
    "read_varint_usize",
    "read_varint_u32",
    "read_u16",
    "read_u32",
    "read_u64",
    "from_le_bytes",
    "from_be_bytes",
];

/// Default entry-point name prefixes for determinism reachability.
/// Overridden per-config via `[rule.determinism-reachability] entries`.
const DEFAULT_ENTRIES: &[&str] = &["compress", "encode", "write_"];

/// Methods that bound their receiver: the result is no longer
/// attacker-controlled beyond the bound.
const SANITIZERS: &[&str] = &["min", "clamp"];

/// Methods whose result is derived from *actual* (already materialized)
/// state, not the untrusted input value: lengths of real buffers, checked
/// lookups. These scrub taint.
const CLEAN_METHODS: &[&str] = &[
    "len",
    "capacity",
    "is_empty",
    "get",
    "get_mut",
    "position",
    "remaining",
    "count",
];

/// `ds_exec` fan-out entry points (holding a lock across one deadlocks
/// the fixed-size pool).
const POOL_FNS: &[&str] = &[
    "parallel_for",
    "parallel_map",
    "parallel_for_chunks",
    "parallel_map_chunks",
    "parallel_map_consume",
    "parallel_chunks_mut",
];

/// Blocking I/O calls (holding a lock across one stalls every other
/// connection/task contending for it).
const BLOCKING_IO: &[&str] = &[
    "write_all",
    "flush",
    "read_exact",
    "read_exact_at",
    "read_to_end",
    "read_to_string",
    "read_line",
    "accept",
];

/// Taint bit for "derived from a source call in *this* function". Param
/// bits are `1 << i` for parameter `i` (capped at 32 params).
const LOCAL: u64 = 1 << 63;
/// Mask covering every parameter bit.
const PARAM_BITS: u64 = (1 << 32) - 1;

/// Per-function interprocedural taint summary (the fixed-point lattice
/// element; all-zero bottom, bits only ever get added).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaintSummary {
    /// Return value derives from this fn's own source calls.
    ret_local: bool,
    /// Param bits that flow to the return value unsanitized.
    ret_param: u64,
    /// Param bits that reach an allocation sink unsanitized.
    sink_params: u64,
}

/// One function in the workspace graph.
struct FnInfo {
    /// Index into the `files` slice.
    file: usize,
    /// Bare name.
    name: String,
    /// Inherent-impl self type, if any.
    self_type: Option<String>,
    /// Crate directory name (`codec` for `crates/codec/src/...`).
    krate: String,
    /// First bound name of each parameter (`self` included).
    params: Vec<String>,
    /// Flattened return-type text (guard detection looks for
    /// `MutexGuard`).
    ret_text: String,
    /// Body summary.
    summary: FnSummary,
}

/// The resolved workspace: functions plus name indexes.
pub struct Workspace<'a> {
    files: &'a [FileAnalysis],
    fns: Vec<FnInfo>,
    /// Bare name → fn indexes (all fns).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (crate, name) → free-fn indexes.
    free_fns: BTreeMap<(String, String), Vec<usize>>,
    /// (self type, name) → method indexes.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Resolved call edges per fn (deduped, deterministic order).
    edges: Vec<Vec<usize>>,
    sources: BTreeSet<String>,
    entry_prefixes: Vec<String>,
}

/// Crate directory name of a repo-relative path (`crates/<name>/...` →
/// `<name>`; otherwise the first component).
fn crate_of(rel: &str) -> String {
    let mut segs = rel.split('/');
    match (segs.next(), segs.next()) {
        (Some("crates"), Some(k)) => k.to_string(),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

impl<'a> Workspace<'a> {
    /// Builds the graph over every non-test fn in `files`.
    pub fn build(files: &'a [FileAnalysis], cfg: &Config) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (fi, fa) in files.iter().enumerate() {
            let krate = crate_of(&fa.rel);
            for def in &fa.parsed.fns {
                if def.line >= fa.test_boundary {
                    continue; // test code is exempt from the contracts
                }
                let summary = ir::summarize(&fa.lexed.toks, def.body.clone(), &fa.hash_names);
                fns.push(FnInfo {
                    file: fi,
                    name: def.name.clone(),
                    self_type: def.self_type.clone(),
                    krate: krate.clone(),
                    params: def
                        .params
                        .iter()
                        .map(|p| p.names.first().cloned().unwrap_or_else(|| "_".to_string()))
                        .collect(),
                    ret_text: def.ret_text.clone(),
                    summary,
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            match &f.self_type {
                Some(ty) => methods
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(i),
                None => free_fns
                    .entry((f.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(i),
            }
        }
        let mut sources: BTreeSet<String> = DEFAULT_SOURCES.iter().map(|s| s.to_string()).collect();
        let mut entry_prefixes: Vec<String> =
            DEFAULT_ENTRIES.iter().map(|s| s.to_string()).collect();
        if let Some(rc) = cfg.rules.get(TAINTED_ALLOC) {
            sources.extend(rc.sources.iter().cloned());
        }
        if let Some(rc) = cfg.rules.get(DET_REACH) {
            if !rc.entries.is_empty() {
                entry_prefixes = rc.entries.clone();
            }
        }
        let mut ws = Workspace {
            files,
            fns,
            by_name,
            free_fns,
            methods,
            edges: Vec::new(),
            sources,
            entry_prefixes,
        };
        ws.edges = ws.build_edges();
        ws
    }

    fn build_edges(&self) -> Vec<Vec<usize>> {
        let mut edges = Vec::with_capacity(self.fns.len());
        for (i, f) in self.fns.iter().enumerate() {
            let mut out = Vec::new();
            f.summary.walk_calls(&mut |c| {
                if let Some(t) = self.resolve(i, c) {
                    out.push(t);
                }
            });
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        edges
    }

    /// Picks the unique candidate, preferring the caller's crate on ties.
    fn pick(&self, cands: Option<&Vec<usize>>, caller_crate: &str) -> Option<usize> {
        let cands = cands?;
        if cands.len() == 1 {
            return Some(cands[0]);
        }
        let same: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].krate == caller_crate)
            .collect();
        if same.len() == 1 {
            return Some(same[0]);
        }
        None
    }

    /// Resolves a call site to a workspace fn, or `None` for externals
    /// and ambiguities.
    fn resolve(&self, caller: usize, call: &Call) -> Option<usize> {
        if call.is_macro {
            return None;
        }
        let name = call.name();
        let kr = &self.fns[caller].krate;
        if call.is_method {
            // Inherent method: unique by name (workspace-wide, then
            // caller's crate). Receiver types are not inferred.
            let cands = self.by_name.get(name)?;
            let methodic: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].self_type.is_some())
                .collect();
            return self.pick(Some(&methodic), kr);
        }
        match call.path.len() {
            0 => None,
            // `let run = ..; run(i)` calls through a local (a closure or
            // fn pointer), whatever workspace fn happens to share the name.
            1 if self.binds_locally(caller, name) => None,
            1 => self
                .pick(self.free_fns.get(&(kr.clone(), name.to_string())), kr)
                .or_else(|| {
                    let cands = self.by_name.get(name)?;
                    if cands.len() == 1 {
                        Some(cands[0])
                    } else {
                        None
                    }
                }),
            _ => {
                let head = call.path[0].as_str();
                let qual = call.path[call.path.len() - 2].as_str();
                if matches!(head, "crate" | "self" | "super") {
                    return self.pick(self.free_fns.get(&(kr.clone(), name.to_string())), kr);
                }
                if let Some(dep) = head.strip_prefix("ds_") {
                    return self.pick(self.free_fns.get(&(dep.to_string(), name.to_string())), kr);
                }
                if qual.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    // `Type::assoc_fn` — inherent impls only.
                    return self.pick(self.methods.get(&(qual.to_string(), name.to_string())), kr);
                }
                // `module::fn` within the caller's crate.
                self.pick(self.free_fns.get(&(kr.clone(), name.to_string())), kr)
            }
        }
    }

    /// True when fn `i` binds `name` itself, as a parameter or by `let`.
    fn binds_locally(&self, i: usize, name: &str) -> bool {
        let f = &self.fns[i];
        f.params.iter().any(|p| p == name)
            || f.summary.steps.iter().any(|s| {
                matches!(&s.kind, StepKind::Assign { names, .. } if names.iter().any(|n| n == name))
            })
    }

    /// True when the dataflow rule applies to fn `i`'s file.
    fn applies(&self, cfg: &Config, rule: &str, i: usize) -> bool {
        cfg.rule_applies(rule, &self.files[self.fns[i].file].rel)
    }

    fn finding(&self, i: usize, line: u32, col: u32, rule: &'static str, msg: String) -> Finding {
        Finding {
            file: self.files[self.fns[i].file].rel.clone(),
            line,
            col,
            rule,
            message: msg,
        }
    }

    // -----------------------------------------------------------------
    // tainted-alloc
    // -----------------------------------------------------------------

    /// Runs the interprocedural taint analysis; findings are reported in
    /// the function where the taint *originates* (at the sink, or at the
    /// call that feeds a sinking parameter).
    fn check_tainted_alloc(&self, cfg: &Config, out: &mut Vec<Finding>) {
        let mut summaries = vec![TaintSummary::default(); self.fns.len()];
        // Kleene iteration from bottom: summaries only grow, so this
        // converges; the cap is a safety net for resolution oddities.
        for _ in 0..20 {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let s = self.eval_taint(i, &summaries, None);
                if s != summaries[i] {
                    summaries[i] = s;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for i in 0..self.fns.len() {
            if !self.applies(cfg, TAINTED_ALLOC, i) {
                continue;
            }
            let mut local = Vec::new();
            self.eval_taint(i, &summaries, Some(&mut local));
            out.append(&mut local);
        }
    }

    /// One abstract interpretation of fn `i`'s body. With `findings`
    /// present, emits a finding wherever LOCAL taint reaches a sink.
    fn eval_taint(
        &self,
        i: usize,
        summaries: &[TaintSummary],
        mut findings: Option<&mut Vec<Finding>>,
    ) -> TaintSummary {
        let f = &self.fns[i];
        let mut taint: BTreeMap<String, u64> = BTreeMap::new();
        let mut alias: BTreeMap<String, String> = BTreeMap::new();
        for (pi, pname) in f.params.iter().enumerate().take(32) {
            taint.insert(pname.clone(), 1 << pi);
        }
        let mut sum = TaintSummary::default();
        for step in &f.summary.steps {
            match &step.kind {
                StepKind::Assign { names, expr } => {
                    let m = self.expr_mask(i, expr, summaries, &taint, &mut sum, &mut findings);
                    if m != 0 {
                        for n in names {
                            taint.insert(n.clone(), m);
                        }
                        if expr.calls.is_empty() && expr.idents.len() == 1 {
                            if let Some(n) = names.first() {
                                alias.insert(n.clone(), expr.idents[0].clone());
                            }
                        }
                    } else {
                        for n in names {
                            taint.remove(n);
                            alias.remove(n);
                        }
                    }
                }
                StepKind::Cond { idents } => {
                    for id in idents {
                        taint.remove(id);
                        if let Some(orig) = alias.get(id) {
                            taint.remove(&orig.clone());
                        }
                        let origins: Vec<String> = alias
                            .iter()
                            .filter(|(_, v)| *v == id)
                            .map(|(k, _)| k.clone())
                            .collect();
                        for k in origins {
                            taint.remove(&k);
                        }
                    }
                }
                StepKind::Stmt { expr } => {
                    self.expr_mask(i, expr, summaries, &taint, &mut sum, &mut findings);
                }
                StepKind::Return { expr } => {
                    let m = self.expr_mask(i, expr, summaries, &taint, &mut sum, &mut findings);
                    sum.ret_local |= m & LOCAL != 0;
                    sum.ret_param |= m & PARAM_BITS;
                }
                StepKind::Drop { .. } | StepKind::Open | StepKind::Close => {}
            }
        }
        sum
    }

    /// Taint mask of an expression; emits sink findings along the way.
    fn expr_mask(
        &self,
        i: usize,
        expr: &Expr,
        summaries: &[TaintSummary],
        taint: &BTreeMap<String, u64>,
        sum: &mut TaintSummary,
        findings: &mut Option<&mut Vec<Finding>>,
    ) -> u64 {
        let mut m = 0u64;
        for id in &expr.idents {
            m |= taint.get(id).copied().unwrap_or(0);
        }
        for c in &expr.calls {
            m |= self.call_mask(i, c, summaries, taint, sum, findings);
        }
        m
    }

    /// Taint mask of a call's result.
    fn call_mask(
        &self,
        i: usize,
        call: &Call,
        summaries: &[TaintSummary],
        taint: &BTreeMap<String, u64>,
        sum: &mut TaintSummary,
        findings: &mut Option<&mut Vec<Finding>>,
    ) -> u64 {
        let arg_masks: Vec<u64> = call
            .args
            .iter()
            .map(|a| self.expr_mask(i, a, summaries, taint, sum, findings))
            .collect();
        let recv_mask: u64 = call
            .receiver
            .iter()
            .map(|r| taint.get(r).copied().unwrap_or(0))
            .fold(0, |a, b| a | b);
        let name = call.name();

        if call.is_method && SANITIZERS.contains(&name) {
            return 0; // `.min(bound)` / `.clamp(..)` cap the value
        }
        if call.is_method && CLEAN_METHODS.contains(&name) {
            return 0; // lengths/lookups of materialized state
        }
        if self.sources.contains(name) {
            return LOCAL;
        }
        // Allocation sinks, by shape.
        let sink_arg = if call.is_macro && name == "vec" && call.args.len() == 2 {
            Some((1usize, "vec![_; n]"))
        } else if name == "with_capacity" && !call.args.is_empty() {
            Some((0, "with_capacity"))
        } else if call.is_method
            && (name == "reserve" || name == "reserve_exact")
            && call.args.len() == 1
        {
            Some((0, "reserve"))
        } else if call.is_method && name == "take" && call.args.len() == 1 {
            Some((0, "take"))
        } else {
            None
        };
        if let Some((idx, what)) = sink_arg {
            let am = arg_masks.get(idx).copied().unwrap_or(0);
            if am & LOCAL != 0 {
                if let Some(out) = findings.as_deref_mut() {
                    out.push(self.finding(
                        i,
                        call.line,
                        call.col,
                        TAINTED_ALLOC,
                        format!(
                            "decode-derived length reaches `{what}` without a bounds check \
                             (MAX_DECODE_ELEMS / .min / comparison)"
                        ),
                    ));
                }
            }
            sum.sink_params |= am & PARAM_BITS;
            return 0; // an allocation's value is not itself a length
        }
        // Workspace-resolved call: apply the callee's summary.
        if let Some(t) = self.resolve(i, call) {
            let cs = summaries[t];
            let callee = &self.fns[t];
            let offset =
                usize::from(call.is_method && callee.params.first().is_some_and(|p| p == "self"));
            let mut result = if cs.ret_local { LOCAL } else { 0 };
            if offset == 1 && cs.ret_param & 1 != 0 {
                result |= recv_mask;
            }
            let mut check = |pidx: usize, am: u64| {
                if pidx >= 32 {
                    return;
                }
                if cs.sink_params & (1 << pidx) != 0 {
                    if am & LOCAL != 0 {
                        if let Some(out) = findings.as_deref_mut() {
                            let pname = callee.params.get(pidx).map(String::as_str).unwrap_or("_");
                            out.push(self.finding(
                                i,
                                call.line,
                                call.col,
                                TAINTED_ALLOC,
                                format!(
                                    "decode-derived value flows into `{pname}` of `{}`, which \
                                     reaches an allocation sink without a bounds check",
                                    callee.name
                                ),
                            ));
                        }
                    }
                    sum.sink_params |= am & PARAM_BITS;
                }
            };
            if offset == 1 {
                check(0, recv_mask);
            }
            for (j, &am) in arg_masks.iter().enumerate() {
                let pidx = j + offset;
                check(pidx, am);
                if pidx < 32 && cs.ret_param & (1 << pidx) != 0 {
                    result |= am;
                }
            }
            return result;
        }
        // Unknown external: value-preserving by default (checked_add,
        // saturating_mul, Ok/Some wrappers, try_from all propagate).
        let args = arg_masks.iter().fold(0, |a, b| a | b);
        if call.is_method {
            args | recv_mask
        } else {
            args
        }
    }

    // -----------------------------------------------------------------
    // determinism-reachability
    // -----------------------------------------------------------------

    /// BFS from entry fns; every reached fn's violations are findings.
    fn check_det_reach(&self, cfg: &Config, out: &mut Vec<Finding>) {
        let mut entries: Vec<usize> = (0..self.fns.len())
            .filter(|&i| self.applies(cfg, DET_REACH, i))
            .filter(|&i| {
                self.entry_prefixes
                    .iter()
                    .any(|p| self.fns[i].name.starts_with(p.as_str()))
            })
            .collect();
        entries.sort_unstable();
        let mut entry_of: BTreeMap<usize, usize> = BTreeMap::new();
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in &entries {
            if let std::collections::btree_map::Entry::Vacant(slot) = entry_of.entry(e) {
                slot.insert(e);
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                // Excluded files (the obs clock quarantine) are neither
                // reported nor traversed.
                if !self.applies(cfg, DET_REACH, v) {
                    continue;
                }
                if !entry_of.contains_key(&v) {
                    entry_of.insert(v, entry_of[&u]);
                    pred.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        let mut seen: BTreeSet<(usize, u32, u32, String)> = BTreeSet::new();
        for (&i, &entry) in &entry_of {
            for v in &self.fns[i].summary.violations {
                let key = (self.fns[i].file, v.line, v.col, v.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let via = self.bfs_path(i, &pred);
                let route = if via.is_empty() {
                    String::new()
                } else {
                    format!(" via {via}")
                };
                out.push(self.finding(
                    i,
                    v.line,
                    v.col,
                    DET_REACH,
                    format!(
                        "{} in `{}`, reachable from archive entry `{}`{route}",
                        v.what, self.fns[i].name, self.fns[entry].name
                    ),
                ));
            }
        }
    }

    /// Call chain from the entry down to `i` (at most 4 hops shown).
    fn bfs_path(&self, i: usize, pred: &BTreeMap<usize, usize>) -> String {
        let mut chain = Vec::new();
        let mut cur = i;
        while let Some(&p) = pred.get(&cur) {
            chain.push(self.fns[p].name.clone());
            cur = p;
            if chain.len() >= 4 {
                chain.push("...".to_string());
                break;
            }
        }
        chain.reverse();
        chain.join(" -> ")
    }

    // -----------------------------------------------------------------
    // lock-across-pool
    // -----------------------------------------------------------------

    /// Transitive closure of a direct per-fn predicate over call edges.
    fn closure(&self, direct: impl Fn(&Call) -> bool) -> Vec<bool> {
        let mut flag = vec![false; self.fns.len()];
        for (i, f) in self.fns.iter().enumerate() {
            f.summary.walk_calls(&mut |c| {
                if direct(c) {
                    flag[i] = true;
                }
            });
        }
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if flag[i] {
                    continue;
                }
                if self.edges[i].iter().any(|&t| flag[t]) {
                    flag[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        flag
    }

    /// True when the call produces a `MutexGuard`: `.lock()` by name, or
    /// a resolved helper whose return type mentions `MutexGuard` (the
    /// `ShardCache::lock` poison-immune wrapper).
    fn is_guard_producer(&self, caller: usize, call: &Call) -> bool {
        if call.name() == "lock" {
            return true;
        }
        self.resolve(caller, call)
            .is_some_and(|t| self.fns[t].ret_text.contains("MutexGuard"))
    }

    /// Walks each body in step order tracking live guards.
    fn check_lock_pool(&self, cfg: &Config, out: &mut Vec<Finding>) {
        let pool = self.closure(|c| POOL_FNS.contains(&c.name()));
        let blocking = self.closure(|c| BLOCKING_IO.contains(&c.name()));
        for i in 0..self.fns.len() {
            if !self.applies(cfg, LOCK_POOL, i) {
                continue;
            }
            let f = &self.fns[i];
            // Live guards: (binding name, binding depth).
            let mut guards: Vec<(String, u32)> = Vec::new();
            for step in &f.summary.steps {
                let expr = match &step.kind {
                    StepKind::Assign { expr, .. }
                    | StepKind::Stmt { expr }
                    | StepKind::Return { expr } => Some(expr),
                    StepKind::Drop { name } => {
                        guards.retain(|(g, _)| g != name);
                        None
                    }
                    StepKind::Close => {
                        guards.retain(|(_, d)| step.depth > *d);
                        None
                    }
                    _ => None,
                };
                let Some(expr) = expr else { continue };
                if !guards.is_empty() {
                    expr.walk_calls(&mut |c| {
                        let hazard = if POOL_FNS.contains(&c.name())
                            || self.resolve(i, c).is_some_and(|t| pool[t])
                        {
                            Some("a ds_exec fan-out")
                        } else if BLOCKING_IO.contains(&c.name())
                            || self.resolve(i, c).is_some_and(|t| blocking[t])
                        {
                            Some("blocking I/O")
                        } else {
                            None
                        };
                        if let Some(what) = hazard {
                            let g = &guards[0].0;
                            out.push(self.finding(
                                i,
                                c.line,
                                c.col,
                                LOCK_POOL,
                                format!(
                                    "MutexGuard `{g}` is live across {what} call `{}`; \
                                     drop the guard first",
                                    c.name()
                                ),
                            ));
                        }
                    });
                }
                // Bind new guards after checking the statement itself.
                if let StepKind::Assign { names, expr } = &step.kind {
                    let mut produces = false;
                    expr.walk_calls(&mut |c| {
                        if self.is_guard_producer(i, c) {
                            produces = true;
                        }
                    });
                    if produces {
                        if let Some(n) = names.first() {
                            guards.push((n.clone(), step.depth));
                        }
                    }
                }
            }
        }
    }
}

/// Runs the three dataflow rules over the analyzed workspace. Findings
/// come back filtered by per-file suppressions (test-code fns were never
/// entered), unsorted — the caller merges and sorts globally.
pub fn check_workspace(files: &[FileAnalysis], cfg: &Config) -> Vec<Finding> {
    let ws = Workspace::build(files, cfg);
    let mut out = Vec::new();
    ws.check_tainted_alloc(cfg, &mut out);
    ws.check_det_reach(cfg, &mut out);
    ws.check_lock_pool(cfg, &mut out);
    let by_rel: BTreeMap<&str, &FileAnalysis> =
        files.iter().map(|fa| (fa.rel.as_str(), fa)).collect();
    out.retain(|f| {
        by_rel
            .get(f.file.as_str())
            .is_none_or(|fa| !fa.suppressions.silences(f.line, f.rule))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::parse("[scan]\ninclude = [\"crates/*/src\"]\n").unwrap()
    }

    fn analyze(sources: &[(&str, &str)]) -> Vec<Finding> {
        let c = cfg();
        let files: Vec<FileAnalysis> = sources
            .iter()
            .map(|(rel, src)| analyze_file(rel, src, &c))
            .collect();
        check_workspace(&files, &c)
    }

    #[test]
    fn direct_tainted_alloc_is_flagged_and_bounded_is_not() {
        let findings = analyze(&[(
            "crates/codec/src/lib.rs",
            "impl R { fn read_varint(&mut self) -> u64 { 0 } }\n\
             fn bad(r: &mut R) -> Vec<u8> {\n\
                 let n = r.read_varint() as usize;\n\
                 Vec::with_capacity(n)\n\
             }\n\
             fn good(r: &mut R) -> Vec<u8> {\n\
                 let n = r.read_varint() as usize;\n\
                 Vec::with_capacity(n.min(1024))\n\
             }\n",
        )]);
        let taints: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == TAINTED_ALLOC)
            .map(|f| f.line)
            .collect();
        assert_eq!(taints, vec![4]);
    }

    #[test]
    fn comparison_check_sanitizes_including_aliases() {
        let findings = analyze(&[(
            "crates/codec/src/lib.rs",
            "impl R { fn read_varint(&mut self) -> u64 { 0 } }\n\
             fn ok(r: &mut R, body: usize) -> Vec<u8> {\n\
                 let n = r.read_varint() as usize;\n\
                 let n64 = n;\n\
                 if n64 > body { return Vec::new(); }\n\
                 vec![0u8; n]\n\
             }\n",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != TAINTED_ALLOC),
            "{findings:?}"
        );
    }

    #[test]
    fn taint_flows_through_helper_params_two_deep() {
        let findings = analyze(&[(
            "crates/codec/src/lib.rs",
            "impl R { fn read_varint_usize(&mut self) -> usize { 0 } }\n\
             pub fn load(r: &mut R) -> Vec<u8> {\n\
                 let manifest_len = r.read_varint_usize();\n\
                 mid(manifest_len)\n\
             }\n\
             fn mid(n: usize) -> Vec<u8> { sink(n) }\n\
             fn sink(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n",
        )]);
        let lines: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == TAINTED_ALLOC)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![4], "{findings:?}");
    }

    #[test]
    fn taint_flows_through_helper_returns() {
        let findings = analyze(&[(
            "crates/codec/src/lib.rs",
            "impl R { fn read_u32(&mut self) -> u32 { 0 } }\n\
             fn len_of(r: &mut R) -> usize { r.read_u32() as usize }\n\
             fn bad(r: &mut R) -> Vec<u8> {\n\
                 let n = len_of(r);\n\
                 Vec::with_capacity(n)\n\
             }\n",
        )]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == TAINTED_ALLOC && f.line == 5),
            "{findings:?}"
        );
    }

    #[test]
    fn det_reach_follows_calls_from_entries() {
        let findings = analyze(&[(
            "crates/codec/src/lib.rs",
            "pub fn compress_all(x: &[u8]) { helper(x); }\n\
             fn helper(_x: &[u8]) { let _t = Instant::now(); }\n\
             fn unreached() { let _t = Instant::now(); }\n",
        )]);
        let det: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == DET_REACH)
            .map(|f| f.line)
            .collect();
        assert_eq!(det, vec![2], "unreached() must stay silent: {findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.rule == DET_REACH && f.message.contains("compress_all")));
    }

    #[test]
    fn lock_across_pool_and_dropped_guard() {
        let findings = analyze(&[(
            "crates/serve/src/lib.rs",
            "fn bad(m: &Mutex<u32>) {\n\
                 let g = m.lock();\n\
                 ds_exec::parallel_for(4, |_i| {});\n\
                 drop(g);\n\
             }\n\
             fn good(m: &Mutex<u32>) {\n\
                 let g = m.lock();\n\
                 drop(g);\n\
                 ds_exec::parallel_for(4, |_i| {});\n\
             }\n",
        )]);
        let lp: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == LOCK_POOL)
            .map(|f| f.line)
            .collect();
        assert_eq!(lp, vec![3], "{findings:?}");
    }

    /// The shape of `ds_exec::Batch::execute_one` next to `ds-cli`'s
    /// `fn run`: the only workspace fn of that name, in another crate.
    #[test]
    fn call_through_a_local_binding_is_not_a_workspace_fn() {
        let findings = analyze(&[
            (
                "crates/cli/src/main.rs",
                "fn run() { ds_exec::parallel_for(4, |_i| {}); }\n",
            ),
            (
                "crates/exec/src/lib.rs",
                "fn local(m: &Mutex<u32>, task: &dyn Fn()) {\n\
                     let run = task;\n\
                     let g = m.lock();\n\
                     run();\n\
                 }\n\
                 fn param(m: &Mutex<u32>, run: &dyn Fn()) {\n\
                     let g = m.lock();\n\
                     run();\n\
                 }\n\
                 fn imported(m: &Mutex<u32>) {\n\
                     let g = m.lock();\n\
                     run();\n\
                 }\n",
            ),
        ]);
        let lp: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == LOCK_POOL)
            .map(|f| f.line)
            .collect();
        assert_eq!(lp, vec![12], "{findings:?}");
    }

    #[test]
    fn guard_scoped_by_block_does_not_flag() {
        let findings = analyze(&[(
            "crates/serve/src/lib.rs",
            "fn ok(m: &Mutex<u32>) {\n\
                 { let g = m.lock(); let _v = *g; }\n\
                 ds_exec::parallel_for(4, |_i| {});\n\
             }\n",
        )]);
        assert!(findings.iter().all(|f| f.rule != LOCK_POOL), "{findings:?}");
    }
}
