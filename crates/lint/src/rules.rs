//! The rule passes: stable-ID invariant checks over the token stream.
//!
//! Rule catalog (the README's "Static analysis" section documents the same
//! list for contributors):
//!
//! | ID   | Class        | Invariant                                               |
//! |------|--------------|---------------------------------------------------------|
//! | D001 | determinism  | no wall-clock time (`std::time::{Instant, SystemTime}`) |
//! | D002 | determinism  | no ambient randomness (`rand::`, `thread_rng`, …)       |
//! | D003 | determinism  | no seeded std hashing (`RandomState`, `DefaultHasher`)  |
//! | D004 | determinism  | no `HashMap`/`HashSet` iteration in order-sensitive code|
//! | C001 | clock        | `Pending<T>` / `Clock`-returning fns are `#[must_use]`  |
//! | C002 | clock        | no `Pending` token discarded via `let _ =` unsettled    |
//! | C003 | clock        | no ambient `Clock::new`/`starting_at` on the data path  |
//! | C004 | schedule     | no `ScheduleController` impls outside the checker seam  |
//! | L001 | layering     | imports respect the declared crate DAG                  |
//! | L002 | layering     | module-scoped bans (agent never touches blob APIs)      |
//! | E001 | errors       | no `.unwrap()` in data-path code                        |
//! | E002 | errors       | no `.expect(…)` in data-path code                       |
//! | E003 | errors       | no `panic!`/`unreachable!`/`todo!`/`unimplemented!`     |
//! | U001 | safety       | `unsafe` only in allow-listed files, under `// SAFETY:` |
//! | W001 | waivers      | every waiver carries a reason                           |
//!
//! All rules but U001 skip `#[cfg(test)]` / `#[test]` regions: the invariants
//! guard the simulated system, and test scaffolding legitimately unwraps,
//! builds ad-hoc clocks and iterates hash maps — but undefined behaviour in a
//! test is still undefined behaviour. Violations are reported at their
//! source line and can be waived inline with
//! `// scfs-lint: allow(ID, reason)` — on the offending line or the line
//! directly above it.

use std::collections::BTreeSet;

use crate::config::LintConfig;
use crate::scanner::{SourceFile, Tok};

/// One rule hit, before or after waiver matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (`D001`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The waiver reason, when an inline waiver covers this hit.
    pub waived: Option<String>,
}

/// One row of the rule catalog: what `scfs-lint list-rules` prints and what
/// the README's generated "Static analysis" table is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable rule id (`D001`, …).
    pub id: &'static str,
    /// Rule class (`determinism`, `clock`, `schedule`, `layering`,
    /// `errors`, `safety`, `waivers`).
    pub class: &'static str,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// Which non-test code the rule applies to, rendered from the active
    /// [`LintConfig`] so the catalog can never drift from the scopes the
    /// checker actually enforces.
    pub scope: String,
}

fn join_set(set: &BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join(", ")
}

/// The full rule catalog, with scopes rendered from `cfg`.
pub fn rule_catalog(cfg: &LintConfig) -> Vec<RuleInfo> {
    let order = join_set(&cfg.order_sensitive_crates);
    let errors = join_set(&cfg.error_path_crates);
    let clocks = join_set(&cfg.ambient_clock_crates);
    let sched = format!(
        "all crates except {}",
        join_set(&cfg.schedule_controller_crates)
    );
    let code_list = |items: Vec<&str>| {
        let quoted: Vec<String> = items.iter().map(|item| format!("`{item}`")).collect();
        quoted.join(", ")
    };
    let modules = code_list(cfg.module_rules.iter().map(|r| r.path_prefix).collect());
    let unsafe_scope = format!(
        "all workspace crates, tests included; allowed in {}",
        code_list(
            cfg.unsafe_allowed_files
                .iter()
                .map(String::as_str)
                .collect()
        )
    );
    let row = |id, class, summary, scope: &str| RuleInfo {
        id,
        class,
        summary,
        scope: scope.to_string(),
    };
    vec![
        row(
            "D001",
            "determinism",
            "no wall-clock time (`std::time::{Instant, SystemTime}`)",
            &order,
        ),
        row(
            "D002",
            "determinism",
            "no ambient randomness (`rand::`, `thread_rng`, …)",
            &order,
        ),
        row(
            "D003",
            "determinism",
            "no seeded std hashing (`RandomState`, `DefaultHasher`)",
            &order,
        ),
        row(
            "D004",
            "determinism",
            "no `HashMap`/`HashSet` iteration in order-sensitive code",
            &order,
        ),
        row(
            "C001",
            "clock",
            "`Pending<T>` / `Clock`-returning fns are `#[must_use]`",
            &cfg.clock_home_crate,
        ),
        row(
            "C002",
            "clock",
            "no `Pending` token discarded via `let _ =` unsettled",
            "all workspace crates",
        ),
        row(
            "C003",
            "clock",
            "no ambient `Clock::new`/`starting_at` on the data path",
            &clocks,
        ),
        row(
            "C004",
            "schedule",
            "no `ScheduleController` impls outside the checker seam",
            &sched,
        ),
        row(
            "L001",
            "layering",
            "imports respect the declared crate DAG",
            "all workspace crates",
        ),
        row(
            "L002",
            "layering",
            "module-scoped bans (agent never touches blob APIs)",
            &modules,
        ),
        row(
            "E001",
            "errors",
            "no `.unwrap()` in data-path code",
            &errors,
        ),
        row(
            "E002",
            "errors",
            "no `.expect(…)` in data-path code",
            &errors,
        ),
        row(
            "E003",
            "errors",
            "no `panic!`/`unreachable!`/`todo!`/`unimplemented!`",
            &errors,
        ),
        row(
            "U001",
            "safety",
            "`unsafe` only in the allow-listed files, each directly under a `// SAFETY:` comment",
            &unsafe_scope,
        ),
        row(
            "W001",
            "waivers",
            "every waiver carries a reason",
            "all workspace crates",
        ),
    ]
}

/// Renders the catalog as the markdown table the README embeds between its
/// `<!-- scfs-lint:rules:begin -->` / `end` markers.
pub fn catalog_markdown(cfg: &LintConfig) -> String {
    let mut out = String::new();
    out.push_str("| ID | Class | Scope (non-test code) | Invariant |\n");
    out.push_str("|----|-------|-----------------------|-----------|\n");
    for r in rule_catalog(cfg) {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.id, r.class, r.scope, r.summary
        ));
    }
    out
}

/// Runs every applicable rule over `sf` and applies inline waivers.
pub fn lint_file(sf: &SourceFile, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let order_sensitive = cfg.order_sensitive_crates.contains(&sf.crate_name);
    if order_sensitive {
        determinism_idents(sf, &mut out);
        hashmap_iteration(sf, &mut out);
    }
    if sf.crate_name == cfg.clock_home_crate {
        must_use_declarations(sf, &mut out);
    }
    dropped_pending(sf, &mut out);
    if cfg.ambient_clock_crates.contains(&sf.crate_name) {
        ambient_clock(sf, &mut out);
    }
    if !cfg.schedule_controller_crates.contains(&sf.crate_name) {
        schedule_controller_impls(sf, &mut out);
    }
    crate_dag(sf, cfg, &mut out);
    module_bans(sf, cfg, &mut out);
    if cfg.error_path_crates.contains(&sf.crate_name) {
        error_hygiene(sf, &mut out);
    }
    unsafe_confinement(sf, cfg, &mut out);
    reasonless_waivers(sf, &mut out);
    apply_waivers(sf, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn push(out: &mut Vec<Violation>, rule: &'static str, sf: &SourceFile, line: u32, message: String) {
    out.push(Violation {
        rule,
        file: sf.rel_path.clone(),
        line,
        message,
        waived: None,
    });
}

fn ident_at(sf: &SourceFile, i: usize) -> Option<&str> {
    match sf.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(sf: &SourceFile, i: usize, c: char) -> bool {
    matches!(sf.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn path_sep(sf: &SourceFile, i: usize) -> bool {
    punct_at(sf, i, ':') && punct_at(sf, i + 1, ':')
}

fn line_of(sf: &SourceFile, i: usize) -> u32 {
    sf.tokens.get(i).map(|t| t.line).unwrap_or(0)
}

// --- D001/D002/D003: forbidden identifiers -------------------------------

fn determinism_idents(sf: &SourceFile, out: &mut Vec<Violation>) {
    for i in 0..sf.tokens.len() {
        if sf.is_test(i) {
            continue;
        }
        let Some(name) = ident_at(sf, i) else {
            continue;
        };
        match name {
            "Instant" | "SystemTime" => push(
                out,
                "D001",
                sf,
                line_of(sf, i),
                format!(
                    "wall-clock `{name}` in an order-sensitive crate; thread \
                     virtual time (`sim_core::time`) instead"
                ),
            ),
            "thread_rng" | "from_entropy" => push(
                out,
                "D002",
                sf,
                line_of(sf, i),
                format!("ambient randomness `{name}`; use a seeded `sim_core::rng::DetRng`"),
            ),
            "rand" if path_sep(sf, i + 1) => push(
                out,
                "D002",
                sf,
                line_of(sf, i),
                "ambient randomness `rand::…`; use a seeded `sim_core::rng::DetRng`".to_string(),
            ),
            "RandomState" | "DefaultHasher" => push(
                out,
                "D003",
                sf,
                line_of(sf, i),
                format!(
                    "`{name}` is seeded per process; use a pinned hash \
                     (FNV-1a) or an ordered container"
                ),
            ),
            _ => {}
        }
    }
}

// --- D004: HashMap/HashSet iteration -------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Pass 1: identifiers bound to a `HashMap`/`HashSet` in this file — struct
/// fields, `let` bindings and fn params with a visible annotation, plus
/// `let x = HashMap::new()`-style initializers.
fn hashed_idents(sf: &SourceFile) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident_at(sf, i) else {
            continue;
        };
        // `name : …HashMap<…` (field, param or annotated let) — scan ahead
        // until a statement/argument boundary, looking for the type name.
        if punct_at(sf, i + 1, ':') && !path_sep(sf, i + 1) && !punct_at(sf, i, ':') {
            let mut j = i + 2;
            let mut steps = 0usize;
            while j < toks.len() && steps < 40 {
                match &toks[j].tok {
                    Tok::Punct(',')
                    | Tok::Punct(';')
                    | Tok::Punct(')')
                    | Tok::Punct('{')
                    | Tok::Punct('=') => break,
                    Tok::Ident(t) if t == "HashMap" || t == "HashSet" => {
                        tracked.insert(name.to_string());
                        break;
                    }
                    _ => {}
                }
                j += 1;
                steps += 1;
            }
        }
        // `let [mut] name = Hash{Map,Set}::…`
        if name == "let" {
            let mut j = i + 1;
            if ident_at(sf, j) == Some("mut") {
                j += 1;
            }
            if let Some(bound) = ident_at(sf, j) {
                if punct_at(sf, j + 1, '=')
                    && matches!(ident_at(sf, j + 2), Some("HashMap") | Some("HashSet"))
                    && path_sep(sf, j + 3)
                {
                    tracked.insert(bound.to_string());
                }
            }
        }
    }
    tracked
}

fn hashmap_iteration(sf: &SourceFile, out: &mut Vec<Violation>) {
    let tracked = hashed_idents(sf);
    if tracked.is_empty() {
        return;
    }
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.is_test(i) {
            continue;
        }
        // `recv.iter()` — receiver identifier directly before the dot.
        if punct_at(sf, i, '.') {
            if let (Some(recv), Some(method)) =
                (ident_at(sf, i.wrapping_sub(1)), ident_at(sf, i + 1))
            {
                if ITER_METHODS.contains(&method)
                    && punct_at(sf, i + 2, '(')
                    && tracked.contains(recv)
                {
                    push(
                        out,
                        "D004",
                        sf,
                        line_of(sf, i),
                        format!(
                            "iteration over seeded-hash container `{recv}.{method}()`; \
                             use BTreeMap/BTreeSet or sort before iterating"
                        ),
                    );
                }
            }
        }
        // `for pat in [&][mut] [self.]name {`
        if ident_at(sf, i) == Some("for") {
            let mut j = i + 1;
            let mut steps = 0usize;
            while j < toks.len() && steps < 30 && ident_at(sf, j) != Some("in") {
                if punct_at(sf, j, '{') {
                    break;
                }
                j += 1;
                steps += 1;
            }
            if ident_at(sf, j) != Some("in") {
                continue;
            }
            let mut k = j + 1;
            if punct_at(sf, k, '&') {
                k += 1;
            }
            if ident_at(sf, k) == Some("mut") {
                k += 1;
            }
            if ident_at(sf, k) == Some("self") && punct_at(sf, k + 1, '.') {
                k += 2;
            }
            if let Some(name) = ident_at(sf, k) {
                if tracked.contains(name) && punct_at(sf, k + 1, '{') {
                    push(
                        out,
                        "D004",
                        sf,
                        line_of(sf, k),
                        format!(
                            "`for … in {name}` iterates a seeded-hash container; \
                             use BTreeMap/BTreeSet or sort before iterating"
                        ),
                    );
                }
            }
        }
    }
}

// --- C001: must_use declarations ------------------------------------------

/// Looks backwards from an item keyword for a `must_use` ident within the
/// attribute window (bounded; stops at the end of the previous item).
fn has_must_use_before(sf: &SourceFile, item_idx: usize) -> bool {
    let lo = item_idx.saturating_sub(40);
    for k in (lo..item_idx).rev() {
        match &sf.tokens[k].tok {
            Tok::Ident(name) if name == "must_use" => return true,
            Tok::Punct('}') | Tok::Punct(';') => return false,
            _ => {}
        }
    }
    false
}

fn must_use_declarations(sf: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    // impl-context stack: (type name, brace depth at entry).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some((_, d)) = impl_stack.last() {
                    if depth < *d {
                        impl_stack.pop();
                    }
                }
            }
            Tok::Ident(kw) if kw == "impl" => {
                // `impl [<…>] Type {` or `impl [<…>] Trait for Type {`.
                let mut j = i + 1;
                let mut angle = 0usize;
                let mut first: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut saw_for = false;
                while j < toks.len() && !punct_at(sf, j, '{') {
                    match &toks[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle = angle.saturating_sub(1),
                        Tok::Ident(name) if angle == 0 => {
                            if name == "for" {
                                saw_for = true;
                            } else if saw_for {
                                if after_for.is_none() {
                                    after_for = Some(name.clone());
                                }
                            } else if first.is_none() && name != "dyn" {
                                first = Some(name.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let target = after_for.or(first).unwrap_or_default();
                impl_stack.push((target, depth + 1));
            }
            Tok::Ident(kw)
                if kw == "struct"
                    && ident_at(sf, i + 1) == Some("Pending")
                    && !sf.is_test(i)
                    && !has_must_use_before(sf, i.saturating_sub(1)) =>
            {
                push(
                    out,
                    "C001",
                    sf,
                    line_of(sf, i),
                    "`Pending<T>` must be `#[must_use]`: a dropped completion \
                     token is a background job nobody can wait on"
                        .to_string(),
                );
            }
            Tok::Ident(kw) if kw == "fn" && !sf.is_test(i) => {
                // Find the arg list, then the return type (if any) up to the
                // body/terminator; flag Clock-returning fns without must_use.
                let fn_idx = i;
                let name = ident_at(sf, i + 1).unwrap_or("?").to_string();
                let mut j = i + 2;
                while j < toks.len() && !punct_at(sf, j, '(') {
                    j += 1;
                }
                let mut paren = 0usize;
                while j < toks.len() {
                    if punct_at(sf, j, '(') {
                        paren += 1;
                    } else if punct_at(sf, j, ')') {
                        paren -= 1;
                        if paren == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let mut saw_arrow = false;
                let mut returns_clock = false;
                let mut k = j + 1;
                while k < toks.len() && !punct_at(sf, k, '{') && !punct_at(sf, k, ';') {
                    if punct_at(sf, k, '-') && punct_at(sf, k + 1, '>') {
                        saw_arrow = true;
                    } else if saw_arrow {
                        match ident_at(sf, k) {
                            Some("Clock") => returns_clock = true,
                            Some("Self")
                                if impl_stack.last().is_some_and(|(t, _)| t == "Clock") =>
                            {
                                returns_clock = true
                            }
                            Some("where") => break,
                            _ => {}
                        }
                    }
                    k += 1;
                }
                if returns_clock && !has_must_use_before(sf, fn_idx) {
                    push(
                        out,
                        "C001",
                        sf,
                        line_of(sf, fn_idx),
                        format!(
                            "`fn {name}` returns a `Clock` and must be `#[must_use]`: \
                             an unused fork silently serializes virtual time"
                        ),
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
}

// --- C002: discarded Pending tokens ---------------------------------------

fn dropped_pending(sf: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.is_test(i) || ident_at(sf, i) != Some("let") || ident_at(sf, i + 1) != Some("_") {
            continue;
        }
        if !punct_at(sf, i + 2, '=') {
            continue;
        }
        // Statement extent: to the `;` at brace depth 0 relative to here.
        let mut j = i + 3;
        let mut depth = 0usize;
        let mut produces_pending = false;
        let mut settled = false;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth = depth.saturating_sub(1),
                Tok::Punct(';') if depth == 0 => break,
                Tok::Ident(name) => {
                    if name.starts_with("begin_")
                        || (name == "spawn" && punct_at(sf, j.wrapping_sub(1), '.'))
                        || (name == "Pending" && path_sep(sf, j + 1))
                    {
                        produces_pending = true;
                    }
                    if name == "wait" || name == "into_inner" || name == "ready_at" {
                        settled = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if produces_pending && !settled {
            push(
                out,
                "C002",
                sf,
                line_of(sf, i),
                "`let _ =` discards a `Pending` completion token without settling \
                 it; `.wait()` it, route it onto a scheduler lane, or return it"
                    .to_string(),
            );
        }
    }
}

// --- C003: ambient clock construction -------------------------------------

fn ambient_clock(sf: &SourceFile, out: &mut Vec<Violation>) {
    for i in 0..sf.tokens.len() {
        if sf.is_test(i) {
            continue;
        }
        if ident_at(sf, i) == Some("Clock")
            && path_sep(sf, i + 1)
            && matches!(ident_at(sf, i + 3), Some("new") | Some("starting_at"))
            && punct_at(sf, i + 4, '(')
        {
            push(
                out,
                "C003",
                sf,
                line_of(sf, i),
                "ambient clock construction on the data path; public APIs \
                 touching simulated time must thread `&Clock` (fork/join via \
                 sim_core::parallel or a BackgroundScheduler lane)"
                    .to_string(),
            );
        }
    }
}

// --- C004: ScheduleController implementations ------------------------------

/// Only the seam's home crate (where the default deterministic order lives)
/// and the model checker may implement `ScheduleController` in non-test
/// code. A production impl would feed alternative schedules into the
/// simulator's dispatch points — reintroducing the nondeterminism the seam
/// exists to explore, not to ship.
fn schedule_controller_impls(sf: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if ident_at(sf, i) != Some("impl") || sf.is_test(i) {
            continue;
        }
        // Scan the impl header up to `{`; the implemented trait is the last
        // path segment before a generic-depth-0 `for`.
        let mut j = i + 1;
        let mut angle = 0usize;
        let mut last: Option<&str> = None;
        let mut trait_name: Option<&str> = None;
        while j < toks.len() && !punct_at(sf, j, '{') && !punct_at(sf, j, ';') {
            match &toks[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle = angle.saturating_sub(1),
                Tok::Ident(name) if angle == 0 => {
                    if name == "for" {
                        trait_name = last;
                        break;
                    }
                    last = Some(name.as_str());
                }
                _ => {}
            }
            j += 1;
        }
        if trait_name == Some("ScheduleController") {
            push(
                out,
                "C004",
                sf,
                line_of(sf, i),
                "`ScheduleController` may only be implemented by sim_core \
                 (the default deterministic order) and the `check` model \
                 checker; an impl here injects schedule nondeterminism into \
                 production code"
                    .to_string(),
            );
        }
    }
}

// --- L001: crate DAG -------------------------------------------------------

fn crate_dag(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Violation>) {
    let allowed = cfg.dag.get(&sf.crate_name);
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    for i in 0..sf.tokens.len() {
        if sf.is_test(i) {
            continue;
        }
        let Some(name) = ident_at(sf, i) else {
            continue;
        };
        if !path_sep(sf, i + 1) {
            continue;
        }
        if !cfg.workspace_crates.contains(name) || name == sf.crate_name {
            continue;
        }
        let ok = allowed.is_some_and(|deps| deps.contains(name));
        if !ok {
            let line = line_of(sf, i);
            if reported.insert((name.to_string(), line)) {
                push(
                    out,
                    "L001",
                    sf,
                    line,
                    format!(
                        "crate `{}` must not import `{name}` (not an edge of \
                         the declared crate DAG)",
                        sf.crate_name
                    ),
                );
            }
        }
    }
}

// --- L002: module-scoped bans ----------------------------------------------

fn module_bans(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Violation>) {
    for rule in &cfg.module_rules {
        if !sf.rel_path.starts_with(rule.path_prefix) {
            continue;
        }
        for i in 0..sf.tokens.len() {
            if sf.is_test(i) {
                continue;
            }
            if let Some(name) = ident_at(sf, i) {
                if rule.banned_idents.contains(&name) {
                    push(
                        out,
                        "L002",
                        sf,
                        line_of(sf, i),
                        format!("`{name}` is banned in {}: {}", rule.path_prefix, rule.why),
                    );
                }
            }
        }
    }
}

// --- E001/E002/E003: error hygiene -----------------------------------------

fn error_hygiene(sf: &SourceFile, out: &mut Vec<Violation>) {
    for i in 0..sf.tokens.len() {
        if sf.is_test(i) {
            continue;
        }
        let Some(name) = ident_at(sf, i) else {
            continue;
        };
        match name {
            "unwrap" if punct_at(sf, i.wrapping_sub(1), '.') && punct_at(sf, i + 1, '(') => {
                push(
                    out,
                    "E001",
                    sf,
                    line_of(sf, i),
                    "`.unwrap()` on the data path turns a recoverable fault into \
                     a panic; propagate `ScfsError`/`CoordError` instead"
                        .to_string(),
                );
            }
            "expect" if punct_at(sf, i.wrapping_sub(1), '.') && punct_at(sf, i + 1, '(') => {
                push(
                    out,
                    "E002",
                    sf,
                    line_of(sf, i),
                    "`.expect(…)` on the data path turns a recoverable fault into \
                     a panic; propagate an error or restructure the invariant"
                        .to_string(),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if punct_at(sf, i + 1, '!') => {
                push(
                    out,
                    "E003",
                    sf,
                    line_of(sf, i),
                    format!("`{name}!` on the data path; return an error instead"),
                );
            }
            _ => {}
        }
    }
}

// --- U001: unsafe confinement ------------------------------------------------

/// `unsafe` — block, fn, impl or attribute, in tests as anywhere else — may
/// be written only in the allow-listed kernel files, and there only directly
/// under the comment that says why it is sound.
fn unsafe_confinement(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Violation>) {
    let allowed = cfg.unsafe_allowed_files.contains(&sf.rel_path);
    for i in 0..sf.tokens.len() {
        if ident_at(sf, i) != Some("unsafe") {
            continue;
        }
        let line = line_of(sf, i);
        let message = if !allowed {
            "`unsafe` outside the allow-listed kernel files \
             (`LintConfig::unsafe_allowed_files`); use a safe construct, or move \
             the code behind one of those files' dispatch functions"
        } else if !sf.safety_comments.contains(&line.wrapping_sub(1)) {
            "`unsafe` without a `// SAFETY:` comment ending on the line directly \
             above it; say why the operation's requirements hold"
        } else {
            continue;
        };
        push(out, "U001", sf, line, message.to_string());
    }
}

// --- W001 + waiver application ---------------------------------------------

fn reasonless_waivers(sf: &SourceFile, out: &mut Vec<Violation>) {
    for w in &sf.waivers {
        if w.reason.is_empty() {
            push(
                out,
                "W001",
                sf,
                w.line,
                format!(
                    "waiver for {} has no reason; write \
                     `// scfs-lint: allow({}, why it is safe)`",
                    w.rule, w.rule
                ),
            );
        }
    }
}

/// Marks violations covered by a reasoned waiver on the same line or the
/// line directly above.
fn apply_waivers(sf: &SourceFile, out: &mut [Violation]) {
    for v in out.iter_mut() {
        if v.rule == "W001" {
            continue;
        }
        if let Some(w) = sf.waivers.iter().find(|w| {
            w.rule == v.rule && !w.reason.is_empty() && (w.line == v.line || w.line + 1 == v.line)
        }) {
            v.waived = Some(w.reason.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(crate_name: &str, rel_path: &str, src: &str) -> Vec<Violation> {
        let sf = SourceFile::parse(rel_path, crate_name, src);
        lint_file(&sf, &LintConfig::default())
    }

    fn active<'a>(vs: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
        vs.iter()
            .filter(|v| v.rule == rule && v.waived.is_none())
            .collect()
    }

    #[test]
    fn d001_fires_on_instant_and_not_on_sim_instant() {
        let vs = lint(
            "scfs",
            "crates/scfs/src/x.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(active(&vs, "D001").len(), 1);
        let vs = lint(
            "scfs",
            "crates/scfs/src/x.rs",
            "fn f() { let t = SimInstant::EPOCH; }",
        );
        assert!(active(&vs, "D001").is_empty());
    }

    #[test]
    fn d001_ignores_non_order_sensitive_crates_and_tests() {
        let vs = lint("lint", "crates/lint/src/x.rs", "fn f() { Instant::now(); }");
        assert!(active(&vs, "D001").is_empty());
        let vs = lint(
            "scfs",
            "crates/scfs/src/x.rs",
            "#[cfg(test)]\nmod tests { fn f() { Instant::now(); } }",
        );
        assert!(active(&vs, "D001").is_empty());
    }

    #[test]
    fn d002_and_d003_fire() {
        let vs = lint(
            "coord",
            "crates/coord/src/x.rs",
            "fn f() { let r = rand::thread_rng(); }",
        );
        assert!(!active(&vs, "D002").is_empty());
        let vs = lint("coord", "crates/coord/src/x.rs", "type H = RandomState;");
        assert_eq!(active(&vs, "D003").len(), 1);
    }

    #[test]
    fn d004_flags_iteration_but_not_lookup() {
        let src = "struct S { m: HashMap<String, u32> }\n\
                   impl S { fn f(&self) { for x in &self.m { drop(x); } } }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "D004").len(), 1);

        let src = "struct S { m: HashMap<String, u32> }\n\
                   impl S { fn f(&self) -> Option<&u32> { self.m.get(\"k\") } }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "D004").is_empty());
    }

    #[test]
    fn d004_flags_method_iteration_on_let_binding() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); \
                   let v: Vec<_> = m.values().collect(); drop(v); }";
        let vs = lint("workloads", "crates/workloads/src/x.rs", src);
        assert_eq!(active(&vs, "D004").len(), 1);
    }

    #[test]
    fn d004_ignores_btreemap_and_unrelated_receivers() {
        let src = "fn f(m: &BTreeMap<String, u32>, v: &Vec<u32>) { \
                   for x in m.values() { drop(x); } let _n: usize = v.iter().count(); }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "D004").is_empty());
    }

    #[test]
    fn c001_requires_must_use_on_pending_and_clock_builders() {
        let vs = lint(
            "sim_core",
            "crates/sim-core/src/x.rs",
            "pub struct Pending<T> { v: T }",
        );
        assert_eq!(active(&vs, "C001").len(), 1);
        let vs = lint(
            "sim_core",
            "crates/sim-core/src/x.rs",
            "#[must_use]\npub struct Pending<T> { v: T }",
        );
        assert!(active(&vs, "C001").is_empty());

        let src = "impl Clock { pub fn fork(&self) -> Self { Clock } }";
        let vs = lint("sim_core", "crates/sim-core/src/x.rs", src);
        assert_eq!(active(&vs, "C001").len(), 1);
        let src = "impl Clock { #[must_use]\npub fn fork(&self) -> Self { Clock } }";
        let vs = lint("sim_core", "crates/sim-core/src/x.rs", src);
        assert!(active(&vs, "C001").is_empty());
    }

    #[test]
    fn c001_ignores_clock_params() {
        let src = "pub fn run(clock: &mut Clock) -> u64 { clock.now().as_nanos() }";
        let vs = lint("sim_core", "crates/sim-core/src/x.rs", src);
        assert!(active(&vs, "C001").is_empty());
    }

    #[test]
    fn c002_flags_discarded_pending_but_not_settled_ones() {
        let src = "fn f(s: &mut Sched) { let _ = s.spawn(now, None, job); }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "C002").len(), 1);

        let src = "fn f(s: &mut Sched) { let _ = s.spawn(now, None, job).wait(clock); }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "C002").is_empty());

        let src = "fn f(st: &S) { let _ = st.begin_write_version(x); }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "C002").len(), 1);
    }

    #[test]
    fn c003_flags_ambient_clocks_on_the_data_path_only() {
        let vs = lint(
            "depsky",
            "crates/depsky/src/x.rs",
            "fn f() { let c = Clock::new(); }",
        );
        assert_eq!(active(&vs, "C003").len(), 1);
        // The workload harness is a legitimate clock root.
        let vs = lint(
            "workloads",
            "crates/workloads/src/x.rs",
            "fn f() { let c = Clock::new(); }",
        );
        assert!(active(&vs, "C003").is_empty());
        // sim-core itself implements the clocks.
        let vs = lint(
            "sim_core",
            "crates/sim-core/src/x.rs",
            "fn f() { let c = Clock::starting_at(t); }",
        );
        assert!(active(&vs, "C003").is_empty());
    }

    #[test]
    fn c004_flags_controller_impls_outside_the_checker_seam() {
        let src = "struct Evil;\nimpl ScheduleController for Evil {\n    fn choose(&self, p: &ChoicePoint) -> usize { 1 }\n}\n";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "C004").len(), 1);
        // Generic impls are still caught.
        let generic =
            "impl<T: Send> ScheduleController for Wrapper<T> { fn choose(&self) -> usize { 0 } }";
        let vs = lint("coord", "crates/coord/src/x.rs", generic);
        assert_eq!(active(&vs, "C004").len(), 1);
        // The seam's home and the model checker legitimately implement it.
        let vs = lint("sim_core", "crates/sim-core/src/x.rs", src);
        assert!(active(&vs, "C004").is_empty());
        let vs = lint("check", "crates/check/src/x.rs", src);
        assert!(active(&vs, "C004").is_empty());
        // Test scaffolding may build ad-hoc controllers anywhere.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        let vs = lint("scfs", "crates/scfs/src/x.rs", &in_test);
        assert!(active(&vs, "C004").is_empty());
        // Inherent impls and other traits are not confused for the seam.
        let vs = lint(
            "scfs",
            "crates/scfs/src/x.rs",
            "impl Evil { fn schedule_controller(&self) {} }\nimpl Display for Evil {}",
        );
        assert!(active(&vs, "C004").is_empty());
    }

    #[test]
    fn rule_catalog_covers_every_rule_the_checker_fires() {
        let cfg = LintConfig::default();
        let catalog = rule_catalog(&cfg);
        let ids: Vec<&str> = catalog.iter().map(|r| r.id).collect();
        for id in [
            "D001", "D002", "D003", "D004", "C001", "C002", "C003", "C004", "L001", "L002", "E001",
            "E002", "E003", "U001", "W001",
        ] {
            assert!(ids.contains(&id), "catalog is missing {id}");
        }
        // Scopes render from the live config, so a scope change shows up
        // in `list-rules` (and the README drift test) automatically.
        let c004 = catalog.iter().find(|r| r.id == "C004").unwrap();
        assert!(c004.scope.contains("sim_core") && c004.scope.contains("check"));
        let md = catalog_markdown(&cfg);
        assert!(md.starts_with("| ID |"));
        assert_eq!(md.lines().count(), 2 + catalog.len());
    }

    #[test]
    fn l001_enforces_the_dag() {
        let vs = lint(
            "coord",
            "crates/coord/src/x.rs",
            "use scfs::agent::ScfsAgent;",
        );
        assert_eq!(active(&vs, "L001").len(), 1);
        let vs = lint(
            "coord",
            "crates/coord/src/x.rs",
            "use sim_core::time::Clock;",
        );
        assert!(active(&vs, "L001").is_empty());
        // Inline paths count too, not just `use` items.
        let vs = lint(
            "depsky",
            "crates/depsky/src/x.rs",
            "fn f() { coord::lock::acquire(); }",
        );
        assert_eq!(active(&vs, "L001").len(), 1);
    }

    #[test]
    fn l002_bans_blob_apis_in_the_agent_module() {
        // Every file of the module is covered, however deeply nested.
        for path in [
            "crates/scfs/src/agent/mod.rs",
            "crates/scfs/src/agent/fetch.rs",
            "crates/scfs/src/agent/commit/lanes.rs",
        ] {
            let vs = lint("scfs", path, "use cloud_store::store::CloudStore;");
            assert_eq!(active(&vs, "L002").len(), 1, "{path}");
        }
        // Same tokens in another module are fine.
        let vs = lint(
            "scfs",
            "crates/scfs/src/backend.rs",
            "use cloud_store::store::CloudStore;",
        );
        assert!(active(&vs, "L002").is_empty());
    }

    #[test]
    fn e_rules_flag_panics_and_honor_waivers() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "E001").len(), 1);

        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // scfs-lint: allow(E001, slot invariant: checked two lines up)\n\
                   x.unwrap() }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "E001").is_empty());
        assert!(vs.iter().any(|v| v.rule == "E001" && v.waived.is_some()));

        let src = "fn f() { panic!(\"boom\"); }";
        let vs = lint("depsky", "crates/depsky/src/x.rs", src);
        assert_eq!(active(&vs, "E003").len(), 1);
    }

    #[test]
    fn e_rules_skip_unwrap_or_variants_and_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "E001").is_empty());
        let src = "#[test]\nfn t() { Some(1).unwrap(); }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert!(active(&vs, "E001").is_empty());
    }

    #[test]
    fn u001_confines_unsafe_to_the_allow_list_and_under_a_safety_comment() {
        let kernel = "crates/scfs-crypto/src/gf256.rs";
        let documented = "fn f(p: *const u8) -> u8 {\n\
                          // SAFETY: the caller passes a live pointer,\n\
                          // and says so in two lines.\n\
                          unsafe { *p }\n}";
        assert!(active(&lint("scfs_crypto", kernel, documented), "U001").is_empty());
        // The same code anywhere else, tests included, is a violation.
        let elsewhere = lint(
            "scfs_crypto",
            "crates/scfs-crypto/src/erasure.rs",
            documented,
        );
        assert_eq!(active(&elsewhere, "U001").len(), 1);
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{documented}\n}}");
        let vs = lint("depsky", "crates/depsky/src/register.rs", &in_test);
        assert_eq!(active(&vs, "U001").len(), 1);
        // In a kernel file the comment must sit directly above.
        for undocumented in [
            "fn f(p: *const u8) -> u8 { unsafe { *p } }",
            "// SAFETY: too far away.\n\nunsafe fn f() {}",
            "// SAFETY: a statement intervenes.\nlet x = 1;\nlet y = unsafe { g() };",
            "let x = 1; // SAFETY: trails code.\nlet y = unsafe { g() };",
            "/// # Safety\n/// Docs are not the comment.\nunsafe fn f() {}",
        ] {
            let vs = lint("scfs_crypto", kernel, undocumented);
            assert_eq!(active(&vs, "U001").len(), 1, "{undocumented}");
        }
        // Strings, comments and longer identifiers are not the keyword.
        let vs = lint(
            "scfs",
            "crates/scfs/src/x.rs",
            "#![forbid(unsafe_code)]\n// unsafe\nconst S: &str = \"unsafe\";",
        );
        assert!(active(&vs, "U001").is_empty());
    }

    #[test]
    fn w001_flags_reasonless_waivers_and_keeps_them_inactive() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // scfs-lint: allow(E001)\n\
                   x.unwrap() }";
        let vs = lint("scfs", "crates/scfs/src/x.rs", src);
        assert_eq!(active(&vs, "W001").len(), 1);
        // The reasonless waiver does not suppress the violation.
        assert_eq!(active(&vs, "E001").len(), 1);
    }
}
