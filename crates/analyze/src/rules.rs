//! The source-invariant rules (R1–R4) and the directory walker that applies
//! them to the workspace.
//!
//! Each rule is scoped to the paths where its invariant is load-bearing (see
//! `docs/ANALYSIS.md`). A finding can be suppressed by a comment containing
//! `lint: allow(<rule>)` on the same line or the line above.

use crate::lexer::{scan, Scan, Token, TokenKind};
use bwfirst_obs::json::{obj, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// R1: exact-arithmetic paths must not touch floating point.
pub const RULE_FLOAT: &str = "float";
/// R2: protocol/simulator hot paths must return typed errors, not panic.
pub const RULE_PANIC: &str = "panic";
/// R3: `match`es over protocol message enums must be exhaustive.
pub const RULE_WILDCARD: &str = "wildcard-match";
/// R4: dev-only shim crates must not leak into exact/protocol runtime code.
pub const RULE_SHIM: &str = "shim-import";

/// All rules, in report order.
pub const ALL_RULES: [&str; 4] = [RULE_FLOAT, RULE_PANIC, RULE_WILDCARD, RULE_SHIM];

/// The dev-only shim crates R4 bans from runtime code. `bytes` and
/// `crossbeam` are deliberately absent: the protocol uses them at runtime by
/// design (they model the wire), so importing them is not a violation.
const DEV_SHIMS: [&str; 3] = ["rand", "proptest", "criterion"];

/// Protocol message enums whose `match`es must stay exhaustive (R3).
const MESSAGE_ENUMS: [&str; 4] = ["DownMsg", "UpMsg", "ControlMsg", "Report"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (`float`, `panic`, `wildcard-match`, `shim-import`).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Renders the finding as a JSON object (via `bwfirst-obs`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("rule", Value::from(self.rule)),
            ("file", Value::from(self.file.as_str())),
            ("line", Value::Int(self.line as i128)),
            ("message", Value::from(self.message.as_str())),
        ])
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Which rules apply to `rel` (a path relative to the workspace root)?
/// Returns an empty set for files outside every rule's scope.
#[must_use]
pub fn rules_for(rel: &str) -> Vec<&'static str> {
    let rel = rel.replace('\\', "/");
    let mut rules = Vec::new();
    let in_dir = |d: &str| rel.starts_with(d);

    // R1: the exact-arithmetic cone. `core/src/float.rs` and
    // `core/src/quantize.rs` ARE the sanctioned float boundary.
    let r1 = in_dir("crates/rational/src/")
        || in_dir("crates/proto/src/")
        || in_dir("crates/lp/src/")
        || (in_dir("crates/core/src/")
            && !rel.ends_with("/float.rs")
            && !rel.ends_with("/quantize.rs"));
    if r1 {
        rules.push(RULE_FLOAT);
    }

    // R2: protocol actors, the simulator kernel and every executor policy,
    // the runtime invariant monitor, and schedule reconstruction (period
    // overflow is a typed `ScheduleError`).
    let r2 = in_dir("crates/proto/src/")
        || [
            "crates/sim/src/engine.rs",
            "crates/sim/src/kernel.rs",
            "crates/sim/src/event_driven.rs",
            "crates/sim/src/clocked.rs",
            "crates/sim/src/demand_driven.rs",
            "crates/sim/src/dynamic.rs",
            "crates/sim/src/returns.rs",
            "crates/sim/src/result_return.rs",
            "crates/sim/src/monitor.rs",
            "crates/core/src/schedule.rs",
        ]
        .contains(&rel.as_str());
    if r2 {
        rules.push(RULE_PANIC);
    }

    // R3: anywhere in library code — a non-exhaustive match on a message
    // enum silently drops protocol traffic no matter which crate holds it.
    if in_dir("crates/") && rel.contains("/src/") {
        rules.push(RULE_WILDCARD);
    }

    // R4: dev-only shims stay out of the exact/protocol runtime cone.
    if in_dir("crates/rational/src/") || in_dir("crates/proto/src/") || in_dir("crates/core/src/") {
        rules.push(RULE_SHIM);
    }
    rules
}

/// Lints one file's source text under `rules`, relative path `rel`.
#[must_use]
pub fn lint_source(rel: &str, src: &str, rules: &[&'static str]) -> Vec<Finding> {
    let s = scan(src);
    let mut findings = Vec::new();
    for &rule in rules {
        let raw = match rule {
            RULE_FLOAT => check_float(&s),
            RULE_PANIC => check_panic(&s),
            RULE_WILDCARD => check_wildcard(&s),
            RULE_SHIM => check_shims(&s),
            _ => Vec::new(),
        };
        findings.extend(raw.into_iter().filter_map(|(line, message)| {
            if s.allowed(rule, line) || s.in_test_code(line) {
                None
            } else {
                Some(Finding { rule, file: rel.to_string(), line, message })
            }
        }));
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Lints a single file on disk with **every** rule regardless of scope —
/// used for the fixture corpus, whose paths live outside the scoped tree.
pub fn lint_file_unscoped(path: &Path) -> Result<Vec<Finding>, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(lint_source(&path.display().to_string(), &src, &ALL_RULES))
}

/// Walks `root` and lints every in-scope `.rs` file.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)
        .map_err(|e| format!("walk {}: {e}", root.display()))?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string().replace('\\', "/");
        let rules = rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        let src = fs::read_to_string(&path).map_err(|e| format!("read {rel}: {e}"))?;
        findings.extend(lint_source(&rel, &src, &rules));
    }
    Ok(findings)
}

/// Recursively collects `.rs` files, skipping `target/` and `fixtures/`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// R1: `f64`/`f32` identifiers (covers `as f64` casts and type positions)
/// and floating-point literals.
fn check_float(s: &Scan) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for t in &s.tokens {
        match &t.kind {
            TokenKind::Ident(x) if x == "f64" || x == "f32" => {
                out.push((
                    t.line,
                    format!("floating-point type `{x}` in an exact-arithmetic path"),
                ));
            }
            TokenKind::Float => {
                out.push((t.line, "floating-point literal in an exact-arithmetic path".into()));
            }
            _ => {}
        }
    }
    out
}

/// R2: `.unwrap()`, `.expect(` and `panic!(` in hot paths.
fn check_panic(s: &Scan) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let toks = &s.tokens;
    for (k, t) in toks.iter().enumerate() {
        if let TokenKind::Ident(x) = &t.kind {
            let called = toks.get(k + 1).is_some_and(|n| n.kind == TokenKind::Punct('('));
            let dotted = k > 0 && toks[k - 1].kind == TokenKind::Punct('.');
            if dotted && called && (x == "unwrap" || x == "expect") {
                out.push((t.line, format!("`.{x}(...)` in a hot path — return a typed error")));
            }
            if x == "panic" && toks.get(k + 1).is_some_and(|n| n.kind == TokenKind::Punct('!')) {
                out.push((t.line, "`panic!` in a hot path — return a typed error".into()));
            }
        }
    }
    out
}

/// R3: a `_ =>` arm inside a `match` whose body mentions a protocol message
/// enum (`DownMsg::`, `UpMsg::`, `ControlMsg::`, `Report::`).
///
/// Token-level approximation: the innermost enclosing `match` body is
/// inspected, so a wildcard in an outer match wrapping a message-enum match
/// can false-positive — escape with `lint: allow(wildcard-match)` if the
/// outer match is genuinely unrelated.
fn check_wildcard(s: &Scan) -> Vec<(usize, String)> {
    let toks = &s.tokens;
    let spans = match_spans(toks);
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Punct('_')
            && toks.get(k + 1).is_some_and(|n| n.kind == TokenKind::Op("=>"))
        {
            // innermost match body containing this arm
            let Some(&(a, b)) =
                spans.iter().filter(|&&(a, b)| a < k && k < b).min_by_key(|&&(a, b)| b - a)
            else {
                continue;
            };
            if mentions_message_enum(&toks[a..b]) {
                out.push((
                    t.line,
                    "wildcard `_ =>` arm in a match over a protocol message enum — \
                     list every variant so new messages fail to compile, not to route"
                        .into(),
                ));
            }
        }
    }
    out
}

/// Token index spans `(open, close)` of every `match` body.
fn match_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if matches!(&t.kind, TokenKind::Ident(x) if x == "match") {
            // The scrutinee cannot contain a top-level `{`, so the first `{`
            // at bracket-depth 0 opens the body.
            let mut depth = 0i32;
            let mut j = k + 1;
            let mut open = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct('{') if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let mut braces = 0i32;
            let mut close = None;
            for (j, tok) in toks.iter().enumerate().skip(open) {
                match tok.kind {
                    TokenKind::Punct('{') => braces += 1,
                    TokenKind::Punct('}') => {
                        braces -= 1;
                        if braces == 0 {
                            close = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if let Some(close) = close {
                spans.push((open, close));
            }
        }
    }
    spans
}

/// Does the token window mention `DownMsg::` / `UpMsg::` / ... ?
fn mentions_message_enum(window: &[Token]) -> bool {
    window.iter().enumerate().any(|(k, t)| {
        matches!(&t.kind, TokenKind::Ident(x) if MESSAGE_ENUMS.contains(&x.as_str()))
            && window.get(k + 1).is_some_and(|n| n.kind == TokenKind::Op("::"))
    })
}

/// R4: dev-only shim crates referenced from runtime code.
fn check_shims(s: &Scan) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (k, t) in s.tokens.iter().enumerate() {
        if let TokenKind::Ident(x) = &t.kind {
            if DEV_SHIMS.contains(&x.as_str()) {
                // Only path-position uses (`use rand::...`, `rand::thread_rng()`)
                // — a local variable merely *named* `rand` is odd but legal.
                let pathy = s.tokens.get(k + 1).is_some_and(|n| n.kind == TokenKind::Op("::"))
                    || (k > 0
                        && matches!(&s.tokens[k - 1].kind, TokenKind::Ident(p) if p == "use" || p == "extern"));
                if pathy {
                    out.push((
                        t.line,
                        format!("dev-only shim crate `{x}` referenced from runtime code"),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_rule_catches_casts_literals_and_types() {
        let src = "fn f(x: i64) -> f64 { x as f64 + 1e6 }\n";
        let f = lint_source("crates/rational/src/x.rs", src, &[RULE_FLOAT]);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == RULE_FLOAT && f.line == 1));
    }

    #[test]
    fn float_rule_respects_allow_markers_and_tests() {
        let src = "fn f(x: i64) -> i64 { x }\n// lint: allow(float)\nlet y = 1.5;\n#[cfg(test)]\nmod tests {\n    fn t() { let z = 2.5; }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src, &[RULE_FLOAT]).is_empty());
    }

    #[test]
    fn panic_rule_catches_unwrap_expect_panic() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }\n";
        let f = lint_source("crates/proto/src/x.rs", src, &[RULE_PANIC]);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn panic_rule_ignores_unwrap_or_and_non_call_positions() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(g); let expect = 3; h(expect); }\n";
        assert!(lint_source("crates/proto/src/x.rs", src, &[RULE_PANIC]).is_empty());
    }

    #[test]
    fn wildcard_rule_fires_only_on_message_enum_matches() {
        let on_msg = "fn f(m: DownMsg) { match m { DownMsg::Eof => {}, _ => {} } }\n";
        assert_eq!(lint_source("crates/x/src/a.rs", on_msg, &[RULE_WILDCARD]).len(), 1);
        let plain = "fn f(n: u8) { match n { 0 => {}, _ => {} } }\n";
        assert!(lint_source("crates/x/src/a.rs", plain, &[RULE_WILDCARD]).is_empty());
        let exhaustive = "fn f(m: Side) { match m { Side::L(_) => {}, Side::R => {} } }\n";
        assert!(lint_source("crates/x/src/a.rs", exhaustive, &[RULE_WILDCARD]).is_empty());
    }

    #[test]
    fn shim_rule_fires_on_path_uses_only() {
        let bad = "use rand::Rng;\nfn f() { let r = proptest::num(); }\n";
        assert_eq!(lint_source("crates/core/src/a.rs", bad, &[RULE_SHIM]).len(), 2);
        let ok = "fn f() { let rand = 3; g(rand); }\n";
        assert!(lint_source("crates/core/src/a.rs", ok, &[RULE_SHIM]).is_empty());
    }

    #[test]
    fn scopes_route_rules_to_the_right_paths() {
        assert!(rules_for("crates/rational/src/rat.rs").contains(&RULE_FLOAT));
        assert!(!rules_for("crates/core/src/float.rs").contains(&RULE_FLOAT));
        assert!(!rules_for("crates/core/src/quantize.rs").contains(&RULE_FLOAT));
        assert!(rules_for("crates/sim/src/event_driven.rs").contains(&RULE_PANIC));
        assert!(rules_for("crates/sim/src/monitor.rs").contains(&RULE_PANIC));
        for executor in ["kernel", "demand_driven", "returns", "result_return"] {
            assert!(rules_for(&format!("crates/sim/src/{executor}.rs")).contains(&RULE_PANIC));
        }
        assert!(rules_for("crates/core/src/schedule.rs").contains(&RULE_PANIC));
        assert!(!rules_for("crates/sim/src/makespan.rs").contains(&RULE_PANIC));
        assert!(rules_for("crates/obs/src/json.rs").contains(&RULE_WILDCARD));
        assert!(!rules_for("crates/bench/src/records.rs").contains(&RULE_SHIM));
        assert!(rules_for("crates/proto/src/actor.rs").contains(&RULE_SHIM));
        assert!(rules_for("crates/bench/benches/obs_overhead.rs").is_empty());
    }

    #[test]
    fn findings_serialize_to_json() {
        let f = Finding { rule: RULE_FLOAT, file: "a.rs".into(), line: 7, message: "m".into() };
        let j = f.to_json().to_string_compact();
        assert!(j.contains("\"rule\":\"float\""), "{j}");
        assert!(j.contains("\"line\":7"), "{j}");
    }
}
