//! Workspace lint pass: line/token-level repo-rule enforcement with no
//! dependencies beyond std. Run as `cargo run -p llmnpu-verify --bin
//! lint`; exits non-zero with one line per violation.
//!
//! Rules:
//!
//! - `panic` — no `.unwrap()` / `.expect(` in the non-test code of the
//!   serving hot paths (`core::serve`, `sched::runner`, `sched::pool`,
//!   `kv::pool`, `kv::prefix`, the LUT kernels) or of `model::forward`
//!   and `model::kv`, the one layer loop and the one K/V store every
//!   solo and served forward runs. These paths process user input; a
//!   panic there is a containment bug, not a shortcut.
//! - `wall-clock` — no `Instant::now` / `SystemTime::now` in the
//!   numeric plane (`tensor`, `quant`, `kv`, `model`, `graph`, `obs`):
//!   results must be bit-identical across runs, and wall-clock reads
//!   are how nondeterminism sneaks in. The obs crate's sanctioned
//!   clock reads are the `WallProbe` sites, escaped inline.
//! - `unsafe-attr` — every crate root carries
//!   `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`, and the only
//!   `#![allow(unsafe_code)]`s in the tree are the two documented scoped
//!   ones: `sched::pool` and `tensor::kernel::microkernel`. Together they
//!   hold the workspace's whole `unsafe` inventory — one `unsafe impl`
//!   (`Send` for the pool's job pointer), one `unsafe` deref (a worker's
//!   disjoint job slot) and one dispatch call (the integer tile's AVX-512
//!   VNNI body, behind its runtime feature test).
//! - `safety-comment` — every `unsafe` item or block is preceded by a
//!   `// SAFETY:` comment within a few lines stating the invariant that
//!   makes it sound.
//! - `arg-escape` — no `allow(clippy::too_many_arguments)` anywhere
//!   under `crates/core/src`: long positional plumbing there becomes a
//!   context struct, not an escape (this rule has no escape hatch).
//! - `probe-site` — every `pub fn matmul_*` in `tensor::gemm` and every
//!   `pub fn attention_*` in `tensor::kernel::attention` whose name does
//!   not end in `_reference` reaches `probe::profiled(`, in its own body
//!   or through functions of that file it calls: an entry the kernel
//!   probe cannot see is a lane the calibration table and the benchmark's
//!   `tensor.kernel_*` rows are blind to.
//! - `one-copy` — in `crates/quant/src/` and `model::backend`, a `struct`
//!   with a packed-weights field (`PackedMatrix*`, `LutWeights`) has no
//!   `Tensor<i8>`, `Tensor<f32>`, `*QuantizedMatrix` or `ModelWeights`
//!   field beside it: a layer holds its weight once, in the layout the
//!   kernel multiplies by, and reads rows back through the packed type.
//! - `dead-scope` — every path a scoped rule names must match at least
//!   one file, so moving a file cannot silently retire its checks.
//!
//! Escape hatch: a site may carry `// lint: allow(<rule>) — <reason>`
//! on the same line or the line above. The reason is mandatory; an
//! empty justification is itself a violation.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files whose non-test code must stay panic-free (rule `panic`). An
/// entry ending in `/` covers every file under that directory.
const PANIC_FREE: &[&str] = &[
    "crates/core/src/serve/",
    "crates/sched/src/runner.rs",
    "crates/sched/src/pool.rs",
    "crates/kv/src/pool.rs",
    "crates/kv/src/prefix.rs",
    "crates/model/src/forward.rs",
    "crates/model/src/kv.rs",
    "crates/tensor/src/kernel/lut.rs",
    "crates/quant/src/lut.rs",
];

/// Crates forming the numeric plane (rule `wall-clock`). The obs crate
/// is included deliberately: its exporters and registries must stay
/// clock-free so traced runs mirror untraced ones — the only sanctioned
/// reads are the `WallProbe` sites, justified inline.
const NUMERIC_PLANE: &[&str] = &[
    "crates/tensor/src/",
    "crates/quant/src/",
    "crates/kv/src/",
    "crates/model/src/",
    "crates/graph/src/",
    "crates/obs/src/",
];

/// Tree in which `allow(clippy::too_many_arguments)` is banned (rule
/// `arg-escape`).
const NO_ARG_ESCAPES: &str = "crates/core/src/";

/// Files whose public entries (by name prefix) must report to the kernel
/// probe (rule `probe-site`).
const PROBED_ENTRIES: &[(&str, &str)] = &[
    ("crates/tensor/src/gemm.rs", "matmul_"),
    ("crates/tensor/src/kernel/attention.rs", "attention_"),
];

/// Where a struct that owns packed kernel weights may own no second,
/// row-major copy of them (rule `one-copy`).
const ONE_COPY: &[&str] = &["crates/quant/src/", "crates/model/src/backend.rs"];

/// Field types that are kernel-layout weights / a row-major copy of
/// weights, by substring (rule `one-copy`).
const PACKED_TYPES: &[&str] = &["PackedMatrix", "LutWeights"];
const ROW_MAJOR_TYPES: &[&str] = &[
    "Tensor<i8>",
    "Tensor<f32>",
    "QuantizedMatrix",
    "ModelWeights",
];

/// The files allowed a scoped `#![allow(unsafe_code)]` (rule
/// `unsafe-attr`).
const UNSAFE_ALLOW_EXCEPTION: &[&str] = &[
    "crates/sched/src/pool.rs",
    "crates/tensor/src/kernel/microkernel.rs",
];

/// Whether `file` falls under scope entry `entry`: a directory prefix
/// (trailing `/`) or an exact file path.
fn in_scope(entry: &str, file: &str) -> bool {
    if entry.ends_with('/') {
        file.starts_with(entry)
    } else {
        file == entry
    }
}

/// Scope entries of the path-scoped rules that match none of `files`.
fn dead_scopes(files: &[String]) -> Vec<&'static str> {
    PANIC_FREE
        .iter()
        .chain(NUMERIC_PLANE)
        .chain([&NO_ARG_ESCAPES])
        .chain(PROBED_ENTRIES.iter().map(|(file, _)| file))
        .chain(ONE_COPY)
        .chain(UNSAFE_ALLOW_EXCEPTION)
        .copied()
        .filter(|entry| !files.iter().any(|f| in_scope(entry, f)))
        .collect()
}

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    what: String,
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut violations: Vec<Violation> = Vec::new();
    let mut files_scanned = 0usize;

    let sources = crate_sources(&root);
    for entry in dead_scopes(&sources) {
        violations.push(Violation {
            file: entry.to_string(),
            line: 0,
            rule: "dead-scope",
            what: "rule scope matches no source file".to_string(),
        });
    }
    for rel in sources {
        let path = root.join(&rel);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        files_scanned += 1;
        let lines: Vec<&str> = text.lines().collect();
        let test_mask = test_code_mask(&lines);

        if PANIC_FREE.iter().any(|e| in_scope(e, &rel)) {
            check_panic(&rel, &lines, &test_mask, &mut violations);
        }
        if in_scope(NO_ARG_ESCAPES, &rel) {
            check_arg_escapes(&rel, &lines, &mut violations);
        }
        if NUMERIC_PLANE.iter().any(|e| in_scope(e, &rel)) {
            check_wall_clock(&rel, &lines, &test_mask, &mut violations);
        }
        for (_, prefix) in PROBED_ENTRIES.iter().filter(|(f, _)| in_scope(f, &rel)) {
            check_probe_sites(&rel, prefix, &lines, &test_mask, &mut violations);
        }
        if ONE_COPY.iter().any(|e| in_scope(e, &rel)) {
            check_one_copy(&rel, &lines, &test_mask, &mut violations);
        }
        check_unsafe_attr(&rel, &lines, &mut violations);
        check_safety_comments(&rel, &lines, &mut violations);
    }

    if violations.is_empty() {
        println!("lint: clean ({files_scanned} files scanned)");
        return ExitCode::SUCCESS;
    }
    let mut out = String::new();
    for v in &violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.what);
    }
    eprint!("{out}");
    eprintln!(
        "lint: {} violation(s) in {files_scanned} files",
        violations.len()
    );
    ExitCode::FAILURE
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Every `.rs` file under `crates/*/src` and the root `src/`, as paths
/// relative to the workspace root with `/` separators. Vendored
/// stand-ins are deliberately out of scope.
fn crate_sources(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            dirs.push(entry.path().join("src"));
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    files
}

/// One past the last line of the item that starts at (or is attributed
/// on) line `start`, by brace tracking: skip to the item's opening
/// brace, then run until the braces balance.
fn item_end(lines: &[&str], start: usize) -> usize {
    let mut depth: i64 = 0;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return j + 1;
        }
    }
    lines.len()
}

/// Marks the lines inside `#[cfg(test)]`-attributed items.
fn test_code_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let end = item_end(lines, i);
        mask[i..end].fill(true);
        i = end;
    }
    mask
}

/// Whether line `i` (or the line above it) carries a
/// `// lint: allow(<rule>)` escape with a non-empty justification.
/// Returns `Some(true)` for a valid escape, `Some(false)` for an escape
/// missing its justification, `None` for no escape at all.
fn escape_for(lines: &[&str], i: usize, rule: &str) -> Option<bool> {
    let needle = format!("lint: allow({rule})");
    for probe in [Some(i), i.checked_sub(1)].into_iter().flatten() {
        let line = lines[probe];
        if let Some(pos) = line.find(&needle) {
            let rest = &line[pos + needle.len()..];
            let justified = rest.chars().filter(|c| c.is_alphanumeric()).take(3).count() >= 3;
            return Some(justified);
        }
    }
    None
}

fn flag(
    violations: &mut Vec<Violation>,
    lines: &[&str],
    file: &str,
    i: usize,
    rule: &'static str,
    what: String,
) {
    match escape_for(lines, i, rule) {
        Some(true) => {}
        Some(false) => violations.push(Violation {
            file: file.to_string(),
            line: i + 1,
            rule,
            what: format!("escape `lint: allow({rule})` has no justification"),
        }),
        None => violations.push(Violation {
            file: file.to_string(),
            line: i + 1,
            rule,
            what,
        }),
    }
}

/// Strips `//` comments (not inside string literals we care about —
/// line-level heuristics are fine for this codebase's style).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn check_panic(file: &str, lines: &[&str], test_mask: &[bool], violations: &mut Vec<Violation>) {
    for (i, raw) in lines.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let code = code_part(raw);
        for pat in [".unwrap()", ".expect("] {
            if code.contains(pat) {
                flag(
                    violations,
                    lines,
                    file,
                    i,
                    "panic",
                    format!("`{pat}` in panic-free serving path"),
                );
            }
        }
    }
}

fn check_wall_clock(
    file: &str,
    lines: &[&str],
    test_mask: &[bool],
    violations: &mut Vec<Violation>,
) {
    for (i, raw) in lines.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let code = code_part(raw);
        for pat in ["Instant::now", "SystemTime::now"] {
            if code.contains(pat) {
                flag(
                    violations,
                    lines,
                    file,
                    i,
                    "wall-clock",
                    format!("`{pat}` in the numeric plane breaks determinism"),
                );
            }
        }
    }
}

fn check_arg_escapes(file: &str, lines: &[&str], violations: &mut Vec<Violation>) {
    for (i, raw) in lines.iter().enumerate() {
        if code_part(raw).contains("allow(clippy::too_many_arguments)") {
            violations.push(Violation {
                file: file.to_string(),
                line: i + 1,
                rule: "arg-escape",
                what: "pass a context struct instead of escaping `too_many_arguments`".to_string(),
            });
        }
    }
}

/// A non-test `fn` item as the `probe-site` rule sees it.
struct FnItem {
    name: String,
    public: bool,
    /// Index of the declaration line.
    line: usize,
    /// The item's code from the declaration to its closing brace,
    /// comments stripped.
    body: String,
}

/// Every non-test `fn` in `lines`.
fn fn_items(lines: &[&str], test_mask: &[bool]) -> Vec<FnItem> {
    let mut items = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let decl = code_part(raw).trim_start();
        let public = decl.starts_with("pub fn ");
        let Some(rest) = decl.strip_prefix("pub fn ").or(decl.strip_prefix("fn ")) else {
            continue;
        };
        if test_mask[i] {
            continue;
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            // A macro metavariable (`fn $name`): nothing to call by name.
            continue;
        }
        let body: String = lines[i..item_end(lines, i)]
            .iter()
            .flat_map(|line| [code_part(line), "\n"])
            .collect();
        items.push(FnItem {
            name,
            public,
            line: i,
            body,
        });
    }
    items
}

/// Whether `body` calls `name` (`name(` or `name::<`, not as the tail of
/// a longer identifier).
fn calls(body: &str, name: &str) -> bool {
    body.match_indices(name).any(|(at, _)| {
        let before = body[..at].chars().next_back();
        let after = body[at + name.len()..].chars().next();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_') && matches!(after, Some('(' | ':'))
    })
}

fn check_probe_sites(
    file: &str,
    prefix: &str,
    lines: &[&str],
    test_mask: &[bool],
    violations: &mut Vec<Violation>,
) {
    let items = fn_items(lines, test_mask);
    let mut reaches: Vec<bool> = items
        .iter()
        .map(|f| f.body.contains("probe::profiled("))
        .collect();
    // Propagate through calls within the file until nothing changes.
    loop {
        let newly: Vec<usize> = (0..items.len())
            .filter(|&i| {
                !reaches[i]
                    && items
                        .iter()
                        .zip(&reaches)
                        .any(|(g, &r)| r && calls(&items[i].body, &g.name))
            })
            .collect();
        if newly.is_empty() {
            break;
        }
        for i in newly {
            reaches[i] = true;
        }
    }
    for (f, reached) in items.iter().zip(reaches) {
        let entry = f.public && f.name.starts_with(prefix) && !f.name.ends_with("_reference");
        if entry && !reached {
            flag(
                violations,
                lines,
                file,
                f.line,
                "probe-site",
                format!("`{}` never reaches `probe::profiled(`", f.name),
            );
        }
    }
}

fn check_one_copy(file: &str, lines: &[&str], test_mask: &[bool], violations: &mut Vec<Violation>) {
    let mut i = 0;
    while i < lines.len() {
        let decl = code_part(lines[i]).trim_start();
        let braced_struct = ["struct ", "pub struct ", "pub(crate) struct "]
            .iter()
            .any(|p| decl.starts_with(p))
            && !decl.contains(';');
        if test_mask[i] || !braced_struct {
            i += 1;
            continue;
        }
        let end = item_end(lines, i);
        // `name: Type,` lines; the first `:` is the field's (paths in the
        // type come after it).
        let fields: Vec<(usize, &str)> = (i + 1..end)
            .filter_map(|j| Some((j, code_part(lines[j]).split_once(':')?.1)))
            .collect();
        let names =
            |ty: &str, kinds: &[&'static str]| kinds.iter().copied().find(|k| ty.contains(k));
        if fields
            .iter()
            .any(|(_, ty)| names(ty, PACKED_TYPES).is_some())
        {
            for (j, ty) in &fields {
                if let Some(kind) = names(ty, ROW_MAJOR_TYPES) {
                    flag(
                        violations,
                        lines,
                        file,
                        *j,
                        "one-copy",
                        format!("`{kind}` field beside packed kernel weights: the packed layout is the payload"),
                    );
                }
            }
        }
        i = end;
    }
}

fn check_unsafe_attr(file: &str, lines: &[&str], violations: &mut Vec<Violation>) {
    let is_crate_root =
        file == "src/lib.rs" || (file.starts_with("crates/") && file.ends_with("/src/lib.rs"));
    if is_crate_root {
        let has = lines.iter().any(|l| {
            let t = l.trim();
            t.starts_with("#![forbid(unsafe_code)]") || t.starts_with("#![deny(unsafe_code)]")
        });
        if !has {
            violations.push(Violation {
                file: file.to_string(),
                line: 1,
                rule: "unsafe-attr",
                what: "crate root lacks #![forbid(unsafe_code)] / #![deny(unsafe_code)]".into(),
            });
        }
    }
    if !UNSAFE_ALLOW_EXCEPTION.contains(&file) {
        for (i, l) in lines.iter().enumerate() {
            if l.trim().starts_with("#![allow(unsafe_code)]") {
                violations.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "unsafe-attr",
                    what: format!(
                        "scoped #![allow(unsafe_code)] is only sanctioned in {}",
                        UNSAFE_ALLOW_EXCEPTION.join(", ")
                    ),
                });
            }
        }
    }
}

/// How far above an `unsafe` site the SAFETY comment may sit.
const SAFETY_WINDOW: usize = 8;

fn check_safety_comments(file: &str, lines: &[&str], violations: &mut Vec<Violation>) {
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let code = code_part(raw);
        // Token-level: `unsafe` followed by whitespace or `{`, skipping
        // lint-attribute mentions of `unsafe_code`.
        let is_unsafe_site = code
            .split_whitespace()
            .any(|tok| tok == "unsafe" || tok.starts_with("unsafe{") || tok.starts_with("unsafe("))
            && !code.contains("unsafe_code");
        if !is_unsafe_site {
            continue;
        }
        let lo = i.saturating_sub(SAFETY_WINDOW);
        let mut documented = lines[lo..=i].iter().any(|l| l.contains("SAFETY"));
        // A long invariant comment block directly above the site also
        // counts: walk the contiguous run of comment/attribute lines.
        let mut j = i;
        while !documented && j > 0 {
            j -= 1;
            let t = lines[j].trim_start();
            if t.starts_with("//") || t.starts_with("#[") || t.is_empty() {
                documented = t.contains("SAFETY");
            } else {
                break;
            }
        }
        if !documented {
            flag(
                violations,
                lines,
                file,
                i,
                "safety-comment",
                "`unsafe` without a SAFETY invariant comment nearby".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_scope_matches_a_file() {
        let sources = crate_sources(&workspace_root());
        assert!(!sources.is_empty(), "workspace sources not found");
        assert_eq!(dead_scopes(&sources), Vec::<&str>::new());
    }

    #[test]
    fn a_moved_file_is_reported_as_a_dead_scope() {
        let sources = vec!["crates/core/src/lib.rs".to_string()];
        let dead = dead_scopes(&sources);
        assert!(dead.contains(&"crates/core/src/serve/"), "{dead:?}");
        assert!(dead.contains(&"crates/tensor/src/"), "{dead:?}");
        assert!(
            dead.contains(&"crates/tensor/src/kernel/microkernel.rs"),
            "{dead:?}"
        );
        assert!(!dead.contains(&NO_ARG_ESCAPES), "{dead:?}");
    }

    #[test]
    fn unsafe_allows_are_sanctioned_only_in_the_listed_files() {
        let lines = ["//! docs", "#![allow(unsafe_code)]", "fn f() {}"];
        for file in UNSAFE_ALLOW_EXCEPTION {
            let mut v = Vec::new();
            check_unsafe_attr(file, &lines, &mut v);
            assert!(v.is_empty(), "{file}");
        }
        let mut v = Vec::new();
        check_unsafe_attr("crates/tensor/src/kernel/lut.rs", &lines, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].rule), (2, "unsafe-attr"));
    }

    #[test]
    fn directory_scopes_cover_every_file_beneath_them() {
        assert!(in_scope(
            "crates/core/src/serve/",
            "crates/core/src/serve/run.rs"
        ));
        assert!(!in_scope(
            "crates/core/src/serve/",
            "crates/core/src/server.rs"
        ));
        assert!(in_scope("crates/kv/src/pool.rs", "crates/kv/src/pool.rs"));
        assert!(!in_scope(
            "crates/kv/src/pool.rs",
            "crates/kv/src/pool.rs.bk"
        ));
    }

    #[test]
    fn arg_escapes_are_flagged_without_an_escape_hatch() {
        let lines = [
            "// lint: allow(arg-escape) — nope",
            "#[allow(clippy::too_many_arguments)]",
            "fn f() {}",
        ];
        let mut v = Vec::new();
        check_arg_escapes("crates/core/src/x.rs", &lines, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].rule), (2, "arg-escape"));
    }

    #[test]
    fn one_copy_flags_a_row_major_twin_beside_packed_weights() {
        let lines = [
            "pub struct ValueType {",
            "    data: Tensor<i8>,",
            "    scales: Vec<f32>,",
            "}",
            "pub struct Layer {",
            "    /// doc: naming Tensor<f32> in a comment is not a field",
            "    packed: PackedMatrixI8,",
            "    weight: ChannelQuantizedMatrix,",
            "    scales: Vec<f32>,",
            "}",
            "struct Backend {",
            "    packed: HashMap<LinearSite, PackedMatrixF32>,",
            "    pub weights: ModelWeights,",
            "}",
            "struct Lut {",
            "    weights: LutWeights,",
            "    group_size: usize,",
            "}",
            "struct Mixed {",
            "    // lint: allow(one-copy) — the float rows are the method",
            "    weight_f: Tensor<f32>,",
            "    // lint: allow(one-copy)",
            "    twin: Tensor<i8>,",
            "    packed: PackedMatrixI8,",
            "}",
            "struct Marker;",
            "#[cfg(test)]",
            "mod tests {",
            "    struct Fixture {",
            "        packed: PackedMatrixI8,",
            "        data: Tensor<i8>,",
            "    }",
            "}",
        ];
        let mut v = Vec::new();
        check_one_copy("layer.rs", &lines, &test_code_mask(&lines), &mut v);
        let got: Vec<(usize, &str)> = v.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(got, [(8, "one-copy"), (13, "one-copy"), (23, "one-copy")]);
        assert!(v[0].what.contains("QuantizedMatrix"), "{}", v[0].what);
        assert!(v[1].what.contains("ModelWeights"), "{}", v[1].what);
        assert!(v[2].what.contains("no justification"), "{}", v[2].what);
    }

    #[test]
    fn probe_site_follows_helpers_and_exempts_references_and_escapes() {
        let lines = [
            "fn run(site: &str) {",
            "    kernel::probe::profiled(site, || ());",
            "}",
            "fn per_call() {",
            "    run(\"a\");",
            "}",
            "pub fn matmul_direct() {",
            "    kernel::probe::profiled(\"d\", || ());",
            "}",
            "pub fn matmul_via_helpers() {",
            "    per_call();",
            "}",
            "pub fn matmul_blind() {",
            "    // a comment naming run( is not a call",
            "    rerun(); kernel::gemm();",
            "}",
            "pub fn matmul_blind_reference() {",
            "    scalar();",
            "}",
            "// lint: allow(probe-site) — timed by its caller",
            "pub fn matmul_escaped() {}",
            "macro_rules! stamp {",
            "    ($name:ident) => {",
            "        pub fn $name() { kernel::probe::profiled(\"m\", || ()); }",
            "    };",
            "}",
            "#[cfg(test)]",
            "mod tests {",
            "    pub fn matmul_in_tests() {}",
            "}",
        ];
        let mut v = Vec::new();
        check_probe_sites(
            "gemm.rs",
            "matmul_",
            &lines,
            &test_code_mask(&lines),
            &mut v,
        );
        assert_eq!(v.len(), 1, "one blind entry");
        assert_eq!((v[0].line, v[0].rule), (13, "probe-site"));
        assert!(v[0].what.contains("matmul_blind"));
    }
}
