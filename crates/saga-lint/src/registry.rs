//! The env-toggle registry: a markdown table in ARCHITECTURE.md that
//! declares every environment variable the workspace reads at runtime.
//!
//! The linter parses the table and cross-checks it against the source in
//! both directions — an undeclared read and a declared-but-never-read row
//! are both findings — so the docs cannot drift from the code.

/// One declared toggle.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The variable name, e.g. `RAYON_NUM_THREADS`.
    pub name: String,
    /// 1-based line of its table row in the registry document.
    pub line: u32,
}

/// The parsed registry (possibly absent).
#[derive(Debug, Default)]
pub struct Registry {
    /// Declared toggles in table order.
    pub entries: Vec<RegistryEntry>,
    /// True when the registry heading was found at all.
    pub found: bool,
}

impl Registry {
    /// True if `name` is declared.
    pub fn declares(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }
}

/// Parses the registry table out of the markdown text: the first table
/// following a heading that contains "Env-toggle registry". A row declares
/// the backtick-quoted ALL_CAPS name in its first cell.
pub fn parse(markdown: &str) -> Registry {
    let mut reg = Registry::default();
    let mut in_section = false;
    let mut in_table = false;
    for (idx, raw) in markdown.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') {
            if in_table {
                break;
            }
            in_section = line.to_ascii_lowercase().contains("env-toggle registry");
            if in_section {
                reg.found = true;
            }
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some(row) = line.strip_prefix('|') {
            in_table = true;
            let first_cell = row.split('|').next().unwrap_or("");
            if let Some(name) = backticked_caps(first_cell) {
                reg.entries.push(RegistryEntry {
                    name,
                    line: idx as u32 + 1,
                });
            }
        } else if in_table && !line.is_empty() {
            break; // table ended
        }
    }
    reg
}

/// One row of the "Atomic protocol registry" table: an atomic binding,
/// its declaring file, and the allowed `method(Ordering, …)` set.
#[derive(Debug, Clone)]
pub struct AtomicRow {
    /// Binding name (matches the declaration the linter extracts).
    pub name: String,
    /// Workspace-relative declaring file.
    pub path: String,
    /// Allowed operations: `(method, allowed orderings)`.
    pub ops: Vec<(String, Vec<String>)>,
    /// 1-based line of the row.
    pub line: u32,
}

/// One row of the "Lock-order registry" table: a mutex binding, its
/// declaring file, and its acquisition rank (nested acquisitions must
/// ascend in rank).
#[derive(Debug, Clone)]
pub struct LockRow {
    /// Binding name.
    pub name: String,
    /// Workspace-relative declaring file.
    pub path: String,
    /// Acquisition rank; a lock may only be taken while holding locks of
    /// strictly lower rank.
    pub rank: i64,
    /// 1-based line of the row.
    pub line: u32,
}

/// The parsed concurrency registries (each possibly absent).
#[derive(Debug, Default)]
pub struct ConcurrencyRegistry {
    /// Atomic protocol rows.
    pub atomics: Vec<AtomicRow>,
    /// Lock-order rows.
    pub locks: Vec<LockRow>,
    /// True when the atomic table's heading was found.
    pub atomics_found: bool,
    /// True when the lock table's heading was found.
    pub locks_found: bool,
}

impl ConcurrencyRegistry {
    /// The atomic row for `name` declared in `path`, if any.
    pub fn atomic(&self, name: &str, path: &str) -> Option<&AtomicRow> {
        self.atomics
            .iter()
            .find(|r| r.name == name && r.path == path)
    }

    /// The lock row for `name` declared in `path`, if any.
    pub fn lock(&self, name: &str, path: &str) -> Option<&LockRow> {
        self.locks.iter().find(|r| r.name == name && r.path == path)
    }
}

/// Parses the two concurrency tables out of the markdown text: the first
/// table after a heading containing "Atomic protocol registry" (columns:
/// name, file, protocol prose, allowed ops as backticked
/// `method(Ordering, …)` items) and the first after "Lock-order registry"
/// (columns: name, file, rank, protocol prose).
pub fn parse_concurrency(markdown: &str) -> ConcurrencyRegistry {
    let mut reg = ConcurrencyRegistry::default();
    for (line, cells) in table_rows(markdown, "atomic protocol registry") {
        reg.atomics_found = true;
        let (Some(name), Some(path)) = (
            cells.first().and_then(|c| backticked(c)),
            cells.get(1).and_then(|c| backticked(c)),
        ) else {
            continue; // header / separator rows
        };
        let ops = cells
            .get(3)
            .map(|c| {
                backticked_all(c)
                    .iter()
                    .filter_map(|s| parse_op(s))
                    .collect()
            })
            .unwrap_or_default();
        reg.atomics.push(AtomicRow {
            name,
            path,
            ops,
            line,
        });
    }
    for (line, cells) in table_rows(markdown, "lock-order registry") {
        reg.locks_found = true;
        let (Some(name), Some(path), Some(rank)) = (
            cells.first().and_then(|c| backticked(c)),
            cells.get(1).and_then(|c| backticked(c)),
            cells.get(2).and_then(|c| c.trim().parse::<i64>().ok()),
        ) else {
            continue;
        };
        reg.locks.push(LockRow {
            name,
            path,
            rank,
            line,
        });
    }
    reg
}

/// The rows (1-based line, `|`-split cells) of the first markdown table
/// after a heading containing `heading_key` (case-insensitive). An empty
/// vec when the heading is absent; heading-only sections yield a single
/// sentinel handled by the callers' cell parsing (no backticked cells).
fn table_rows(markdown: &str, heading_key: &str) -> Vec<(u32, Vec<String>)> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut in_table = false;
    for (idx, raw) in markdown.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') {
            if in_table {
                break;
            }
            let was = in_section;
            in_section = line.to_ascii_lowercase().contains(heading_key);
            if was && !in_section {
                break; // section ended without a table
            }
            if in_section {
                // sentinel row so callers can tell "heading found, table
                // empty" from "heading absent"
                rows.push((idx as u32 + 1, Vec::new()));
            }
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some(body) = line.strip_prefix('|') {
            in_table = true;
            let cells: Vec<String> = body
                .trim_end_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect();
            rows.push((idx as u32 + 1, cells));
        } else if in_table && !line.is_empty() {
            break;
        }
    }
    rows
}

/// The first `` `…` `` span in a table cell.
fn backticked(cell: &str) -> Option<String> {
    let start = cell.find('`')?;
    let rest = &cell[start + 1..];
    let end = rest.find('`')?;
    let s = rest[..end].trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// Every `` `…` `` span in a table cell, in order.
fn backticked_all(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(start) = rest.find('`') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('`') else { break };
        let s = rest[..end].trim();
        if !s.is_empty() {
            out.push(s.to_string());
        }
        rest = &rest[end + 1..];
    }
    out
}

/// Parses `method(Ord1, Ord2)` into `(method, [orderings])`.
fn parse_op(s: &str) -> Option<(String, Vec<String>)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    let method = s[..open].trim();
    if method.is_empty() {
        return None;
    }
    let ords: Vec<String> = s[open + 1..close]
        .split(',')
        .map(|o| o.trim().to_string())
        .filter(|o| !o.is_empty())
        .collect();
    Some((method.to_string(), ords))
}

/// Extracts `` `NAME` `` from a table cell if NAME is ALL_CAPS_WITH_DIGITS.
fn backticked_caps(cell: &str) -> Option<String> {
    let start = cell.find('`')?;
    let rest = &cell[start + 1..];
    let end = rest.find('`')?;
    let name = &rest[..end];
    is_env_name(name).then(|| name.to_string())
}

/// Is `name` shaped like an environment toggle (`[A-Z][A-Z0-9_]*`)?
pub fn is_env_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# Architecture

## Env-toggle registry

| Variable | Read in | Effect |
|----------|---------|--------|
| `SAGA_NO_INCREMENTAL` | `saga-core::incremental` | full rebuild |
| `RAYON_NUM_THREADS` | `vendor/rayon` | worker count |

## Next section

| `NOT_A_TOGGLE` | other table |
";

    #[test]
    fn parses_names_and_lines() {
        let reg = parse(DOC);
        assert!(reg.found);
        let names: Vec<&str> = reg.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["SAGA_NO_INCREMENTAL", "RAYON_NUM_THREADS"]);
        assert_eq!(reg.entries[0].line, 7);
        assert!(reg.declares("RAYON_NUM_THREADS"));
        assert!(!reg.declares("NOT_A_TOGGLE"));
    }

    #[test]
    fn missing_registry_reports_not_found() {
        let reg = parse("# Nothing here\n\njust prose\n");
        assert!(!reg.found);
        assert!(reg.entries.is_empty());
    }

    const CONC_DOC: &str = "\
# Architecture

#### Atomic protocol registry

| Binding | Declared in | Protocol | Allowed ops |
|---------|-------------|----------|-------------|
| `remaining` | `vendor/rayon/src/lib.rs` | termination count | `load(Acquire)`, `fetch_sub(Release)` |
| `cursor` | `vendor/rayon/src/lib.rs` | claim index | `fetch_add(Relaxed)` |

#### Lock-order registry

| Binding | Declared in | Rank | Protocol |
|---------|-------------|------|----------|
| `deques` | `vendor/rayon/src/lib.rs` | 1 | per-worker queues |
| `slots` | `vendor/rayon/src/lib.rs` | 2 | result slots |
";

    #[test]
    fn concurrency_tables_parse() {
        let reg = parse_concurrency(CONC_DOC);
        assert!(reg.atomics_found && reg.locks_found);
        let r = reg
            .atomic("remaining", "vendor/rayon/src/lib.rs")
            .expect("remaining row");
        assert_eq!(
            r.ops,
            [
                ("load".to_string(), vec!["Acquire".to_string()]),
                ("fetch_sub".to_string(), vec!["Release".to_string()]),
            ]
        );
        assert!(reg.atomic("remaining", "elsewhere.rs").is_none());
        assert_eq!(
            reg.lock("deques", "vendor/rayon/src/lib.rs").unwrap().rank,
            1
        );
        assert_eq!(
            reg.lock("slots", "vendor/rayon/src/lib.rs").unwrap().rank,
            2
        );
    }

    #[test]
    fn concurrency_tables_absent() {
        let reg = parse_concurrency("# Nothing\n");
        assert!(!reg.atomics_found && !reg.locks_found);
        assert!(reg.atomics.is_empty() && reg.locks.is_empty());
    }

    #[test]
    fn op_spec_parsing() {
        assert_eq!(
            parse_op("compare_exchange(SeqCst, Relaxed)"),
            Some((
                "compare_exchange".to_string(),
                vec!["SeqCst".to_string(), "Relaxed".to_string()]
            ))
        );
        assert_eq!(parse_op("noparens"), None);
    }

    #[test]
    fn env_name_shape() {
        assert!(is_env_name("SAGA_X1"));
        assert!(!is_env_name("Saga"));
        assert!(!is_env_name(""));
        assert!(!is_env_name("A-B"));
    }
}
