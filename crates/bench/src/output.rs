//! Plain-text table output and JSON result persistence for the
//! `hss-bench` command.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

/// Directory experiment results are written to (`HSS_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HSS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Serialise `value` as pretty JSON to `dir/name`, creating `dir` if
/// needed, and return the path written.  A failed write is an error: the
/// committed results must never pass for freshly regenerated ones.
pub fn save_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, json)?;
    Ok(path)
}

/// Render an ASCII table with a header row.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:<width$}  ",
                cell,
                width = widths.get(i).copied().unwrap_or(8)
            ));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Render `rows`, an array of flat objects as every experiment returns, as
/// an ASCII table: one column per field, headed by the field name.
pub fn render_rows(rows: &Value) -> String {
    let rows = match rows {
        Value::Array(rows) => rows.as_slice(),
        single => std::slice::from_ref(single),
    };
    let headers: Vec<&str> = match rows.first() {
        Some(Value::Object(fields)) => fields.iter().map(|(name, _)| name.as_str()).collect(),
        _ => Vec::new(),
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| match row {
            Value::Object(fields) => fields.iter().map(|(_, v)| cell(v)).collect(),
            scalar => vec![cell(scalar)],
        })
        .collect();
    render_table(&headers, &cells)
}

/// One table cell: strings bare, floats to four significant digits (fixed
/// notation in `[10⁻³, 10⁶)`, scientific outside), everything else as JSON.
fn cell(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        Value::Float(x) if x.is_finite() && *x != 0.0 => {
            let magnitude = x.abs();
            if (1e-3..1e6).contains(&magnitude) {
                let decimals = (3 - magnitude.log10().floor() as i32).max(0) as usize;
                format!("{x:.decimals$}")
            } else {
                format!("{x:.3e}")
            }
        }
        other => serde_json::to_string(other).expect("the JSON printer is total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["p", "rounds"],
            &[
                vec!["1024".to_string(), "4".to_string()],
                vec!["32768".to_string(), "5".to_string()],
            ],
        );
        assert!(s.contains("p      rounds"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn render_rows_heads_columns_with_field_names() {
        let row = |p: u64, s: f64| {
            Value::Object(vec![
                ("p".to_string(), Value::UInt(p)),
                ("seconds".to_string(), Value::Float(s)),
                ("ok".to_string(), Value::Bool(true)),
            ])
        };
        let s = render_rows(&Value::Array(vec![row(4, 0.25), row(32768, 1.6e12)]));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].split_whitespace().collect::<Vec<_>>(), ["p", "seconds", "ok"]);
        assert_eq!(lines[2].split_whitespace().collect::<Vec<_>>(), ["4", "0.2500", "true"]);
        assert_eq!(lines[3].split_whitespace().collect::<Vec<_>>(), ["32768", "1.600e12", "true"]);
    }

    #[test]
    fn save_json_fails_when_the_results_dir_is_a_file() {
        let file = std::env::temp_dir().join(format!("hss-bench-not-a-dir-{}", std::process::id()));
        fs::write(&file, b"x").expect("create the blocking file");
        let result = save_json(&file, "rows.json", &vec![1u64, 2]);
        fs::remove_file(&file).expect("remove the blocking file");
        assert!(result.is_err(), "writing under a regular file must fail");
    }
}
