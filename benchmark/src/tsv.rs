//! `metrics.tsv`: one `workload<TAB>metric<TAB>value<TAB>unit` row per
//! metric.  Written beside `results.json` because the vendored
//! `serde_json` can only serialise; `--compare` reads this form back.

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

impl Row {
    pub fn new(workload: &str, metric: &str, value: f64, unit: &str) -> Self {
        Self { workload: workload.into(), metric: metric.into(), value, unit: unit.into() }
    }
}

const HEADER: &str = "workload\tmetric\tvalue\tunit";

/// Serialise `rows` under a header line.  Values print with every digit
/// (`f64`'s shortest round-trip form), so [`parse`] returns them bitwise.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{}\t{}\t{}\t{}\n", r.workload, r.metric, r.value, r.unit));
    }
    out
}

/// Parse what [`render`] wrote; the header and blank lines are skipped.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line == HEADER {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [workload, metric, value, unit] = fields[..] else {
            return Err(format!(
                "line {}: expected 4 tab-separated fields, got {}",
                i + 1,
                fields.len()
            ));
        };
        let value: f64 =
            value.parse().map_err(|e| format!("line {}: value {value:?}: {e}", i + 1))?;
        rows.push(Row::new(workload, metric, value, unit));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_digit() {
        let rows = vec![
            Row {
                workload: "u64-fat".into(),
                metric: "sort_s_p50".into(),
                value: 0.1 + 0.2,
                unit: "s".into(),
            },
            Row {
                workload: "u64-spill".into(),
                metric: "extsort.bytes_read".into(),
                value: 133_128_192.0,
                unit: "B".into(),
            },
            Row {
                workload: "tera-fat".into(),
                metric: "trace.coverage".into(),
                value: f64::NAN,
                unit: "ratio".into(),
            },
        ];
        let back = parse(&render(&rows)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], rows[0]);
        assert_eq!(back[1], rows[1]);
        assert!(back[2].value.is_nan());
    }

    #[test]
    fn malformed_rows_are_rejected_with_their_line() {
        assert!(parse("a\tb\t1.0\n").unwrap_err().contains("line 1"));
        assert!(parse("workload\tmetric\tvalue\tunit\na\tb\tfast\ts\n")
            .unwrap_err()
            .contains("line 2"));
        assert_eq!(parse("\n").unwrap(), vec![]);
    }
}
