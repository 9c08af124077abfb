//! `--compare A B`: two `metrics.tsv` files against the bounds of the
//! contract — the ROADMAP's `bench-diff`.

use std::collections::BTreeMap;

use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::tsv::Row;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    WithinBound,
    /// Worsened by more than the bound.
    Worse,
    /// Missing or not a number on either side, or a zero baseline.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share of `base` by which `new` is worse (negative when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(spec: &MetricSpec, base: Option<f64>, new: Option<f64>) -> Verdict {
    let bound = spec.bound.expect("verdicts are for end-to-end metrics");
    match (base, new) {
        (Some(base), Some(new)) if base.is_finite() && new.is_finite() && base != 0.0 => {
            let w = worsening(spec.better, base, new);
            if w > bound {
                Verdict::Worse
            } else if w < -bound {
                Verdict::Better
            } else {
                Verdict::WithinBound
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// One (workload, end-to-end metric) row of the comparison.
#[derive(Debug, Clone)]
pub struct Line {
    pub workload: &'static str,
    pub metric: &'static MetricSpec,
    pub base: Option<f64>,
    pub new: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub lines: Vec<Line>,
    /// Exact-repeat counts present on both sides with equal seeds.
    pub exact_equal: usize,
    /// `workload metric base new` of every exact-repeat count that differs.
    pub exact_differ: Vec<String>,
    /// Workloads whose two runs used different seeds: their counts are not
    /// comparable for equality.
    pub seed_mismatch: Vec<&'static str>,
}

impl Comparison {
    pub fn worse(&self) -> usize {
        self.lines.iter().filter(|l| l.verdict == Verdict::Worse).count()
    }
}

pub fn compare(base: &[Row], new: &[Row]) -> Comparison {
    let index = |rows: &[Row]| -> BTreeMap<(String, String), f64> {
        rows.iter().map(|r| ((r.workload.clone(), r.metric.clone()), r.value)).collect()
    };
    let (base, new) = (index(base), index(new));
    let get = |side: &BTreeMap<(String, String), f64>, w: &str, m: &str| {
        side.get(&(w.to_string(), m.to_string())).copied()
    };
    let mut out = Comparison::default();
    for w in WORKLOADS {
        for m in END_TO_END {
            let (b, n) = (get(&base, w.name, m.name), get(&new, w.name, m.name));
            out.lines.push(Line {
                workload: w.name,
                metric: m,
                base: b,
                new: n,
                verdict: verdict(m, b, n),
            });
        }
        if get(&base, w.name, "seed") != get(&new, w.name, "seed") {
            out.seed_mismatch.push(w.name);
            continue;
        }
        for m in END_TO_END.iter().chain(PER_LAYER).filter(|m| m.exact) {
            if let (Some(b), Some(n)) = (get(&base, w.name, m.name), get(&new, w.name, m.name)) {
                if b.to_bits() == n.to_bits() {
                    out.exact_equal += 1;
                } else {
                    out.exact_differ.push(format!("{} {} {b} {n}", w.name, m.name));
                }
            }
        }
    }
    out
}

/// The comparison as the table `--compare` prints.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "change", "bound"
    );
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    for l in &c.lines {
        let change = match (l.base, l.new) {
            (Some(b), Some(n)) if b != 0.0 => format!("{:+.1}%", 100.0 * (n - b) / b),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<14} {:<26} {:>14} {:>14} {:>8} {:>5.0}%  {}\n",
            l.workload,
            l.metric.name,
            num(l.base),
            num(l.new),
            change,
            100.0 * l.metric.bound.unwrap_or(0.0),
            l.verdict.name()
        ));
    }
    out.push_str(&format!(
        "exact-repeat counts: {} equal, {} differ\n",
        c.exact_equal,
        c.exact_differ.len()
    ));
    for d in &c.exact_differ {
        out.push_str(&format!("  differs: {d}\n"));
    }
    for w in &c.seed_mismatch {
        out.push_str(&format!("  {w}: seeds differ, exact-repeat counts not compared\n"));
    }
    let count = |v: Verdict| c.lines.iter().filter(|l| l.verdict == v).count();
    out.push_str(&format!(
        "{} better, {} within-bound, {} worse, {} unresolved\n",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static MetricSpec {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn row(workload: &str, metric: &str, value: f64) -> Row {
        Row::new(workload, metric, value, "x")
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let p50 = spec("sort_s_p50"); // lower is better
        let b = p50.bound.unwrap();
        assert_eq!(verdict(p50, Some(1.0), Some(1.0 + 0.5 * b)), Verdict::WithinBound);
        assert_eq!(verdict(p50, Some(1.0), Some(1.0 - 0.5 * b)), Verdict::WithinBound);
        assert_eq!(verdict(p50, Some(1.0), Some(1.0 + 1.1 * b)), Verdict::Worse);
        assert_eq!(verdict(p50, Some(1.0), Some(1.0 - 1.1 * b)), Verdict::Better);
        let rate = spec("sort_mrec_per_s"); // higher is better
        let b = rate.bound.unwrap();
        assert_eq!(verdict(rate, Some(10.0), Some(10.0 - 11.0 * b)), Verdict::Worse);
        assert_eq!(verdict(rate, Some(10.0), Some(10.0 + 11.0 * b)), Verdict::Better);
        assert_eq!(verdict(rate, Some(10.0), Some(10.0 - 5.0 * b)), Verdict::WithinBound);
    }

    #[test]
    fn missing_or_unusable_values_are_unresolved() {
        let p50 = spec("sort_s_p50");
        assert_eq!(verdict(p50, None, Some(1.0)), Verdict::Unresolved);
        assert_eq!(verdict(p50, Some(1.0), None), Verdict::Unresolved);
        assert_eq!(verdict(p50, Some(0.0), Some(1.0)), Verdict::Unresolved);
        assert_eq!(verdict(p50, Some(1.0), Some(f64::NAN)), Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_regressions_and_differing_counts() {
        let base = vec![
            row("u64-fat", "seed", 1.0),
            row("u64-fat", "sort_s_p50", 0.30),
            row("u64-fat", "splitter_rounds_mean", 3.0),
            row("u64-fat", "core.rounds", 3.0),
        ];
        let same = compare(&base, &base);
        assert_eq!(same.worse(), 0);
        assert_eq!((same.exact_equal, same.exact_differ.len()), (2, 0));

        let mut slower = base.clone();
        slower[1].value = 0.40;
        slower[3].value = 4.0;
        let c = compare(&base, &slower);
        assert_eq!(c.worse(), 1);
        assert_eq!(c.exact_differ, vec!["u64-fat core.rounds 3 4".to_string()]);
        assert!(render(&c).contains("worse"));

        let mut reseeded = base.clone();
        reseeded[0].value = 2.0;
        assert!(compare(&base, &reseeded).seed_mismatch.contains(&"u64-fat"));
    }
}
