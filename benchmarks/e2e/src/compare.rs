//! `--compare A.json B.json`: is result file B no worse than A?
//!
//! Per workload and end-to-end metric it prints both medians, how much
//! worse B is as a share of A's median, and the metric's bound. A metric
//! whose quartiles lie further apart than the bound, in either file, is
//! `unresolved`: the runs cannot tell a change of that size from noise.

use crate::json::{parse_json, Json};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;
use std::error::Error;
use std::path::Path;

/// One metric of one workload, as both files report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sides {
    pub a_median: f64,
    pub b_median: f64,
    /// Quartile distance over median, the larger of the two files'.
    pub spread: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Unresolved,
    Worse,
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(metric: &EndToEnd, sides: &Sides) -> f64 {
    let delta = if metric.def.higher_is_better {
        sides.a_median - sides.b_median
    } else {
        sides.b_median - sides.a_median
    };
    delta / sides.a_median.abs()
}

pub fn verdict(metric: &EndToEnd, sides: &Sides) -> Verdict {
    if worsening(metric, sides) > metric.bound {
        Verdict::Worse
    } else if sides.spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Json, Box<dyn Error>> {
    let doc = parse_json(&std::fs::read_to_string(path)?)?;
    if doc.get("quick") != Some(&Json::Bool(false)) {
        return Err(format!(
            "{} is a --quick smoke result, not a measurement",
            path.display()
        )
        .into());
    }
    Ok(doc)
}

fn untraced<'a>(doc: &'a Json, workload: &str) -> Result<&'a Json, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("untraced"))
        .ok_or_else(|| format!("no untraced result for workload {workload}"))
}

fn number(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn spread(summary: &Json) -> Result<f64, String> {
    let median = number(summary, "median")?;
    Ok((number(summary, "q3")? - number(summary, "q1")?) / median.abs())
}

/// Prints the comparison; `Ok(true)` when B is within every bound, fails no
/// larger share of its operations, and reproduces A's learning history.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, Box<dyn Error>> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let mut acceptable = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in &WORKLOADS {
        let (a, b) = (
            untraced(&a_doc, workload.name)?,
            untraced(&b_doc, workload.name)?,
        );
        for metric in &END_TO_END {
            let name = metric.def.name;
            let summary = |side: &Json| {
                side.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .cloned()
                    .ok_or_else(|| format!("{}: no end-to-end metric {name}", workload.name))
            };
            let (sa, sb) = (summary(a)?, summary(b)?);
            let sides = Sides {
                a_median: number(&sa, "median")?,
                b_median: number(&sb, "median")?,
                spread: spread(&sa)?.max(spread(&sb)?),
            };
            let verdict = verdict(metric, &sides);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                workload.name,
                name,
                sides.a_median,
                sides.b_median,
                100.0 * worsening(metric, &sides),
                100.0 * metric.bound,
                match verdict {
                    Verdict::Within => "within bound".to_string(),
                    Verdict::Unresolved =>
                        format!("unresolved (quartiles {:.1}% apart)", 100.0 * sides.spread),
                    Verdict::Worse => "WORSE THAN BOUND".to_string(),
                }
            );
        }
        let failed_share = |side: &Json| -> Result<f64, String> {
            Ok(number(side, "failed")? / number(side, "attempted")?)
        };
        let (fa, fb) = (failed_share(a)?, failed_share(b)?);
        if fb > fa {
            acceptable = false;
            println!(
                "{:<16} failed share rose from {fa:.4} to {fb:.4}",
                workload.name
            );
        }
        // With the same seed the learning outcome is deterministic and a
        // change that leaves the arithmetic alone must reproduce it exactly.
        if number(a, "seed")? == number(b, "seed")? {
            for key in ["history_checksum", "dropped"] {
                if a.get(key) != b.get(key) {
                    acceptable = false;
                    println!(
                        "{:<16} {key} differs: {:?} vs {:?}",
                        workload.name,
                        a.get(key),
                        b.get(key)
                    );
                }
            }
        }
    }
    println!(
        "{}",
        if acceptable {
            "B is within every bound of A"
        } else {
            "B IS NOT ACCEPTABLE AGAINST A"
        }
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.def.name == name).unwrap()
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let sides = Sides {
            a_median: 100.0,
            b_median: 110.0,
            spread: 0.0,
        };
        assert!((worsening(metric("round_ms"), &sides) - 0.1).abs() < 1e-12);
        assert!((worsening(metric("updates_per_s"), &sides) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts_rank_worse_over_unresolved_over_within() {
        let m = metric("round_ms");
        let at = |b_median: f64, spread: f64| {
            verdict(
                m,
                &Sides {
                    a_median: 100.0,
                    b_median,
                    spread,
                },
            )
        };
        assert_eq!(at(100.0 * (1.0 + m.bound) - 0.01, 0.0), Verdict::Within);
        assert_eq!(at(50.0, 0.0), Verdict::Within);
        assert_eq!(at(100.0 * (1.0 + m.bound) + 0.01, 0.0), Verdict::Worse);
        assert_eq!(at(101.0, m.bound + 0.01), Verdict::Unresolved);
        assert_eq!(at(200.0, 1.0), Verdict::Worse);
    }
}
