//! `basbench compare <parent runs…> -- <change runs…>`: judges a change
//! against its parent from saved run files (`basbench run --out`), using
//! the bounds in `BENCHMARK.json` (read from the current directory).
//!
//! Run files pair up in the order given, per workload: the i-th parent
//! run of a workload against its i-th change run, which should have been
//! run alternately. Per end-to-end metric and workload the verdict is
//! - `worse`: the change's median is worse than the parent's by more than
//!   the bound (the command then exits 1);
//! - `improved`: at least 10 pairs, the change wins at least 9 in 10, and
//!   the medians differ by more than the parent's interquartile range;
//! - `unresolved`: either side's spread (IQR / median) exceeds the bound
//!   and not every change run beats every parent run;
//! - `unchanged` otherwise.
//!
//! Per-layer metrics that read the same on every repetition of every
//! traced run (the deterministic counts) are compared seed by seed and
//! reported as identical or changed.

use crate::json::Json;
use crate::stats::Summary;

struct Run {
    path: String,
    workload: String,
    seed: f64,
    trace: bool,
    correct: bool,
    /// (name, reported value, whether every repetition read the same).
    metrics: Vec<(String, f64, bool)>,
}

impl Run {
    fn load(path: &str) -> Result<Run, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let field = |k: &str| v.get(k).ok_or(format!("{path}: no {k:?}"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or(format!("{path}: metrics is not an object"))?
            .iter()
            .map(|(name, m)| {
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let value = num("value").ok_or(format!("{path}: metric {name} has no value"))?;
                let repeats =
                    num("n") >= Some(2.0) && num("min").is_some() && num("min") == num("max");
                Ok((name.clone(), value, repeats))
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            path: path.to_string(),
            workload: field("workload")?
                .as_str()
                .ok_or(format!("{path}: workload is not a string"))?
                .to_string(),
            seed: field("seed")?
                .as_f64()
                .ok_or(format!("{path}: seed is not a number"))?,
            trace: *field("trace")? == Json::Bool(true),
            correct: *field("correct")? == Json::Bool(true),
            metrics,
        })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == metric)
            .map(|(_, v, _)| *v)
    }

    /// Whether `metric` read the same on every repetition of this run.
    fn repeats(&self, metric: &str) -> bool {
        self.metrics.iter().any(|(n, _, r)| n == metric && *r)
    }
}

/// A gated metric from `BENCHMARK.json`.
struct Gate {
    name: String,
    higher_better: bool,
    bound: f64,
}

fn load_gates(path: &str) -> Result<(Vec<Gate>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |k: &str| {
        v.get(k)
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: no {k} list"))
    };
    let gates = list("end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Gate {
                    name: name.to_string(),
                    higher_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect::<Result<_, _>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok((gates, per_layer))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judges one metric on one workload; `parent[i]` pairs with `change[i]`.
/// Returns the verdict and the change's wins out of the pairs.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    higher_better: bool,
    bound: f64,
) -> (Verdict, usize, usize) {
    let better = |c: f64, p: f64| if higher_better { c > p } else { c < p };
    let (sp, sc) = (Summary::of(parent), Summary::of(change));
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let worse_by = if higher_better {
        (sp.median - sc.median) / sp.median.abs()
    } else {
        (sc.median - sp.median) / sp.median.abs()
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if pairs >= 10
        && wins * 10 >= pairs * 9
        && better(sc.median, sp.median)
        && (sc.median - sp.median).abs() > sp.q3 - sp.q1
    {
        Verdict::Improved
    } else if (sp.spread() > bound || sc.spread() > bound)
        && !change.iter().all(|&c| parent.iter().all(|&p| better(c, p)))
    {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, wins, pairs)
}

/// The seeds of `w`'s traced runs, in first-seen order.
fn seeds(runs: &[Run], w: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for r in runs.iter().filter(|r| r.workload == w && r.trace) {
        if !out.contains(&r.seed) {
            out.push(r.seed);
        }
    }
    out
}

pub fn cmd(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: basbench compare <parent run files...> -- <change run files...>");
        return 2;
    };
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| Run::load(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let loaded = load_gates("BENCHMARK.json")
        .and_then(|g| Ok((g, load(&args[..split])?, load(&args[split + 1..])?)));
    let ((gates, per_layer), parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("basbench compare: {e}");
            return 2;
        }
    };
    if parent.is_empty() || change.is_empty() {
        eprintln!("basbench compare: need parent and change runs on both sides of --");
        return 2;
    }

    let mut failed = false;
    for r in parent.iter().chain(&change).filter(|r| !r.correct) {
        println!("INCORRECT run: {}", r.path);
        failed = true;
    }
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(&change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let side = |runs: &[Run], w: &str, trace: bool, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == w && r.trace == trace)
            .filter_map(|r| r.value(metric))
            .collect()
    };

    for w in &workloads {
        for gate in &gates {
            let (p, c) = (
                side(&parent, w, false, &gate.name),
                side(&change, w, false, &gate.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (verdict, wins, pairs) = judge(&p, &c, gate.higher_better, gate.bound);
            failed |= verdict == Verdict::Worse;
            let (sp, sc) = (Summary::of(&p), Summary::of(&c));
            println!(
                "{w:<16} {:<18} {:<10} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}]  wins {wins}/{pairs}{}",
                gate.name,
                format!("{verdict:?}").to_lowercase(),
                sp.median,
                sp.q1,
                sp.q3,
                sc.median,
                sc.q1,
                sc.q3,
                if pairs < 10 { "  (fewer than 10 pairs: no gain can be claimed)" } else { "" },
            );
        }
        // A per-layer metric is deterministic when it read the same on
        // every repetition of every traced run; it is then compared seed
        // by seed between the sides.
        let (mut identical, mut changed) = (0, Vec::new());
        for metric in &per_layer {
            let traced: Vec<&Run> = parent
                .iter()
                .chain(&change)
                .filter(|r| r.workload == *w && r.trace)
                .collect();
            if traced.is_empty() || !traced.iter().all(|r| r.repeats(metric)) {
                continue;
            }
            let mut differs = None;
            for seed in seeds(&parent, w) {
                let at = |runs: &[Run]| {
                    runs.iter()
                        .find(|r| r.workload == *w && r.trace && r.seed == seed)
                        .and_then(|r| r.value(metric))
                };
                if let (Some(p), Some(c)) = (at(&parent), at(&change)) {
                    if p != c {
                        differs = Some(format!("{metric} (seed {seed}) {p} -> {c}"));
                    }
                }
            }
            match differs {
                Some(d) => changed.push(d),
                None => identical += 1,
            }
        }
        if identical + changed.len() > 0 {
            println!(
                "{w:<16} deterministic per-layer metrics: {identical} identical, {} changed{}",
                changed.len(),
                changed
                    .iter()
                    .map(|c| format!("\n    {c}"))
                    .collect::<String>()
            );
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        // 20% slower on a lower-is-better metric with a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&parent, &slower, false, 0.1).0, Verdict::Worse);
        // 5% faster in every pair: a gain.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.95).collect();
        assert_eq!(judge(&parent, &faster, false, 0.1).0, Verdict::Improved);
        // The same gain with only 5 pairs cannot be claimed.
        assert_eq!(
            judge(&parent[..5], &faster[..5], false, 0.1).0,
            Verdict::Unchanged
        );
        // Identical runs.
        assert_eq!(
            judge(&parent, &parent, true, 0.1),
            (Verdict::Unchanged, 0, 10)
        );
        // Spread wider than the bound on either side.
        let noisy = [1.0, 0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1];
        assert_eq!(judge(&parent, &noisy, true, 0.1).0, Verdict::Unresolved);
    }
}
