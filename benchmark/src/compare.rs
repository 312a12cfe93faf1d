//! `irs-benchmark compare <runs A…> -- <runs B…>`: for every workload and
//! end-to-end metric, both sides' medians and quartiles, the ratio with
//! its base, and a verdict against the bound in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so they cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The end-to-end metrics of a parsed `BENCHMARK.json`.
pub fn declared_end_to_end(benchmark: &Json) -> Result<Vec<Declared>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry lacks \"{key}\""))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks \"bound\"")?,
            })
        })
        .collect()
}

/// One side's runs of one workload: how many result files, and per
/// metric one value from each file that reports it.
#[derive(Debug, Default)]
pub struct WorkloadRuns {
    pub files: usize,
    pub metrics: BTreeMap<String, Vec<f64>>,
}

pub type Runs = BTreeMap<String, WorkloadRuns>;

/// Add one result file's metrics to `runs`. A run that failed a check or
/// an operation measured something else than the workload: it is refused,
/// not compared.
pub fn add_result(runs: &mut Runs, path: &str, text: &str) -> Result<(), String> {
    let object = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let workload = object
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: a result without \"workload\""))?;
    if object.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{path}: the run is not marked correct"));
    }
    if object.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err(format!("{path}: the run has failed operations"));
    }
    let metrics = object
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: a result without \"metrics\""))?;
    let slot = runs.entry(workload.to_string()).or_default();
    slot.files += 1;
    for (name, metric) in metrics {
        // A NaN was written as null: the metric is then missing from this
        // run, which `compare_runs` refuses.
        if let Some(value) = metric.get("value").and_then(Json::as_f64) {
            slot.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(())
}

/// Every result file of one side, one result object per file.
pub fn load_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        add_result(&mut runs, path, &text)?;
    }
    Ok(runs)
}

fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::iqr_share(values)
    }
}

/// Judge B against A for one metric.
pub fn judge(metric: &Declared, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = if metric.higher_is_better {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let noisy = spread(a).max(spread(b)) > metric.bound;
    if !noisy {
        return if worse_by > metric.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // Too noisy to read medians: only a clean separation decides.
    if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
        Verdict::Ok
    } else if worse_by > metric.bound && a.iter().all(|&x| b.iter().all(|&y| better(x, y))) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn quartile_text(values: &[f64]) -> String {
    if values.len() < 2 {
        return "-".into();
    }
    let (q1, q3) = stats::quartiles(values);
    format!("{q1:.4}..{q3:.4}")
}

/// Compare two sets of result files. Returns the report and whether any
/// pairing regressed.
pub fn compare(benchmark: &Path, a: &[String], b: &[String]) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("read {}: {e}", benchmark.display()))?;
    let declared = declared_end_to_end(&Json::parse(&text)?)?;
    compare_runs(&declared, &load_runs(a)?, &load_runs(b)?)
}

/// Judge every workload and declared metric of B against A. Both sides
/// must hold the same workloads, and every run of each every declared
/// metric: a gap is an error, never a silent pass.
pub fn compare_runs<'a>(
    declared: &[Declared],
    runs_a: &'a Runs,
    runs_b: &'a Runs,
) -> Result<(String, bool), String> {
    for (have, lack, side) in [(runs_a, runs_b, "B"), (runs_b, runs_a, "A")] {
        if let Some(workload) = have.keys().find(|w| !lack.contains_key(*w)) {
            return Err(format!("side {side} has no result for workload {workload}"));
        }
    }
    let mut report = String::new();
    let mut regressed = false;
    let _ = writeln!(
        report,
        "{:<20} {:<20} {:>12} {:>24} {:>12} {:>24} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    for (workload, side_a) in runs_a {
        let side_b = &runs_b[workload];
        for metric in declared {
            let values = |side: &str, runs: &'a WorkloadRuns| match runs.metrics.get(&metric.name) {
                Some(v) if v.len() == runs.files => Ok(v),
                found => Err(format!(
                    "side {side}, {workload}: {} of {} runs report {}",
                    found.map_or(0, Vec::len),
                    runs.files,
                    metric.name
                )),
            };
            let (va, vb) = (values("A", side_a)?, values("B", side_b)?);
            let verdict = judge(metric, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            let _ = writeln!(
                report,
                "{:<20} {:<20} {:>12.4} {:>24} {:>12.4} {:>24} {:>9.4} {:>6.2}  {} (n={}+{}, {} {})",
                workload,
                metric.name,
                med_a,
                quartile_text(va),
                med_b,
                quartile_text(vb),
                med_b / med_a,
                metric.bound,
                verdict.label(),
                va.len(),
                vb.len(),
                metric.unit,
                if metric.higher_is_better { "higher is better" } else { "lower is better" },
            );
        }
    }
    let _ = writeln!(report, "B/A: B's median over A's; A is the base.");
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qps(bound: f64) -> Declared {
        Declared {
            name: "validate_qps".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(
            judge(&qps(0.10), &a, &[98.0, 97.0, 99.0, 98.5, 98.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&qps(0.10), &a, &[80.0, 81.0, 79.0, 80.5, 80.0]),
            Verdict::Regressed
        );
        // B swings by half its median: medians say nothing…
        let wild = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&qps(0.10), &a, &wild), Verdict::Unresolved);
        // …unless every run of B beats every run of A,
        let fast = [150.0, 300.0, 200.0, 160.0, 280.0];
        assert_eq!(judge(&qps(0.10), &a, &fast), Verdict::Ok);
        // or every run of A beats every run of B by more than the bound.
        let slow = [20.0, 60.0, 40.0, 25.0, 55.0];
        assert_eq!(judge(&qps(0.10), &a, &slow), Verdict::Regressed);
        // Lower-is-better flips the direction.
        let p50 = Declared {
            name: "request_p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(
            judge(&p50, &[40.0, 41.0], &[50.0, 51.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(&p50, &[40.0, 41.0], &[30.0, 31.0]), Verdict::Ok);
    }

    #[test]
    fn reads_declarations_from_benchmark_json() {
        let json = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        assert_eq!(
            declared_end_to_end(&json).unwrap(),
            vec![Declared {
                name: "setup_s".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: 0.25
            }]
        );
        assert!(declared_end_to_end(&Json::parse("{}").unwrap()).is_err());
    }

    fn result(workload: &str, correct: bool, failed: u64, qps: &str) -> String {
        format!(
            r#"{{"workload":"{workload}","correct":{correct},"failed":{failed},
                "metrics":{{"validate_qps":{{"value":{qps},"unit":"1/s"}}}}}}"#
        )
    }

    fn side(results: &[String]) -> Result<Runs, String> {
        let mut runs = Runs::new();
        for text in results {
            add_result(&mut runs, "r.json", text)?;
        }
        Ok(runs)
    }

    #[test]
    fn refuses_runs_that_failed_and_gaps_between_the_sides() {
        let declared = [qps(0.10)];
        let good = |w: &str, v: &str| result(w, true, 0, v);
        let a = side(&[good("page_clean", "100"), good("owner_writes", "10")]).unwrap();

        let same = compare_runs(&declared, &a, &a).unwrap();
        assert!(!same.1 && same.0.contains("ok"));
        let slow = side(&[good("page_clean", "80"), good("owner_writes", "10")]).unwrap();
        assert!(compare_runs(&declared, &a, &slow).unwrap().1);

        // A run that failed its checks, or any operation, is not compared.
        assert!(side(&[result("page_clean", false, 0, "100")]).is_err());
        assert!(side(&[result("page_clean", true, 3, "100")]).is_err());
        assert!(side(&[r#"{"workload":"page_clean","metrics":{}}"#.to_string()]).is_err());
        // One object per file: the driver's bare line names no workload.
        assert!(
            side(&[r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#.into()]).is_err()
        );

        // A workload on one side only, whichever side.
        let half = side(&[good("page_clean", "100")]).unwrap();
        assert!(compare_runs(&declared, &a, &half).is_err());
        assert!(compare_runs(&declared, &half, &a).is_err());
        // A declared metric missing from a run (a NaN is written as null).
        let nan = side(&[good("page_clean", "null"), good("owner_writes", "10")]).unwrap();
        assert!(compare_runs(&declared, &a, &nan).is_err());
        assert!(compare_runs(&declared, &nan, &a).is_err());
        let undeclared = [
            qps(0.10),
            Declared {
                name: "setup_s".into(),
                ..qps(0.25)
            },
        ];
        assert!(compare_runs(&undeclared, &a, &a).is_err());
    }
}
