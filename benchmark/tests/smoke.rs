//! Every workload end to end at a fiftieth of the data, both modes: no
//! failed operation, every metric `BENCHMARK.json` declares present and
//! well named. These check the instrument, not the numbers.

use irs_benchmark::cluster::Scale;
use irs_benchmark::json::Json;
use irs_benchmark::run::{self, Config, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// One cluster at a time: runs share the process's CPU counters, the
/// allocation counter and the machine.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let text = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn smoke(workload: Workload, traced: bool) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{}-{}", workload.name(), u8::from(traced)));
    let cfg = Config {
        workload,
        seed: 7,
        // Long enough for a p99 (1 000 requests) from the slowest lane.
        seconds: 3.0,
        traced,
        scale: Scale { records: 2_000 },
        out_dir: out_dir.clone(),
    };
    let report = run::run(&cfg).expect("the run completes");
    assert!(report.correct, "checks failed: {:?}", report.problems);
    assert_eq!(report.failed, 0, "fail ratio must be 0");
    assert!(report.attempted > 0);

    let section = if traced { "per_layer" } else { "end_to_end" };
    let want = declared(section);
    for (name, unit) in &want {
        let got = report
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{} lacks declared metric {name}", workload.name()));
        assert_eq!(got.unit, unit, "unit of {name}");
        assert!(got.value.is_finite(), "{name} is {}", got.value);
    }
    assert_eq!(
        report.metrics.len(),
        want.len(),
        "the run reports exactly what BENCHMARK.json declares for {section}"
    );
    assert!(report.metrics.iter().all(|m| well_named(&m.name)));
    if !traced {
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0: {:?}",
            report.metrics
        );
    }

    // The driver's line carries exactly four keys, and the result file
    // reproduces it.
    let line = Json::parse(&report.driver_line()).expect("driver line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let on_disk = Json::parse(&std::fs::read_to_string(&report.path).unwrap()).unwrap();
    assert_eq!(on_disk.get("metrics"), line.get("metrics"));
    for fact in [
        "nproc",
        "kernel",
        "cpu_model",
        "rustc",
        "git_commit",
        "network",
        "fsync_us",
    ] {
        assert!(
            on_disk.get("host").unwrap().get(fact).is_some(),
            "host fact {fact}"
        );
    }
    if traced {
        let trace = out_dir.join(format!("trace-{}.json", workload.name()));
        let trace = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
        // The client-side phases are means per request, so they add up
        // to about the mean request. The scroll lanes time one validate
        // in 64, and a few dozen heavy-tailed samples can sit well off
        // the mean; a wrong divisor is off by 16 or 64.
        let phases: f64 = on_disk
            .get("traced_window")
            .and_then(|w| w.get("client_phase_us_per_request"))
            .and_then(Json::as_obj)
            .expect("phase means")
            .iter()
            .map(|(_, us)| us.as_f64().unwrap())
            .sum();
        let request_us = report
            .metrics
            .iter()
            .find(|m| m.name == "budget.request_us")
            .unwrap()
            .value;
        assert!(
            (0.33..3.0).contains(&(phases / request_us)),
            "phases sum to {phases} us of a {request_us} us request"
        );
    }
    // Nothing but result and trace files stays behind.
    let left: Vec<String> = std::fs::read_dir(&out_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !n.ends_with(".json"))
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn page_clean_end_to_end() {
    smoke(Workload::PageClean, false);
}

#[test]
fn page_clean_per_layer() {
    smoke(Workload::PageClean, true);
}

#[test]
fn page_revoked_cold_end_to_end() {
    smoke(Workload::PageRevokedCold, false);
}

#[test]
fn page_revoked_cold_per_layer() {
    smoke(Workload::PageRevokedCold, true);
}

#[test]
fn scroll_revoked_hot_end_to_end() {
    smoke(Workload::ScrollRevokedHot, false);
}

#[test]
fn scroll_revoked_hot_per_layer() {
    smoke(Workload::ScrollRevokedHot, true);
}

#[test]
fn owner_writes_end_to_end() {
    smoke(Workload::OwnerWrites, false);
}

#[test]
fn owner_writes_per_layer() {
    smoke(Workload::OwnerWrites, true);
}

#[test]
fn benchmark_json_names_every_workload_and_setup_s() {
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert!(declared("end_to_end").contains(&("setup_s".into(), "s".into())));
    for (name, _) in declared("end_to_end").iter().chain(&declared("per_layer")) {
        assert!(well_named(name), "{name}");
    }
}
