use irs_benchmark::cluster::{Scale, FULL_RECORDS};
use irs_benchmark::compare;
use irs_benchmark::run::{self, Config, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  irs-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  irs-benchmark compare [--benchmark BENCHMARK.json] <result files A...> -- <result files B...>
workloads: page_clean page_revoked_cold scroll_revoked_hot owner_writes";

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse_run(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::PageClean,
        seed: 7,
        seconds: 10.0,
        traced: false,
        scale: Scale {
            records: FULL_RECORDS,
        },
        out_dir: manifest_dir().join("out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if cfg.seconds.is_nan() || cfg.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cfg)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut benchmark = manifest_dir().join("../BENCHMARK.json");
    let mut rest = args;
    if rest.first().map(String::as_str) == Some("--benchmark") {
        benchmark = PathBuf::from(rest.get(1).ok_or("--benchmark needs a value")?);
        rest = &rest[2..];
    }
    let split = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between the two sets of result files")?;
    let (a, b) = (&rest[..split], &rest[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one result file on each side".into());
    }
    let (report, regressed) = compare::compare(&benchmark, a, b)?;
    print!("{report}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match run_compare(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse_run(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&cfg) {
        Ok(report) => {
            println!(
                "{} seed {} over loopback TCP, {} s window, trace {}",
                cfg.workload.name(),
                cfg.seed,
                cfg.seconds,
                u8::from(cfg.traced)
            );
            for m in &report.metrics {
                println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("  result file: {}", report.path.display());
            for problem in &report.problems {
                eprintln!("FAILED CHECK: {problem}");
            }
            println!("{}", report.driver_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
