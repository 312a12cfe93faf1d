//! Regenerate the paper's evaluation tables.
//!
//! ```sh
//! cargo run --release -p irs-bench --bin experiments -- all
//! cargo run --release -p irs-bench --bin experiments -- e4
//! cargo run --release -p irs-bench --bin experiments -- e7 --quick
//! cargo run --release -p irs-bench --bin experiments -- e16 --quick --check
//! ```
//!
//! `--check` runs an experiment's acceptance gate instead of rendering
//! its table: exit 0 if the recorded results still hold, exit 1 on
//! drift, exit 2 if the experiment has no gate. The gated drills are
//! E16 and E18–E23; CI runs each with `--quick --check` on two seeds.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden child mode for E19's largest rung: `e19-server <records>`
    // serves a preloaded ledger from a separate process so one fd limit
    // doesn't have to hold both halves of 20 000 sockets.
    if args.first().map(String::as_str) == Some("e19-server") {
        let records: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);
        irs_bench::experiments::e19_connection_scaling::serve_child(records);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if ids.is_empty() {
        eprintln!("usage: experiments <e1..e14|e16..e23|all> [--quick] [--check]");
        std::process::exit(2);
    }
    for id in ids {
        if check {
            match irs_bench::check_experiment(id, quick) {
                Some(Ok(summary)) => println!("{summary}"),
                Some(Err(reason)) => {
                    eprintln!("check failed for '{id}': {reason}");
                    std::process::exit(1);
                }
                None => {
                    eprintln!("experiment '{id}' has no acceptance gate");
                    std::process::exit(2);
                }
            }
            continue;
        }
        match irs_bench::run_experiment(id, quick) {
            Some(output) => println!("{output}"),
            None => {
                eprintln!("unknown experiment '{id}' (expected e1..e14, e16..e23 or all)");
                std::process::exit(2);
            }
        }
    }
}
