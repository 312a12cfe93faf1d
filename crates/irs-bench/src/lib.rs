//! The experiment harness.
//!
//! The paper is a position paper with no numbered tables; its evaluation
//! content is a set of quantitative claims. DESIGN.md §4 assigns each
//! claim an experiment id (E1–E14, plus the implementation drills E16–E23;
//! E15 is retired); this crate holds one module per experiment, each
//! exposing `run(quick: bool) -> String` that regenerates the
//! corresponding table, and the drills a `check(quick)` gate. The
//! `experiments` binary dispatches on the experiment id; `quick` shrinks
//! the workloads for CI smoke runs. Timing lives in the `benchmark/`
//! package (`BENCHMARK.json`); [`rig`] holds what the rigs share.

pub mod experiments;
pub mod rig;
pub mod table;

/// Run an experiment by id ("e1".."e14", "e16".."e23" or "all"). `quick` trades
/// precision for speed (used by tests).
pub fn run_experiment(id: &str, quick: bool) -> Option<String> {
    use experiments::*;
    Some(match id {
        "e1" => e1_page_load::run(quick),
        "e2" => e2_pinterest_threshold::run(quick),
        "e3" => e3_scroll_prototype::run(quick),
        "e4" => e4_bloom_sizing::run(quick),
        "e5" => e5_proxy_cache::run(quick),
        "e6" => e6_delta_traffic::run(quick),
        "e7" => e7_watermark_robustness::run(quick),
        "e8" => e8_phash_roc::run(quick),
        "e9" => e9_reclaim_appeals::run(quick),
        "e10" => e10_aggregator_overhead::run(quick),
        "e11" => e11_tet_adoption::run(quick),
        "e12" => e12_filter_comparison::run(quick),
        "e13" => e13_viewer_privacy::run(quick),
        "e14" => e14_validation_latency::run(quick),
        "e16" => e16_availability::run(quick),
        "e17" => e17_durability::run(quick),
        "e18" => e18_observability::run(quick),
        "e19" => e19_connection_scaling::run(quick),
        "e20" => e20_replication::run(quick),
        "e21" => e21_overload::run(quick),
        "e22" => e22_sharded_scaling::run(quick),
        "e23" => e23_tiered_filters::run(quick),
        "all" => {
            let mut out = String::new();
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "e14", "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23",
            ] {
                out.push_str(&run_experiment(id, quick).expect("known id"));
                out.push('\n');
            }
            out
        }
        _ => return None,
    })
}

/// Run an experiment's acceptance gate, where one exists. Returns
/// `None` for experiments without a gate, `Some(Ok(summary))` when the
/// recorded results still hold, and `Some(Err(reason))` on drift.
pub fn check_experiment(id: &str, quick: bool) -> Option<Result<String, String>> {
    match id {
        "e16" => Some(experiments::e16_availability::check(quick)),
        "e18" => Some(experiments::e18_observability::check(quick)),
        "e19" => Some(experiments::e19_connection_scaling::check(quick)),
        "e20" => Some(experiments::e20_replication::check(quick)),
        "e21" => Some(experiments::e21_overload::check(quick)),
        "e22" => Some(experiments::e22_sharded_scaling::check(quick)),
        "e23" => Some(experiments::e23_tiered_filters::check(quick)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_experiment_is_none() {
        assert!(super::run_experiment("e99", true).is_none());
    }
}
