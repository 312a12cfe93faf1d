//! One module per experiment (see DESIGN.md §4 for the claim → experiment
//! mapping).

pub mod e10_aggregator_overhead;
pub mod e11_tet_adoption;
pub mod e12_filter_comparison;
pub mod e13_viewer_privacy;
pub mod e14_validation_latency;
pub mod e16_availability;
pub mod e17_durability;
pub mod e18_observability;
pub mod e19_connection_scaling;
pub mod e1_page_load;
pub mod e20_replication;
pub mod e21_overload;
pub mod e22_sharded_scaling;
pub mod e23_tiered_filters;
pub mod e2_pinterest_threshold;
pub mod e3_scroll_prototype;
pub mod e4_bloom_sizing;
pub mod e5_proxy_cache;
pub mod e6_delta_traffic;
pub mod e7_watermark_robustness;
pub mod e8_phash_roc;
pub mod e9_reclaim_appeals;
