//! The repo's benchmark: browser → proxy → ledger over loopback TCP,
//! four workloads, a budget per layer. See `README.md` beside this
//! package for what each number means and how to read the output.

pub mod cluster;
pub mod compare;
pub mod host;
pub mod json;
pub mod load;
pub mod micro;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;
