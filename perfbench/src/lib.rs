//! The query-refinement benchmark: four closed-loop workloads that drive the
//! workspace's layers through their public functions, check every answer,
//! and report end-to-end metrics (untraced) or per-layer metrics (traced).
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod check;
pub mod direct;
pub mod live;
pub mod measure;
pub mod requests;
pub mod run;
pub mod server;
pub mod tables;
pub mod trace;
pub mod writes;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["tree-search", "large-lp", "live-session", "server-loopback"];

/// Run one workload.
pub fn run_workload(name: &str, cfg: &run::Config) -> Option<run::Outcome> {
    Some(match name {
        "tree-search" => direct::run(cfg, &tables::tree_search()),
        "large-lp" => direct::run(cfg, &tables::large_lp()),
        "live-session" => live::run(cfg),
        "server-loopback" => server::run(cfg),
        _ => return None,
    })
}
