//! `dsbench`: the end-to-end benchmark of the DeepSqueeze workspace.
//!
//! Four workloads, eight end-to-end metrics and a per-layer attribution,
//! all measured from outside the program (see `README.md`).

pub mod host;
pub mod metrics;
pub mod rss;
pub mod run;
pub mod script;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
