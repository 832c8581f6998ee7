//! The repository's benchmark: four workloads, the end-to-end metrics a
//! user of bcdb would see, and a per-layer share table from a traced run.
//! See `README.md`.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod sys;
pub mod tape;
pub mod trace;
pub mod workloads;
