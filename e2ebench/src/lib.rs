//! End-to-end benchmark of the PIM-Aligner reproduction: the batch
//! aligner (FASTQ in, SAM out) and the alignment service, with
//! per-layer attribution from a separate traced run. See `README.md`.

pub mod batch;
pub mod check;
pub mod config;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;
