//! Micro-architecture simulator for the PIM-Aligner platform.
//!
//! This crate models the computational memory of paper §IV–V at the level
//! the evaluation needs: *functionally* (bit-exact contents of a 512×256
//! SOT-MRAM sub-array and the results of its bulk bit-wise operations) and
//! *behaviourally* (a cycle-and-energy ledger priced by the NVSim-lite
//! model from the `mram` crate — the role the paper's MATLAB simulator
//! plays).
//!
//! Components:
//!
//! * [`SubArray`] — the computational sub-array with the Fig. 6a zone
//!   layout (BWT rows, `CRef` rows, vertical marker table, reserved
//!   scratch) and the three bulk primitives `MEM`, `XNOR_Match`,
//!   `IM_ADD`;
//! * [`Dpu`] — the digital processing unit: popcount of match vectors,
//!   interval registers, backtracking state (paper: "DPU's registers
//!   store the state (i.e. symbol, low and high)");
//! * [`CycleLedger`] — per-resource busy-cycle and energy accounting from
//!   which throughput, power, MBR and RUR are derived;
//! * [`FaultInjector`] — seeded fault-campaign sampling (sense misreads,
//!   stuck-at cells, transient row bursts, `IM_ADD` carry faults) with
//!   per-class injection counters;
//! * [`metrics`] — hierarchical per-primitive counters recorded by every
//!   logical-op charge, plus the ring-buffered [`SpanTracer`]
//!   (zero-cost when disabled) behind `PerfReport::breakdown`;
//! * [`host`] — wall-clock telemetry ([`HostHistogram`], [`HostSpanLog`],
//!   [`WorkerStats`], Chrome-trace export): host-side time, kept strictly
//!   apart from the simulated-cycle accounting above;
//! * [`pipeline`] — the Fig. 7 pipeline model with parallelism degree
//!   `Pd`;
//! * [`costs`] — the logical-operation cost table (cycles per
//!   `XNOR_Match`, marker read, 32-bit `IM_ADD`, …) documented in
//!   DESIGN.md §6;
//! * [`KernelCache`] — the rank-checkpoint cache: a host-wall-clock
//!   memoization of the `LFM` compare stage that leaves every simulated
//!   charge byte-identical (DESIGN.md §16).
//!
//! Functional results are validated in two directions: against the
//! `mram` sense-amplifier model (every bulk op agrees with what the
//! analog circuit would produce) and against the `fmindex` software
//! oracle (every `LFM` executed on the platform returns the same bound).

pub mod batch;
pub mod costs;
pub mod host;
pub mod metrics;
pub mod pipeline;
pub mod reference;

mod dpu;
mod faults;
mod kernel_cache;
mod ledger;
mod subarray;

pub use batch::LfmBatch;
pub use dpu::{BacktrackState, Dpu};
pub use faults::{FaultCounters, FaultInjector};
pub use host::{chrome_trace_json, HostEpoch, HostHistogram, HostSpan, HostSpanLog, WorkerStats};
pub use kernel_cache::KernelCache;
pub use ledger::{CycleLedger, KernelCacheCounters, Resource};
pub use metrics::{PrimCounters, Span, SpanTracer};
pub use pipeline::{PipelineCounters, PipelineParams, PipelineSim};
pub use subarray::{validate_functions_against_circuit, MatchMask, SubArray, SubArrayLayout};
