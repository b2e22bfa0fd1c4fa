//! Simulated (modelled-hardware) quantities and alignment-outcome counts
//! of one pass. With faults off and a fixed seed they repeat exactly, so
//! two passes — or two runs — compare with `==`.

use bioseq::DnaSeq;
use fmindex::FmIndex;
use pim_aligner::{AlignmentOutcome, MappedStrand, PerfReport, PimAlignerConfig, Platform};
use pimsim::Resource;

use crate::inputs;
use crate::report::{sim_round, Report};

/// The paper's Fig. 9c annotation for PIM-Aligner-p (Pd = 2), q/s.
pub const PAPER_PD2_QPS: f64 = 6.7e6;
/// The paper's Fig. 9c annotation for PIM-Aligner-p (Pd = 2), W.
pub const PAPER_PD2_W: f64 = 28.4;

/// Everything deterministic about one pass over a read set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounters {
    /// Reads aligned.
    pub reads: u64,
    /// `align_read` queries (both-strands retries included).
    pub queries: u64,
    /// `LFM` calls in the exact stage.
    pub exact_lfm: u64,
    /// `LFM` calls in the inexact stage.
    pub inexact_lfm: u64,
    /// Busy cycles per resource, in [`Resource::ALL`] order.
    pub busy_cycles: [u64; 4],
    /// Word-line-driving primitives issued.
    pub subarray_activations: u64,
    /// Dynamic energy, pJ (rounded; see [`sim_round`]).
    pub energy_pj: f64,
    /// `PerfReport::throughput_qps` (rounded).
    pub qps: f64,
    /// `PerfReport::throughput_per_watt` (rounded).
    pub qps_per_w: f64,
    /// Reads with a locus.
    pub mapped: u64,
    /// Mapped reads placed on the reverse strand.
    pub reverse: u64,
    /// Reads resolved by the inexact stage.
    pub inexact_reads: u64,
    /// Positions reported over all mapped reads.
    pub positions: u64,
}

impl SimCounters {
    /// Collects the counters of a pass from its report and outcomes.
    pub fn of(report: &PerfReport, outcomes: &[(AlignmentOutcome, MappedStrand)]) -> SimCounters {
        let b = &report.breakdown;
        let busy = |r: Resource| {
            b.resources
                .iter()
                .find(|m| m.name == r.name())
                .map_or(0, |m| m.busy_cycles)
        };
        let mapped: Vec<_> = outcomes.iter().filter(|(o, _)| o.is_mapped()).collect();
        SimCounters {
            reads: outcomes.len() as u64,
            queries: report.queries,
            exact_lfm: b.lfm_by_phase.exact,
            inexact_lfm: b.lfm_by_phase.inexact,
            busy_cycles: Resource::ALL.map(busy),
            subarray_activations: b.subarray_activations,
            energy_pj: sim_round(b.energy_pj),
            qps: sim_round(report.throughput_qps),
            qps_per_w: sim_round(report.throughput_per_watt),
            mapped: mapped.len() as u64,
            reverse: mapped
                .iter()
                .filter(|(_, s)| *s == MappedStrand::Reverse)
                .count() as u64,
            inexact_reads: mapped
                .iter()
                .filter(|(o, _)| matches!(o, AlignmentOutcome::Inexact { .. }))
                .count() as u64,
            positions: mapped
                .iter()
                .map(|(o, _)| o.positions().map_or(0, <[usize]>::len) as u64)
                .sum(),
        }
    }

    fn total_busy(&self) -> u64 {
        self.busy_cycles.iter().sum()
    }

    /// The end-to-end metrics these counters give.
    pub fn put_end_to_end(&self, report: &mut Report) {
        report.put("mapped_frac", self.mapped as f64 / self.reads as f64);
        report.put("sim_qps", self.qps);
        report.put("sim_qps_per_w", self.qps_per_w);
    }

    /// The per-layer metrics these counters give.
    pub fn put_layers(&self, report: &mut Report) {
        let r = |name: Resource| {
            self.busy_cycles[Resource::ALL.iter().position(|&x| x == name).unwrap_or(0)]
        };
        report.put("exact.lfm_calls", self.exact_lfm as f64);
        report.put("inexact.lfm_calls", self.inexact_lfm as f64);
        report.put(
            "aligner.queries_per_read",
            self.queries as f64 / self.reads as f64,
        );
        report.put(
            "aligner.rc_frac",
            self.reverse as f64 / self.mapped.max(1) as f64,
        );
        report.put(
            "locate.positions_per_read",
            self.positions as f64 / self.mapped.max(1) as f64,
        );
        report.put("pimsim.busy_cycles", self.total_busy() as f64);
        report.put("pimsim.compare_cycles", r(Resource::Compare) as f64);
        report.put("pimsim.adder_cycles", r(Resource::Adder) as f64);
        report.put("pimsim.memory_cycles", r(Resource::Memory) as f64);
        report.put(
            "pimsim.cycles_per_query",
            sim_round(self.total_busy() as f64 / self.queries as f64),
        );
        report.put("pimsim.energy_pj", self.energy_pj);
        report.put(
            "pimsim.subarray_activations",
            self.subarray_activations as f64,
        );
    }
}

/// The model-accuracy record: `sample` figure-row reads of `reference`
/// aligned under PIM-Aligner-p (Pd = 2), against the paper's Fig. 9c
/// annotation (6.7 M q/s at 28.4 W).
pub fn put_model_record(report: &mut Report, reference: &DnaSeq, index: FmIndex, sample: usize) {
    let platform = Platform::from_index(reference.clone(), index, PimAlignerConfig::pipelined());
    let reads: Vec<DnaSeq> = inputs::clean_reads(reference, sample, !0)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let (_, totals) = platform
        .align_chunk_parallel(&reads, crate::batch::threads(), 0, true)
        .expect("the model sample aligns");
    let model = platform.batch_report(&totals);
    let err = |got: f64, paper: f64| sim_round(100.0 * (got - paper).abs() / paper);
    report.put(
        "model.qps_err_pct",
        err(model.throughput_qps, PAPER_PD2_QPS),
    );
    report.put("model.power_err_pct", err(model.total_power_w, PAPER_PD2_W));
    report.note(format!(
        "model record (Pd = 2, {sample} figure-row reads): {:.4} M q/s at {:.3} W; paper: 6.7 M q/s at 28.4 W",
        model.throughput_qps / 1e6,
        model.total_power_w
    ));
}
