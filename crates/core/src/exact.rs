//! Exact alignment-in-memory (paper Algorithm 1).

use bioseq::DnaSeq;
use fmindex::SaInterval;
use pimsim::{CycleLedger, Dpu, FaultInjector, KernelCache};

use crate::mapping::{LfmBatchScratch, LfmRequest, MappedIndex};

/// Statistics of one exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactStats {
    /// `LFM` invocations issued (two per consumed base).
    pub lfm_calls: u64,
    /// Read bases consumed before success or early failure.
    pub bases_consumed: usize,
}

/// Runs Algorithm 1 on the platform: initialises the DPU interval to
/// `[0, N)`, walks the read right-to-left, and updates both bounds with
/// the in-memory `LFM` procedure, stopping early when `low ≥ high`.
///
/// The index is shared and immutable; the caller supplies the session's
/// own fault-injection stream, DPU, optional rank-checkpoint cache
/// (threaded into every `LFM`, see [`MappedIndex::lfm`]) and ledger.
///
/// Returns the final interval (empty = no exact match) plus statistics
/// for the performance model; both, and every simulated charge, are
/// byte-identical with and without the cache.
pub fn exact_search(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    mut cache: Option<&mut KernelCache>,
    ledger: &mut CycleLedger,
) -> (SaInterval, ExactStats) {
    dpu.init_interval(mapped.index().text_len() as u32, ledger);
    let mut stats = ExactStats {
        lfm_calls: 0,
        bases_consumed: 0,
    };
    for &nt in read.iter().rev() {
        let t_lfm = dpu.tracer().start(ledger);
        let low = mapped.lfm(
            nt,
            dpu.low() as usize,
            injector,
            cache.as_deref_mut(),
            ledger,
        );
        let high = mapped.lfm(
            nt,
            dpu.high() as usize,
            injector,
            cache.as_deref_mut(),
            ledger,
        );
        dpu.set_interval(low, high, ledger);
        dpu.tracer_mut().record("lfm", t_lfm, ledger);
        stats.lfm_calls += 2;
        stats.bases_consumed += 1;
        if dpu.interval_empty() {
            // Algorithm 1: "if low ≥ high, it has failed to find a match".
            return (SaInterval::new(low, low), stats);
        }
    }
    (SaInterval::new(dpu.low(), dpu.high()), stats)
}

/// Runs Algorithm 1 for `reads.len()` reads in lock-step through the
/// batched kernel: at each step every still-active read contributes its
/// `low` then its `high` LFM request (read order), and the whole step
/// executes as one [`MappedIndex::lfm_batch`] so plane loads shared
/// across reads are charged once. Results and statistics are
/// bit-identical to running [`exact_search`] per read — including under
/// seeded faults when `injectors` holds one per-read injector (indexed
/// by read; pass an empty slice for a clean run), because the per-read
/// draw order (low before high, steps ascending) is preserved.
///
/// Each read gets its own transient DPU (interval registers), charged
/// exactly like the single-read path: one `IndexUpdate` at
/// initialisation, one per consumed step. Reads drop out of the batch
/// on early failure (`low ≥ high`) or exhaustion, exactly like the
/// single-read early exit. The optional rank-checkpoint `cache` feeds
/// every step's shared compare stage (see
/// [`MappedIndex::lfm_batch_into`]) without moving a result or charge.
pub fn exact_search_batch(
    mapped: &MappedIndex,
    injectors: &mut [FaultInjector],
    reads: &[&DnaSeq],
    mut cache: Option<&mut KernelCache>,
    ledger: &mut CycleLedger,
) -> Vec<(SaInterval, ExactStats)> {
    let n = mapped.index().text_len() as u32;
    let mut dpus: Vec<Dpu> = (0..reads.len()).map(|_| Dpu::new(mapped.model())).collect();
    let mut stats = vec![
        ExactStats {
            lfm_calls: 0,
            bases_consumed: 0,
        };
        reads.len()
    ];
    let mut results: Vec<Option<SaInterval>> = vec![None; reads.len()];
    // Right-to-left base order per read, indexable by step.
    let suffixes: Vec<Vec<bioseq::Base>> = reads
        .iter()
        .map(|r| r.iter().rev().copied().collect())
        .collect();
    for (r, dpu) in dpus.iter_mut().enumerate() {
        dpu.init_interval(n, ledger);
        if suffixes[r].is_empty() {
            results[r] = Some(SaInterval::new(dpu.low(), dpu.high()));
        }
    }
    let max_len = suffixes.iter().map(Vec::len).max().unwrap_or(0);
    let mut requests = Vec::new();
    let mut active = Vec::new();
    let mut scratch = LfmBatchScratch::new();
    let mut sums = Vec::new();
    for step in 0..max_len {
        requests.clear();
        active.clear();
        for (r, suffix) in suffixes.iter().enumerate() {
            if results[r].is_some() {
                continue;
            }
            let nt = suffix[step];
            requests.push(LfmRequest {
                stream: r,
                nt,
                id: dpus[r].low() as usize,
            });
            requests.push(LfmRequest {
                stream: r,
                nt,
                id: dpus[r].high() as usize,
            });
            active.push(r);
        }
        if requests.is_empty() {
            break;
        }
        mapped.lfm_batch_into(
            &requests,
            injectors,
            cache.as_deref_mut(),
            ledger,
            &mut scratch,
            &mut sums,
        );
        for (k, &r) in active.iter().enumerate() {
            let (low, high) = (sums[2 * k], sums[2 * k + 1]);
            dpus[r].set_interval(low, high, ledger);
            stats[r].lfm_calls += 2;
            stats[r].bases_consumed += 1;
            if dpus[r].interval_empty() {
                // Algorithm 1: "if low ≥ high, it has failed to find a
                // match".
                results[r] = Some(SaInterval::new(low, low));
            } else if step + 1 == suffixes[r].len() {
                results[r] = Some(SaInterval::new(low, high));
            }
        }
    }
    results
        .into_iter()
        .zip(stats)
        .map(|(interval, st)| (interval.expect("every read resolves"), st))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimAlignerConfig;
    use readsim::genome;

    fn setup(reference: &DnaSeq) -> (MappedIndex, FaultInjector, Dpu, CycleLedger) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(reference, &config);
        let injector = mapped.session_injector();
        let dpu = Dpu::new(*config.model());
        (mapped, injector, dpu, CycleLedger::new())
    }

    #[test]
    fn paper_example_cta() {
        let reference: DnaSeq = "TGCTA".parse().unwrap();
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read: DnaSeq = "CTA".parse().unwrap();
        let (interval, stats) =
            exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
        assert_eq!(interval.count(), 1);
        assert_eq!(mapped.locate(interval, &mut ledger), vec![2]);
        assert_eq!(stats.lfm_calls, 6);
        assert_eq!(stats.bases_consumed, 3);
    }

    #[test]
    fn platform_agrees_with_software_search_on_random_reads() {
        let reference = genome::uniform(50_000, 11);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        for start in (0..49_000).step_by(1_777) {
            let read = reference.subseq(start..start + 60);
            let (interval, _) =
                exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
            let sw = oracle.backward_search(&read);
            match sw {
                Some(expected) => assert_eq!(interval, expected, "read at {start}"),
                None => assert!(interval.is_empty()),
            }
        }
    }

    #[test]
    fn early_exit_saves_lfm_calls() {
        // A read whose suffix never occurs fails immediately.
        let reference: DnaSeq = "AAAAAAAAAA".parse().unwrap();
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read: DnaSeq = "AAAAAAAACT".parse().unwrap(); // rightmost T absent
        let (interval, stats) =
            exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
        assert!(interval.is_empty());
        assert_eq!(stats.bases_consumed, 1);
        assert_eq!(stats.lfm_calls, 2);
    }

    #[test]
    fn batched_search_matches_single_reads_exactly() {
        let reference = genome::uniform(60_000, 21);
        let (mapped, mut injector, mut dpu, mut _ledger) = setup(&reference);
        // Mixed lengths + one guaranteed miss + one empty read.
        let mut reads: Vec<DnaSeq> = (0..6)
            .map(|k| reference.subseq(k * 7_919..k * 7_919 + 40 + 10 * k))
            .collect();
        reads.push("".parse().unwrap());
        let refs: Vec<&DnaSeq> = reads.iter().collect();
        let mut batch_ledger = CycleLedger::new();
        let batched = exact_search_batch(&mapped, &mut [], &refs, None, &mut batch_ledger);
        assert_eq!(batched.len(), reads.len());
        let mut single_ledger = CycleLedger::new();
        for (read, (interval, stats)) in reads.iter().zip(&batched) {
            let (expected, expected_stats) = exact_search(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                None,
                &mut single_ledger,
            );
            assert_eq!(*interval, expected);
            assert_eq!(*stats, expected_stats);
        }
        // The lock-step batch shares early-step plane loads (every read
        // starts from [0, N), so step 0 groups collapse hard).
        assert!(batch_ledger.total_busy_cycles() < single_ledger.total_busy_cycles());
        // ...but issues exactly the same per-request LFM work.
        use pimsim::costs::LogicalOp;
        for op in [
            LogicalOp::Popcount,
            LogicalOp::ImAdd32,
            LogicalOp::IndexUpdate,
        ] {
            assert_eq!(
                batch_ledger.primitives().count(op),
                single_ledger.primitives().count(op),
                "{op:?} must reconcile exactly"
            );
        }
    }

    #[test]
    fn batched_search_replays_per_read_fault_streams() {
        use mram::faults::{FaultCampaign, FaultModel};
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(41)
                .with_model(FaultModel::with_probabilities(0.02, 0.0))
                .with_transient_row_rate(0.05)
                .with_carry_fault_prob(0.02),
        );
        let reference = genome::uniform(30_000, 23);
        let mapped = MappedIndex::build(&reference, &config);
        let reads: Vec<DnaSeq> = (0..4)
            .map(|k| reference.subseq(k * 5_003..k * 5_003 + 50))
            .collect();
        let refs: Vec<&DnaSeq> = reads.iter().collect();
        let mut injectors: Vec<FaultInjector> = (0..reads.len())
            .map(|r| mapped.read_injector(r as u64))
            .collect();
        let mut ledger = CycleLedger::new();
        let batched = exact_search_batch(&mapped, &mut injectors, &refs, None, &mut ledger);
        for (r, read) in reads.iter().enumerate() {
            let mut oracle = mapped.read_injector(r as u64);
            let mut dpu = Dpu::new(mapped.model());
            let (expected, expected_stats) =
                exact_search(&mapped, &mut oracle, &mut dpu, read, None, &mut ledger);
            assert_eq!(batched[r], (expected, expected_stats), "read {r}");
            assert_eq!(injectors[r].counters(), oracle.counters(), "read {r}");
        }
    }

    #[test]
    fn multi_subarray_reads_cross_boundaries() {
        // Genome spanning 3 sub-arrays; reads straddling 32768-base
        // boundaries must still match.
        let reference = genome::uniform(80_000, 13);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        assert!(mapped.subarray_count() >= 3);
        for &start in &[32_700usize, 32_760, 65_500] {
            let read = reference.subseq(start..start + 100);
            let (interval, _) =
                exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
            assert!(!interval.is_empty(), "boundary read at {start} failed");
            assert!(mapped.locate(interval, &mut ledger).contains(&start));
        }
    }
}
