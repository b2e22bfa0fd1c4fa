//! Inexact alignment-in-memory (paper Algorithm 2) with DPU-controlled
//! backtracking.
//!
//! "To handle one and two mismatch alignment based on input-z, we exploit
//! an additional control logic (in DPU) to perform bi-directional
//! backtracking. For each allowed mismatch, DPU's registers store the
//! state (i.e. symbol, low and high)." The search is implemented as an
//! explicit DFS over the DPU's backtracking register file — the hardware
//! form of `fmindex`'s recursive Algorithm 2 — and is tested for
//! interval-exact agreement with that software oracle.

use std::collections::HashMap;

use bioseq::{Base, DnaSeq};
use fmindex::{EditBudget, InexactHit, SaInterval};
use pimsim::{CycleLedger, Dpu, FaultInjector};

use crate::mapping::MappedIndex;

/// Statistics of one inexact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InexactStats {
    /// `LFM` invocations issued.
    pub lfm_calls: u64,
    /// Backtracking states explored.
    pub states_explored: u64,
    /// Peak DPU register-file depth.
    pub max_stack_depth: usize,
}

/// One explicit DFS frame: read position, remaining budget, interval.
#[derive(Debug, Clone, Copy)]
struct Frame {
    i: isize,
    z: i16,
    low: u32,
    high: u32,
}

/// Runs Algorithm 2 on the platform exhaustively: finds **all** SA
/// intervals matching `read` with at most `budget.max_diffs()`
/// differences, driving every interval update through the in-memory
/// `LFM` procedure and the DPU state registers.
///
/// Hits are deduplicated per interval (minimum difference count) and
/// sorted `(diffs, interval)`, matching the software oracle's contract.
///
/// Exhaustive enumeration is the oracle mode; the production alignment
/// path uses [`inexact_search_first`], which mirrors the hardware's
/// bounded backtracking.
pub fn inexact_search(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    ledger: &mut CycleLedger,
) -> (Vec<InexactHit>, InexactStats) {
    search_impl(mapped, injector, dpu, read, budget, ledger, false)
}

/// First-accept variant of Algorithm 2: depth-first with the match
/// branch explored first, returning as soon as one full-length interval
/// is found. This is the hardware-faithful production mode — the DPU's
/// small register file bounds the backtracking, and the paper's platform
/// reports hits as they are located rather than enumerating the entire
/// edit neighbourhood.
///
/// The returned hit (if any) is always a member of the exhaustive hit
/// set, though not necessarily the minimum-difference one.
pub fn inexact_search_first(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    ledger: &mut CycleLedger,
) -> (Option<InexactHit>, InexactStats) {
    let (hits, stats) = search_impl(mapped, injector, dpu, read, budget, ledger, true);
    (hits.into_iter().next(), stats)
}

#[allow(clippy::too_many_arguments)]
fn search_impl(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    ledger: &mut CycleLedger,
    first_only: bool,
) -> (Vec<InexactHit>, InexactStats) {
    let mut stats = InexactStats::default();
    let mut best: HashMap<SaInterval, u8> = HashMap::new();
    let n = mapped.index().text_len() as u32;
    let mut stack = vec![Frame {
        i: read.len() as isize - 1,
        z: budget.max_diffs() as i16,
        low: 0,
        high: n,
    }];
    dpu.init_interval(n, ledger);
    'dfs: while let Some(frame) = stack.pop() {
        stats.states_explored += 1;
        stats.max_stack_depth = stats.max_stack_depth.max(stack.len() + 1);
        if frame.z < 0 {
            continue;
        }
        if frame.i < 0 {
            let diffs = budget.max_diffs() - frame.z as u8;
            let interval = SaInterval::new(frame.low, frame.high);
            best.entry(interval)
                .and_modify(|d| *d = (*d).min(diffs))
                .or_insert(diffs);
            if first_only {
                break 'dfs;
            }
            continue;
        }
        // Insertion in the read: skip read[i] without an LFM step.
        // Pushed first so cheaper (match) branches are popped earlier.
        if budget.allows_indels() {
            stack.push(Frame {
                i: frame.i - 1,
                z: frame.z - 1,
                ..frame
            });
        }
        let current = read[frame.i as usize];
        // Defer the match branch so it lands on top of the stack and is
        // explored first (depth-first greedy continuation).
        let mut match_branch: Option<Frame> = None;
        for b in Base::ALL {
            let low = mapped.lfm(b, frame.low as usize, injector, None, ledger);
            let high = mapped.lfm(b, frame.high as usize, injector, None, ledger);
            stats.lfm_calls += 2;
            dpu.set_interval(low, high, ledger);
            if dpu.interval_empty() {
                continue;
            }
            // Save the branch state in the DPU register file (hardware
            // bookkeeping for the backtracking).
            dpu.push_state(
                pimsim::BacktrackState {
                    position: frame.i as u32,
                    low,
                    high,
                    budget: frame.z as i8,
                    symbol: b.rank() as u8,
                },
                ledger,
            );
            if budget.allows_indels() {
                // Deletion from the read: consume a reference base only.
                stack.push(Frame {
                    i: frame.i,
                    z: frame.z - 1,
                    low,
                    high,
                });
            }
            if b == current {
                match_branch = Some(Frame {
                    i: frame.i - 1,
                    z: frame.z,
                    low,
                    high,
                });
            } else {
                stack.push(Frame {
                    i: frame.i - 1,
                    z: frame.z - 1,
                    low,
                    high,
                });
            }
            let _ = dpu.pop_state(ledger);
        }
        if let Some(m) = match_branch {
            stack.push(m);
        }
    }
    let mut hits: Vec<InexactHit> = best
        .into_iter()
        .map(|(interval, diffs)| InexactHit { interval, diffs })
        .collect();
    hits.sort_by_key(|h| (h.diffs, h.interval));
    (hits, stats)
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
    fn platform_matches_software_oracle_substitutions() {
        let reference = genome::uniform(3_000, 21);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        for (start, z) in [(100usize, 0u8), (500, 1), (1_200, 2)] {
            let mut read = reference.subseq(start..start + 24);
            // Mutate z positions.
            for k in 0..z as usize {
                let pos = 5 + 7 * k;
                let b = read[pos];
                let mut bases = read.clone().into_bases();
                bases[pos] = Base::from_rank((b.rank() + 1) % 4);
                read = DnaSeq::from_bases(bases);
            }
            let budget = EditBudget::substitutions_only(z);
            let (hw, _) =
                inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
            let sw = oracle.search_inexact(&read, budget);
            assert_eq!(hw, sw, "mismatch at start {start} z {z}");
        }
    }

    #[test]
    fn platform_matches_software_oracle_with_indels() {
        let reference = genome::uniform(1_500, 22);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        // Read with one deleted base relative to the reference.
        let mut bases = reference.subseq(300..320).into_bases();
        bases.remove(10);
        let read = DnaSeq::from_bases(bases);
        let budget = EditBudget::edits(1);
        let (hw, _) = inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let sw = oracle.search_inexact(&read, budget);
        assert_eq!(hw, sw);
        assert!(!hw.is_empty());
    }

    #[test]
    fn stats_grow_with_budget() {
        let reference = genome::uniform(2_000, 23);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = reference.subseq(700..720);
        let (_, s0) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(0),
            &mut ledger,
        );
        let (_, s2) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(2),
            &mut ledger,
        );
        assert!(s2.lfm_calls > s0.lfm_calls);
        assert!(s2.states_explored > s0.states_explored);
        assert!(s2.max_stack_depth >= s0.max_stack_depth);
    }

    #[test]
    fn first_accept_hit_is_in_exhaustive_set() {
        let reference = genome::uniform(3_000, 25);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        // One substitution at position 12.
        let mut bases = reference.subseq(900..940).into_bases();
        bases[12] = Base::from_rank((bases[12].rank() + 1) % 4);
        let read = DnaSeq::from_bases(bases);
        let budget = EditBudget::substitutions_only(2);
        let (first, fstats) =
            inexact_search_first(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let (all, astats) =
            inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let first = first.expect("mutated read must map");
        assert!(
            all.iter().any(|h| h.interval == first.interval),
            "first hit must be in the exhaustive set"
        );
        assert!(
            fstats.lfm_calls < astats.lfm_calls,
            "first-accept must prune: {} vs {}",
            fstats.lfm_calls,
            astats.lfm_calls
        );
    }

    #[test]
    fn first_accept_cost_is_linear_in_read_length() {
        // The production mode must stay O(m)-ish on a clean read: the
        // match-first DFS walks straight down.
        let reference = genome::uniform(8_000, 26);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = reference.subseq(2_000..2_100);
        let (hit, stats) = inexact_search_first(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::edits(2),
            &mut ledger,
        );
        assert!(hit.is_some());
        // 8 LFMs per level (4 bases × 2 bounds) + bounded backtracking.
        assert!(
            stats.lfm_calls < 20 * read.len() as u64,
            "first-accept LFM count {} too high",
            stats.lfm_calls
        );
    }

    #[test]
    fn zero_budget_reduces_to_exact() {
        let reference = genome::uniform(2_000, 24);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        let read = reference.subseq(100..140);
        let (hits, _) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(0),
            &mut ledger,
        );
        let exact = oracle.backward_search(&read).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].interval, exact);
        assert_eq!(hits[0].diffs, 0);
    }
}
