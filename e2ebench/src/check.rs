//! Correctness checks on the program's outputs. Every failure is
//! collected with a message; any failure makes the run exit non-zero.

use bioseq::DnaSeq;
use pim_aligner::{AlignmentOutcome, MappedStrand};
use swalign::banded_edit_distance;

/// Failed checks, each with a message.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    /// Checks made.
    pub made: u64,
}

impl Checks {
    /// No checks yet.
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Records one check; `msg` is built only on failure.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure messages (the first few of them).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for f in self.failures.iter().take(20) {
            out.push_str("check failed: ");
            out.push_str(f);
            out.push('\n');
        }
        if self.failures.len() > 20 {
            out.push_str(&format!("... {} more\n", self.failures.len() - 20));
        }
        out
    }
}

/// Smallest edit distance between `query` and a reference window
/// starting at `pos` whose length differs from the query's by at most
/// `budget` (an indel shifts the window end); `None` when above `budget`.
pub fn locus_distance(reference: &DnaSeq, query: &DnaSeq, pos: usize, budget: u8) -> Option<u32> {
    let z = usize::from(budget);
    let len = query.len();
    let lo = len.saturating_sub(z).max(1);
    let hi = (len + z).min(reference.len().saturating_sub(pos));
    (lo..=hi)
        .filter_map(|l| banded_edit_distance(query, &reference.subseq(pos..pos + l), z))
        .min()
}

/// Checks one read's outcome against the reference: every reported
/// locus must hold the read (reverse-complemented on the reverse
/// strand) within `budget` edits, and an exact outcome exactly.
pub fn verify_outcome(
    checks: &mut Checks,
    reference: &DnaSeq,
    read_id: &str,
    read: &DnaSeq,
    outcome: &AlignmentOutcome,
    strand: MappedStrand,
    budget: u8,
) {
    let Some(positions) = outcome.positions() else {
        return;
    };
    checks.check(!positions.is_empty(), || {
        format!("{read_id}: mapped with no positions")
    });
    let query = match strand {
        MappedStrand::Forward => read.clone(),
        MappedStrand::Reverse => read.reverse_complement(),
    };
    let exact = matches!(outcome, AlignmentOutcome::Exact { .. });
    for &pos in positions {
        if exact {
            let ok = pos + query.len() <= reference.len()
                && reference.subseq(pos..pos + query.len()) == query;
            checks.check(ok, || {
                format!("{read_id}: exact locus {pos} ({strand:?}) does not hold the read")
            });
        } else {
            let d = locus_distance(reference, &query, pos, budget);
            checks.check(d.is_some(), || {
                format!("{read_id}: locus {pos} ({strand:?}) is more than {budget} edits away")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn locus_distance_allows_indels_within_budget() {
        let reference = seq("ACGTACGTTTGACCATGACA");
        // Exact, one substitution, one deletion from the reference.
        assert_eq!(locus_distance(&reference, &seq("GTTTGACC"), 6, 2), Some(0));
        assert_eq!(locus_distance(&reference, &seq("GTATGACC"), 6, 2), Some(1));
        assert_eq!(locus_distance(&reference, &seq("GTTGACCA"), 6, 2), Some(1));
        assert_eq!(locus_distance(&reference, &seq("CCCCCCCC"), 6, 2), None);
    }

    #[test]
    fn reverse_strand_loci_are_checked_on_the_reverse_complement() {
        let reference = seq("ACGTACGTTTGACCATGACA");
        let window = reference.subseq(4..14);
        let read = window.reverse_complement();
        let mut checks = Checks::new();
        let exact = AlignmentOutcome::Exact { positions: vec![4] };
        verify_outcome(
            &mut checks,
            &reference,
            "r",
            &read,
            &exact,
            MappedStrand::Reverse,
            2,
        );
        assert!(checks.passed(), "{}", checks.report());
        verify_outcome(
            &mut checks,
            &reference,
            "r",
            &read,
            &exact,
            MappedStrand::Forward,
            2,
        );
        assert!(!checks.passed());
    }
}
