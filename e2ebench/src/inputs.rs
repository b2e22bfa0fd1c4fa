//! Workload inputs, generated from the seed before any timing starts.

use bioseq::fastq::{self, Record};
use bioseq::DnaSeq;
use readsim::genome::{repeat_rich, RepeatProfile};
use readsim::variant::VariantProfile;
use readsim::{ReadSimulator, SimProfile, SimulatedRead, Strand};

/// Read length of every workload, bp.
pub const READ_LEN: usize = 100;

/// The reference of every workload: human-like, ~45 % repeats.
pub fn genome(len: usize, seed: u64) -> DnaSeq {
    repeat_rich(len, RepeatProfile::default(), seed)
}

/// Error-free, variant-free forward-strand reads: the figure-row
/// profile, where every read aligns in the exact stage.
pub fn clean_reads(reference: &DnaSeq, count: usize, seed: u64) -> Vec<SimulatedRead> {
    let profile = SimProfile::paper_defaults()
        .read_count(count)
        .read_len(READ_LEN)
        .error_rate(0.0)
        .variants(VariantProfile {
            rate: 0.0,
            ..VariantProfile::default()
        })
        .forward_only();
    ReadSimulator::new(profile, seed ^ 0xc1ea_0000)
        .simulate(reference)
        .reads
}

/// The paper's ART-like profile: 0.2 % sequencing error, 0.1 %
/// population variants, both strands sampled.
pub fn paper_reads(reference: &DnaSeq, count: usize, seed: u64) -> Vec<SimulatedRead> {
    let profile = SimProfile::paper_defaults()
        .read_count(count)
        .read_len(READ_LEN);
    ReadSimulator::new(profile, seed ^ 0x9a9e_0000)
        .simulate(reference)
        .reads
}

/// The reads as FASTQ text, the way a user hands them to the aligner.
pub fn to_fastq(reads: &[SimulatedRead]) -> Vec<u8> {
    let records: Vec<Record> = reads
        .iter()
        .map(|r| Record::new(r.id.clone(), r.seq.clone(), r.quality.clone()))
        .collect();
    fastq::to_string(&records).into_bytes()
}

/// Ground truth of a clean forward read: its reference position (the
/// donor equals the reference when there are no variants).
pub fn truth(read: &SimulatedRead) -> Option<usize> {
    (read.strand == Strand::Forward && read.errors == 0).then_some(read.donor_pos)
}

/// A 64-bit FNV-1a hash, used to fingerprint inputs and SAM output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// SplitMix64: the deterministic stream behind the open-loop schedule.
struct SplitMix64(u64);

impl SplitMix64 {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrival offsets (ns from the phase start) at `rate` per
/// second for `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    /// Fingerprint and shape of one seed's inputs at the configured
    /// sizes: (genome hash, read-set hash, genome length, read count,
    /// read lengths all READ_LEN, FASTQ record count).
    fn generate(cfg: &Config, seed: u64) -> (u64, u64, usize, usize, bool, usize) {
        let g = genome(cfg.genome_len, seed);
        let reads = paper_reads(&g, cfg.paper.reads_per_pass, seed);
        let fq = to_fastq(&reads);
        let mut h = Fnv::default();
        for r in &reads {
            h.write(r.seq.to_string().as_bytes());
        }
        let records = fastq::parse(std::str::from_utf8(&fq).unwrap()).unwrap();
        (
            Fnv::of(g.to_string().as_bytes()),
            h.0,
            g.len(),
            reads.len(),
            reads.iter().all(|r| r.seq.len() == READ_LEN),
            records.len(),
        )
    }

    #[test]
    fn default_and_held_out_seeds_give_different_inputs_of_one_shape() {
        let cfg = Config::embedded();
        assert_ne!(cfg.default_seed, cfg.held_out_seed);
        let a = generate(&cfg, cfg.default_seed);
        let b = generate(&cfg, cfg.held_out_seed);
        assert_ne!(a.0, b.0, "genomes must differ");
        assert_ne!(a.1, b.1, "read sets must differ");
        assert_eq!((a.2, a.3, a.4, a.5), (b.2, b.3, b.4, b.5), "same shape");
        assert_eq!(a.2, cfg.genome_len);
        assert!(a.4);
        // The same seed gives the same inputs.
        assert_eq!(generate(&cfg, cfg.default_seed), a);
    }

    #[test]
    fn clean_reads_carry_their_reference_position() {
        let g = genome(50_000, 3);
        for r in clean_reads(&g, 50, 3) {
            let p = truth(&r).expect("clean forward read");
            assert_eq!(g.subseq(p..p + READ_LEN), r.seq);
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(1_000.0, 10.0, 5);
        assert_eq!(a, poisson_schedule(1_000.0, 10.0, 5));
        assert_ne!(a, poisson_schedule(1_000.0, 10.0, 6));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
    }
}
