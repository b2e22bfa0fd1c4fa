//! Correlated data partitioning and mapping (paper §V, Fig. 6).
//!
//! "Given a BWT index range, the accessed memory region of MT and BWT
//! could be readily predicted and computation could be localized if we
//! store such correlated region into the same memory sub-array." Each
//! sub-array holds 256 consecutive BWT buckets (rows) *and* the 256
//! marker sets for exactly those buckets (vertical columns), so every
//! `LFM` is fully local: `XNOR_Match`, marker `MEM` and (method-I)
//! `IM_ADD` all happen inside one sub-array.

use std::sync::atomic::{AtomicU64, Ordering};

use bioseq::{Base, DnaSeq};
use fmindex::{FmIndex, SaInterval};
use mram::array::ArrayModel;
use mram::faults::FaultCampaign;
use pimsim::costs::LogicalOp;
use pimsim::pipeline::{PipelineParams, PipelineSim};
use pimsim::{
    CycleLedger, FaultCounters, FaultInjector, KernelCache, LfmBatch, MatchMask, SubArray,
    SubArrayLayout,
};

use crate::config::{AddMethod, PimAlignerConfig};

/// Process-wide count of [`MappedIndex::build`] invocations. The
/// shared-platform contract — "the index is mapped into sub-arrays
/// *once* and then queried in place" — is asserted against this counter
/// by the integration tests; it has no runtime role.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// BWT bases (= Occ buckets × 128) one sub-array covers.
const BASES_PER_SUBARRAY: usize = 256 * SubArrayLayout::BASES_PER_ROW;

/// One request of a batched LFM step: read stream `stream` asks for
/// `LFM(nt, id)` (Algorithm 1 line 9). See [`MappedIndex::lfm_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfmRequest {
    /// Read stream the request belongs to — indexes the caller's
    /// per-read injector table and names the pipeline stream.
    pub stream: usize,
    /// Query base.
    pub nt: Base,
    /// FM-index position (`0 ..= text_len`).
    pub id: usize,
}

/// Caller-owned scratch for [`MappedIndex::lfm_batch_into`]: the
/// per-sub-array [`LfmBatch`] pool, the request locator table and the
/// stage-queue scheduler, all recycled across calls so the hot batched
/// path allocates nothing per step once warm.
#[derive(Debug)]
pub struct LfmBatchScratch {
    /// Sub-array key of each pool entry; only the first `active` are
    /// live this call.
    keys: Vec<usize>,
    /// One reusable batch per touched sub-array, parallel to `keys`.
    pool: Vec<LfmBatch>,
    /// Live entry count this call.
    active: usize,
    /// Per request: `(pool slot, request index)`, or `(u32::MAX, 0)`
    /// for a boundary checkpoint request.
    locator: Vec<(u32, u32)>,
    /// The Pd stage-queue scheduler, reset each call.
    sim: PipelineSim,
}

impl LfmBatchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> LfmBatchScratch {
        LfmBatchScratch {
            keys: Vec::new(),
            pool: Vec::new(),
            active: 0,
            locator: Vec::new(),
            sim: PipelineSim::new(1, PipelineParams::default()),
        }
    }

    /// Rewinds for a new call at degree `pd`.
    fn begin(&mut self, pd: usize, params: PipelineParams) {
        self.active = 0;
        self.locator.clear();
        self.sim.reset(pd, params);
    }

    /// The pool slot batching sub-array `s`, reusing a retired entry's
    /// capacity when possible. Linear scan: a call touches at most a
    /// handful of sub-arrays.
    fn slot_for(&mut self, s: usize) -> usize {
        match self.keys[..self.active].iter().position(|&k| k == s) {
            Some(t) => t,
            None => {
                if self.active == self.pool.len() {
                    self.pool.push(LfmBatch::new());
                    self.keys.push(s);
                } else {
                    self.pool[self.active].clear();
                    self.keys[self.active] = s;
                }
                self.active += 1;
                self.active - 1
            }
        }
    }
}

impl Default for LfmBatchScratch {
    fn default() -> LfmBatchScratch {
        LfmBatchScratch::new()
    }
}

/// The FM-index tables distributed across computational sub-arrays.
///
/// Holds the software [`FmIndex`] (the ground truth and the SA source)
/// plus the loaded sub-arrays. The one-time pre-computation/mapping cost
/// is recorded in its own ledger, separate from alignment-time work.
///
/// A built index is **immutable**: every query method takes `&self`, so
/// one index can be shared (behind an `Arc`, see
/// [`Platform`](crate::Platform)) by any number of concurrent alignment
/// sessions. The only mutable alignment-time state — the seeded
/// fault-injection stream — lives in the per-session
/// [`FaultInjector`] that callers thread into [`MappedIndex::lfm`].
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use pim_aligner::{MappedIndex, PimAlignerConfig};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: DnaSeq = "TGCTA".parse()?;
/// let mapped = MappedIndex::build(&reference, &PimAlignerConfig::baseline());
/// assert_eq!(mapped.subarray_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MappedIndex {
    index: FmIndex,
    subarrays: Vec<SubArray>,
    /// Mirror sub-arrays for method-II (empty for method-I).
    mirrors: Vec<SubArray>,
    method: AddMethod,
    /// Parallelism degree for the batched path's stage-queue scheduler.
    pd: usize,
    /// Stage timing for the batched path's stage-queue scheduler.
    pipeline: PipelineParams,
    mapping_ledger: CycleLedger,
    /// The fault campaign the index was built under; sessions derive
    /// their alignment-time injectors from it.
    campaign: FaultCampaign,
    /// Faults frozen into the arrays at mapping time (stuck-at cells);
    /// counted once per build, not per session.
    build_counters: FaultCounters,
}

impl MappedIndex {
    /// Builds the FM-index over `reference` (Fig. 2 pre-computation) and
    /// maps BWT + MT into sub-arrays (Fig. 6a partitioning). The bucket
    /// width is fixed at 128, one word line.
    pub fn build(reference: &DnaSeq, config: &PimAlignerConfig) -> MappedIndex {
        let index = FmIndex::builder()
            .bucket_width(SubArrayLayout::BASES_PER_ROW)
            .build(reference);
        MappedIndex::from_index(index, config)
    }

    /// Maps an already-built FM-index — e.g. one deserialised from a
    /// [`fmindex::io`] artifact — into sub-arrays, skipping the index
    /// construction itself. The mapping (table loads, mirrors, stuck-cell
    /// injection) is identical to [`MappedIndex::build`], so a loaded
    /// index produces the same sub-array state and mapping ledger as an
    /// in-process build of the same index.
    ///
    /// # Panics
    ///
    /// Panics if the index's bucket width is not 128 (one sub-array word
    /// line) — the mapping's bucket-per-row correspondence requires it.
    pub fn from_index(index: FmIndex, config: &PimAlignerConfig) -> MappedIndex {
        BUILD_COUNT.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            index.bucket_width(),
            SubArrayLayout::BASES_PER_ROW,
            "sub-array mapping requires one Occ bucket per word line"
        );
        let mut ledger = CycleLedger::new();
        let model = *config.model();
        let n = index.text_len();
        let subarray_count = n.div_ceil(BASES_PER_SUBARRAY);
        let mut subarrays = Vec::with_capacity(subarray_count);
        let (packed, _sentinel) = index.bwt().to_packed();
        // Marker buckets include the final checkpoint at n/d, one past the
        // last (possibly partial) BWT row.
        let total_marker_buckets = n / SubArrayLayout::BASES_PER_ROW + 1;
        for s in 0..subarray_count {
            let mut sa = SubArray::new(model);
            sa.load_cref_rows(&mut ledger);
            let base_start = s * BASES_PER_SUBARRAY;
            let bwt_buckets = (n - base_start)
                .div_ceil(SubArrayLayout::BASES_PER_ROW)
                .min(256);
            for lb in 0..bwt_buckets {
                let start = base_start + lb * SubArrayLayout::BASES_PER_ROW;
                let count = SubArrayLayout::BASES_PER_ROW.min(n - start);
                let codes = packed.codes(start, count);
                sa.load_bwt_row(lb, &codes, &mut ledger);
            }
            let marker_buckets = (total_marker_buckets - s * 256).min(256);
            for lb in 0..marker_buckets {
                let bucket = s * 256 + lb;
                for base in Base::ALL {
                    sa.store_marker(
                        lb,
                        base,
                        index.marker_table().marker(base, bucket),
                        &mut ledger,
                    );
                }
            }
            subarrays.push(sa);
        }
        let mut mirrors = match config.method() {
            AddMethod::InPlace => Vec::new(),
            AddMethod::Mirrored => {
                // Method-II: "essentially duplicates the number of
                // sub-arrays, where only in-memory addition computation is
                // transferred to a second sub-array".
                let mut mirrors = subarrays.clone();
                for (src, dst) in subarrays.iter().zip(mirrors.iter_mut()) {
                    // Account the duplication as row copies.
                    for row in 0..model.geometry().rows {
                        src.copy_row_to(row, dst, row, &mut ledger);
                    }
                }
                mirrors
            }
        };
        // Stuck-at injection: each physical array (primaries and
        // mirrors alike) draws its own defect plan after its tables are
        // written. The data zones are write-once, so a post-load force
        // is behaviourally a stuck cell. The build-time injector is
        // consumed here; alignment-time fault streams are per-session
        // (see [`MappedIndex::session_injector`]).
        let mut injector = FaultInjector::new(config.fault_campaign());
        let cols = model.geometry().cols;
        for sa in subarrays.iter_mut().chain(mirrors.iter_mut()) {
            for (row, col, value) in injector.stuck_cell_plan(sa.data_zone_rows(), cols) {
                sa.force_bit(row, col, value);
            }
        }
        MappedIndex {
            index,
            subarrays,
            mirrors,
            method: config.method(),
            pd: config.pd(),
            pipeline: config.pipeline(),
            mapping_ledger: ledger,
            campaign: config.fault_campaign(),
            build_counters: injector.counters(),
        }
    }

    /// Process-wide number of [`MappedIndex::build`] invocations so far
    /// (monotone; used by tests asserting the index is built exactly
    /// once per run regardless of worker-thread count).
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::SeqCst)
    }

    /// The underlying software index (ground truth, SA storage).
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Number of primary computational sub-arrays used.
    pub fn subarray_count(&self) -> usize {
        self.subarrays.len()
    }

    /// Total sub-arrays including method-II mirrors.
    pub fn total_subarrays(&self) -> usize {
        self.subarrays.len() + self.mirrors.len()
    }

    /// The one-time mapping cost ledger (pre-computation, excluded from
    /// alignment-time figures as in the paper: "it is just a one-step
    /// computation").
    pub fn mapping_ledger(&self) -> &CycleLedger {
        &self.mapping_ledger
    }

    /// Faults frozen into the arrays when the tables were mapped
    /// (stuck-at cells). One-time build state: telemetry layers count
    /// these once per platform, never per session.
    pub fn build_fault_counters(&self) -> FaultCounters {
        self.build_counters
    }

    /// The fault campaign the index was built under.
    pub fn campaign(&self) -> FaultCampaign {
        self.campaign
    }

    /// A fresh alignment-time fault injector seeded from the campaign
    /// (the stream a sequential session replays).
    pub fn session_injector(&self) -> FaultInjector {
        FaultInjector::new(self.campaign)
    }

    /// A fresh alignment-time injector for parallel worker `worker`:
    /// worker 0 replays the sequential stream bit-identically, higher
    /// workers draw decorrelated sub-seeds
    /// ([`FaultCampaign::for_worker`]).
    pub fn worker_injector(&self, worker: u64) -> FaultInjector {
        FaultInjector::new(self.campaign.for_worker(worker))
    }

    /// A fresh alignment-time injector for globally indexed read
    /// `token`: the batched kernel gives every read its own
    /// decorrelated fault stream so faulted output is invariant to
    /// batch width and worker count ([`FaultCampaign::for_read`]).
    pub fn read_injector(&self, token: u64) -> FaultInjector {
        FaultInjector::new(self.campaign.for_read(token))
    }

    /// `true` when the fault campaign can inject faults.
    pub fn faults_active(&self) -> bool {
        self.campaign.is_active()
    }

    /// Executes the hardware `LFM(MT, nt, id)` procedure (Algorithm 1
    /// line 9) entirely on the mapped sub-arrays:
    ///
    /// 1. `XNOR_Match` of the bucket row against `CRef[nt]`;
    /// 2. DPU popcount of matches before `id` within the bucket;
    /// 3. `MEM` read of the bucket's marker for `nt`;
    /// 4. `IM_ADD` of marker + count (in the mirror for method-II,
    ///    charging the operand transfer).
    ///
    /// The index itself is read-only; the session's `injector` supplies
    /// the alignment-time fault stream (transient bursts, sense
    /// misreads, carry kills) and accumulates the injection counters.
    ///
    /// `cache` is the session's optional rank-checkpoint cache. It
    /// memoizes the compare stage — `(sub-array, bucket, nt) →
    /// (post-sentinel match mask, marker)`, both pure functions of the
    /// immutable index — so a hit skips the plane load and the 32-row
    /// marker gather on the host while charging the platform the exact
    /// op sequence a recompute pays (`XNOR_Match`, popcount, marker
    /// `MEM`, in that order). Results, every simulated counter and the
    /// seeded fault stream are byte-identical with and without it,
    /// pinned by test.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the indexed text length.
    pub fn lfm(
        &self,
        nt: Base,
        id: usize,
        injector: &mut FaultInjector,
        cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
    ) -> u32 {
        assert!(id <= self.index.text_len(), "LFM index {id} out of range");
        let bucket = id / SubArrayLayout::BASES_PER_ROW;
        let within = id % SubArrayLayout::BASES_PER_ROW;
        let s = bucket / 256;
        let lb = bucket % 256;
        // `id` may equal the text length, landing exactly on a bucket
        // boundary past the last row; the count contribution is then zero
        // and the marker row is the final checkpoint.
        let (count, marker) = if s >= self.subarrays.len() {
            // Boundary bucket holds no BWT bases; its marker equals the
            // final checkpoint stored in the last sub-array's next column.
            // The builder always allocates the checkpoint bucket because
            // buckets() = n/d + 1 columns fit in 256 only when the text
            // fills sub-arrays exactly; fall back to the software marker
            // (a local MEM read in hardware).
            LogicalOp::MarkerRead.charge(self.subarrays[0].model(), ledger);
            // Heatmap: the checkpoint read activates the final primary
            // sub-array (where the last marker column lives).
            ledger.note_zone_many(self.subarrays.len() - 1, 1);
            (0, self.index.marker_table().marker(nt, bucket))
        } else {
            let sub = &self.subarrays[s];
            let cached = cache
                .as_deref()
                .and_then(|c| c.lookup(s as u32, lb, nt.rank()));
            let (mut matches, marker) = match cached {
                Some((words, marker)) => {
                    // Host work skipped; the platform is billed the
                    // identical charge sequence the recompute pays below
                    // (`XNOR_Match` → popcount → marker `MEM`).
                    ledger.note_kernel_cache_hit();
                    LogicalOp::XnorMatch.charge(sub.model(), ledger);
                    LogicalOp::Popcount.charge(sub.model(), ledger);
                    LogicalOp::MarkerRead.charge(sub.model(), ledger);
                    (MatchMask(words), marker)
                }
                None => {
                    // Stack-allocated packed match mask: the whole
                    // compare stage runs on [u64; 2] words, no heap
                    // traffic per LFM.
                    let mut matches = sub.xnor_match(lb, nt, ledger);
                    // The 2-bit code space cannot represent `$`, so the
                    // sentinel cell is stored with a placeholder code
                    // (T). The DPU knows the sentinel's position and
                    // masks it out of the match vector before counting.
                    let sentinel = self.index.bwt().sentinel_pos();
                    if sentinel / SubArrayLayout::BASES_PER_ROW == bucket {
                        matches.set(sentinel % SubArrayLayout::BASES_PER_ROW, false);
                    }
                    LogicalOp::Popcount.charge(sub.model(), ledger);
                    let marker = sub.read_marker(lb, nt, ledger);
                    if let Some(c) = cache {
                        ledger.note_kernel_cache_miss();
                        if c.insert(s as u32, lb, nt.rank(), matches.0, marker) {
                            ledger.note_kernel_cache_eviction();
                        }
                    }
                    (matches, marker)
                }
            };
            // Heatmap: the XNOR match and the marker read each activate
            // sub-array `s` (the popcount runs in the DPU, not the
            // array).
            ledger.note_zone_many(s, 2);
            // Fault injection (DESIGN.md §8): a whole-row transient
            // burst may corrupt this read, and each match bit may
            // additionally misread with the campaign's XNOR probability.
            // The mask APIs draw the identical RNG stream as the boolean
            // ones, so seeded replays are unchanged by the packing —
            // and always corrupt this request's private copy, never the
            // cached entry.
            if injector.is_active() {
                injector.transient_row_mask(&mut matches);
                injector.corrupt_match_mask(&mut matches, within);
            }
            let count = matches.count_prefix(within);
            (count, marker)
        };
        let carry_fault = injector.carry_fault_bit();
        let sum = match self.method {
            AddMethod::InPlace => {
                let idx = s.min(self.subarrays.len() - 1);
                let sub = &self.subarrays[idx];
                // Heatmap: the in-place add activates the same zone.
                ledger.note_zone_many(idx, 1);
                match carry_fault {
                    Some(k) => sub.im_add32_shared_faulty(marker, count, k, ledger),
                    None => sub.im_add32_shared(marker, count, ledger),
                }
            }
            AddMethod::Mirrored => {
                // Operand transfer into the mirror's write port.
                let idx = s.min(self.mirrors.len() - 1);
                let mirror = &self.mirrors[idx];
                LogicalOp::RowWrite.charge_many(mirror.model(), ledger, 7);
                // Heatmap: mirror zones are indexed after the primaries
                // (7 operand-transfer writes + the add = 8 activations).
                ledger.note_zone_many(self.subarrays.len() + idx, 8);
                match carry_fault {
                    Some(k) => mirror.im_add32_shared_faulty(marker, count, k, ledger),
                    None => mirror.im_add32_shared(marker, count, ledger),
                }
            }
        };
        // The DPU's index registers saturate at N: a sensing fault can
        // inflate the count past the table range, and the controller
        // clamps rather than address outside the mapped region. A no-op
        // under ideal sensing.
        sum.min(self.index.text_len() as u32)
    }

    /// Executes one interleaved batch of `LFM` requests — the batched
    /// kernel path (DESIGN.md §15). Requests are partitioned per
    /// sub-array into [`LfmBatch`]es whose shared compare stage
    /// (`XNOR_Match` plane load, sentinel masking, marker read) is
    /// charged once per distinct `(bucket, nt)` group instead of once
    /// per request; the per-request stages (popcount, fault sensing,
    /// `IM_ADD`) then run in request order, bit-identical to the same
    /// sequence of single [`MappedIndex::lfm`] calls. Issue timing
    /// flows through a [`PipelineSim`] stage-queue scheduler (`Pd` from
    /// the config) whose counters are recorded on `ledger`.
    ///
    /// `injectors` is indexed by request `stream`; pass an empty slice
    /// when the fault campaign is inactive. Per-stream draw order is
    /// request order, so push a read's low request before its high
    /// request to replay the single-read injector stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if any `id` exceeds the indexed text length.
    pub fn lfm_batch(
        &self,
        requests: &[LfmRequest],
        injectors: &mut [FaultInjector],
        ledger: &mut CycleLedger,
    ) -> Vec<u32> {
        let mut scratch = LfmBatchScratch::new();
        let mut sums = Vec::new();
        self.lfm_batch_into(requests, injectors, None, ledger, &mut scratch, &mut sums);
        sums
    }

    /// [`MappedIndex::lfm_batch`] with caller-owned scratch: `scratch`
    /// keeps the partition tables, group masks and scheduler between
    /// calls (no per-call allocation on the hot path) and `sums` is
    /// cleared then filled with one result per request. Lock-step
    /// drivers ([`crate::exact::exact_search_batch`]) reuse one scratch
    /// across every step of a batch.
    ///
    /// `cache` is the optional rank-checkpoint cache (see
    /// [`MappedIndex::lfm`]): the shared compare stage consults/feeds it
    /// per `(sub-array, bucket, nt)` group. Sums, charges and fault
    /// draws are byte-identical with and without it.
    pub fn lfm_batch_into(
        &self,
        requests: &[LfmRequest],
        injectors: &mut [FaultInjector],
        mut cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
        scratch: &mut LfmBatchScratch,
        sums: &mut Vec<u32>,
    ) {
        sums.clear();
        if requests.is_empty() {
            return;
        }
        let text_len = self.index.text_len();
        let model = self.subarrays[0].model();
        scratch.begin(self.pd, self.pipeline);
        // Partition into one batch per touched sub-array; boundary
        // requests (the final checkpoint bucket past the mapped rows)
        // stay unbatched. BASES_PER_ROW and the 256-bucket column count
        // are powers of two, so the bucket math is shift-and-mask.
        let mut boundary = 0u64;
        for req in requests {
            assert!(req.id <= text_len, "LFM index {} out of range", req.id);
            let bucket = req.id / SubArrayLayout::BASES_PER_ROW;
            let s = bucket / 256;
            if s >= self.subarrays.len() {
                boundary += 1;
                scratch.locator.push((u32::MAX, 0));
                continue;
            }
            let slot = scratch.slot_for(s);
            let idx = scratch.pool[slot].push(
                req.stream,
                bucket % 256,
                req.nt,
                req.id % SubArrayLayout::BASES_PER_ROW,
            );
            scratch.locator.push((slot as u32, idx as u32));
        }
        // Boundary checkpoint reads land in the final primary sub-array:
        // one marker read each, plus that request's add activation.
        if boundary > 0 {
            LogicalOp::MarkerRead.charge_many(model, ledger, boundary);
            ledger.note_zone_many(self.subarrays.len() - 1, boundary);
            match self.method {
                AddMethod::InPlace => {
                    ledger.note_zone_many(self.subarrays.len() - 1, boundary);
                }
                AddMethod::Mirrored => {
                    let idx = self.mirrors.len() - 1;
                    LogicalOp::RowWrite.charge_many(model, ledger, 7 * boundary);
                    ledger.note_zone_many(self.subarrays.len() + idx, 8 * boundary);
                }
            }
        }
        // Shared compare stage, once per group per touched sub-array —
        // plus the per-request charges that are a pure function of the
        // partition (one popcount per request, the add-stage activations
        // and method-II operand transfers), folded in with `charge_many`
        // (integer-exact to the per-request charges of the single-read
        // path).
        let sentinel = self.index.bwt().sentinel_pos();
        let sentinel_bucket = sentinel / SubArrayLayout::BASES_PER_ROW;
        for t in 0..scratch.active {
            let s = scratch.keys[t];
            let batch = &mut scratch.pool[t];
            let local_sentinel = (sentinel_bucket / 256 == s).then_some((
                sentinel_bucket % 256,
                sentinel % SubArrayLayout::BASES_PER_ROW,
            ));
            let groups = batch.run_compare(
                &self.subarrays[s],
                local_sentinel,
                cache.as_deref_mut(),
                s as u32,
                ledger,
            );
            let n = batch.len() as u64;
            // Heatmap: one XNOR match + one marker read per group.
            ledger.note_zone_many(s, 2 * groups as u64);
            LogicalOp::Popcount.charge_many(model, ledger, n);
            match self.method {
                AddMethod::InPlace => {
                    ledger.note_zone_many(s.min(self.subarrays.len() - 1), n);
                }
                AddMethod::Mirrored => {
                    let idx = s.min(self.mirrors.len() - 1);
                    LogicalOp::RowWrite.charge_many(model, ledger, 7 * n);
                    ledger.note_zone_many(self.subarrays.len() + idx, 8 * n);
                }
            }
        }
        // Per-request stages in request order: popcount + fault sensing,
        // then the add — with the pipeline scheduler timing each issue
        // (a follower's compare result is already resident, so it skips
        // straight to the addition queue). Disjoint field borrows: the
        // loop reads the partition while driving the scheduler.
        let LfmBatchScratch {
            pool, locator, sim, ..
        } = scratch;
        if injectors.is_empty() {
            // Clean fast path: no per-request fault draws, and a clean
            // ripple add is value-exact to a wrapping add — charge all
            // the adds in one step and skip the bit loops.
            LogicalOp::ImAdd32.charge_many(model, ledger, requests.len() as u64);
            for (req, &(slot, idx)) in requests.iter().zip(locator.iter()) {
                let (count, marker, shares_compare) = if slot == u32::MAX {
                    let bucket = req.id / SubArrayLayout::BASES_PER_ROW;
                    (0, self.index.marker_table().marker(req.nt, bucket), false)
                } else {
                    let batch = &pool[slot as usize];
                    let i = idx as usize;
                    (
                        batch.mask(i).count_prefix(batch.within(i)),
                        batch.marker(i),
                        !batch.is_leader(i),
                    )
                };
                sim.issue(req.stream, shares_compare);
                sums.push(marker.wrapping_add(count).min(text_len as u32));
            }
        } else {
            for (req, &(slot, idx)) in requests.iter().zip(locator.iter()) {
                let (count, marker, shares_compare) = if slot == u32::MAX {
                    let bucket = req.id / SubArrayLayout::BASES_PER_ROW;
                    (0, self.index.marker_table().marker(req.nt, bucket), false)
                } else {
                    let batch = &pool[slot as usize];
                    let i = idx as usize;
                    let within = batch.within(i);
                    let count = match injectors.get_mut(req.stream) {
                        Some(injector) if injector.is_active() => {
                            let mut mask = *batch.mask(i);
                            injector.transient_row_mask(&mut mask);
                            injector.corrupt_match_mask(&mut mask, within);
                            mask.count_prefix(within)
                        }
                        _ => batch.mask(i).count_prefix(within),
                    };
                    (count, batch.marker(i), !batch.is_leader(i))
                };
                // Same draw as the single-read path; returns `None`
                // without consuming the stream when the carry rate is
                // zero, so a present-but-inactive injector stays
                // equivalent to the clean path.
                let carry_fault = match injectors.get_mut(req.stream) {
                    Some(injector) => injector.carry_fault_bit(),
                    None => None,
                };
                sim.issue(req.stream, shares_compare);
                // Every sub-array and mirror shares one ArrayModel, so
                // the shared add's charge is position-independent.
                let sum = match carry_fault {
                    Some(k) => self.subarrays[0].im_add32_shared_faulty(marker, count, k, ledger),
                    None => {
                        LogicalOp::ImAdd32.charge(model, ledger);
                        marker.wrapping_add(count)
                    }
                };
                sums.push(sum.min(text_len as u32));
            }
        }
        ledger.record_pipeline(&sim.counters());
    }

    /// Reads suffix-array entries for an interval (`MEM` on the SA
    /// region) and returns the sorted reference positions.
    pub fn locate(&self, interval: SaInterval, ledger: &mut CycleLedger) -> Vec<usize> {
        LogicalOp::SaEntryRead.charge_many(
            self.subarrays[0].model(),
            ledger,
            interval.rows().count() as u64,
        );
        self.index.locate(interval)
    }

    /// The array model in use.
    pub fn model(&self) -> ArrayModel {
        *self.subarrays[0].model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readsim::genome;

    fn mapped(reference: &DnaSeq, method: AddMethod) -> MappedIndex {
        let config = match method {
            AddMethod::InPlace => PimAlignerConfig::baseline(),
            AddMethod::Mirrored => PimAlignerConfig::pipelined(),
        };
        MappedIndex::build(reference, &config)
    }

    #[test]
    fn subarray_count_scales_with_genome() {
        let small = mapped(&genome::uniform(1_000, 1), AddMethod::InPlace);
        assert_eq!(small.subarray_count(), 1);
        let big = mapped(&genome::uniform(100_000, 1), AddMethod::InPlace);
        assert_eq!(big.subarray_count(), (100_001usize).div_ceil(32_768));
        assert_eq!(big.total_subarrays(), big.subarray_count());
    }

    #[test]
    fn mirrored_doubles_subarrays() {
        let m = mapped(&genome::uniform(40_000, 2), AddMethod::Mirrored);
        assert_eq!(m.total_subarrays(), 2 * m.subarray_count());
    }

    #[test]
    fn hardware_lfm_matches_software_oracle() {
        let reference = genome::uniform(70_000, 3);
        let m = mapped(&reference, AddMethod::InPlace);
        let oracle = m.index().clone();
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        // Dense sweep near bucket boundaries plus random interior points.
        let mut ids: Vec<usize> = (0..40).map(|k| k * 1_777 % oracle.text_len()).collect();
        for b in [0usize, 127, 128, 129, 255, 256, 32_767, 32_768, 32_769] {
            if b <= oracle.text_len() {
                ids.push(b);
            }
        }
        ids.push(oracle.text_len());
        for id in ids {
            for base in Base::ALL {
                let hw = m.lfm(base, id, &mut injector, None, &mut ledger);
                let sw = oracle.marker_table().lfm(oracle.bwt(), base, id);
                assert_eq!(hw, sw, "LFM mismatch at id={id} base={base}");
            }
        }
    }

    #[test]
    fn mirrored_lfm_matches_software_oracle() {
        let reference = genome::uniform(20_000, 4);
        let m = mapped(&reference, AddMethod::Mirrored);
        let oracle = m.index().clone();
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        for id in (0..oracle.text_len()).step_by(977) {
            for base in Base::ALL {
                assert_eq!(
                    m.lfm(base, id, &mut injector, None, &mut ledger),
                    oracle.marker_table().lfm(oracle.bwt(), base, id)
                );
            }
        }
    }

    #[test]
    fn mapping_cost_recorded_separately() {
        let m = mapped(&genome::uniform(5_000, 5), AddMethod::InPlace);
        assert!(m.mapping_ledger().total_busy_cycles() > 0);
    }

    #[test]
    fn locate_charges_sa_reads() {
        let reference: DnaSeq = "TGCTA".parse().unwrap();
        let m = mapped(&reference, AddMethod::InPlace);
        let interval = m.index().backward_search(&"CTA".parse().unwrap()).unwrap();
        let mut ledger = CycleLedger::new();
        assert_eq!(m.locate(interval, &mut ledger), vec![2]);
        assert!(ledger.total_busy_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lfm_past_text_panics() {
        let reference: DnaSeq = "ACGT".parse().unwrap();
        let m = mapped(&reference, AddMethod::InPlace);
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        let _ = m.lfm(Base::A, 99, &mut injector, None, &mut ledger);
    }

    #[test]
    fn build_count_increments_per_build() {
        let before = MappedIndex::build_count();
        let _ = mapped(&genome::uniform(2_000, 6), AddMethod::InPlace);
        assert!(MappedIndex::build_count() > before);
    }

    #[test]
    fn batched_lfm_matches_single_calls_and_saves_plane_loads() {
        // text_len (raw + sentinel) fills exactly two sub-arrays, so
        // `id = n` lands on the final checkpoint bucket (the unbatched
        // boundary path).
        let reference = genome::uniform(65_535, 3);
        let m = mapped(&reference, AddMethod::InPlace);
        let n = m.index().text_len();
        // Three streams: a shared (bucket, base) pair, a second
        // sub-array, and the boundary checkpoint.
        let requests = vec![
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 130,
            },
            LfmRequest {
                stream: 1,
                nt: Base::A,
                id: 180,
            },
            LfmRequest {
                stream: 1,
                nt: Base::C,
                id: 33_000,
            },
            LfmRequest {
                stream: 2,
                nt: Base::C,
                id: 33_100,
            },
            LfmRequest {
                stream: 2,
                nt: Base::T,
                id: n,
            },
        ];
        let mut batch_ledger = CycleLedger::new();
        let sums = m.lfm_batch(&requests, &mut [], &mut batch_ledger);
        let mut single_ledger = CycleLedger::new();
        let mut injector = m.session_injector();
        let singles: Vec<u32> = requests
            .iter()
            .map(|r| m.lfm(r.nt, r.id, &mut injector, None, &mut single_ledger))
            .collect();
        assert_eq!(sums, singles);
        // requests 0 and 1 share one plane load: 3 XNORs, not 4.
        assert_eq!(
            batch_ledger.primitives().count(LogicalOp::XnorMatch),
            3,
            "shared bucket must be loaded once"
        );
        assert_eq!(single_ledger.primitives().count(LogicalOp::XnorMatch), 4);
        assert!(batch_ledger.total_busy_cycles() < single_ledger.total_busy_cycles());
        let pipe = batch_ledger.pipeline_counters();
        assert_eq!(pipe.issued, 5);
        assert!(pipe.makespan_cycles > 0);
        assert_eq!(single_ledger.pipeline_counters().issued, 0);
    }

    #[test]
    fn batched_lfm_replays_per_read_fault_streams() {
        use mram::faults::FaultModel;
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(29)
                .with_model(FaultModel::with_probabilities(0.04, 0.0))
                .with_transient_row_rate(0.15)
                .with_carry_fault_prob(0.1),
        );
        let m = MappedIndex::build(&genome::uniform(40_000, 9), &config);
        // Streams interleaved low/high, sharing bucket 1 across streams.
        let requests = vec![
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 140,
            },
            LfmRequest {
                stream: 1,
                nt: Base::A,
                id: 170,
            },
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 5_000,
            },
            LfmRequest {
                stream: 1,
                nt: Base::G,
                id: 9_000,
            },
        ];
        let mut injectors = vec![m.read_injector(0), m.read_injector(1)];
        let mut ledger = CycleLedger::new();
        let batched = m.lfm_batch(&requests, &mut injectors, &mut ledger);
        // Oracle: single-read replay per stream in per-stream order.
        let mut oracle = [m.read_injector(0), m.read_injector(1)];
        let expected: Vec<u32> = requests
            .iter()
            .map(|r| m.lfm(r.nt, r.id, &mut oracle[r.stream], None, &mut ledger))
            .collect();
        assert_eq!(batched, expected);
        for s in 0..2 {
            assert_eq!(injectors[s].counters(), oracle[s].counters(), "stream {s}");
        }
    }

    #[test]
    fn cached_lfm_replays_uncached_results_faults_and_charges() {
        use mram::faults::FaultModel;
        let campaign = FaultCampaign::seeded(41)
            .with_model(FaultModel::with_probabilities(0.03, 0.0))
            .with_transient_row_rate(0.1)
            .with_carry_fault_prob(0.05);
        let reference = genome::uniform(70_000, 12);
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            let config = match method {
                AddMethod::InPlace => PimAlignerConfig::baseline(),
                AddMethod::Mirrored => PimAlignerConfig::pipelined(),
            }
            .with_fault_campaign(campaign);
            let m = MappedIndex::build(&reference, &config);
            let text_len = m.index().text_len();
            // One request schedule spanning every sub-array plus the
            // boundary checkpoint, revisiting buckets within a round.
            let schedule: Vec<(Base, usize)> = (0..64)
                .map(|k| (Base::from_rank(k % 4), (k * 4_391) % (text_len + 1)))
                .chain([(Base::C, text_len), (Base::A, 129), (Base::A, 200)])
                .collect();
            let mut cache = KernelCache::new();
            let (mut cached_inj, mut uncached_inj) = (m.read_injector(0), m.read_injector(0));
            let mut cached_ledger = CycleLedger::new();
            let mut uncached_ledger = CycleLedger::new();
            for round in 0..3 {
                for &(nt, id) in &schedule {
                    let cached = m.lfm(
                        nt,
                        id,
                        &mut cached_inj,
                        Some(&mut cache),
                        &mut cached_ledger,
                    );
                    let uncached = m.lfm(nt, id, &mut uncached_inj, None, &mut uncached_ledger);
                    assert_eq!(cached, uncached, "{method:?} round {round} LFM({nt}, {id})");
                }
                assert_eq!(cached_inj.counters(), uncached_inj.counters(), "{method:?}");
                assert_eq!(
                    cached_ledger.total_busy_cycles(),
                    uncached_ledger.total_busy_cycles(),
                    "{method:?} round {round}"
                );
                assert_eq!(cached_ledger.energy_pj(), uncached_ledger.energy_pj());
                assert_eq!(cached_ledger.primitives(), uncached_ledger.primitives());
                if round > 0 {
                    assert!(
                        cached_ledger.kernel_cache_counters().hits > 0,
                        "{method:?}: repeat rounds must hit the cache"
                    );
                }
            }
            // Every alignment-time fault class actually fired.
            let injected = cached_inj.counters();
            assert!(
                injected.xnor_bit_flips > 0
                    && injected.transient_row_faults > 0
                    && injected.carry_faults > 0,
                "{method:?}: campaign too quiet: {injected:?}"
            );
            assert_eq!(uncached_ledger.kernel_cache_counters().lookups(), 0);
        }
    }

    #[test]
    fn worker_zero_injector_replays_the_sequential_stream() {
        use mram::faults::FaultModel;
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(17).with_model(FaultModel::with_probabilities(0.05, 0.0)),
        );
        let m = MappedIndex::build(&genome::uniform(2_000, 7), &config);
        let mut a = m.session_injector();
        let mut b = m.worker_injector(0);
        let mut c = m.worker_injector(1);
        let mut same = true;
        let mut diverged = false;
        for _ in 0..64 {
            let mut ra = vec![false; 128];
            let mut rb = vec![false; 128];
            let mut rc = vec![false; 128];
            a.corrupt_match_bits(&mut ra);
            b.corrupt_match_bits(&mut rb);
            c.corrupt_match_bits(&mut rc);
            same &= ra == rb;
            diverged |= ra != rc;
        }
        assert!(same, "worker 0 must replay the sequential stream");
        assert!(diverged, "worker 1 must draw a decorrelated stream");
    }
}
