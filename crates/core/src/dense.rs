//! Dense-interned columnar RFINFER — the default solver behind
//! [`RfInfer::run`](crate::RfInfer::run).
//!
//! The reference solver (`RfInfer::run_tree`) keys every piece of EM state by
//! sparse 64-bit [`TagId`]s in `BTreeMap`s: each E-step posterior, each
//! point-evidence append and each M-step weight update pays a tree walk plus
//! an allocation. This module removes all of that from the inner loops with
//! one idea: **a per-run interning pass**. At the top of a run every live tag
//! (objects, observed containers, prior-named candidate containers) is
//! interned into a contiguous `u32` index, every distinct per-epoch reader
//! set into a reader-set id, and from then on the EM runs entirely over flat
//! `Vec`-indexed arenas:
//!
//! * candidate sets, co-location weight rows and prior weights live in flat
//!   arenas aligned by candidate position (`cand_arena` / `weights`),
//! * per-container needed-epoch lists and member lists live in shared arenas
//!   sliced by a per-container `(start, len)`,
//! * E-step posteriors are epoch-sorted slices walked with cursors — no
//!   `BTreeMap<Epoch, Posterior>` anywhere,
//! * every `(reader set, location)` log-likelihood is computed once per run
//!   in a memoized [`ReaderSetTable`] row and reused by both the posterior
//!   and the point-evidence evaluations,
//! * all of it backed by [`DenseScratch`] buffers the engine keeps alive
//!   across runs, so the streaming steady state allocates almost nothing.
//!
//! Interned indices are **run-scoped**: they are assigned fresh each run from
//! the ascending tag order, and nothing outside the run ever sees one. Only
//! the run boundary converts back to the `TagId`-keyed
//! [`InferenceOutcome`] / [`EvidenceCache`] types, so the public API, the
//! wire formats and the incremental dirty-set machinery are untouched.
//!
//! The solver replays the exact control flow of the reference EM — same
//! candidate ranking, same initial assignment, same variant memoization and
//! cross-run reuse decisions, same floating-point summation order — so its
//! results are **bit-identical** to the tree solver's, pinned by the
//! `dense_solver_matches_tree_reference` proptest and the distributed
//! determinism suite.
//!
//! The costliest phases of a run — the co-location join of candidate
//! pruning, the E-step, the M-step and the outcome build's object evidence —
//! run over a queue of contiguous chunks that the calling thread and
//! any helper threads drain (see the `split` module). Each chunk writes only
//! its own slots, objects or count matrix, in the single-thread operation
//! order; the M-step's writes into shared variants are deferred to an
//! in-order pass after the drain. No float value crosses threads, so the
//! result is bit-identical for every helper count.

pub mod kernels;
pub(crate) mod split;

pub use split::share_cores;

use crate::likelihood::{LikelihoodModel, ReaderSetTable};
use crate::observations::{ObsAt, Observations};
use crate::posterior::{
    container_posterior_row_into, container_posterior_row_into_vector, expect_row_of, Posterior,
};
use crate::rfinfer::{
    CachedVariant, DirtySet, EvidenceCache, InferenceOutcome, InferenceStats, ObjectEvidence,
    PrevSeries, RfInfer, RfInferConfig, MAX_CACHED_VARIANTS,
};
use rfid_types::{ContainmentMap, Epoch, LocationId, TagId};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Sentinel for "no index" in dense `u32` columns.
const NONE_IDX: u32 = u32::MAX;

/// One point-evidence series: `(epoch, e_co)` in epoch order.
type Series = Vec<(Epoch, f64)>;

/// MAP location estimates of one tag: `(epoch, location)` in epoch order.
type Locations = Vec<(Epoch, LocationId)>;

/// Series keyed by interned object index, ascending; `Option` so the
/// whole-series fast path can move one out without shifting the column.
type TakableSeries = Vec<(u32, Option<Series>)>;

/// Reusable flat buffers of the dense solver: the interning arena, the
/// candidate/weight/epoch/member arenas and the reader-set log-likelihood
/// table. Held by [`InferenceEngine`](crate::InferenceEngine) across runs
/// (and by every EM iteration within a run), so the steady state reuses
/// capacity instead of reallocating.
///
/// The buffers carry no meaning between runs — every run re-interns from
/// scratch — which is exactly why holding them is safe: a `DenseScratch` can
/// be shared across engines, runs and configurations freely.
#[derive(Debug, Default)]
pub struct DenseScratch {
    /// Interned universe: dense index → tag, ascending by `TagId`.
    tags: Vec<TagId>,
    /// Prior-named tags missing from the observation index.
    extras: Vec<TagId>,
    /// Reader-set id of every observation, flattened per tag.
    set_ids: Vec<u32>,
    /// Per-tag offset into `set_ids` (length `tags.len() + 1`).
    set_start: Vec<u32>,
    /// Memoized `(reader set, location) → loglik` rows.
    table: ReaderSetTable,
    /// Dense indices of observed objects, ascending.
    objects: Vec<u32>,
    /// Dense indices of observed containers, ascending.
    all_containers: Vec<u32>,
    /// Dense indices of relevant containers (candidates ∪ observed),
    /// ascending; the slot order of all per-container columns.
    rel: Vec<u32>,
    /// Dense tag index → relevant-container slot (or `NONE_IDX`).
    slot_of: Vec<u32>,
    /// Scratch bitmap over the tag universe.
    mark: Vec<bool>,
    /// Flat candidate container indices per object, in pruned order.
    cand_arena: Vec<u32>,
    /// Per-object offset into `cand_arena` (length `objects.len() + 1`).
    cand_start: Vec<u32>,
    /// Per-object candidate positions sorted by ascending container index —
    /// the argmax iteration order of the `BTreeMap`-keyed reference.
    cand_sorted: Vec<u32>,
    /// Co-location counting scratch for candidate pruning.
    colo_counts: Vec<(u32, usize)>,
    /// Co-location weight rows, aligned with `cand_arena`.
    weights: Vec<f64>,
    /// Prior weights, aligned with `cand_arena` (resolved once per run).
    prior_w: Vec<f64>,
    /// Per-object assigned container index (or `NONE_IDX`).
    assign: Vec<u32>,
    /// The next iteration's assignment.
    new_assign: Vec<u32>,
    /// Needed-epoch arena, sliced per relevant-container slot.
    epochs_arena: Vec<Epoch>,
    /// Per-slot offset into `epochs_arena`.
    epochs_start: Vec<u32>,
    /// Per-slot deduplicated length within `epochs_arena`.
    epochs_len: Vec<u32>,
    /// Member arena (object tag indices), sliced per slot.
    member_arena: Vec<u32>,
    /// Per-slot offset into `member_arena` (length `rel.len() + 1`).
    member_start: Vec<u32>,
    /// Per-slot fill cursors for the counting sorts.
    slot_fill: Vec<u32>,
    /// Vector-path scratch: one probability row, reused by every in-place
    /// normalization that only needs the MAP location (no `Posterior`
    /// allocation per epoch).
    row_scratch: Vec<f64>,
    /// Vector-path scratch: per-reader-set location bitmask (bit `r` set
    /// when reader `r` fired). Exact only when every reader id fits the
    /// mask width; see `set_mask_exact`.
    set_masks: Vec<u128>,
    /// Whether the matching `set_masks` entry covers every reader of the
    /// set (readers with ids ≥ 128 fall back to a list intersection).
    set_mask_exact: Vec<bool>,
    /// Vector-path scratch: object × container co-location count matrix,
    /// row-major by object position.
    colo_matrix: Vec<u32>,
    /// Vector-path scratch: epoch-presence bitset of one slot's needed-epoch
    /// dedup, indexed by epoch offset from the run's earliest epoch.
    seen: Vec<u64>,
    /// Vector-path scratch: the distinct epochs of one slot, pre-sort.
    uniq: Vec<Epoch>,
    /// Per-thread scratch of the split phases: the calling thread's first,
    /// then one per helper.
    threads: Vec<ThreadScratch>,
}

/// The scratch one thread of a split phase owns: its share of the phase's
/// integer counters, its walk cursors and lane buffers, and its co-location
/// events and count matrix.
#[derive(Debug, Default)]
struct ThreadScratch {
    /// Counters of the chunks this thread ran, summed into the run's
    /// counters after the phase.
    stats: InferenceStats,
    /// Per-member observation cursors of the current container walk.
    cursors: Vec<u32>,
    /// Sorted invalid epochs of the current container (dirty union).
    invalid: Vec<Epoch>,
    /// Vector-path scratch: gathered weights of one argmax scan, in
    /// ascending-container (`cand_sorted`) order.
    argmax_buf: Vec<f64>,
    /// Vector-path scratch: lane indices computing a dot product at the
    /// current epoch of one transposed walk.
    active: Vec<u32>,
    /// Lanes of the transposed M-step walk, reused across objects.
    walkers: Vec<MWalker>,
    /// Container observation events `(epoch, all-containers position,
    /// reader-set id)` of this thread's epoch ranges, epoch-sorted.
    colo_cont_events: Vec<(Epoch, u32, u32)>,
    /// Object observation events `(epoch, object position, reader-set id)`
    /// of this thread's epoch ranges, epoch-sorted.
    colo_obj_events: Vec<(Epoch, u32, u32)>,
    /// This thread's object × container co-location counts.
    colo_matrix: Vec<u32>,
}

/// The per-thread scratch of a phase with `helpers` helpers, growing the
/// pool on first use.
fn thread_states(pool: &mut Vec<ThreadScratch>, helpers: usize) -> &mut [ThreadScratch] {
    if pool.len() <= helpers {
        pool.resize_with(helpers + 1, ThreadScratch::default);
    }
    &mut pool[..=helpers]
}

/// Sum the threads' phase counters into `stats`, resetting them.
fn gather_stats(stats: &mut InferenceStats, threads: &mut [ThreadScratch]) {
    for ts in threads {
        stats.absorb(&std::mem::take(&mut ts.stats));
    }
}

/// Cut `slice` into consecutive mutable pieces, one per range of `ranges`
/// (which tile `0..slice.len()` in order).
fn split_by<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    ranges
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(r.len());
            slice = tail;
            head
        })
        .collect()
}

/// A previous run's cached variant, re-interned into this run's indices.
struct PrevVariant {
    members: Vec<u32>,
    epochs: Vec<Epoch>,
    qrows: Vec<f64>,
    evidence: TakableSeries,
}

/// Working state of one container during a dense EM run — the columnar
/// mirror of the reference solver's `Variant`.
struct DVariant {
    members: Vec<u32>,
    updated_iter: usize,
    /// Epochs of the per-epoch posteriors, ascending.
    epochs: Vec<Epoch>,
    /// Posterior probability rows, concatenated in epoch order (row width =
    /// number of locations) — one arena per variant, so the M-step lanes and
    /// the outcome builder stream rows instead of chasing per-posterior
    /// allocations.
    qrows: Vec<f64>,
    /// Epochs whose posterior was moved bitwise out of the previous run.
    reused: Vec<Epoch>,
    fully_reused: bool,
    prev_evidence: TakableSeries,
    /// This run's evidence series, pushed in ascending object order.
    evidence: Vec<(u32, Series)>,
}

/// A series the M-step's read-only pass leaves for the in-order write pass:
/// push it onto `slot`'s variant for `object`.
struct EvidencePush {
    slot: u32,
    object: u32,
    /// The series derived this iteration; `None` moves the previous run's
    /// series for `object` out of the variant's cache instead.
    series: Option<Series>,
}

/// One lane of the transposed M-step walk: the per-candidate cursors and the
/// accumulating weight for a candidate whose evidence series must be derived
/// (or partially reused) against its variant's per-epoch posteriors. The
/// variant itself stays in `current`, borrowed shared for the duration of the
/// walk; lanes only carry indices and owned state.
#[derive(Debug)]
struct MWalker {
    /// Position of this candidate within its object's candidate range.
    off: u32,
    /// Slot of the candidate's variant in `current`.
    slot: u32,
    /// Accumulating co-location weight (prior already added).
    w: f64,
    /// Evidence series under construction (incremental mode only).
    series: Series,
    /// Cursor into the variant's per-epoch posterior series.
    q_cur: usize,
    /// Cursor into the variant's reused-epochs list.
    r_cur: usize,
    /// Cursor into the previous run's series for this pair.
    prev_pos: usize,
    /// The posterior series is exhausted; the lane contributes nothing more.
    done: bool,
}

/// The shared borrows one M-step lane reads during the transposed walk:
/// (posterior epochs, flat posterior rows, reused epochs, previous run's
/// evidence series for the walked object).
type MLaneRefs<'v> = (
    &'v [Epoch],
    &'v [f64],
    &'v [Epoch],
    Option<&'v [(Epoch, f64)]>,
);

/// What a split phase reads: the run's scratch columns and its model,
/// borrowed shared so a phase body can run on any thread. Built after the
/// iteration's member count, so it sees the same member arena as every other
/// phase of the iteration.
struct Cols<'r> {
    s: &'r DenseScratch,
    model: &'r LikelihoodModel,
    config: &'r RfInferConfig,
    nl: usize,
    dirty: Option<&'r DirtySet>,
    obs_of: &'r [&'r [ObsAt]],
}

impl<'r> Cols<'r> {
    fn of(
        s: &'r DenseScratch,
        rf: &'r RfInfer<'_>,
        dirty: Option<&'r DirtySet>,
        obs_of: &'r [&'r [ObsAt]],
    ) -> Cols<'r> {
        Cols {
            s,
            model: rf.model,
            config: &rf.config,
            nl: rf.model.num_locations(),
            dirty,
            obs_of,
        }
    }

    fn incremental(&self) -> bool {
        self.dirty.is_some()
    }

    /// Reader-set ids of one tag's observations.
    fn sets_of(&self, tag: u32) -> &'r [u32] {
        &self.s.set_ids
            [self.s.set_start[tag as usize] as usize..self.s.set_start[tag as usize + 1] as usize]
    }

    /// Current members of one relevant-container slot.
    fn members(&self, slot: usize) -> &'r [u32] {
        &self.s.member_arena
            [self.s.member_start[slot] as usize..self.s.member_start[slot + 1] as usize]
    }

    /// Flat candidate range of object position `k`.
    fn cands(&self, k: usize) -> Range<usize> {
        self.s.cand_start[k] as usize..self.s.cand_start[k + 1] as usize
    }

    /// Evidence dots an M-step or outcome pass over object `k` may evaluate.
    fn object_cost(&self, k: usize) -> usize {
        self.obs_of[self.s.objects[k] as usize].len() * self.cands(k).len()
    }
}

/// Multiplicative word hasher for the run-scoped reader-set interner (the
/// fx-hash recipe: rotate, xor, multiply by a golden-ratio-derived odd
/// constant). The interner's keys are tiny `&[LocationId]` slices hashed
/// thousands of times per run, where SipHash's per-call setup dominates;
/// interned ids depend only on insertion order, so the hash function cannot
/// affect inference output.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

fn find_series(evidence: &[(u32, Series)], object: u32) -> Option<&Series> {
    evidence
        .binary_search_by_key(&object, |e| e.0)
        .ok()
        .map(|i| &evidence[i].1)
}

fn prev_series(evidence: &TakableSeries, object: u32) -> Option<&[(Epoch, f64)]> {
    evidence
        .binary_search_by_key(&object, |e| e.0)
        .ok()
        .and_then(|i| evidence[i].1.as_deref())
}

fn take_prev_series(evidence: &mut TakableSeries, object: u32) -> Option<Series> {
    evidence
        .binary_search_by_key(&object, |e| e.0)
        .ok()
        .and_then(|i| evidence[i].1.take())
}

/// Counting-sort the current assignment into per-slot member lists
/// (`member_start` / `member_arena`, object tag indices ascending per slot —
/// the reference solver's iteration order over its assignment map). Shared
/// by the EM loop and the outcome builder, whose member sets must be built
/// identically for the bit-identity contract to hold. Takes the scratch
/// columns individually so callers can keep disjoint borrows (e.g. loglik
/// rows) alive across the call.
#[allow(clippy::too_many_arguments)]
fn count_members(
    assign: &[u32],
    objects: &[u32],
    slot_of: &[u32],
    slot_fill: &mut Vec<u32>,
    member_start: &mut Vec<u32>,
    member_arena: &mut Vec<u32>,
    num_rel: usize,
) {
    let num_objects = objects.len();
    slot_fill.clear();
    slot_fill.resize(num_rel, 0);
    for k in 0..num_objects {
        if assign[k] != NONE_IDX {
            slot_fill[slot_of[assign[k] as usize] as usize] += 1;
        }
    }
    member_start.clear();
    let mut total = 0u32;
    for slot in 0..num_rel {
        member_start.push(total);
        total += slot_fill[slot];
        slot_fill[slot] = member_start[slot];
    }
    member_start.push(total);
    member_arena.clear();
    member_arena.resize(total as usize, 0);
    for k in 0..num_objects {
        if assign[k] != NONE_IDX {
            let slot = slot_of[assign[k] as usize] as usize;
            member_arena[slot_fill[slot] as usize] = objects[k];
            slot_fill[slot] += 1;
        }
    }
}

/// Argmax over one object's weight row, iterating candidates in ascending
/// container order with later ties winning — the reference's `BTreeMap`
/// iteration + `max_by` semantics. `sorted`, `cands` and `weights` are the
/// object's slices of `cand_sorted`, `cand_arena` and the weight arena;
/// returns the winning container index.
fn argmax_weight(sorted: &[u32], cands: &[u32], weights: &[f64]) -> u32 {
    let mut best: Option<(u32, f64)> = None;
    for &p in sorted {
        let w = weights[p as usize];
        if best.is_none_or(|(_, bw)| w >= bw) {
            best = Some((cands[p as usize], w));
        }
    }
    best.map(|(ci, _)| ci).unwrap_or(NONE_IDX)
}

/// Vector-path [`argmax_weight`]: gather the weights in `cand_sorted`
/// order into a reusable buffer and scan them with the chunked
/// [`kernels::argmax_ties_last`] — same iteration order, same `>=`
/// later-ties-win rule, so the winner is identical for every input.
fn argmax_weight_vector(sorted: &[u32], cands: &[u32], weights: &[f64], buf: &mut Vec<f64>) -> u32 {
    buf.clear();
    buf.extend(sorted.iter().map(|&p| weights[p as usize]));
    kernels::argmax_ties_last(buf)
        .map(|i| cands[sorted[i] as usize])
        .unwrap_or(NONE_IDX)
}

/// Epoch-indexed co-location counting for the vector path's candidate
/// pruning: instead of one merge-join per (object, container) pair — the
/// scalar [`Observations::candidate_indices_dense`] walk, quadratic in the
/// tag universe — group *all* observation events by epoch once and touch
/// only the (object, container) pairs that actually share an epoch.
/// Reader-set overlap is resolved through per-set location bitmasks
/// (`any shared reader` ⇔ `mask ∩ mask ≠ ∅` — exact whenever reader ids fit
/// the mask, with a list-intersection fallback when they don't), so the
/// resulting counts equal the scalar `colocated_epochs` counts exactly.
///
/// The join splits by epoch range: each thread counts the ranges it takes
/// into its own `u32` matrix, and the matrices are summed afterwards —
/// integer addition, so the counts are the same for every split.
///
/// Fills `s.colo_matrix` row-major by object position over
/// `s.all_containers` columns.
fn fill_colocation_matrix(
    s: &mut DenseScratch,
    obs_of: &[&[ObsAt]],
    set_readers: &[&[LocationId]],
) {
    // Per-set location masks.
    s.set_masks.clear();
    s.set_mask_exact.clear();
    for readers in set_readers {
        let mut mask = 0u128;
        let mut exact = true;
        for r in *readers {
            if (r.0 as usize) < 128 {
                mask |= 1u128 << r.0;
            } else {
                exact = false;
            }
        }
        s.set_masks.push(mask);
        s.set_mask_exact.push(exact);
    }

    // The epoch span and size of the join.
    let (mut lo, mut hi, mut events) = (u32::MAX, 0u32, 0usize);
    for &t in s.all_containers.iter().chain(&s.objects) {
        let list = obs_of[t as usize];
        if let (Some(first), Some(last)) = (list.first(), list.last()) {
            lo = lo.min(first.epoch.0);
            hi = hi.max(last.epoch.0);
            events += list.len();
        }
    }
    let nc = s.all_containers.len();
    let size = s.objects.len() * nc;
    let helpers = split::helpers_for(events);
    let threads = thread_states(&mut s.threads, helpers);
    for ts in threads.iter_mut() {
        ts.colo_matrix.clear();
        ts.colo_matrix.resize(size, 0);
    }
    if events > 0 {
        let span = (hi - lo) as usize + 1;
        let chunks: Vec<Range<u32>> = split::ranges(std::iter::repeat_n(1, span), helpers + 1)
            .into_iter()
            .map(|r| lo + r.start as u32..lo + r.end as u32)
            .collect();
        let (containers, objects) = (&s.all_containers, &s.objects);
        let (set_ids, set_start) = (&s.set_ids, &s.set_start);
        let (masks, exact) = (&s.set_masks, &s.set_mask_exact);
        let overlap = |oset: u32, cset: u32| -> bool {
            if exact[oset as usize] && exact[cset as usize] {
                masks[oset as usize] & masks[cset as usize] != 0
            } else {
                set_readers[oset as usize]
                    .iter()
                    .any(|r| set_readers[cset as usize].contains(r))
            }
        };
        // The events of `tags` inside one epoch range: `(epoch, position in
        // tags, reader-set id)`, epoch-sorted.
        let collect = |out: &mut Vec<(Epoch, u32, u32)>, tags: &[u32], epochs: &Range<u32>| {
            out.clear();
            for (pos, &t) in tags.iter().enumerate() {
                let list = obs_of[t as usize];
                let from = list.partition_point(|o| o.epoch.0 < epochs.start);
                let to = list.partition_point(|o| o.epoch.0 < epochs.end);
                let base = set_start[t as usize] as usize;
                for off in from..to {
                    out.push((list[off].epoch, pos as u32, set_ids[base + off]));
                }
            }
            out.sort_unstable_by_key(|e| e.0);
        };
        split::drain(threads, chunks, |ts: &mut ThreadScratch, epochs| {
            collect(&mut ts.colo_cont_events, containers, &epochs);
            collect(&mut ts.colo_obj_events, objects, &epochs);
            // Lockstep walk over shared epochs; each co-located (object,
            // container) event pair bumps one matrix cell.
            let (objs, conts) = (&ts.colo_obj_events, &ts.colo_cont_events);
            let (mut i, mut j) = (0usize, 0usize);
            while i < objs.len() && j < conts.len() {
                let t = objs[i].0;
                match t.cmp(&conts[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let i_end = i + objs[i..].iter().take_while(|e| e.0 == t).count();
                        let j_end = j + conts[j..].iter().take_while(|e| e.0 == t).count();
                        for &(_, kpos, oset) in &objs[i..i_end] {
                            let row = kpos as usize * nc;
                            for &(_, cpos, cset) in &conts[j..j_end] {
                                if overlap(oset, cset) {
                                    ts.colo_matrix[row + cpos as usize] += 1;
                                }
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
        });
    }
    let (first, rest) = threads.split_first_mut().expect("calling thread's scratch");
    std::mem::swap(&mut s.colo_matrix, &mut first.colo_matrix);
    for ts in rest {
        for (sum, &count) in s.colo_matrix.iter_mut().zip(&ts.colo_matrix) {
            *sum += count;
        }
    }
}

/// Sort a slice range in place and return its deduplicated length.
fn sort_dedup(slice: &mut [Epoch]) -> usize {
    slice.sort_unstable();
    let mut len = 0usize;
    for i in 0..slice.len() {
        if len == 0 || slice[len - 1] != slice[i] {
            slice[len] = slice[i];
            len += 1;
        }
    }
    len
}

/// [`sort_dedup`] through an epoch-presence bitset: collect each distinct
/// epoch once (testing a bit instead of sorting duplicates), sort only the
/// distinct values, and clear the touched bits for the next slot. A slot's
/// segment concatenates one epoch-sorted list per candidate object, so the
/// duplication factor is roughly the candidate count — sorting only the
/// distinct epochs is what makes this linear-ish. The output (ascending
/// distinct epochs) is identical to [`sort_dedup`]'s for every input.
fn sort_dedup_bitmap(
    slice: &mut [Epoch],
    base: Epoch,
    seen: &mut [u64],
    uniq: &mut Vec<Epoch>,
) -> usize {
    uniq.clear();
    for &e in slice.iter() {
        let off = e.since(base) as usize;
        let (word, bit) = (off / 64, off % 64);
        if seen[word] & (1 << bit) == 0 {
            seen[word] |= 1 << bit;
            uniq.push(e);
        }
    }
    uniq.sort_unstable();
    slice[..uniq.len()].copy_from_slice(uniq);
    for &e in uniq.iter() {
        let off = e.since(base) as usize;
        seen[off / 64] &= !(1 << (off % 64));
    }
    uniq.len()
}

/// Run the dense-interned EM. Control flow and floating-point summation
/// order mirror `RfInfer::run_tree` exactly; see the module docs.
pub(crate) fn run_dense(
    rf: &RfInfer<'_>,
    mut incr: Option<(&mut EvidenceCache, &DirtySet)>,
    scratch: &mut DenseScratch,
) -> (InferenceOutcome, InferenceStats) {
    let model = rf.model;
    let obs = rf.obs;
    let prior = rf.prior;
    let config = &rf.config;

    let mut stats = InferenceStats::default();
    let mut prev_cache: BTreeMap<TagId, Vec<CachedVariant>> = BTreeMap::new();
    let mut dirty: Option<&DirtySet> = None;
    if let Some((cache, d)) = incr.as_mut() {
        prev_cache = std::mem::take(&mut cache.containers);
        dirty = Some(*d);
        stats.dirty_tags = d.num_tags();
    }

    let s = &mut *scratch;

    // ---- Interning pass: tags ----------------------------------------
    // The universe is every observed tag plus every container the prior
    // names for an observed object (they become candidates even when never
    // read locally). Observed tags arrive ascending; extras are merged in.
    s.tags.clear();
    s.extras.clear();
    for (tag, _) in obs.entries() {
        s.tags.push(tag);
        if tag.is_object() {
            for (c, _) in prior.entries_for(tag) {
                if s.tags.binary_search(&c).is_err() {
                    s.extras.push(c);
                }
            }
        }
    }
    if !s.extras.is_empty() {
        s.tags.append(&mut s.extras);
        s.tags.sort_unstable();
        s.tags.dedup();
    }
    let num_tags = s.tags.len();

    // Per-tag observation slices, resolved once (extras have none).
    let mut obs_of: Vec<&[ObsAt]> = Vec::with_capacity(num_tags);
    {
        let mut entries = obs.entries().peekable();
        for &tag in &s.tags {
            match entries.peek() {
                Some(&(t, slice)) if t == tag => {
                    obs_of.push(slice);
                    entries.next();
                }
                _ => obs_of.push(&[]),
            }
        }
    }

    // ---- Interning pass: reader sets + loglik table ------------------
    s.set_ids.clear();
    s.set_start.clear();
    let mut set_readers: Vec<&[LocationId]> = Vec::new();
    {
        let mut interner: HashMap<&[LocationId], u32, std::hash::BuildHasherDefault<FxHasher>> =
            HashMap::default();
        for list in &obs_of {
            s.set_start.push(s.set_ids.len() as u32);
            for o in *list {
                let next = set_readers.len() as u32;
                let id = *interner.entry(o.readers.as_slice()).or_insert(next);
                if id == next {
                    set_readers.push(&o.readers);
                }
                s.set_ids.push(id);
            }
        }
        s.set_start.push(s.set_ids.len() as u32);
    }
    if config.vector_kernels {
        model.fill_reader_set_table_vector(set_readers.iter().copied(), &mut s.table);
    } else {
        model.fill_reader_set_table(set_readers.iter().copied(), &mut s.table);
    }

    // ---- Objects / containers ----------------------------------------
    s.objects.clear();
    s.all_containers.clear();
    for (i, &tag) in s.tags.iter().enumerate() {
        if obs_of[i].is_empty() {
            continue; // prior-only extras are candidates, never objects
        }
        if tag.is_object() {
            s.objects.push(i as u32);
        } else if tag.is_container() {
            s.all_containers.push(i as u32);
        }
    }
    let num_objects = s.objects.len();

    // ---- Candidate pruning -------------------------------------------
    // Container columns for the dense co-location ranking.
    let container_columns: Vec<(u32, &[ObsAt])> = s
        .all_containers
        .iter()
        .map(|&ci| (ci, obs_of[ci as usize]))
        .collect();
    // Vector path: one epoch-indexed counting pass over all observation
    // events replaces the per-(object, container) merge joins; the counts —
    // and therefore the selected candidates — are identical.
    if config.vector_kernels && config.candidate_pruning {
        fill_colocation_matrix(s, &obs_of, &set_readers);
    }
    s.cand_arena.clear();
    s.cand_start.clear();
    s.prior_w.clear();
    for (k, &oi) in s.objects.iter().enumerate() {
        s.cand_start.push(s.cand_arena.len() as u32);
        let start = s.cand_arena.len();
        if config.candidate_pruning {
            if config.vector_kernels {
                let nc = s.all_containers.len();
                s.colo_counts.clear();
                for cpos in 0..nc {
                    let count = s.colo_matrix[k * nc + cpos];
                    if count > 0 {
                        s.colo_counts.push((s.all_containers[cpos], count as usize));
                    }
                }
                s.colo_counts
                    .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                s.cand_arena.extend(
                    s.colo_counts
                        .iter()
                        .take(config.candidate_limit)
                        .map(|&(c, _)| c),
                );
            } else {
                Observations::candidate_indices_dense(
                    obs_of[oi as usize],
                    &container_columns,
                    config.candidate_limit,
                    &mut s.colo_counts,
                    &mut s.cand_arena,
                );
            }
        } else {
            s.cand_arena.extend_from_slice(&s.all_containers);
        }
        for (c, _) in prior.entries_for(s.tags[oi as usize]) {
            let ci = s.tags.binary_search(&c).expect("prior tags interned") as u32;
            if !s.cand_arena[start..].contains(&ci) {
                s.cand_arena.push(ci);
            }
        }
        // Resolve the prior weight of every candidate once.
        for &ci in &s.cand_arena[start..] {
            s.prior_w
                .push(prior.get(s.tags[oi as usize], s.tags[ci as usize]));
        }
    }
    s.cand_start.push(s.cand_arena.len() as u32);

    // Candidate positions (relative to each object's range) sorted by
    // ascending container index — the tie ordering of the reference
    // solver's `BTreeMap` argmax walks.
    s.cand_sorted.clear();
    for k in 0..num_objects {
        let start = s.cand_start[k] as usize;
        let end = s.cand_start[k + 1] as usize;
        s.cand_sorted.extend(0..(end - start) as u32);
        let arena = &s.cand_arena;
        s.cand_sorted[start..end].sort_unstable_by_key(|&p| arena[start + p as usize]);
    }

    // ---- Initial assignment ------------------------------------------
    // Strongest prior if any (later candidates win ties, like the
    // reference's `max_by`), otherwise the top-ranked candidate.
    s.assign.clear();
    s.assign.resize(num_objects, NONE_IDX);
    s.new_assign.clear();
    s.new_assign.resize(num_objects, NONE_IDX);
    for k in 0..num_objects {
        let range = s.cand_start[k] as usize..s.cand_start[k + 1] as usize;
        if range.is_empty() {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for flat in range.clone() {
            let w = s.prior_w[flat];
            if w != 0.0 && best.is_none_or(|(_, bw)| w >= bw) {
                best = Some((s.cand_arena[flat], w));
            }
        }
        s.assign[k] = best.map(|(ci, _)| ci).unwrap_or(s.cand_arena[range.start]);
    }

    // ---- Relevant containers + slots ---------------------------------
    s.mark.clear();
    s.mark.resize(num_tags, false);
    for &ci in &s.cand_arena {
        s.mark[ci as usize] = true;
    }
    for &ci in &s.all_containers {
        s.mark[ci as usize] = true;
    }
    s.rel.clear();
    s.slot_of.clear();
    s.slot_of.resize(num_tags, NONE_IDX);
    for i in 0..num_tags {
        if s.mark[i] {
            s.slot_of[i] = s.rel.len() as u32;
            s.rel.push(i as u32);
        }
    }
    let num_rel = s.rel.len();

    // ---- Needed epochs per relevant container ------------------------
    // Counting pass, prefix sums, fill, then per-slot sort + dedup: the
    // set-union of the reference built with vector constants.
    s.slot_fill.clear();
    s.slot_fill.resize(num_rel, 0);
    for (slot, &ci) in s.rel.iter().enumerate() {
        s.slot_fill[slot] = obs_of[ci as usize].len() as u32;
    }
    for k in 0..num_objects {
        let len = obs_of[s.objects[k] as usize].len() as u32;
        for flat in s.cand_start[k] as usize..s.cand_start[k + 1] as usize {
            s.slot_fill[s.slot_of[s.cand_arena[flat] as usize] as usize] += len;
        }
    }
    s.epochs_start.clear();
    let mut total = 0u32;
    for slot in 0..num_rel {
        s.epochs_start.push(total);
        total += s.slot_fill[slot];
        s.slot_fill[slot] = s.epochs_start[slot];
    }
    s.epochs_arena.clear();
    s.epochs_arena.resize(total as usize, Epoch(0));
    for (slot, &ci) in s.rel.iter().enumerate() {
        let cur = s.slot_fill[slot] as usize;
        for (off, o) in obs_of[ci as usize].iter().enumerate() {
            s.epochs_arena[cur + off] = o.epoch;
        }
        s.slot_fill[slot] += obs_of[ci as usize].len() as u32;
    }
    for k in 0..num_objects {
        let list = obs_of[s.objects[k] as usize];
        for flat in s.cand_start[k] as usize..s.cand_start[k + 1] as usize {
            let slot = s.slot_of[s.cand_arena[flat] as usize] as usize;
            let cur = s.slot_fill[slot] as usize;
            for (off, o) in list.iter().enumerate() {
                s.epochs_arena[cur + off] = o.epoch;
            }
            s.slot_fill[slot] += list.len() as u32;
        }
    }
    // Epoch span of the run, for the bitset dedup (the arena holds every
    // observed epoch, so min/max bound every slot's segment).
    let dedup_base = if config.vector_kernels {
        let base = s.epochs_arena.iter().copied().min().unwrap_or(Epoch(0));
        let max = s.epochs_arena.iter().copied().max().unwrap_or(base);
        let span = max.since(base) as usize + 1;
        // Epoch spans are bounded by the retained history; fall back to the
        // plain sort if a pathological store says otherwise.
        if span <= (1 << 24) {
            s.seen.clear();
            s.seen.resize(span.div_ceil(64), 0);
            Some(base)
        } else {
            None
        }
    } else {
        None
    };
    s.epochs_len.clear();
    for slot in 0..num_rel {
        let start = s.epochs_start[slot] as usize;
        let end = if slot + 1 < num_rel {
            s.epochs_start[slot + 1] as usize
        } else {
            s.epochs_arena.len()
        };
        let len = match dedup_base {
            Some(base) => sort_dedup_bitmap(
                &mut s.epochs_arena[start..end],
                base,
                &mut s.seen,
                &mut s.uniq,
            ),
            None => sort_dedup(&mut s.epochs_arena[start..end]),
        };
        s.epochs_len.push(len as u32);
    }

    // ---- Re-intern the previous run's cache --------------------------
    // Containers or members that left the universe can never match or be
    // requested this run, so variants naming them are dropped — exactly
    // what the reference's `TagId` comparisons would conclude.
    let mut prev_slots: Vec<Vec<PrevVariant>> = Vec::with_capacity(num_rel);
    prev_slots.resize_with(num_rel, Vec::new);
    for (tag, variants) in prev_cache {
        let Ok(ci) = s.tags.binary_search(&tag) else {
            continue;
        };
        let slot = s.slot_of[ci];
        if slot == NONE_IDX {
            continue;
        }
        let converted = &mut prev_slots[slot as usize];
        'variant: for v in variants {
            let mut members = Vec::with_capacity(v.members.len());
            for m in &v.members {
                match s.tags.binary_search(m) {
                    Ok(mi) => members.push(mi as u32),
                    Err(_) => continue 'variant,
                }
            }
            let evidence = v
                .evidence
                .into_iter()
                .filter_map(|(o, series)| {
                    s.tags
                        .binary_search(&o)
                        .ok()
                        .map(|oi| (oi as u32, Some(series)))
                })
                .collect();
            converted.push(PrevVariant {
                members,
                epochs: v.epochs,
                qrows: v.qrows,
                evidence,
            });
        }
    }

    // ---- EM loop ------------------------------------------------------
    // The M-step's output columns and the thread pool leave the scratch for
    // the loop, so the phases can split them mutably while `Cols` borrows
    // the rest of it shared.
    s.weights.clear();
    s.weights.resize(s.cand_arena.len(), 0.0);
    let mut weights = std::mem::take(&mut s.weights);
    let mut new_assign = std::mem::take(&mut s.new_assign);
    let mut pool = std::mem::take(&mut s.threads);
    let mut current: Vec<Option<DVariant>> = Vec::with_capacity(num_rel);
    current.resize_with(num_rel, || None);
    let mut retired: Vec<Vec<DVariant>> = Vec::with_capacity(num_rel);
    retired.resize_with(num_rel, Vec::new);
    let mut iterations = 0;
    for iter in 0..config.max_iterations.max(1) {
        iterations = iter + 1;

        // Members per container from the current assignment.
        count_members(
            &s.assign,
            &s.objects,
            &s.slot_of,
            &mut s.slot_fill,
            &mut s.member_start,
            &mut s.member_arena,
            num_rel,
        );
        let c = Cols::of(s, rf, dirty, &obs_of);

        // E-step (Eq. 4) over every relevant container, split by slot.
        let costs: Vec<usize> = (0..num_rel)
            .map(|slot| estep_cost(&c, slot, current[slot].as_ref()))
            .collect();
        let helpers = split::helpers_for(costs.iter().sum());
        let threads = thread_states(&mut pool, helpers);
        let ranges = split::ranges(costs.into_iter(), helpers + 1);
        let chunks: Vec<_> = ranges
            .iter()
            .map(|r| r.start)
            .zip(split_by(&mut current, &ranges))
            .zip(split_by(&mut retired, &ranges))
            .zip(split_by(&mut prev_slots, &ranges))
            .collect();
        split::drain(threads, chunks, |ts, (((start, cur), ret), prev)| {
            let mut member_rows = Vec::new();
            for i in 0..cur.len() {
                estep_slot(
                    &c,
                    iter,
                    start + i,
                    &mut cur[i],
                    &mut ret[i],
                    &mut prev[i],
                    ts,
                    &mut member_rows,
                );
            }
        });
        gather_stats(&mut stats, threads);

        // M-step (Eq. 5): weight rows and the new assignment, split by
        // object. The split pass only reads the variants; the series it
        // derives are pushed onto them afterwards, in ascending object
        // order.
        let helpers = split::helpers_for((0..num_objects).map(|k| c.object_cost(k)).sum());
        let threads = thread_states(&mut pool, helpers);
        let ranges = split::ranges((0..num_objects).map(|k| c.object_cost(k)), helpers + 1);
        let flat_ranges: Vec<Range<usize>> = ranges
            .iter()
            .map(|r| c.s.cand_start[r.start] as usize..c.s.cand_start[r.end] as usize)
            .collect();
        let mut pushes: Vec<Vec<EvidencePush>> = ranges.iter().map(|_| Vec::new()).collect();
        let chunks: Vec<_> = ranges
            .iter()
            .cloned()
            .zip(split_by(&mut weights, &flat_ranges))
            .zip(split_by(&mut new_assign, &ranges))
            .zip(pushes.iter_mut())
            .collect();
        let variants = &current;
        split::drain(threads, chunks, |ts, (((objects, w), assign), out)| {
            let base = c.s.cand_start[objects.start] as usize;
            for (i, k) in objects.enumerate() {
                let range = c.cands(k);
                let w = &mut w[range.start - base..range.end - base];
                assign[i] = mstep_object(&c, variants, iter, k, w, out, ts);
            }
        });
        gather_stats(&mut stats, threads);
        for push in pushes.into_iter().flatten() {
            let v = current[push.slot as usize]
                .as_mut()
                .expect("evidence for a live variant");
            let series = match push.series {
                Some(series) => series,
                None => take_prev_series(&mut v.prev_evidence, push.object)
                    .expect("moved series present"),
            };
            debug_assert!(
                v.evidence.last().is_none_or(|e| e.0 < push.object),
                "evidence pushed out of object order"
            );
            v.evidence.push((push.object, series));
        }

        let converged = new_assign == s.assign;
        s.assign.copy_from_slice(&new_assign);
        if converged {
            break;
        }
    }
    s.weights = weights;
    s.new_assign = new_assign;

    // ---- Run boundary: convert back to TagId-keyed results -----------
    let outcome = build_outcome(
        rf, s, &mut pool, &obs_of, dirty, &current, iterations, &mut stats,
    );
    s.threads = pool;

    // Refill the cache: the final variant of every container first, then
    // recently retired ones (most recent first), deduplicated by member
    // set and capped — the reference's policy, converted at the boundary.
    if let Some((cache, _)) = incr {
        let mut current = current;
        let mut containers = BTreeMap::new();
        for slot in 0..num_rel {
            let Some(variant) = current[slot].take() else {
                continue;
            };
            let mut chosen: Vec<DVariant> = vec![variant];
            for candidate in retired[slot].drain(..).rev() {
                if chosen.len() >= MAX_CACHED_VARIANTS {
                    break;
                }
                if chosen.iter().all(|v| v.members != candidate.members) {
                    chosen.push(candidate);
                }
            }
            let variants: Vec<CachedVariant> = chosen
                .into_iter()
                .map(|v| CachedVariant {
                    members: v.members.iter().map(|&m| s.tags[m as usize]).collect(),
                    epochs: v.epochs,
                    qrows: v.qrows,
                    evidence: v
                        .evidence
                        .into_iter()
                        .map(|(o, series)| (s.tags[o as usize], series))
                        .collect(),
                })
                .collect();
            containers.insert(s.tags[s.rel[slot] as usize], variants);
        }
        cache.containers = containers;
    }
    (outcome, stats)
}

/// Posterior rows the E-step may evaluate for `slot`: none when the
/// memoized variant still matches the members.
fn estep_cost(c: &Cols<'_>, slot: usize, current: Option<&DVariant>) -> usize {
    let members = c.members(slot);
    if c.config.memoization && current.is_some_and(|v| v.members == members) {
        0
    } else {
        c.s.epochs_len[slot] as usize * (members.len() + 1)
    }
}

/// E-step (Eq. 4) of one relevant-container slot: keep the memoized variant
/// if its member set is unchanged, otherwise retire it and build this
/// iteration's per-epoch posteriors, moving rows out of the previous run's
/// matching variant wherever the dirty journal allows. Touches only this
/// slot's state and the calling thread's scratch.
#[allow(clippy::too_many_arguments)]
fn estep_slot<'r>(
    c: &Cols<'r>,
    iter: usize,
    slot: usize,
    current: &mut Option<DVariant>,
    retired: &mut Vec<DVariant>,
    prev: &mut Vec<PrevVariant>,
    ts: &mut ThreadScratch,
    member_rows: &mut Vec<&'r [f64]>,
) {
    let nl = c.nl;
    let ci = c.s.rel[slot];
    let members = c.members(slot);
    if let Some(variant) = current.as_ref() {
        if c.config.memoization && variant.members == members {
            return;
        }
    }
    if let Some(old) = current.take() {
        retired.push(old);
    }
    // Cross-run reuse: match the previous run's variant with the same member
    // set (consumed on match, like the reference).
    let matched = prev
        .iter()
        .position(|v| v.members == members)
        .map(|i| prev.swap_remove(i));
    let (prev_epochs, prev_qrows, prev_evidence) = match matched {
        Some(v) => (v.epochs, v.qrows, v.evidence),
        None => (Vec::new(), Vec::new(), Vec::new()),
    };
    // Dirty union over the container and its members, clamped to the cached
    // horizon.
    ts.invalid.clear();
    if let Some(d) = c.dirty {
        if !prev_epochs.is_empty() {
            let union = d.union_for_until(
                std::iter::once(c.s.tags[ci as usize])
                    .chain(members.iter().map(|&m| c.s.tags[m as usize])),
                prev_epochs.last().copied(),
            );
            ts.invalid.extend(union);
        }
    }
    let start = c.s.epochs_start[slot] as usize;
    let needed = &c.s.epochs_arena[start..start + c.s.epochs_len[slot] as usize];
    // Whole-variant fast path, same condition as the reference.
    let fully_reused = !prev_epochs.is_empty()
        && prev_epochs.as_slice() == needed
        && ts
            .invalid
            .iter()
            .all(|t| prev_epochs.binary_search(t).is_err());
    if fully_reused {
        ts.stats.posteriors_reused += prev_epochs.len();
        let reused = prev_epochs.clone();
        *current = Some(DVariant {
            members: members.to_vec(),
            updated_iter: iter,
            epochs: prev_epochs,
            qrows: prev_qrows,
            reused,
            fully_reused: true,
            prev_evidence,
            evidence: Vec::new(),
        });
        return;
    }
    // Per-epoch path: walk the sorted needed epochs in lockstep with the
    // previous variant, the invalid set and every involved tag's observation
    // list (one cursor each — no binary search per epoch).
    let mut epochs_vec: Vec<Epoch> = Vec::with_capacity(needed.len());
    let mut qrows: Vec<f64> = Vec::with_capacity(needed.len() * nl);
    let mut reused_vec: Vec<Epoch> = Vec::new();
    let mut prev_cur = 0usize;
    let mut invalid_cur = 0usize;
    let own = c.obs_of[ci as usize];
    let own_sets = c.sets_of(ci);
    let mut own_cur = 0usize;
    ts.cursors.clear();
    ts.cursors.resize(members.len(), 0);
    for &t in needed {
        while prev_cur < prev_epochs.len() && prev_epochs[prev_cur] < t {
            prev_cur += 1;
        }
        while invalid_cur < ts.invalid.len() && ts.invalid[invalid_cur] < t {
            invalid_cur += 1;
        }
        let hit = ts.invalid.get(invalid_cur) != Some(&t) && prev_epochs.get(prev_cur) == Some(&t);
        if hit {
            // The cached row's bits move into the new arena verbatim.
            ts.stats.posteriors_reused += 1;
            reused_vec.push(t);
            qrows.extend_from_slice(&prev_qrows[prev_cur * nl..(prev_cur + 1) * nl]);
        } else {
            ts.stats.posteriors_computed += 1;
            while own_cur < own.len() && own[own_cur].epoch < t {
                own_cur += 1;
            }
            let base_row = if own_cur < own.len() && own[own_cur].epoch == t {
                c.s.table.row(own_sets[own_cur])
            } else {
                c.model.all_miss_row()
            };
            member_rows.clear();
            for (mi, &m) in members.iter().enumerate() {
                let list = c.obs_of[m as usize];
                let mut cur = ts.cursors[mi] as usize;
                while cur < list.len() && list[cur].epoch < t {
                    cur += 1;
                }
                ts.cursors[mi] = cur as u32;
                member_rows.push(if cur < list.len() && list[cur].epoch == t {
                    c.s.table
                        .row(c.s.set_ids[c.s.set_start[m as usize] as usize + cur])
                } else {
                    c.model.all_miss_row()
                });
            }
            // The posterior normalizes directly onto the arena tail — no
            // per-posterior allocation.
            if c.config.vector_kernels {
                container_posterior_row_into_vector(
                    base_row,
                    member_rows.iter().copied(),
                    &mut qrows,
                );
            } else {
                container_posterior_row_into(base_row, member_rows.iter().copied(), &mut qrows);
            }
        }
        epochs_vec.push(t);
    }
    *current = Some(DVariant {
        members: members.to_vec(),
        updated_iter: iter,
        epochs: epochs_vec,
        qrows,
        reused: reused_vec,
        fully_reused: false,
        prev_evidence,
        evidence: Vec::new(),
    });
}

/// M-step (Eq. 5) of object position `k`: fill its weight row `w` (aligned
/// with its candidate range) and return its new assignment. Reads the
/// variants only; every evidence series that must land on a variant is
/// queued on `pushes` instead, in candidate order.
fn mstep_object(
    c: &Cols<'_>,
    current: &[Option<DVariant>],
    iter: usize,
    k: usize,
    w: &mut [f64],
    pushes: &mut Vec<EvidencePush>,
    ts: &mut ThreadScratch,
) -> u32 {
    let nl = c.nl;
    let incremental = c.incremental();
    let oi = c.s.objects[k];
    let range = c.cands(k);
    if range.is_empty() {
        return NONE_IDX;
    }
    let cands = &c.s.cand_arena[range.clone()];
    let sorted = &c.s.cand_sorted[range.clone()];
    let prior_w = &c.s.prior_w[range];
    let argmax = |w: &[f64], ts: &mut ThreadScratch| {
        if c.config.vector_kernels {
            argmax_weight_vector(sorted, cands, w, &mut ts.argmax_buf)
        } else {
            argmax_weight(sorted, cands, w)
        }
    };
    // Stable-object fast path: every candidate variant untouched this
    // iteration ⇒ last iteration's weight row is bit-identical; re-derive
    // only the argmax, in ascending container order.
    if incremental
        && iter > 0
        && cands.iter().all(|&ci| {
            current[c.s.slot_of[ci as usize] as usize]
                .as_ref()
                .is_none_or(|v| v.updated_iter < iter)
        })
    {
        return argmax(w, ts);
    }
    let o_dirty = c.dirty.and_then(|d| d.epochs_of(c.s.tags[oi as usize]));
    let o_clean = o_dirty.is_none_or(|d| d.is_empty());
    let o_obs = c.obs_of[oi as usize];
    let o_sets = c.sets_of(oi);
    if c.config.vector_kernels {
        // Lane-parallel M-step (the transposed walk): classify every
        // candidate once, then drive all candidates that need the per-epoch
        // walk through ONE pass over the object's observations — one lane
        // per candidate accumulator. Each lane keeps the scalar walk's exact
        // sequence of reuse decisions, dot products and additions (prior
        // first, then epoch order), and no value flows between lanes, so
        // every weight is bit-identical; only the interleaving across
        // candidates changes. The shared work — the o_obs cursor, the dirty
        // test and the object's loglik row — is paid once per epoch instead
        // of once per (candidate, epoch).
        let walkers = &mut ts.walkers;
        debug_assert!(walkers.is_empty());
        for (off, &ci) in cands.iter().enumerate() {
            let slot = c.s.slot_of[ci as usize];
            let mut wt = prior_w[off];
            if let Some(variant) = current[slot as usize].as_ref() {
                if let Some(series) = find_series(&variant.evidence, oi) {
                    // Same variant as an earlier iteration: identical inputs,
                    // identical series and summation order.
                    ts.stats.evidence_reused += series.len();
                    for &(_, e) in series {
                        wt += e;
                    }
                } else if let Some(series) = (incremental && variant.fully_reused && o_clean)
                    .then(|| prev_series(&variant.prev_evidence, oi))
                    .flatten()
                {
                    // Whole-series fast path: the variant's posteriors all
                    // came from the cache and the object is clean.
                    ts.stats.evidence_reused += series.len();
                    for &(_, e) in series {
                        wt += e;
                    }
                    pushes.push(EvidencePush {
                        slot,
                        object: oi,
                        series: None,
                    });
                } else {
                    walkers.push(MWalker {
                        off: off as u32,
                        slot,
                        w: wt,
                        series: if incremental {
                            Vec::with_capacity(o_obs.len())
                        } else {
                            Vec::new()
                        },
                        q_cur: 0,
                        r_cur: 0,
                        prev_pos: 0,
                        done: false,
                    });
                    continue;
                }
            }
            w[off] = wt;
        }
        if !walkers.is_empty() {
            // Bind each lane's inputs once — the posterior series, the reuse
            // epochs and the previous run's series are shared borrows of
            // `current`, so the walk reads flat slices instead of chasing
            // through the variant on every epoch.
            let lane_refs: Vec<MLaneRefs<'_>> = walkers
                .iter()
                .map(|wk| {
                    let v = current[wk.slot as usize].as_ref().expect("walker variant");
                    (
                        v.epochs.as_slice(),
                        v.qrows.as_slice(),
                        v.reused.as_slice(),
                        prev_series(&v.prev_evidence, oi),
                    )
                })
                .collect();
            let mut rows: Vec<&[f64]> = Vec::with_capacity(walkers.len());
            let mut dirty_iter = o_dirty.map(|d| d.iter().peekable());
            for (pos, obs_at) in o_obs.iter().enumerate() {
                let t = obs_at.epoch;
                // The dirty test depends only on (object, epoch): hoisted out
                // of the per-candidate walks. Same monotone cursor, same
                // boolean per epoch.
                let o_dirty_here = dirty_iter.as_mut().is_some_and(|it| {
                    while it.peek().is_some_and(|dt| **dt < t) {
                        it.next();
                    }
                    it.peek().is_some_and(|dt| **dt == t)
                });
                ts.active.clear();
                rows.clear();
                let mut all_done = true;
                for (l, (wk, refs)) in walkers.iter_mut().zip(&lane_refs).enumerate() {
                    if wk.done {
                        continue;
                    }
                    let (epochs, qrows, reused, prev) = *refs;
                    while wk.q_cur < epochs.len() && epochs[wk.q_cur] < t {
                        wk.q_cur += 1;
                    }
                    if wk.q_cur >= epochs.len() {
                        wk.done = true;
                        continue;
                    }
                    all_done = false;
                    if epochs[wk.q_cur] != t {
                        continue;
                    }
                    while wk.r_cur < reused.len() && reused[wk.r_cur] < t {
                        wk.r_cur += 1;
                    }
                    if reused.get(wk.r_cur) == Some(&t) && !o_dirty_here {
                        if let Some(series) = prev {
                            while wk.prev_pos < series.len() && series[wk.prev_pos].0 < t {
                                wk.prev_pos += 1;
                            }
                            if let Some(&(pt, e)) = series.get(wk.prev_pos) {
                                if pt == t {
                                    ts.stats.evidence_reused += 1;
                                    wk.series.push((t, e));
                                    wk.w += e;
                                    continue;
                                }
                            }
                        }
                    }
                    ts.stats.evidence_computed += 1;
                    ts.active.push(l as u32);
                    rows.push(&qrows[wk.q_cur * nl..(wk.q_cur + 1) * nl]);
                }
                if all_done {
                    break;
                }
                if ts.active.is_empty() {
                    continue;
                }
                // Point-evidence dots of every active lane against the
                // object's loglik row at this epoch — the row is loaded once
                // and shared across the lanes.
                let row = c.s.table.row(o_sets[pos]);
                for (chunk, qch) in ts
                    .active
                    .chunks(kernels::LANES)
                    .zip(rows.chunks(kernels::LANES))
                {
                    let mut vals = [0.0f64; kernels::LANES];
                    kernels::dot_many_shared(qch, row, &mut vals[..qch.len()]);
                    for (j, &l) in chunk.iter().enumerate() {
                        let wk = &mut walkers[l as usize];
                        let e = vals[j];
                        if incremental {
                            wk.series.push((t, e));
                        }
                        wk.w += e;
                    }
                }
            }
            for wk in walkers.drain(..) {
                if incremental {
                    pushes.push(EvidencePush {
                        slot: wk.slot,
                        object: oi,
                        series: Some(wk.series),
                    });
                }
                w[wk.off as usize] = wk.w;
            }
        }
    } else {
        for (off, &ci) in cands.iter().enumerate() {
            let slot = c.s.slot_of[ci as usize];
            let mut wt = prior_w[off];
            if let Some(variant) = current[slot as usize].as_ref() {
                if let Some(series) = find_series(&variant.evidence, oi) {
                    // Same variant as an earlier iteration: identical inputs,
                    // identical series and summation order.
                    ts.stats.evidence_reused += series.len();
                    for &(_, e) in series {
                        wt += e;
                    }
                } else if incremental {
                    // Whole-series fast path: the variant's posteriors all
                    // came from the cache and the object is clean.
                    let moved = (variant.fully_reused && o_clean)
                        .then(|| prev_series(&variant.prev_evidence, oi))
                        .flatten();
                    if let Some(series) = moved {
                        ts.stats.evidence_reused += series.len();
                        for &(_, e) in series {
                            wt += e;
                        }
                        pushes.push(EvidencePush {
                            slot,
                            object: oi,
                            series: None,
                        });
                    } else {
                        // Per-epoch path: lockstep walk over the object's
                        // observations, the variant's sorted posterior
                        // series, its reuse set, the dirty set and the
                        // previous series.
                        let mut prev = PrevSeries::new(prev_series(&variant.prev_evidence, oi));
                        let mut series = Vec::with_capacity(o_obs.len());
                        let mut q_cur = 0usize;
                        let mut r_cur = 0usize;
                        let mut dirty_iter = o_dirty.map(|d| d.iter().peekable());
                        for (pos, obs_at) in o_obs.iter().enumerate() {
                            let t = obs_at.epoch;
                            while q_cur < variant.epochs.len() && variant.epochs[q_cur] < t {
                                q_cur += 1;
                            }
                            let Some(&qt) = variant.epochs.get(q_cur) else {
                                break;
                            };
                            if qt != t {
                                continue;
                            }
                            while r_cur < variant.reused.len() && variant.reused[r_cur] < t {
                                r_cur += 1;
                            }
                            let posterior_reused = variant.reused.get(r_cur) == Some(&t);
                            let o_dirty_here = dirty_iter.as_mut().is_some_and(|it| {
                                while it.peek().is_some_and(|dt| **dt < t) {
                                    it.next();
                                }
                                it.peek().is_some_and(|dt| **dt == t)
                            });
                            let reusable = posterior_reused && !o_dirty_here;
                            let e = match reusable.then(|| prev.lookup(t)).flatten() {
                                Some(e) => {
                                    ts.stats.evidence_reused += 1;
                                    e
                                }
                                None => {
                                    ts.stats.evidence_computed += 1;
                                    expect_row_of(
                                        &variant.qrows[q_cur * nl..(q_cur + 1) * nl],
                                        c.s.table.row(o_sets[pos]),
                                    )
                                }
                            };
                            series.push((t, e));
                            wt += e;
                        }
                        pushes.push(EvidencePush {
                            slot,
                            object: oi,
                            series: Some(series),
                        });
                    }
                } else {
                    // Full recompute: lockstep walk, memoized rows.
                    let mut q_cur = 0usize;
                    for (pos, obs_at) in o_obs.iter().enumerate() {
                        let t = obs_at.epoch;
                        while q_cur < variant.epochs.len() && variant.epochs[q_cur] < t {
                            q_cur += 1;
                        }
                        if let Some(&qt) = variant.epochs.get(q_cur) {
                            if qt == t {
                                ts.stats.evidence_computed += 1;
                                wt += expect_row_of(
                                    &variant.qrows[q_cur * nl..(q_cur + 1) * nl],
                                    c.s.table.row(o_sets[pos]),
                                );
                            }
                        }
                    }
                }
            }
            w[off] = wt;
        }
    }
    argmax(w, ts)
}

/// Convert the dense EM state into the public `TagId`-keyed
/// [`InferenceOutcome`] — the only place interned indices are translated
/// back. The per-object evidence is split by object.
#[allow(clippy::too_many_arguments)]
fn build_outcome(
    rf: &RfInfer<'_>,
    s: &mut DenseScratch,
    pool: &mut Vec<ThreadScratch>,
    obs_of: &[&[ObsAt]],
    dirty: Option<&DirtySet>,
    current: &[Option<DVariant>],
    iterations: usize,
    stats: &mut InferenceStats,
) -> InferenceOutcome {
    let model = rf.model;
    let num_objects = s.objects.len();
    let num_rel = s.rel.len();

    // Point evidence per (object, candidate) from the final posteriors; in
    // incremental mode the final M-step iteration already stored every
    // series, so the builder clones instead of re-deriving.
    let objects_map: BTreeMap<TagId, ObjectEvidence> = {
        let c = Cols::of(s, rf, dirty, obs_of);
        let helpers = split::helpers_for((0..num_objects).map(|k| c.object_cost(k)).sum());
        let threads = thread_states(pool, helpers);
        let ranges = split::ranges((0..num_objects).map(|k| c.object_cost(k)), helpers + 1);
        let mut built: Vec<Vec<(TagId, ObjectEvidence)>> =
            ranges.iter().map(|_| Vec::new()).collect();
        let (weights, assign) = (&s.weights, &s.assign);
        split::drain(
            threads,
            ranges.into_iter().zip(built.iter_mut()).collect(),
            |ts, (objects, out)| {
                for k in objects {
                    out.push(object_evidence(&c, current, weights, assign[k], k, ts));
                }
            },
        );
        gather_stats(stats, threads);
        built.into_iter().flatten().collect()
    };

    // Location estimates: containers from their posteriors at informative
    // epochs only. Members come from the *final* assignment (it may have
    // moved after the last E-step), recounted into the member arena.
    count_members(
        &s.assign,
        &s.objects,
        &s.slot_of,
        &mut s.slot_fill,
        &mut s.member_start,
        &mut s.member_arena,
        num_rel,
    );

    let mut tag_locations: BTreeMap<TagId, Locations> = BTreeMap::new();
    let c = Cols::of(s, rf, dirty, obs_of);
    let cursors = &mut thread_states(pool, 0)[0].cursors;
    for (slot, variant) in current.iter().enumerate() {
        let Some(variant) = variant else {
            continue;
        };
        let locs = container_locations(&c, slot, variant, cursors);
        if !locs.is_empty() {
            tag_locations.insert(s.tags[s.rel[slot] as usize], locs);
        }
    }
    // Objects with no assigned container fall back to their own readings
    // (the memoized row *is* the log-weight vector of that posterior).
    for k in 0..num_objects {
        if s.assign[k] != NONE_IDX {
            continue;
        }
        let oi = s.objects[k];
        let o_obs = obs_of[oi as usize];
        let o_sets =
            &s.set_ids[s.set_start[oi as usize] as usize..s.set_start[oi as usize + 1] as usize];
        let locs: Vec<(Epoch, LocationId)> = o_obs
            .iter()
            .enumerate()
            .map(|(pos, obs_at)| {
                let loc = if rf.config.vector_kernels {
                    // Normalize into the reusable scratch row instead of
                    // allocating a posterior per epoch; same kernel, same
                    // later-ties-win MAP scan, identical location.
                    s.row_scratch.clear();
                    s.row_scratch.extend_from_slice(s.table.row(o_sets[pos]));
                    kernels::exp_normalize(&mut s.row_scratch);
                    Posterior::map_location_of_row(&s.row_scratch)
                } else {
                    Posterior::from_log_weights(s.table.row(o_sets[pos]).to_vec()).map_location()
                };
                (obs_at.epoch, loc)
            })
            .collect();
        if !locs.is_empty() {
            tag_locations.insert(s.tags[oi as usize], locs);
        }
    }

    let mut containment = ContainmentMap::new();
    for k in 0..num_objects {
        if s.assign[k] != NONE_IDX {
            containment.set(s.tags[s.objects[k] as usize], s.tags[s.assign[k] as usize]);
        }
    }

    InferenceOutcome {
        containment,
        objects: objects_map,
        tag_locations,
        iterations,
        num_locations: model.num_locations(),
    }
}

/// The MAP location of container `slot` at each informative epoch of its
/// final posteriors — an epoch where the container or one of its final
/// members was read.
fn container_locations(
    c: &Cols<'_>,
    slot: usize,
    variant: &DVariant,
    cursors: &mut Vec<u32>,
) -> Locations {
    let own = c.obs_of[c.s.rel[slot] as usize];
    let members = c.members(slot);
    let mut own_cur = 0usize;
    cursors.clear();
    cursors.resize(members.len(), 0);
    let mut locs = Locations::new();
    for (&t, q) in variant.epochs.iter().zip(variant.qrows.chunks_exact(c.nl)) {
        while own_cur < own.len() && own[own_cur].epoch < t {
            own_cur += 1;
        }
        let mut informative = own_cur < own.len() && own[own_cur].epoch == t;
        for (mi, &m) in members.iter().enumerate() {
            let list = c.obs_of[m as usize];
            let mut cur = cursors[mi] as usize;
            while cur < list.len() && list[cur].epoch < t {
                cur += 1;
            }
            cursors[mi] = cur as u32;
            if !informative && cur < list.len() && list[cur].epoch == t {
                informative = true;
            }
        }
        if informative {
            // The later-ties-win scan of `Posterior::map_location`, over the
            // arena row directly.
            locs.push((t, Posterior::map_location_of_row(q)));
        }
    }
    locs
}

/// The [`ObjectEvidence`] of object position `k`: its candidates, final
/// weights, assignment and per-candidate point-evidence series, cloned from
/// the final M-step in incremental mode and re-derived from the final
/// posteriors otherwise.
fn object_evidence(
    c: &Cols<'_>,
    current: &[Option<DVariant>],
    weights: &[f64],
    assign: u32,
    k: usize,
    ts: &mut ThreadScratch,
) -> (TagId, ObjectEvidence) {
    let nl = c.nl;
    let oi = c.s.objects[k];
    let range = c.cands(k);
    let o_obs = c.obs_of[oi as usize];
    let o_sets = c.sets_of(oi);
    // One points list per candidate, indexed by offset within `range`.
    let mut flat_points: Vec<Vec<(Epoch, f64)>> = Vec::new();
    flat_points.resize_with(range.len(), Vec::new);
    // Lanes of the transposed recompute walk (vector path): one per
    // candidate whose series must be re-derived from the final posteriors.
    struct BLane<'v> {
        off: usize,
        q_cur: usize,
        v: &'v DVariant,
    }
    let mut lanes: Vec<BLane<'_>> = Vec::new();
    for (off, flat) in range.clone().enumerate() {
        let ci = c.s.cand_arena[flat];
        if let Some(variant) = current[c.s.slot_of[ci as usize] as usize].as_ref() {
            match find_series(&variant.evidence, oi) {
                Some(series) if c.incremental() => {
                    ts.stats.evidence_reused += series.len();
                    flat_points[off] = series.clone();
                }
                _ if c.config.vector_kernels => lanes.push(BLane {
                    off,
                    q_cur: 0,
                    v: variant,
                }),
                _ => {
                    let mut q_cur = 0usize;
                    for (pos, obs_at) in o_obs.iter().enumerate() {
                        let t = obs_at.epoch;
                        while q_cur < variant.epochs.len() && variant.epochs[q_cur] < t {
                            q_cur += 1;
                        }
                        if let Some(&qt) = variant.epochs.get(q_cur) {
                            if qt == t {
                                ts.stats.evidence_computed += 1;
                                flat_points[off].push((
                                    t,
                                    expect_row_of(
                                        &variant.qrows[q_cur * nl..(q_cur + 1) * nl],
                                        c.s.table.row(o_sets[pos]),
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    if !lanes.is_empty() {
        // Same transposed walk as the M-step: one pass over the object's
        // observations drives every lane, the loglik row is loaded once per
        // epoch and shared, and each lane's points accumulate in epoch order
        // — the scalar walk's exact values in the scalar walk's exact order.
        for (pos, obs_at) in o_obs.iter().enumerate() {
            let t = obs_at.epoch;
            ts.active.clear();
            let mut all_done = true;
            for (l, lane) in lanes.iter_mut().enumerate() {
                let epochs = &lane.v.epochs;
                while lane.q_cur < epochs.len() && epochs[lane.q_cur] < t {
                    lane.q_cur += 1;
                }
                if lane.q_cur >= epochs.len() {
                    continue;
                }
                all_done = false;
                if epochs[lane.q_cur] == t {
                    ts.stats.evidence_computed += 1;
                    ts.active.push(l as u32);
                }
            }
            if all_done {
                break;
            }
            if ts.active.is_empty() {
                continue;
            }
            let row = c.s.table.row(o_sets[pos]);
            for chunk in ts.active.chunks(kernels::LANES) {
                let mut qs: [&[f64]; kernels::LANES] = [&[]; kernels::LANES];
                for (j, &l) in chunk.iter().enumerate() {
                    let lane = &lanes[l as usize];
                    qs[j] = &lane.v.qrows[lane.q_cur * nl..(lane.q_cur + 1) * nl];
                }
                let mut vals = [0.0f64; kernels::LANES];
                kernels::dot_many_shared(&qs[..chunk.len()], row, &mut vals[..chunk.len()]);
                for (j, &l) in chunk.iter().enumerate() {
                    flat_points[lanes[l as usize].off].push((t, vals[j]));
                }
            }
        }
    }
    let mut point_evidence: BTreeMap<TagId, Vec<(Epoch, f64)>> = BTreeMap::new();
    let mut object_weights: BTreeMap<TagId, f64> = BTreeMap::new();
    for (off, flat) in range.clone().enumerate() {
        let tag = c.s.tags[c.s.cand_arena[flat] as usize];
        point_evidence.insert(tag, std::mem::take(&mut flat_points[off]));
        object_weights.insert(tag, weights[flat]);
    }
    let evidence = ObjectEvidence {
        candidates: c.s.cand_arena[range]
            .iter()
            .map(|&ci| c.s.tags[ci as usize])
            .collect(),
        weights: object_weights,
        point_evidence,
        assigned: (assign != NONE_IDX).then(|| c.s.tags[assign as usize]),
    };
    (c.s.tags[oi as usize], evidence)
}
