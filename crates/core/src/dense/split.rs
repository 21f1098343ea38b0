//! The dense EM's helper threads: a queue of contiguous chunks that the
//! calling thread and any helpers drain.
//!
//! The costliest phases of a run — the co-location join (per epoch range),
//! the E-step (per relevant-container slot), the M-step and the object
//! evidence (per object), and the threshold calibration (per sample) — hand
//! their work to [`drain`] as contiguous chunks. Every chunk writes only its
//! own slots, objects, samples or count matrix, in the same
//! operation order as a single thread would, so **no float value ever
//! crosses threads**: the only cross-thread merges are integer counter sums,
//! `u32` count-matrix sums, and in-order concatenations the calling thread
//! performs after the drain. A run is therefore bit-identical for every
//! helper count.
//!
//! The helper budget is derived, not configured: a thread that runs
//! inference shares the machine's cores with its sibling executor workers
//! ([`share_cores`]), and borrows up to `cores / sharers − 1` helpers, one
//! per [`MIN_SPLIT_WORK`] units of the phase's work. A phase smaller than
//! that stays on the calling thread.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Work, in units, that pays for one helper thread. A unit is one step of
/// the phase's inner loop: a posterior row or point-evidence value to
/// evaluate, an observation event to join, a sampled reading to infer over.
/// A helper spawn costs about 40 µs, so a phase smaller than this runs on the
/// calling thread alone — the calibration's individual sample runs and most
/// incremental runs of a federated site never spawn — and a larger one
/// borrows at most one helper per this many units.
const MIN_SPLIT_WORK: usize = 20_000;

/// Chunks per thread of a split phase: enough that a thread which drew a
/// cheap chunk takes another instead of idling behind a costly one.
const CHUNKS_PER_THREAD: usize = 8;

thread_local! {
    /// How many threads, this one included, run inference side by side.
    static SHARERS: Cell<usize> = const { Cell::new(1) };
}

#[cfg(test)]
thread_local! {
    /// Helper count forced by [`with_forced_helpers`], cutoff ignored.
    static FORCED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Declare that the calling thread is one of `threads` threads running
/// inference side by side — the workers of a multi-worker executor. The dense
/// EM on this thread then borrows at most `cores / threads − 1` helpers, so
/// the executor's threads and their helpers never exceed the machine's
/// cores. A thread that never calls this counts as running alone.
pub fn share_cores(threads: usize) {
    SHARERS.with(|s| s.set(threads.max(1)));
}

/// Run `f` with every split phase on this thread drained by exactly
/// `helpers` helper threads, however small the phase. The determinism tests
/// use it to compare split runs against single-thread runs on small stores.
#[cfg(test)]
pub(crate) fn with_forced_helpers<R>(helpers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(helpers))));
    f()
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Helper threads a phase of `work` units may use on the calling thread.
pub(crate) fn helpers_for(work: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = FORCED.with(Cell::get) {
        return forced;
    }
    (cores() / SHARERS.with(Cell::get))
        .saturating_sub(1)
        .min(work / MIN_SPLIT_WORK)
}

/// Cut `0..costs.len()` into contiguous ranges of roughly equal total cost:
/// one range for a single thread, [`CHUNKS_PER_THREAD`] per thread
/// otherwise. Zero-cost items ride along with their neighbours.
pub(crate) fn ranges(
    costs: impl ExactSizeIterator<Item = usize>,
    threads: usize,
) -> Vec<Range<usize>> {
    let n = costs.len();
    if threads <= 1 || n == 0 {
        return std::iter::once(0..n).collect();
    }
    let costs: Vec<usize> = costs.collect();
    let total: usize = costs.iter().sum();
    let target = total.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let mut out = Vec::new();
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Drain `chunks` on the calling thread plus `states.len() − 1` helper
/// threads. Each thread takes chunks off one shared queue, in order, and
/// folds them into its own state with `work`; the calling thread uses
/// `states[0]`. With one state, or one chunk, everything runs on the calling
/// thread in chunk order.
pub(crate) fn drain<S: Send, C: Send>(
    states: &mut [S],
    chunks: Vec<C>,
    work: impl Fn(&mut S, C) + Sync,
) {
    let threads = states.len().min(chunks.len());
    if threads <= 1 {
        let state = states.first_mut().expect("at least one thread state");
        for chunk in chunks {
            work(state, chunk);
        }
        return;
    }
    let queue = Mutex::new(chunks.into_iter());
    let run = |state: &mut S| loop {
        // The guard drops at the end of the statement, so chunks run
        // unlocked.
        let next = queue
            .lock()
            .expect("the chunk queue is locked only across `next`, which cannot panic")
            .next();
        match next {
            Some(chunk) => work(state, chunk),
            None => break,
        }
    };
    let (mine, helpers) = states[..threads].split_at_mut(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| {
                scope.spawn(|| {
                    // A helper already holds a spare core: work it runs
                    // never borrows helpers of its own.
                    SHARERS.with(|s| s.set(usize::MAX));
                    run(state)
                })
            })
            .collect();
        run(&mut mine[0]);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_every_item_once_in_order() {
        for threads in 1..=4 {
            for costs in [
                vec![],
                vec![0; 5],
                vec![1; 37],
                vec![100, 0, 0, 1, 1, 50, 3, 0, 9],
            ] {
                let got = ranges(costs.iter().copied(), threads);
                let flat: Vec<usize> = got.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(flat, (0..costs.len()).collect::<Vec<_>>(), "{costs:?}");
                assert!(got.iter().all(|r| !r.is_empty()) || costs.is_empty());
            }
        }
        assert_eq!(ranges([5usize, 5].into_iter(), 1), vec![0..2]);
    }

    #[test]
    fn drain_visits_every_chunk_once_on_any_thread_count() {
        for threads in 1..=3 {
            let mut states = vec![Vec::new(); threads];
            drain(
                &mut states,
                (0..50u32).collect(),
                |seen: &mut Vec<u32>, c| seen.push(c),
            );
            let mut all: Vec<u32> = states.concat();
            // Each thread takes chunks off the queue in order.
            assert!(states.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
            all.sort_unstable();
            assert_eq!(all, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn forced_helpers_override_the_cutoff_and_restore() {
        assert_eq!(helpers_for(0), 0);
        with_forced_helpers(1, || {
            assert_eq!(helpers_for(0), 1);
            with_forced_helpers(0, || assert_eq!(helpers_for(usize::MAX), 0));
            assert_eq!(helpers_for(0), 1);
        });
        assert_eq!(helpers_for(0), 0);
    }

    #[test]
    fn sharing_all_cores_leaves_no_helpers() {
        std::thread::spawn(|| {
            share_cores(cores());
            assert_eq!(helpers_for(usize::MAX), 0);
            share_cores(1);
            assert_eq!(helpers_for(usize::MAX), cores() - 1);
            // Each helper needs its own share of the work.
            assert_eq!(helpers_for(MIN_SPLIT_WORK - 1), 0);
            assert_eq!(helpers_for(2 * MIN_SPLIT_WORK), (cores() - 1).min(2));
        })
        .join()
        .unwrap();
    }
}
