//! Sharded, thread-per-site execution of the federated driver.
//!
//! The paper's architectural point (Section 4) is that federated inference is
//! *embarrassingly per-site*: each site owns its readers, its engine and its
//! query processor, and the only cross-site traffic is the migrating state of
//! dispatched objects. This module makes that independence real in the
//! execution model:
//!
//! ```text
//!            run_parallel (coordinator)
//!   ┌───────────────┬───────────────┬───────────────┐
//!   worker 0        worker 1        worker 2          std::thread::scope
//!   sites 0,3,6…    sites 1,4,7…    sites 2,5,8…      (round-robin shards)
//!   │ ingest        │ ingest        │ ingest          per epoch t:
//!   │ deliver(t)    │ deliver(t)    │ deliver(t)        arrivals
//!   │ depart(t) ──msg──▶ mpsc ◀──msg── depart(t)        dispatches
//!   ├───────────────┴──barrier──────┴───────────────┤  epoch-stride sync
//!   │ drain inbox → zero-transit → step + feed events│  second pass + P4
//!   └───────────────┬───────────────┬───────────────┘
//!            merge_outcomes (comm, alerts, containment, ONS)
//! ```
//!
//! Determinism: each worker drives the same [`SiteState`] methods in the same
//! per-epoch order as the sequential replay; custody is tracked by a local
//! [`OnsTracker`] replica (a pure function of the static transfer schedule);
//! and arrival batches are re-sorted into sequential generation order before
//! import. The per-epoch barrier guarantees every shipment departing at epoch
//! `t` is in its destination's channel before any worker processes the rest
//! of epoch `t`; shipments a racing worker sends from epoch `t+1` early are
//! buffered by arrival epoch, and [`SiteState::deliver`] holds zero-transit
//! shipments back for the post-departure pass of their epoch. The merged
//! [`DistributedOutcome`] is therefore bit-identical to the sequential
//! driver's.

use crate::driver::{
    merge_outcomes, DistributedDriver, DistributedOutcome, FederatedCtx, OnsTracker, ShipmentMsg,
    SiteOutcome, SiteState,
};
use rfid_sim::ChainTrace;
use rfid_types::{Epoch, TagId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, PoisonError};

/// A reusable epoch barrier that — unlike `std::sync::Barrier` — can be
/// *poisoned*: when one worker panics, every sibling blocked on (or later
/// reaching) the barrier panics too instead of waiting forever, so the
/// original panic propagates through `std::thread::scope` as a failure
/// rather than deadlocking the run (and CI) at the next epoch boundary.
struct EpochBarrier {
    state: Mutex<BarrierState>,
    condvar: Condvar,
    workers: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl EpochBarrier {
    fn new(workers: usize) -> EpochBarrier {
        EpochBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            condvar: Condvar::new(),
            workers,
        }
    }

    /// Block until every worker arrives, or until the barrier is poisoned —
    /// in which case this panics (after releasing the lock, so the poisoning
    /// thread's own unwind never double-panics).
    fn wait(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.poisoned {
            state.arrived += 1;
            if state.arrived == self.workers {
                state.arrived = 0;
                state.generation = state.generation.wrapping_add(1);
                self.condvar.notify_all();
                return;
            }
            let generation = state.generation;
            while state.generation == generation && !state.poisoned {
                state = self
                    .condvar
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let poisoned = state.poisoned;
        drop(state);
        assert!(
            !poisoned,
            "epoch barrier poisoned: a sibling site worker panicked"
        );
    }

    /// Mark the barrier poisoned and wake every waiter.
    fn poison(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.poisoned = true;
        self.condvar.notify_all();
    }
}

/// Poisons the barrier when its worker unwinds, releasing the siblings.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Run the federated replay with sites sharded round-robin across
/// `config.num_workers` threads (capped at the site count).
pub(crate) fn run_parallel(driver: &DistributedDriver, chain: &ChainTrace) -> DistributedOutcome {
    let num_sites = chain.sites.len();
    let workers = driver.config().num_workers.min(num_sites);
    if workers <= 1 || num_sites <= 1 {
        return driver.run_federated(chain);
    }

    let ctx = FederatedCtx::new(driver, chain);
    let objects = chain.objects();
    let mut senders: Vec<Sender<ShipmentMsg>> = Vec::with_capacity(workers);
    let mut receivers: Vec<Receiver<ShipmentMsg>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let barrier = EpochBarrier::new(workers);

    let mut outcomes: Vec<SiteOutcome> = Vec::with_capacity(num_sites);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, rx) in receivers.into_iter().enumerate() {
            let txs = senders.clone();
            let (ctx, barrier, objects) = (&ctx, &barrier, objects.as_slice());
            handles.push(
                scope.spawn(move || worker_loop(w, workers, ctx, chain, rx, txs, barrier, objects)),
            );
        }
        // The coordinator's sender clones die here so that every channel
        // closes once its peers finish.
        drop(senders);
        for handle in handles {
            match handle.join() {
                Ok(worker_outcomes) => outcomes.extend(worker_outcomes),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let mut ons = OnsTracker::new();
    ons.advance(&chain.transfers, Epoch(ctx.horizon));
    merge_outcomes(outcomes, ons.into_ons())
}

/// One worker: drives the epoch loop for its shard of sites, exchanging
/// shipments with the other workers over channels.
#[allow(clippy::too_many_arguments)]
fn worker_loop<'a>(
    worker: usize,
    workers: usize,
    ctx: &FederatedCtx<'_>,
    chain: &'a ChainTrace,
    rx: Receiver<ShipmentMsg>,
    txs: Vec<Sender<ShipmentMsg>>,
    barrier: &EpochBarrier,
    objects: &[TagId],
) -> Vec<SiteOutcome> {
    // If anything below panics, free the siblings blocked on the barrier.
    let _poison_guard = PoisonOnPanic(barrier);
    // The workers run inference side by side: each leaves the others their
    // share of the cores when it borrows helpers for a large run.
    rfid_core::dense::share_cores(workers);
    // Round-robin shard: worker w owns sites w, w+workers, w+2·workers, …
    let mut sites: Vec<SiteState<'a>> = (worker..chain.sites.len())
        .step_by(workers)
        .map(|site| SiteState::new(ctx, chain, site))
        .collect();
    let mut ons = OnsTracker::new();
    let mut outbound: Vec<ShipmentMsg> = Vec::new();

    for t in 0..=ctx.horizon {
        let now = Epoch(t);
        // Scheduled faults first — identical to the sequential replay — then
        // local streams and previously-buffered arrivals, then dispatches.
        for site in sites.iter_mut() {
            site.maybe_crash(ctx, chain, now);
            site.ingest(now);
            site.deliver(now);
        }
        for site in sites.iter_mut() {
            site.depart(ctx, now, &mut outbound);
        }
        for msg in outbound.drain(..) {
            let dest = msg.to.0 as usize % workers;
            txs[dest]
                .send(msg)
                .expect("destination worker outlives the epoch loop");
        }
        // Epoch-stride barrier: after it, every shipment departing at `t`
        // (from any worker) is in its destination worker's channel. A racing
        // worker may already have sent epoch t+1 departures — those carry
        // arrival epochs ≥ t+1, get buffered by arrival epoch, and if they
        // are zero-transit (arrive == depart == t+1) the arrival pass of
        // t+1 holds them back for the post-departure pass, exactly where
        // the sequential replay imports them.
        barrier.wait();
        while let Ok(msg) = rx.try_recv() {
            let local = msg.to.0 as usize / workers;
            sites[local].receive(msg);
        }
        // Zero-transit deliveries, then the periodic step — against the
        // custody replica as of this epoch's dispatches.
        for site in sites.iter_mut() {
            site.deliver_zero_transit(now);
        }
        ons.advance(&chain.transfers, now);
        for site in sites.iter_mut() {
            site.step_and_feed(ctx, now, ons.get());
            // Durability: cut a checkpoint at the policy boundary. The inbox
            // section is filtered to shipments departing ≤ `now`, so a racing
            // sibling's early epoch-(t+1) delivery cannot leak into it and
            // checkpoint bytes match the sequential replay's.
            site.maybe_checkpoint(now);
        }
    }

    let horizon = Epoch(ctx.horizon);
    sites
        .into_iter()
        .map(|mut site| {
            site.finalize(horizon);
            site.into_outcome(objects, ons.get())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn single_worker_barrier_never_blocks() {
        let barrier = EpochBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
    }

    #[test]
    fn barrier_releases_every_generation() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                for _ in 0..100 {
                    barrier.wait();
                }
            });
            for _ in 0..100 {
                barrier.wait();
            }
            peer.join().unwrap();
        });
    }

    #[test]
    fn poisoned_barrier_panics_waiters_instead_of_hanging() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err());
            // Never arrive at the barrier: poison it instead, as a panicking
            // worker's drop guard would.
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.poison();
            assert!(
                waiter.join().unwrap(),
                "the waiter must panic once poisoned, not block forever"
            );
        });
        // Late arrivals see the poison immediately.
        assert!(catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err());
    }

    #[test]
    fn unwinding_worker_poisons_the_barrier_via_its_guard() {
        let barrier = EpochBarrier::new(2);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _guard = PoisonOnPanic(&barrier);
            panic!("site worker died mid-epoch");
        }));
        assert!(unwound.is_err());
        assert!(
            catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err(),
            "the guard must have poisoned the barrier during unwind"
        );
    }
}
