//! The distributed driver: replays a multi-site [`ChainTrace`] against
//! per-site inference engines and query processors, migrating per-object
//! state between sites according to the configured
//! [`MigrationStrategy`] and accounting every
//! byte that crosses a site boundary (Sections 4, 5.3 and 5.4).
//!
//! Two execution modes cover the paper's spectrum:
//!
//! * **federated** (`None` / `CriticalRegionReadings` / `CollapsedWeights`) —
//!   every site runs its own [`InferenceEngine`] and [`QueryProcessor`];
//!   when a pallet is dispatched, the departing objects' inference state
//!   (nothing, the critical-region readings, or one collapsed weight per
//!   candidate container) and their query state (centroid-compressed) travel
//!   with the shipment, and the ONS custody map is updated;
//! * **centralized** — every raw reading of every site is shipped to one
//!   central engine whose location space is the disjoint union of the
//!   per-site location spaces: the accuracy upper bound and the
//!   communication worst case.
//!
//! The federated mode is built from per-site `SiteState` machines whose
//! only cross-site interaction is the `ShipmentMsg` exchange (both private
//! to this crate). The sequential replay drives every machine on one thread;
//! the `parallel` module shards the same machines across worker threads with
//! bit-identical results (set [`DistributedConfig::num_workers`]).

use crate::comm::{CommCost, MessageKind};
use crate::config::{DistributedConfig, MigrationStrategy};
use crate::ons::{Ons, ONS_UPDATE_BYTES};
use crate::transport::{DeliveryPlan, EdgeSequencer, ReliableInbox, TransportMode, TransportStats};
use rfid_core::{
    InferenceEngine, InferenceReport, InferenceStats, MemoryStats, MigrationState, ThresholdPolicy,
};
use rfid_query::sharing::unshared_bytes_with;
use rfid_query::{share_states_with, Alert, ObjectQueryState, QueryProcessor};
use rfid_sim::{ChainTrace, CrashFault, FaultPlan, ObjectTransfer};
use rfid_types::{
    ContainmentMap, Epoch, LocationId, ObjectEvent, RawReading, ReadRateTable, ReaderId,
    SensorReading, SiteId, TagId,
};
use rfid_wire::{
    ControlMsg, EdgeLedger, PendingShipment, QuarantineEntry, SiteCheckpoint, WireCodec,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Minimum seconds between two departure-forced inference runs at one site;
/// a dispatch within this window reuses the (slightly stale) last outcome.
const FORCED_RUN_SPACING_SECS: u32 = 150;

/// Everything a distributed run produces: the merged containment estimate,
/// alerts, custody registry and the communication bill.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Final containment estimate, each object reported by the site that
    /// owns it according to the ONS.
    pub containment: ContainmentMap,
    /// Bytes and message counts per [`MessageKind`].
    pub comm: CommCost,
    /// All alerts raised by the (per-site or central) query processors, in
    /// firing order.
    pub alerts: Vec<Alert>,
    /// Total migrated query-state bytes with centroid-based sharing — what
    /// the system actually transferred.
    pub query_state_shared_bytes: usize,
    /// What the same migrations would have cost without sharing (the
    /// Section 5.4 baseline).
    pub query_state_unshared_bytes: usize,
    /// The object-name-service custody registry after the run.
    pub ons: Ons,
    /// Number of inference runs executed across all engines.
    pub inference_runs: usize,
    /// Wall-clock time spent inside inference runs, summed across all
    /// engines — the quantity incremental inference attacks.
    pub inference_wall: Duration,
    /// Dirty-set sizes and cache-reuse counters, summed across all runs of
    /// all engines.
    pub inference_stats: InferenceStats,
    /// Reliable-transport counters (envelopes, retransmissions, dedup drops,
    /// degraded-mode abandonments, …) summed across sites. All zero when the
    /// transport is [`TransportMode::Off`].
    pub transport: TransportStats,
    /// Every poisoned envelope quarantined during the run, tagged with the
    /// site that quarantined it, in `(site, from, seq)` order. Empty unless
    /// the fault plan corrupts payloads.
    pub quarantine: Vec<(SiteId, QuarantineEntry)>,
    /// Memory-budget counters (high-water observation count, compactions,
    /// cache evictions) merged across sites. All zero/default unless
    /// [`DistributedConfig::memory_budget`] is set (`high_water` is tracked
    /// whenever a budget is configured, even an unbounded one).
    pub memory: MemoryStats,
    /// Per-directed-edge conservation ledgers, sender and receiver halves
    /// merged, sorted by `(from, to)`. Empty when the transport is
    /// [`TransportMode::Off`] (and for the centralized strategy, whose
    /// uplink has no per-edge bookkeeping). The invariant oracles in
    /// [`crate::oracle`] audit these.
    pub ledgers: Vec<EdgeLedger>,
}

impl DistributedOutcome {
    /// The inferred container of an object (from the site owning it).
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.containment.container_of(object)
    }
}

/// One object's migrating state, en route between two sites.
///
/// This is the message the per-site workers exchange: the sequential driver
/// routes it through in-process inboxes, the parallel driver through
/// `std::sync::mpsc` channels. [`Self::order_key`] reproduces the order in
/// which a strictly sequential replay would have generated the message, so a
/// receiving site imports a batch identically no matter which worker thread
/// delivered which part of it first.
#[derive(Clone)]
pub(crate) struct ShipmentMsg {
    /// Epoch the shipment left its origin.
    pub(crate) depart: Epoch,
    /// Origin site.
    pub(crate) from: SiteId,
    /// Destination site.
    pub(crate) to: SiteId,
    /// The migrating tag.
    pub(crate) tag: TagId,
    /// Epoch the shipment reaches `to` and its state is imported.
    pub(crate) arrive: Epoch,
    /// Reliable-transport sequence number on the `from → to` edge; every
    /// retransmitted copy of one envelope carries the same number, which is
    /// how the receiver deduplicates. Always 0 when the transport is off or
    /// the envelope carries nothing.
    pub(crate) seq: u64,
    /// Epoch the *object* physically reaches `to` per the trace — unlike
    /// [`arrive`](Self::arrive), never stretched by delivery faults or
    /// retransmission. A copy with `arrive > physical` is late state merged
    /// into an engine that already cold-started the object, and state older
    /// than the tag's last local departure is stale.
    pub(crate) physical: Epoch,
    /// Migrating inference state (see [`MigrationStrategy`]), already encoded
    /// in the run's [`WireCodec`] — exactly the bytes charged to
    /// [`MessageKind::InferenceState`]. `None` when nothing migrates (the
    /// `None` strategy, or a container tag re-localized from its own
    /// readings), which costs no message at all.
    inference: Option<Vec<u8>>,
    /// Migrating per-object query state.
    query: Vec<ObjectQueryState>,
}

impl ShipmentMsg {
    /// Sequential generation order: epochs ascending, then origin site, then
    /// route, then tag — the exact order the one-thread replay emits.
    fn order_key(&self) -> (Epoch, SiteId, SiteId, TagId) {
        (self.depart, self.from, self.to, self.tag)
    }

    /// Whether this message carries anything the transport must deliver
    /// reliably; empty envelopes (the `None` strategy, container tags) skip
    /// the sequence/ack machinery entirely.
    fn is_envelope(&self) -> bool {
        self.inference.is_some() || !self.query.is_empty()
    }

    /// The durable form this message takes inside a [`SiteCheckpoint`].
    fn to_pending(&self) -> PendingShipment {
        PendingShipment {
            depart: self.depart,
            from: self.from.0,
            to: self.to.0,
            tag: self.tag,
            arrive: self.arrive,
            seq: self.seq,
            physical: self.physical,
            inference: self.inference.clone(),
            query: self.query.clone(),
        }
    }

    /// Rehydrate a checkpointed shipment.
    fn from_pending(pending: PendingShipment) -> ShipmentMsg {
        ShipmentMsg {
            depart: pending.depart,
            from: SiteId(pending.from),
            to: SiteId(pending.to),
            tag: pending.tag,
            arrive: pending.arrive,
            seq: pending.seq,
            physical: pending.physical,
            inference: pending.inference,
            query: pending.query,
        }
    }
}

/// Immutable context shared by every site worker of one federated run.
pub(crate) struct FederatedCtx<'a> {
    driver: &'a DistributedDriver,
    /// Last epoch of the replay.
    pub(crate) horizon: u32,
    strategy: MigrationStrategy,
    migrates_state: bool,
    with_queries: bool,
    stride: u32,
    /// Encoder/decoder for every cross-site payload.
    codec: WireCodec,
    /// How much of the reliable-delivery machinery this run engages.
    transport_mode: TransportMode,
    /// The change-point threshold δ of every distinct read-rate table in the
    /// chain, calibrated once here instead of once per engine: the sites of
    /// one warehouse layout share a table, and δ depends only on the table
    /// and the inference configuration. Empty unless the policy calibrates.
    thresholds: Vec<(ReadRateTable, f64)>,
}

impl<'a> FederatedCtx<'a> {
    pub(crate) fn new(driver: &'a DistributedDriver, chain: &ChainTrace) -> FederatedCtx<'a> {
        let strategy = driver.config.strategy;
        let inference = &driver.config.inference;
        let mut thresholds: Vec<(ReadRateTable, f64)> = Vec::new();
        if let Some(ThresholdPolicy::Calibrated { .. }) =
            inference.change_detection.map(|c| c.threshold)
        {
            for site in &chain.sites {
                if thresholds
                    .iter()
                    .all(|(rates, _)| *rates != site.read_rates)
                {
                    let delta = InferenceEngine::new(inference.clone(), site.read_rates.clone())
                        .calibrate_threshold();
                    thresholds.push((site.read_rates.clone(), delta));
                }
            }
        }
        FederatedCtx {
            driver,
            horizon: chain.sites.first().map(|s| s.meta.length).unwrap_or(0),
            strategy,
            migrates_state: strategy != MigrationStrategy::None,
            with_queries: !driver.config.queries.is_empty(),
            stride: driver.config.event_stride_secs.max(1),
            codec: WireCodec::new(driver.config.wire_format),
            transport_mode: TransportMode::resolve(
                driver.config.faults.as_ref(),
                &driver.config.transport,
            ),
            thresholds,
        }
    }

    /// A fresh engine for a site with read-rate table `rates`, its
    /// change-point threshold fixed to the shared calibration.
    pub(crate) fn engine(&self, rates: &ReadRateTable) -> InferenceEngine {
        let mut config = self.driver.config.inference.clone();
        if let Some(&(_, delta)) = self.thresholds.iter().find(|(r, _)| r == rates) {
            config = config.with_fixed_threshold(delta);
        }
        InferenceEngine::new(config, rates.clone())
    }
}

/// Replica of the object name service driven from the static transfer
/// schedule.
///
/// Custody registrations depend only on the transfer list — never on
/// inference results — so every worker advances its own replica locally
/// instead of synchronising on a shared registry: by construction all
/// replicas agree at every epoch boundary.
pub(crate) struct OnsTracker {
    ons: Ons,
    cursor: usize,
}

impl OnsTracker {
    pub(crate) fn new() -> OnsTracker {
        OnsTracker {
            ons: Ons::new(),
            cursor: 0,
        }
    }

    /// Register every transfer departing at or before `now`.
    pub(crate) fn advance(&mut self, transfers: &[ObjectTransfer], now: Epoch) {
        while self.cursor < transfers.len() && transfers[self.cursor].depart <= now {
            self.ons
                .register(transfers[self.cursor].tag, transfers[self.cursor].to_site);
            self.cursor += 1;
        }
    }

    pub(crate) fn get(&self) -> &Ons {
        &self.ons
    }

    pub(crate) fn into_ons(self) -> Ons {
        self.ons
    }
}

/// What one site contributes to the merged [`DistributedOutcome`].
pub(crate) struct SiteOutcome {
    site: usize,
    comm: CommCost,
    shared_bytes: usize,
    unshared_bytes: usize,
    inference_runs: usize,
    inference_wall: Duration,
    inference_stats: InferenceStats,
    alerts: Vec<Alert>,
    containment: Vec<(TagId, TagId)>,
    transport: TransportStats,
    quarantine: Vec<QuarantineEntry>,
    memory: MemoryStats,
    ledgers: BTreeMap<(u16, u16), EdgeLedger>,
}

/// The per-site state machine: one site's engine, query processor, replay
/// cursors and communication tally.
///
/// Both execution modes drive the *same* methods in the *same* per-epoch
/// order — ingest, deliver, depart, (route shipments), deliver, step — which
/// is what makes the parallel driver bit-identical to the sequential one: the
/// only cross-site interaction is the [`ShipmentMsg`] exchange, and imports
/// are replayed in [`ShipmentMsg::order_key`] order at the arrival epoch.
pub(crate) struct SiteState<'a> {
    site: usize,
    engine: InferenceEngine,
    processor: QueryProcessor,
    /// Time-ordered replay source; borrowed straight from the trace when the
    /// batch is already sorted, so large traces are not copied per run.
    readings: Cow<'a, [RawReading]>,
    reading_cursor: usize,
    sensors: Vec<SensorReading>,
    sensor_cursor: usize,
    /// Transfers departing from this site, in global (depart, tag) order.
    departures: Vec<ObjectTransfer>,
    departure_cursor: usize,
    /// Shipments awaiting their arrival epoch, keyed by it.
    inbox: BTreeMap<Epoch, Vec<ShipmentMsg>>,
    /// The run's wire codec (kept here so the arrival path, which has no
    /// context handle, can decode inbound payloads).
    codec: WireCodec,
    comm: CommCost,
    shared_bytes: usize,
    unshared_bytes: usize,
    inference_runs: usize,
    inference_wall: Duration,
    inference_stats: InferenceStats,
    /// Checkpoint period (validated non-zero); `None` disables durability.
    checkpoint_every: Option<u32>,
    /// Encoded bytes of the newest checkpoint — the durable artifact a crash
    /// restores from. Only the newest is retained (bounded memory); the
    /// journal covers everything after it.
    last_checkpoint: Option<Vec<u8>>,
    /// Durable receive log: every shipment accepted since the last
    /// checkpoint compaction. Only maintained when this site can crash.
    journal: Vec<ShipmentMsg>,
    /// The run's fault schedule (cloned per site: plans are small and the
    /// site queries them on hot paths).
    faults: Option<FaultPlan>,
    /// This site's scheduled crash, extracted from the plan.
    crash: Option<CrashFault>,
    /// Set while the site is down after a crash with non-zero downtime;
    /// every processing method is a no-op until the epoch it holds.
    down_until: Option<Epoch>,
    /// Whether this epoch's processing is suppressed (down after a crash).
    down: bool,
    /// How much of the reliable-delivery machinery this run engages.
    transport_mode: TransportMode,
    /// Outbound per-destination sequence counters (transport on only).
    seqs: EdgeSequencer,
    /// Receiver-side dedup state, one [`ReliableInbox`] per inbound edge.
    dedup: BTreeMap<u16, ReliableInbox>,
    /// Last local departure epoch per tag — the staleness guard: transport
    /// copies carrying state older than the tag's last departure from this
    /// site are dropped instead of resurrecting a forwarded object.
    forgotten: BTreeMap<TagId, Epoch>,
    /// Transport counters this site contributes to the merged outcome.
    tstats: TransportStats,
    /// Total sites in the chain (the rejoin resync fans out to all peers).
    num_sites: usize,
    /// This site's reader-clock skew from the fault plan: a reading
    /// timestamped `t` only becomes visible to `ingest` at epoch `t + skew`
    /// (timestamps are untouched — the evidence just surfaces late).
    skew_secs: u32,
    /// Reader slots at this site, the domain of rogue-reader draws.
    num_readers: u16,
    /// Poison ledger: every envelope whose payload failed to decode, in
    /// acceptance order. Durable in the checkpoint.
    quarantine: Vec<QuarantineEntry>,
    /// Memory-budget counters (high-water mark, compactions, evictions).
    /// Durable in the checkpoint.
    memory: MemoryStats,
    /// Per-directed-edge conservation ledgers: this site books the sender
    /// half of its out-edges and the receiver half of its in-edges; the
    /// merge step folds both halves of each edge together. Durable in the
    /// checkpoint.
    ledgers: BTreeMap<(u16, u16), EdgeLedger>,
}

impl<'a> SiteState<'a> {
    pub(crate) fn new(ctx: &FederatedCtx<'_>, chain: &'a ChainTrace, site: usize) -> SiteState<'a> {
        let trace = &chain.sites[site];
        let config = &ctx.driver.config;
        let readings = match trace.readings.sorted_readings() {
            Some(slice) => Cow::Borrowed(slice),
            None => {
                let mut copy = trace.readings.readings_unordered().to_vec();
                copy.sort_unstable();
                copy.dedup();
                Cow::Owned(copy)
            }
        };
        let sensors = match &config.temperature {
            Some(model) if ctx.with_queries => {
                model.generate(trace.meta.num_locations, Epoch(ctx.horizon))
            }
            _ => Vec::new(),
        };
        SiteState {
            site,
            engine: ctx.engine(&trace.read_rates),
            processor: ctx.driver.make_processor(),
            readings,
            reading_cursor: 0,
            sensors,
            sensor_cursor: 0,
            departures: chain
                .transfers
                .iter()
                .filter(|tr| tr.from_site.0 as usize == site)
                .copied()
                .collect(),
            departure_cursor: 0,
            inbox: BTreeMap::new(),
            codec: ctx.codec,
            comm: CommCost::new(),
            shared_bytes: 0,
            unshared_bytes: 0,
            inference_runs: 0,
            inference_wall: Duration::ZERO,
            inference_stats: InferenceStats::default(),
            checkpoint_every: config.checkpoint_every_secs.filter(|&k| k > 0),
            last_checkpoint: None,
            journal: Vec::new(),
            faults: config.faults.clone(),
            crash: config
                .faults
                .as_ref()
                .and_then(|plan| plan.crash(site as u16)),
            down_until: None,
            down: false,
            transport_mode: ctx.transport_mode,
            seqs: EdgeSequencer::new(),
            dedup: BTreeMap::new(),
            forgotten: BTreeMap::new(),
            tstats: TransportStats::default(),
            num_sites: chain.sites.len(),
            skew_secs: config
                .faults
                .as_ref()
                .map_or(0, |plan| plan.clock_skew_secs(site as u16)),
            num_readers: trace.meta.num_locations as u16,
            quarantine: Vec::new(),
            memory: MemoryStats::default(),
            ledgers: BTreeMap::new(),
        }
    }

    /// The conservation ledger of the directed edge `from → to`, created on
    /// first touch.
    fn ledger_entry(&mut self, from: u16, to: u16) -> &mut EdgeLedger {
        self.ledgers
            .entry((from, to))
            .or_insert_with(|| EdgeLedger::new(from, to))
    }

    /// Account one engine run into the site's inference totals.
    fn note_report(&mut self, report: &InferenceReport) {
        self.inference_runs += 1;
        self.inference_wall += report.duration;
        self.inference_stats.absorb(&report.stats);
    }

    /// Feed this epoch's local sensor and RFID streams into the site.
    /// RFID readings falling inside a scheduled reader outage are dropped,
    /// a skewed reader clock surfaces readings `skew_secs` late (timestamps
    /// untouched), and a rogue-reader draw injects a cloned reading at a
    /// deterministic second antenna — all pure functions of the fault plan,
    /// so replays see the identical stream.
    pub(crate) fn ingest(&mut self, now: Epoch) {
        if self.down {
            return;
        }
        while self.sensor_cursor < self.sensors.len()
            && self.sensors[self.sensor_cursor].time <= now
        {
            self.processor.on_sensor(self.sensors[self.sensor_cursor]);
            self.sensor_cursor += 1;
        }
        let site = self.site as u16;
        while self.reading_cursor < self.readings.len()
            && self.readings[self.reading_cursor]
                .time
                .0
                .saturating_add(self.skew_secs)
                <= now.0
        {
            let reading = self.readings[self.reading_cursor];
            self.reading_cursor += 1;
            if let Some(plan) = &self.faults {
                if plan.reading_dropped(site, reading.time) {
                    continue;
                }
            }
            self.engine.observe(reading);
            if let Some(plan) = &self.faults {
                if let Some(slot) =
                    plan.rogue_reader_slot(site, reading.time, reading.tag, self.num_readers)
                {
                    self.engine
                        .observe(RawReading::new(reading.time, reading.tag, ReaderId(slot)));
                }
            }
        }
    }

    /// Buffer an inbound shipment until its arrival epoch, journaling it
    /// first if this site can crash: the journal is the durable receive log
    /// a restore re-enqueues, so no shipment is lost with the volatile inbox.
    pub(crate) fn receive(&mut self, msg: ShipmentMsg) {
        if self.crash.is_some() {
            self.journal.push(msg.clone());
        }
        self.enqueue(msg);
    }

    /// Insert into the volatile inbox without journaling (the restore path,
    /// which re-enqueues already-journaled shipments).
    fn enqueue(&mut self, msg: ShipmentMsg) {
        self.inbox.entry(msg.arrive).or_default().push(msg);
    }

    /// Import every shipment that arrived at `now` from an *earlier* epoch's
    /// departures, in sequential replay order.
    ///
    /// Shipments with `depart == now` (zero transit) are held back: the
    /// sequential replay delivers them only after this epoch's departure
    /// pass, and under the parallel driver a racing worker may have pushed
    /// one into the inbox a drain early — [`Self::deliver_zero_transit`]
    /// imports them at the correct point either way.
    pub(crate) fn deliver(&mut self, now: Epoch) {
        if self.down {
            return;
        }
        if let Some(batch) = self.inbox.remove(&now) {
            let (ready, hold): (Vec<ShipmentMsg>, Vec<ShipmentMsg>) =
                batch.into_iter().partition(|msg| msg.depart < now);
            if !hold.is_empty() {
                self.inbox.insert(now, hold);
            }
            self.import(ready);
        }
    }

    /// Import this epoch's zero-transit shipments (`depart == arrive ==
    /// now`), which the departure pass just produced.
    pub(crate) fn deliver_zero_transit(&mut self, now: Epoch) {
        if self.down {
            return;
        }
        if let Some(batch) = self.inbox.remove(&now) {
            self.import(batch);
        }
    }

    fn import(&mut self, mut batch: Vec<ShipmentMsg>) {
        batch.sort_by_key(ShipmentMsg::order_key);
        let me = self.site as u16;
        for msg in batch {
            let guarded = msg.is_envelope() && self.transport_mode.dedups();
            if guarded {
                let payload_len = msg.inference.as_ref().map_or(0, Vec::len) as u64;
                let entry = self.ledger_entry(msg.from.0, me);
                entry.recv_copies += 1;
                entry.recv_bytes += payload_len;
                if self.transport_mode == TransportMode::Reliable {
                    // The receiver acks every arriving copy — duplicates
                    // included, since the sender may be retransmitting
                    // precisely because an earlier ack was lost. Real encoded
                    // bytes, booked at the ack sender.
                    let ack = ControlMsg::Ack {
                        from: me,
                        to: msg.from.0,
                        seq: msg.seq,
                    };
                    let bytes = self.codec.encode_control(&ack).len();
                    self.comm.record(MessageKind::Control, bytes);
                    self.tstats.acks += 1;
                }
                // At-most-once delivery: retransmitted (and fault-duplicated)
                // copies of a sequence number never reach the engine twice.
                if !self.dedup.entry(msg.from.0).or_default().accept(msg.seq) {
                    self.tstats.duplicates_dropped += 1;
                    continue;
                }
                self.ledger_entry(msg.from.0, me).accepted += 1;
                // Staleness guard: if the tag already departed this site
                // after the physical arrival this copy belongs to, its state
                // would resurrect a forwarded object — drop it.
                if self
                    .forgotten
                    .get(&msg.tag)
                    .is_some_and(|&gone| gone > msg.physical)
                {
                    self.tstats.stale_dropped += 1;
                    self.ledger_entry(msg.from.0, me).stale += 1;
                    continue;
                }
            }
            if let Some(payload) = &msg.inference {
                match self.codec.decode_migration(payload) {
                    Ok(state) => {
                        if guarded && msg.arrive > msg.physical {
                            // Degraded-mode reconciliation: the object itself
                            // arrived earlier and was cold-started from local
                            // readings; merge the late migration state through
                            // the dirty-set journal so incremental inference
                            // re-runs it exactly.
                            let summary = self.engine.import_late_state(state);
                            if summary.merged() {
                                self.tstats.reconciled += 1;
                            }
                        } else {
                            self.engine.import_state(state);
                        }
                    }
                    Err(_) if guarded => {
                        // Poison quarantine: a corrupted payload is a typed
                        // decode error, never a panic. The whole envelope is
                        // suspect, so its query state is dropped too and the
                        // receiver degrades to None-semantics for this object
                        // (cold-started from local readings). A reliable
                        // receiver additionally asks the sender for
                        // anti-entropy resync, charged as control traffic.
                        self.quarantine.push(QuarantineEntry {
                            from: msg.from.0,
                            seq: msg.seq,
                            physical: msg.physical,
                        });
                        self.tstats.quarantined += 1;
                        self.ledger_entry(msg.from.0, me).quarantined += 1;
                        if self.transport_mode == TransportMode::Reliable {
                            let resync = ControlMsg::Resync {
                                site: me,
                                peer: msg.from.0,
                                since: msg.physical,
                            };
                            let bytes = self.codec.encode_control(&resync).len();
                            self.comm.record(MessageKind::Control, bytes);
                            self.tstats.resyncs += 1;
                        }
                        continue;
                    }
                    Err(err) => panic!("in-process shipment payload decodes: {err}"),
                }
            }
            if !msg.query.is_empty() {
                self.processor.import_state(msg.query);
            }
            if guarded {
                self.ledger_entry(msg.from.0, me).imported += 1;
            }
        }
    }

    /// Process the dispatches leaving this site at `now`: refresh the local
    /// outcome, snapshot the departing objects' inference and query state,
    /// charge every byte, forget the objects, and emit one [`ShipmentMsg`]
    /// per object into `out`.
    pub(crate) fn depart(
        &mut self,
        ctx: &FederatedCtx<'_>,
        now: Epoch,
        out: &mut Vec<ShipmentMsg>,
    ) {
        if self.down {
            return;
        }
        let mut departing = Vec::new();
        while self.departure_cursor < self.departures.len()
            && self.departures[self.departure_cursor].depart == now
        {
            departing.push(self.departures[self.departure_cursor]);
            self.departure_cursor += 1;
        }
        if departing.is_empty() {
            return;
        }
        // Refresh this site's outcome so exported state reflects the readings
        // collected since the last run.
        if ctx.migrates_state {
            let due = match self.engine.last_inference_at() {
                None => true,
                Some(last) => now.since(last) >= FORCED_RUN_SPACING_SECS,
            };
            if due {
                let report = self.engine.run_inference(now);
                self.note_report(&report);
            }
        }
        // Group the dispatch by route *and arrival epoch*, so that staggered
        // arrivals on one route import state at their own epochs and query
        // state is shared per physical shipment (the objects that actually
        // travel together).
        let from = SiteId(self.site as u16);
        let mut by_shipment: BTreeMap<(SiteId, Epoch), Vec<TagId>> = BTreeMap::new();
        for tr in &departing {
            if ctx.migrates_state {
                self.comm.record(MessageKind::OnsUpdate, ONS_UPDATE_BYTES);
            }
            by_shipment
                .entry((tr.to_site, tr.arrive))
                .or_default()
                .push(tr.tag);
        }
        for ((to, arrive), tags) in by_shipment {
            let mut shipment_states: Vec<ObjectQueryState> = Vec::new();
            // Transmissions of the physical shipment's query bundle: under a
            // reliable transport the bundle rides on every retransmission, so
            // it is charged once per the slowest envelope's attempt count.
            let mut group_attempts = 1u32;
            // Tags whose readings are already on this shipment: a migrating
            // object re-ships its candidate containers' critical-region
            // readings, and objects of one case share those candidates, so
            // without per-shipment dedup the same container readings travel
            // once per object.
            let mut carried: BTreeSet<TagId> = BTreeSet::new();
            for &tag in &tags {
                // Inference state: objects carry state, containers are
                // re-localized from their own readings at the next site.
                let state = if !tag.is_object() {
                    MigrationState::None
                } else {
                    match ctx.strategy {
                        MigrationStrategy::None => MigrationState::None,
                        MigrationStrategy::CollapsedWeights => {
                            MigrationState::Collapsed(self.engine.export_collapsed(tag))
                        }
                        MigrationStrategy::CriticalRegionReadings => MigrationState::Readings(
                            self.engine.export_new_readings(tag, &mut carried),
                        ),
                        MigrationStrategy::Centralized => unreachable!(),
                    }
                };
                // Encode with the run's wire codec: the encoded length is the
                // communication cost, and the same bytes travel in the
                // shipment and are decoded at the destination. Carrying no
                // state costs no message.
                let inference = match state {
                    MigrationState::None => None,
                    state => {
                        let payload = ctx.codec.encode_migration(&state);
                        self.comm.record(MessageKind::InferenceState, payload.len());
                        Some(payload)
                    }
                };
                // Query state travels per object so the automaton run
                // continues seamlessly at the next site. Under `None` nothing
                // at all crosses the boundary, so the automaton restarts cold
                // — that is the baseline.
                let query = if ctx.with_queries && ctx.migrates_state && tag.is_object() {
                    self.processor.export_state(tag)
                } else {
                    Vec::new()
                };
                shipment_states.extend(query.iter().cloned());
                // Delivery faults are decided sender-side from the message's
                // identifying key, so both executors (and a crash replay)
                // inject the same delay or duplicate for the same shipment.
                // A delayed arrival past the horizon is never delivered.
                let mut delivered_at = arrive;
                let mut duplicated = false;
                if let Some(plan) = &self.faults {
                    let delay = plan.shipment_delay_secs(from.0, to.0, tag, now);
                    if delay > 0 {
                        delivered_at = Epoch(arrive.0.saturating_add(delay));
                    }
                    duplicated = plan.shipment_duplicated(from.0, to.0, tag, now);
                }
                let mut msg = ShipmentMsg {
                    depart: now,
                    from,
                    to,
                    tag,
                    arrive: delivered_at,
                    seq: 0,
                    physical: arrive,
                    inference,
                    query,
                };
                // Only envelopes with a payload ride the reliable channel
                // (crash restore rebuilds the sequence counters from exactly
                // this predicate, so it must stay a pure function of the
                // strategy and the tag).
                debug_assert_eq!(
                    msg.is_envelope(),
                    ctx.migrates_state && tag.is_object(),
                    "envelope predicate drifted from the seq-rebuild rule"
                );
                if !(msg.is_envelope() && self.transport_mode.dedups()) {
                    // Direct path: the exact seed behavior, bit for bit.
                    if duplicated {
                        out.push(msg.clone());
                    }
                    out.push(msg);
                } else {
                    msg.seq = self.seqs.next(to.0);
                    // Poison injection: a corrupted link flips a bit in the
                    // encoded payload. Keyed by `(edge, seq)` so every
                    // retransmitted copy of one envelope carries the
                    // identical corruption and both executors (and a crash
                    // replay) poison the same envelopes.
                    if let Some(plan) = &self.faults {
                        if plan.payload_corrupted(from.0, to.0, msg.seq) {
                            if let Some(byte) = msg.inference.as_mut().and_then(|p| p.first_mut()) {
                                *byte ^= 0x80;
                            }
                        }
                    }
                    let payload_len = msg.inference.as_ref().map_or(0, Vec::len) as u64;
                    if self.transport_mode == TransportMode::Optimistic {
                        self.tstats.envelopes += 1;
                        self.tstats.transmissions += 1;
                        let copies = 1 + u64::from(duplicated);
                        let entry = self.ledger_entry(from.0, to.0);
                        entry.envelopes += 1;
                        entry.sent_copies += copies;
                        entry.sent_bytes += payload_len * copies;
                        if duplicated {
                            out.push(msg.clone());
                        }
                        out.push(msg);
                    } else {
                        // Reliable: simulate the whole ack/retransmit
                        // exchange sender-side (a pure function of the fault
                        // plan), emit one copy per surviving attempt, and
                        // charge the payload once per transmission.
                        let plan = self
                            .faults
                            .as_ref()
                            .expect("reliable transport implies a fault plan");
                        let delivery = DeliveryPlan::compute(
                            plan,
                            &ctx.driver.config.transport,
                            from.0,
                            to.0,
                            tag,
                            now,
                            delivered_at,
                            Epoch(ctx.horizon),
                        );
                        self.tstats.envelopes += 1;
                        self.tstats.transmissions += u64::from(delivery.attempts);
                        self.tstats.retransmissions +=
                            u64::from(delivery.attempts.saturating_sub(1));
                        let copies = if delivery.abandoned {
                            0
                        } else {
                            delivery.arrivals.len() as u64 + u64::from(duplicated)
                        };
                        let entry = self.ledger_entry(from.0, to.0);
                        entry.envelopes += 1;
                        entry.abandoned += u64::from(delivery.abandoned);
                        entry.sent_copies += copies;
                        entry.sent_bytes += payload_len * copies;
                        if let Some(payload) = &msg.inference {
                            for _ in 1..delivery.attempts {
                                self.comm.record(MessageKind::InferenceState, payload.len());
                            }
                        }
                        group_attempts = group_attempts.max(delivery.attempts);
                        if delivery.abandoned {
                            // Retry budget exhausted (or the partition outlived
                            // the horizon): the destination never sees this
                            // state and cold-starts the physically-arrived
                            // object — degraded mode.
                            self.tstats.abandoned += 1;
                        } else {
                            if duplicated {
                                let mut copy = msg.clone();
                                copy.arrive = delivery.arrivals[0];
                                out.push(copy);
                            }
                            for &arrival in &delivery.arrivals {
                                let mut copy = msg.clone();
                                copy.arrive = arrival;
                                out.push(copy);
                            }
                        }
                    }
                }
            }
            // Centroid-based sharing: compress the query states of this
            // shipment's objects (Section 4.2) over payloads in the run's
            // wire format, and charge the encoded bundle size. The unshared
            // baseline is measured in the same format so the Section 5.4
            // comparison stays apples-to-apples, and a shipment whose bundle
            // framing would exceed the plain states ships them unbundled —
            // the shipment-level analogue of the per-state full-payload
            // fallback inside `delta_against`, keeping "sharing never makes
            // migration more expensive" true under every codec.
            if let Some(bundle) =
                share_states_with(&shipment_states, |s| ctx.codec.state_payload(s))
            {
                let bundled = ctx.codec.encode_bundle(&bundle).len();
                let unshared = unshared_bytes_with(&shipment_states, |s| {
                    ctx.codec.encode_query_state(s).len()
                });
                let shared = bundled.min(unshared);
                self.shared_bytes += shared;
                self.unshared_bytes += unshared;
                // The sharing-efficiency comparison (Section 5.4) counts the
                // logical bundle once; the wire tally charges it once per
                // transmission of the shipment it rides on.
                for _ in 0..group_attempts {
                    self.comm.record(MessageKind::QueryState, shared);
                }
            }
            // The state has left the building.
            for &tag in &tags {
                self.engine.forget(tag);
                self.processor.forget(tag);
                self.forgotten.insert(tag, now);
            }
        }
    }

    /// Run the periodic inference step and push enriched events into the
    /// query processor. `ons` must already reflect every transfer departing
    /// at or before `now`.
    pub(crate) fn step_and_feed(&mut self, ctx: &FederatedCtx<'_>, now: Epoch, ons: &Ons) {
        if self.down {
            return;
        }
        if let Some(report) = self.engine.step(now) {
            self.note_report(&report);
        }
        if ctx.with_queries && now.0.is_multiple_of(ctx.stride) {
            for event in self.engine.events_at(now) {
                // only the custody site feeds events for an object, so a
                // departed object's stale estimates do not keep an abandoned
                // automaton alive
                if ons.site_of(event.tag, SiteId(0)).0 as usize != self.site {
                    continue;
                }
                ctx.driver.feed_event(&mut self.processor, event);
            }
        }
        // Bounded-memory degradation: once the retained history exceeds the
        // budget, old epochs collapse into summary weights and cold cache
        // entries are evicted — a pure function of the engine state, so both
        // executors (and a crash replay) compact identically.
        if let Some(budget) = ctx.driver.config.memory_budget {
            self.engine.enforce_budget(budget, now, &mut self.memory);
        }
    }

    /// Epoch-start fault hook, called by both executors before any other
    /// processing at `now`. Fires the scheduled crash: immediately restore
    /// and replay for a zero-downtime crash (lossless), or mark the site
    /// down and defer the restore to the rejoin epoch for a lossy one. All
    /// processing methods are no-ops while the site is down.
    pub(crate) fn maybe_crash(&mut self, ctx: &FederatedCtx<'_>, chain: &ChainTrace, now: Epoch) {
        if let Some(crash) = self.crash {
            if crash.at == now {
                if crash.downtime_secs == 0 {
                    self.crash_and_restore(ctx, chain, crash.at);
                    self.down = false;
                    return;
                }
                self.down_until = Some(crash.resume_at());
            }
            if let Some(resume) = self.down_until {
                if now < resume {
                    self.down = true;
                    return;
                }
                // Rejoin: restore to the pre-crash state, then fast-forward
                // through the missed epochs — their local readings and
                // departures are lost, which is the lossy part.
                self.down_until = None;
                // The down flag must drop *before* the restore: the replay
                // loop inside `crash_and_restore` runs the regular per-epoch
                // hooks, and every one of them no-ops while the site is down.
                // Restoring first would skip the tail replay entirely,
                // leaving the outbound sequence counters at the checkpoint
                // and re-issuing live sequence numbers for fresh envelopes —
                // which the peer's dedup window would then silently drop.
                self.down = false;
                self.crash_and_restore(ctx, chain, crash.at);
                self.fast_forward(resume);
                // Anti-entropy resync: a rejoining site asks every peer to
                // replay anything it missed while dark — one control round
                // per inbound edge, charged like any other control traffic.
                // (The pending-inbox replay itself is the `fast_forward`
                // import above; only the request bytes are new.)
                if self.transport_mode == TransportMode::Reliable {
                    let me = self.site as u16;
                    for peer in 0..self.num_sites as u16 {
                        if peer == me {
                            continue;
                        }
                        let resync = ControlMsg::Resync {
                            site: me,
                            peer,
                            since: resume,
                        };
                        let bytes = self.codec.encode_control(&resync).len();
                        self.comm.record(MessageKind::Control, bytes);
                        self.tstats.resyncs += 1;
                    }
                }
            }
        }
        self.down = false;
    }

    /// Crash at the start of `crash_at`: destroy the volatile state, restore
    /// from the newest checkpoint (or from scratch when none exists),
    /// re-enqueue the durable journal, and deterministically replay the
    /// local trace tail up to (excluding) `crash_at`. Replayed departures
    /// are discarded — their shipments already reached their destinations in
    /// the pre-crash timeline — but are still charged, which is exactly how
    /// the communication tally is rebuilt to match the uninterrupted run.
    fn crash_and_restore(&mut self, ctx: &FederatedCtx<'_>, chain: &ChainTrace, crash_at: Epoch) {
        self.inbox.clear();
        let restored = self.last_checkpoint.as_ref().map(|bytes| {
            self.codec
                .decode_checkpoint(bytes)
                .expect("a site's own checkpoint decodes")
        });
        let replay_from = match restored {
            Some(checkpoint) => {
                let resume = checkpoint.at.0 + 1;
                self.engine.restore(checkpoint.engine);
                self.processor.restore(checkpoint.processor);
                self.reading_cursor = checkpoint.reading_cursor as usize;
                self.sensor_cursor = checkpoint.sensor_cursor as usize;
                self.departure_cursor = checkpoint.departure_cursor as usize;
                self.comm = CommCost::from_parts(checkpoint.comm_bytes, checkpoint.comm_messages);
                self.shared_bytes = checkpoint.shared_bytes as usize;
                self.unshared_bytes = checkpoint.unshared_bytes as usize;
                self.inference_runs = checkpoint.inference_runs as usize;
                self.inference_stats = checkpoint.stats;
                self.tstats = checkpoint.transport;
                self.quarantine = checkpoint.quarantine;
                self.memory = checkpoint.memory;
                self.ledgers = checkpoint
                    .ledgers
                    .iter()
                    .map(|ledger| ((ledger.from, ledger.to), *ledger))
                    .collect();
                self.dedup = checkpoint
                    .inbox_seqs
                    .iter()
                    .map(|seqs| (seqs.peer, ReliableInbox::from_seqs(seqs)))
                    .collect();
                for pending in checkpoint.inbox {
                    self.enqueue(ShipmentMsg::from_pending(pending));
                }
                resume
            }
            None => {
                let trace = &chain.sites[self.site];
                self.engine = ctx.engine(&trace.read_rates);
                self.processor = ctx.driver.make_processor();
                self.reading_cursor = 0;
                self.sensor_cursor = 0;
                self.departure_cursor = 0;
                self.comm = CommCost::new();
                self.shared_bytes = 0;
                self.unshared_bytes = 0;
                self.inference_runs = 0;
                self.inference_stats = InferenceStats::default();
                self.tstats = TransportStats::default();
                self.quarantine.clear();
                self.memory = MemoryStats::default();
                self.ledgers.clear();
                self.dedup.clear();
                0
            }
        };
        // Outbound sequence counters and the staleness guard are not
        // persisted: both are pure functions of the already-processed
        // departure prefix (the envelope predicate asserted in `depart`), so
        // the restore recomputes them and the tail replay extends them.
        self.seqs.clear();
        self.forgotten.clear();
        let assigns_seqs = self.transport_mode.dedups() && ctx.migrates_state;
        for tr in &self.departures[..self.departure_cursor] {
            self.forgotten.insert(tr.tag, tr.depart);
            if assigns_seqs && tr.tag.is_object() {
                self.seqs.next(tr.to_site.0);
            }
        }
        // Wall-clock is not durable state (and deliberately outside the
        // determinism contract); the replay below re-accumulates some.
        self.inference_wall = Duration::ZERO;
        // Re-enqueue the durable receive log — everything accepted after the
        // checkpoint — without journaling it a second time.
        let journaled: Vec<ShipmentMsg> = self.journal.clone();
        for msg in journaled {
            self.enqueue(msg);
        }
        // Bounded replay of the local tail, in the executors' per-epoch call
        // order, against a private custody replica.
        let mut ons = OnsTracker::new();
        let mut discarded: Vec<ShipmentMsg> = Vec::new();
        for t in replay_from..crash_at.0 {
            let now = Epoch(t);
            self.ingest(now);
            self.deliver(now);
            self.depart(ctx, now, &mut discarded);
            discarded.clear();
            self.deliver_zero_transit(now);
            ons.advance(&chain.transfers, now);
            self.step_and_feed(ctx, now, ons.get());
        }
    }

    /// Skip the cursors past everything the site slept through and import,
    /// in sequential generation order, the shipments that arrived while it
    /// was down.
    fn fast_forward(&mut self, resume: Epoch) {
        while self.reading_cursor < self.readings.len()
            && self.readings[self.reading_cursor]
                .time
                .0
                .saturating_add(self.skew_secs)
                < resume.0
        {
            self.reading_cursor += 1;
        }
        while self.sensor_cursor < self.sensors.len()
            && self.sensors[self.sensor_cursor].time < resume
        {
            self.sensor_cursor += 1;
        }
        while self.departure_cursor < self.departures.len()
            && self.departures[self.departure_cursor].depart < resume
        {
            self.departure_cursor += 1;
        }
        let stale: Vec<Epoch> = self.inbox.range(..resume).map(|(key, _)| *key).collect();
        let mut late = Vec::new();
        for key in stale {
            if let Some(batch) = self.inbox.remove(&key) {
                late.extend(batch);
            }
        }
        self.import(late);
    }

    /// End-of-epoch durability hook: cut a checkpoint when the policy says
    /// so, retain only its encoded bytes, and compact the journal down to
    /// the receives the checkpoint does not already cover.
    pub(crate) fn maybe_checkpoint(&mut self, now: Epoch) {
        let Some(every) = self.checkpoint_every else {
            return;
        };
        if self.down || now.0 == 0 || !now.0.is_multiple_of(every) {
            return;
        }
        let checkpoint = self.build_checkpoint(now);
        self.last_checkpoint = Some(self.codec.encode_checkpoint(&checkpoint));
        // Receives departing at or before `now` are either already imported
        // (inside the engine snapshot) or in the checkpoint inbox; only
        // shipments a racing worker delivered early from the next epoch
        // remain journaled.
        self.journal.retain(|msg| msg.depart > now);
    }

    /// The site's durable state at the end of epoch `at`. The inbox section
    /// keeps only shipments departing at or before `at`, sorted into
    /// sequential generation order, so both executors cut byte-identical
    /// checkpoints even when a racing worker delivered an `at + 1` shipment
    /// early.
    fn build_checkpoint(&self, at: Epoch) -> SiteCheckpoint {
        let mut pending: Vec<&ShipmentMsg> = self
            .inbox
            .values()
            .flatten()
            .filter(|msg| msg.depart <= at)
            .collect();
        pending.sort_by_key(|msg| msg.order_key());
        let (comm_bytes, comm_messages) = self.comm.to_parts();
        SiteCheckpoint {
            site: self.site as u16,
            at,
            engine: self.engine.snapshot(),
            processor: self.processor.snapshot(),
            reading_cursor: self.reading_cursor as u64,
            sensor_cursor: self.sensor_cursor as u64,
            departure_cursor: self.departure_cursor as u64,
            inbox: pending.into_iter().map(ShipmentMsg::to_pending).collect(),
            comm_bytes,
            comm_messages,
            shared_bytes: self.shared_bytes as u64,
            unshared_bytes: self.unshared_bytes as u64,
            inference_runs: self.inference_runs as u64,
            stats: self.inference_stats,
            inbox_seqs: self
                .dedup
                .iter()
                .map(|(&peer, inbox)| inbox.to_seqs(peer))
                .collect(),
            transport: self.tstats,
            quarantine: self.quarantine.clone(),
            memory: self.memory,
            ledgers: self.ledgers.values().copied().collect(),
        }
    }

    /// Final refresh so the reported containment reflects every reading
    /// (skipped where the periodic step already ran at the horizon).
    pub(crate) fn finalize(&mut self, horizon: Epoch) {
        if self.engine.last_inference_at() != Some(horizon) {
            let report = self.engine.run_inference(horizon);
            self.note_report(&report);
        }
    }

    /// Consume the site, reporting the containment of the objects this site
    /// owns (per the final ONS), its alerts and its communication tally.
    pub(crate) fn into_outcome(mut self, objects: &[TagId], ons: &Ons) -> SiteOutcome {
        // Conservation drain: copies still in the inbox at the end of the
        // run (the site was down from their arrival through the horizon, or
        // a delay fault pushed the arrival past it) are booked as
        // undelivered, so the per-edge ledgers balance instead of silently
        // losing them. The dedup probe distinguishes a leftover duplicate of
        // an accepted envelope from an envelope that never got through.
        let leftovers = std::mem::take(&mut self.inbox);
        let me = self.site as u16;
        for msg in leftovers.into_values().flatten() {
            if !(msg.is_envelope() && self.transport_mode.dedups()) {
                continue;
            }
            let payload_len = msg.inference.as_ref().map_or(0, Vec::len) as u64;
            let fresh = self.dedup.entry(msg.from.0).or_default().accept(msg.seq);
            let entry = self.ledger_entry(msg.from.0, me);
            entry.undelivered += 1;
            entry.undelivered_bytes += payload_len;
            if fresh {
                entry.dark_envelopes += 1;
            }
        }
        let mut containment = Vec::new();
        for &object in objects {
            if ons.site_of(object, SiteId(0)).0 as usize != self.site {
                continue;
            }
            if let Some(container) = self.engine.container_of(object) {
                containment.push((object, container));
            }
        }
        SiteOutcome {
            site: self.site,
            comm: self.comm,
            shared_bytes: self.shared_bytes,
            unshared_bytes: self.unshared_bytes,
            inference_runs: self.inference_runs,
            inference_wall: self.inference_wall,
            inference_stats: self.inference_stats,
            alerts: self.processor.alerts().to_vec(),
            containment,
            transport: self.tstats,
            quarantine: self.quarantine,
            memory: self.memory,
            ledgers: self.ledgers,
        }
    }
}

/// Merge per-site contributions into one [`DistributedOutcome`], replaying
/// the order a sequential run reports in (sites ascending, alerts sorted by
/// firing order).
pub(crate) fn merge_outcomes(mut outcomes: Vec<SiteOutcome>, ons: Ons) -> DistributedOutcome {
    outcomes.sort_by_key(|o| o.site);
    let comm = CommCost::merged(outcomes.iter().map(|o| &o.comm));
    let mut alerts: Vec<Alert> = outcomes
        .iter()
        .flat_map(|o| o.alerts.iter().cloned())
        .collect();
    alerts.sort_by(|a, b| (a.at, &a.query, a.tag).cmp(&(b.at, &b.query, b.tag)));
    let mut containment = ContainmentMap::new();
    for outcome in &outcomes {
        for &(object, container) in &outcome.containment {
            containment.set(object, container);
        }
    }
    let mut inference_stats = InferenceStats::default();
    let mut transport = TransportStats::default();
    let mut memory = MemoryStats::default();
    let mut ledger_map: BTreeMap<(u16, u16), EdgeLedger> = BTreeMap::new();
    let mut quarantine: Vec<(SiteId, QuarantineEntry)> = Vec::new();
    for outcome in &outcomes {
        inference_stats.absorb(&outcome.inference_stats);
        transport.merge(&outcome.transport);
        memory.merge(&outcome.memory);
        for (&key, ledger) in &outcome.ledgers {
            ledger_map
                .entry(key)
                .or_insert_with(|| EdgeLedger::new(key.0, key.1))
                .merge(ledger);
        }
        for &entry in &outcome.quarantine {
            quarantine.push((SiteId(outcome.site as u16), entry));
        }
    }
    DistributedOutcome {
        containment,
        comm,
        alerts,
        query_state_shared_bytes: outcomes.iter().map(|o| o.shared_bytes).sum(),
        query_state_unshared_bytes: outcomes.iter().map(|o| o.unshared_bytes).sum(),
        ons,
        inference_runs: outcomes.iter().map(|o| o.inference_runs).sum(),
        inference_wall: outcomes.iter().map(|o| o.inference_wall).sum(),
        inference_stats,
        transport,
        quarantine,
        memory,
        ledgers: ledger_map.into_values().collect(),
    }
}

/// Drives a [`ChainTrace`] through the distributed pipeline.
///
/// # Example
///
/// Replay a two-warehouse chain under collapsed-weight migration and read
/// off the accuracy/communication trade-off:
///
/// ```
/// use rfid_core::InferenceConfig;
/// use rfid_dist::{DistributedConfig, DistributedDriver, MigrationStrategy};
/// use rfid_sim::{ChainConfig, SupplyChainSimulator, WarehouseConfig};
///
/// let chain = SupplyChainSimulator::new(ChainConfig {
///     warehouse: WarehouseConfig::default()
///         .with_length(600)
///         .with_items_per_case(2)
///         .with_cases_per_pallet(1),
///     num_warehouses: 2,
///     transit_secs: 60,
///     fanout: 1,
/// })
/// .generate();
/// let outcome = DistributedDriver::new(DistributedConfig {
///     strategy: MigrationStrategy::CollapsedWeights,
///     inference: InferenceConfig::default().without_change_detection(),
///     ..Default::default()
/// })
/// .run(&chain);
/// assert!(outcome.inference_runs > 0);
/// // Every byte that crossed a site boundary is accounted for:
/// assert_eq!(outcome.comm.total_bytes() > 0, !chain.transfers.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DistributedDriver {
    config: DistributedConfig,
}

impl DistributedDriver {
    /// Create a driver with the given configuration.
    pub fn new(config: DistributedConfig) -> DistributedDriver {
        DistributedDriver { config }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &DistributedConfig {
        &self.config
    }

    /// Replay the chain and return the outcome.
    ///
    /// Federated strategies run sequentially by default; set
    /// [`DistributedConfig::num_workers`] above `1` to shard sites across
    /// worker threads (the `parallel` module) with bit-identical results.
    pub fn run(&self, chain: &ChainTrace) -> DistributedOutcome {
        match self.config.strategy {
            MigrationStrategy::Centralized => self.run_centralized(chain),
            _ if self.config.num_workers > 1 && chain.sites.len() > 1 => {
                crate::parallel::run_parallel(self, chain)
            }
            _ => self.run_federated(chain),
        }
    }

    fn make_processor(&self) -> QueryProcessor {
        let mut processor = QueryProcessor::new();
        for query in &self.config.queries {
            processor.register(query.clone());
        }
        processor
    }

    /// Annotate an inferred event with the product property used by `IsA`
    /// predicates and feed it to a processor.
    fn feed_event(&self, processor: &mut QueryProcessor, mut event: ObjectEvent) {
        if let Some(property) = self.config.product_properties.get(&event.tag) {
            event.property = Some(property.clone());
        }
        processor.on_event(&event);
    }

    /// Sequential federated replay: every site's [`SiteState`] is driven by
    /// the calling thread, with shipments routed through in-process inboxes.
    /// This is the reference execution the parallel driver is bit-identical
    /// to.
    pub(crate) fn run_federated(&self, chain: &ChainTrace) -> DistributedOutcome {
        let ctx = FederatedCtx::new(self, chain);
        let mut sites: Vec<SiteState> = (0..chain.sites.len())
            .map(|site| SiteState::new(&ctx, chain, site))
            .collect();
        let mut ons = OnsTracker::new();
        let mut outbound: Vec<ShipmentMsg> = Vec::new();

        for t in 0..=ctx.horizon {
            let now = Epoch(t);
            // 0. Scheduled faults fire at the top of the epoch: a crash
            // destroys the volatile state before any of this epoch's
            // processing, and restore + replay happen here too.
            // 1+2. Local streams, then shipments arriving now.
            for site in sites.iter_mut() {
                site.maybe_crash(&ctx, chain, now);
                site.ingest(now);
                site.deliver(now);
            }
            // 3. Dispatches departing now: snapshot, export, forget…
            for site in sites.iter_mut() {
                site.depart(&ctx, now, &mut outbound);
            }
            // …then route the shipments and deliver the zero-transit ones
            // (arrive == depart), whose arrival pass already ran.
            if !outbound.is_empty() {
                for msg in outbound.drain(..) {
                    let dest = msg.to.0 as usize;
                    sites[dest].receive(msg);
                }
                for site in sites.iter_mut() {
                    site.deliver_zero_transit(now);
                }
            }
            // 4. Periodic inference and event-stream push, against the
            // custody map as of this epoch's dispatches.
            ons.advance(&chain.transfers, now);
            for site in sites.iter_mut() {
                site.step_and_feed(&ctx, now, ons.get());
                // 5. Durability: cut a checkpoint at the policy boundary.
                site.maybe_checkpoint(now);
            }
        }

        for site in sites.iter_mut() {
            site.finalize(Epoch(ctx.horizon));
        }
        let objects = chain.objects();
        let outcomes = sites
            .into_iter()
            .map(|site| site.into_outcome(&objects, ons.get()))
            .collect();
        merge_outcomes(outcomes, ons.into_ons())
    }

    /// The Centralized baseline: one engine over the disjoint union of the
    /// per-site location spaces, with every raw reading shipped to it.
    fn run_centralized(&self, chain: &ChainTrace) -> DistributedOutcome {
        let num_sites = chain.sites.len();
        let horizon = chain.sites.first().map(|s| s.meta.length).unwrap_or(0);
        let with_queries = !self.config.queries.is_empty();
        let stride = self.config.event_stride_secs.max(1);
        let site_locs = chain
            .sites
            .first()
            .map(|s| s.meta.num_locations)
            .unwrap_or(0);
        let total_locs = num_sites * site_locs;
        assert!(
            total_locs <= u16::MAX as usize,
            "global location space exceeds u16"
        );

        // Block-diagonal global read-rate table: within a site the measured
        // per-site table applies; across sites only stray background reads.
        let background = (0..site_locs)
            .flat_map(|r| {
                let table = &chain.sites[0].read_rates;
                (0..site_locs).map(move |a| table.rate(LocationId(r as u16), LocationId(a as u16)))
            })
            .fold(f64::INFINITY, f64::min)
            .min(1e-4);
        let mut global = ReadRateTable::uniform(total_locs, background);
        for (s, site) in chain.sites.iter().enumerate() {
            let offset = (s * site_locs) as u16;
            for r in 0..site_locs as u16 {
                for a in 0..site_locs as u16 {
                    global.set(
                        LocationId(offset + r),
                        LocationId(offset + a),
                        site.read_rates.rate(LocationId(r), LocationId(a)),
                    );
                }
            }
        }

        let mut engine = InferenceEngine::new(self.config.inference.clone(), global);
        let mut processor = self.make_processor();
        let mut comm = CommCost::new();
        let mut inference_runs = 0usize;
        let mut inference_wall = Duration::ZERO;
        let mut inference_stats = InferenceStats::default();
        let mut memory = MemoryStats::default();

        // Every reading of every site crosses the network, remapped into the
        // global location space. Reader outages from the fault plan drop
        // readings here exactly as the federated sites drop them in `ingest`,
        // and rogue-reader draws inject the same cloned readings (remapped
        // into the origin site's block); crashes, shipment faults and clock
        // skew do not apply — there are no inter-site shipments, the central
        // server is assumed durable, and the uplink timestamps readings on
        // ingestion rather than trusting the site clock.
        let mut readings: Vec<RawReading> = Vec::new();
        for (s, site) in chain.sites.iter().enumerate() {
            let offset = (s * site_locs) as u16;
            for r in site.readings.readings_unordered() {
                if let Some(plan) = &self.config.faults {
                    if plan.reading_dropped(s as u16, r.time) {
                        continue;
                    }
                }
                readings.push(RawReading::new(
                    r.time,
                    r.tag,
                    ReaderId(offset + r.reader.0),
                ));
                if let Some(plan) = &self.config.faults {
                    if let Some(slot) =
                        plan.rogue_reader_slot(s as u16, r.time, r.tag, site_locs as u16)
                    {
                        readings.push(RawReading::new(r.time, r.tag, ReaderId(offset + slot)));
                    }
                }
            }
        }
        readings.sort_unstable();
        readings.dedup();

        let mut sensors: Vec<SensorReading> = Vec::new();
        if with_queries {
            if let Some(model) = &self.config.temperature {
                for s in 0..num_sites {
                    let offset = (s * site_locs) as u16;
                    for reading in model.generate(site_locs, Epoch(horizon)) {
                        sensors.push(SensorReading::new(
                            reading.time,
                            LocationId(offset + reading.location.0),
                            reading.value,
                        ));
                    }
                }
                sensors.sort_by_key(|r| (r.time, r.location));
            }
        }

        let codec = WireCodec::new(self.config.wire_format);
        // The coordinator uplink runs the same reliable transport as the
        // federated edges when the fault plan can lose messages: per-batch
        // loss draws (keyed by origin site, epoch and attempt — partitions do
        // not apply to the uplink, which is assumed multipath), deterministic
        // backoff, per-attempt byte charging and one ack per delivered batch.
        // A delivered batch is ingested at its delivery epoch; an abandoned
        // one never reaches the engine, degrading the central estimate.
        let transport_mode =
            TransportMode::resolve(self.config.faults.as_ref(), &self.config.transport);
        let transport_cfg = self.config.transport;
        let mut tstats = TransportStats::default();
        let mut uplink_seqs: Vec<u64> = vec![0; num_sites];
        let mut deferred: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        let mut reading_cursor = 0usize;
        let mut sensor_cursor = 0usize;
        let mut ran_at_horizon = false;
        let mut site_batch: Vec<RawReading> = Vec::new();
        for t in 0..=horizon {
            let now = Epoch(t);
            while sensor_cursor < sensors.len() && sensors[sensor_cursor].time <= now {
                processor.on_sensor(sensors[sensor_cursor]);
                sensor_cursor += 1;
            }
            // Batches retransmitted from earlier epochs that finally got
            // through land before this epoch's fresh forwarding.
            if let Some(late) = deferred.remove(&t) {
                for payload in late {
                    let decoded = codec
                        .decode_readings(&payload)
                        .expect("in-process reading batch decodes");
                    for reading in decoded {
                        engine.observe(reading);
                    }
                }
            }
            // Raw-reading forwarding: each site sends the epoch's readings as
            // one encoded batch message — what actually crosses the network —
            // and the server ingests the decoded batch. Delta encoding makes
            // the batch far cheaper than per-reading framing.
            let epoch_start = reading_cursor;
            while reading_cursor < readings.len() && readings[reading_cursor].time <= now {
                reading_cursor += 1;
            }
            if epoch_start < reading_cursor {
                let arrived = &readings[epoch_start..reading_cursor];
                for (site, uplink_seq) in uplink_seqs.iter_mut().enumerate() {
                    site_batch.clear();
                    site_batch.extend(
                        arrived
                            .iter()
                            .filter(|r| (r.reader.0 as usize) / site_locs.max(1) == site),
                    );
                    if site_batch.is_empty() {
                        continue;
                    }
                    let payload = codec.encode_readings(&site_batch);
                    if transport_mode == TransportMode::Reliable {
                        let plan = self
                            .config
                            .faults
                            .as_ref()
                            .expect("reliable transport implies a fault plan");
                        let mut attempts = 0u32;
                        let mut delivered: Option<u32> = None;
                        let mut send = t;
                        let mut k = 0u32;
                        loop {
                            if send > horizon {
                                break;
                            }
                            attempts += 1;
                            if !plan.forward_lost(site as u16, now, k) {
                                delivered = Some(send);
                                break;
                            }
                            if transport_cfg.max_retries.is_some_and(|max| k >= max) {
                                break;
                            }
                            let backoff = transport_cfg
                                .rto_base_secs
                                .checked_shl(k)
                                .map_or(transport_cfg.rto_max_secs, |b| {
                                    b.min(transport_cfg.rto_max_secs)
                                })
                                .max(1);
                            send = send.saturating_add(backoff);
                            k += 1;
                        }
                        for _ in 0..attempts {
                            comm.record(MessageKind::RawReadings, payload.len());
                        }
                        tstats.envelopes += 1;
                        tstats.transmissions += u64::from(attempts);
                        tstats.retransmissions += u64::from(attempts.saturating_sub(1));
                        match delivered {
                            Some(at) => {
                                let seq = *uplink_seq;
                                *uplink_seq += 1;
                                let ack = ControlMsg::Ack {
                                    from: num_sites as u16,
                                    to: site as u16,
                                    seq,
                                };
                                comm.record(MessageKind::Control, codec.encode_control(&ack).len());
                                tstats.acks += 1;
                                if at == t {
                                    let decoded = codec
                                        .decode_readings(&payload)
                                        .expect("in-process reading batch decodes");
                                    for reading in decoded {
                                        engine.observe(reading);
                                    }
                                } else {
                                    deferred.entry(at).or_default().push(payload);
                                }
                            }
                            None => tstats.abandoned += 1,
                        }
                    } else {
                        comm.record(MessageKind::RawReadings, payload.len());
                        if transport_mode == TransportMode::Optimistic {
                            tstats.envelopes += 1;
                            tstats.transmissions += 1;
                        }
                        let decoded = codec
                            .decode_readings(&payload)
                            .expect("in-process reading batch decodes");
                        for reading in decoded {
                            engine.observe(reading);
                        }
                    }
                }
            }
            if let Some(report) = engine.step(now) {
                inference_runs += 1;
                inference_wall += report.duration;
                inference_stats.absorb(&report.stats);
                ran_at_horizon = t == horizon;
            }
            if let Some(budget) = self.config.memory_budget {
                engine.enforce_budget(budget, now, &mut memory);
            }
            if with_queries && t % stride == 0 {
                for event in engine.events_at(now) {
                    self.feed_event(&mut processor, event);
                }
            }
        }
        if !ran_at_horizon {
            let report = engine.run_inference(Epoch(horizon));
            inference_runs += 1;
            inference_wall += report.duration;
            inference_stats.absorb(&report.stats);
        }

        // Custody bookkeeping (no messages: the server knows everything).
        let mut ons = Ons::new();
        for tr in &chain.transfers {
            ons.register(tr.tag, tr.to_site);
        }

        let mut containment = ContainmentMap::new();
        for object in chain.objects() {
            if let Some(container) = engine.container_of(object) {
                containment.set(object, container);
            }
        }

        DistributedOutcome {
            containment,
            comm,
            alerts: processor.alerts().to_vec(),
            query_state_shared_bytes: 0,
            query_state_unshared_bytes: 0,
            ons,
            inference_runs,
            inference_wall,
            inference_stats,
            transport: tstats,
            quarantine: Vec::new(),
            memory,
            ledgers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::presets;

    #[test]
    fn shared_threshold_equals_each_engines_own_calibration_bitwise() {
        let chain = presets::smoke_chain(60, 3, None);
        let driver = DistributedDriver::new(DistributedConfig::default());
        let ctx = FederatedCtx::new(&driver, &chain);
        // The sites of one layout share a read-rate table: one calibration.
        assert_eq!(ctx.thresholds.len(), 1);
        for site in &chain.sites {
            let own =
                InferenceEngine::new(driver.config.inference.clone(), site.read_rates.clone())
                    .calibrate_threshold();
            let shared = ctx.engine(&site.read_rates).calibrate_threshold();
            assert_eq!(shared.to_bits(), own.to_bits());
        }
    }

    #[test]
    fn fixed_thresholds_are_not_recalibrated() {
        let chain = presets::smoke_chain(60, 2, None);
        let config = DistributedConfig {
            inference: rfid_core::InferenceConfig::default().with_fixed_threshold(7.5),
            ..Default::default()
        };
        let driver = DistributedDriver::new(config);
        let ctx = FederatedCtx::new(&driver, &chain);
        assert!(ctx.thresholds.is_empty());
        assert_eq!(
            ctx.engine(&chain.sites[0].read_rates).calibrate_threshold(),
            7.5
        );
    }
}
