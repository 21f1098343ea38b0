//! The traced replay: the driver's fault-free sequential schedule rebuilt
//! from the public functions of `rfid-core`, `rfid-query`, `rfid-wire` and
//! `rfid-dist`, with every call into a layer timed from here.
//!
//! The replay mirrors `DistributedDriver::run_federated` and
//! `run_centralized` for a run without faults (transport off), so its
//! containment, inference-run count and per-kind bytes should equal the
//! driver's; the benchmark prints both side by side. A chaos plan is not
//! replayed — it only adds the timed `DeliveryPlan::compute` call per
//! envelope and a timed checkpoint decode per scheduled crash.

use rfid_core::{InferenceEngine, InferenceReport, InferenceStats, MemoryStats, MigrationState};
use rfid_dist::transport::DeliveryPlan;
use rfid_dist::{
    CommCost, DistributedConfig, MessageKind, MigrationStrategy, Ons, ONS_UPDATE_BYTES,
};
use rfid_query::sharing::unshared_bytes_with;
use rfid_query::{share_states_with, Alert, ObjectQueryState, QueryProcessor};
use rfid_sim::{ChainTrace, FaultPlan, ObjectTransfer};
use rfid_types::{
    ContainmentMap, Epoch, LocationId, RawReading, ReadRateTable, ReaderId, SensorReading, SiteId,
    TagId,
};
use rfid_wire::{PendingShipment, SiteCheckpoint, TransportStats, WireCodec};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Minimum spacing of departure-forced inference runs (the driver's
/// `FORCED_RUN_SPACING_SECS`).
const FORCED_RUN_SPACING_SECS: u32 = 150;

/// A timed call site, one per layer function the replay calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `InferenceEngine::observe`.
    Observe,
    /// `InferenceEngine::step` / `run_inference`.
    Infer,
    /// `InferenceEngine::events_at`.
    Events,
    /// `InferenceEngine::export_collapsed` / `export_readings`.
    Export,
    /// `InferenceEngine::import_state`.
    Import,
    /// `InferenceEngine::snapshot`.
    Snapshot,
    /// `InferenceEngine::forget` of a departed tag.
    Forget,
    /// `QueryProcessor::on_event`.
    OnEvent,
    /// `QueryProcessor::on_sensor`.
    OnSensor,
    /// `QueryProcessor::export_state`.
    StateExport,
    /// `QueryProcessor::import_state`.
    StateImport,
    /// `QueryProcessor::snapshot`.
    QuerySnapshot,
    /// `share_states_with` and `unshared_bytes_with`: centroid sharing of a
    /// shipment's query states and its unshared baseline.
    Share,
    /// `WireCodec::encode_*` of a shipped payload.
    Encode,
    /// `WireCodec::decode_*` of a shipped payload.
    Decode,
    /// `WireCodec::encode_checkpoint`.
    CheckpointEncode,
    /// `WireCodec::decode_checkpoint`.
    CheckpointDecode,
    /// The driver's per-shipment dedup of critical-region readings.
    ReadingDedup,
    /// `DeliveryPlan::compute` (chaos only).
    DeliveryPlan,
}

impl Span {
    /// Every span, in metric order.
    pub const ALL: [Span; 19] = [
        Span::Observe,
        Span::Infer,
        Span::Events,
        Span::Export,
        Span::Import,
        Span::Snapshot,
        Span::Forget,
        Span::OnEvent,
        Span::OnSensor,
        Span::StateExport,
        Span::StateImport,
        Span::QuerySnapshot,
        Span::Share,
        Span::Encode,
        Span::Decode,
        Span::CheckpointEncode,
        Span::CheckpointDecode,
        Span::ReadingDedup,
        Span::DeliveryPlan,
    ];

    /// The per-layer metric the span's busy time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Span::Observe => "core.observe_s",
            Span::Infer => "core.infer_s",
            Span::Events => "core.events_s",
            Span::Export => "core.export_s",
            Span::Import => "core.import_s",
            Span::Snapshot => "core.snapshot_s",
            Span::Forget => "core.forget_s",
            Span::OnEvent => "query.on_event_s",
            Span::OnSensor => "query.on_sensor_s",
            Span::StateExport => "query.state_export_s",
            Span::StateImport => "query.state_import_s",
            Span::QuerySnapshot => "query.snapshot_s",
            Span::Share => "query.share_s",
            Span::Encode => "wire.encode_s",
            Span::Decode => "wire.decode_s",
            Span::CheckpointEncode => "wire.checkpoint_encode_s",
            Span::CheckpointDecode => "wire.checkpoint_decode_s",
            Span::ReadingDedup => "dist.reading_dedup_s",
            Span::DeliveryPlan => "dist.delivery_plan_s",
        }
    }
}

/// Busy time per span plus the exact work counters of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    busy: [Duration; Span::ALL.len()],
    /// Duration of every inference call, milliseconds, in call order.
    pub infer_ms: Vec<f64>,
    /// Reuse counters summed over every inference run.
    pub stats: InferenceStats,
    /// Largest retained-observation count any run reported.
    pub retained_observations: usize,
    /// The engines' own `inference_wall`, summed.
    pub engine_wall: Duration,
    /// Events fed into query processors.
    pub query_events: u64,
    /// Payloads encoded for shipping.
    pub payloads: u64,
    /// Bytes of the shipped payloads.
    pub payload_bytes: u64,
    /// Checkpoints cut.
    pub checkpoints: u64,
    /// Bytes of the encoded checkpoints.
    pub checkpoint_bytes: u64,
    /// Checkpoints decoded for a scheduled crash (chaos only).
    pub restores: u64,
}

impl Trace {
    /// Run `f`, charging its wall-clock to `span`.
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.busy[span as usize] += started.elapsed();
        value
    }

    /// Total busy time of `span`, seconds.
    pub fn busy_s(&self, span: Span) -> f64 {
        self.busy[span as usize].as_secs_f64()
    }

    /// Busy time of every span together, seconds.
    pub fn children_s(&self) -> f64 {
        self.busy.iter().map(Duration::as_secs_f64).sum()
    }

    /// Time one inference call and account its report.
    fn infer(&mut self, f: impl FnOnce() -> Option<InferenceReport>) -> Option<InferenceReport> {
        let started = Instant::now();
        let report = f();
        let elapsed = started.elapsed();
        if let Some(report) = &report {
            self.busy[Span::Infer as usize] += elapsed;
            self.infer_ms.push(elapsed.as_secs_f64() * 1e3);
            self.stats.absorb(&report.stats);
            self.retained_observations =
                self.retained_observations.max(report.retained_observations);
            self.engine_wall += report.duration;
        }
        report
    }
}

/// What a traced pass produces.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Final containment, each object from the site owning it.
    pub containment: ContainmentMap,
    /// Inference runs across all engines.
    pub inference_runs: usize,
    /// The communication bill.
    pub comm: CommCost,
    /// Alerts in firing order.
    pub alerts: Vec<Alert>,
    /// Query-state bytes with centroid sharing.
    pub shared_bytes: usize,
    /// Query-state bytes without sharing.
    pub unshared_bytes: usize,
    /// Per-span busy time and work counters.
    pub trace: Trace,
    /// Wall-clock of the whole pass, seconds.
    pub total_s: f64,
    /// Wall-clock of the dist root span — everything after the replay's
    /// state is built: the epoch loop, the final runs and the merge.
    pub dist_s: f64,
}

/// Replay `chain` under `config` (which must be fault-free), timing each
/// layer call. `chaos`, when given, adds the timed delivery planning and
/// crash-restore decodes of that plan on top of the fault-free schedule.
pub fn replay(
    chain: &ChainTrace,
    config: &DistributedConfig,
    chaos: Option<&FaultPlan>,
) -> ReplayOutcome {
    assert!(
        config.faults.is_none(),
        "the replay mirrors fault-free runs only"
    );
    let started = Instant::now();
    let mut outcome = match config.strategy {
        MigrationStrategy::Centralized => replay_centralized(chain, config),
        _ => replay_federated(chain, config, chaos),
    };
    outcome.total_s = started.elapsed().as_secs_f64();
    outcome
}

/// Immutable context of one federated replay.
struct Ctx<'a> {
    config: &'a DistributedConfig,
    codec: WireCodec,
    horizon: u32,
    migrates_state: bool,
    with_queries: bool,
    stride: u32,
    chaos: Option<&'a FaultPlan>,
}

/// One object's state in flight.
#[derive(Clone)]
struct Shipment {
    depart: Epoch,
    from: SiteId,
    to: SiteId,
    tag: TagId,
    arrive: Epoch,
    inference: Option<Vec<u8>>,
    query: Vec<ObjectQueryState>,
}

impl Shipment {
    fn order_key(&self) -> (Epoch, SiteId, SiteId, TagId) {
        (self.depart, self.from, self.to, self.tag)
    }

    fn to_pending(&self) -> PendingShipment {
        PendingShipment {
            depart: self.depart,
            from: self.from.0,
            to: self.to.0,
            tag: self.tag,
            arrive: self.arrive,
            seq: 0,
            physical: self.arrive,
            inference: self.inference.clone(),
            query: self.query.clone(),
        }
    }
}

/// One site of the federated replay.
struct Site<'a> {
    index: usize,
    engine: InferenceEngine,
    processor: QueryProcessor,
    readings: Cow<'a, [RawReading]>,
    reading_cursor: usize,
    sensors: Vec<SensorReading>,
    sensor_cursor: usize,
    departures: Vec<ObjectTransfer>,
    departure_cursor: usize,
    inbox: BTreeMap<Epoch, Vec<Shipment>>,
    comm: CommCost,
    shared_bytes: usize,
    unshared_bytes: usize,
    inference_runs: usize,
    stats: InferenceStats,
    last_checkpoint: Option<Vec<u8>>,
}

fn make_processor(config: &DistributedConfig) -> QueryProcessor {
    let mut processor = QueryProcessor::new();
    for query in &config.queries {
        processor.register(query.clone());
    }
    processor
}

impl<'a> Site<'a> {
    fn new(ctx: &Ctx<'_>, chain: &'a ChainTrace, index: usize) -> Site<'a> {
        let trace = &chain.sites[index];
        let readings = match trace.readings.sorted_readings() {
            Some(slice) => Cow::Borrowed(slice),
            None => {
                let mut copy = trace.readings.readings_unordered().to_vec();
                copy.sort_unstable();
                copy.dedup();
                Cow::Owned(copy)
            }
        };
        let sensors = match &ctx.config.temperature {
            Some(model) if ctx.with_queries => {
                model.generate(trace.meta.num_locations, Epoch(ctx.horizon))
            }
            _ => Vec::new(),
        };
        Site {
            index,
            engine: InferenceEngine::new(ctx.config.inference.clone(), trace.read_rates.clone()),
            processor: make_processor(ctx.config),
            readings,
            reading_cursor: 0,
            sensors,
            sensor_cursor: 0,
            departures: chain
                .transfers
                .iter()
                .filter(|tr| tr.from_site.0 as usize == index)
                .copied()
                .collect(),
            departure_cursor: 0,
            inbox: BTreeMap::new(),
            comm: CommCost::new(),
            shared_bytes: 0,
            unshared_bytes: 0,
            inference_runs: 0,
            stats: InferenceStats::default(),
            last_checkpoint: None,
        }
    }

    fn note(&mut self, report: &InferenceReport) {
        self.inference_runs += 1;
        self.stats.absorb(&report.stats);
    }

    /// A chaos plan's crash of this site fires now: time decoding the
    /// checkpoint the driver would restore from.
    fn restore_point(&mut self, ctx: &Ctx<'_>, now: Epoch, trace: &mut Trace) {
        let Some(plan) = ctx.chaos else { return };
        if plan
            .crash(self.index as u16)
            .is_none_or(|crash| crash.at != now)
        {
            return;
        }
        if let Some(bytes) = &self.last_checkpoint {
            let restored = trace.time(Span::CheckpointDecode, || {
                ctx.codec.decode_checkpoint(bytes)
            });
            restored.expect("a site's own checkpoint decodes");
            trace.restores += 1;
        }
    }

    fn ingest(&mut self, now: Epoch, trace: &mut Trace) {
        let sensors_end = self.sensor_cursor
            + self.sensors[self.sensor_cursor..]
                .iter()
                .take_while(|s| s.time <= now)
                .count();
        if sensors_end > self.sensor_cursor {
            let batch = &self.sensors[self.sensor_cursor..sensors_end];
            let processor = &mut self.processor;
            trace.time(Span::OnSensor, || {
                for &reading in batch {
                    processor.on_sensor(reading);
                }
            });
            self.sensor_cursor = sensors_end;
        }
        let readings_end = self.reading_cursor
            + self.readings[self.reading_cursor..]
                .iter()
                .take_while(|r| r.time <= now)
                .count();
        if readings_end > self.reading_cursor {
            let batch = &self.readings[self.reading_cursor..readings_end];
            let engine = &mut self.engine;
            trace.time(Span::Observe, || {
                for &reading in batch {
                    engine.observe(reading);
                }
            });
            self.reading_cursor = readings_end;
        }
    }

    fn deliver(&mut self, ctx: &Ctx<'_>, now: Epoch, trace: &mut Trace) {
        if let Some(batch) = self.inbox.remove(&now) {
            let (ready, hold): (Vec<Shipment>, Vec<Shipment>) =
                batch.into_iter().partition(|msg| msg.depart < now);
            if !hold.is_empty() {
                self.inbox.insert(now, hold);
            }
            self.import(ctx, ready, trace);
        }
    }

    fn deliver_zero_transit(&mut self, ctx: &Ctx<'_>, now: Epoch, trace: &mut Trace) {
        if let Some(batch) = self.inbox.remove(&now) {
            self.import(ctx, batch, trace);
        }
    }

    fn import(&mut self, ctx: &Ctx<'_>, mut batch: Vec<Shipment>, trace: &mut Trace) {
        batch.sort_by_key(Shipment::order_key);
        for msg in batch {
            if let Some(payload) = &msg.inference {
                let state = trace
                    .time(Span::Decode, || ctx.codec.decode_migration(payload))
                    .expect("in-process shipment payload decodes");
                let engine = &mut self.engine;
                trace.time(Span::Import, || engine.import_state(state));
            }
            if !msg.query.is_empty() {
                let processor = &mut self.processor;
                trace.time(Span::StateImport, || processor.import_state(msg.query));
            }
        }
    }

    fn depart(&mut self, ctx: &Ctx<'_>, now: Epoch, out: &mut Vec<Shipment>, trace: &mut Trace) {
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
        if ctx.migrates_state {
            let due = match self.engine.last_inference_at() {
                None => true,
                Some(last) => now.since(last) >= FORCED_RUN_SPACING_SECS,
            };
            if due {
                let engine = &mut self.engine;
                if let Some(report) = trace.infer(|| Some(engine.run_inference(now))) {
                    self.note(&report);
                }
            }
        }
        let from = SiteId(self.index as u16);
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
            let mut shipped_readings: BTreeSet<RawReading> = BTreeSet::new();
            for &tag in &tags {
                let engine = &self.engine;
                let state = if !tag.is_object() {
                    MigrationState::None
                } else {
                    match ctx.config.strategy {
                        MigrationStrategy::None => MigrationState::None,
                        MigrationStrategy::CollapsedWeights => MigrationState::Collapsed(
                            trace.time(Span::Export, || engine.export_collapsed(tag)),
                        ),
                        MigrationStrategy::CriticalRegionReadings => {
                            let mut readings =
                                trace.time(Span::Export, || engine.export_readings(tag));
                            trace.time(Span::ReadingDedup, || {
                                readings.readings.retain(|r| shipped_readings.insert(*r))
                            });
                            MigrationState::Readings(readings)
                        }
                        MigrationStrategy::Centralized => unreachable!("federated replay only"),
                    }
                };
                let inference = match state {
                    MigrationState::None => None,
                    state => {
                        let payload =
                            trace.time(Span::Encode, || ctx.codec.encode_migration(&state));
                        trace.payloads += 1;
                        trace.payload_bytes += payload.len() as u64;
                        self.comm.record(MessageKind::InferenceState, payload.len());
                        Some(payload)
                    }
                };
                let query = if ctx.with_queries && ctx.migrates_state && tag.is_object() {
                    let processor = &self.processor;
                    trace.time(Span::StateExport, || processor.export_state(tag))
                } else {
                    Vec::new()
                };
                shipment_states.extend(query.iter().cloned());
                if let Some(plan) = ctx.chaos {
                    if ctx.migrates_state && tag.is_object() {
                        let planned = trace.time(Span::DeliveryPlan, || {
                            let delay = plan.shipment_delay_secs(from.0, to.0, tag, now);
                            DeliveryPlan::compute(
                                plan,
                                &ctx.config.transport,
                                from.0,
                                to.0,
                                tag,
                                now,
                                Epoch(arrive.0.saturating_add(delay)),
                                Epoch(ctx.horizon),
                            )
                        });
                        std::hint::black_box(planned);
                    }
                }
                out.push(Shipment {
                    depart: now,
                    from,
                    to,
                    tag,
                    arrive,
                    inference,
                    query,
                });
            }
            // Centroid-based sharing of the shipment's query states. The
            // per-state payloads it encodes are charged to sharing, not to
            // the wire spans, which time shipped payloads only.
            let bundle = trace.time(Span::Share, || {
                share_states_with(&shipment_states, |s| ctx.codec.state_payload(s))
            });
            if let Some(bundle) = bundle {
                let encoded = trace.time(Span::Encode, || ctx.codec.encode_bundle(&bundle));
                trace.payloads += 1;
                trace.payload_bytes += encoded.len() as u64;
                let unshared = trace.time(Span::Share, || {
                    unshared_bytes_with(&shipment_states, |s| ctx.codec.encode_query_state(s).len())
                });
                let shared = encoded.len().min(unshared);
                self.shared_bytes += shared;
                self.unshared_bytes += unshared;
                self.comm.record(MessageKind::QueryState, shared);
            }
            for &tag in &tags {
                let engine = &mut self.engine;
                trace.time(Span::Forget, || engine.forget(tag));
                self.processor.forget(tag);
            }
        }
    }

    fn step_and_feed(&mut self, ctx: &Ctx<'_>, now: Epoch, ons: &Ons, trace: &mut Trace) {
        let engine = &mut self.engine;
        if let Some(report) = trace.infer(|| engine.step(now)) {
            self.note(&report);
        }
        if ctx.with_queries && now.0.is_multiple_of(ctx.stride) {
            let engine = &self.engine;
            let events = trace.time(Span::Events, || engine.events_at(now));
            for mut event in events {
                if ons.site_of(event.tag, SiteId(0)).0 as usize != self.index {
                    continue;
                }
                if let Some(property) = ctx.config.product_properties.get(&event.tag) {
                    event.property = Some(property.clone());
                }
                trace.query_events += 1;
                let processor = &mut self.processor;
                trace.time(Span::OnEvent, || processor.on_event(&event));
            }
        }
    }

    fn maybe_checkpoint(&mut self, ctx: &Ctx<'_>, now: Epoch, trace: &mut Trace) {
        let Some(every) = ctx.config.checkpoint_every_secs.filter(|&k| k > 0) else {
            return;
        };
        if now.0 == 0 || !now.0.is_multiple_of(every) {
            return;
        }
        let engine = &self.engine;
        let snapshot = trace.time(Span::Snapshot, || engine.snapshot());
        let processor = &self.processor;
        let processor_snapshot = trace.time(Span::QuerySnapshot, || processor.snapshot());
        let mut pending: Vec<&Shipment> = self
            .inbox
            .values()
            .flatten()
            .filter(|msg| msg.depart <= now)
            .collect();
        pending.sort_by_key(|msg| msg.order_key());
        let (comm_bytes, comm_messages) = self.comm.to_parts();
        let checkpoint = SiteCheckpoint {
            site: self.index as u16,
            at: now,
            engine: snapshot,
            processor: processor_snapshot,
            reading_cursor: self.reading_cursor as u64,
            sensor_cursor: self.sensor_cursor as u64,
            departure_cursor: self.departure_cursor as u64,
            inbox: pending.into_iter().map(Shipment::to_pending).collect(),
            comm_bytes,
            comm_messages,
            shared_bytes: self.shared_bytes as u64,
            unshared_bytes: self.unshared_bytes as u64,
            inference_runs: self.inference_runs as u64,
            stats: self.stats,
            inbox_seqs: Vec::new(),
            transport: TransportStats::default(),
            quarantine: Vec::new(),
            memory: MemoryStats::default(),
            ledgers: Vec::new(),
        };
        let bytes = trace.time(Span::CheckpointEncode, || {
            ctx.codec.encode_checkpoint(&checkpoint)
        });
        trace.checkpoints += 1;
        trace.checkpoint_bytes += bytes.len() as u64;
        self.last_checkpoint = Some(bytes);
    }

    fn finalize(&mut self, horizon: Epoch, trace: &mut Trace) {
        if self.engine.last_inference_at() != Some(horizon) {
            let engine = &mut self.engine;
            if let Some(report) = trace.infer(|| Some(engine.run_inference(horizon))) {
                self.note(&report);
            }
        }
    }
}

fn replay_federated(
    chain: &ChainTrace,
    config: &DistributedConfig,
    chaos: Option<&FaultPlan>,
) -> ReplayOutcome {
    let ctx = Ctx {
        config,
        codec: WireCodec::new(config.wire_format),
        horizon: chain.sites.first().map(|s| s.meta.length).unwrap_or(0),
        migrates_state: config.strategy != MigrationStrategy::None,
        with_queries: !config.queries.is_empty(),
        stride: config.event_stride_secs.max(1),
        chaos,
    };
    let mut trace = Trace::default();
    let mut sites: Vec<Site> = (0..chain.sites.len())
        .map(|site| Site::new(&ctx, chain, site))
        .collect();
    let dist_started = Instant::now();
    let mut ons = Ons::new();
    let mut ons_cursor = 0usize;
    let mut outbound: Vec<Shipment> = Vec::new();
    for t in 0..=ctx.horizon {
        let now = Epoch(t);
        for site in sites.iter_mut() {
            site.restore_point(&ctx, now, &mut trace);
            site.ingest(now, &mut trace);
            site.deliver(&ctx, now, &mut trace);
        }
        for site in sites.iter_mut() {
            site.depart(&ctx, now, &mut outbound, &mut trace);
        }
        if !outbound.is_empty() {
            for msg in outbound.drain(..) {
                let dest = msg.to.0 as usize;
                sites[dest].inbox.entry(msg.arrive).or_default().push(msg);
            }
            for site in sites.iter_mut() {
                site.deliver_zero_transit(&ctx, now, &mut trace);
            }
        }
        while ons_cursor < chain.transfers.len() && chain.transfers[ons_cursor].depart <= now {
            let tr = &chain.transfers[ons_cursor];
            ons.register(tr.tag, tr.to_site);
            ons_cursor += 1;
        }
        for site in sites.iter_mut() {
            site.step_and_feed(&ctx, now, &ons, &mut trace);
            site.maybe_checkpoint(&ctx, now, &mut trace);
        }
    }
    for site in sites.iter_mut() {
        site.finalize(Epoch(ctx.horizon), &mut trace);
    }
    let mut containment = ContainmentMap::new();
    for object in chain.objects() {
        let owner = ons.site_of(object, SiteId(0)).0 as usize;
        if let Some(container) = sites[owner].engine.container_of(object) {
            containment.set(object, container);
        }
    }
    let mut alerts: Vec<Alert> = sites
        .iter()
        .flat_map(|s| s.processor.alerts().iter().cloned())
        .collect();
    alerts.sort_by(|a, b| (a.at, &a.query, a.tag).cmp(&(b.at, &b.query, b.tag)));
    ReplayOutcome {
        containment,
        inference_runs: sites.iter().map(|s| s.inference_runs).sum(),
        comm: CommCost::merged(sites.iter().map(|s| &s.comm)),
        alerts,
        shared_bytes: sites.iter().map(|s| s.shared_bytes).sum(),
        unshared_bytes: sites.iter().map(|s| s.unshared_bytes).sum(),
        trace,
        total_s: 0.0,
        dist_s: dist_started.elapsed().as_secs_f64(),
    }
}

fn replay_centralized(chain: &ChainTrace, config: &DistributedConfig) -> ReplayOutcome {
    assert!(
        config.queries.is_empty(),
        "the centralized replay covers the query-free workload only"
    );
    let mut trace = Trace::default();
    let num_sites = chain.sites.len();
    let horizon = chain.sites.first().map(|s| s.meta.length).unwrap_or(0);
    let site_locs = chain
        .sites
        .first()
        .map(|s| s.meta.num_locations)
        .unwrap_or(0);
    let total_locs = num_sites * site_locs;
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
    let mut engine = InferenceEngine::new(config.inference.clone(), global);
    let codec = WireCodec::new(config.wire_format);
    let mut comm = CommCost::new();
    let mut inference_runs = 0usize;
    let mut readings: Vec<RawReading> = Vec::new();
    for (s, site) in chain.sites.iter().enumerate() {
        let offset = (s * site_locs) as u16;
        readings.extend(
            site.readings
                .readings_unordered()
                .iter()
                .map(|r| RawReading::new(r.time, r.tag, ReaderId(offset + r.reader.0))),
        );
    }
    readings.sort_unstable();
    readings.dedup();
    let dist_started = Instant::now();
    let mut reading_cursor = 0usize;
    let mut ran_at_horizon = false;
    let mut site_batch: Vec<RawReading> = Vec::new();
    for t in 0..=horizon {
        let now = Epoch(t);
        let epoch_start = reading_cursor;
        while reading_cursor < readings.len() && readings[reading_cursor].time <= now {
            reading_cursor += 1;
        }
        if epoch_start < reading_cursor {
            let arrived = &readings[epoch_start..reading_cursor];
            for site in 0..num_sites {
                site_batch.clear();
                site_batch.extend(
                    arrived
                        .iter()
                        .filter(|r| (r.reader.0 as usize) / site_locs.max(1) == site),
                );
                if site_batch.is_empty() {
                    continue;
                }
                let payload = trace.time(Span::Encode, || codec.encode_readings(&site_batch));
                trace.payloads += 1;
                trace.payload_bytes += payload.len() as u64;
                comm.record(MessageKind::RawReadings, payload.len());
                let decoded = trace
                    .time(Span::Decode, || codec.decode_readings(&payload))
                    .expect("in-process reading batch decodes");
                trace.time(Span::Observe, || {
                    for reading in decoded {
                        engine.observe(reading);
                    }
                });
            }
        }
        if trace.infer(|| engine.step(now)).is_some() {
            inference_runs += 1;
            ran_at_horizon = t == horizon;
        }
    }
    if !ran_at_horizon {
        trace.infer(|| Some(engine.run_inference(Epoch(horizon))));
        inference_runs += 1;
    }
    let mut containment = ContainmentMap::new();
    for object in chain.objects() {
        if let Some(container) = engine.container_of(object) {
            containment.set(object, container);
        }
    }
    ReplayOutcome {
        containment,
        inference_runs,
        comm,
        alerts: Vec::new(),
        shared_bytes: 0,
        unshared_bytes: 0,
        trace,
        total_s: 0.0,
        dist_s: dist_started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_core::InferenceConfig;
    use rfid_dist::DistributedDriver;
    use rfid_sim::{presets, ChaosPlan};

    /// The replay must reproduce the driver's deterministic results, or its
    /// split describes some other run.
    fn assert_faithful(chain: &ChainTrace, config: DistributedConfig) {
        let driver = DistributedDriver::new(config.clone()).run(chain);
        let replayed = replay(chain, &config, None);
        let label = format!("{:?}", config.strategy);
        assert_eq!(replayed.containment, driver.containment, "{label}");
        assert_eq!(replayed.inference_runs, driver.inference_runs, "{label}");
        assert_eq!(replayed.comm, driver.comm, "{label}");
        assert_eq!(replayed.alerts, driver.alerts, "{label}");
        assert_eq!(
            replayed.shared_bytes, driver.query_state_shared_bytes,
            "{label}"
        );
        assert_eq!(
            replayed.unshared_bytes, driver.query_state_unshared_bytes,
            "{label}"
        );
        assert!(replayed.dist_s <= replayed.total_s);
        assert!(replayed.trace.children_s() <= replayed.dist_s);
    }

    #[test]
    fn replay_matches_the_driver_on_every_strategy() {
        let chain = presets::smoke_chain(900, 3, None);
        for strategy in [
            MigrationStrategy::None,
            MigrationStrategy::CollapsedWeights,
            MigrationStrategy::CriticalRegionReadings,
            MigrationStrategy::Centralized,
        ] {
            assert_faithful(
                &chain,
                DistributedConfig {
                    strategy,
                    inference: InferenceConfig::default(),
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn replay_matches_the_driver_with_queries_and_checkpoints() {
        use crate::workload::{self, Workload};
        let chain = presets::smoke_chain(1200, 3, None);
        let config = workload::driver_config(Workload::CrQueries, &chain, 1, None);
        assert!(!config.queries.is_empty());
        assert_faithful(&chain, config.clone());
        let replayed = replay(&chain, &config, None);
        assert!(replayed.trace.checkpoints > 0);
        assert!(replayed.trace.query_events > 0);
    }

    #[test]
    fn chaos_extras_leave_the_replay_unchanged() {
        let chain = presets::smoke_chain(1200, 3, None);
        let config = DistributedConfig {
            strategy: MigrationStrategy::CriticalRegionReadings,
            ..Default::default()
        }
        .with_checkpoints(300);
        let plan = ChaosPlan::soak(7, 3, 1200).into_plan();
        let plain = replay(&chain, &config, None);
        let chaotic = replay(&chain, &config, Some(&plan));
        assert_eq!(plain.containment, chaotic.containment);
        assert_eq!(plain.comm, chaotic.comm);
        assert!(chaotic.trace.busy_s(Span::DeliveryPlan) > 0.0);
        assert_eq!(plain.trace.busy_s(Span::DeliveryPlan), 0.0);
    }
}
