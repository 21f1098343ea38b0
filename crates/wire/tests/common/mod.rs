//! Proptest generators shared by the wire suites (`roundtrip.rs`,
//! `fuzz.rs`).
//!
//! Each `tests/*.rs` file is its own crate, so this module is compiled into
//! every suite that declares `mod common;` — items a given suite does not
//! use are expected, hence the `dead_code` allowance.

#![allow(dead_code)]

use proptest::prelude::*;
use rfid_core::{
    CachedVariant, CollapsedState, DetectedChange, DirtySet, EngineSnapshot, EvidenceCache,
    InferenceOutcome, InferenceStats, MigrationState, ObjectEvidence, Observations, PriorWeights,
    ReadingsState,
};
use rfid_query::{
    Alert, AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle, StateDelta,
};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReaderId, SensorReading, TagId};
use rfid_wire::{ControlMsg, EdgeSeqs, PendingShipment, SiteCheckpoint, TransportStats};

/// Any tag id: all three kinds, serials spanning the full 62-bit range.
pub fn arb_tag() -> impl Strategy<Value = TagId> {
    (0u64..3, prop_oneof![0u64..200, Just((1u64 << 62) - 1)]).prop_map(
        |(kind, serial)| match kind {
            0 => TagId::item(serial),
            1 => TagId::case(serial),
            _ => TagId::pallet(serial),
        },
    )
}

/// Any epoch, biased toward small values but covering the u32 wraparound
/// boundary (`u32::MAX`), where delta encoding is most easily broken.
pub fn arb_epoch() -> impl Strategy<Value = Epoch> {
    prop_oneof![
        (0u32..5000).prop_map(Epoch),
        (u32::MAX - 10..u32::MAX).prop_map(Epoch),
        Just(Epoch(u32::MAX)),
        Just(Epoch(0)),
    ]
}

/// Finite weights with exactly representable and irrational-looking values.
pub fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, Just(0.0f64), Just(-0.0f64), Just(-1e-300f64),]
}

pub fn arb_reading() -> impl Strategy<Value = RawReading> {
    (arb_epoch(), arb_tag(), 0u16..u16::MAX)
        .prop_map(|(time, tag, reader)| RawReading::new(time, tag, ReaderId(reader)))
}

pub fn arb_readings() -> impl Strategy<Value = Vec<RawReading>> {
    // Unsorted on purpose: the codec must preserve arbitrary order bitwise.
    prop::collection::vec(arb_reading(), 0..60)
}

pub fn arb_collapsed() -> impl Strategy<Value = CollapsedState> {
    (
        arb_tag(),
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..12),
        prop::option::of(arb_tag()),
    )
        .prop_map(|(object, weights, container)| CollapsedState {
            object,
            weights,
            container,
        })
}

pub fn arb_automaton() -> impl Strategy<Value = AutomatonState> {
    prop_oneof![
        Just(AutomatonState::Idle),
        (
            arb_epoch(),
            prop::collection::vec((arb_epoch(), arb_weight()), 0..25),
            any::<bool>(),
        )
            .prop_map(|(since, readings, fired)| AutomatonState::Accumulating {
                since,
                readings,
                fired,
            }),
    ]
}

pub fn arb_query_state() -> impl Strategy<Value = ObjectQueryState> {
    ((0u32..4), arb_tag(), arb_automaton()).prop_map(|(q, tag, automaton)| ObjectQueryState {
        query: format!("Q{q}"),
        tag,
        automaton,
    })
}

pub fn arb_delta() -> impl Strategy<Value = StateDelta> {
    (
        arb_tag(),
        prop::collection::vec(((0u32..4096), any::<u8>()), 0..12),
        prop::collection::vec(any::<u8>(), 0..16),
        0u32..8192,
        prop::option::of(prop::collection::vec(any::<u8>(), 0..32)),
    )
        .prop_map(|(tag, mut edits, suffix, len, full)| {
            // Real deltas carry strictly ascending edit positions; mimic that
            // (the codec tolerates any order, equality does not tolerate
            // duplicates collapsing).
            edits.sort_by_key(|&(pos, _)| pos);
            edits.dedup_by_key(|&mut (pos, _)| pos);
            let (edits, suffix) = if full.is_some() {
                (Vec::new(), Vec::new())
            } else {
                (edits, suffix)
            };
            StateDelta {
                tag,
                edits,
                suffix,
                len,
                full,
            }
        })
}

pub fn arb_bundle() -> impl Strategy<Value = SharedStateBundle> {
    (
        arb_tag(),
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(arb_delta(), 0..8),
    )
        .prop_map(|(centroid_tag, centroid_bytes, deltas)| SharedStateBundle {
            centroid_tag,
            centroid_bytes,
            deltas,
        })
}

// Checkpoint generators. Each takes `min`, the lower bound on the length of
// every section it produces. `roundtrip.rs` passes 0, so empty sections, a
// missing last outcome and mixes of empty and populated sections all
// round-trip. `fuzz.rs` passes 1: every section — the observation store,
// priors, containment, detected changes, the last outcome, dirty journal,
// evidence cache, processor state with alerts, the inbox, edge sequences,
// quarantine and ledgers — is non-empty, so the truncation and bit-flip
// sweeps reach every section decoder.

/// An `(epoch, value)` series in arbitrary order — the codec must preserve
/// order and duplicates bitwise.
pub fn arb_series() -> impl Strategy<Value = Vec<(Epoch, f64)>> {
    prop::collection::vec((arb_epoch(), arb_weight()), 0..6)
}

pub fn arb_observations(min: usize) -> impl Strategy<Value = Observations> {
    prop::collection::vec(arb_reading(), min..25).prop_map(|readings| {
        let mut store = Observations::new();
        for reading in readings {
            store.insert(reading);
        }
        store
    })
}

pub fn arb_prior(min: usize) -> impl Strategy<Value = PriorWeights> {
    prop::collection::vec((arb_tag(), arb_tag(), arb_weight()), min..8).prop_map(|entries| {
        let mut prior = PriorWeights::empty();
        for (object, container, weight) in entries {
            prior.set(object, container, weight);
        }
        prior
    })
}

pub fn arb_containment(min: usize) -> impl Strategy<Value = ContainmentMap> {
    prop::collection::btree_map(arb_tag(), arb_tag(), min..8).prop_map(|pairs| {
        let mut map = ContainmentMap::new();
        for (object, container) in pairs {
            map.set(object, container);
        }
        map
    })
}

pub fn arb_dirty(min: usize) -> impl Strategy<Value = DirtySet> {
    (
        prop::collection::vec(arb_tag(), 0..4),
        prop::collection::vec((arb_tag(), arb_epoch()), min..10),
    )
        .prop_map(|(marks, records)| {
            let mut dirty = DirtySet::new();
            for tag in marks {
                dirty.mark(tag);
            }
            for (tag, epoch) in records {
                dirty.record(tag, epoch);
            }
            dirty
        })
}

pub fn arb_cache(min: usize) -> impl Strategy<Value = EvidenceCache> {
    let variant = (
        prop::collection::vec(arb_tag(), 0..4),
        prop::collection::vec(arb_epoch(), 0..5),
        prop::collection::vec(arb_weight(), 0..8),
        prop::collection::btree_map(arb_tag(), arb_series(), 0..3),
    )
        .prop_map(|(members, epochs, qrows, evidence)| CachedVariant {
            members,
            epochs,
            qrows,
            evidence,
        });
    prop::collection::btree_map(arb_tag(), prop::collection::vec(variant, min..3), min..3).prop_map(
        |containers| {
            let mut cache = EvidenceCache::new();
            for (container, variants) in containers {
                cache.set_variants(container, variants);
            }
            cache
        },
    )
}

pub fn arb_outcome(min: usize) -> impl Strategy<Value = InferenceOutcome> {
    let evidence = (
        prop::collection::vec(arb_tag(), 0..5),
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..5),
        prop::collection::btree_map(arb_tag(), arb_series(), 0..3),
        prop::option::of(arb_tag()),
    )
        .prop_map(
            |(candidates, weights, point_evidence, assigned)| ObjectEvidence {
                candidates,
                weights,
                point_evidence,
                assigned,
            },
        );
    (
        arb_containment(min),
        prop::collection::btree_map(arb_tag(), evidence, min..4),
        prop::collection::btree_map(
            arb_tag(),
            prop::collection::vec((arb_epoch(), (0u16..300).prop_map(LocationId)), min..5),
            min..4,
        ),
        0usize..20,
        0usize..64,
    )
        .prop_map(
            |(containment, objects, tag_locations, iterations, num_locations)| InferenceOutcome {
                containment,
                objects,
                tag_locations,
                iterations,
                num_locations,
            },
        )
}

pub fn arb_engine(min: usize) -> impl Strategy<Value = EngineSnapshot> {
    let detected = (
        arb_tag(),
        arb_epoch(),
        prop::option::of(arb_tag()),
        prop::option::of(arb_tag()),
        arb_weight(),
    )
        .prop_map(
            |(object, change_at, old_container, new_container, statistic)| DetectedChange {
                object,
                change_at,
                old_container,
                new_container,
                statistic,
            },
        );
    let last_outcome = if min == 0 {
        prop::option::of(arb_outcome(0)).boxed()
    } else {
        arb_outcome(min).prop_map(Some).boxed()
    };
    (
        arb_observations(min),
        arb_prior(min),
        arb_containment(min),
        prop::collection::vec(detected, min..3),
        last_outcome,
        prop::option::of(arb_epoch()),
        prop::option::of(arb_weight()),
        arb_dirty(min),
        arb_cache(min),
    )
        .prop_map(
            |(
                store,
                prior,
                containment,
                detected,
                last_outcome,
                last_inference_at,
                threshold,
                dirty,
                cache,
            )| {
                EngineSnapshot {
                    store,
                    prior,
                    containment,
                    detected,
                    last_outcome,
                    last_inference_at,
                    threshold,
                    dirty,
                    cache,
                }
            },
        )
}

pub fn arb_processor(min: usize) -> impl Strategy<Value = ProcessorSnapshot> {
    let alert = ((0u32..4), arb_tag(), arb_epoch(), arb_epoch(), arb_series()).prop_map(
        |(q, tag, since, at, readings)| Alert {
            query: format!("Q{q}"),
            tag,
            since,
            at,
            readings,
        },
    );
    (
        prop::collection::vec(
            (arb_epoch(), 0u16..300, arb_weight())
                .prop_map(|(time, loc, value)| SensorReading::new(time, LocationId(loc), value)),
            min..5,
        ),
        prop::collection::vec(arb_query_state(), min..5),
        prop::collection::vec(alert, min..4),
    )
        .prop_map(|(temperatures, automata, alerts)| ProcessorSnapshot {
            temperatures,
            automata,
            alerts,
        })
}

pub fn arb_pending() -> impl Strategy<Value = PendingShipment> {
    (
        arb_epoch(),
        0u16..16,
        0u16..16,
        arb_tag(),
        arb_epoch(),
        (any::<u64>(), arb_epoch()),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..24)),
        prop::collection::vec(arb_query_state(), 0..3),
    )
        .prop_map(
            |(depart, from, to, tag, arrive, (seq, physical), inference, query)| PendingShipment {
                depart,
                from,
                to,
                tag,
                arrive,
                seq,
                physical,
                inference,
                query,
            },
        )
}

pub fn arb_edge_seqs(min: usize) -> impl Strategy<Value = Vec<EdgeSeqs>> {
    prop::collection::vec(
        (
            0u16..64,
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..5),
        )
            .prop_map(|(peer, watermark, extras)| EdgeSeqs {
                peer,
                watermark,
                extras,
            }),
        min..4,
    )
}

pub fn arb_transport_stats() -> impl Strategy<Value = TransportStats> {
    prop::collection::vec(0u64..1 << 40, 10).prop_map(|v| TransportStats {
        envelopes: v[0],
        transmissions: v[1],
        retransmissions: v[2],
        acks: v[3],
        duplicates_dropped: v[4],
        reconciled: v[5],
        stale_dropped: v[6],
        abandoned: v[7],
        resyncs: v[8],
        quarantined: v[9],
    })
}

pub fn arb_quarantine(min: usize) -> impl Strategy<Value = Vec<rfid_wire::QuarantineEntry>> {
    prop::collection::vec(
        (0u16..64, any::<u64>(), arb_epoch()).prop_map(|(from, seq, physical)| {
            rfid_wire::QuarantineEntry {
                from,
                seq,
                physical,
            }
        }),
        min..4,
    )
}

pub fn arb_memory() -> impl Strategy<Value = rfid_core::MemoryStats> {
    prop::collection::vec(0u64..1 << 40, 4).prop_map(|v| rfid_core::MemoryStats {
        high_water: v[0],
        compactions: v[1],
        compacted_observations: v[2],
        evicted_cache_entries: v[3],
    })
}

pub fn arb_ledgers(min: usize) -> impl Strategy<Value = Vec<rfid_wire::EdgeLedger>> {
    prop::collection::vec(
        (
            (0u16..64, 0u16..64),
            prop::collection::vec(0u64..1 << 40, 13),
        )
            .prop_map(|((from, to), v)| rfid_wire::EdgeLedger {
                from,
                to,
                envelopes: v[0],
                abandoned: v[1],
                sent_copies: v[2],
                sent_bytes: v[3],
                recv_copies: v[4],
                recv_bytes: v[5],
                accepted: v[6],
                imported: v[7],
                stale: v[8],
                quarantined: v[9],
                undelivered: v[10],
                undelivered_bytes: v[11],
                dark_envelopes: v[12],
            }),
        min..4,
    )
}

/// A checkpoint whose sections each hold at least `min` entries; with
/// `min == 0` the last outcome is also sometimes absent.
pub fn arb_checkpoint(min: usize) -> impl Strategy<Value = SiteCheckpoint> {
    let accounting = (
        prop::collection::vec(0u64..1 << 40, 5),
        prop::collection::vec(0u64..1 << 20, 5),
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..10_000,
        prop::collection::vec(0usize..100_000, 5),
    );
    (
        (0u16..64, arb_epoch(), arb_engine(min), arb_processor(min)),
        (0u64..1 << 32, 0u64..1 << 32, 0u64..1 << 32),
        prop::collection::vec(arb_pending(), min..4),
        accounting,
        (
            arb_edge_seqs(min),
            arb_transport_stats(),
            arb_quarantine(min),
            arb_memory(),
            arb_ledgers(min),
        ),
    )
        .prop_map(
            |(
                (site, at, engine, processor),
                (reading_cursor, sensor_cursor, departure_cursor),
                inbox,
                (bytes, messages, shared_bytes, unshared_bytes, inference_runs, stats),
                (inbox_seqs, transport, quarantine, memory, ledgers),
            )| SiteCheckpoint {
                site,
                at,
                engine,
                processor,
                reading_cursor,
                sensor_cursor,
                departure_cursor,
                inbox,
                comm_bytes: [bytes[0], bytes[1], bytes[2], bytes[3], bytes[4]],
                comm_messages: [
                    messages[0],
                    messages[1],
                    messages[2],
                    messages[3],
                    messages[4],
                ],
                shared_bytes,
                unshared_bytes,
                inference_runs,
                stats: InferenceStats {
                    dirty_tags: stats[0],
                    posteriors_reused: stats[1],
                    posteriors_computed: stats[2],
                    evidence_reused: stats[3],
                    evidence_computed: stats[4],
                },
                inbox_seqs,
                transport,
                quarantine,
                memory,
                ledgers,
            },
        )
}

pub fn arb_control() -> impl Strategy<Value = ControlMsg> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(from, to, seq)| ControlMsg::Ack {
            from,
            to,
            seq
        }),
        (any::<u16>(), any::<u16>(), arb_epoch())
            .prop_map(|(site, peer, since)| ControlMsg::Resync { site, peer, since }),
    ]
}

/// Arbitrary migration state across all three variants.
pub fn arb_migration() -> impl Strategy<Value = MigrationState> {
    prop_oneof![
        Just(MigrationState::None),
        arb_collapsed().prop_map(MigrationState::Collapsed),
        (arb_tag(), arb_readings(), prop::option::of(arb_tag())).prop_map(
            |(object, readings, container)| {
                MigrationState::Readings(ReadingsState {
                    object,
                    readings,
                    container,
                })
            }
        ),
    ]
}
