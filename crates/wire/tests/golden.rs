//! Golden byte fixtures: one checked-in Binary encoding per payload kind
//! (`0x01`–`0x08`), together covering every variant of every payload.
//!
//! Each fixture pins both directions — `encode(sample) == bytes` and
//! `decode(bytes) == sample` — so the communication-cost numbers and every
//! stored checkpoint stay readable: a change to the wire format has to
//! rewrite these bytes on purpose.

use rfid_core::{
    CachedVariant, CollapsedState, DetectedChange, DirtySet, EngineSnapshot, EvidenceCache,
    InferenceOutcome, InferenceStats, MemoryStats, MigrationState, ObjectEvidence, Observations,
    PriorWeights, ReadingsState,
};
use rfid_query::{
    Alert, AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle, StateDelta,
};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReaderId, SensorReading, TagId};
use rfid_wire::{
    ControlMsg, EdgeLedger, EdgeSeqs, PendingShipment, QuarantineEntry, SiteCheckpoint,
    TransportStats, WireCodec, WireError, WireFormat,
};
use std::fmt::Debug;

fn binary() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parse a fixture: hex digit pairs, whitespace ignored.
fn from_hex(fixture: &str) -> Vec<u8> {
    let digits: Vec<u8> = fixture
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Assert that `sample` encodes to exactly `fixture` and that `fixture`
/// decodes back to exactly `sample`.
fn check<T: PartialEq + Debug>(
    name: &str,
    sample: &T,
    fixture: &str,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) {
    let expected = from_hex(fixture);
    assert_eq!(
        to_hex(&encode(sample)),
        to_hex(&expected),
        "{name}: encoding differs from the golden bytes"
    );
    assert_eq!(
        &decode(&expected).unwrap(),
        sample,
        "{name}: golden bytes decode to a different value"
    );
}

fn collapsed() -> CollapsedState {
    CollapsedState {
        object: TagId::item(3),
        weights: [
            (TagId::case(1), -12.5),
            (TagId::case(2), -0.0),
            (TagId::pallet(7), 1e-300),
        ]
        .into_iter()
        .collect(),
        container: Some(TagId::case(1)),
    }
}

fn readings_state() -> ReadingsState {
    // Tag-grouped, so the epoch deltas go negative at each group boundary.
    ReadingsState {
        object: TagId::item(3),
        readings: vec![
            RawReading::new(Epoch(100), TagId::item(3), ReaderId(2)),
            RawReading::new(Epoch(101), TagId::item(3), ReaderId(2)),
            RawReading::new(Epoch(99), TagId::case(1), ReaderId(300)),
            RawReading::new(Epoch(u32::MAX), TagId::case(1), ReaderId(0)),
        ],
        container: None,
    }
}

fn accumulating() -> ObjectQueryState {
    ObjectQueryState {
        query: "Q1".to_string(),
        tag: TagId::item(9),
        automaton: AutomatonState::Accumulating {
            since: Epoch(500),
            readings: vec![(Epoch(500), 21.0), (Epoch(510), -0.0), (Epoch(505), 8.25)],
            fired: true,
        },
    }
}

fn idle() -> ObjectQueryState {
    ObjectQueryState {
        query: "Q2".to_string(),
        tag: TagId::item(4),
        automaton: AutomatonState::Idle,
    }
}

fn bundle() -> SharedStateBundle {
    SharedStateBundle {
        centroid_tag: TagId::item(1),
        centroid_bytes: vec![1, 2, 3, 4, 5, 6],
        deltas: vec![
            StateDelta {
                tag: TagId::item(2),
                edits: vec![(0, 9), (3, 7), (200, 1)],
                suffix: vec![8, 8],
                len: 203,
                full: None,
            },
            StateDelta {
                tag: TagId::item(3),
                edits: Vec::new(),
                suffix: Vec::new(),
                len: 2,
                full: Some(vec![9, 9]),
            },
        ],
    }
}

/// A checkpoint with every section non-empty.
fn checkpoint() -> SiteCheckpoint {
    let mut store = Observations::new();
    for t in [0u32, 1, 4] {
        store.insert(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
        store.insert(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
    }
    store.insert(RawReading::new(Epoch(4), TagId::case(1), ReaderId(3)));
    let mut prior = PriorWeights::empty();
    prior.set(TagId::item(1), TagId::case(1), -0.5);
    prior.set(TagId::item(1), TagId::case(2), -40.25);
    prior.set(TagId::item(2), TagId::pallet(1), 3.0);
    let mut containment = ContainmentMap::new();
    containment.set(TagId::item(1), TagId::case(1));
    containment.set(TagId::item(2), TagId::case(2));
    let mut dirty = DirtySet::new();
    dirty.mark(TagId::item(2));
    dirty.record(TagId::item(1), Epoch(4));
    dirty.record(TagId::item(1), Epoch(2));
    let mut cache = EvidenceCache::new();
    cache.set_variants(
        TagId::case(1),
        vec![
            CachedVariant {
                members: vec![TagId::item(1)],
                epochs: vec![Epoch(1), Epoch(3)],
                qrows: vec![0.25, 0.75, -0.0, 1.0],
                evidence: [(TagId::item(1), vec![(Epoch(1), 0.5), (Epoch(3), 1.5)])]
                    .into_iter()
                    .collect(),
            },
            CachedVariant {
                members: vec![TagId::item(1), TagId::item(2)],
                epochs: vec![Epoch(4)],
                qrows: vec![0.5],
                evidence: Default::default(),
            },
        ],
    );
    let outcome = InferenceOutcome {
        containment: containment.clone(),
        objects: [(
            TagId::item(1),
            ObjectEvidence {
                candidates: vec![TagId::case(2), TagId::case(1)],
                weights: [(TagId::case(1), 4.5), (TagId::case(2), -1e-300)]
                    .into_iter()
                    .collect(),
                point_evidence: [(TagId::case(1), vec![(Epoch(4), 0.5), (Epoch(0), 0.25)])]
                    .into_iter()
                    .collect(),
                assigned: Some(TagId::case(1)),
            },
        )]
        .into_iter()
        .collect(),
        tag_locations: [(
            TagId::case(1),
            vec![(Epoch(0), LocationId(0)), (Epoch(4), LocationId(3))],
        )]
        .into_iter()
        .collect(),
        iterations: 3,
        num_locations: 4,
    };
    let engine = EngineSnapshot {
        store,
        prior,
        containment,
        detected: vec![
            DetectedChange {
                object: TagId::item(1),
                change_at: Epoch(3),
                old_container: Some(TagId::case(2)),
                new_container: Some(TagId::case(1)),
                statistic: 7.25,
            },
            DetectedChange {
                object: TagId::item(2),
                change_at: Epoch(2),
                old_container: None,
                new_container: Some(TagId::case(2)),
                statistic: 0.0,
            },
        ],
        last_outcome: Some(outcome),
        last_inference_at: Some(Epoch(4)),
        threshold: Some(f64::INFINITY),
        dirty,
        cache,
    };
    let processor = ProcessorSnapshot {
        temperatures: vec![
            SensorReading::new(Epoch(2), LocationId(1), 21.5),
            SensorReading::new(Epoch(3), LocationId(200), -4.0),
        ],
        automata: vec![accumulating(), idle()],
        alerts: vec![Alert {
            query: "Q1".to_string(),
            tag: TagId::item(7),
            since: Epoch(300),
            at: Epoch(1200),
            readings: vec![(Epoch(300), 20.0), (Epoch(1200), 24.0)],
        }],
    };
    SiteCheckpoint {
        site: 2,
        at: Epoch(1200),
        engine,
        processor,
        reading_cursor: 10,
        sensor_cursor: 1,
        departure_cursor: 300,
        inbox: vec![
            PendingShipment {
                depart: Epoch(3),
                from: 1,
                to: 2,
                tag: TagId::item(9),
                arrive: Epoch(5),
                seq: 17,
                physical: Epoch(4),
                inference: Some(vec![1, 2, 3]),
                query: vec![idle()],
            },
            PendingShipment {
                depart: Epoch(6),
                from: 0,
                to: 2,
                tag: TagId::item(8),
                arrive: Epoch(9),
                seq: 0,
                physical: Epoch(9),
                inference: None,
                query: Vec::new(),
            },
        ],
        comm_bytes: [0, 120, 30, 8, 6],
        comm_messages: [0, 2, 1, 1, 1],
        shared_bytes: 30,
        unshared_bytes: 45,
        inference_runs: 2,
        stats: InferenceStats {
            dirty_tags: 2,
            posteriors_reused: 5,
            posteriors_computed: 7,
            evidence_reused: 11,
            evidence_computed: 130,
        },
        inbox_seqs: vec![
            EdgeSeqs {
                peer: 0,
                watermark: 4,
                extras: vec![6, 9],
            },
            EdgeSeqs {
                peer: 1,
                watermark: 17,
                extras: Vec::new(),
            },
        ],
        transport: TransportStats {
            envelopes: 12,
            transmissions: 15,
            retransmissions: 3,
            acks: 14,
            duplicates_dropped: 2,
            reconciled: 1,
            stale_dropped: 4,
            abandoned: 1,
            resyncs: 1,
            quarantined: 1,
        },
        quarantine: vec![QuarantineEntry {
            from: 1,
            seq: 9,
            physical: Epoch(3),
        }],
        memory: MemoryStats {
            high_water: 400,
            compactions: 2,
            compacted_observations: 17,
            evicted_cache_entries: 3,
        },
        ledgers: vec![
            EdgeLedger {
                from: 1,
                to: 2,
                envelopes: 12,
                abandoned: 1,
                sent_copies: 13,
                sent_bytes: 260,
                recv_copies: 13,
                recv_bytes: 260,
                accepted: 11,
                imported: 9,
                stale: 1,
                quarantined: 1,
                undelivered: 1,
                undelivered_bytes: 20,
                dark_envelopes: 1,
            },
            EdgeLedger::new(2, 0),
        ],
    }
}

#[test]
fn migration_none() {
    check(
        "0x01 None",
        &MigrationState::None,
        "010100",
        |s| binary().encode_migration(s),
        |b| binary().decode_migration(b),
    );
}

#[test]
fn migration_collapsed() {
    check(
        "0x01 Collapsed",
        &MigrationState::Collapsed(collapsed()),
        "
            0101010403feffffffffffffff3f018580808080808080400002030100000000
            000029c00200000000000000800359f3f8c21f6ea501
        ",
        |s| binary().encode_migration(s),
        |b| binary().decode_migration(b),
    );
}

#[test]
fn migration_readings() {
    check(
        "0x01 Readings",
        &MigrationState::Readings(readings_state()),
        "
            0101020203feffffffffffffff3f00000400c801020002020103ac0201b8feff
            ff1f00
        ",
        |s| binary().encode_migration(s),
        |b| binary().decode_migration(b),
    );
}

#[test]
fn reading_batch() {
    check(
        "0x02",
        &readings_state().readings,
        "01020203feffffffffffffff3f0400c801020002020103ac0201b8feffff1f00",
        |s| binary().encode_readings(s),
        |b| binary().decode_readings(b),
    );
}

#[test]
fn query_state_accumulating() {
    check(
        "0x03 Accumulating",
        &accumulating(),
        "
            01030251310901f4030103000000000000003540140000000000000080090000
            000000802040
        ",
        |s| binary().encode_query_state(s),
        |b| binary().decode_query_state(b),
    );
}

#[test]
fn query_state_idle() {
    check(
        "0x03 Idle",
        &idle(),
        "01030251320400",
        |s| binary().encode_query_state(s),
        |b| binary().decode_query_state(b),
    );
}

#[test]
fn bundle_with_edit_and_full_deltas() {
    check(
        "0x04",
        &bundle(),
        "010401060102030405060202cb010003000906078a0301020808030201020909",
        |s| binary().encode_bundle(s),
        |b| binary().decode_bundle(b),
    );
}

#[test]
fn collapsed_state() {
    check(
        "0x05",
        &collapsed(),
        "
            01050403feffffffffffffff3f01858080808080808040000203010000000000
            0029c00200000000000000800359f3f8c21f6ea501
        ",
        |s| binary().encode_collapsed(s),
        |b| binary().decode_collapsed(b),
    );
}

#[test]
fn state_payloads() {
    for (name, state, fixture) in [
        (
            "0x06 Accumulating",
            accumulating(),
            "010602513101f4030103000000000000003540140000000000000080090000000000802040",
        ),
        ("0x06 Idle", idle(), "010602513200"),
    ] {
        check(
            name,
            &state,
            fixture,
            |s| binary().state_payload(s),
            |b| binary().state_from_payload(state.tag, b),
        );
    }
}

#[test]
fn full_checkpoint() {
    check(
        "0x07",
        &checkpoint(),
        "
            010702b00909010102030101f8ffffffffffffff3f01ffffffffffffffff3f02
            0003000100020100060100060300010002010006020003020002060000000000
            00e0bf0700000000002044c00101080000000000000840020006010702000308
            070000000000001d400102000800000000000000000102000601070100020706
            020600000000000012400759f3f8c21f6ea58101060208000000000000e03f07
            000000000000d03f07010602000008030304010401000000000000f07f020002
            04040100010602010002020404000000000000d03f000000000000e83f000000
            0000000080000000000000f03f01000202000000000000e03f04000000000000
            f83f020001010801000000000000e03f00020201000000000080354003c80100
            000000000010c0020251310501f4030103000000000000003540140000000000
            00008009000000000080204002513202000102513103ac02b00902d804000000
            0000003440880e00000000000038400a01ac0202030102050511040103010203
            0102513202000600020409000900000500781e080600020101011e2d02020507
            0b82010200040206090111000a0c0f030e020104010101010109030490030211
            030201020d0c010d84020d84020b09010101140102000d000000000000000000
            00000000
        ",
        |s| binary().encode_checkpoint(s),
        |b| binary().decode_checkpoint(b),
    );
}

#[test]
fn control_messages() {
    for (name, msg, fixture) in [
        (
            "0x08 Ack",
            ControlMsg::Ack {
                from: 2,
                to: 300,
                seq: 1 << 40,
            },
            "01080002ac02808080808020",
        ),
        (
            "0x08 Resync",
            ControlMsg::Resync {
                site: 1,
                peer: 5,
                since: Epoch(u32::MAX),
            },
            "0108010105ffffffff0f",
        ),
    ] {
        check(
            name,
            &msg,
            fixture,
            |m| binary().encode_control(m),
            |b| binary().decode_control(b),
        );
    }
}
