//! Adversarial decoding: the wire decoder must treat every byte sequence —
//! truncated, bit-flipped, or outright random — as data, never as a reason
//! to panic. Valid encodings must additionally be *stable*: decoding and
//! re-encoding reproduces the original bytes.
//!
//! This is the runtime half of the `panic-free-decode` invariant; the static
//! half is enforced by `rfid-lint` over `crates/wire/src`.

mod common;

use common::{
    arb_bundle, arb_checkpoint, arb_collapsed, arb_control, arb_migration, arb_query_state,
    arb_readings,
};
use proptest::prelude::*;
use rfid_core::{CollapsedState, MigrationState};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle};
use rfid_types::{Epoch, RawReading, ReaderId, TagId};
use rfid_wire::primitives::{Reader, TagTable, Writer};
use rfid_wire::{WireCodec, WireErrorKind, WireFormat, WIRE_VERSION};

fn binary() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

fn both() -> [WireCodec; 2] {
    [
        WireCodec::new(WireFormat::Binary),
        WireCodec::new(WireFormat::Json),
    ]
}

/// Run every decoder over `bytes`; the only acceptable outcomes are `Ok` and
/// `Err` — a panic fails the test by unwinding.
fn decode_everything(codec: &WireCodec, bytes: &[u8]) {
    let _ = codec.decode_readings(bytes);
    let _ = codec.decode_collapsed(bytes);
    let _ = codec.decode_migration(bytes);
    let _ = codec.decode_query_state(bytes);
    let _ = codec.decode_bundle(bytes);
    let _ = codec.decode_checkpoint(bytes);
    let _ = codec.decode_control(bytes);
    let _ = codec.state_from_payload(TagId::item(1), bytes);
}

/// Valid binary encodings of every payload family, for mutation.
fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_readings().prop_map(|r| binary().encode_readings(&r)),
        arb_collapsed().prop_map(|s| binary().encode_collapsed(&s)),
        arb_migration().prop_map(|s| binary().encode_migration(&s)),
        arb_query_state().prop_map(|s| binary().encode_query_state(&s)),
        arb_bundle().prop_map(|b| binary().encode_bundle(&b)),
        arb_checkpoint(1).prop_map(|c| binary().encode_checkpoint(&c)),
        arb_control().prop_map(|m| binary().encode_control(&m)),
    ]
}

proptest! {
    #[test]
    fn every_strict_prefix_errs_and_never_panics(bytes in arb_encoding()) {
        // Binary messages either promise more bytes (truncation mid-field)
        // or fail `expect_exhausted`; either way a strict prefix is an error,
        // and crucially never an abort.
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(binary().decode_readings(prefix).is_err());
            prop_assert!(binary().decode_collapsed(prefix).is_err());
            prop_assert!(binary().decode_migration(prefix).is_err());
            prop_assert!(binary().decode_query_state(prefix).is_err());
            prop_assert!(binary().decode_bundle(prefix).is_err());
            prop_assert!(binary().decode_checkpoint(prefix).is_err());
            prop_assert!(binary().decode_control(prefix).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic(bytes in arb_encoding(), idx in any::<u16>(), bit in 0u8..8) {
        // A single flipped bit may still decode (payload bits), may change
        // the message meaning, or may corrupt structure — all fine, as long
        // as no decoder panics.
        let mut mutated = bytes;
        if !mutated.is_empty() {
            let at = idx as usize % mutated.len();
            mutated[at] ^= 1 << bit;
        }
        for codec in both() {
            decode_everything(&codec, &mutated);
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        for codec in both() {
            decode_everything(&codec, &bytes);
        }
    }

    #[test]
    fn decoding_then_reencoding_is_stable(state in arb_collapsed()) {
        for codec in both() {
            let bytes = codec.encode_collapsed(&state);
            let back = codec.decode_collapsed(&bytes).unwrap();
            prop_assert_eq!(codec.encode_collapsed(&back), bytes.clone());
        }
    }

    #[test]
    fn reading_batches_reencode_stably(readings in arb_readings()) {
        for codec in both() {
            let bytes = codec.encode_readings(&readings);
            let back = codec.decode_readings(&bytes).unwrap();
            prop_assert_eq!(codec.encode_readings(&back), bytes.clone());
        }
    }
}

/// Each epoch delta below is individually a legal zigzag varint, but their
/// running sum overflows `i64` — exactly the shape a hostile peer would send
/// to abort a site built with `overflow-checks`. Must be a clean error.
#[test]
fn zigzag_delta_sum_overflow_is_an_error_not_an_abort() {
    let tag = TagId::item(1);
    let table = TagTable::from_tags([tag]);
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x02); // KIND_READINGS
    table.encode(&mut w);
    w.put_varint(2); // two readings
    w.put_varint(0); // reading 1: tag index
    w.put_zigzag(i64::from(u32::MAX)); // epoch u32::MAX (valid)
    w.put_varint(0); // reader id
    w.put_varint(0); // reading 2: tag index
    w.put_zigzag(i64::MAX); // prev + delta wraps i64
    w.put_varint(0); // reader id
    let err = binary()
        .decode_readings(&w.into_bytes())
        .expect_err("overflowing epoch delta must be rejected");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// A declared byte-string length near `u64::MAX` used to wrap the
/// `pos + len` bounds check in release builds and panic on the slice; it is
/// now a typed `LengthOverflow`.
#[test]
fn huge_length_prefixes_are_length_overflow_errors() {
    let mut w = Writer::new();
    w.put_varint(u64::MAX);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let err = r.get_bytes().expect_err("length prefix exceeds any buffer");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// The chaos fault plan corrupts a poisoned envelope by flipping the high
/// bit of byte 0 — in the binary format that ruins the version byte, in JSON
/// the opening brace. Every payload kind must turn that into a typed
/// [`WireError`] (quarantine input), never a panic and never a silent
/// mis-decode. One case per wire payload kind, referenced by the `// FUZZ:`
/// annotations next to the `KIND_*` constants (lint rule
/// `wire-fuzz-coverage`).
#[test]
fn corrupted_byte_zero_is_a_typed_error_for_every_kind() {
    let state = ObjectQueryState {
        query: "Q1".to_string(),
        tag: TagId::item(1),
        automaton: AutomatonState::Idle,
    };
    for codec in both() {
        let encodings: Vec<(&str, Vec<u8>)> = vec![
            (
                "KIND_MIGRATION",
                codec.encode_migration(&MigrationState::None),
            ),
            (
                "KIND_READINGS",
                codec.encode_readings(&[RawReading::new(Epoch(1), TagId::item(1), ReaderId(0))]),
            ),
            ("KIND_QUERY_STATE", codec.encode_query_state(&state)),
            (
                "KIND_BUNDLE",
                codec.encode_bundle(&SharedStateBundle {
                    centroid_tag: TagId::item(1),
                    centroid_bytes: vec![1, 2, 3],
                    deltas: Vec::new(),
                }),
            ),
            (
                "KIND_COLLAPSED",
                codec.encode_collapsed(&CollapsedState {
                    object: TagId::item(1),
                    weights: [(TagId::case(1), 0.0)].into_iter().collect(),
                    container: Some(TagId::case(1)),
                }),
            ),
            ("KIND_STATE_PAYLOAD", codec.state_payload(&state)),
            (
                "KIND_CONTROL",
                codec.encode_control(&rfid_wire::ControlMsg::Ack {
                    from: 0,
                    to: 1,
                    seq: 4,
                }),
            ),
        ];
        for (kind, bytes) in &encodings {
            let mut poisoned = bytes.clone();
            poisoned[0] ^= 0x80;
            decode_everything(&codec, &poisoned);
            assert!(
                codec.decode_migration(&poisoned).is_err()
                    && codec.decode_readings(&poisoned).is_err()
                    && codec.decode_query_state(&poisoned).is_err()
                    && codec.decode_bundle(&poisoned).is_err()
                    && codec.decode_collapsed(&poisoned).is_err()
                    && codec.state_from_payload(TagId::item(1), &poisoned).is_err()
                    && codec.decode_control(&poisoned).is_err(),
                "poisoned {kind} must not decode as any payload"
            );
        }
    }
    // KIND_CHECKPOINT travels through its own codec entry point.
    for codec in both() {
        let checkpoint = codec.encode_checkpoint(&{
            use rfid_core::{DirtySet, EngineSnapshot, EvidenceCache, Observations, PriorWeights};
            use rfid_query::ProcessorSnapshot;
            use rfid_types::ContainmentMap;
            rfid_wire::SiteCheckpoint {
                site: 0,
                at: Epoch(0),
                engine: EngineSnapshot {
                    store: Observations::new(),
                    prior: PriorWeights::empty(),
                    containment: ContainmentMap::new(),
                    detected: Vec::new(),
                    last_outcome: None,
                    last_inference_at: None,
                    threshold: None,
                    dirty: DirtySet::new(),
                    cache: EvidenceCache::new(),
                },
                processor: ProcessorSnapshot {
                    temperatures: Vec::new(),
                    automata: Vec::new(),
                    alerts: Vec::new(),
                },
                reading_cursor: 0,
                sensor_cursor: 0,
                departure_cursor: 0,
                inbox: Vec::new(),
                comm_bytes: [0; 5],
                comm_messages: [0; 5],
                shared_bytes: 0,
                unshared_bytes: 0,
                inference_runs: 0,
                stats: Default::default(),
                inbox_seqs: Vec::new(),
                transport: Default::default(),
                quarantine: Vec::new(),
                memory: Default::default(),
                ledgers: Vec::new(),
            }
        });
        let mut poisoned = checkpoint;
        poisoned[0] ^= 0x80;
        decode_everything(&codec, &poisoned);
        assert!(
            codec.decode_checkpoint(&poisoned).is_err(),
            "poisoned KIND_CHECKPOINT must not decode"
        );
    }
}

/// Truncation and bad headers surface as their own machine-matchable kinds.
#[test]
fn error_kinds_classify_truncation_and_headers() {
    let valid = binary().encode_readings(&[RawReading::new(Epoch(3), TagId::item(1), ReaderId(0))]);
    let err = binary().decode_readings(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
    let mut wrong_version = valid.clone();
    wrong_version[0] = WIRE_VERSION + 1;
    let err = binary().decode_readings(&wrong_version).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Valid header of the wrong payload kind.
    let err = binary().decode_collapsed(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Checkpoints classify the same way: a readings payload is the wrong
    // kind, a truncated checkpoint is Truncated, a corrupted version byte is
    // BadHeader.
    let err = binary().decode_checkpoint(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    let err = binary().decode_checkpoint(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
}
