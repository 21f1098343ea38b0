//! The payload declarations of the binary wire format, plus the
//! format-selecting [`WireCodec`] front end.
//!
//! ## Message layout (binary format)
//!
//! Every binary message starts with a two-byte header — the format version
//! ([`WIRE_VERSION`]) and a payload-kind byte — followed by the body:
//!
//! | kind | payload | body |
//! |---|---|---|
//! | `0x01` | [`MigrationState`] | variant byte, then a tabled collapsed or readings body |
//! | `0x02` | reading batch | tag table + order-preserving reading sequence |
//! | `0x03` | [`ObjectQueryState`] | query name, raw tag, automaton |
//! | `0x04` | [`SharedStateBundle`] | raw centroid tag + centroid payload + per-object deltas |
//! | `0x05` | [`CollapsedState`] | tag table + object, container, per-candidate weight bits |
//! | `0x06` | query-state payload | tag-less `(query, automaton)` for sharing |
//! | `0x07` | [`crate::checkpoint::SiteCheckpoint`] | site, epoch, then one site-wide tag table + engine/processor snapshots + durability bookkeeping |
//! | `0x08` | [`crate::ControlMsg`] | transport control: ack / anti-entropy resync |
//!
//! ## Composition rules
//!
//! Each payload type is one `Wire` impl listing its fields in wire order;
//! the bodies above are those fields composed by these rules, each written
//! once in [`crate::primitives`]:
//!
//! * **Scalars.** Unsigned integers and standalone epochs are LEB128
//!   varints; `f64`s are their 8 raw IEEE-754 bytes; strings and byte
//!   vectors are length-prefixed.
//! * **One tag table per message.** A tabled section opens with the sorted,
//!   delta-encoded table of exactly the tags it mentions, collected by a
//!   pass over the same impls that then write it; every tag inside is a
//!   varint index. Messages without a table (`0x03`, `0x04`) write raw ids.
//! * **Sequences** are count-prefixed.
//! * **Options** are a flag byte `0`/`1` then the value — except optional
//!   tags, which are `0` for `None` and `1 + index` otherwise.
//! * **Maps** are count-prefixed `(key, value)` runs in ascending key order;
//!   a repeated key is a decode error, so each map has one encoding.
//! * **Epoch sequences** are zigzag deltas against the previous element's
//!   key, starting from a stated base: `since` for an automaton's readings,
//!   0 everywhere else (sorted runs cost one byte per key; unsorted ones still
//!   round-trip). Byte-position edits of a state delta follow the same rule.
//! * **Counter blocks** are one arity prefix, then the counters; readers
//!   zero-fill counters they do not find, so counters can be appended. The
//!   two comm arrays of a checkpoint share one prefix;
//!   [`rfid_core::InferenceStats`] has none.
//!
//! In the JSON format every message is exactly the `serde_json` serialization
//! of the payload, with no header: the debugging representation is plain,
//! inspectable JSON.
//!
//! All encodings are *bit-exact*: `decode(encode(x))` reproduces `x`
//! including `f64` bit patterns, so routing live state through the codec can
//! never change an inference or query outcome.

use crate::primitives::{delta_sequenced, wire_struct, Delta, Keyed, Reader, Wire, Writer};
use crate::{WireError, WireFormat};
use rfid_core::{CollapsedState, MigrationState, ReadingsState};
use rfid_query::sharing::{json_payload, state_from_json_payload};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle, StateDelta};
use rfid_types::{Epoch, RawReading, TagId};
use serde::{Deserialize, Serialize};

/// Version byte every binary message starts with.
pub const WIRE_VERSION: u8 = 1;

// Every payload kind carries a corrupted-bytes fuzz case in
// `tests/fuzz.rs::corrupted_byte_zero_is_a_typed_error_for_every_kind`
// (enforced by the `wire-fuzz-coverage` lint rule).
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_MIGRATION: u8 = 0x01;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_READINGS: u8 = 0x02;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_QUERY_STATE: u8 = 0x03;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_BUNDLE: u8 = 0x04;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_COLLAPSED: u8 = 0x05;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_STATE_PAYLOAD: u8 = 0x06;

const MIGRATION_NONE: u8 = 0;
const MIGRATION_COLLAPSED: u8 = 1;
const MIGRATION_READINGS: u8 = 2;

const AUTOMATON_IDLE: u8 = 0;
const AUTOMATON_ACCUMULATING: u8 = 1;

/// Encoder/decoder for one wire format.
///
/// The codec is a tiny `Copy` value (just the selected [`WireFormat`]), so
/// every site worker carries its own.
///
/// # Example
///
/// ```
/// use rfid_core::{CollapsedState, MigrationState};
/// use rfid_types::TagId;
/// use rfid_wire::{WireCodec, WireFormat};
///
/// let state = MigrationState::Collapsed(CollapsedState {
///     object: TagId::item(3),
///     weights: [(TagId::case(1), -12.5)].into_iter().collect(),
///     container: Some(TagId::case(1)),
/// });
/// let binary = WireCodec::new(WireFormat::Binary);
/// let json = WireCodec::new(WireFormat::Json);
/// let compact = binary.encode_migration(&state);
/// assert_eq!(binary.decode_migration(&compact).unwrap(), state);
/// assert!(compact.len() * 2 < json.encode_migration(&state).len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCodec {
    format: WireFormat,
}

impl WireCodec {
    /// A codec for the given format.
    pub fn new(format: WireFormat) -> WireCodec {
        WireCodec { format }
    }

    /// The selected format.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Encode the inference state migrating with one object.
    pub fn encode_migration(&self, state: &MigrationState) -> Vec<u8> {
        self.encode(KIND_MIGRATION, state, |w| state.put(w))
    }

    /// Decode a [`Self::encode_migration`] message.
    pub fn decode_migration(&self, bytes: &[u8]) -> Result<MigrationState, WireError> {
        self.decode(KIND_MIGRATION, bytes, Wire::get)
    }

    /// Encode one object's collapsed inference state.
    pub fn encode_collapsed(&self, state: &CollapsedState) -> Vec<u8> {
        self.encode(KIND_COLLAPSED, state, |w| w.put_tabled(|w| state.put(w)))
    }

    /// Decode a [`Self::encode_collapsed`] message.
    pub fn decode_collapsed(&self, bytes: &[u8]) -> Result<CollapsedState, WireError> {
        self.decode(KIND_COLLAPSED, bytes, |r| r.get_tabled(Wire::get))
    }

    /// Encode a batch of raw readings (the centralized forwarding payload),
    /// preserving their order.
    pub fn encode_readings(&self, readings: &[RawReading]) -> Vec<u8> {
        self.encode(KIND_READINGS, readings, |w| {
            w.put_tabled(|w| RawReading::put_seq(readings, w))
        })
    }

    /// Decode a [`Self::encode_readings`] message.
    pub fn decode_readings(&self, bytes: &[u8]) -> Result<Vec<RawReading>, WireError> {
        self.decode(KIND_READINGS, bytes, |r| r.get_tabled(Wire::get))
    }

    /// Encode one object's query state for one query.
    pub fn encode_query_state(&self, state: &ObjectQueryState) -> Vec<u8> {
        self.encode(KIND_QUERY_STATE, state, |w| state.put(w))
    }

    /// Decode a [`Self::encode_query_state`] message.
    pub fn decode_query_state(&self, bytes: &[u8]) -> Result<ObjectQueryState, WireError> {
        self.decode(KIND_QUERY_STATE, bytes, Wire::get)
    }

    /// Encode a centroid-compressed query-state bundle.
    pub fn encode_bundle(&self, bundle: &SharedStateBundle) -> Vec<u8> {
        self.encode(KIND_BUNDLE, bundle, |w| bundle.put(w))
    }

    /// Decode a [`Self::encode_bundle`] message.
    pub fn decode_bundle(&self, bytes: &[u8]) -> Result<SharedStateBundle, WireError> {
        self.decode(KIND_BUNDLE, bytes, Wire::get)
    }

    /// The diffable (tag-less) payload of one query state, in this codec's
    /// format — what centroid-based sharing diffs against the centroid
    /// (plug into [`rfid_query::sharing::share_states_with`]).
    pub fn state_payload(&self, state: &ObjectQueryState) -> Vec<u8> {
        match self.format {
            WireFormat::Json => json_payload(state),
            WireFormat::Binary => encode_binary(KIND_STATE_PAYLOAD, |w| {
                state.query.put(w);
                state.automaton.put(w);
            }),
        }
    }

    /// Rebuild an [`ObjectQueryState`] from its tag and a
    /// [`Self::state_payload`] (plug into
    /// [`rfid_query::SharedStateBundle::expand_states_with`]).
    pub fn state_from_payload(
        &self,
        tag: TagId,
        payload: &[u8],
    ) -> Result<ObjectQueryState, WireError> {
        match self.format {
            WireFormat::Json => Ok(state_from_json_payload(tag, payload)?),
            WireFormat::Binary => decode_binary(payload, KIND_STATE_PAYLOAD, |r| {
                Ok(ObjectQueryState {
                    query: Wire::get(r)?,
                    tag,
                    automaton: Wire::get(r)?,
                })
            }),
        }
    }

    /// Encode `value` in this codec's format: its `serde_json` serialization,
    /// or a binary header for `kind` followed by `body`.
    pub(crate) fn encode<T: Serialize + ?Sized>(
        &self,
        kind: u8,
        value: &T,
        body: impl FnOnce(&mut Writer),
    ) -> Vec<u8> {
        match self.format {
            WireFormat::Json => serde_json::to_vec(value).expect("wire payloads serialize"),
            WireFormat::Binary => encode_binary(kind, body),
        }
    }

    /// Decode a message written by [`Self::encode`] with the same `kind`.
    pub(crate) fn decode<T: Deserialize>(
        &self,
        kind: u8,
        bytes: &[u8],
        body: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        match self.format {
            WireFormat::Json => Ok(serde_json::from_slice(bytes)?),
            WireFormat::Binary => decode_binary(bytes, kind, body),
        }
    }
}

/// A binary message: the version byte, the `kind` byte, then `body`.
fn encode_binary(kind: u8, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    body(&mut w);
    w.into_bytes()
}

/// Read a binary message of `kind` whose body `body` must consume exactly.
fn decode_binary<T>(
    bytes: &[u8],
    kind: u8,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::bad_header(format!(
            "unsupported wire version {version} (this codec speaks {WIRE_VERSION})"
        )));
    }
    let got = r.get_u8()?;
    if got != kind {
        return Err(WireError::bad_header(format!(
            "payload kind mismatch: expected {kind:#04x}, got {got:#04x}"
        )));
    }
    let value = body(&mut r)?;
    r.expect_exhausted()?;
    Ok(value)
}

impl Wire for MigrationState {
    fn put(&self, w: &mut Writer) {
        match self {
            MigrationState::None => w.put_u8(MIGRATION_NONE),
            MigrationState::Collapsed(state) => {
                w.put_u8(MIGRATION_COLLAPSED);
                w.put_tabled(|w| state.put(w));
            }
            MigrationState::Readings(state) => {
                w.put_u8(MIGRATION_READINGS);
                w.put_tabled(|w| state.put(w));
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            MIGRATION_NONE => Ok(MigrationState::None),
            MIGRATION_COLLAPSED => r.get_tabled(Wire::get).map(MigrationState::Collapsed),
            MIGRATION_READINGS => r.get_tabled(Wire::get).map(MigrationState::Readings),
            _ => Err(WireError::new("unknown migration-state variant")),
        }
    }
}

wire_struct!(CollapsedState: object, container, weights);
wire_struct!(ReadingsState: object, container, readings);
wire_struct!(ObjectQueryState: query, tag, automaton);
wire_struct!(SharedStateBundle: centroid_tag, centroid_bytes, deltas);

/// Reading sequences are delta sequences keyed by epoch: per reading its
/// tag, the epoch delta, then the reader. Time-sorted runs — the common
/// layout — cost one byte of delta per reading; tag-grouped exports pay one
/// longer (negative) delta per group boundary.
impl Keyed for RawReading {
    #[inline]
    fn put_keyed(&self, w: &mut Writer, key: &mut Delta) {
        self.tag.put(w);
        key.put(w, self.time.0);
        self.reader.put(w);
    }

    #[inline]
    fn get_keyed(r: &mut Reader<'_>, key: &mut Delta) -> Result<Self, WireError> {
        Ok(RawReading {
            tag: Wire::get(r)?,
            time: Epoch(key.get(r)?),
            reader: Wire::get(r)?,
        })
    }
}

delta_sequenced!(RawReading);

impl Wire for AutomatonState {
    fn put(&self, w: &mut Writer) {
        match self {
            AutomatonState::Idle => w.put_u8(AUTOMATON_IDLE),
            AutomatonState::Accumulating {
                since,
                readings,
                fired,
            } => {
                w.put_u8(AUTOMATON_ACCUMULATING);
                since.put(w);
                fired.put(w);
                // Collected readings ascend from `since`: delta against it.
                w.put_deltas(since.0, readings.iter());
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            AUTOMATON_IDLE => Ok(AutomatonState::Idle),
            AUTOMATON_ACCUMULATING => {
                let since = Epoch::get(r)?;
                Ok(AutomatonState::Accumulating {
                    since,
                    fired: Wire::get(r)?,
                    readings: r.get_deltas(since.0)?,
                })
            }
            _ => Err(WireError::new("unknown automaton variant")),
        }
    }
}

/// A delta is its tag, length and optional full payload; only without the
/// full payload do the edits (positions delta-encoded) and suffix follow.
impl Wire for StateDelta {
    fn put(&self, w: &mut Writer) {
        self.tag.put(w);
        self.len.put(w);
        self.full.put(w);
        if self.full.is_none() {
            self.edits.put(w);
            self.suffix.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = Wire::get(r)?;
        let len = Wire::get(r)?;
        let full: Option<Vec<u8>> = Wire::get(r)?;
        let (edits, suffix) = match full {
            Some(_) => (Vec::new(), Vec::new()),
            None => (Wire::get(r)?, Wire::get(r)?),
        };
        Ok(StateDelta {
            tag,
            edits,
            suffix,
            len,
            full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::ReaderId;
    use std::collections::BTreeMap;

    fn codecs() -> [WireCodec; 2] {
        [
            WireCodec::new(WireFormat::Binary),
            WireCodec::new(WireFormat::Json),
        ]
    }

    fn collapsed() -> CollapsedState {
        CollapsedState {
            object: TagId::item(3),
            weights: [(TagId::case(1), 0.0), (TagId::case(2), -40.25)]
                .into_iter()
                .collect(),
            container: Some(TagId::case(1)),
        }
    }

    fn readings_state() -> ReadingsState {
        // Tag-grouped export order (object first, then each candidate),
        // exactly as `InferenceEngine::export_readings` produces it.
        let mut readings = Vec::new();
        for tag in [TagId::item(3), TagId::case(1), TagId::case(2)] {
            for t in 100..140u32 {
                readings.push(RawReading::new(Epoch(t), tag, ReaderId(2)));
            }
        }
        ReadingsState {
            object: TagId::item(3),
            readings,
            container: Some(TagId::case(1)),
        }
    }

    #[test]
    fn migration_states_round_trip_in_both_formats() {
        let states = [
            MigrationState::None,
            MigrationState::Collapsed(collapsed()),
            MigrationState::Readings(readings_state()),
        ];
        for codec in codecs() {
            for state in &states {
                let bytes = codec.encode_migration(state);
                assert_eq!(&codec.decode_migration(&bytes).unwrap(), state);
            }
        }
    }

    #[test]
    fn binary_collapsed_state_beats_json_and_the_old_estimate() {
        let state = collapsed();
        let binary = WireCodec::new(WireFormat::Binary);
        let json = WireCodec::new(WireFormat::Json);
        let compact = binary.encode_collapsed(&state).len();
        let verbose = json.encode_collapsed(&state).len();
        assert_eq!(
            binary
                .decode_collapsed(&binary.encode_collapsed(&state))
                .unwrap(),
            state
        );
        assert!(
            compact * 2 < verbose,
            "binary ({compact} B) should halve JSON ({verbose} B)"
        );
        // the seed's hand-estimated accounting charged 8 + 9 + 16/candidate
        assert!(compact < 8 + 9 + 16 * state.weights.len());
    }

    #[test]
    fn binary_reading_batches_cost_a_few_bytes_per_reading() {
        let state = readings_state();
        let binary = WireCodec::new(WireFormat::Binary);
        let bytes = binary.encode_readings(&state.readings);
        assert_eq!(binary.decode_readings(&bytes).unwrap(), state.readings);
        let per_reading = bytes.len() as f64 / state.readings.len() as f64;
        assert!(
            per_reading < 4.0,
            "sorted runs should cost ~3 B/reading, got {per_reading:.1}"
        );
        // the seed charged a flat 14 B/reading; binary must at least halve it
        assert!(bytes.len() * 2 < state.readings.len() * RawReading::WIRE_BYTES);
    }

    #[test]
    fn empty_payloads_round_trip() {
        for codec in codecs() {
            assert_eq!(
                codec.decode_readings(&codec.encode_readings(&[])).unwrap(),
                []
            );
            let empty = CollapsedState {
                object: TagId::item(1),
                weights: BTreeMap::new(),
                container: None,
            };
            assert_eq!(
                codec
                    .decode_collapsed(&codec.encode_collapsed(&empty))
                    .unwrap(),
                empty
            );
        }
    }

    #[test]
    fn query_state_and_payload_round_trip() {
        let state = ObjectQueryState {
            query: "Q1".to_string(),
            tag: TagId::item(9),
            automaton: AutomatonState::Accumulating {
                since: Epoch(500),
                readings: (0..20)
                    .map(|i| (Epoch(500 + i * 10), 21.0 + i as f64))
                    .collect(),
                fired: true,
            },
        };
        for codec in codecs() {
            let bytes = codec.encode_query_state(&state);
            assert_eq!(codec.decode_query_state(&bytes).unwrap(), state);
            let payload = codec.state_payload(&state);
            assert_eq!(
                codec.state_from_payload(state.tag, &payload).unwrap(),
                state
            );
        }
        // Raw f64 bits (8 B) can exceed short JSON float literals ("21.0"),
        // so the win on float-heavy query state is smaller than on
        // tag/epoch-heavy payloads — but binary must still come out ahead.
        let binary = WireCodec::new(WireFormat::Binary).encode_query_state(&state);
        let json = WireCodec::new(WireFormat::Json).encode_query_state(&state);
        assert!(binary.len() < json.len());
    }

    #[test]
    fn bundles_round_trip_including_full_fallbacks() {
        let bundle = SharedStateBundle {
            centroid_tag: TagId::item(1),
            centroid_bytes: vec![1, 2, 3, 4, 5],
            deltas: vec![
                StateDelta {
                    tag: TagId::item(2),
                    edits: vec![(0, 9), (3, 7)],
                    suffix: vec![8, 8],
                    len: 7,
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
        };
        for codec in codecs() {
            let bytes = codec.encode_bundle(&bundle);
            assert_eq!(codec.decode_bundle(&bytes).unwrap(), bundle);
        }
    }

    #[test]
    fn corrupted_and_mismatched_headers_are_rejected() {
        let binary = WireCodec::new(WireFormat::Binary);
        let bytes = binary.encode_collapsed(&collapsed());
        assert!(binary.decode_readings(&bytes).is_err(), "kind mismatch");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(binary.decode_collapsed(&wrong_version).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(binary.decode_collapsed(&truncated).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(binary.decode_collapsed(&trailing).is_err());
        assert!(binary.decode_migration(&[]).is_err());
    }
}
