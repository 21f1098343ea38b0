//! Byte-level building blocks of the binary wire format — LEB128 varints,
//! zigzag signed deltas, IEEE-754 bit-exact floats, length-prefixed byte
//! strings, per-message tag tables — and the `Wire` trait that composes
//! them into payloads.
//!
//! Every payload type is declared once, as one `Wire` impl whose `put` and
//! `get` sit side by side; collections, options, maps, epoch-delta sequences
//! and counter blocks each follow one rule, written once here (the rules are
//! listed in [`crate::codec`]).

use crate::WireError;
use rfid_types::{Epoch, LocationId, ReaderId, TagId};
use std::collections::BTreeMap;

/// Append-only byte sink for encoding one message.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// The table tags are named against; `None` writes raw tag ids.
    table: Option<TagTable>,
    /// `Some` during a collecting pass (see [`Self::put_tabled`]): tags are
    /// gathered here and no byte is written.
    collected: Option<Vec<TagId>>,
}

impl Writer {
    /// A writer with an empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    #[inline]
    pub fn put_u8(&mut self, byte: u8) {
        if self.collected.is_none() {
            self.buf.push(byte);
        }
    }

    /// Append an unsigned LEB128 varint (1 byte for values < 128).
    #[inline]
    pub fn put_varint(&mut self, mut value: u64) {
        if self.collected.is_some() {
            return;
        }
        loop {
            let low = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(low);
                return;
            }
            self.buf.push(low | 0x80);
        }
    }

    /// Append a signed value as a zigzag-mapped varint (small magnitudes of
    /// either sign stay short — the workhorse of delta encoding).
    #[inline]
    pub fn put_zigzag(&mut self, value: i64) {
        self.put_varint(((value << 1) ^ (value >> 63)) as u64);
    }

    /// Append an `f64` as its 8 raw little-endian IEEE-754 bytes, so decoding
    /// reproduces the value bit for bit (including NaN payloads and -0.0).
    #[inline]
    pub fn put_f64(&mut self, value: f64) {
        if self.collected.is_none() {
            self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        if self.collected.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The number that names `tag` in this message: its index in the table,
    /// or its raw id when the message has no table. A collecting pass only
    /// records the tag.
    #[inline]
    fn tag_code(&mut self, tag: TagId) -> u64 {
        if let Some(tags) = &mut self.collected {
            // Mentions come in runs (a tag-grouped reading export, say):
            // dropping repeats here keeps the table's sort input short.
            if tags.last() != Some(&tag) {
                tags.push(tag);
            }
            return 0;
        }
        match &self.table {
            Some(table) => table.index_of(tag),
            None => tag.raw(),
        }
    }

    /// Write a section that names its tags through its own table.
    ///
    /// `body` runs twice: first as a collecting pass that gathers every tag
    /// it mentions, then for real after the sorted table is written — so the
    /// table always holds exactly the tags the section names. Inside a
    /// collecting pass the nested section is skipped: its tags belong to its
    /// own table.
    pub(crate) fn put_tabled(&mut self, body: impl Fn(&mut Writer)) {
        if self.collected.is_some() {
            return;
        }
        let mut pass = Writer {
            collected: Some(Vec::new()),
            ..Writer::default()
        };
        body(&mut pass);
        let table = TagTable::from_tags(pass.collected.unwrap_or_default());
        table.encode(self);
        let outer = self.table.replace(table);
        body(self);
        self.table = outer;
    }

    /// Write a map: the count `len`, then each key and its value, in the
    /// ascending key order `entries` yields. This is the one map rule on the
    /// encode side; the `BTreeMap` impl is its decode side.
    #[inline]
    pub(crate) fn put_map<K: Wire, V>(
        &mut self,
        len: usize,
        entries: impl IntoIterator<Item = (K, V)>,
        put_value: impl Fn(V, &mut Writer),
    ) {
        self.put_varint(len as u64);
        for (key, value) in entries {
            key.put(self);
            put_value(value, self);
        }
    }

    /// Write `items` as a delta sequence: the count, then each item with its
    /// key written as a zigzag delta against the previous item's key (the
    /// first against `base`). Sorted keys cost one byte each; unsorted ones
    /// still round-trip.
    pub(crate) fn put_deltas<'a, T: Keyed + 'a>(
        &mut self,
        base: u32,
        items: impl ExactSizeIterator<Item = &'a T>,
    ) {
        self.put_varint(items.len() as u64);
        let mut key = Delta(i64::from(base));
        for item in items {
            item.put_keyed(self, &mut key);
        }
    }
}

/// Cursor over the bytes of one message being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The table of the section being read; `None` reads raw tag ids.
    table: Option<TagTable>,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            table: None,
        }
    }

    /// Read one raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| WireError::truncated("byte"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Read an unsigned LEB128 varint.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::new("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-mapped signed varint.
    #[inline]
    pub fn get_zigzag(&mut self) -> Result<i64, WireError> {
        let raw = self.get_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Read an `f64` from its 8 raw little-endian bytes.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let end = self
            .pos
            .checked_add(8)
            .ok_or_else(|| WireError::length_overflow("f64"))?;
        let raw: [u8; 8] = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| WireError::truncated("f64"))?
            .try_into()
            .map_err(|_| WireError::truncated("f64"))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Read a length-prefixed byte string.
    ///
    /// The length prefix is validated before any allocation or slicing: a
    /// prefix that would wrap `usize` (possible on declared lengths near
    /// `u64::MAX`) is a [`LengthOverflow`](crate::WireErrorKind), not a
    /// wrapped-around bounds check.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_len()?;
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| WireError::length_overflow("byte string"))?;
        let out = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| WireError::truncated("byte string"))?
            .to_vec();
        self.pos = end;
        Ok(out)
    }

    /// Read a count or length prefix.
    pub(crate) fn get_len(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_varint()?).map_err(|_| WireError::length_overflow("count"))
    }

    /// An empty vector for `len` decoded elements. Every element takes at
    /// least one byte, so a hostile count cannot reserve more slots than the
    /// message has bytes left.
    fn vec_for<T>(&self, len: usize) -> Vec<T> {
        let left = self.bytes.len().saturating_sub(self.pos);
        Vec::with_capacity(len.min(left).min(1 << 16))
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fail unless the message was consumed exactly.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes after message"))
        }
    }

    /// The tag a decoded code names: an index into the section's table, or
    /// a raw id when the section has none.
    #[inline]
    fn tag_named(&self, code: u64) -> Result<TagId, WireError> {
        match &self.table {
            Some(table) => table.tag_at(code),
            None => Ok(TagId::from_raw(code)),
        }
    }

    /// Read a section written by [`Writer::put_tabled`]: its table, then
    /// `body` with tags resolved against that table.
    pub(crate) fn get_tabled<T>(
        &mut self,
        body: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let table = TagTable::decode(self)?;
        let outer = self.table.replace(table);
        let value = body(self);
        self.table = outer;
        value
    }

    /// Read a sequence written by [`Writer::put_deltas`] with the same `base`.
    pub(crate) fn get_deltas<T: Keyed>(&mut self, base: u32) -> Result<Vec<T>, WireError> {
        let len = self.get_len()?;
        let mut items = self.vec_for(len);
        let mut key = Delta(i64::from(base));
        for _ in 0..len {
            items.push(T::get_keyed(self, &mut key)?);
        }
        Ok(items)
    }
}

/// Per-message symbol table of distinct [`TagId`]s.
///
/// A migrating payload names the same handful of tags over and over (the
/// object, its candidate containers, the tags of a reading batch). Encoding
/// each mention as a raw 8-byte id wastes most of the message; instead every
/// message carries one sorted table of its distinct tags — itself
/// delta-encoded, since sorted ids are clustered by kind and serial — and
/// every mention is a short varint index into it.
#[derive(Debug, Default)]
pub struct TagTable {
    sorted: Vec<TagId>,
}

impl TagTable {
    /// Build the table from every tag the message will mention.
    pub fn from_tags<I: IntoIterator<Item = TagId>>(tags: I) -> TagTable {
        let mut sorted: Vec<TagId> = tags.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        TagTable { sorted }
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The index of a tag the table was built over.
    ///
    /// # Panics
    /// Panics if the tag was not part of the builder input — that is a codec
    /// bug, not a data error.
    pub fn index_of(&self, tag: TagId) -> u64 {
        self.sorted
            .binary_search(&tag)
            // LINT-ALLOW(panic-free-decode): encode-side lookup over the builder's own input; a miss is a codec bug, documented under # Panics above
            .expect("tag was interned when the table was built") as u64
    }

    /// The tag at a decoded index.
    pub fn tag_at(&self, index: u64) -> Result<TagId, WireError> {
        self.sorted
            .get(index as usize)
            .copied()
            .ok_or_else(|| WireError::new("tag index out of table bounds"))
    }

    /// Encode the table: count, then the sorted raw ids delta-encoded.
    pub fn encode(&self, w: &mut Writer) {
        w.put_varint(self.sorted.len() as u64);
        let mut prev = 0u64;
        for tag in &self.sorted {
            let raw = tag.raw();
            w.put_varint(raw - prev);
            prev = raw;
        }
    }

    /// Decode a table encoded by [`Self::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<TagTable, WireError> {
        let count = r.get_len()?;
        let mut sorted = r.vec_for(count);
        let mut prev = 0u64;
        for i in 0..count {
            let delta = r.get_varint()?;
            if i > 0 && delta == 0 {
                return Err(WireError::new("tag table is not strictly ascending"));
            }
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| WireError::new("tag table id overflows u64"))?;
            sorted.push(TagId::from_raw(prev));
        }
        Ok(TagTable { sorted })
    }
}

/// One value of the binary wire format, declared once for both directions:
/// `get` reads back exactly what `put` wrote.
///
/// Tags go through the writer's table, so the same `put` also serves as the
/// collecting pass that builds that table ([`Writer::put_tabled`]). The two
/// defaulted pairs let an element type choose how a `Vec` or an `Option` of
/// it is written; every other type keeps the common rule.
pub(crate) trait Wire: Sized {
    /// Append `self`.
    fn put(&self, w: &mut Writer);

    /// Read a value written by [`Self::put`].
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Write a `Vec<Self>`: the count, then each item.
    fn put_seq(items: &[Self], w: &mut Writer) {
        w.put_varint(items.len() as u64);
        for item in items {
            item.put(w);
        }
    }

    /// Read a sequence written by [`Self::put_seq`].
    fn get_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let len = r.get_len()?;
        let mut items = r.vec_for(len);
        for _ in 0..len {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }

    /// Write an `Option<Self>`: a flag byte `0`/`1`, then the value if any.
    fn put_opt(value: Option<&Self>, w: &mut Writer) {
        w.put_u8(u8::from(value.is_some()));
        if let Some(value) = value {
            value.put(w);
        }
    }

    /// Read an option written by [`Self::put_opt`].
    fn get_opt(r: &mut Reader<'_>) -> Result<Option<Self>, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Self::get(r).map(Some),
            _ => Err(WireError::new("invalid option flag")),
        }
    }
}

/// The running key of a delta sequence ([`Writer::put_deltas`]).
#[derive(Debug, Default)]
pub(crate) struct Delta(i64);

impl Delta {
    /// Write `key` as a zigzag delta against the previous key.
    #[inline]
    pub(crate) fn put(&mut self, w: &mut Writer, key: u32) {
        w.put_zigzag(i64::from(key) - self.0);
        self.0 = i64::from(key);
    }

    /// Read a key written by [`Self::put`]. The running sum is checked: each
    /// delta of a hostile message can be in range while their sum overflows.
    #[inline]
    pub(crate) fn get(&mut self, r: &mut Reader<'_>) -> Result<u32, WireError> {
        self.0 = self
            .0
            .checked_add(r.get_zigzag()?)
            .ok_or_else(|| WireError::length_overflow("delta-encoded key"))?;
        u32::try_from(self.0).map_err(|_| WireError::new("delta-encoded key out of u32 range"))
    }
}

/// An element of a delta sequence: its key (an epoch or a byte position)
/// goes through the sequence's running [`Delta`], its other fields are
/// written as usual.
pub(crate) trait Keyed: Sized {
    /// Append `self`, writing its key through `key`.
    fn put_keyed(&self, w: &mut Writer, key: &mut Delta);

    /// Read an element written by [`Self::put_keyed`].
    fn get_keyed(r: &mut Reader<'_>, key: &mut Delta) -> Result<Self, WireError>;
}

/// Implement [`Wire`] for [`Keyed`] types whose `Vec`s are delta sequences
/// from base 0. (A lone value is a one-element run without the count.)
macro_rules! delta_sequenced {
    ($($ty:ty),+ $(,)?) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                self.put_keyed(w, &mut Delta::default());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Self::get_keyed(r, &mut Delta::default())
            }
            fn put_seq(items: &[Self], w: &mut Writer) {
                w.put_deltas(0, items.iter());
            }
            fn get_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
                r.get_deltas(0)
            }
        }
    )+};
}
pub(crate) use delta_sequenced;

/// Implement [`Wire`] for a struct as its fields in the listed (wire)
/// order, optionally followed by `u64` fields as one counter block:
/// `wire_struct!(Type: a, b; counters: c, d)`.
macro_rules! wire_struct {
    ($ty:ty $(: $($field:ident),+)? $(; counters: $($counter:ident),+)?) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $($(self.$field.put(w);)+)?
                $([[$(self.$counter),+]].put(w);)?
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                $($(let $field = Wire::get(r)?;)+)?
                $(let [[$($counter),+]] = Wire::get(r)?;)?
                Ok(Self { $($($field,)+)? $($($counter,)+)? })
            }
        }
    };
}
pub(crate) use wire_struct;

/// A `[[u64; N]; M]` is an arity-prefixed counter block: `M` rows of `N`
/// counters behind one leading arity `N`. A reader accepts any arity up to
/// `N` and zero-fills the counters it does not find, so appending a counter
/// never invalidates stored checkpoints.
impl<const N: usize, const M: usize> Wire for [[u64; N]; M] {
    fn put(&self, w: &mut Writer) {
        w.put_varint(N as u64);
        for &counter in self.iter().flatten() {
            w.put_varint(counter);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let arity = r.get_len()?;
        if arity > N {
            return Err(WireError::new(format!(
                "counter block declares {arity} counters, this codec knows {N}"
            )));
        }
        let mut rows = [[0u64; N]; M];
        for row in &mut rows {
            for slot in row.iter_mut().take(arity) {
                *slot = r.get_varint()?;
            }
        }
        Ok(rows)
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }
    /// Byte vectors are length-prefixed byte strings.
    fn put_seq(items: &[u8], w: &mut Writer) {
        w.put_bytes(items);
    }
    fn get_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        r.get_bytes()
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::new("invalid boolean byte")),
        }
    }
}

/// Unsigned integers are varints; decoding range-checks the target type.
macro_rules! varint_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.put_varint(*self as u64);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                <$ty>::try_from(r.get_varint()?).map_err(|_| {
                    WireError::new(concat!("varint out of ", stringify!($ty), " range"))
                })
            }
        }
    )+};
}
varint_int!(u16, u32, u64, usize);

impl Wire for f64 {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_f64()
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.get_bytes()?).map_err(|_| WireError::new("string is not valid UTF-8"))
    }
}

/// A lone epoch is a plain varint; a `Vec` of epochs is a delta sequence.
impl Wire for Epoch {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::get(r).map(Epoch)
    }
    fn put_seq(items: &[Epoch], w: &mut Writer) {
        w.put_deltas(0, items.iter());
    }
    fn get_seq(r: &mut Reader<'_>) -> Result<Vec<Epoch>, WireError> {
        r.get_deltas(0)
    }
}

impl Keyed for Epoch {
    fn put_keyed(&self, w: &mut Writer, key: &mut Delta) {
        key.put(w, self.0);
    }
    fn get_keyed(r: &mut Reader<'_>, key: &mut Delta) -> Result<Self, WireError> {
        key.get(r).map(Epoch)
    }
}

/// `(key, value)` pairs are keyed by their first field.
impl<V: Wire> Keyed for (Epoch, V) {
    #[inline]
    fn put_keyed(&self, w: &mut Writer, key: &mut Delta) {
        key.put(w, self.0 .0);
        self.1.put(w);
    }
    #[inline]
    fn get_keyed(r: &mut Reader<'_>, key: &mut Delta) -> Result<Self, WireError> {
        Ok((Epoch(key.get(r)?), V::get(r)?))
    }
}

impl<V: Wire> Keyed for (u32, V) {
    fn put_keyed(&self, w: &mut Writer, key: &mut Delta) {
        key.put(w, self.0);
        self.1.put(w);
    }
    fn get_keyed(r: &mut Reader<'_>, key: &mut Delta) -> Result<Self, WireError> {
        Ok((key.get(r)?, V::get(r)?))
    }
}

delta_sequenced!((Epoch, f64), (Epoch, LocationId), (u32, u8));

impl Wire for LocationId {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u16::get(r).map(LocationId)
    }
}

impl Wire for ReaderId {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u16::get(r).map(ReaderId)
    }
}

/// A tag is its table index (its raw id in a message without a table); an
/// optional tag is `0` for `None` and `1 + index` otherwise.
impl Wire for TagId {
    #[inline]
    fn put(&self, w: &mut Writer) {
        let code = w.tag_code(*self);
        w.put_varint(code);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let code = r.get_varint()?;
        r.tag_named(code)
    }
    fn put_opt(value: Option<&TagId>, w: &mut Writer) {
        match value {
            None => w.put_varint(0),
            Some(&tag) => {
                let code = w.tag_code(tag);
                w.put_varint(1 + code);
            }
        }
    }
    fn get_opt(r: &mut Reader<'_>) -> Result<Option<Self>, WireError> {
        match r.get_varint()? {
            0 => Ok(None),
            code => r.tag_named(code - 1).map(Some),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        T::put_opt(self.as_ref(), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get_opt(r)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        T::put_seq(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get_seq(r)
    }
}

/// A map is written by [`Writer::put_map`]. Decoding rejects a repeated
/// key, so one map has one encoding.
impl<K: Wire + Ord + Copy, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        w.put_map(
            self.len(),
            self.iter().map(|(&key, value)| (key, value)),
            V::put,
        );
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            if map.insert(K::get(r)?, V::get(r)?).is_some() {
                return Err(WireError::new("repeated map key"));
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_and_zigzag_round_trip_boundaries() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.put_varint(v);
        }
        let signed = [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX];
        for &v in &signed {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn small_values_stay_single_byte() {
        let mut w = Writer::new();
        w.put_varint(127);
        w.put_zigzag(-1);
        w.put_zigzag(2);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut w = Writer::new();
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-300] {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-300] {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut r = Reader::new(&[0x80]);
        assert!(r.get_varint().is_err(), "unterminated varint");
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.get_f64().is_err());
        let mut r = Reader::new(&[5, b'a']);
        assert!(r.get_bytes().is_err(), "length prefix exceeds payload");
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can encode more than 64 bits.
        let bytes = [0xffu8; 10];
        let mut r = Reader::new(&bytes);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn tag_table_round_trips_and_indexes() {
        let tags = [
            TagId::item(7),
            TagId::case(1),
            TagId::item(7), // duplicate collapses
            TagId::pallet(3),
            TagId::item(8),
        ];
        let table = TagTable::from_tags(tags);
        assert_eq!(table.len(), 4);
        let mut w = Writer::new();
        table.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TagTable::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), table.len());
        for tag in tags {
            assert_eq!(back.tag_at(table.index_of(tag)).unwrap(), tag);
        }
        assert!(back.tag_at(99).is_err());
    }

    #[test]
    fn clustered_tag_table_is_compact() {
        // 50 items with adjacent serials: ~2 bytes each after the first
        // (the kind bits live in the high bits, so deltas are 1).
        let table = TagTable::from_tags((0..50).map(TagId::item));
        let mut w = Writer::new();
        table.encode(&mut w);
        assert!(w.len() < 60, "50 clustered tags took {} bytes", w.len());
    }
    fn encode(value: &impl Wire) -> Vec<u8> {
        let mut w = Writer::new();
        value.put(&mut w);
        w.into_bytes()
    }

    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
        let mut r = Reader::new(bytes);
        let value = T::get(&mut r)?;
        r.expect_exhausted()?;
        Ok(value)
    }

    #[test]
    fn maps_reject_a_repeated_key() {
        let map: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into_iter().collect();
        assert_eq!(encode(&map), [2, 1, 10, 2, 20]);
        assert_eq!(
            decode::<BTreeMap<u64, u64>>(&[2, 1, 10, 2, 20]).unwrap(),
            map
        );
        let err = decode::<BTreeMap<u64, u64>>(&[2, 1, 10, 1, 20]).unwrap_err();
        assert_eq!(err.kind(), crate::WireErrorKind::Malformed);
    }

    #[test]
    fn counter_blocks_zero_fill_and_reject_unknown_counters() {
        let block = [[1u64, 2, 3], [4, 5, 6]];
        assert_eq!(encode(&block), [3, 1, 2, 3, 4, 5, 6]);
        assert_eq!(
            decode::<[[u64; 3]; 2]>(&[3, 1, 2, 3, 4, 5, 6]).unwrap(),
            block
        );
        // An older writer with two counters per row: the third reads as zero.
        assert_eq!(
            decode::<[[u64; 3]; 2]>(&[2, 1, 2, 4, 5]).unwrap(),
            [[1, 2, 0], [4, 5, 0]]
        );
        assert!(decode::<[[u64; 3]; 2]>(&[4, 1, 2, 3, 9, 4, 5, 6, 9]).is_err());
    }

    #[test]
    fn delta_sequences_start_from_their_base() {
        let series = vec![
            (Epoch(500), LocationId(1)),
            (Epoch(510), LocationId(2)),
            (Epoch(505), LocationId(3)),
        ];
        let mut w = Writer::new();
        w.put_deltas(500, series.iter());
        let bytes = w.into_bytes();
        // +0, +10, -5 as zigzag varints.
        assert_eq!(bytes, [3, 0, 1, 20, 2, 9, 3]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_deltas::<(Epoch, LocationId)>(500).unwrap(), series);
        // A `Vec` of epoch-keyed pairs is the same rule from base 0.
        assert_eq!(encode(&vec![(Epoch(2), LocationId(7))]), [1, 4, 7]);
        // A lone epoch is a plain varint.
        assert_eq!(encode(&Epoch(2)), [2]);
    }

    #[test]
    fn options_are_flagged_but_tags_are_index_plus_one() {
        assert_eq!(encode(&Some(5u64)), [1, 5]);
        assert_eq!(encode(&None::<u64>), [0]);
        assert!(decode::<Option<u64>>(&[2, 5]).is_err());
        assert_eq!(encode(&Some(TagId::item(9))), [10]);
        assert_eq!(encode(&None::<TagId>), [0]);
        assert_eq!(
            decode::<Option<TagId>>(&[10]).unwrap(),
            Some(TagId::item(9))
        );
    }

    #[test]
    fn tabled_sections_index_exactly_the_tags_they_mention() {
        let tags = vec![TagId::case(2), TagId::item(7), TagId::case(2)];
        let mut w = Writer::new();
        w.put_tabled(|w| tags.put(w));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let table = TagTable::decode(&mut r).unwrap();
        assert_eq!(table.len(), 2);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_tabled(Vec::<TagId>::get).unwrap(), tags);
        assert!(r.is_exhausted());
        // Outside the section tags are raw ids again.
        assert_eq!(encode(&TagId::item(7)), [7]);
    }
}
