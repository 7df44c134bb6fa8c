//! Offline stand-in for `bytes` 1.x: `Bytes`, `BytesMut`, `Buf`, `BufMut`.
//!
//! What the poseidon crates rely on, and this keeps: `Bytes` clones, slices
//! and splits in O(1) by sharing one reference-counted backing store, and
//! `Bytes::from_owner` keeps its owner alive until the last view drops and
//! then drops it exactly once (`poseidon::pool::BufPool` recycles leases on
//! that drop). No `unsafe`: a view is `Arc<dyn Owner>` plus an offset and a
//! length, so a deref costs one virtual call and one bounds check per frame.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

trait Owner: Send + Sync {
    fn bytes(&self) -> &[u8];
}

impl<T: AsRef<[u8]> + Send + Sync> Owner for T {
    fn bytes(&self) -> &[u8] {
        self.as_ref()
    }
}

/// A cheaply cloneable, sliceable view of immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    // `None` is the empty view; it owns nothing.
    owner: Option<Arc<dyn Owner>>,
    off: usize,
    len: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes {
            owner: None,
            off: 0,
            len: 0,
        }
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from_owner(bytes)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Wraps `owner` without copying; `owner` is dropped when the last view
    /// of it is.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let len = owner.as_ref().len();
        Bytes {
            owner: Some(Arc::new(owner)),
            off: 0,
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` within this one, sharing the backing store.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end && end <= self.len,
            "range {begin}..{end} out of bounds of {}",
            self.len
        );
        if begin == end {
            return Bytes::new();
        }
        Bytes {
            owner: self.owner.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// Splits into `[0, at)` (kept in `self`) and `[at, len)` (returned).
    pub fn split_off(&mut self, at: usize) -> Self {
        let tail = self.slice(at..);
        self.len = at;
        tail
    }

    /// Splits into `[0, at)` (returned) and `[at, len)` (kept in `self`).
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.off += at;
        self.len -= at;
        head
    }

    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.owner {
            Some(owner) => &owner.bytes()[self.off..self.off + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            Bytes::new()
        } else {
            Bytes::from_owner(v)
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn zeroed(len: usize) -> Self {
        BytesMut { data: vec![0; len] }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into an immutable view; the allocation moves, no bytes copy.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", &self.data)
    }
}

macro_rules! buf_get_le {
    ($($name:ident -> $t:ty),*) => {$(
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Sequential reads from a byte cursor. Reads past the end panic.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: need {} bytes, have {}",
            dst.len(),
            self.remaining()
        );
        // Every implementor here is contiguous, so one chunk covers `dst`.
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get_le!(
        get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64,
        get_i16_le -> i16, get_i32_le -> i32, get_i64_le -> i64,
        get_f32_le -> f32, get_f64_le -> f64
    );

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut out = vec![0u8; len];
        self.copy_to_slice(&mut out);
        Bytes::from(out)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len,
            "cannot advance past the end: {cnt} > {}",
            self.len
        );
        self.off += cnt;
        self.len -= cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

macro_rules! buf_put_le {
    ($($name:ident <- $t:ty),*) => {$(
        fn $name(&mut self, n: $t) {
            self.put_slice(&n.to_le_bytes());
        }
    )*};
}

/// Sequential appends to a growable byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_i8(&mut self, n: i8) {
        self.put_slice(&[n as u8]);
    }

    buf_put_le!(
        put_u16_le <- u16, put_u32_le <- u32, put_u64_le <- u64,
        put_i16_le <- i16, put_i32_le <- i32, put_i64_le <- i64,
        put_f32_le <- f32, put_f64_le <- f64
    );

    fn put_bytes(&mut self, val: u8, cnt: usize);

    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.data.resize(self.data.len() + cnt, val);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        (**self).put_bytes(val, cnt)
    }
}
