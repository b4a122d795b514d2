//! Stand-in for `bytes`: a `BytesMut` that is a `Vec<u8>` plus a read
//! offset, so consuming from the front (`split_to`, `advance`) does not shift
//! the remaining bytes on every call, as in the published crate.

use std::ops::{Deref, DerefMut};

#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    head: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.buf.truncate(self.head + len);
        }
    }

    pub fn reserve(&mut self, additional: usize) {
        self.reclaim();
        self.buf.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.reclaim();
        self.buf.extend_from_slice(bytes);
    }

    /// Removes and returns the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} > {}",
            self.len()
        );
        let front = BytesMut {
            buf: self[..at].to_vec(),
            head: 0,
        };
        self.advance(at);
        front
    }

    pub fn advance(&mut self, count: usize) {
        assert!(
            count <= self.len(),
            "advance out of bounds: {count} > {}",
            self.len()
        );
        self.head += count;
        if self.head == self.buf.len() {
            self.clear();
        }
    }

    /// Drops the consumed prefix once it is at least half the buffer, which
    /// keeps appends amortised O(1) per byte.
    fn reclaim(&mut self) {
        if self.head > 0 && self.head >= self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for BytesMut {
    fn from(bytes: &[u8]) -> Self {
        BytesMut {
            buf: bytes.to_vec(),
            head: 0,
        }
    }
}

impl<const N: usize> From<&[u8; N]> for BytesMut {
    fn from(bytes: &[u8; N]) -> Self {
        BytesMut::from(&bytes[..])
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf, head: 0 }
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.reclaim();
        self.buf.extend(iter);
    }
}
