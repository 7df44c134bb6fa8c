//! Pooled buffer plane: reusable, size-classed byte buffers for the comm
//! hot path.
//!
//! Every gradient/parameter payload used to be built in a fresh allocation,
//! copied into a frame, copied again into the reader's reassembly buffer,
//! and finally handed to the runtime as yet another `Vec`. The pool collapses
//! that churn: serialisation writes into a [`PooledBuf`] lease, the lease is
//! frozen into [`Bytes`] (zero-copy — `Bytes::from_owner` keeps the lease
//! alive as the backing store), and when the last reference drops the buffer
//! returns to its size class for the next frame.
//!
//! Design constraints (DESIGN.md §2.4):
//!
//! * **Never blocks, never fails.** A `get` on an empty class falls back to a
//!   fresh allocation; a `put` on a full class drops the buffer. Exhaustion
//!   degrades to the old allocation behaviour, byte-for-byte.
//! * **Size classes are powers of two** from [`MIN_CLASS_BYTES`] to
//!   [`MAX_CLASS_BYTES`]; larger requests are plain allocations that never
//!   return to the pool (they would pin too much memory).
//! * **Leases are exact-length.** `get(len)` hands out a buffer whose visible
//!   length is exactly `len` (zero-filled), backed by a class-sized
//!   capacity, so codecs can index it like a fresh `vec![0; len]`. Hot paths
//!   that provably overwrite every byte use [`BufPool::get_dirty`], which
//!   skips the zeroing `memset` entirely — a recycled lease costs no writes.
//!
//! The pool is process-global ([`BufPool::global`]) so the transport's read
//! path, the wire codecs, and the runtime all recycle through one set of
//! classes. Occupancy is observable via [`BufPool::stats`] and surfaces in
//! telemetry as the `pool.occupancy` counter (emitted by the transport when
//! tracing is enabled).

use crate::metrics::{self, Counter};
use bytes::Bytes;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Smallest pooled size class.
pub const MIN_CLASS_BYTES: usize = 1 << 10; // 1 KiB
/// Largest pooled size class; bigger buffers bypass the pool.
pub const MAX_CLASS_BYTES: usize = 1 << 22; // 4 MiB
/// Buffers retained per class before `put` starts dropping.
const CLASS_CAP: usize = 32;

const NUM_CLASSES: usize = (MAX_CLASS_BYTES.ilog2() - MIN_CLASS_BYTES.ilog2() + 1) as usize;

struct PoolClass {
    size: usize,
    bufs: Mutex<Vec<Vec<u8>>>,
}

/// Counters describing pool behaviour since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from a pooled buffer.
    pub hits: u64,
    /// `get` calls that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers currently resident (idle) across all classes.
    pub resident: u64,
    /// Idle bytes currently held across all classes.
    pub resident_bytes: u64,
}

/// A size-classed pool of reusable byte buffers. See the module docs.
pub struct BufPool {
    classes: Vec<PoolClass>,
    /// This pool's owned cells of `poseidon_pool_{hits,misses}_total`.
    hits: Counter,
    misses: Counter,
}

impl BufPool {
    /// A fresh, empty pool. Most callers want [`BufPool::global`].
    pub fn new() -> Arc<BufPool> {
        let classes = (0..NUM_CLASSES)
            .map(|i| PoolClass {
                size: MIN_CLASS_BYTES << i,
                bufs: Mutex::new(Vec::new()),
            })
            .collect();
        let cell = |name| metrics::global().owned_counter(name, &[]);
        Arc::new(BufPool {
            classes,
            hits: cell("poseidon_pool_hits_total"),
            misses: cell("poseidon_pool_misses_total"),
        })
    }

    /// The process-wide pool shared by the wire codecs and every transport.
    pub fn global() -> &'static Arc<BufPool> {
        static GLOBAL: OnceLock<Arc<BufPool>> = OnceLock::new();
        GLOBAL.get_or_init(BufPool::new)
    }

    fn class_of(len: usize) -> Option<usize> {
        if len > MAX_CLASS_BYTES {
            return None;
        }
        let size = len.max(MIN_CLASS_BYTES).next_power_of_two();
        Some((size.ilog2() - MIN_CLASS_BYTES.ilog2()) as usize)
    }

    /// Leases a zero-filled buffer of exactly `len` visible bytes. Falls back
    /// to a fresh allocation when the class is empty or `len` exceeds
    /// [`MAX_CLASS_BYTES`]; never blocks beyond the class mutex.
    pub fn get(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut lease = self.get_dirty(len);
        lease.fill(0);
        lease
    }

    /// Like [`get`](BufPool::get), but the lease contents are unspecified
    /// (stale bytes from an earlier lease, or zeros when freshly allocated).
    /// The transport read path uses this: it overwrites every visible byte
    /// before freezing, so the `memset` that `get` pays per lease — 64 KiB
    /// per large frame — would be pure waste. Callers that do not provably
    /// overwrite the whole lease must use `get` instead.
    pub fn get_dirty(self: &Arc<Self>, len: usize) -> PooledBuf {
        let class = Self::class_of(len);
        let data = match class {
            Some(c) => {
                let reused = self.classes[c].bufs.lock().expect("pool poisoned").pop();
                match reused {
                    // Recycled buffers are stored at full class length, so a
                    // hit reuses the initialised bytes as-is: no writes at all.
                    Some(buf) => {
                        self.hits.inc();
                        debug_assert_eq!(buf.len(), self.classes[c].size);
                        buf
                    }
                    None => {
                        self.misses.inc();
                        vec![0u8; self.classes[c].size]
                    }
                }
            }
            None => {
                self.misses.inc();
                vec![0u8; len]
            }
        };
        PooledBuf {
            data,
            visible: len,
            pool: class.map(|c| (Arc::downgrade(self), c)),
        }
    }

    fn put(&self, class: usize, buf: Vec<u8>) {
        let mut bufs = self.classes[class].bufs.lock().expect("pool poisoned");
        if bufs.len() < CLASS_CAP {
            bufs.push(buf);
        }
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        let mut resident = 0u64;
        let mut resident_bytes = 0u64;
        for c in &self.classes {
            let n = c.bufs.lock().expect("pool poisoned").len() as u64;
            resident += n;
            resident_bytes += n * c.size as u64;
        }
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            resident,
            resident_bytes,
        }
    }
}

/// An exclusive lease on a pool buffer. Deref to `[u8]` for writing; call
/// [`freeze`](PooledBuf::freeze) to hand it off as zero-copy [`Bytes`]. The
/// backing buffer returns to its class when the lease (or the last `Bytes`
/// clone holding it) drops.
///
/// The backing `Vec` stays at full class length for its whole pooled life;
/// `visible` is the exact length the caller asked for, and every access
/// window (`Deref`, `AsRef`, the frozen `Bytes`) ends there.
pub struct PooledBuf {
    data: Vec<u8>,
    visible: usize,
    pool: Option<(Weak<BufPool>, usize)>,
}

impl PooledBuf {
    /// Freezes the lease into immutable [`Bytes`] without copying; the lease
    /// itself becomes the owned backing store.
    pub fn freeze(self) -> Bytes {
        if self.visible == 0 {
            return Bytes::new();
        }
        Bytes::from_owner(self)
    }

    /// Visible length of the lease.
    pub fn len(&self) -> usize {
        self.visible
    }

    /// Whether the lease is zero-length.
    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[..self.visible]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[..self.visible]
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data[..self.visible]
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some((pool, class)) = self.pool.take() {
            if let Some(pool) = pool.upgrade() {
                pool.put(class, std::mem::take(&mut self.data));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_buffers_within_a_class() {
        let pool = BufPool::new();
        let a = pool.get(1000);
        drop(a);
        let stats = pool.stats();
        assert_eq!(stats.resident, 1);
        let b = pool.get(900); // same 1 KiB class
        assert_eq!(b.len(), 900);
        assert_eq!(pool.stats().resident, 0);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn leases_are_zero_filled_after_reuse() {
        let pool = BufPool::new();
        let mut a = pool.get(64);
        a.iter_mut().for_each(|b| *b = 0xFF);
        drop(a);
        let b = pool.get(64);
        assert!(b.iter().all(|&x| x == 0), "reused lease must be zeroed");
    }

    #[test]
    fn dirty_leases_skip_zeroing_but_stay_exact_length() {
        let pool = BufPool::new();
        let mut a = pool.get_dirty(100);
        a.iter_mut().for_each(|b| *b = 0xAB);
        drop(a);
        let b = pool.get_dirty(64); // same 1 KiB class
        assert_eq!(b.len(), 64);
        assert_eq!(pool.stats().hits, 1);
        assert!(
            b.iter().all(|&x| x == 0xAB),
            "recycled dirty lease keeps stale bytes as-is"
        );
    }

    #[test]
    fn oversized_requests_bypass_the_pool() {
        let pool = BufPool::new();
        let a = pool.get(MAX_CLASS_BYTES + 1);
        assert_eq!(a.len(), MAX_CLASS_BYTES + 1);
        drop(a);
        assert_eq!(pool.stats().resident, 0, "oversized buffers never pool");
    }

    #[test]
    fn freeze_preserves_bytes_and_returns_on_drop() {
        let pool = BufPool::new();
        let mut lease = pool.get(16);
        lease.copy_from_slice(&[7u8; 16]);
        let bytes = lease.freeze();
        let clone = bytes.clone();
        drop(bytes);
        assert_eq!(pool.stats().resident, 0, "clone still pins the buffer");
        assert_eq!(&clone[..], &[7u8; 16]);
        drop(clone);
        assert_eq!(pool.stats().resident, 1, "last drop recycles the buffer");
    }

    #[test]
    fn class_cap_bounds_resident_memory() {
        let pool = BufPool::new();
        let leases: Vec<_> = (0..CLASS_CAP + 8).map(|_| pool.get(128)).collect();
        drop(leases);
        assert_eq!(pool.stats().resident as usize, CLASS_CAP);
    }

    #[test]
    fn empty_lease_freezes_to_empty_bytes() {
        let pool = BufPool::new();
        assert!(pool.get(0).freeze().is_empty());
    }
}
