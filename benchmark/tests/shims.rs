//! The offline stand-ins under `shims/` must keep the properties the
//! poseidon crates rely on — above all `Bytes` sharing one backing store and
//! releasing a `from_owner` owner exactly once, which `BufPool` recycling
//! depends on. A copying shim would falsify every transport number.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn bytes_clones_and_slices_share_one_backing_store() {
    let whole = Bytes::from((0u8..64).collect::<Vec<_>>());
    let base = whole.as_ptr();
    let clone = whole.clone();
    let middle = whole.slice(8..40);
    let inner = middle.slice(4..);
    assert_eq!(clone.as_ptr(), base, "clone must not copy");
    assert_eq!(middle.as_ptr(), base.wrapping_add(8), "slice must not copy");
    assert_eq!(inner.as_ptr(), base.wrapping_add(12));
    assert_eq!(&inner[..], &(12u8..40).collect::<Vec<_>>()[..]);

    let mut head = whole.clone();
    let tail = head.split_off(16);
    assert_eq!((head.len(), tail.len()), (16, 48));
    assert_eq!(
        tail.as_ptr(),
        base.wrapping_add(16),
        "split_off must not copy"
    );
    let mut rest = whole.clone();
    let front = rest.split_to(10);
    assert_eq!(front.as_ptr(), base);
    assert_eq!(rest.as_ptr(), base.wrapping_add(10));

    let frozen_from = BytesMut::from(&[1u8, 2, 3][..]);
    let p = frozen_from.as_ptr();
    assert_eq!(frozen_from.freeze().as_ptr(), p, "freeze must not copy");
}

struct Counted {
    data: Vec<u8>,
    drops: Arc<AtomicUsize>,
}

impl AsRef<[u8]> for Counted {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn from_owner_drops_the_owner_once_when_the_last_view_goes() {
    let drops = Arc::new(AtomicUsize::new(0));
    let whole = Bytes::from_owner(Counted {
        data: vec![7; 1024],
        drops: Arc::clone(&drops),
    });
    let views = vec![
        whole.clone(),
        whole.slice(10..20),
        whole.slice(..0), // empty views own nothing
        whole.clone().split_off(512),
    ];
    drop(whole);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "live views keep the owner");
    let moved = std::thread::spawn(move || drop(views));
    moved.join().unwrap();
    assert_eq!(drops.load(Ordering::SeqCst), 1, "released exactly once");
}

#[test]
fn little_endian_put_and_get_round_trip() {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u8(0xAB);
    buf.put_u16_le(0xBEEF);
    buf.put_u32_le(0xDEAD_BEEF);
    buf.put_u64_le(0x0123_4567_89AB_CDEF);
    buf.put_i32_le(-5);
    buf.put_f32_le(-1.5);
    buf.put_f64_le(std::f64::consts::PI);
    buf.put_slice(b"tail");
    assert_eq!(&buf[1..3], &[0xEF, 0xBE], "least significant byte first");

    let mut frozen = buf.freeze();
    assert_eq!(frozen.remaining(), 1 + 2 + 4 + 8 + 4 + 4 + 8 + 4);
    assert_eq!(frozen.get_u8(), 0xAB);
    assert_eq!(frozen.get_u16_le(), 0xBEEF);
    assert_eq!(frozen.get_u32_le(), 0xDEAD_BEEF);
    assert_eq!(frozen.get_u64_le(), 0x0123_4567_89AB_CDEF);
    assert_eq!(frozen.get_i32_le(), -5);
    assert_eq!(frozen.get_f32_le(), -1.5);
    assert_eq!(frozen.get_f64_le(), std::f64::consts::PI);
    assert_eq!(&frozen[..], b"tail");

    // The same reads through a plain slice cursor, as `decode_f32s` does.
    let raw = 2.5f32.to_le_bytes();
    let mut cursor: &[u8] = &raw;
    assert_eq!(cursor.get_f32_le(), 2.5);
    assert!(!cursor.has_remaining());
}

#[test]
#[should_panic(expected = "underflow")]
fn reading_past_the_end_panics_instead_of_inventing_bytes() {
    let mut short = Bytes::from(vec![1u8, 2]);
    short.get_u32_le();
}

#[test]
fn std_rng_is_reproducible_per_seed_and_in_range() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..32).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7), "same seed, same stream");
    assert_ne!(draw(7), draw(8), "another seed, another stream");

    let mut rng = StdRng::seed_from_u64(1);
    let mut seen = [false; 10];
    for _ in 0..1000 {
        let i = rng.gen_range(0..10usize);
        seen[i] = true;
        let x = rng.gen_range(-2.0f32..3.0);
        assert!((-2.0..3.0).contains(&x));
        let u: f32 = rng.gen();
        assert!((0.0..1.0).contains(&u));
    }
    assert!(
        seen.iter().all(|s| *s),
        "every value of a small range is drawn"
    );
}

#[test]
fn crossbeam_scope_joins_borrowing_threads_and_reports_panics() {
    let mut slots = [0usize; 4];
    let result = crossbeam::thread::scope(|s| {
        for (i, slot) in slots.iter_mut().enumerate() {
            s.spawn(move |_| *slot = i + 1);
        }
    });
    assert!(result.is_ok());
    assert_eq!(slots, [1, 2, 3, 4], "all threads ran before scope returned");

    let result = crossbeam::thread::scope(|s| {
        s.spawn(|_| panic!("worker failed"));
    });
    assert!(result.is_err(), "a panicking thread makes scope return Err");
}

#[test]
fn parking_lot_condvar_hands_the_guard_back_after_waiting() {
    let pair = Arc::new((parking_lot::Mutex::new(0u32), parking_lot::Condvar::new()));
    let waiter = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            let (lock, cv) = &*pair;
            let mut guard = lock.lock();
            while *guard == 0 {
                cv.wait(&mut guard);
            }
            *guard += 1;
            *guard
        })
    };
    {
        let (lock, cv) = &*pair;
        *lock.lock() = 41;
        cv.notify_all();
    }
    assert_eq!(waiter.join().unwrap(), 42);
    assert_eq!(*pair.0.lock(), 42);
}
