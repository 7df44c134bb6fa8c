//! A deterministic discrete-event queue.
//!
//! Events pop in `(time, insertion order)` order, so a run is a pure function
//! of the schedule calls: every statistic the cluster simulator reports
//! depends on this order and on nothing else.
//!
//! # Ordering by integers
//!
//! An event is keyed by `time.to_bits()`, compared as a `u64`. That is the
//! order of the `f64`s because every admitted time is non-NaN and
//! `>= now >= 0`, and on non-negative IEEE-754 doubles (`+inf` included) the
//! bit pattern grows with the value. The one admitted value with the sign bit
//! set is `-0.0` (`-0.0 >= 0.0` holds), which `schedule_at` canonicalises to
//! `+0.0`.
//!
//! # A monotone queue
//!
//! No event is ever scheduled before the clock, so the queue is a radix heap
//! on the key: an event waits in the bucket named by the highest bit in which
//! its key differs from the clock's, and events whose key *is* the clock's
//! wait in `due`. When `due` runs dry the lowest occupied bucket is emptied:
//! the clock jumps to that bucket's least key, and its events — which agree
//! with each other above the bucket's bit — spread over the buckets below,
//! all empty at that moment. An event is refiled at most 64 times and usually
//! a handful, against a `log n`-deep sift per operation in a binary heap
//! (measured on the simulator's own schedules: README, "What a simulated
//! point costs").
//!
//! Buckets are linked lists threaded through one arena of nodes, so refiling
//! an event relinks it without moving it, a popped event's node is reused by
//! the next schedule call, and the queue's memory is its peak length times
//! one node.
//!
//! Ties need no sequence number. Every bucket holds its events in insertion
//! order: a schedule call appends, and emptying a bucket appends its events,
//! in their order, to buckets that were empty, so anything scheduled later
//! lands behind them. Equal keys always share a bucket, hence `due` receives
//! them oldest first.

/// "No node": the end of a list.
const NIL: u32 = u32::MAX;

struct Node<E> {
    key: u64,
    /// The next node of the bucket, or of the free list.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// A first-in first-out list of arena nodes.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A discrete-event queue with a simulated clock.
///
/// # Examples
///
/// ```
/// let mut q = poseidon_netsim::EventQueue::new();
/// q.schedule_at(2.0, "late");
/// q.schedule_at(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.now(), 1.0);
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Bits of the current time: the key of the last popped event.
    now: u64,
    nodes: Vec<Node<E>>,
    /// Head of the list of unused nodes.
    free: u32,
    /// The events scheduled at exactly `now`.
    due: Bucket,
    /// `later[b]`: the events whose key first differs from `now` at bit `b`.
    later: [Bucket; 64],
    /// The least key in each bucket of `later`; `u64::MAX` when empty.
    least: [u64; 64],
    /// Bit `b` is set iff `later[b]` is non-empty.
    occupied: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            now: 0,
            nodes: Vec::new(),
            free: NIL,
            due: EMPTY,
            later: [EMPTY; 64],
            least: [u64::MAX; 64],
            occupied: 0,
            len: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        f64::from_bits(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the unlinked node `i`, whose key is `>= now`, to the bucket
    /// its key names relative to the clock.
    fn file(&mut self, i: u32) {
        let key = self.nodes[i as usize].key;
        let differs = key ^ self.now;
        let bucket = if differs == 0 {
            &mut self.due
        } else {
            let b = differs.ilog2() as usize;
            self.least[b] = self.least[b].min(key);
            self.occupied |= 1 << b;
            &mut self.later[b]
        };
        let tail = std::mem::replace(&mut bucket.tail, i);
        if tail == NIL {
            bucket.head = i;
        } else {
            self.nodes[tail as usize].next = i;
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time (or if
    /// `2^32 - 1` events are already pending).
    pub fn schedule_at(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now(),
            "cannot schedule into the past: {time} < now {}",
            self.now()
        );
        let node = Node {
            // `-0.0 + 0.0` is `+0.0`; every other admitted time is unchanged.
            key: (time + 0.0).to_bits(),
            next: NIL,
            event: Some(event),
        };
        let mut i = self.free;
        if i == NIL {
            i = u32::try_from(self.nodes.len()).unwrap_or(NIL);
            assert!(i != NIL, "more than 2^32 - 1 events pending");
            self.nodes.push(node);
        } else {
            self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
        }
        self.file(i);
        self.len += 1;
    }

    /// Schedules `event` after a non-negative `delay` from the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.schedule_at(self.now() + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.due.head == NIL {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            self.now = std::mem::replace(&mut self.least[b], u64::MAX);
            let bucket = std::mem::replace(&mut self.later[b], EMPTY);
            if bucket.head == bucket.tail {
                self.due = bucket; // a lone event is the least: nothing to refile
            } else {
                let mut i = bucket.head;
                while i != NIL {
                    let next = std::mem::replace(&mut self.nodes[i as usize].next, NIL);
                    self.file(i);
                    i = next;
                }
            }
        }
        let i = self.due.head;
        let node = &mut self.nodes[i as usize];
        self.due.head = node.next;
        if node.next == NIL {
            self.due.tail = NIL;
        }
        node.next = std::mem::replace(&mut self.free, i);
        self.len -= 1;
        let event = node.event.take().expect("a filed node holds its event");
        Some((self.now(), event))
    }

    /// Rewinds the clock of a drained queue to zero, keeping its allocation:
    /// the same as a fresh queue, for a caller that replays many schedules.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending.
    pub fn restart(&mut self) {
        assert!(self.is_empty(), "restart with events pending");
        self.now = 0;
    }

    /// Peeks at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        if self.due.head != NIL {
            return Some(self.now());
        }
        // An empty mask has 64 trailing zeros: out of range, hence `None`.
        let lowest = self.least.get(self.occupied.trailing_zeros() as usize)?;
        Some(f64::from_bits(*lowest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, 'c');
        q.schedule_at(1.0, 'a');
        q.schedule_at(2.0, 'b');
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), Some((3.0, 'c')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(1.0, 2);
        q.schedule_at(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn ties_keep_insertion_order_through_refiling() {
        // Equal times scheduled between other times, far enough ahead of the
        // clock to be refiled on the way to the front.
        let mut q = EventQueue::new();
        let times = [3.0, 1.5, 3.0, 1.5000000000000002, 3.0, 1.5, 0.25, 3.0];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [6, 1, 5, 3, 0, 2, 4, 7]);
    }

    #[test]
    fn negative_zero_is_time_zero() {
        // `-0.0 >= now` holds, but its bit pattern is the largest of all: it
        // must sort as zero, in insertion order with `+0.0`.
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 'b');
        q.schedule_at(-0.0, 'a');
        q.schedule_at(0.0, 'c');
        assert_eq!(q.peek_time().map(f64::to_bits), Some(0));
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.to_bits(), e), (0, 'a'));
        assert_eq!(q.pop(), Some((0.0, 'c')));
        assert_eq!(q.pop(), Some((1.0, 'b')));
    }

    #[test]
    fn zero_delay_runs_behind_what_is_already_due() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, 1);
        q.schedule_at(2.0, 2);
        assert_eq!(q.pop(), Some((2.0, 1)));
        q.schedule_in(0.0, 3);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((2.0, 3)));
        assert_eq!(q.now(), 2.0);
    }

    #[test]
    fn scheduling_while_popping_merges_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, "a");
        q.schedule_at(4.0, "d");
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.schedule_at(3.0, "c");
        q.schedule_in(1.0, "b");
        q.schedule_at(4.0, "e");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((2.0, "b")));
        q.schedule_at(2.0, "b2");
        assert_eq!(q.pop(), Some((2.0, "b2")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), Some((4.0, "d")));
        assert_eq!(q.pop(), Some((4.0, "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn restart_rewinds_a_drained_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, 'x');
        q.pop();
        q.restart();
        assert_eq!(q.now(), 0.0);
        q.schedule_at(1.0, 'y');
        assert_eq!(q.pop(), Some((1.0, 'y')));
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn restart_with_events_pending_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, ());
        q.restart();
    }

    #[test]
    fn clock_advances_only_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, ());
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.peek_time(), Some(5.0));
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, 'x');
        q.pop();
        q.schedule_in(1.5, 'y');
        assert_eq!(q.pop(), Some((3.5, 'y')));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_in(-0.1, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1.0, ());
        q.schedule_at(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
