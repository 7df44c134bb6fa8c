//! `EventQueue`'s contract is its pop order, exactly `(time, insertion
//! index)`: every statistic the cluster simulator reports is a function of
//! it. This suite replays seeded schedules — heavy ties, `pop` interleaved
//! with `schedule_at` / `schedule_in`, delays from 2⁻⁴⁰ to +∞ so keys differ
//! from the clock at every bit position — against a reference that keeps a
//! bag and scans it for the minimum. No proptest: it runs offline.

use poseidon_netsim::EventQueue;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The specification: an unordered bag and a clock.
#[derive(Default)]
struct Reference {
    pending: Vec<(f64, usize)>,
    now: f64,
}

impl Reference {
    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let ((ta, ia), (tb, ib)) = (self.pending[a], self.pending[b]);
            ta.total_cmp(&tb).then(ia.cmp(&ib))
        })
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let (time, id) = self.pending.swap_remove(self.earliest()?);
        self.now = time;
        Some((time, id))
    }
}

/// How a schedule picks the delay of its next event.
#[derive(Clone, Copy)]
enum Shape {
    /// Delays are small multiples of 1/8 (zero included): almost every event
    /// ties with others, and many are scheduled at the clock itself.
    Ties,
    /// Delays are `m · 2^-e` for `e` in `0..40`, some zero, a few `+inf`.
    Magnitudes,
}

fn delay(shape: Shape, rng: &mut XorShift) -> f64 {
    match shape {
        Shape::Ties => rng.below(6) as f64 * 0.125,
        Shape::Magnitudes => match rng.below(4096) {
            0 => f64::INFINITY,
            1..=64 => 0.0,
            _ => (1 + rng.below(7)) as f64 / (1u64 << rng.below(40)) as f64,
        },
    }
}

/// Runs `events` schedule calls (and as many pops) drawn from `seed`,
/// checking every observable of the queue against the reference.
fn replay(shape: Shape, seed: u64, events: usize) {
    let mut rng = XorShift(seed);
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut reference = Reference::default();
    let mut scheduled = 0usize;
    // Both zeros at the start: `-0.0` must sort as time zero, in order.
    for time in [0.5, -0.0, 0.0, -0.0] {
        queue.schedule_at(time, scheduled);
        reference.pending.push((time + 0.0, scheduled));
        scheduled += 1;
    }
    while scheduled < events || !reference.pending.is_empty() {
        // Pops grow likelier with the backlog: the bag stays small enough to
        // scan (about 512 events, never more than 1024).
        let push = scheduled < events && rng.below(1024) >= reference.pending.len() as u64;
        if push {
            let d = delay(shape, &mut rng);
            if rng.below(2) == 0 {
                queue.schedule_in(d, scheduled);
            } else {
                queue.schedule_at(reference.now + d, scheduled);
            }
            reference.pending.push((reference.now + d, scheduled));
            scheduled += 1;
        } else {
            let want = reference.pop();
            let got = queue.pop();
            assert_eq!(
                got.map(|(t, id)| (t.to_bits(), id)),
                want.map(|(t, id)| (t.to_bits(), id)),
                "seed {seed}: pop diverged after {scheduled} schedule calls"
            );
        }
        assert_eq!(queue.len(), reference.pending.len());
        assert_eq!(queue.is_empty(), reference.pending.is_empty());
        assert_eq!(queue.now().to_bits(), reference.now.to_bits());
        if rng.below(16) == 0 {
            let earliest = reference.earliest().map(|i| reference.pending[i].0);
            assert_eq!(
                queue.peek_time().map(f64::to_bits),
                earliest.map(f64::to_bits),
                "seed {seed}: peek_time diverged"
            );
        }
    }
    assert_eq!(queue.pop(), None);
}

#[test]
fn heavy_ties_pop_in_insertion_order() {
    for seed in [1, 0x9e37_79b9_7f4a_7c15] {
        replay(Shape::Ties, seed, 100_000);
    }
}

#[test]
fn delays_of_every_magnitude_pop_in_time_order() {
    for seed in [2, 0xdead_beef_cafe_f00d] {
        replay(Shape::Magnitudes, seed, 100_000);
    }
}

#[test]
fn a_restarted_queue_replays_like_a_fresh_one() {
    // The simulator drains one queue per iteration and rewinds it; the
    // recycled nodes must not leak order from the previous schedule.
    let schedule = |queue: &mut EventQueue<usize>| {
        let mut rng = XorShift(7);
        let mut order = Vec::new();
        for id in 0..20_000 {
            queue.schedule_in(delay(Shape::Ties, &mut rng) + rng.below(3) as f64, id);
            if rng.below(3) == 0 {
                order.extend(queue.pop());
            }
        }
        order.extend(std::iter::from_fn(|| queue.pop()));
        order
    };
    let mut reused = EventQueue::new();
    let first = schedule(&mut reused);
    reused.restart();
    assert_eq!(reused.now(), 0.0);
    assert_eq!(schedule(&mut reused), first);
    assert_eq!(schedule(&mut EventQueue::new()), first);
}
