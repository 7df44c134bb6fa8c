//! Routing: where every frame of a layer's round goes, under every scheme.
//!
//! The worker's [`Syncer`](crate::syncer::Syncer), the shard's
//! [`ShardServer`](crate::kvstore::ShardServer) and the simulator
//! ([`crate::sim`]) each replay a layer's round; this module alone says who
//! sends what to whom. [`Route::sends`]: where a `Send`'s frames go;
//! [`Route::hop`]: what a collective frame does where it lands, and where
//! it goes next; [`Route::sender`]: whom it must come from; [`replies`]:
//! whom a shard answers; [`segments`]: a collective layer's tiling.
//!
//! The ring is the chain `0 → 1 → … → P−1`: the head sends, each later
//! worker adds its contribution and forwards, and worker `P−1`'s add
//! completes the fold and originates DISTRIBUTE, which walks `0 → … → P−2`.
//! Every function is pure and allocates nothing, and every set of workers
//! ascends — the order the simulator's pinned statistics depend on.

use crate::chunk::Chunk;
use crate::config::CommScheme;
use crate::coordinator::Coordinator;
use crate::wire::{COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use std::ops::Range;

/// Where a frame goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A worker, by id (its transport endpoint).
    Worker(usize),
    /// A home shard, by id: whichever endpoint owns its pairs at the
    /// current membership epoch.
    Shard(usize),
}

/// What a layer's `Send` frames carry — what the simulator prices them by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// PS: a gradient chunk per frame, to its home shard, which answers
    /// every worker.
    Chunks,
    /// One frame of sufficient factors: to a shard that answers every
    /// worker with the fresh matrix (Adam), or to every peer (SFB).
    Factors,
    /// Ring: a collective frame per segment, hop by hop.
    Segments,
}

/// What a collective frame does at the worker it lands on; the workers it
/// names come in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hop {
    /// Ring REDUCE: add this worker's contribution and forward the partial.
    Add(usize),
    /// Ring REDUCE at the chain's end: the add completes the fold; step the
    /// replica and originate DISTRIBUTE to these workers.
    Fold(Range<usize>),
    /// DISTRIBUTE: step the replica by the velocity carried and forward the
    /// frame unchanged to these workers.
    Land(Range<usize>),
}

/// Whom a shard answers when a round completes: every worker.
pub fn replies(workers: usize) -> Range<usize> {
    0..workers
}

/// A collective layer's offset-ordered `(offset, len)` segments: its KV
/// chunks, or one whole-layer segment when it has none.
///
/// # Panics
///
/// Panics if the chunks do not tile the layer's `param_elems`.
pub fn segments(chunks: &[Chunk], param_elems: usize) -> Vec<(usize, usize)> {
    if chunks.is_empty() {
        return vec![(0, param_elems)];
    }
    let mut expect = 0usize;
    for c in chunks {
        assert_eq!(c.offset, expect, "collective segments must tile the layer");
        expect += c.len;
    }
    assert_eq!(
        expect, param_elems,
        "collective segments must cover the layer"
    );
    chunks.iter().map(|c| (c.offset, c.len)).collect()
}

/// One layer's routing: its scheme, the worker count and, for Adam, the
/// shard its factors go to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    scheme: CommScheme,
    workers: usize,
    adam_shard: Option<usize>,
}

impl Route {
    /// A `scheme` layer's route among `workers` workers. An Adam route made
    /// here names no shard to send to; [`Self::for_layer`] does.
    pub fn new(scheme: CommScheme, workers: usize) -> Self {
        let adam_shard = None;
        Self {
            scheme,
            workers,
            adam_shard,
        }
    }

    /// The route the coordinator's plan gives `layer`.
    pub fn for_layer(coordinator: &Coordinator, layer: usize) -> Self {
        let route = Self::new(
            coordinator.best_scheme(layer),
            coordinator.cluster().workers,
        );
        let adam_shard = Some(coordinator.adam_shard(layer));
        Self {
            adam_shard,
            ..route
        }
    }

    /// The scheme this route is.
    pub fn scheme(&self) -> CommScheme {
        self.scheme
    }

    /// What the layer's `Send` frames carry.
    pub fn payload(&self) -> Payload {
        match self.scheme {
            CommScheme::Ps => Payload::Chunks,
            CommScheme::Sfb | CommScheme::AdamSf => Payload::Factors,
            CommScheme::Ring => Payload::Segments,
        }
    }

    /// Whether the `Send` frames go to workers, each of which completes the
    /// round from what its peers send it, rather than to shards.
    pub fn to_peers(&self) -> bool {
        !matches!(self.scheme, CommScheme::Ps | CommScheme::AdamSf)
    }

    /// Where worker `me`'s `Send` frames go, in sending order, as
    /// `(destination, segment)`: a PS chunk or collective segment out of
    /// `segs`, whose home shard is `home(segment)`, or segment 0, the
    /// factors. Ring workers after the head send nothing.
    ///
    /// # Panics
    ///
    /// Panics on an Adam route made by [`Self::new`].
    pub fn sends(
        self,
        me: usize,
        segs: usize,
        home: impl Fn(usize) -> usize,
    ) -> impl Iterator<Item = (Dest, usize)> {
        let (frames, to) = match self.scheme {
            CommScheme::Ps => (segs, None),
            CommScheme::AdamSf => {
                let shard = self.adam_shard.expect("an Adam route names its shard");
                (1, Some(shard..shard + 1))
            }
            CommScheme::Sfb => (1, Some(0..self.workers)),
            CommScheme::Ring if me == 0 && self.workers > 1 => (segs, Some(1..2)),
            CommScheme::Ring => (0, None),
        };
        let (dest, skip): (fn(usize) -> Dest, usize) = match self.to_peers() {
            // A worker never sends to itself.
            true => (Dest::Worker, me),
            false => (Dest::Shard, usize::MAX),
        };
        (0..frames).flat_map(move |seg| {
            let to = to.clone().unwrap_or_else(|| home(seg)..home(seg) + 1);
            to.filter(move |&n| n != skip).map(move |n| (dest(n), seg))
        })
    }

    /// What a collective frame of `phase` does at worker `me`; `None` where
    /// none lands: a layer or phase that is not a collective's, REDUCE at
    /// the ring's head, DISTRIBUTE where it originates.
    pub fn hop(&self, phase: u8, me: usize) -> Option<Hop> {
        let last = self.workers.checked_sub(1).filter(|&last| me <= last)?;
        match (self.scheme, phase) {
            (CommScheme::Ring, COLLECTIVE_REDUCE) if me == 0 => None,
            (CommScheme::Ring, COLLECTIVE_REDUCE) if me == last => Some(Hop::Fold(0..1)),
            (CommScheme::Ring, COLLECTIVE_REDUCE) => Some(Hop::Add(me + 1)),
            // The pass stops one short of the worker that folded.
            (CommScheme::Ring, COLLECTIVE_DISTRIBUTE) if me == last => None,
            (CommScheme::Ring, COLLECTIVE_DISTRIBUTE) => {
                Some(Hop::Land(me + 1..(me + 2).min(last)))
            }
            _ => None,
        }
    }

    /// The worker a collective frame of `phase` reaches worker `me` from —
    /// its predecessor on the chain, or for the head's DISTRIBUTE, the
    /// worker that folded — or `None` where no such frame reaches `me`.
    pub fn sender(&self, phase: u8, me: usize) -> Option<usize> {
        self.hop(phase, me)?;
        Some(me.checked_sub(1).unwrap_or(self.workers - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segments per layer in the walks below.
    const SEGS: usize = 3;

    /// Walks every REDUCE frame `Route::sends` hands out, hop by hop,
    /// checking each hop's sender. Returns each frame's `(origin, segment,
    /// path)` — the workers it visited — and where each ended: the worker
    /// that folded it, with its DISTRIBUTE targets.
    #[allow(clippy::type_complexity)]
    fn walk_reduce(
        route: Route,
        p: usize,
    ) -> (Vec<(usize, usize, Vec<usize>)>, Vec<(usize, Vec<usize>)>) {
        let (mut paths, mut ends) = (Vec::new(), Vec::new());
        for origin in 0..p {
            for (to, seg) in route.sends(origin, SEGS, |_| 0) {
                let Dest::Worker(mut at) = to else {
                    panic!("{route:?}: a collective frame went to {to:?}")
                };
                let (mut from, mut path) = (origin, vec![at]);
                loop {
                    assert_eq!(
                        route.sender(COLLECTIVE_REDUCE, at),
                        Some(from),
                        "{route:?}: REDUCE from {origin} reaches {at}"
                    );
                    match route.hop(COLLECTIVE_REDUCE, at).expect("a REDUCE hop") {
                        Hop::Add(next) => {
                            (from, at) = (at, next);
                            path.push(at);
                        }
                        Hop::Fold(to) => {
                            ends.push((at, to.collect()));
                            break;
                        }
                        Hop::Land(_) => panic!("{route:?}: REDUCE landed at {at}"),
                    }
                }
                paths.push((origin, seg, path));
            }
        }
        (paths, ends)
    }

    /// Walks DISTRIBUTE from the folding worker's targets, checking each
    /// sender; returns how often it landed on each worker.
    fn walk_distribute(route: Route, p: usize, folder: usize, to: &[usize]) -> Vec<usize> {
        let mut landed = vec![0; p];
        let mut frontier: Vec<(usize, usize)> = to.iter().map(|&w| (folder, w)).collect();
        while let Some((from, at)) = frontier.pop() {
            assert_eq!(
                route.sender(COLLECTIVE_DISTRIBUTE, at),
                Some(from),
                "{route:?}: DISTRIBUTE reaches {at}"
            );
            let Some(Hop::Land(next)) = route.hop(COLLECTIVE_DISTRIBUTE, at) else {
                panic!("{route:?}: DISTRIBUTE at {at} does not land");
            };
            landed[at] += 1;
            frontier.extend(next.map(|n| (at, n)));
        }
        landed
    }

    /// The one place every frame of a walk ended, and that it ended there.
    fn one_end(ends: &[(usize, Vec<usize>)]) -> (usize, Vec<usize>) {
        let first = ends.first().expect("the pass folds").clone();
        assert!(ends.iter().all(|e| *e == first), "one fold point: {ends:?}");
        first
    }

    #[test]
    fn every_route_is_complete_for_every_cluster_size() {
        for p in 1..=33usize {
            let ring = Route::new(CommScheme::Ring, p);
            let (paths, ends) = walk_reduce(ring, p);
            if p == 1 {
                assert!(paths.is_empty(), "a lone worker sends nothing");
            } else {
                // One chain per segment: the head's frame visits 1..P−1 in
                // rank order, and the last of them folds.
                let chain: Vec<usize> = (1..p).collect();
                let want: Vec<_> = (0..SEGS).map(|s| (0, s, chain.clone())).collect();
                assert_eq!(paths, want, "ring REDUCE, P={p}");
                let (folder, to) = one_end(&ends);
                assert_eq!(folder, p - 1);
                let landed = walk_distribute(ring, p, folder, &to);
                let want: Vec<usize> = (0..p).map(|w| usize::from(w != p - 1)).collect();
                assert_eq!(landed, want, "ring DISTRIBUTE, P={p}");
            }

            // Replies reach every worker; SFB's factors every other one.
            assert_eq!(replies(p).collect::<Vec<_>>(), (0..p).collect::<Vec<_>>());
            let sfb = Route::new(CommScheme::Sfb, p);
            for me in 0..p {
                let to: Vec<_> = sfb.sends(me, SEGS, |_| 0).collect();
                let want: Vec<_> = (0..p)
                    .filter(|&w| w != me)
                    .map(|w| (Dest::Worker(w), 0))
                    .collect();
                assert_eq!(to, want, "SFB from {me}, P={p}");
            }
        }
    }

    #[test]
    fn non_collective_sends_go_to_shards() {
        let ps = Route::new(CommScheme::Ps, 4);
        let homes = [2, 0, 3];
        let sent: Vec<_> = ps.sends(1, homes.len(), |c| homes[c]).collect();
        let want: Vec<_> = (0..3).map(|c| (Dest::Shard(homes[c]), c)).collect();
        assert_eq!(sent, want);
        let adam = Route {
            adam_shard: Some(3),
            ..Route::new(CommScheme::AdamSf, 4)
        };
        for me in 0..4 {
            let sent: Vec<_> = adam.sends(me, 5, |_| 0).collect();
            assert_eq!(sent, vec![(Dest::Shard(3), 0)]);
        }
        for route in [ps, adam] {
            assert_eq!(route.hop(COLLECTIVE_REDUCE, 1), None);
            assert_eq!(route.sender(COLLECTIVE_DISTRIBUTE, 1), None);
        }
    }

    #[test]
    fn no_frame_is_expected_where_none_is_sent() {
        let ring = Route::new(CommScheme::Ring, 5);
        // Out of range workers and phases.
        assert_eq!(ring.hop(COLLECTIVE_REDUCE, 5), None);
        assert_eq!(ring.hop(2, 1), None);
        assert_eq!(ring.sender(2, 1), None);
        assert_eq!(ring.sender(COLLECTIVE_REDUCE, 0), None, "the head");
        assert_eq!(ring.sender(COLLECTIVE_DISTRIBUTE, 4), None, "the folder");
    }
}
