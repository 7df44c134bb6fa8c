//! Map of the paper's API surface (Table 2) onto this crate.
//!
//! The paper specifies Poseidon's client-facing APIs in Table 2; this module
//! documents where each lives in the reproduction. It contains no code —
//! it is the compatibility contract, kept in one place and enforced by the
//! doc-links (rustdoc fails on broken references).
//!
//! | Table 2 method | Owner | Here |
//! |---|---|---|
//! | `BestScheme(layer)` | Coordinator | [`crate::coordinator::Coordinator::best_scheme`] |
//! | `Query(properties)` | Coordinator | [`crate::coordinator::Coordinator::query`] |
//! | `Send` (syncer) | Syncer | [`crate::syncer::Syncer::send`]: the worker loop in [`crate::runtime`] calls it the moment a layer's backward completes, and transmits the frames it hands back to the [`crate::route::Dest`] each names, which [`crate::route::Route::sends`] chose |
//! | `Receive` (syncer) | Syncer | [`crate::syncer::Syncer::receive`]: validates, decodes and stages one frame (a PS chunk via [`crate::syncer::Syncer::on_param_chunk`], a ring/tree hop added and forwarded) or refuses it as poisoned, completing via [`crate::syncer::Syncer::is_complete`]; the worker calls it for whatever has arrived between the layers of backward, and for the rest after it |
//! | `Move` (syncer) | Syncer | GPU→CPU: inside [`crate::syncer::Syncer::send`], an identity PS push and the identity ring's head lend the layer's weight gradient to their frames (a view per KV pair or segment, given back by `apply`), [`crate::syncer::Syncer::encode_push_grad`] encodes any other KV pair, and a ring hop or tree fold reads `scale·g` straight from the layer's gradient storage when it adds it; CPU→GPU: a PS chunk and a collective segment's new velocity step the replica inside `receive` — on the last ring hop in the pass that folds it — and an SFB or Adam round lands through [`crate::syncer::Syncer::apply`] ([`crate::syncer::write_params_flat`], or [`crate::syncer::reconstruct_sf_batches`] and the momentum step) |
//! | `Send` (KV store) | KV store | [`crate::kvstore::ShardServer::serve`], once a pair's update count reaches `P` (the `Ok(true)` of [`crate::kvstore::ShardState::stage`]): the round's reply goes to every worker through its `emit` callback — a view of the master the fold's walk just advanced ([`crate::kvstore::ShardState::fold_apply_encode`]), the compressed velocity ahead of [`crate::kvstore::ShardState::apply_delta`] for a lossy pair, or an Adam layer's fresh matrix |
//! | `Receive` (KV store) | KV store | [`crate::kvstore::ShardServer::serve`]: stages one frame as its bytes ([`crate::kvstore::ShardState::stage`]; Adam's factors reconstructed dense first), or refuses it as poisoned |
//!
//! Other Section-4 behaviours and where they live:
//!
//! * 2MB KV pairs, hashed evenly over shards → [`crate::chunk::ChunkTable`]
//!   with [`crate::config::Partition::default_kv_pairs`].
//! * The completion vector `C` and "start next iteration when all entries are
//!   1" → the blocking tail of the worker's receive path in
//!   [`crate::runtime`].
//! * Per-KV-pair update counts and broadcast-on-complete →
//!   [`crate::kvstore::ShardState`], served by [`crate::kvstore::ShardServer`].
//! * Checkpointing "current parameter states for fault tolerance" →
//!   [`crate::kvstore::ShardServer::export`] /
//!   [`crate::kvstore::ShardServer::install`] (master, velocity and reply
//!   residual) through
//!   [`crate::checkpoint::encode_shard`] /
//!   [`crate::checkpoint::decode_shard`].
//! * Who sends which frame to whom under each scheme — the syncers', the
//!   shards' and the simulator's one answer → [`crate::route`].
//! * Straggler dropping → the simulator's
//!   [`crate::sim::SimConfig::drop_stragglers`].
//! * Algorithm 2 (`TRAIN`/`SYNC`) → the worker thread in [`crate::runtime`],
//!   with `net.BackwardThrough(l)` + `thread_pool.Schedule(sync(l))` realised
//!   as the gradient callback of [`poseidon_nn::Model::backward_with`]: it
//!   fires layer `l`'s `Send` and then receives and moves, into the layers
//!   [`poseidon_nn::Finished`] lends, whatever has come back so far.
