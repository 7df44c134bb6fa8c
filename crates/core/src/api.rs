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
//! | `Send` (syncer) | Syncer | issued by the worker loop in [`crate::runtime`] the moment a layer's backward completes; the per-layer state machine is [`crate::syncer::Syncer`] |
//! | `Receive` (syncer) | Syncer | [`crate::syncer::Syncer::on_param_chunk`] / [`crate::syncer::Syncer::on_peer_sf`] / [`crate::syncer::Syncer::on_param_matrix`] / [`crate::syncer::Syncer::on_collective`], completing via [`crate::syncer::Syncer::is_complete`]; the worker calls them for whatever has arrived between the layers of backward, and for the rest after it |
//! | `Move` (syncer) | Syncer | GPU→CPU: [`crate::syncer::Syncer::encode_push_grad`] encodes a KV pair, and [`crate::syncer::Syncer::send_collective`] a ring/tree segment, straight from the layer's gradient storage; CPU→GPU: a PS chunk lands in the replica inside [`crate::syncer::Syncer::on_param_chunk`], every other scheme applies its [`crate::syncer::SyncOutcome`] ([`crate::syncer::write_params_flat`], [`crate::syncer::reconstruct_sf_batches`], [`crate::syncer::apply_delta`]) |
//! | `Send` (KV store) | KV store | the broadcast a shard performs when a pair's update count reaches `P` — the `Ok(true)` of [`crate::kvstore::ShardState::stage`], then [`crate::kvstore::ShardState::fold`] and one pooled encoding of the fresh master (the `Some(params)` return of the dense wrapper [`crate::kvstore::ShardState::receive_grad`]) |
//! | `Receive` (KV store) | KV store | [`crate::kvstore::ShardState::stage`] (BSP; a wire frame is staged as its bytes) and [`crate::kvstore::ShardState::receive_grad_async`] (bounded-async extension) |
//!
//! Other Section-4 behaviours and where they live:
//!
//! * 2MB KV pairs, hashed evenly over shards → [`crate::chunk::ChunkTable`]
//!   with [`crate::config::Partition::default_kv_pairs`].
//! * The completion vector `C` and "start next iteration when all entries are
//!   1" → the blocking tail of the worker's receive path in
//!   [`crate::runtime`].
//! * Per-KV-pair update counts and broadcast-on-complete →
//!   [`crate::kvstore::ShardState`].
//! * Checkpointing "current parameter states for fault tolerance" →
//!   [`crate::kvstore::ShardState::export_pair`] /
//!   [`crate::kvstore::ShardState::install_pair`] through
//!   [`crate::checkpoint::encode_shard`] /
//!   [`crate::checkpoint::decode_shard`].
//! * Straggler dropping → the simulator's
//!   [`crate::sim::SimConfig::drop_stragglers`].
//! * Algorithm 2 (`TRAIN`/`SYNC`) → the worker thread in [`crate::runtime`],
//!   with `net.BackwardThrough(l)` + `thread_pool.Schedule(sync(l))` realised
//!   as the gradient callback of [`poseidon_nn::Model::backward_with`]: it
//!   fires layer `l`'s `Send` and then receives and moves, into the layers
//!   [`poseidon_nn::Finished`] lends, whatever has come back so far.
