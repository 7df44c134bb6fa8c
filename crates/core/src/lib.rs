//! Poseidon: an efficient communication architecture for distributed deep
//! learning on GPU clusters (Zhang et al., USENIX ATC 2017) — a from-scratch
//! Rust reproduction.
//!
//! Poseidon's two ideas, both implemented here:
//!
//! 1. **Wait-free backpropagation (WFBP)** — every layer of a neural network
//!    owns an independent set of parameters, so layer *l*'s synchronisation
//!    can start the moment its backward pass `bˡ` finishes, overlapping with
//!    the backward computation of the layers below it. See [`runtime`] for
//!    the threaded implementation and [`sim`] for the timing model.
//!
//! 2. **Hybrid communication (HybComm)** — for each layer, choose between a
//!    sharded parameter server (good for small/indecomposable gradients) and
//!    sufficient-factor broadcasting (good for large FC gradients at small
//!    batch sizes) using the analytic byte-cost model of the paper's Table 1.
//!    See [`costmodel`] and [`coordinator`].
//!
//! The crate offers two execution backends:
//!
//! * [`runtime`] — a real data-parallel trainer: worker and KV-shard
//!   endpoints exchanging serialised byte messages over a pluggable
//!   [`transport`] (in-process channels for the threaded `train`, TCP
//!   sockets for the per-process `run_endpoint` / `poseidon-node` runtime),
//!   training real [`poseidon_nn`] networks. Used for the correctness and
//!   statistical experiments.
//! * [`sim`] — a discrete-event timing simulation of a GPU cluster running
//!   the same protocol over [`poseidon_netsim`], calibrated against the
//!   paper's single-node throughputs. Used for the throughput experiments
//!   (Figures 5–10).
//!
//! Supporting modules: [`wire`] (the versioned frame codec every transport
//! speaks), [`chunk`] (fixed-size KV-pair partitioning of parameters),
//! [`kvstore`] (bulk-synchronous shard state machine), [`syncer`] (per-layer
//! Send/Receive/Move), [`route`] (where every scheme's frames go, for the
//! syncers, the shards and the simulator alike), [`config`] (cluster and
//! scheme configuration), [`faults`] (deterministic fault injection for
//! chaos testing the comm plane), [`membership`] (elastic shard-ownership
//! epochs and the scripted reconfiguration plan DSL), [`checkpoint`]
//! (bitwise snapshot/restore of training state), [`telemetry`] (structured
//! tracing of the training path with Chrome-trace export), [`metrics`]
//! (always-on live counters/histograms with Prometheus pull exposition),
//! [`health`] (per-peer verdicts — straggler detection — over metrics
//! snapshots), and [`stats`] (report formatting).

pub mod api;
pub mod checkpoint;
pub mod chunk;
pub mod config;
pub mod coordinator;
pub mod costmodel;
pub mod faults;
pub mod health;
pub mod kvstore;
pub mod membership;
pub mod metrics;
pub mod pool;
pub mod route;
pub mod runtime;
pub mod sim;
pub mod stats;
pub mod syncer;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use config::{ClusterConfig, CommScheme, Partition, Scheduler, SchemePolicy};
pub use coordinator::Coordinator;
