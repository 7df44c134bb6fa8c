//! A layer-by-layer neural-network engine, model zoo and synthetic datasets.
//!
//! This crate substitutes for the computation engines the paper plugged
//! Poseidon into (Caffe and TensorFlow). It provides the *engine contract*
//! Poseidon needs:
//!
//! * a sequential container ([`network::Network`]) whose backward pass visits
//!   layers **top-down** and invokes a per-layer gradient callback the moment
//!   that layer's gradients are complete — the hook wait-free backpropagation
//!   (Algorithm 2, L5–L8 of the paper) schedules communication from — lending
//!   it the layers already finished ([`model::Finished`]), so what comes back
//!   for them can be moved in while the layers below still compute;
//! * per-layer parameter blocks ([`layer::ParamBlock`]) that can be read,
//!   replaced and updated independently — the independence HybComm exploits;
//! * per-sample sufficient factors from fully-connected layers
//!   ([`layer::Layer::sufficient_factors`]), the payload of SFB.
//!
//! Two kinds of models live here:
//!
//! * **Trainable networks** (`layers`, `network`, `loss`, `sgd`) — real
//!   forward/backward math used by the threaded runtime for the statistical
//!   experiments (Figures 9b and 11) and the correctness tests.
//! * **Descriptor models** ([`zoo`]) — per-layer parameter counts, shapes and
//!   FLOP estimates for the paper's large networks (GoogLeNet, Inception-V3,
//!   VGG19, VGG19-22K, ResNet-152, AlexNet, CIFAR-10-quick), consumed by the
//!   cluster timing simulator for the throughput experiments.

pub mod data;
pub mod graph;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod network;
pub mod parallel;
pub mod presets;
pub mod probe;
pub mod sgd;
pub mod zoo;

pub use graph::GraphNetwork;
pub use layer::{BackwardNeeds, Layer, LayerKind, ParamBlock, TensorShape};
pub use model::{Finished, Model};
pub use network::Network;
