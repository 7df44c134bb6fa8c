//! Descriptor models of the paper's evaluation networks.
//!
//! The throughput experiments (Figures 5–10) don't need real math — they need
//! each network's *layer structure*: per-layer parameter counts (what goes on
//! the wire), FC shapes (what SFB can factor) and per-layer FLOPs (what the
//! calibrated GPU model turns into compute time). This module encodes the six
//! evaluation networks of Table 3 plus AlexNet (used in the paper's Section
//! 2.2 motivating example) layer by layer from their published architectures.
//!
//! Parameter totals are asserted against Table 3 in the tests; small
//! deviations from the paper's rounded numbers are documented per model.

mod builder;
mod models;
mod spec;

pub use builder::SpecBuilder;
pub use models::{
    alexnet, all_models, by_name, cifar10_quick, googlenet, inception_v3, names, resnet152, vgg19,
    vgg19_22k,
};
pub use spec::{LayerSpec, ModelSpec, SpecKind};
