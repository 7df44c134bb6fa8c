//! Concrete layer implementations.

pub mod conv;
pub mod fc;
pub mod pool;
pub mod relu;

pub use conv::Conv2d;
pub use fc::FullyConnected;
pub use pool::MaxPool2d;
pub use relu::ReLU;
