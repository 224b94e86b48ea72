//! Neural-network layers: convolutions, linear, normalization, pooling,
//! upsampling and activation modules.

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;
mod sequential;

pub use activation::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use conv::{Conv2d, ConvTranspose2d};
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{MaxPool2d, UpsampleNearest2d};
pub use sequential::Sequential;
