//! # aurora-workloads
//!
//! Offloadable kernels and input generators used by the examples,
//! integration tests and benchmarks. The kernels mirror the workloads
//! the paper's context motivates: dense linear algebra (the FETI solver
//! of related work \[10\] offloads batches of dense matrix kernels),
//! stencils, reductions, and the paper's own inner-product example
//! (Fig. 2).
//!
//! All kernels are defined with [`ham::ham_kernel!`]; call
//! [`register_all`] from your backend registrar to make every kernel
//! offloadable.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod generators;
pub mod kernels;

pub use generators::{random_matrix, random_vector};
pub use kernels::register_all;
