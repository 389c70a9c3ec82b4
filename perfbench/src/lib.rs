//! Measured benchmark of the Skyway transfer path.
//!
//! `adapter` is the only module that calls into the program; the others
//! work on the plain values it returns. See `README.md` for the workloads
//! and what every metric means.

pub mod adapter;
pub mod fold;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod workloads;
