//! # hfi-util — dependency-free utilities shared across the workspace
//!
//! The build must work with **no registry access** (the experiment
//! containers are offline), so anything that would normally come from a
//! small external crate is vendored here instead. Currently that is a
//! deterministic PRNG ([`Rng`]: xoshiro256++ seeded via SplitMix64),
//! used for kernel input generation, the FaaS queue simulation, and the
//! randomized property tests that used to depend on `rand`/`proptest`,
//! and [`panic_message`], which renders a caught panic for a journal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;

pub use rng::{split_mix64, Rng};

/// Renders a `catch_unwind` payload as a message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
