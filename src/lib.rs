//! # boon60-lab — workspace root package
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`) at the workspace root; they
//! depend on the member crates directly. Library users should depend on
//! the individual crates (`mmwave-core` pulls in everything below it).
