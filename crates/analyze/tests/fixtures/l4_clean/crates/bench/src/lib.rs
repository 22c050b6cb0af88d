//! Bench harness.
