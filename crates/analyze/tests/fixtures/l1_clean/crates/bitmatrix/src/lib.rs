//! Base layer.

/// A word.
pub struct Word(pub u64);
