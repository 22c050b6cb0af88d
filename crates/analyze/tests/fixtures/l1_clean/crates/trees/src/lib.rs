//! Trees layer: may use the bitmatrix layer below it.

/// Re-wrap a word.
pub fn wrap(w: treecast_bitmatrix::Word) -> treecast_bitmatrix::Word {
    w
}
