//! Library code violating the panic policy.

/// A naked unwrap.
pub fn naked(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// A naked expect and a panic.
pub fn shouting(x: Option<u32>) -> u32 {
    if x.is_none() {
        panic!("boom");
    }
    x.expect("checked above")
}

/// An annotation that forgot its reason.
pub fn unreasoned(x: Option<u32>) -> u32 {
    // analyze: allow(panic):
    x.expect("why though")
}
