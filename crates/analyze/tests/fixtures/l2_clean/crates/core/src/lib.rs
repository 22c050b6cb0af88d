//! Library code under the panic policy.

/// Annotated sites and test-module sites are fine.
pub fn ok(x: Option<u32>) -> u32 {
    // analyze: allow(panic): the caller guarantees Some by construction.
    x.expect("always Some")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
