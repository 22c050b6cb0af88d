//! Deserialization is a trust boundary: documents that break the
//! masked-words invariant are rejected with an error instead of building
//! a set or matrix that miscounts or panics on first use.

use treecast_bitmatrix::{BitSet, BoolMatrix};

#[test]
fn bitset_rejects_tail_bits_and_a_wrong_word_count() {
    for (doc, why) in [
        // Decoded blindly, `len()` reports 8 elements of a 3-element universe.
        (r#"{"nbits":3,"words":[255]}"#, "past the 3-bit universe"),
        // Decoded blindly, `contains(150)` indexes past the words.
        (r#"{"nbits":200,"words":[0]}"#, "1 words"),
    ] {
        let err = serde::json::from_str::<BitSet>(doc).unwrap_err();
        assert!(err.to_string().contains(why), "{doc}: {err}");
    }
}

#[test]
fn matrix_rejects_a_wrong_shape_and_tail_bits() {
    for (doc, why) in [
        // Decoded blindly, `get(3, 3)` indexes an empty word vector.
        (r#"{"n":4,"stride":1,"words":[]}"#, "0 words"),
        (
            r#"{"n":4,"stride":2,"words":[0,0,0,0,0,0,0,0]}"#,
            "stride 2",
        ),
        (
            r#"{"n":2,"stride":1,"words":[1,4]}"#,
            "past the 2-bit universe",
        ),
    ] {
        let err = serde::json::from_str::<BoolMatrix>(doc).unwrap_err();
        assert!(err.to_string().contains(why), "{doc}: {err}");
    }
}

#[test]
fn valid_documents_round_trip() {
    let mut set = BitSet::new(67);
    set.insert(0);
    set.insert(66);
    let back: BitSet = serde::json::from_str(&serde::json::to_string(&set)).unwrap();
    assert_eq!(back, set);

    for n in [0, 70] {
        let mut m = BoolMatrix::identity(n);
        if n > 0 {
            m.set(3, n - 1, true);
        }
        let back: BoolMatrix = serde::json::from_str(&serde::json::to_string(&m)).unwrap();
        assert_eq!(back, m);
    }
}
