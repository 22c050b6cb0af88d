//! A crate that never registered in the layering DAG.
