//! Empty on purpose: this package exists for its `[[test]]` targets (see
//! `Cargo.toml`), which are the repository's proptest-free suites by path.
