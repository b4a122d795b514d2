//! Empty stand-in: the crates the benchmark builds declare `serde` but call nothing from it.
