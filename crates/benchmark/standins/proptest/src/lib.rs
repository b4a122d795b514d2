//! Empty stand-in: the crates the benchmark builds declare `proptest` but call nothing from it.
