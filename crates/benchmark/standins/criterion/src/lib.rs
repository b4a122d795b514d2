//! Empty stand-in: the crates the benchmark builds declare `criterion` but call nothing from it.
