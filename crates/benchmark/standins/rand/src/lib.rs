//! Empty stand-in: the crates the benchmark builds declare `rand` but call nothing from it.
