//! Empty stand-in: the crates the benchmark builds declare `crossbeam` but call nothing from it.
