//! The four workloads. Each module's header says what runs and why.

pub mod campaign;
pub mod hit_baked;
pub mod line_mixed;
pub mod miss_stream;
