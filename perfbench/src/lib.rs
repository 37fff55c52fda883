//! The Harmony reproduction's benchmark: four workloads measured end to end
//! (`--trace 0`) and layer by layer (`--trace 1`). See `NOTES.md` beside
//! this package for why each workload exists and how to read the figures.

pub mod alloc;
pub mod cpu;
pub mod driver;
pub mod live;
pub mod report;
pub mod sim;
pub mod trace;
