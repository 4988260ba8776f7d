//! The memcached request-path benchmark: four workloads over the
//! simulated cluster, end-to-end metrics from untraced rounds, and a
//! traced run that times each layer's public entry points from
//! outside. `report` holds the round structure and every metric's
//! definition; `workloads` the four workloads and one round of each.

pub mod alloc;
pub mod cpu;
pub mod loadgen;
pub mod report;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
