//! # hidp-platform
//!
//! Heterogeneous edge platform models for the HiDP reproduction: processors
//! (CPU clusters, GPUs, NPUs), edge nodes, clusters, the wireless network
//! connecting them, and energy accounting.
//!
//! The paper evaluates on physical Jetson and Raspberry Pi boards; this crate
//! provides calibrated analytical models of the same devices
//! ([`presets::paper_cluster`]) so that the partitioning and scheduling code
//! paths can be exercised without the hardware. PAPER.md (*What this
//! repository reproduces*) explains why the reproduction is analytical.
//!
//! ```
//! use hidp_platform::presets;
//!
//! let cluster = presets::paper_cluster();
//! assert_eq!(cluster.len(), 5);
//! let tx2 = &cluster.nodes()[1];
//! assert_eq!(tx2.name, "jetson-tx2");
//! ```

#![warn(missing_docs)]

mod cluster;
mod drift;
mod error;
mod faultplan;
mod fingerprint;
mod fleet;
mod network;
mod node;
pub mod power;
pub mod presets;
mod processor;
mod timeline;

pub use cluster::Cluster;
pub use drift::{BandwidthContention, DriftModel, ThrottleWindow};
pub use error::PlatformError;
pub use faultplan::{SlowdownWindow, WanDegradation};
pub use fleet::{Fleet, WanModel};
pub use network::{Link, NetworkModel};
pub use node::{EdgeNode, NodeIndex, ProcessorAddr, ProcessorIndex};
pub use power::EnergyMeter;
pub use processor::{Processor, ProcessorKind};
pub use timeline::{AvailabilityEvent, ClusterTimeline};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PlatformError>;
