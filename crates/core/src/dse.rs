//! The Design Space Exploration (DSE) agent.
//!
//! Both the global and the local partitioner consult a DSE agent to find the
//! optimal partitioning *mode* (model vs data) and the corresponding
//! partitioning points (paper §III, Algorithm 1 lines 4–6 and 8–10): the
//! agent runs both dynamic-programming searches over the same resource
//! vector and returns whichever mode yields the lower estimated latency,
//! `Θ = min(Θ_ω, Θ_σ)`.

use crate::dp::{
    data_partition_search, model_partition_search, ChainSegment, DataSearch, ModelSearch,
    WorkloadSummary,
};
use crate::system_model::Resource;
use crate::CoreError;
use hidp_dnn::PartitionMode;
use serde::{Deserialize, Serialize};

/// The decision returned by the DSE agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The selected partitioning mode.
    pub mode: PartitionMode,
    /// The model-partitioning search result (present when it was feasible).
    pub model: Option<ModelSearch>,
    /// The data-partitioning search result (present when it was feasible).
    pub data: Option<DataSearch>,
    /// Estimated latency of the selected mode, in seconds (`Θ`).
    pub latency: f64,
}

impl Decision {
    /// Estimated latency of the mode that was *not* selected, if it was
    /// explored. Useful for ablation studies.
    pub fn rejected_latency(&self) -> Option<f64> {
        match self.mode {
            PartitionMode::Model => self.data.as_ref().map(|d| d.latency),
            PartitionMode::Data => self.model.as_ref().map(|m| m.latency),
        }
    }
}

/// Exploration policy: which modes the agent is allowed to consider.
/// HiDP uses [`DsePolicy::Hybrid`]; the forced variants exist for the
/// ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DsePolicy {
    /// Consider both modes and pick the faster one (HiDP default).
    #[default]
    Hybrid,
    /// Only consider model (layer-wise) partitioning.
    ModelOnly,
    /// Only consider data (input-wise) partitioning.
    DataOnly,
}

/// The DSE agent. Stateless: each call explores one workload over one
/// resource vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DseAgent {
    /// The exploration policy.
    pub policy: DsePolicy,
}

impl DseAgent {
    /// Creates an agent with the default hybrid policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an agent with an explicit policy.
    pub fn with_policy(policy: DsePolicy) -> Self {
        Self { policy }
    }

    /// Explores partitioning of the workload described by `segments` /
    /// `workload` over `resources` and returns the best decision.
    ///
    /// `max_parts` bounds the data-partitioning parallelism `σ` (use the
    /// number of resources for no extra bound).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no mode produces a feasible
    /// result (e.g. empty resource vector).
    pub fn explore(
        &self,
        segments: &[ChainSegment],
        resources: &[Resource],
        workload: WorkloadSummary,
        max_parts: usize,
    ) -> Result<Decision, CoreError> {
        let model = if self.policy != DsePolicy::DataOnly {
            model_partition_search(segments, resources, workload).ok()
        } else {
            None
        };
        let data = if self.policy != DsePolicy::ModelOnly {
            data_partition_search(resources, workload, max_parts).ok()
        } else {
            None
        };

        let model_latency = model.as_ref().map(|m| m.latency).unwrap_or(f64::INFINITY);
        let data_latency = data.as_ref().map(|d| d.latency).unwrap_or(f64::INFINITY);
        if !model_latency.is_finite() && !data_latency.is_finite() {
            return Err(CoreError::Infeasible {
                what: "neither partitioning mode produced a feasible plan".into(),
            });
        }
        let (mode, latency) = if model_latency <= data_latency {
            (PartitionMode::Model, model_latency)
        } else {
            (PartitionMode::Data, data_latency)
        };
        Ok(Decision {
            mode,
            model,
            data,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::NodeIndex;

    fn resource(node: usize, rate: f64, comm_rate: f64) -> Resource {
        Resource {
            node: NodeIndex(node),
            processor: None,
            name: format!("r{node}"),
            rate,
            comm_rate,
        }
    }

    fn segments(count: usize, flops: u64) -> Vec<ChainSegment> {
        (0..count)
            .map(|_| ChainSegment {
                flops,
                boundary_bytes: 200_000,
            })
            .collect()
    }

    #[test]
    fn hybrid_picks_data_for_heavy_parallel_friendly_work() {
        // Lots of compute, cheap sync: data partitioning across two equal
        // nodes halves the compute time.
        let agent = DseAgent::new();
        let res = vec![resource(0, 1e9, f64::INFINITY), resource(1, 1e9, 80e6)];
        let workload = WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops: 40_000_000_000,
            sync_bytes: 100_000,
        };
        let decision = agent
            .explore(&segments(10, 4_000_000_000), &res, workload, 4)
            .unwrap();
        assert_eq!(decision.mode, PartitionMode::Data);
        assert!(decision.latency < 40.0);
        assert!(decision.rejected_latency().is_some());
    }

    #[test]
    fn hybrid_picks_model_when_sync_is_prohibitive() {
        // Small activations but enormous halo traffic make data partitioning
        // unattractive; model mode (single block on the fastest node) wins.
        let agent = DseAgent::new();
        let res = vec![resource(0, 2e9, f64::INFINITY), resource(1, 1e9, 10e6)];
        let workload = WorkloadSummary {
            input_bytes: 100_000,
            output_bytes: 4_000,
            flops: 1_000_000_000,
            sync_bytes: 200_000_000,
        };
        let decision = agent
            .explore(&segments(6, 166_000_000), &res, workload, 4)
            .unwrap();
        assert_eq!(decision.mode, PartitionMode::Model);
    }

    #[test]
    fn nan_comm_rates_are_infeasible_not_a_zero_latency_plan() {
        // Both searches reject the NaN links, so the agent reports no plan
        // instead of a data split at 0.0 s.
        let res = vec![resource(0, 1e9, f64::NAN), resource(1, 1e9, f64::NAN)];
        let workload = WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops: 4_000_000_000,
            sync_bytes: 100_000,
        };
        let result = DseAgent::new().explore(&segments(4, 1_000_000_000), &res, workload, 2);
        assert!(
            matches!(result, Err(CoreError::Infeasible { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn forced_policies_restrict_the_mode() {
        let res = vec![resource(0, 1e9, f64::INFINITY), resource(1, 1e9, 80e6)];
        let workload = WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops: 40_000_000_000,
            sync_bytes: 100_000,
        };
        let segs = segments(10, 4_000_000_000);

        let model_only = DseAgent::with_policy(DsePolicy::ModelOnly)
            .explore(&segs, &res, workload, 4)
            .unwrap();
        assert_eq!(model_only.mode, PartitionMode::Model);
        assert!(model_only.data.is_none());

        let data_only = DseAgent::with_policy(DsePolicy::DataOnly)
            .explore(&segs, &res, workload, 4)
            .unwrap();
        assert_eq!(data_only.mode, PartitionMode::Data);
        assert!(data_only.model.is_none());

        // The hybrid decision is never worse than either forced policy.
        let hybrid = DseAgent::new().explore(&segs, &res, workload, 4).unwrap();
        assert!(hybrid.latency <= model_only.latency + 1e-12);
        assert!(hybrid.latency <= data_only.latency + 1e-12);
    }

    #[test]
    fn empty_resources_are_infeasible() {
        let agent = DseAgent::new();
        let workload = WorkloadSummary {
            input_bytes: 1,
            output_bytes: 1,
            flops: 1,
            sync_bytes: 0,
        };
        assert!(agent.explore(&segments(2, 1), &[], workload, 2).is_err());
    }
}
