//! The global DNN partitioner: decides how one inference request is split
//! across the edge *cluster* (paper §III, "Global partitioner").

use crate::dp::{ChainSegment, WorkloadSummary};
use crate::dse::{Decision, DseAgent};
use crate::system_model::SystemModel;
use crate::CoreError;
use hidp_dnn::{DnnGraph, PartitionMode};
use hidp_platform::{Cluster, NodeIndex};
use serde::{Deserialize, Serialize};

/// What a node receives from the global partitioner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShareKind {
    /// A contiguous block of layers (model partitioning); positions are
    /// topological node indices into the graph.
    Block {
        /// First layer (inclusive).
        first: usize,
        /// Last layer (inclusive).
        last: usize,
    },
    /// A fraction of the input data (data partitioning).
    DataPart {
        /// Fraction of the input processed by this node.
        fraction: f64,
    },
}

/// One node's portion of the global assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalShare {
    /// The node executing this share.
    pub node: NodeIndex,
    /// What the node executes.
    pub kind: ShareKind,
    /// Flops the node must execute for this share.
    pub flops: u64,
    /// Bytes shipped *to* the node before it can start (activation block or
    /// input slice).
    pub input_bytes: u64,
    /// Bytes the node produces (forwarded down the pipeline or returned to
    /// the leader).
    pub output_bytes: u64,
    /// Bytes of halo synchronisation with sibling shares (data mode only).
    pub sync_bytes: u64,
}

/// The complete global decision for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalAssignment {
    /// The selected partitioning mode.
    pub mode: PartitionMode,
    /// Per-node shares. For model mode these are pipeline stages in order;
    /// for data mode they are parallel parts.
    pub shares: Vec<GlobalShare>,
    /// Latency estimated by the DSE agent, in seconds.
    pub estimated_latency: f64,
    /// The raw DSE decision (kept for ablation and tracing).
    pub decision: Decision,
}

impl GlobalAssignment {
    /// Nodes participating in this assignment.
    pub fn nodes(&self) -> Vec<NodeIndex> {
        self.shares.iter().map(|s| s.node).collect()
    }

    /// Total flops across all shares.
    pub fn total_flops(&self) -> u64 {
        self.shares.iter().map(|s| s.flops).sum()
    }
}

/// Converts a graph into DP chain segments delimited by its cut points.
///
/// Runs in O(number of segments): each segment's flops come from the
/// graph's construction-time prefix sums ([`DnnGraph::span_flops`]) instead
/// of re-summing `graph.cost(pos)` over `first..=boundary` per segment,
/// which made this walk quadratic in the layer count for chain-shaped
/// models (every layer a cut point).
pub fn chain_segments(graph: &DnnGraph) -> Vec<ChainSegment> {
    let mut boundaries: Vec<usize> = graph.cut_points().iter().map(|id| id.0).collect();
    boundaries.push(graph.len() - 1);
    let mut segments = Vec::with_capacity(boundaries.len());
    let mut first = 0usize;
    for boundary in boundaries {
        if boundary < first {
            continue;
        }
        let boundary_bytes = graph
            .cost(hidp_dnn::NodeId(boundary))
            .expect("position is inside the graph")
            .output_bytes;
        segments.push(ChainSegment {
            flops: graph.span_flops(first, boundary),
            boundary_bytes,
        });
        first = boundary + 1;
    }
    segments
}

/// Builds the [`WorkloadSummary`] the DP searches consume for a whole graph.
/// O(1): every field is a constant stored in the graph.
pub fn workload_summary(graph: &DnnGraph) -> WorkloadSummary {
    WorkloadSummary {
        input_bytes: graph.input_shape().bytes(),
        output_bytes: graph.output_shape().bytes(),
        flops: graph.total_flops(),
        // The per-boundary halo traffic: what the data-partition model
        // reports for a two-way split's edge part (one row per layer).
        sync_bytes: graph.halo_row_bytes(),
    }
}

/// The global partitioner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalPartitioner {
    /// The DSE agent used to pick the mode and partition points.
    pub dse: DseAgent,
    /// Whether node rates account for *all* processors (HiDP) or only the
    /// framework-default processor, i.e. the GPU (global-only baselines).
    pub core_aware: bool,
    /// Upper bound on the data-partitioning parallelism `σ` (0 = number of
    /// available nodes).
    pub max_parts: usize,
}

impl GlobalPartitioner {
    /// Creates the HiDP global partitioner (core-aware, hybrid DSE).
    pub fn hidp() -> Self {
        Self {
            dse: DseAgent::new(),
            core_aware: true,
            max_parts: 0,
        }
    }

    /// Partitions `graph` over the available nodes of `cluster`, coordinated
    /// by `leader`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when the cluster has no available
    /// nodes or the DSE finds no feasible decision.
    pub fn partition(
        &self,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<GlobalAssignment, CoreError> {
        let model = SystemModel::new(graph, leader);
        let resources = if self.core_aware {
            model.global_resources(cluster)
        } else {
            model.global_resources_gpu_only(cluster)
        };
        if resources.is_empty() {
            return Err(CoreError::Infeasible {
                what: "no available nodes in the cluster".into(),
            });
        }
        let segments = chain_segments(graph);
        let workload = workload_summary(graph);
        let max_parts = if self.max_parts == 0 {
            resources.len()
        } else {
            self.max_parts.min(resources.len())
        };
        let decision = self
            .dse
            .explore(&segments, &resources, workload, max_parts)?;

        // Segment position → graph node position of each segment end.
        let mut seg_end_positions: Vec<usize> = graph.cut_points().iter().map(|id| id.0).collect();
        seg_end_positions.push(graph.len() - 1);

        let shares = match decision.mode {
            PartitionMode::Model => {
                let search = decision
                    .model
                    .as_ref()
                    .expect("model decision carries a model search");
                let mut shares = Vec::with_capacity(search.block_ends.len());
                let mut first_segment = 0usize;
                for (block_idx, (&seg_end, &resource_idx)) in search
                    .block_ends
                    .iter()
                    .zip(search.assignments.iter())
                    .enumerate()
                {
                    let first = if first_segment == 0 {
                        0
                    } else {
                        seg_end_positions[first_segment - 1] + 1
                    };
                    let last = seg_end_positions[seg_end];
                    let flops: u64 = segments[first_segment..=seg_end]
                        .iter()
                        .map(|s| s.flops)
                        .sum();
                    let input_bytes = if block_idx == 0 {
                        workload.input_bytes
                    } else {
                        segments[first_segment - 1].boundary_bytes
                    };
                    let output_bytes = segments[seg_end].boundary_bytes;
                    shares.push(GlobalShare {
                        node: resources[resource_idx].node,
                        kind: ShareKind::Block { first, last },
                        flops,
                        input_bytes,
                        output_bytes,
                        sync_bytes: 0,
                    });
                    first_segment = seg_end + 1;
                }
                shares
            }
            PartitionMode::Data => {
                let search = decision
                    .data
                    .as_ref()
                    .expect("data decision carries a data search");
                let sigma = search.shares.len();
                search
                    .shares
                    .iter()
                    .map(|share| {
                        let sync = if sigma == 1 { 0 } else { workload.sync_bytes };
                        GlobalShare {
                            node: resources[share.resource].node,
                            kind: ShareKind::DataPart {
                                fraction: share.fraction,
                            },
                            flops: (workload.flops as f64 * share.fraction) as u64 + sync / 4,
                            input_bytes: (workload.input_bytes as f64 * share.fraction).ceil()
                                as u64,
                            output_bytes: (workload.output_bytes as f64 * share.fraction).ceil()
                                as u64,
                            sync_bytes: sync,
                        }
                    })
                    .collect()
            }
        };

        Ok(GlobalAssignment {
            mode: decision.mode,
            estimated_latency: decision.latency,
            shares,
            decision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_dnn::partition::{data_partition, even_fractions};
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;

    #[test]
    fn chain_segments_cover_all_flops() {
        for model in WorkloadModel::ALL {
            let graph = model.graph(1);
            let segments = chain_segments(&graph);
            let total: u64 = segments.iter().map(|s| s.flops).sum();
            assert_eq!(total, graph.total_flops(), "{model}");
            assert_eq!(segments.len(), graph.cut_points().len() + 1, "{model}");
        }
    }

    #[test]
    fn workload_summary_matches_graph() {
        let graph = WorkloadModel::Vgg19.graph(1);
        let w = workload_summary(&graph);
        assert_eq!(w.flops, graph.total_flops());
        assert_eq!(w.input_bytes, graph.input_shape().bytes());
        assert_eq!(w.output_bytes, graph.output_shape().bytes());
        assert!(w.sync_bytes > 0);
        for model in WorkloadModel::ALL {
            let graph = model.graph(2);
            let split = data_partition(&graph, &even_fractions(2)).unwrap();
            assert_eq!(
                workload_summary(&graph).sync_bytes,
                split.parts[0].sync_bytes,
                "{model}"
            );
        }
    }

    #[test]
    fn hidp_partitioner_produces_consistent_shares() {
        let cluster = presets::paper_cluster();
        for model in WorkloadModel::ALL {
            let graph = model.graph(1);
            let assignment = GlobalPartitioner::hidp()
                .partition(&graph, &cluster, NodeIndex(0))
                .unwrap();
            assert!(!assignment.shares.is_empty(), "{model}");
            assert!(assignment.estimated_latency > 0.0);
            match assignment.mode {
                PartitionMode::Data => {
                    let fractions: f64 = assignment
                        .shares
                        .iter()
                        .map(|s| match s.kind {
                            ShareKind::DataPart { fraction } => fraction,
                            _ => panic!("data assignment must contain data shares"),
                        })
                        .sum();
                    assert!((fractions - 1.0).abs() < 1e-9, "{model}");
                }
                PartitionMode::Model => {
                    // Blocks must tile the graph.
                    let mut expected_first = 0usize;
                    for share in &assignment.shares {
                        match share.kind {
                            ShareKind::Block { first, last } => {
                                assert_eq!(first, expected_first, "{model}");
                                expected_first = last + 1;
                            }
                            _ => panic!("model assignment must contain blocks"),
                        }
                    }
                    assert_eq!(expected_first, graph.len(), "{model}");
                    assert_eq!(assignment.total_flops(), graph.total_flops(), "{model}");
                }
            }
        }
    }

    #[test]
    fn core_aware_rates_never_hurt_the_estimate() {
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::ResNet152.graph(1);
        let aware = GlobalPartitioner::hidp()
            .partition(&graph, &cluster, NodeIndex(0))
            .unwrap();
        let gpu_only = GlobalPartitioner {
            core_aware: false,
            ..GlobalPartitioner::hidp()
        }
        .partition(&graph, &cluster, NodeIndex(0))
        .unwrap();
        assert!(aware.estimated_latency <= gpu_only.estimated_latency + 1e-12);
    }

    #[test]
    fn unavailable_nodes_receive_no_work() {
        let mut cluster = presets::paper_cluster();
        cluster.set_available(NodeIndex(1), false).unwrap();
        cluster.set_available(NodeIndex(2), false).unwrap();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        let assignment = GlobalPartitioner::hidp()
            .partition(&graph, &cluster, NodeIndex(0))
            .unwrap();
        for share in &assignment.shares {
            assert_ne!(share.node, NodeIndex(1));
            assert_ne!(share.node, NodeIndex(2));
        }
    }

    #[test]
    fn single_node_cluster_degenerates_to_local_execution() {
        let cluster = presets::tx2_only();
        let graph = WorkloadModel::InceptionV3.graph(1);
        let assignment = GlobalPartitioner::hidp()
            .partition(&graph, &cluster, NodeIndex(0))
            .unwrap();
        assert_eq!(assignment.shares.len(), 1);
        assert_eq!(assignment.shares[0].node, NodeIndex(0));
    }
}
