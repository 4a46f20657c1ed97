//! Data (input-wise) partitioning: splitting one inference request into `σ`
//! parallel sub-model executions.
//!
//! Each part processes a fraction of the input (a batch slice or a spatial
//! slab) and therefore performs roughly that fraction of the network's
//! flops, plus a synchronisation overhead for exchanging halo rows between
//! neighbouring parts after every spatial layer — the
//! computation-to-communication trade-off the paper describes in §II-A.

use crate::graph::DnnGraph;
use crate::DnnError;
use serde::{Deserialize, Serialize};

/// One parallel piece of a data partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPart {
    /// Index of the part.
    pub index: usize,
    /// Fraction of the input assigned to this part (0, 1].
    pub fraction: f64,
    /// Estimated flops for this part (fraction of the total plus halo work).
    pub flops: u64,
    /// Input bytes shipped to the executor of this part.
    pub input_bytes: u64,
    /// Output bytes returned by this part (fraction of the network output).
    pub output_bytes: u64,
    /// Bytes exchanged with neighbouring parts (halo synchronisation).
    pub sync_bytes: u64,
}

/// A complete data-wise partition of one inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPartition {
    /// The parallel parts.
    pub parts: Vec<DataPart>,
    /// Bytes of the final merge performed by the coordinating node.
    pub merge_bytes: u64,
}

impl DataPartition {
    /// Number of parallel parts (`σ` in the paper).
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether there are no parts (never true for valid partitions).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total estimated flops across all parts (≥ the unpartitioned total
    /// because of halo recomputation/synchronisation).
    pub fn total_flops(&self) -> u64 {
        self.parts.iter().map(|p| p.flops).sum()
    }

    /// Total bytes moved for input distribution, synchronisation and merging.
    pub fn total_communication_bytes(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.input_bytes + p.sync_bytes)
            .sum::<u64>()
            + self.merge_bytes
    }
}

/// Returns `parts` equal fractions summing to one.
pub fn even_fractions(parts: usize) -> Vec<f64> {
    vec![1.0 / parts as f64; parts.max(1)]
}

/// Builds a data partition of `graph` where part `i` processes `fractions[i]`
/// of the input.
///
/// # Errors
///
/// Returns [`DnnError::InvalidPartition`] when `fractions` is empty, contains
/// non-positive or non-finite values, or does not sum to 1 (within 1e-6).
pub fn data_partition(graph: &DnnGraph, fractions: &[f64]) -> Result<DataPartition, DnnError> {
    if fractions.is_empty() {
        return Err(DnnError::InvalidPartition {
            what: "data partition requires at least one part".into(),
        });
    }
    if fractions.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err(DnnError::InvalidPartition {
            what: format!("fractions must be positive and finite, got {fractions:?}"),
        });
    }
    let sum: f64 = fractions.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(DnnError::InvalidPartition {
            what: format!("fractions must sum to 1, got {sum}"),
        });
    }

    let total_flops = graph.total_flops();
    let input_bytes = graph.input_shape().bytes();
    let output_bytes = graph.output_shape().bytes();
    let parts = fractions
        .iter()
        .enumerate()
        .map(|(index, &fraction)| {
            // Halo traffic: one boundary row of every spatially-preserving
            // layer's output per neighbour (two for interior parts).
            let neighbours = match fractions.len() {
                1 => 0,
                len if index > 0 && index + 1 < len => 2,
                _ => 1,
            };
            let sync = graph.halo_row_bytes() * neighbours;
            // Halo rows are recomputed by both neighbours; approximate the
            // extra work as the flops equivalent of the exchanged bytes.
            let halo_flops = sync / 4;
            DataPart {
                index,
                fraction,
                flops: (total_flops as f64 * fraction) as u64 + halo_flops,
                input_bytes: (input_bytes as f64 * fraction).ceil() as u64,
                output_bytes: (output_bytes as f64 * fraction).ceil() as u64,
                sync_bytes: sync,
            }
        })
        .collect();
    Ok(DataPartition {
        parts,
        merge_bytes: output_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn even_fractions_sum_to_one() {
        for n in 1..=8 {
            let f = even_fractions(n);
            assert_eq!(f.len(), n);
            assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_part_has_no_sync_overhead() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        let p = data_partition(&g, &[1.0]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.parts[0].sync_bytes, 0);
        assert_eq!(p.parts[0].flops, g.total_flops());
    }

    #[test]
    fn more_parts_means_more_total_work() {
        let g = zoo::vgg19(224, 1);
        let p1 = data_partition(&g, &even_fractions(1)).unwrap();
        let p2 = data_partition(&g, &even_fractions(2)).unwrap();
        let p4 = data_partition(&g, &even_fractions(4)).unwrap();
        assert!(p2.total_flops() > p1.total_flops());
        assert!(p4.total_flops() > p2.total_flops());
        assert!(p4.total_communication_bytes() > p2.total_communication_bytes());
    }

    #[test]
    fn per_part_flops_track_fractions() {
        let g = zoo::small::tiny_cnn(32, 1, 10);
        let p = data_partition(&g, &[0.75, 0.25]).unwrap();
        assert!(p.parts[0].flops > p.parts[1].flops);
        assert!(p.parts[0].input_bytes > p.parts[1].input_bytes);
    }

    #[test]
    fn interior_parts_sync_twice_as_much() {
        let g = zoo::small::tiny_cnn(32, 1, 10);
        let p = data_partition(&g, &even_fractions(3)).unwrap();
        assert_eq!(p.parts[0].sync_bytes * 2, p.parts[1].sync_bytes);
        assert_eq!(p.parts[2].sync_bytes, p.parts[0].sync_bytes);
    }

    #[test]
    fn invalid_fractions_are_rejected() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        assert!(data_partition(&g, &[]).is_err());
        assert!(data_partition(&g, &[0.5, 0.6]).is_err());
        assert!(data_partition(&g, &[0.5, -0.5, 1.0]).is_err());
        assert!(data_partition(&g, &[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn merge_bytes_equal_network_output() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        let p = data_partition(&g, &even_fractions(4)).unwrap();
        assert_eq!(p.merge_bytes, g.output_shape().bytes());
    }
}
