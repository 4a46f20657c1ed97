//! Model zoo: analytical graphs of the four DNN workloads evaluated in the
//! HiDP paper (ResNet-152, VGG-19, Inception-V3, EfficientNet-B0) plus small
//! networks used by execution and equivalence tests.
//!
//! The graphs are faithful at the block level (layer counts, channel widths,
//! strides follow the published architectures) so that per-layer flops,
//! parameter sizes and activation sizes — the only quantities the HiDP
//! decision problem consumes — are realistic. Squeeze-and-excitation blocks
//! in EfficientNet are omitted (they contribute <1% of flops), one of the
//! reproduction's analytical simplifications (PAPER.md, *What this
//! repository reproduces*).

mod efficientnet;
mod inception;
mod resnet;
pub mod small;
mod vgg;

pub use efficientnet::efficientnet_b0;
pub use inception::inception_v3;
pub use resnet::resnet152;
pub use vgg::vgg19;

use crate::DnnGraph;
use serde::{Deserialize, Serialize};

/// The four DNN workloads used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadModel {
    /// EfficientNet-B0, 224×224 input.
    EfficientNetB0,
    /// Inception-V3, 299×299 input.
    InceptionV3,
    /// ResNet-152, 224×224 input.
    ResNet152,
    /// VGG-19, 224×224 input.
    Vgg19,
}

impl WorkloadModel {
    /// All four models in the order the paper lists them.
    pub const ALL: [WorkloadModel; 4] = [
        WorkloadModel::EfficientNetB0,
        WorkloadModel::InceptionV3,
        WorkloadModel::ResNet152,
        WorkloadModel::Vgg19,
    ];

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadModel::EfficientNetB0 => "efficientnet_b0",
            WorkloadModel::InceptionV3 => "inception_v3",
            WorkloadModel::ResNet152 => "resnet152",
            WorkloadModel::Vgg19 => "vgg19",
        }
    }

    /// Input image resolution used by the paper (224 or 299).
    pub fn input_resolution(&self) -> usize {
        match self {
            WorkloadModel::InceptionV3 => 299,
            _ => 224,
        }
    }

    /// Builds the analytical graph for this model at the paper's resolution.
    pub fn graph(&self, batch: usize) -> DnnGraph {
        match self {
            WorkloadModel::EfficientNetB0 => efficientnet_b0(self.input_resolution(), batch),
            WorkloadModel::InceptionV3 => inception_v3(self.input_resolution(), batch),
            WorkloadModel::ResNet152 => resnet152(self.input_resolution(), batch),
            WorkloadModel::Vgg19 => vgg19(self.input_resolution(), batch),
        }
    }
}

impl std::fmt::Display for WorkloadModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for WorkloadModel {
    type Err = crate::DnnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "efficientnet_b0" | "efficientnet" | "efficientnetb0" => {
                Ok(WorkloadModel::EfficientNetB0)
            }
            "inception_v3" | "inception" | "inceptionv3" | "inceptionnetv3" => {
                Ok(WorkloadModel::InceptionV3)
            }
            "resnet152" | "resnet" | "resnet-152" => Ok(WorkloadModel::ResNet152),
            "vgg19" | "vgg" | "vgg-19" => Ok(WorkloadModel::Vgg19),
            other => Err(crate::DnnError::InvalidGraph {
                what: format!("unknown workload model `{other}`"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_and_have_expected_output() {
        for model in WorkloadModel::ALL {
            let g = model.graph(1);
            assert_eq!(g.output_shape().elements(), 1000, "{model}");
            assert!(g.total_flops() > 0);
            assert!(!g.cut_points().is_empty(), "{model} has no cut points");
        }
    }

    #[test]
    fn flops_are_in_published_ballpark() {
        // Published figures (2*MACs, single 224/299 image):
        //   VGG-19        ≈ 39.0 GFLOP
        //   ResNet-152    ≈ 22.6 GFLOP
        //   Inception-V3  ≈ 11.4 GFLOP
        //   EfficientNet-B0 ≈ 0.78 GFLOP
        let checks = [
            (WorkloadModel::Vgg19, 39.0e9, 0.25),
            (WorkloadModel::ResNet152, 22.6e9, 0.30),
            (WorkloadModel::InceptionV3, 11.4e9, 0.35),
            (WorkloadModel::EfficientNetB0, 0.78e9, 0.40),
        ];
        for (model, expected, tolerance) in checks {
            let flops = model.graph(1).total_flops() as f64;
            let rel = (flops - expected).abs() / expected;
            assert!(
                rel < tolerance,
                "{model}: {flops:.3e} flops deviates {rel:.2} from published {expected:.3e}"
            );
        }
    }

    #[test]
    fn parameter_counts_are_in_published_ballpark() {
        // Published parameter counts: VGG-19 ≈ 143.7M, ResNet-152 ≈ 60.2M,
        // Inception-V3 ≈ 23.9M, EfficientNet-B0 ≈ 5.3M (we omit SE blocks).
        let checks = [
            (WorkloadModel::Vgg19, 143.7e6, 0.10),
            (WorkloadModel::ResNet152, 60.2e6, 0.15),
            (WorkloadModel::InceptionV3, 23.9e6, 0.30),
            (WorkloadModel::EfficientNetB0, 5.3e6, 0.35),
        ];
        for (model, expected, tolerance) in checks {
            let params = model.graph(1).total_parameters() as f64;
            let rel = (params - expected).abs() / expected;
            assert!(
                rel < tolerance,
                "{model}: {params:.3e} params deviates {rel:.2} from published {expected:.3e}"
            );
        }
    }

    #[test]
    fn relative_model_ordering_matches_reality() {
        let flops: Vec<u64> = WorkloadModel::ALL
            .iter()
            .map(|m| m.graph(1).total_flops())
            .collect();
        // EfficientNet < Inception < ResNet < VGG.
        assert!(flops[0] < flops[1]);
        assert!(flops[1] < flops[2]);
        assert!(flops[2] < flops[3]);
    }

    #[test]
    fn efficientnet_is_least_gpu_friendly() {
        let aff: Vec<f64> = WorkloadModel::ALL
            .iter()
            .map(|m| m.graph(1).gpu_affinity())
            .collect();
        let eff = aff[0];
        assert!(
            eff < aff[3],
            "EfficientNet should be less GPU-friendly than VGG"
        );
    }

    #[test]
    fn name_round_trips_through_fromstr() {
        for model in WorkloadModel::ALL {
            let parsed: WorkloadModel = model.name().parse().unwrap();
            assert_eq!(parsed, model);
        }
        assert!("not-a-model".parse::<WorkloadModel>().is_err());
    }

    #[test]
    fn batch_scales_flops() {
        let g1 = WorkloadModel::EfficientNetB0.graph(1);
        let g2 = WorkloadModel::EfficientNetB0.graph(2);
        assert_eq!(g2.total_flops(), 2 * g1.total_flops());
    }
}
