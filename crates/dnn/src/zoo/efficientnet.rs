//! EfficientNet-B0 (Tan & Le, 2019): mobile inverted-bottleneck (MBConv)
//! blocks with depthwise convolutions and swish activations.
//!
//! Squeeze-and-excitation blocks are omitted (they contribute <1% of the
//! network's flops and do not change partitioning decisions); the omission is
//! one of the reproduction's analytical simplifications (PAPER.md, *What
//! this repository reproduces*). The heavy use of depthwise convolutions is what
//! makes this network comparatively CPU-friendly — the effect behind the P9
//! configuration winning for EfficientNet in Fig. 1 of the paper.

use crate::graph::{DnnGraph, GraphBuilder, NodeId};
use crate::layer::{LayerKind, Shape, Window};
use hidp_tensor::ops::Activation;

struct EffNetBuilder {
    b: GraphBuilder,
}

impl EffNetBuilder {
    fn conv_bn_swish(
        &mut self,
        name: &str,
        prev: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        activation: Activation,
    ) -> NodeId {
        let conv = self.b.layer(
            format!("{name}_conv"),
            LayerKind::Conv {
                out_channels,
                window: Window::square(kernel, stride, kernel / 2),
                activation: Activation::Linear,
            },
            &[prev],
        );
        let bn = self
            .b
            .layer(format!("{name}_bn"), LayerKind::BatchNorm, &[conv]);
        if activation == Activation::Linear {
            bn
        } else {
            self.b.layer(
                format!("{name}_act"),
                LayerKind::Activation { activation },
                &[bn],
            )
        }
    }

    fn depthwise_bn_swish(
        &mut self,
        name: &str,
        prev: NodeId,
        kernel: usize,
        stride: usize,
    ) -> NodeId {
        let dw = self.b.layer(
            format!("{name}_dw"),
            LayerKind::DepthwiseConv {
                window: Window::square(kernel, stride, kernel / 2),
                activation: Activation::Linear,
            },
            &[prev],
        );
        let bn = self
            .b
            .layer(format!("{name}_dwbn"), LayerKind::BatchNorm, &[dw]);
        self.b.layer(
            format!("{name}_dwact"),
            LayerKind::Activation {
                activation: Activation::Swish,
            },
            &[bn],
        )
    }

    /// MBConv block. `expand` is the expansion ratio (1 or 6 for B0).
    #[allow(clippy::too_many_arguments)]
    fn mbconv(
        &mut self,
        name: &str,
        prev: NodeId,
        in_channels: usize,
        out_channels: usize,
        expand: usize,
        kernel: usize,
        stride: usize,
    ) -> NodeId {
        let expanded = in_channels * expand;
        let mut x = prev;
        if expand != 1 {
            x = self.conv_bn_swish(
                &format!("{name}_expand"),
                x,
                expanded,
                1,
                1,
                Activation::Swish,
            );
        }
        x = self.depthwise_bn_swish(name, x, kernel, stride);
        let projected = self.conv_bn_swish(
            &format!("{name}_project"),
            x,
            out_channels,
            1,
            1,
            Activation::Linear,
        );
        if stride == 1 && in_channels == out_channels {
            self.b
                .layer(format!("{name}_add"), LayerKind::Add, &[prev, projected])
        } else {
            projected
        }
    }
}

/// Stage description: (expansion, output channels, repeats, kernel, stride).
const B0_STAGES: [(usize, usize, usize, usize, usize); 7] = [
    (1, 16, 1, 3, 1),
    (6, 24, 2, 3, 2),
    (6, 40, 2, 5, 2),
    (6, 80, 3, 3, 2),
    (6, 112, 3, 5, 1),
    (6, 192, 4, 5, 2),
    (6, 320, 1, 3, 1),
];

/// Builds EfficientNet-B0 for `resolution`×`resolution` RGB inputs (the paper
/// uses 224). The resolution must be divisible by 32.
pub fn efficientnet_b0(resolution: usize, batch: usize) -> DnnGraph {
    assert!(
        resolution >= 32 && resolution.is_multiple_of(32),
        "EfficientNet-B0 requires a resolution divisible by 32, got {resolution}"
    );
    let mut eb = EffNetBuilder {
        b: GraphBuilder::new("efficientnet_b0"),
    };
    let input = eb.b.input(Shape::map(batch, 3, resolution, resolution));
    let mut prev = eb.conv_bn_swish("stem", input, 32, 3, 2, Activation::Swish);
    let mut in_channels = 32usize;

    for (stage_idx, (expand, out_channels, repeats, kernel, stride)) in
        B0_STAGES.into_iter().enumerate()
    {
        for r in 0..repeats {
            let s = if r == 0 { stride } else { 1 };
            prev = eb.mbconv(
                &format!("mb{}_{}", stage_idx + 1, r + 1),
                prev,
                in_channels,
                out_channels,
                expand,
                kernel,
                s,
            );
            in_channels = out_channels;
        }
    }

    prev = eb.conv_bn_swish("head", prev, 1280, 1, 1, Activation::Swish);
    let gap = eb.b.layer("gap", LayerKind::GlobalAvgPool, &[prev]);
    let flat = eb.b.layer("flatten", LayerKind::Flatten, &[gap]);
    let fc = eb.b.layer(
        "fc",
        LayerKind::Dense {
            units: 1000,
            activation: Activation::Linear,
        },
        &[flat],
    );
    eb.b.layer("softmax", LayerKind::Softmax, &[fc]);
    eb.b.build()
        .expect("efficientnet_b0 graph is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_of(g: &DnnGraph, name: &str) -> Shape {
        let n = g.nodes().iter().find(|n| n.name == name).unwrap();
        g.cost(n.id).unwrap().output_shape.clone()
    }

    #[test]
    fn stage_shapes_match_published_architecture() {
        let g = efficientnet_b0(224, 1);
        assert_eq!(shape_of(&g, "stem_act"), Shape::map(1, 32, 112, 112));
        assert_eq!(
            shape_of(&g, "mb1_1_project_bn"),
            Shape::map(1, 16, 112, 112)
        );
        assert_eq!(shape_of(&g, "mb2_2_add"), Shape::map(1, 24, 56, 56));
        assert_eq!(shape_of(&g, "mb4_1_project_bn"), Shape::map(1, 80, 14, 14));
        assert_eq!(shape_of(&g, "mb7_1_project_bn"), Shape::map(1, 320, 7, 7));
        assert_eq!(shape_of(&g, "head_act"), Shape::map(1, 1280, 7, 7));
    }

    #[test]
    fn block_count_matches_b0() {
        let g = efficientnet_b0(224, 1);
        let dw_layers = g
            .nodes()
            .iter()
            .filter(|n| n.kind.category() == "dwconv")
            .count();
        // One depthwise conv per MBConv block: 1+2+2+3+3+4+1 = 16.
        assert_eq!(dw_layers, 16);
    }

    #[test]
    fn efficientnet_is_much_cheaper_than_vgg() {
        let eff = efficientnet_b0(224, 1);
        let vgg = super::super::vgg19(224, 1);
        assert!(vgg.total_flops() > 20 * eff.total_flops());
    }

    #[test]
    fn depthwise_flops_are_a_large_share() {
        // Sanity check for the CPU-friendliness argument: depthwise +
        // elementwise layers make up a noticeable share of EfficientNet's
        // work, unlike VGG.
        let g = efficientnet_b0(224, 1);
        let dw_flops: u64 = g
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind.category(),
                    "dwconv" | "batchnorm" | "activation" | "add"
                )
            })
            .map(|n| g.cost(n.id).unwrap().flops)
            .sum();
        let share = dw_flops as f64 / g.total_flops() as f64;
        assert!(share > 0.10, "depthwise/elementwise share was {share:.3}");
    }
}
