//! The evaluation networks of the paper (Table 3) plus AlexNet.
//!
//! Per-model notes on how our parameter totals relate to the paper's rounded
//! numbers are in each constructor's doc comment and re-checked by tests.

use super::builder::SpecBuilder;
use super::spec::ModelSpec;
use crate::layer::TensorShape;

/// Caffe's `cifar10_quick` (paper: 145.6K parameters, batch 100).
///
/// conv 32@5×5 → pool → conv 32@5×5 → pool → conv 64@5×5 → pool →
/// fc 64 → fc 10. Parameter count matches the paper exactly (145,578).
pub fn cifar10_quick() -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 32, 32));
    b.conv("conv1", 32, 5, 1, 2)
        .pool("pool1", 3, 2, 1)
        .conv("conv2", 32, 5, 1, 2)
        .pool("pool2", 3, 2, 1)
        .conv("conv3", 64, 5, 1, 2)
        .pool("pool3", 3, 2, 1)
        .fc("ip1", 64)
        .fc("ip2", 10);
    ModelSpec {
        name: "CIFAR-10 quick",
        dataset: "CIFAR10",
        default_batch: 100,
        layers: b.build(),
        paper_single_node_ips: None,
    }
}

/// AlexNet (Krizhevsky et al.; paper Section 2.2 quotes 61.5M parameters).
///
/// Uses the original two-group convolutions; our total is 62.4M — the classic
/// "60M" round-off plus the LRN-free fc6 input (6×6×256).
pub fn alexnet() -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 227, 227));
    b.conv("conv1", 96, 11, 4, 0)
        .pool("pool1", 3, 2, 0)
        .conv_grouped("conv2", 256, 5, 5, 1, 2, 2, 2)
        .pool("pool2", 3, 2, 0)
        .conv("conv3", 384, 3, 1, 1)
        .conv_grouped("conv4", 384, 3, 3, 1, 1, 1, 2)
        .conv_grouped("conv5", 256, 3, 3, 1, 1, 1, 2)
        .pool("pool5", 3, 2, 0)
        .fc("fc6", 4096)
        .fc("fc7", 4096)
        .fc("fc8", 1000);
    ModelSpec {
        name: "AlexNet",
        dataset: "ILSVRC12",
        default_batch: 256,
        layers: b.build(),
        paper_single_node_ips: None,
    }
}

/// Emits one GoogLeNet inception module (flattened branches).
///
/// `cfg = (#1×1, #3×3reduce, #3×3, #5×5reduce, #5×5, pool-proj)`.
fn inception(b: &mut SpecBuilder, name: &str, cfg: (usize, usize, usize, usize, usize, usize)) {
    let (c1, c3r, c3, c5r, c5, pp) = cfg;
    let input = b.shape();
    b.conv(&format!("{name}/1x1"), c1, 1, 1, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/3x3_reduce"), c3r, 1, 1, 0);
    b.conv(&format!("{name}/3x3"), c3, 3, 1, 1);
    b.set_shape(input);
    b.conv(&format!("{name}/5x5_reduce"), c5r, 1, 1, 0);
    b.conv(&format!("{name}/5x5"), c5, 5, 1, 2);
    b.set_shape(input);
    b.pool(&format!("{name}/pool"), 3, 1, 1);
    b.conv(&format!("{name}/pool_proj"), pp, 1, 1, 0);
    b.set_shape(TensorShape::new(c1 + c3 + c5 + pp, input.h, input.w));
}

/// GoogLeNet (Szegedy et al. 2015; paper Table 3: 5M parameters, batch 128).
///
/// 22 weighted layers, single thin FC classifier (1000×1024). The exact
/// deploy-network count (with biases, without the training-only auxiliary
/// classifiers) is 7.0M; the paper's "5M" is the original "12× fewer
/// parameters than AlexNet" approximation from Szegedy et al.
pub fn googlenet() -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 224, 224));
    b.conv("conv1/7x7_s2", 64, 7, 2, 3)
        .pool("pool1/3x3_s2", 3, 2, 1)
        .conv("conv2/3x3_reduce", 64, 1, 1, 0)
        .conv("conv2/3x3", 192, 3, 1, 1)
        .pool("pool2/3x3_s2", 3, 2, 1);
    inception(&mut b, "inception_3a", (64, 96, 128, 16, 32, 32));
    inception(&mut b, "inception_3b", (128, 128, 192, 32, 96, 64));
    b.pool("pool3/3x3_s2", 3, 2, 1);
    inception(&mut b, "inception_4a", (192, 96, 208, 16, 48, 64));
    inception(&mut b, "inception_4b", (160, 112, 224, 24, 64, 64));
    inception(&mut b, "inception_4c", (128, 128, 256, 24, 64, 64));
    inception(&mut b, "inception_4d", (112, 144, 288, 32, 64, 64));
    inception(&mut b, "inception_4e", (256, 160, 320, 32, 128, 128));
    b.pool("pool4/3x3_s2", 3, 2, 1);
    inception(&mut b, "inception_5a", (256, 160, 320, 32, 128, 128));
    inception(&mut b, "inception_5b", (384, 192, 384, 48, 128, 128));
    b.global_avgpool("pool5/7x7_s1");
    b.fc("loss3/classifier", 1000);
    ModelSpec {
        name: "GoogLeNet",
        dataset: "ILSVRC12",
        default_batch: 128,
        layers: b.build(),
        paper_single_node_ips: Some(257.0),
    }
}

/// Inception-A block at 35×35 (`pf` = pool-projection channels).
fn inception_a(b: &mut SpecBuilder, name: &str, pf: usize) {
    let input = b.shape();
    b.conv(&format!("{name}/1x1"), 64, 1, 1, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/5x5_reduce"), 48, 1, 1, 0);
    b.conv(&format!("{name}/5x5"), 64, 5, 1, 2);
    b.set_shape(input);
    b.conv(&format!("{name}/3x3dbl_reduce"), 64, 1, 1, 0);
    b.conv(&format!("{name}/3x3dbl_1"), 96, 3, 1, 1);
    b.conv(&format!("{name}/3x3dbl_2"), 96, 3, 1, 1);
    b.set_shape(input);
    b.pool(&format!("{name}/pool"), 3, 1, 1);
    b.conv(&format!("{name}/pool_proj"), pf, 1, 1, 0);
    b.set_shape(TensorShape::new(64 + 64 + 96 + pf, input.h, input.w));
}

/// Inception-C block at 17×17 with `c7` intermediate channels.
fn inception_c(b: &mut SpecBuilder, name: &str, c7: usize) {
    let input = b.shape();
    b.conv(&format!("{name}/1x1"), 192, 1, 1, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/7x7_reduce"), c7, 1, 1, 0);
    b.conv_rect(&format!("{name}/1x7"), c7, 1, 7, 1, 0, 3);
    b.conv_rect(&format!("{name}/7x1"), 192, 7, 1, 1, 3, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/7x7dbl_reduce"), c7, 1, 1, 0);
    b.conv_rect(&format!("{name}/7x1_2"), c7, 7, 1, 1, 3, 0);
    b.conv_rect(&format!("{name}/1x7_2"), c7, 1, 7, 1, 0, 3);
    b.conv_rect(&format!("{name}/7x1_3"), c7, 7, 1, 1, 3, 0);
    b.conv_rect(&format!("{name}/1x7_3"), 192, 1, 7, 1, 0, 3);
    b.set_shape(input);
    b.pool(&format!("{name}/pool"), 3, 1, 1);
    b.conv(&format!("{name}/pool_proj"), 192, 1, 1, 0);
    b.set_shape(TensorShape::new(768, input.h, input.w));
}

/// Inception-E block at 8×8.
fn inception_e(b: &mut SpecBuilder, name: &str) {
    let input = b.shape();
    b.conv(&format!("{name}/1x1"), 320, 1, 1, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/3x3_reduce"), 384, 1, 1, 0);
    let mid = b.shape();
    b.conv_rect(&format!("{name}/1x3"), 384, 1, 3, 1, 0, 1);
    b.set_shape(mid);
    b.conv_rect(&format!("{name}/3x1"), 384, 3, 1, 1, 1, 0);
    b.set_shape(input);
    b.conv(&format!("{name}/3x3dbl_reduce"), 448, 1, 1, 0);
    b.conv(&format!("{name}/3x3dbl"), 384, 3, 1, 1);
    let mid2 = b.shape();
    b.conv_rect(&format!("{name}/3x3dbl_1x3"), 384, 1, 3, 1, 0, 1);
    b.set_shape(mid2);
    b.conv_rect(&format!("{name}/3x3dbl_3x1"), 384, 3, 1, 1, 1, 0);
    b.set_shape(input);
    b.pool(&format!("{name}/pool"), 3, 1, 1);
    b.conv(&format!("{name}/pool_proj"), 192, 1, 1, 0);
    b.set_shape(TensorShape::new(2048, input.h, input.w));
}

/// Inception-V3 (Szegedy et al. 2016; paper Table 3: 27M parameters, batch 32).
///
/// Full stem + A/B/C/D/E blocks + the auxiliary classifier that is active
/// during training (which is what the paper's 27M includes: 23.9M main +
/// 3.4M aux).
pub fn inception_v3() -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 299, 299));
    b.conv("conv1_3x3_s2", 32, 3, 2, 0)
        .conv("conv2_3x3", 32, 3, 1, 0)
        .conv("conv3_3x3", 64, 3, 1, 1)
        .pool("pool1_3x3_s2", 3, 2, 0)
        .conv("conv4_1x1", 80, 1, 1, 0)
        .conv("conv5_3x3", 192, 3, 1, 0)
        .pool("pool2_3x3_s2", 3, 2, 0);
    inception_a(&mut b, "mixed_35a", 32);
    inception_a(&mut b, "mixed_35b", 64);
    inception_a(&mut b, "mixed_35c", 64);
    // Reduction B: 35×35 → 17×17.
    {
        let input = b.shape();
        b.conv("mixed_17a/3x3_s2", 384, 3, 2, 0);
        b.set_shape(input);
        b.conv("mixed_17a/3x3dbl_reduce", 64, 1, 1, 0);
        b.conv("mixed_17a/3x3dbl_1", 96, 3, 1, 1);
        b.conv("mixed_17a/3x3dbl_2_s2", 96, 3, 2, 0);
        b.set_shape(input);
        b.pool("mixed_17a/pool", 3, 2, 0);
        b.set_shape(TensorShape::new(768, 17, 17));
    }
    inception_c(&mut b, "mixed_17b", 128);
    inception_c(&mut b, "mixed_17c", 160);
    inception_c(&mut b, "mixed_17d", 160);
    inception_c(&mut b, "mixed_17e", 192);
    // Auxiliary classifier (training-time): avgpool5/3 → 1×1/128 → 5×5/768 → fc.
    {
        let input = b.shape();
        b.pool("aux/avgpool_5x5_s3", 5, 3, 0);
        b.conv("aux/conv_1x1", 128, 1, 1, 0);
        b.conv("aux/conv_5x5", 768, 5, 1, 0);
        b.fc("aux/fc", 1000);
        b.set_shape(input);
    }
    // Reduction D: 17×17 → 8×8.
    {
        let input = b.shape();
        b.conv("mixed_8a/3x3_reduce", 192, 1, 1, 0);
        b.conv("mixed_8a/3x3_s2", 320, 3, 2, 0);
        b.set_shape(input);
        b.conv("mixed_8a/7x7_reduce", 192, 1, 1, 0);
        b.conv_rect("mixed_8a/1x7", 192, 1, 7, 1, 0, 3);
        b.conv_rect("mixed_8a/7x1", 192, 7, 1, 1, 3, 0);
        b.conv("mixed_8a/3x3_s2b", 192, 3, 2, 0);
        b.set_shape(input);
        b.pool("mixed_8a/pool", 3, 2, 0);
        b.set_shape(TensorShape::new(1280, 8, 8));
    }
    inception_e(&mut b, "mixed_8b");
    inception_e(&mut b, "mixed_8c");
    b.global_avgpool("pool3_8x8_s1");
    b.fc("fc", 1000);
    ModelSpec {
        name: "Inception-V3",
        dataset: "ILSVRC12",
        default_batch: 32,
        layers: b.build(),
        paper_single_node_ips: Some(43.2),
    }
}

/// VGG19 with a configurable classifier width (1000 for ILSVRC12).
fn vgg19_with_classes(
    name: &'static str,
    dataset: &'static str,
    classes: usize,
    ips: Option<f64>,
) -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 224, 224));
    let stages: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 4), (512, 4), (512, 4)];
    for (stage, &(width, convs)) in stages.iter().enumerate() {
        for i in 0..convs {
            b.conv(&format!("conv{}_{}", stage + 1, i + 1), width, 3, 1, 1);
        }
        b.pool(&format!("pool{}", stage + 1), 2, 2, 0);
    }
    b.fc("fc6", 4096).fc("fc7", 4096).fc("fc8", classes);
    ModelSpec {
        name,
        dataset,
        default_batch: 32,
        layers: b.build(),
        paper_single_node_ips: ips,
    }
}

/// VGG19 (Simonyan & Zisserman; paper Table 3: 143M parameters, batch 32).
///
/// Exact count 143.7M; 86% of the parameters live in the three FC layers.
pub fn vgg19() -> ModelSpec {
    vgg19_with_classes("VGG19", "ILSVRC12", 1000, Some(35.5))
}

/// VGG19-22K — VGG19 with a 21,841-way classifier for ImageNet22K (paper
/// Table 3: 229M parameters, batch 32; the three FC layers hold 91%).
pub fn vgg19_22k() -> ModelSpec {
    vgg19_with_classes("VGG19-22K", "ImageNet22K", 21_841, Some(34.6))
}

/// ResNet-152 (He et al.; paper Table 3: 60.2M parameters, batch 32).
///
/// Bottleneck blocks `[3, 8, 36, 3]` with batch-norm after every convolution;
/// exact count 60.3M.
pub fn resnet152() -> ModelSpec {
    let mut b = SpecBuilder::new(TensorShape::new(3, 224, 224));
    b.conv("conv1", 64, 7, 2, 3)
        .batchnorm("bn_conv1")
        .pool("pool1", 3, 2, 1);
    let stages: [(usize, usize, usize); 4] =
        [(256, 3, 1), (512, 8, 2), (1024, 36, 2), (2048, 3, 2)];
    for (s, &(width, blocks, first_stride)) in stages.iter().enumerate() {
        let mid = width / 4;
        for blk in 0..blocks {
            let name = format!("res{}_{blk}", s + 2);
            let input = b.shape();
            let stride = if blk == 0 { first_stride } else { 1 };
            // Projection shortcut on the first block of each stage.
            if blk == 0 {
                b.conv(&format!("{name}/shortcut"), width, 1, stride, 0);
                b.batchnorm(&format!("{name}/shortcut_bn"));
                b.set_shape(input);
            }
            b.conv(&format!("{name}/1x1_reduce"), mid, 1, stride, 0);
            b.batchnorm(&format!("{name}/1x1_reduce_bn"));
            b.conv(&format!("{name}/3x3"), mid, 3, 1, 1);
            b.batchnorm(&format!("{name}/3x3_bn"));
            b.conv(&format!("{name}/1x1_expand"), width, 1, 1, 0);
            b.batchnorm(&format!("{name}/1x1_expand_bn"));
        }
    }
    b.global_avgpool("pool5");
    b.fc("fc1000", 1000);
    ModelSpec {
        name: "ResNet-152",
        dataset: "ILSVRC12",
        default_batch: 32,
        layers: b.build(),
        paper_single_node_ips: Some(40.0),
    }
}

/// All seven descriptor models, in Table 3 order (plus AlexNet last).
pub fn all_models() -> Vec<ModelSpec> {
    vec![
        cifar10_quick(),
        googlenet(),
        inception_v3(),
        vgg19(),
        vgg19_22k(),
        resnet152(),
        alexnet(),
    ]
}

/// The models a command line can name, by that name: the six ImageNet-scale
/// networks (CIFAR-10 quick trains for real and is not simulated by name).
const NAMED: [(&str, Constructor); 6] = [
    ("googlenet", googlenet),
    ("inception", inception_v3),
    ("vgg19", vgg19),
    ("vgg19-22k", vgg19_22k),
    ("resnet152", resnet152),
    ("alexnet", alexnet),
];

/// A model's constructor.
type Constructor = fn() -> ModelSpec;

/// Every name [`by_name`] accepts.
pub fn names() -> impl Iterator<Item = &'static str> {
    NAMED.iter().map(|&(name, _)| name)
}

/// The model a command line names (`vgg19`, `vgg19-22k`, ...), if any.
pub fn by_name(name: &str) -> Option<ModelSpec> {
    NAMED
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, model)| model())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::SpecKind;

    fn assert_within(actual: u64, expect: f64, tol: f64, what: &str) {
        let rel = (actual as f64 - expect).abs() / expect;
        assert!(
            rel <= tol,
            "{what}: {actual} deviates {:.1}% from paper's {expect}",
            rel * 100.0
        );
    }

    #[test]
    fn by_name_knows_each_imagenet_model_by_one_name() {
        let expect = [
            ("googlenet", "GoogLeNet"),
            ("inception", "Inception-V3"),
            ("vgg19", "VGG19"),
            ("vgg19-22k", "VGG19-22K"),
            ("resnet152", "ResNet-152"),
            ("alexnet", "AlexNet"),
        ];
        assert_eq!(names().collect::<Vec<_>>(), expect.map(|(name, _)| name));
        for (name, model) in expect {
            let spec = by_name(name).unwrap_or_else(|| panic!("{name} unknown"));
            assert_eq!(spec.name, model);
        }
        for unknown in ["", "VGG19", "vgg", "vgg19 ", "cifar10-quick", "resnet-152"] {
            assert!(by_name(unknown).is_none(), "{unknown:?} accepted");
        }
    }

    #[test]
    fn cifar_quick_matches_table3_exactly() {
        let m = cifar10_quick();
        assert_eq!(m.total_params(), 145_578);
        assert_eq!(m.default_batch, 100);
    }

    #[test]
    fn vgg19_matches_table3() {
        let m = vgg19();
        assert_within(m.total_params(), 143.7e6, 0.01, "VGG19 params");
        // fc6 is 4096 × 25088.
        let fc6 = m.layers.iter().find(|l| l.name == "fc6").unwrap();
        assert_eq!(fc6.fc_shape(), Some((4096, 25088)));
        assert_eq!(fc6.params, 4096 * 25088 + 4096);
        // FC share ≈ 86%.
        assert!(m.fc_fraction() > 0.84 && m.fc_fraction() < 0.88);
    }

    #[test]
    fn vgg19_22k_matches_table3() {
        let m = vgg19_22k();
        assert_within(m.total_params(), 229.0e6, 0.01, "VGG19-22K params");
        // Paper: "three FC layers that occupy 91% of model parameters".
        assert!(
            m.fc_fraction() > 0.90 && m.fc_fraction() < 0.92,
            "fc fraction {}",
            m.fc_fraction()
        );
    }

    #[test]
    fn googlenet_is_five_to_seven_million() {
        let m = googlenet();
        // Paper quotes 5M ("12x fewer than AlexNet"); the exact deploy
        // network with biases is 6.998M.
        assert!(
            m.total_params() > 5_000_000 && m.total_params() < 7_100_000,
            "GoogLeNet params {}",
            m.total_params()
        );
        // Exactly one FC layer, the thin 1000×1024 classifier.
        let fcs: Vec<_> = m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, SpecKind::FullyConnected { .. }))
            .collect();
        assert_eq!(fcs.len(), 1);
        assert_eq!(fcs[0].fc_shape(), Some((1000, 1024)));
    }

    #[test]
    fn inception_v3_matches_table3() {
        let m = inception_v3();
        assert_within(m.total_params(), 27.0e6, 0.03, "Inception-V3 params");
    }

    #[test]
    fn resnet152_matches_table3() {
        let m = resnet152();
        assert_within(m.total_params(), 60.2e6, 0.01, "ResNet-152 params");
    }

    #[test]
    fn alexnet_matches_section_2_2() {
        let m = alexnet();
        assert_within(m.total_params(), 61.5e6, 0.02, "AlexNet params");
    }

    #[test]
    fn vgg19_flops_are_plausible() {
        // Published VGG19 forward cost is 19.6 GMACs at 224², i.e. ~39.2
        // GFLOPs at 2 FLOPs per multiply-accumulate.
        let m = vgg19();
        let gf = m.fwd_flops() as f64 / 1e9;
        assert!(gf > 36.0 && gf < 43.0, "VGG19 fwd = {gf} GFLOPs");
    }

    #[test]
    fn googlenet_flops_are_plausible() {
        // Published ~1.5 GMACs ≈ 3 GFLOPs forward.
        let m = googlenet();
        let gf = m.fwd_flops() as f64 / 1e9;
        assert!(gf > 2.5 && gf < 4.0, "GoogLeNet fwd = {gf} GFLOPs");
    }

    #[test]
    fn resnet152_flops_are_plausible() {
        // Published ~11.3 GMACs ≈ 22.6 GFLOPs forward.
        let m = resnet152();
        let gf = m.fwd_flops() as f64 / 1e9;
        assert!(gf > 20.0 && gf < 26.0, "ResNet-152 fwd = {gf} GFLOPs");
    }

    #[test]
    fn inception_v3_flops_are_plausible() {
        // Published ~5.7 GMACs ≈ 11.4 GFLOPs forward (+ aux).
        let m = inception_v3();
        let gf = m.fwd_flops() as f64 / 1e9;
        assert!(gf > 10.0 && gf < 14.0, "Inception-V3 fwd = {gf} GFLOPs");
    }

    #[test]
    fn vgg19_per_layer_counts_match_published_table() {
        // Spot-check individual layers against the architecture table of
        // Simonyan & Zisserman (weights + biases).
        let m = vgg19();
        let by_name = |name: &str| m.layers.iter().find(|l| l.name == name).unwrap().params;
        assert_eq!(by_name("conv1_1"), (3 * 9 * 64 + 64) as u64);
        assert_eq!(by_name("conv1_2"), (64 * 9 * 64 + 64) as u64);
        assert_eq!(by_name("conv3_1"), (128 * 9 * 256 + 256) as u64);
        assert_eq!(by_name("conv5_4"), (512 * 9 * 512 + 512) as u64);
        assert_eq!(by_name("fc7"), (4096 * 4096 + 4096) as u64);
        assert_eq!(by_name("fc8"), (4096 * 1000 + 1000) as u64);
    }

    #[test]
    fn googlenet_inception_3a_matches_published_config() {
        // Module 3a on 192 channels: 64 1x1 + (96 -> 128) 3x3 + (16 -> 32)
        // 5x5 + 32 pool-proj.
        let m = googlenet();
        let p = |name: &str| m.layers.iter().find(|l| l.name == name).unwrap().params;
        assert_eq!(p("inception_3a/1x1"), (192 * 64 + 64) as u64);
        assert_eq!(p("inception_3a/3x3_reduce"), (192 * 96 + 96) as u64);
        assert_eq!(p("inception_3a/3x3"), (96 * 9 * 128 + 128) as u64);
        assert_eq!(p("inception_3a/5x5_reduce"), (192 * 16 + 16) as u64);
        assert_eq!(p("inception_3a/5x5"), (16 * 25 * 32 + 32) as u64);
        assert_eq!(p("inception_3a/pool_proj"), (192 * 32 + 32) as u64);
    }

    #[test]
    fn resnet152_structure_counts() {
        let m = resnet152();
        // 3 + 8 + 36 + 3 bottlenecks, 3 convs each, plus conv1 and 4
        // projection shortcuts = 155 convolutions.
        let convs = m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, SpecKind::Conv))
            .count();
        assert_eq!(convs, 155, "ResNet-152's published conv count");
        // One batch-norm per convolution.
        let norms = m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, SpecKind::Norm))
            .count();
        assert_eq!(norms, 155);
    }

    #[test]
    fn alexnet_fc6_dominates_parameters() {
        // fc6 (9216 -> 4096) alone holds ~62% of AlexNet's parameters — the
        // skew the paper's Section 2.2 motivating example relies on.
        let m = alexnet();
        let fc6 = m.layers.iter().find(|l| l.name == "fc6").unwrap();
        assert_eq!(fc6.params, (9216 * 4096 + 4096) as u64);
        assert!(fc6.params as f64 / m.total_params() as f64 > 0.55);
    }

    #[test]
    fn all_models_have_unique_layer_names() {
        for m in all_models() {
            let mut names: Vec<_> = m.layers.iter().map(|l| l.name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before, "{}: duplicate layer names", m.name);
        }
    }

    #[test]
    fn backward_flops_exceed_forward() {
        for m in all_models() {
            assert!(m.bwd_flops() > m.fwd_flops(), "{}", m.name);
        }
    }

    #[test]
    fn batch_sizes_match_table3() {
        let batches: Vec<(String, usize)> = all_models()
            .into_iter()
            .map(|m| (m.name.to_string(), m.default_batch))
            .collect();
        assert!(batches.contains(&("CIFAR-10 quick".into(), 100)));
        assert!(batches.contains(&("GoogLeNet".into(), 128)));
        assert!(batches.contains(&("Inception-V3".into(), 32)));
        assert!(batches.contains(&("VGG19".into(), 32)));
        assert!(batches.contains(&("VGG19-22K".into(), 32)));
        assert!(batches.contains(&("ResNet-152".into(), 32)));
    }
}
