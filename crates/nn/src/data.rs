//! Synthetic datasets.
//!
//! The paper's datasets (CIFAR-10, ILSVRC12, ImageNet22K) are substituted by
//! a learnable synthetic classification task: each class is a random Gaussian
//! prototype "image" and samples are noisy copies of their class prototype.
//! The tensor shapes match the originals, so the systems measurements (bytes,
//! batch shapes) are faithful, and the task is genuinely learnable, so the
//! statistical experiments (Figures 9b, 11) compare convergence meaningfully.

use crate::layer::TensorShape;
use poseidon_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An in-memory labelled dataset of flattened sample tensors.
#[derive(Clone, Debug)]
pub struct Dataset {
    shape: TensorShape,
    samples: Matrix,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Generates a Gaussian-cluster dataset.
    ///
    /// Each of `classes` classes gets a prototype drawn from `N(0, 1)`;
    /// every sample is `prototype + N(0, noise²)` with a uniformly random
    /// class. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `count == 0`.
    pub fn gaussian_clusters(
        shape: TensorShape,
        classes: usize,
        count: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(
            classes > 0 && count > 0,
            "need at least one class and one sample"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let d = shape.len();
        let mut prototypes = Matrix::zeros(classes, d);
        poseidon_tensor::init::gaussian(&mut prototypes, 0.0, 1.0, &mut rng);

        let mut samples = Matrix::zeros(count, d);
        let mut labels = Vec::with_capacity(count);
        for s in 0..count {
            let label = rng.gen_range(0..classes);
            labels.push(label);
            let proto = prototypes.row(label).to_vec();
            let row = samples.row_mut(s);
            for (x, p) in row.iter_mut().zip(proto) {
                *x = p + noise * poseidon_tensor::init::standard_normal(&mut rng);
            }
        }
        Self {
            shape,
            samples,
            labels,
            classes,
        }
    }

    /// Sample tensor shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff the dataset is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Extracts the minibatch of `batch` samples starting at `start`,
    /// wrapping around the end of the dataset.
    pub fn minibatch(&self, start: usize, batch: usize) -> (Matrix, Vec<usize>) {
        assert!(batch > 0, "empty minibatch");
        let mut x = Matrix::zeros(batch, self.shape.len());
        let mut y = Vec::with_capacity(batch);
        for i in 0..batch {
            let idx = (start + i) % self.len();
            x.row_mut(i).copy_from_slice(self.samples.row(idx));
            y.push(self.labels[idx]);
        }
        (x, y)
    }

    /// Splits off the first `n` samples into one dataset and the rest into
    /// another (train/test split sharing the same class prototypes).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n < len`.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n > 0 && n < self.len(), "split point {n} out of range");
        let take = |from: usize, to: usize| {
            let mut samples = Matrix::zeros(to - from, self.shape.len());
            let mut labels = Vec::with_capacity(to - from);
            for i in from..to {
                samples
                    .row_mut(i - from)
                    .copy_from_slice(self.samples.row(i));
                labels.push(self.labels[i]);
            }
            Dataset {
                shape: self.shape,
                samples,
                labels,
                classes: self.classes,
            }
        };
        (take(0, n), take(n, self.len()))
    }

    /// Splits the dataset into `parts` contiguous, disjoint shards (data
    /// parallelism). Earlier shards get the remainder samples.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or `parts > len`.
    pub fn partition(&self, parts: usize) -> Vec<Dataset> {
        assert!(parts > 0, "bad partition count {parts}");
        (0..parts).map(|index| self.part(parts, index)).collect()
    }

    /// Shard `index` of [`Self::partition`]`(parts)`, copied alone.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`, `parts > len` or `index >= parts`.
    pub fn part(&self, parts: usize, index: usize) -> Dataset {
        assert!(
            parts > 0 && parts <= self.len(),
            "bad partition count {parts}"
        );
        assert!(index < parts, "shard {index} of {parts}");
        let base = self.len() / parts;
        let extra = self.len() % parts;
        let offset = index * base + index.min(extra);
        let size = base + usize::from(index < extra);
        let mut samples = Matrix::zeros(size, self.shape.len());
        for i in 0..size {
            samples
                .row_mut(i)
                .copy_from_slice(self.samples.row(offset + i));
        }
        Dataset {
            shape: self.shape,
            samples,
            labels: self.labels[offset..offset + size].to_vec(),
            classes: self.classes,
        }
    }

    /// Generates a *spatially smooth* Gaussian-cluster image dataset.
    ///
    /// Class prototypes are low-resolution (`h/4 × w/4`) random patterns
    /// upsampled by nearest-neighbour to the full image size, so class
    /// information survives convolution and pooling — the variant the CNN
    /// experiments (Figures 9b and 11) train on. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions are not divisible by 4, or
    /// `classes == 0` or `count == 0`.
    pub fn smooth_clusters(
        shape: TensorShape,
        classes: usize,
        count: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(
            shape.h.is_multiple_of(4) && shape.w.is_multiple_of(4),
            "spatial size must divide by 4"
        );
        assert!(
            classes > 0 && count > 0,
            "need at least one class and one sample"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let (lh, lw) = (shape.h / 4, shape.w / 4);
        let d = shape.len();

        // Low-res prototypes, upsampled 4x nearest-neighbour.
        let mut prototypes = Matrix::zeros(classes, d);
        for cls in 0..classes {
            let proto = prototypes.row_mut(cls);
            for ch in 0..shape.c {
                let mut coarse = vec![0.0f32; lh * lw];
                for v in &mut coarse {
                    *v = poseidon_tensor::init::standard_normal(&mut rng);
                }
                for y in 0..shape.h {
                    for x in 0..shape.w {
                        proto[ch * shape.h * shape.w + y * shape.w + x] =
                            coarse[(y / 4) * lw + (x / 4)];
                    }
                }
            }
        }

        let mut samples = Matrix::zeros(count, d);
        let mut labels = Vec::with_capacity(count);
        for s in 0..count {
            let label = rng.gen_range(0..classes);
            labels.push(label);
            let proto = prototypes.row(label).to_vec();
            let row = samples.row_mut(s);
            for (x, p) in row.iter_mut().zip(proto) {
                *x = p + noise * poseidon_tensor::init::standard_normal(&mut rng);
            }
        }
        Self {
            shape,
            samples,
            labels,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 50, 0.5, 9);
        let b = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 50, 0.5, 9);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.samples, b.samples);
        let c = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 50, 0.5, 10);
        assert_ne!(a.samples, c.samples, "different seed, different data");
    }

    #[test]
    fn minibatch_wraps_around() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(4), 2, 5, 0.1, 1);
        let (x, y) = d.minibatch(3, 4);
        assert_eq!(x.rows(), 4);
        assert_eq!(y.len(), 4);
        // Samples 3, 4, 0, 1.
        assert_eq!(x.row(2), d.samples.row(0));
        assert_eq!(y[2], d.labels[0]);
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(4), 3, 10, 0.1, 2);
        let parts = d.partition(3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 10);
        assert_eq!(parts[0].len(), 4, "remainder goes to early shards");
        assert_eq!(parts[1].len(), 3);
        // First sample of shard 1 is sample 4 of the original.
        assert_eq!(parts[1].samples.row(0), d.samples.row(4));
    }

    #[test]
    fn labels_are_in_range() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(4), 7, 100, 0.3, 3);
        assert!(d.labels.iter().all(|&l| l < 7));
        assert_eq!(d.classes(), 7);
    }

    #[test]
    fn clusters_are_separable_by_a_linear_probe() {
        // Sanity: nearest-prototype classification should beat chance easily,
        // i.e. the task is learnable.
        let shape = TensorShape::flat(16);
        let d = Dataset::gaussian_clusters(shape, 4, 200, 0.3, 5);
        // Recompute class means from the data.
        let mut means = Matrix::zeros(4, 16);
        let mut counts = [0usize; 4];
        for s in 0..d.len() {
            let l = d.labels[s];
            counts[l] += 1;
            for (m, &x) in means.row_mut(l).iter_mut().zip(d.samples.row(s)) {
                *m += x;
            }
        }
        for (l, &count) in counts.iter().enumerate() {
            let inv = 1.0 / count.max(1) as f32;
            for m in means.row_mut(l) {
                *m *= inv;
            }
        }
        let mut correct = 0usize;
        for s in 0..d.len() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for l in 0..4 {
                let dist: f32 = means
                    .row(l)
                    .iter()
                    .zip(d.samples.row(s))
                    .map(|(m, x)| (m - x) * (m - x))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = l;
                }
            }
            correct += usize::from(best == d.labels[s]);
        }
        assert!(
            correct as f32 / d.len() as f32 > 0.9,
            "nearest-mean accuracy only {correct}/200"
        );
    }

    #[test]
    fn split_at_is_disjoint_and_complete() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(4), 2, 10, 0.1, 4);
        let (tr, te) = d.split_at(7);
        assert_eq!(tr.len(), 7);
        assert_eq!(te.len(), 3);
        assert_eq!(te.samples.row(0), d.samples.row(7));
        assert_eq!(tr.classes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_at_bounds_checked() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(4), 2, 10, 0.1, 4);
        let _ = d.split_at(10);
    }

    #[test]
    fn smooth_clusters_are_deterministic_and_shaped() {
        let a = Dataset::smooth_clusters(TensorShape::new(3, 16, 16), 5, 40, 0.3, 9);
        let b = Dataset::smooth_clusters(TensorShape::new(3, 16, 16), 5, 40, 0.3, 9);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.classes(), 5);
        assert_eq!(a.shape().len(), 768);
    }

    #[test]
    fn smooth_prototypes_are_blockwise_constant() {
        // With zero noise, every 4x4 block of a sample is constant.
        let d = Dataset::smooth_clusters(TensorShape::new(1, 8, 8), 2, 4, 0.0, 3);
        let s = d.samples.row(0);
        for by in 0..2 {
            for bx in 0..2 {
                let v = s[(by * 4) * 8 + bx * 4];
                for y in 0..4 {
                    for x in 0..4 {
                        assert_eq!(s[(by * 4 + y) * 8 + (bx * 4 + x)], v);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide by 4")]
    fn smooth_clusters_reject_odd_sizes() {
        let _ = Dataset::smooth_clusters(TensorShape::new(1, 6, 8), 2, 4, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "bad partition count")]
    fn over_partition_panics() {
        let d = Dataset::gaussian_clusters(TensorShape::flat(2), 2, 3, 0.1, 1);
        let _ = d.partition(4);
    }
}
