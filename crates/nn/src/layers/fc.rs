//! Fully-connected layer — the layer class whose gradients decompose into
//! sufficient factors.

use crate::layer::{held, BackwardNeeds, Layer, LayerKind, ParamBlock, TensorShape};
use crate::parallel;
use poseidon_tensor::{Matrix, SfBatch, SufficientFactor};
use rand::Rng;

/// A dense layer `y = W·x + b` with weights of shape `out × in`.
///
/// Over a batch the weight gradient is `Σₖ δₖ·xₖᵀ`, i.e. a sum of per-sample
/// rank-1 terms — exactly the structure sufficient-factor broadcasting
/// exploits (Section 2.1 of the paper). After each `backward` call the
/// factors `(δₖ, xₖ)` of that batch are available via
/// [`Layer::sufficient_factors`].
pub struct FullyConnected {
    name: String,
    in_features: usize,
    out_features: usize,
    params: ParamBlock,
    /// Input of the last forward pass (needed for both grads and SFs).
    cached_input: Option<Matrix>,
    /// Output gradient of the last backward pass (the `u` factors).
    cached_delta: Option<Matrix>,
    needs: BackwardNeeds,
}

impl FullyConnected {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut params = ParamBlock::new(out_features, in_features);
        poseidon_tensor::init::xavier(&mut params.weights, in_features, out_features, rng);
        Self {
            name: name.into(),
            in_features,
            out_features,
            params,
            cached_input: None,
            cached_delta: None,
            needs: BackwardNeeds::ALL,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for FullyConnected {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::FullyConnected
    }

    fn output_shape(&self) -> TensorShape {
        TensorShape::flat(self.out_features)
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_features,
            "{}: input has {} features, expected {}",
            self.name,
            input.cols(),
            self.in_features
        );
        // y = x · Wᵀ + b, rows are samples; sample rows fan out across
        // compute threads. Each output element folds its dot product in the
        // same order regardless of the row partition, so the result is
        // bitwise identical at every thread count.
        let k = input.rows();
        let width = self.out_features;
        let mut out = Matrix::zeros(k, width);
        let weights = &self.params.weights;
        let bias = &self.params.bias;
        parallel::par_row_chunks(k, width, out.as_mut_slice(), |range, chunk| {
            input.matmul_nt_rows_into(weights, range.clone(), chunk);
            for i in 0..range.len() {
                let row = &mut chunk[i * width..(i + 1) * width];
                for (o, &b) in row.iter_mut().zip(bias.row(0)) {
                    *o += b;
                }
            }
        });
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        assert_eq!(grad_out.rows(), input.rows(), "batch size mismatch");
        assert_eq!(grad_out.cols(), self.out_features, "grad width mismatch");

        // ∂L/∂W = δᵀ · x  (out × in), parallel over weight rows, written
        // over the held buffer: the GEMM writes every element. A buffer of
        // another shape (one lent out and not given back) is replaced. Each
        // element sums over samples in ascending order whatever the
        // partition, keeping gradients thread-count independent.
        let (rows, cols) = (self.out_features, self.in_features);
        if self.needs.weight_grad {
            let gw = held(&mut self.params.grad_weights, rows, cols);
            parallel::par_row_chunks(rows, cols, gw.as_mut_slice(), |range, chunk| {
                grad_out.matmul_tn_rows_into(input, range, chunk)
            });
        }

        // ∂L/∂b = column sums of δ (cheap; kept serial).
        let gb = held(&mut self.params.grad_bias, 1, rows);
        gb.clear();
        for r in 0..grad_out.rows() {
            for (g, &d) in gb.row_mut(0).iter_mut().zip(grad_out.row(r)) {
                *g += d;
            }
        }

        // ∂L/∂x = δ · W  (K × in), parallel over sample rows; a chunk of at
        // most 16 rows streams `W` once, row by row, instead of packing it.
        let grad_in = if self.needs.input_grad {
            let weights = &self.params.weights;
            let mut grad_in = Matrix::zeros(grad_out.rows(), self.in_features);
            parallel::par_row_chunks(
                grad_out.rows(),
                self.in_features,
                grad_in.as_mut_slice(),
                |range, chunk| grad_out.matmul_rows_into(weights, range, chunk),
            );
            grad_in
        } else {
            Matrix::zeros(1, 1)
        };

        self.cached_delta = Some(grad_out.clone());
        grad_in
    }

    fn set_backward_needs(&mut self, needs: BackwardNeeds) {
        self.needs = needs;
    }

    fn params(&self) -> Option<&ParamBlock> {
        Some(&self.params)
    }

    fn params_mut(&mut self) -> Option<&mut ParamBlock> {
        Some(&mut self.params)
    }

    fn sufficient_factors(&self) -> Option<SfBatch> {
        let delta = self.cached_delta.as_ref()?;
        let input = self.cached_input.as_ref()?;
        let mut batch = SfBatch::new();
        for k in 0..delta.rows() {
            batch.push(SufficientFactor::new(
                delta.row(k).to_vec(),
                input.row(k).to_vec(),
            ));
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(inf: usize, outf: usize) -> FullyConnected {
        FullyConnected::new("fc", inf, outf, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut fc = layer(2, 2);
        fc.params_mut().unwrap().weights = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        fc.params_mut().unwrap().bias = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = fc.forward(&x);
        // y0 = 1+2+0.5 = 3.5, y1 = 3+4-0.5 = 6.5
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_numeric_differentiation() {
        let mut fc = layer(3, 2);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        // Loss = sum of outputs, so grad_out = ones.
        let ones = Matrix::filled(2, 2, 1.0);
        fc.forward(&x);
        fc.backward(&ones);
        let analytic = fc.params().unwrap().grad_weights.clone();

        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let orig = fc.params().unwrap().weights[(r, c)];
                fc.params_mut().unwrap().weights[(r, c)] = orig + eps;
                let up = fc.forward(&x).sum();
                fc.params_mut().unwrap().weights[(r, c)] = orig - eps;
                let dn = fc.forward(&x).sum();
                fc.params_mut().unwrap().weights[(r, c)] = orig;
                let numeric = (up - dn) / (2.0 * eps);
                assert!(
                    (analytic[(r, c)] - numeric).abs() < 1e-2,
                    "dW[{r},{c}] analytic {} vs numeric {numeric}",
                    analytic[(r, c)]
                );
            }
        }
    }

    #[test]
    fn bias_gradient_is_column_sum_of_delta() {
        let mut fc = layer(2, 3);
        let x = Matrix::filled(4, 2, 1.0);
        fc.forward(&x);
        let delta = Matrix::from_vec(
            4,
            3,
            vec![1.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        );
        fc.backward(&delta);
        assert_eq!(fc.params().unwrap().grad_bias.as_slice(), &[3.0, 2.0, 3.0]);
    }

    #[test]
    fn sufficient_factors_reconstruct_exact_weight_gradient() {
        let mut fc = layer(5, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Matrix::zeros(6, 5);
        let mut d = Matrix::zeros(6, 4);
        poseidon_tensor::init::gaussian(&mut x, 0.0, 1.0, &mut rng);
        poseidon_tensor::init::gaussian(&mut d, 0.0, 1.0, &mut rng);
        fc.forward(&x);
        fc.backward(&d);
        let sfs = fc.sufficient_factors().unwrap();
        assert_eq!(sfs.len(), 6, "one factor pair per sample");
        let rebuilt = sfs.reconstruct();
        let direct = &fc.params().unwrap().grad_weights;
        assert!(rebuilt.max_abs_diff(direct) < 1e-4);

        // The bias gradient is the sum of the u factors.
        let mut bias = [0.0f32; 4];
        for sf in sfs.factors() {
            for (b, &u) in bias.iter_mut().zip(&sf.u) {
                *b += u;
            }
        }
        for (i, &b) in bias.iter().enumerate() {
            assert!((b - fc.params().unwrap().grad_bias[(0, i)]).abs() < 1e-4);
        }
    }

    #[test]
    fn grad_input_matches_numeric_differentiation() {
        let mut fc = layer(3, 2);
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.7, 1.1]);
        fc.forward(&x);
        let gin = fc.backward(&Matrix::filled(1, 2, 1.0));
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut xp = x.clone();
            xp[(0, c)] += eps;
            let up = fc.forward(&xp).sum();
            let mut xm = x.clone();
            xm[(0, c)] -= eps;
            let dn = fc.forward(&xm).sum();
            let numeric = (up - dn) / (2.0 * eps);
            assert!((gin[(0, c)] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut fc = layer(2, 2);
        fc.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn kind_and_shape_metadata() {
        let fc = layer(8, 3);
        assert_eq!(fc.kind(), LayerKind::FullyConnected);
        assert_eq!(fc.output_shape(), TensorShape::flat(3));
        assert_eq!(fc.params().unwrap().num_params(), 8 * 3 + 3);
        assert_eq!(fc.name(), "fc");
    }
}
