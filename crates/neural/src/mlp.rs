//! The multilayer perceptron.
//!
//! Each layer keeps its weights and weight velocities in one contiguous
//! row-major buffer, and every forward pass and backward step runs through
//! one allocation-free kernel writing into a [`Scratch`]. The kernel adds
//! the same terms in the same order as the nested-row form it replaced, so
//! trained networks are bit-identical (DESIGN.md §17).

use crate::activation::Activation;
use crate::dataset::NeuralError;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// One fully-connected layer.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// Input width: the length of one weight row.
    inputs: usize,
    /// `weights[j * inputs + i]`: weight from input `i` to neuron `j`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
    /// Momentum buffers, shaped like `weights`/`biases`.
    weight_velocity: Vec<f64>,
    bias_velocity: Vec<f64>,
}

/// A [`Layer`] as weight files store it, with nested `weights[j][i]` rows.
#[derive(Serialize, Deserialize)]
struct LayerFile {
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    activation: Activation,
    weight_velocity: Vec<Vec<f64>>,
    bias_velocity: Vec<f64>,
}

impl From<&Layer> for LayerFile {
    fn from(layer: &Layer) -> Self {
        let rows = |flat: &[f64]| flat.chunks(layer.inputs).map(<[f64]>::to_vec).collect();
        Self {
            weights: rows(&layer.weights),
            biases: layer.biases.clone(),
            activation: layer.activation,
            weight_velocity: rows(&layer.weight_velocity),
            bias_velocity: layer.bias_velocity.clone(),
        }
    }
}

impl Serialize for Layer {
    fn to_value(&self) -> Value {
        LayerFile::from(self).to_value()
    }
}

impl Deserialize for Layer {
    /// Refuses a layer whose rows are ragged, whose velocities are shaped
    /// unlike its weights, or that has no neuron or no input.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let file = LayerFile::from_value(v)?;
        let neurons = file.biases.len();
        let inputs = file.weights.first().map_or(0, Vec::len);
        let shaped =
            |rows: &[Vec<f64>]| rows.len() == neurons && rows.iter().all(|r| r.len() == inputs);
        if inputs == 0
            || !shaped(&file.weights)
            || !shaped(&file.weight_velocity)
            || file.bias_velocity.len() != neurons
        {
            return Err(serde::Error::custom(
                "a layer's weight and velocity rows must be rectangular, one per bias",
            ));
        }
        Ok(Self {
            inputs,
            weights: file.weights.concat(),
            biases: file.biases,
            activation: file.activation,
            weight_velocity: file.weight_velocity.concat(),
            bias_velocity: file.bias_velocity,
        })
    }
}

impl Layer {
    fn new<R: Rng + ?Sized>(inputs: usize, neurons: usize, activation: Activation, rng: &mut R) -> Self {
        // Xavier/Glorot uniform initialization keeps activations in the
        // responsive region of tanh/sigmoid at the start of training.
        let limit = (6.0 / (inputs + neurons) as f64).sqrt();
        let weights = (0..neurons * inputs)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self {
            inputs,
            weights,
            biases: vec![0.0; neurons],
            activation,
            weight_velocity: vec![0.0; neurons * inputs],
            bias_velocity: vec![0.0; neurons],
        }
    }

    /// Writes the activated outputs for input `x` into `out`.
    ///
    /// Neurons go four at a time, with inputs in the outer loop and the
    /// four neurons in the inner one, so their add chains overlap. Each
    /// chain still adds its products in input order starting from `-0.0`,
    /// where `Iterator::sum` starts, then adds the bias.
    fn forward_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let n = self.inputs;
        out.clear();
        out.reserve(self.biases.len());
        let mut blocks = self.weights.chunks_exact(4 * n);
        for block in &mut blocks {
            let (r0, rest) = block.split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let mut acc = [-0.0f64; 4];
            for (i, &xi) in x.iter().enumerate() {
                acc[0] += r0[i] * xi;
                acc[1] += r1[i] * xi;
                acc[2] += r2[i] * xi;
                acc[3] += r3[i] * xi;
            }
            out.extend_from_slice(&acc);
        }
        for row in blocks.remainder().chunks_exact(n) {
            out.push(row.iter().zip(x).fold(-0.0, |acc, (w, xi)| acc + w * xi));
        }
        for (acc, &b) in out.iter_mut().zip(&self.biases) {
            *acc = self.activation.apply(*acc + b);
        }
    }

    /// Writes the error signal of the layer below into `back`:
    /// `back[i] = f'(x[i]) · Σ_j w[j][i]·delta[j]`, the sum taken over `j`
    /// in order from `-0.0`, one contiguous weight row at a time.
    fn back_into(&self, delta: &[f64], x: &[f64], below: Activation, back: &mut Vec<f64>) {
        back.clear();
        back.resize(self.inputs, -0.0);
        for (row, &d) in self.weights.chunks_exact(self.inputs).zip(delta) {
            for (acc, &w) in back.iter_mut().zip(row) {
                *acc += w * d;
            }
        }
        for (acc, &y) in back.iter_mut().zip(x) {
            *acc *= below.derivative_from_output(y);
        }
    }

    /// One momentum step with L2 decay, element by element over
    /// contiguous rows.
    fn step(
        &mut self,
        delta: &[f64],
        x: &[f64],
        learning_rate: f64,
        momentum: f64,
        weight_decay: f64,
    ) {
        let rows = self
            .weights
            .chunks_exact_mut(self.inputs)
            .zip(self.weight_velocity.chunks_exact_mut(self.inputs));
        let biases = self.biases.iter_mut().zip(&mut self.bias_velocity);
        for ((&d, (w_row, v_row)), (b, bv)) in delta.iter().zip(rows).zip(biases) {
            for ((w, v), &xi) in w_row.iter_mut().zip(v_row.iter_mut()).zip(x) {
                *v = momentum * *v - learning_rate * (d * xi + weight_decay * *w);
                *w += *v;
            }
            *bv = momentum * *bv - learning_rate * d;
            *b += *bv;
        }
    }
}

/// Reusable buffers for [`Mlp`]'s kernel: one output per layer and the
/// backward step's error signals. They grow on first use and are only
/// cleared after, so a scratch reused across samples allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    outputs: Vec<Vec<f64>>,
    delta: Vec<f64>,
    next: Vec<f64>,
}

/// A feedforward network trained with backpropagation and momentum.
///
/// Hidden layers use tanh; the output layer is sigmoid, matching the
/// normalized `[0, 1]` targets the characterization stack trains on
/// (trip-point values scaled by [`MinMaxScaler`](crate::MinMaxScaler), or
/// fuzzy membership grades which are `[0, 1]` by construction).
///
/// # Examples
///
/// ```
/// use cichar_neural::Mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mlp = Mlp::new(&[3, 5, 2], &mut rng)?;
/// let out = mlp.predict(&[0.1, 0.5, 0.9]);
/// assert_eq!(out.len(), 2);
/// assert!(out.iter().all(|y| (0.0..=1.0).contains(y)));
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    topology: Vec<usize>,
}

impl Deserialize for Mlp {
    /// Refuses a network whose layers do not chain the widths in
    /// `topology`.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct MlpFile {
            layers: Vec<Layer>,
            topology: Vec<usize>,
        }
        let MlpFile { layers, topology } = MlpFile::from_value(v)?;
        let chained = !layers.is_empty()
            && topology.len() == layers.len() + 1
            && layers
                .iter()
                .zip(topology.windows(2))
                .all(|(layer, w)| layer.inputs == w[0] && layer.biases.len() == w[1]);
        if !chained {
            return Err(serde::Error::custom(
                "network layers must chain the widths in its topology",
            ));
        }
        Ok(Self { layers, topology })
    }
}

impl Mlp {
    /// Creates a network with the given layer widths, e.g. `[17, 16, 8, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadTopology`] for fewer than two layers or a
    /// zero-width layer.
    pub fn new<R: Rng + ?Sized>(topology: &[usize], rng: &mut R) -> Result<Self, NeuralError> {
        if topology.len() < 2 || topology.contains(&0) {
            return Err(NeuralError::BadTopology);
        }
        let last = topology.len() - 2;
        let layers = topology
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last {
                    Activation::Sigmoid
                } else {
                    Activation::Tanh
                };
                Layer::new(w[0], w[1], act, rng)
            })
            .collect();
        Ok(Self {
            layers,
            topology: topology.to_vec(),
        })
    }

    /// The layer widths this network was built with.
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// Expected input width.
    pub fn input_width(&self) -> usize {
        self.topology[0]
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        *self.topology.last().expect("topology has >= 2 entries")
    }

    /// Runs the network forward, leaving every layer's output in `scratch`,
    /// and returns the last.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub(crate) fn forward<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            input.len(),
            self.input_width(),
            "input width {} != network width {}",
            input.len(),
            self.input_width()
        );
        scratch.outputs.resize_with(self.layers.len(), Vec::new);
        for (li, layer) in self.layers.iter().enumerate() {
            let (below, rest) = scratch.outputs.split_at_mut(li);
            layer.forward_into(below.last().map_or(input, Vec::as_slice), &mut rest[0]);
        }
        scratch.outputs.last().expect("at least one layer")
    }

    /// Runs the network forward.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        let mut scratch = Scratch::default();
        self.forward(input, &mut scratch);
        scratch.outputs.pop().expect("at least one layer")
    }

    /// Mean squared error over a set of `(input, target)` pairs.
    pub fn mse(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        self.mse_in(inputs, targets, &mut Scratch::default())
    }

    /// [`Self::mse`] running every row through one scratch.
    pub(crate) fn mse_in(
        &self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        scratch: &mut Scratch,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "aligned rows");
        if inputs.is_empty() {
            return 0.0;
        }
        let total: f64 = inputs
            .iter()
            .zip(targets)
            .map(|(x, t)| {
                let y = self.forward(x, scratch);
                y.iter().zip(t).map(|(yi, ti)| (yi - ti).powi(2)).sum::<f64>()
                    / y.len() as f64
            })
            .sum();
        total / inputs.len() as f64
    }

    /// One backpropagation step on a single sample with momentum and L2
    /// weight decay: each weight also moves toward zero by
    /// `learning_rate * weight_decay * w`, the classic regularizer against
    /// over-fitting small noisy trip-point datasets.
    ///
    /// Returns the sample's squared error before the update.
    pub(crate) fn train_sample_decay(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
        weight_decay: f64,
        scratch: &mut Scratch,
    ) -> f64 {
        let output = self.forward(input, scratch);
        let sample_error: f64 = output
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;

        // Backward pass: delta for the output layer is (y − t)·f'(y).
        let Scratch { outputs, delta, next } = scratch;
        let top = self.layers.last().expect("non-empty").activation;
        delta.clear();
        delta.extend(
            outputs
                .last()
                .expect("at least one layer")
                .iter()
                .zip(target)
                .map(|(&y, &t)| (y - t) * top.derivative_from_output(y)),
        );
        for li in (0..self.layers.len()).rev() {
            let x = if li == 0 { input } else { &outputs[li - 1] };
            // Backprop uses the pre-update weights, so the layer below's
            // delta comes first.
            if li > 0 {
                let below = self.layers[li - 1].activation;
                self.layers[li].back_into(delta, x, below, next);
            }
            self.layers[li].step(delta, x, learning_rate, momentum, weight_decay);
            std::mem::swap(delta, next);
        }
        sample_error
    }

    /// Sum of squared weights across all layers (biases excluded) — the
    /// quantity weight decay shrinks.
    pub fn weight_norm(&self) -> f64 {
        self.layers
            .iter()
            .flat_map(|l| &l.weights)
            .map(|w| w * w)
            .sum()
    }

    /// Checked prediction for callers holding runtime-sized inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InputWidth`] instead of panicking.
    pub fn try_predict(&self, input: &[f64]) -> Result<Vec<f64>, NeuralError> {
        if input.len() != self.input_width() {
            return Err(NeuralError::InputWidth {
                expected: self.input_width(),
                got: input.len(),
            });
        }
        Ok(self.predict(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    impl Mlp {
        /// One momentum step without decay through a fresh scratch.
        fn train_sample(&mut self, input: &[f64], target: &[f64], lr: f64, momentum: f64) -> f64 {
            self.train_sample_decay(input, target, lr, momentum, 0.0, &mut Scratch::default())
        }
    }

    /// The nested-row forward pass the flat kernel replaced: the reference
    /// it is proven against.
    fn reference_forward(layer: &LayerFile, input: &[f64]) -> Vec<f64> {
        layer
            .weights
            .iter()
            .zip(&layer.biases)
            .map(|(row, &b)| {
                let z = row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + b;
                layer.activation.apply(z)
            })
            .collect()
    }

    fn reference_predict(layers: &[LayerFile], input: &[f64]) -> Vec<f64> {
        layers
            .iter()
            .fold(input.to_vec(), |x, layer| reference_forward(layer, &x))
    }

    fn reference_mse(layers: &[LayerFile], inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        let total: f64 = inputs
            .iter()
            .zip(targets)
            .map(|(x, t)| {
                let y = reference_predict(layers, x);
                y.iter().zip(t).map(|(yi, ti)| (yi - ti).powi(2)).sum::<f64>()
                    / y.len() as f64
            })
            .sum();
        total / inputs.len() as f64
    }

    /// The nested-row training step the flat kernel replaced.
    fn reference_train(
        layers: &mut [LayerFile],
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
        weight_decay: f64,
    ) -> f64 {
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(layers.len() + 1);
        activations.push(input.to_vec());
        for layer in layers.iter() {
            let next = reference_forward(layer, activations.last().expect("seeded with input"));
            activations.push(next);
        }
        let output = activations.last().expect("at least the input");
        let sample_error: f64 = output
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;
        let top = layers.last().expect("non-empty").activation;
        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .map(|(&y, &t)| (y - t) * top.derivative_from_output(y))
            .collect();
        for li in (0..layers.len()).rev() {
            let next_delta: Option<Vec<f64>> = if li > 0 {
                let layer = &layers[li];
                let prev_out = &activations[li];
                let prev_act = layers[li - 1].activation;
                Some(
                    (0..prev_out.len())
                        .map(|i| {
                            let back: f64 = layer
                                .weights
                                .iter()
                                .zip(&delta)
                                .map(|(row, d)| row[i] * d)
                                .sum();
                            back * prev_act.derivative_from_output(prev_out[i])
                        })
                        .collect(),
                )
            } else {
                None
            };
            let layer = &mut layers[li];
            let layer_input = &activations[li];
            for (j, d) in delta.iter().enumerate() {
                for (i, &x) in layer_input.iter().enumerate() {
                    let v = momentum * layer.weight_velocity[j][i]
                        - learning_rate * (d * x + weight_decay * layer.weights[j][i]);
                    layer.weight_velocity[j][i] = v;
                    layer.weights[j][i] += v;
                }
                let v = momentum * layer.bias_velocity[j] - learning_rate * d;
                layer.bias_velocity[j] = v;
                layer.biases[j] += v;
            }
            if let Some(nd) = next_delta {
                delta = nd;
            }
        }
        sample_error
    }

    /// Bit pattern of `v`, with every NaN read as one: IEEE 754 leaves NaN
    /// payloads unspecified.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn all_bits<'v>(values: impl IntoIterator<Item = &'v f64>) -> Vec<u64> {
        values.into_iter().map(|&v| bits(v)).collect()
    }

    /// Every weight, velocity and bias.
    fn parameter_bits(layers: &[LayerFile]) -> Vec<u64> {
        all_bits(layers.iter().flat_map(|l| {
            l.weights
                .iter()
                .chain(&l.weight_velocity)
                .flatten()
                .chain(&l.biases)
                .chain(&l.bias_velocity)
        }))
    }

    fn nested(mlp: &Mlp) -> Vec<LayerFile> {
        mlp.layers.iter().map(LayerFile::from).collect()
    }

    /// ±0.0, the smallest subnormal, ±1e3, or a random value in `[-1, 1)`.
    fn value(rng: &mut StdRng) -> f64 {
        const SPECIAL: [f64; 5] = [0.0, -0.0, 5e-324, 1e3, -1e3];
        let pick = rng.gen_range(0..10usize);
        SPECIAL.get(pick).copied().unwrap_or_else(|| rng.gen_range(-1.0..1.0))
    }

    fn row(rng: &mut StdRng, width: usize) -> Vec<f64> {
        (0..width).map(|_| value(rng)).collect()
    }

    /// Every layer's output for every row, hidden layers included: the
    /// output sigmoid maps both zeros to 0.5 and would hide their sign.
    fn same_outputs(flat: &Mlp, reference: &[LayerFile], xs: &[Vec<f64>]) -> Result<(), String> {
        let mut scratch = Scratch::default();
        for x in xs {
            flat.forward(x, &mut scratch);
            let mut h = x.clone();
            for (got, layer) in scratch.outputs.iter().zip(reference) {
                h = reference_forward(layer, &h);
                prop_assert_eq!(all_bits(got), all_bits(&h));
            }
            prop_assert_eq!(all_bits(&flat.predict(x)), all_bits(&h));
        }
        Ok(())
    }

    const LEARNING_RATES: [f64; 4] = [0.0, 0.05, 0.3, 1.5];
    const MOMENTA: [f64; 4] = [0.0, 0.5, 0.9, 1.0];
    const WEIGHT_DECAYS: [f64; 4] = [0.0, 1e-4, 1e-2, 0.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flat_kernel_matches_nested_rows(
            seed in any::<u64>(),
            depth in 2usize..=4,
            rates in (0usize..4, 0usize..4, 0usize..4),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topology: Vec<usize> = (0..depth).map(|_| rng.gen_range(1..=20usize)).collect();
            let mut flat = Mlp::new(&topology, &mut rng).expect("valid");
            for b in flat.layers.iter_mut().flat_map(|l| &mut l.biases) {
                if rng.gen_bool(0.3) {
                    *b = -0.0;
                }
            }
            let mut reference = nested(&flat);
            let (inputs, outputs) = (topology[0], topology[depth - 1]);
            let xs: Vec<Vec<f64>> = (0..4).map(|_| row(&mut rng, inputs)).collect();
            let ts: Vec<Vec<f64>> = (0..4).map(|_| row(&mut rng, outputs)).collect();
            // Before training too: the first step turns every `-0.0` bias
            // into `+0.0`.
            same_outputs(&flat, &reference, &xs)?;
            let (lr, momentum, decay) =
                (LEARNING_RATES[rates.0], MOMENTA[rates.1], WEIGHT_DECAYS[rates.2]);
            let mut scratch = Scratch::default();
            for _ in 0..8 {
                let (x, t) = (row(&mut rng, inputs), row(&mut rng, outputs));
                let got = flat.train_sample_decay(&x, &t, lr, momentum, decay, &mut scratch);
                let want = reference_train(&mut reference, &x, &t, lr, momentum, decay);
                prop_assert_eq!(bits(got), bits(want));
            }
            prop_assert_eq!(parameter_bits(&nested(&flat)), parameter_bits(&reference));
            same_outputs(&flat, &reference, &xs)?;
            prop_assert_eq!(bits(flat.mse(&xs, &ts)), bits(reference_mse(&reference, &xs, &ts)));
        }
    }

    /// A `[2, 2, 1]` network after three decayed momentum steps, serialized
    /// by the nested-row implementation this kernel replaced.
    const WEIGHT_FILE: &str = r#"{"layers":[{"weights":[[-1.0926139999489495,0.3568921454251078],[0.8813077040336375,0.8615049343376421]],"biases":[0.007890094861207241,-0.027570438180352236],"activation":"Tanh","weight_velocity":[[0.0030356255897800192,-0.0010957525699637647],[-0.009304271295252435,0.002771510976940226]],"bias_velocity":[-0.0005076929525715042,0.0024336628126872973]},{"weights":[[0.3334515951578593,-1.095753680093049]],"biases":[0.02264022825990918],"activation":"Sigmoid","weight_velocity":[[-0.012273702682361727,0.007830966285483949]],"bias_velocity":[-0.00635967611606422]}],"topology":[2,2,1]}"#;

    #[test]
    fn weight_files_keep_their_bytes() {
        let mut mlp = Mlp::new(&[2, 2, 1], &mut StdRng::seed_from_u64(3)).expect("valid");
        let mut scratch = Scratch::default();
        for (x, t) in [([0.25, -0.5], [0.75]), ([1.0, 0.5], [0.25]), ([-0.75, 0.0], [0.5])] {
            mlp.train_sample_decay(&x, &t, 0.3, 0.6, 1e-3, &mut scratch);
        }
        assert_eq!(serde_json::to_string(&mlp).expect("serializes"), WEIGHT_FILE);
        let loaded: Mlp = serde_json::from_str(WEIGHT_FILE).expect("parses");
        assert_eq!(loaded, mlp);
    }

    #[test]
    fn misshapen_weight_files_are_refused() {
        let edits = [
            // A ragged weight row.
            ("[[-1.0926139999489495,0.3568921454251078],", "[[-1.0926139999489495],"),
            // Velocity rows wider than the weight rows.
            ("[[0.0030356255897800192,", "[[0.5,0.0030356255897800192,"),
            // One bias velocity short.
            ("[-0.0005076929525715042,", "["),
            // A hidden width the layers do not have.
            ("\"topology\":[2,2,1]", "\"topology\":[2,3,1]"),
            // One layer too few for the topology.
            ("\"topology\":[2,2,1]", "\"topology\":[2,2,1,1]"),
        ];
        for (from, to) in edits {
            assert!(WEIGHT_FILE.contains(from), "{from}");
            let bad = WEIGHT_FILE.replacen(from, to, 1);
            assert!(serde_json::from_str::<Mlp>(&bad).is_err(), "{bad}");
        }
        for bad in [r#"{"layers":[],"topology":[2]}"#, r#"{"layers":[],"topology":[]}"#] {
            assert!(serde_json::from_str::<Mlp>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn topology_validation() {
        let mut r = rng();
        assert!(matches!(Mlp::new(&[3], &mut r), Err(NeuralError::BadTopology)));
        assert!(matches!(
            Mlp::new(&[3, 0, 1], &mut r),
            Err(NeuralError::BadTopology)
        ));
        assert!(Mlp::new(&[3, 1], &mut r).is_ok());
    }

    #[test]
    fn output_is_sigmoid_bounded() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 6, 3], &mut r).expect("valid");
        let y = mlp.predict(&[10.0, -10.0, 3.0, 0.0]);
        assert!(y.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn predict_panics_on_wrong_width() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 2], &mut r).expect("valid");
        let _ = mlp.predict(&[1.0]);
    }

    #[test]
    fn try_predict_reports_width_error() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 2], &mut r).expect("valid");
        assert_eq!(
            mlp.try_predict(&[1.0]),
            Err(NeuralError::InputWidth { expected: 4, got: 1 })
        );
        assert!(mlp.try_predict(&[0.0; 4]).is_ok());
    }

    #[test]
    fn training_reduces_error_on_linear_map() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[1, 6, 1], &mut r).expect("valid");
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![0.2 + 0.6 * x[0]]).collect();
        let before = mlp.mse(&inputs, &targets);
        for _ in 0..500 {
            for (x, t) in inputs.iter().zip(&targets) {
                mlp.train_sample(x, t, 0.3, 0.5);
            }
        }
        let after = mlp.mse(&inputs, &targets);
        assert!(after < before / 10.0, "{before} -> {after}");
        assert!(after < 1e-3, "final mse {after}");
    }

    #[test]
    fn learns_xor_with_momentum() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 1], &mut r).expect("valid");
        let data = [
            ([0.0, 0.0], [0.0]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        for _ in 0..4000 {
            for (x, t) in &data {
                mlp.train_sample(x, t, 0.6, 0.7);
            }
        }
        for (x, t) in &data {
            let y = mlp.predict(x)[0];
            assert!(
                (y - t[0]).abs() < 0.25,
                "xor({x:?}) = {y}, want {}",
                t[0]
            );
        }
    }

    #[test]
    fn weight_decay_shrinks_the_weight_norm() {
        let make = || Mlp::new(&[2, 12, 1], &mut StdRng::seed_from_u64(21)).expect("valid");
        let data: Vec<([f64; 2], [f64; 1])> = (0..16)
            .map(|i| {
                let x = i as f64 / 15.0;
                ([x, 1.0 - x], [0.3 + 0.4 * x])
            })
            .collect();
        let mut plain = make();
        let mut decayed = make();
        let mut scratch = Scratch::default();
        for _ in 0..300 {
            for (x, t) in &data {
                plain.train_sample_decay(x, t, 0.2, 0.5, 0.0, &mut scratch);
                decayed.train_sample_decay(x, t, 0.2, 0.5, 1e-3, &mut scratch);
            }
        }
        assert!(
            decayed.weight_norm() < plain.weight_norm(),
            "{} vs {}",
            decayed.weight_norm(),
            plain.weight_norm()
        );
        // And it still fits the function.
        let inputs: Vec<Vec<f64>> = data.iter().map(|(x, _)| x.to_vec()).collect();
        let targets: Vec<Vec<f64>> = data.iter().map(|(_, t)| t.to_vec()).collect();
        assert!(decayed.mse(&inputs, &targets) < 5e-3);
    }

    /// Also proves a reused scratch trains exactly as fresh ones do.
    #[test]
    fn zero_decay_matches_plain_training() {
        let make = || Mlp::new(&[2, 6, 1], &mut StdRng::seed_from_u64(22)).expect("valid");
        let mut a = make();
        let mut b = make();
        let mut scratch = Scratch::default();
        for i in 0..50 {
            let x = [i as f64 / 50.0, 0.5];
            let t = [0.4];
            a.train_sample(&x, &t, 0.3, 0.6);
            b.train_sample_decay(&x, &t, 0.3, 0.6, 0.0, &mut scratch);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn mse_is_zero_for_perfect_prediction() {
        let mut r = rng();
        let mlp = Mlp::new(&[2, 1], &mut r).expect("valid");
        let x = vec![vec![0.3, 0.4]];
        let y = vec![mlp.predict(&x[0])];
        assert!(mlp.mse(&x, &y) < 1e-15);
    }

    #[test]
    fn networks_with_same_seed_are_identical() {
        let a = Mlp::new(&[3, 4, 1], &mut StdRng::seed_from_u64(11)).expect("valid");
        let b = Mlp::new(&[3, 4, 1], &mut StdRng::seed_from_u64(11)).expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.predict(&[0.1, 0.2, 0.3]), b.predict(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn accessors_report_shape() {
        let mlp = Mlp::new(&[17, 16, 8, 1], &mut rng()).expect("valid");
        assert_eq!(mlp.input_width(), 17);
        assert_eq!(mlp.output_width(), 1);
        assert_eq!(mlp.topology(), &[17, 16, 8, 1]);
    }
}
