//! The coordinator: Poseidon's information book and `BestScheme` API.
//!
//! "To setup distributed training, the client program first instantiates
//! Poseidon by creating a coordinator within its process. Coordinators will
//! first collect necessary information, including the cluster information and
//! the model architecture" (Section 4.1). The coordinator then decides, per
//! layer, which communication scheme the syncers use (Algorithm 1), and owns
//! the KV-pair placement table.

use crate::chunk::ChunkTable;
use crate::config::{ClusterConfig, Codec, CodecPolicy, CommScheme, Partition, SchemePolicy};
use crate::costmodel;
use poseidon_nn::zoo::ModelSpec;
use poseidon_nn::{LayerKind, Model, Network};

/// The per-layer entry of the coordinator's information book.
#[derive(Clone, Debug)]
pub struct LayerInfo {
    /// Layer name.
    pub name: String,
    /// Flattened trainable parameter count (weights + bias), 0 if stateless.
    pub param_elems: usize,
    /// `(M, N)` if this is a fully-connected layer (weights `M × N`).
    pub fc_shape: Option<(usize, usize)>,
}

impl LayerInfo {
    /// `true` iff the layer has parameters to synchronise.
    pub fn is_trainable(&self) -> bool {
        self.param_elems > 0
    }
}

/// The coordinator.
#[derive(Clone, Debug)]
pub struct Coordinator {
    cluster: ClusterConfig,
    policy: SchemePolicy,
    codec_policy: CodecPolicy,
    layers: Vec<LayerInfo>,
    table: ChunkTable,
}

impl Coordinator {
    /// Builds the information book from a real trainable network.
    pub fn from_network(
        net: &Network,
        cluster: ClusterConfig,
        policy: SchemePolicy,
        partition: Partition,
    ) -> Self {
        Self::from_model(net, cluster, policy, partition)
    }

    /// Builds the information book from any [`Model`] (sequential or DAG).
    /// Structural slots (concat nodes, the graph input) become untrainable
    /// entries so slot ids and layer indices coincide.
    pub fn from_model<M: Model>(
        model: &M,
        cluster: ClusterConfig,
        policy: SchemePolicy,
        partition: Partition,
    ) -> Self {
        let layers: Vec<LayerInfo> = (0..model.num_slots())
            .map(|id| match model.slot(id) {
                Some(layer) => {
                    let param_elems = layer.params().map_or(0, |p| p.num_params());
                    let fc_shape = match layer.kind() {
                        LayerKind::FullyConnected => layer.params().map(|p| p.weights.shape()),
                        _ => None,
                    };
                    LayerInfo {
                        name: layer.name().to_string(),
                        param_elems,
                        fc_shape,
                    }
                }
                None => LayerInfo {
                    name: format!("<structural:{id}>"),
                    param_elems: 0,
                    fc_shape: None,
                },
            })
            .collect();
        Self::from_layers(layers, cluster, policy, partition)
    }

    /// Builds the information book from a descriptor model (simulation).
    pub fn from_spec(
        spec: &ModelSpec,
        cluster: ClusterConfig,
        policy: SchemePolicy,
        partition: Partition,
    ) -> Self {
        let layers: Vec<LayerInfo> = spec
            .layers
            .iter()
            .map(|l| LayerInfo {
                name: l.name.clone(),
                param_elems: l.params as usize,
                fc_shape: l.fc_shape(),
            })
            .collect();
        Self::from_layers(layers, cluster, policy, partition)
    }

    /// Builds directly from layer entries.
    pub fn from_layers(
        layers: Vec<LayerInfo>,
        cluster: ClusterConfig,
        policy: SchemePolicy,
        partition: Partition,
    ) -> Self {
        let elems: Vec<usize> = layers.iter().map(|l| l.param_elems).collect();
        let table = ChunkTable::build(&elems, cluster.servers, partition);
        Self {
            cluster,
            policy,
            codec_policy: CodecPolicy::Identity,
            layers,
            table,
        }
    }

    /// Sets the gradient-compression policy (builder-style; the default is
    /// [`CodecPolicy::Identity`], the bitwise-exact f32 wire).
    pub fn with_codec_policy(mut self, codec_policy: CodecPolicy) -> Self {
        self.codec_policy = codec_policy;
        self
    }

    /// The cluster configuration (the `Query` API's `n_worker`, `n_server`,
    /// `batchsize` entries).
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The active scheme policy.
    pub fn policy(&self) -> SchemePolicy {
        self.policy
    }

    /// The information book's layer entries, bottom-up.
    pub fn layers(&self) -> &[LayerInfo] {
        &self.layers
    }

    /// The KV-pair placement table.
    pub fn chunk_table(&self) -> &ChunkTable {
        &self.table
    }

    /// The home shard of a layer Adam syncs whole: it takes every worker's
    /// sufficient factors for `layer` and pulls the fresh matrix back.
    pub fn adam_shard(&self, layer: usize) -> usize {
        layer % self.cluster.servers
    }

    /// Algorithm 1, filtered through the configured policy: the communication
    /// scheme for layer `l`.
    ///
    /// SFB/Adam/1-bit apply to FC layers only (their updates decompose into
    /// sufficient factors); other layers fall back to PS under those
    /// policies. The ring applies to any trainable layer. A single-worker
    /// cluster always reduces to PS — SFB has no peers and a one-worker
    /// chain never completes.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or not trainable.
    pub fn best_scheme(&self, layer: usize) -> CommScheme {
        let info = &self.layers[layer];
        assert!(
            info.is_trainable(),
            "layer {} ({}) has no parameters",
            layer,
            info.name
        );
        let fc = info.fc_shape;
        let single = self.cluster.workers <= 1;
        match self.policy {
            SchemePolicy::AlwaysPs => CommScheme::Ps,
            SchemePolicy::Hybrid => match fc {
                Some((m, n)) if !single => costmodel::best_scheme_fc(m, n, &self.cluster),
                _ => CommScheme::Ps,
            },
            SchemePolicy::AlwaysSfbForFc => {
                if fc.is_some() && !single {
                    CommScheme::Sfb
                } else {
                    CommScheme::Ps
                }
            }
            SchemePolicy::AdamSf => {
                if fc.is_some() {
                    CommScheme::AdamSf
                } else {
                    CommScheme::Ps
                }
            }
            // The 1-bit baseline is plain PS traffic; the compression lives in
            // the codec dimension (see [`Coordinator::best_codec`]).
            SchemePolicy::OneBit => CommScheme::Ps,
            SchemePolicy::AlwaysRing => {
                if single {
                    CommScheme::Ps
                } else {
                    CommScheme::Ring
                }
            }
            SchemePolicy::TopoAware(topo) => {
                costmodel::best_scheme_topo(info.param_elems, fc, &self.cluster, &topo)
            }
        }
    }

    /// The scheme chosen for every trainable layer: `(layer index, scheme)`.
    pub fn scheme_assignment(&self) -> Vec<(usize, CommScheme)> {
        (0..self.layers.len())
            .filter(|&l| self.layers[l].is_trainable())
            .map(|l| (l, self.best_scheme(l)))
            .collect()
    }

    /// The gradient codec chosen for `layer`, composing the scheme decision
    /// with the [`CodecPolicy`].
    ///
    /// SFB and Adam layers always ride identity — sufficient factors are the
    /// compression, and re-encoding `(u, v)` pairs would destroy the rank-K
    /// structure the scheme depends on. The [`SchemePolicy::OneBit`] baseline
    /// forces `Codec::OneBit` on FC layers regardless of the codec policy.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or not trainable.
    pub fn best_codec(&self, layer: usize) -> Codec {
        let info = &self.layers[layer];
        let scheme = self.best_scheme(layer);
        if !matches!(scheme, CommScheme::Ps | CommScheme::Ring) {
            return Codec::Identity;
        }
        if self.policy == SchemePolicy::OneBit && info.fc_shape.is_some() {
            return Codec::OneBit;
        }
        match self.codec_policy {
            CodecPolicy::Identity => Codec::Identity,
            CodecPolicy::Always(codec) => codec,
        }
    }

    /// The codec chosen for every trainable layer: `(layer index, codec)`.
    pub fn codec_assignment(&self) -> Vec<(usize, Codec)> {
        (0..self.layers.len())
            .filter(|&l| self.layers[l].is_trainable())
            .map(|l| (l, self.best_codec(l)))
            .collect()
    }

    /// The paper's `Query` API (Table 2): look up entries of the information
    /// book by property name. Algorithm 1 itself queries `"n_worker"`,
    /// `"n_server"` and `"batchsize"`; layer properties are reachable as
    /// `"layer:<name>:params"`, `"layer:<name>:width"` (FC `M`) and
    /// `"layer:<name>:height"` (FC `N`).
    ///
    /// Returns `None` for unknown properties or layers.
    ///
    /// # Examples
    ///
    /// ```
    /// use poseidon::config::{ClusterConfig, Partition, SchemePolicy};
    /// use poseidon::coordinator::{Coordinator, LayerInfo};
    ///
    /// let layers = vec![LayerInfo {
    ///     name: "fc6".into(),
    ///     param_elems: 4096 * 25088 + 4096,
    ///     fc_shape: Some((4096, 25088)),
    /// }];
    /// let c = Coordinator::from_layers(
    ///     layers,
    ///     ClusterConfig::colocated(8, 32),
    ///     SchemePolicy::Hybrid,
    ///     Partition::default_kv_pairs(),
    /// );
    /// assert_eq!(c.query("n_worker"), Some(8));
    /// assert_eq!(c.query("batchsize"), Some(32));
    /// assert_eq!(c.query("layer:fc6:width"), Some(4096));
    /// assert_eq!(c.query("layer:fc6:height"), Some(25088));
    /// assert_eq!(c.query("no_such_key"), None);
    /// ```
    pub fn query(&self, property: &str) -> Option<usize> {
        match property {
            "n_worker" => return Some(self.cluster.workers),
            "n_server" => return Some(self.cluster.servers),
            "batchsize" => return Some(self.cluster.batch_per_worker),
            "n_layers" => return Some(self.layers.len()),
            _ => {}
        }
        let mut parts = property.splitn(3, ':');
        if parts.next() != Some("layer") {
            return None;
        }
        let name = parts.next()?;
        let field = parts.next()?;
        let layer = self.layers.iter().find(|l| l.name == name)?;
        match field {
            "params" => Some(layer.param_elems),
            "width" => layer.fc_shape.map(|(m, _)| m),
            "height" => layer.fc_shape.map(|(_, n)| n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon_nn::presets;

    fn coordinator(policy: SchemePolicy, nodes: usize, batch: usize) -> Coordinator {
        let spec = poseidon_nn::zoo::vgg19();
        Coordinator::from_spec(
            &spec,
            ClusterConfig::colocated(nodes, batch),
            policy,
            Partition::default_kv_pairs(),
        )
    }

    #[test]
    fn hybrid_sends_vgg_fc_layers_via_sfb_and_convs_via_ps() {
        let c = coordinator(SchemePolicy::Hybrid, 8, 32);
        let schemes = c.scheme_assignment();
        let by_name: Vec<(String, CommScheme)> = schemes
            .iter()
            .map(|&(l, s)| (c.layers()[l].name.clone(), s))
            .collect();
        for (name, scheme) in &by_name {
            if name.starts_with("fc") {
                assert_eq!(*scheme, CommScheme::Sfb, "{name}");
            } else {
                assert_eq!(*scheme, CommScheme::Ps, "{name}");
            }
        }
    }

    #[test]
    fn hybrid_reduces_to_ps_when_batch_large_and_layer_thin() {
        // GoogLeNet on 16 nodes at batch 128: the paper observes Poseidon
        // "reduces to PS".
        let spec = poseidon_nn::zoo::googlenet();
        let c = Coordinator::from_spec(
            &spec,
            ClusterConfig::colocated(16, 128),
            SchemePolicy::Hybrid,
            Partition::default_kv_pairs(),
        );
        for (l, scheme) in c.scheme_assignment() {
            assert_eq!(scheme, CommScheme::Ps, "{}", c.layers()[l].name);
        }
    }

    #[test]
    fn always_ps_policy_overrides_fc() {
        let c = coordinator(SchemePolicy::AlwaysPs, 8, 32);
        assert!(c
            .scheme_assignment()
            .iter()
            .all(|&(_, s)| s == CommScheme::Ps));
    }

    #[test]
    fn adam_policy_targets_fc_only() {
        let c = coordinator(SchemePolicy::AdamSf, 8, 32);
        for (l, s) in c.scheme_assignment() {
            if c.layers()[l].fc_shape.is_some() {
                assert_eq!(s, CommScheme::AdamSf);
            } else {
                assert_eq!(s, CommScheme::Ps);
            }
        }
    }

    #[test]
    fn one_bit_policy_is_ps_scheme_plus_onebit_codec_on_fc() {
        let c = coordinator(SchemePolicy::OneBit, 8, 32);
        for (l, s) in c.scheme_assignment() {
            assert_eq!(s, CommScheme::Ps, "{}", c.layers()[l].name);
        }
        for (l, codec) in c.codec_assignment() {
            if c.layers()[l].fc_shape.is_some() {
                assert_eq!(codec, Codec::OneBit, "{}", c.layers()[l].name);
            } else {
                assert_eq!(codec, Codec::Identity, "{}", c.layers()[l].name);
            }
        }
    }

    #[test]
    fn codec_policy_skips_factor_schemes() {
        // Hybrid sends VGG FC layers via SFB: factors are the compression, so
        // Always(OneBit) must only reach the PS layers.
        let c = coordinator(SchemePolicy::Hybrid, 8, 32)
            .with_codec_policy(CodecPolicy::Always(Codec::OneBit));
        for (l, codec) in c.codec_assignment() {
            if c.best_scheme(l) == CommScheme::Sfb {
                assert_eq!(codec, Codec::Identity, "{}", c.layers()[l].name);
            } else {
                assert_eq!(codec, Codec::OneBit, "{}", c.layers()[l].name);
            }
        }
    }

    #[test]
    fn default_codec_policy_is_identity_everywhere() {
        let c = coordinator(SchemePolicy::AlwaysPs, 8, 32);
        assert!(c
            .codec_assignment()
            .iter()
            .all(|&(_, cd)| cd == Codec::Identity));
    }

    #[test]
    fn single_node_never_uses_sfb() {
        let c = coordinator(SchemePolicy::Hybrid, 1, 32);
        assert!(c
            .scheme_assignment()
            .iter()
            .all(|&(_, s)| s == CommScheme::Ps));
        let c = coordinator(SchemePolicy::AlwaysSfbForFc, 1, 32);
        assert!(c
            .scheme_assignment()
            .iter()
            .all(|&(_, s)| s == CommScheme::Ps));
    }

    #[test]
    fn collective_policies_cover_all_trainable_layers() {
        let c = coordinator(SchemePolicy::AlwaysRing, 8, 32);
        assert!(c
            .scheme_assignment()
            .iter()
            .all(|&(_, s)| s == CommScheme::Ring));
        // Single node reduces to PS: a one-worker chain never completes.
        let c = coordinator(SchemePolicy::AlwaysRing, 1, 32);
        assert!(c
            .scheme_assignment()
            .iter()
            .all(|&(_, s)| s == CommScheme::Ps));
    }

    #[test]
    fn topo_aware_policy_splits_layers_by_size() {
        use crate::config::Topology;
        use poseidon_netsim::LinkConfig;
        // 4 nodes × 2 devices, fast intra-node links, 10G uplinks into a 4:1
        // oversubscribed core: big layers go collective, tiny ones stay PS.
        let topo = Topology::two_level(
            4,
            2,
            LinkConfig {
                bandwidth_gbps: 100.0,
                latency_s: 1e-6,
            },
            LinkConfig {
                bandwidth_gbps: 10.0,
                latency_s: 50e-6,
            },
            4.0,
        );
        let layers = vec![
            LayerInfo {
                name: "conv_small".into(),
                param_elems: 1_000,
                fc_shape: None,
            },
            LayerInfo {
                name: "conv_big".into(),
                param_elems: 16 << 20,
                fc_shape: None,
            },
        ];
        let c = Coordinator::from_layers(
            layers,
            ClusterConfig::colocated(8, 32),
            SchemePolicy::TopoAware(topo),
            Partition::default_kv_pairs(),
        );
        let schemes = c.scheme_assignment();
        assert_eq!(schemes[0].1, CommScheme::Ps, "small layer stays on the PS");
        assert_eq!(
            schemes[1].1,
            CommScheme::Ring,
            "large layer goes collective"
        );
    }

    #[test]
    fn from_network_extracts_fc_shapes() {
        let net = presets::mlp(&[20, 30, 5], 1);
        let c = Coordinator::from_network(
            &net,
            ClusterConfig::colocated(4, 16),
            SchemePolicy::Hybrid,
            Partition::default_kv_pairs(),
        );
        assert_eq!(c.layers().len(), 3);
        assert_eq!(c.layers()[0].fc_shape, Some((30, 20)));
        assert_eq!(c.layers()[1].fc_shape, None, "ReLU has no parameters");
        assert!(!c.layers()[1].is_trainable());
        assert_eq!(c.layers()[2].fc_shape, Some((5, 30)));
        // Chunk table covers weights + biases of both FC layers.
        let total: usize = c.chunk_table().chunks().iter().map(|ch| ch.len).sum();
        assert_eq!(total, net.num_params());
    }

    #[test]
    fn query_resolves_cluster_and_layer_properties() {
        let c = coordinator(SchemePolicy::Hybrid, 8, 32);
        assert_eq!(c.query("n_worker"), Some(8));
        assert_eq!(c.query("n_server"), Some(8));
        assert_eq!(c.query("batchsize"), Some(32));
        assert_eq!(c.query("layer:fc6:width"), Some(4096));
        assert_eq!(c.query("layer:fc6:height"), Some(25088));
        assert_eq!(c.query("layer:fc6:params"), Some(4096 * 25088 + 4096));
        assert_eq!(c.query("layer:conv1_1:width"), None, "conv has no FC shape");
        assert!(c.query("layer:conv1_1:params").is_some());
        assert_eq!(c.query("layer:nope:params"), None);
        assert_eq!(c.query("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "has no parameters")]
    fn best_scheme_on_stateless_layer_panics() {
        let net = presets::mlp(&[4, 4, 2], 1);
        let c = Coordinator::from_network(
            &net,
            ClusterConfig::colocated(2, 8),
            SchemePolicy::Hybrid,
            Partition::default_kv_pairs(),
        );
        let _ = c.best_scheme(1);
    }
}
