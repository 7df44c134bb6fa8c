//! Partitioning model parameters into KV pairs and assigning them to shards.
//!
//! Poseidon "sets the size of a KV pair to a fixed small size (e.g., 2MB), so
//! as to partition and distribute model parameters to server nodes as equally
//! as possible" (Section 4.1). TensorFlow's coarse whole-tensor placement is
//! also provided as the baseline that creates hot-spots (Section 5.1).

use crate::config::Partition;
use std::ops::Range;

/// One KV pair: a contiguous slice of one layer's flattened parameters,
/// owned by one server shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the layer this chunk belongs to.
    pub layer: usize,
    /// Start offset (in f32 elements) within the layer's flat parameters.
    pub offset: usize,
    /// Number of f32 elements.
    pub len: usize,
    /// Owning server shard.
    pub shard: usize,
}

impl Chunk {
    /// Payload bytes of a dense f32 copy of this chunk.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * 4
    }

    /// The chunk's element range within the layer's flat parameters.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }

    /// Where the chunk lies in a `weights ++ bias` layer with `weights`
    /// weight elements: its range of the weights and its range of the bias.
    /// Either may be empty; both are non-empty only for the one chunk of a
    /// layer that straddles the boundary.
    pub fn split_at_bias(&self, weights: usize) -> (Range<usize>, Range<usize>) {
        split_at_bias(self.range(), weights)
    }
}

/// [`Chunk::split_at_bias`] of any element range of a `weights ++ bias`
/// layer.
pub fn split_at_bias(range: Range<usize>, weights: usize) -> (Range<usize>, Range<usize>) {
    let Range { start, end } = range;
    (
        start.min(weights)..end.min(weights),
        start.max(weights) - weights..end.max(weights) - weights,
    )
}

/// The chunk table for a model: every trainable layer's parameters cut into
/// KV pairs and assigned to shards.
#[derive(Clone, Debug)]
pub struct ChunkTable {
    chunks: Vec<Chunk>,
    servers: usize,
}

impl ChunkTable {
    /// Builds the table for layers of the given flat sizes (in f32 elements;
    /// one entry per layer, zero for non-trainable layers) over `servers`
    /// shards.
    ///
    /// KV pairs are assigned to shards round-robin in creation order, which
    /// spreads every large layer across all shards; whole-tensor mode assigns
    /// each layer to a single shard round-robin by trainable-layer index
    /// (TensorFlow's placement policy).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or a KV-pair size of zero is configured.
    pub fn build(layer_elems: &[usize], servers: usize, partition: Partition) -> Self {
        assert!(servers > 0, "need at least one server shard");
        let mut chunks = Vec::new();
        match partition {
            Partition::KvPairs { pair_elems } => {
                assert!(pair_elems > 0, "KV pair size must be positive");
                let mut next_shard = 0usize;
                for (layer, &elems) in layer_elems.iter().enumerate() {
                    let mut offset = 0usize;
                    while offset < elems {
                        let len = pair_elems.min(elems - offset);
                        chunks.push(Chunk {
                            layer,
                            offset,
                            len,
                            shard: next_shard,
                        });
                        next_shard = (next_shard + 1) % servers;
                        offset += len;
                    }
                }
            }
            Partition::WholeTensor => {
                let mut next_shard = 0usize;
                for (layer, &elems) in layer_elems.iter().enumerate() {
                    if elems == 0 {
                        continue;
                    }
                    chunks.push(Chunk {
                        layer,
                        offset: 0,
                        len: elems,
                        shard: next_shard,
                    });
                    next_shard = (next_shard + 1) % servers;
                }
            }
        }
        Self { chunks, servers }
    }

    /// All chunks, grouped nowhere — iteration order is layer-major then
    /// offset-major.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Chunks of one layer, offset-ordered.
    pub fn layer_chunks(&self, layer: usize) -> Vec<Chunk> {
        self.chunks
            .iter()
            .copied()
            .filter(|c| c.layer == layer)
            .collect()
    }

    /// Number of server shards.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Total elements assigned to each shard (for balance diagnostics).
    pub fn shard_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.servers];
        for c in &self.chunks {
            loads[c.shard] += c.len;
        }
        loads
    }

    /// Max shard load divided by mean shard load (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let loads = self.shard_loads();
        let total: usize = loads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().expect("non-empty") as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_pairs_cover_layers_exactly() {
        let t = ChunkTable::build(&[1000, 0, 2500], 3, Partition::KvPairs { pair_elems: 1000 });
        let total: usize = t.chunks().iter().map(|c| c.len).sum();
        assert_eq!(total, 3500);
        let l2 = t.layer_chunks(2);
        assert_eq!(l2.len(), 3);
        assert_eq!(l2[0].len, 1000);
        assert_eq!(l2[2].len, 500, "tail chunk is short");
        assert_eq!(l2[2].offset, 2000);
        assert!(
            t.layer_chunks(1).is_empty(),
            "zero-size layers get no chunks"
        );
    }

    #[test]
    fn kv_pairs_balance_large_layers_across_all_shards() {
        // One huge layer (VGG-like): KV pairs must spread over every shard.
        let t = ChunkTable::build(
            &[8_000_000],
            8,
            Partition::KvPairs {
                pair_elems: 524_288,
            },
        );
        let loads = t.shard_loads();
        assert!(loads.iter().all(|&l| l > 0), "every shard holds a piece");
        assert!(t.imbalance() < 1.1, "imbalance {}", t.imbalance());
    }

    #[test]
    fn whole_tensor_creates_hotspot_for_skewed_models() {
        // VGG-like: one 100M-element tensor among small ones.
        let t = ChunkTable::build(
            &[100_000_000, 10_000, 10_000, 10_000],
            4,
            Partition::WholeTensor,
        );
        assert!(t.imbalance() > 3.5, "imbalance {}", t.imbalance());
        assert_eq!(t.layer_chunks(0).len(), 1, "tensor is not split");
    }

    #[test]
    fn whole_tensor_round_robins_layers() {
        let t = ChunkTable::build(&[10, 10, 10, 10], 2, Partition::WholeTensor);
        let shards: Vec<usize> = t.chunks().iter().map(|c| c.shard).collect();
        assert_eq!(shards, vec![0, 1, 0, 1]);
    }

    #[test]
    fn chunk_bytes() {
        let c = Chunk {
            layer: 0,
            offset: 0,
            len: 524_288,
            shard: 0,
        };
        assert_eq!(c.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn single_shard_gets_everything() {
        let t = ChunkTable::build(&[100, 200], 1, Partition::default_kv_pairs());
        assert!(t.chunks().iter().all(|c| c.shard == 0));
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = ChunkTable::build(&[10], 0, Partition::WholeTensor);
    }
}
