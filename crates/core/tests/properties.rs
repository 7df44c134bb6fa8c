//! Property-based tests for Poseidon's core data structures and cost model.

use poseidon::checkpoint::{self, PairState, ShardCheckpoint};
use poseidon::chunk::ChunkTable;
use poseidon::config::{ClusterConfig, CommScheme, Partition};
use poseidon::costmodel;
use poseidon::kvstore::ShardState;
use poseidon_testkit::{cases, Gen};

/// KV-pair chunking is a partition: chunks cover every layer exactly,
/// contiguously, with no overlap, and every chunk respects the pair size.
#[test]
fn chunk_table_partitions_layers() {
    cases(256, |g| {
        let layers = g.vec(1..12, |g| g.range(0usize..10_000));
        let servers = g.range(1usize..9);
        let pair = g.range(1usize..2048);
        let table = ChunkTable::build(&layers, servers, Partition::KvPairs { pair_elems: pair });
        for (l, &elems) in layers.iter().enumerate() {
            let chunks = table.layer_chunks(l);
            let total: usize = chunks.iter().map(|c| c.len).sum();
            assert_eq!(total, elems, "layer {} not fully covered", l);
            let mut expected_offset = 0usize;
            for c in &chunks {
                assert_eq!(c.offset, expected_offset, "gap or overlap in layer {}", l);
                assert!(c.len <= pair);
                assert!(c.shard < servers);
                expected_offset += c.len;
            }
        }
    });
}

/// Round-robin assignment keeps shard loads within one pair of each other
/// for a single large layer.
#[test]
fn chunk_table_balances_single_layer() {
    cases(256, |g| {
        let elems = g.range(1usize..1_000_000);
        let servers = g.range(1usize..17);
        let pair = g.range(1usize..65_536);
        let table = ChunkTable::build(&[elems], servers, Partition::KvPairs { pair_elems: pair });
        let loads = table.shard_loads();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= pair, "max {max} min {min} pair {pair}");
    });
}

/// BSP shard aggregation equals a plain fold: after all workers report,
/// params == init + scale * Σ grads, for any arrival order.
#[test]
fn shard_aggregation_is_scaled_sum() {
    cases(256, |g| {
        let init = g.vec(1..32, |g| g.range(-10.0f32..10.0));
        let grads = g.vec(1..5, |g| g.vec(1..32, |g| g.range(-10.0f32..10.0)));
        let scale = g.range(-1.0f32..1.0);
        let order_seed = g.range(0u64..1000);
        let workers = grads.len();
        let len = init.len();
        let grads: Vec<Vec<f32>> = grads
            .into_iter()
            .map(|mut g| {
                g.resize(len, 0.0);
                g
            })
            .collect();
        // Shuffle arrival order deterministically.
        let mut order: Vec<usize> = (0..workers).collect();
        let mut seed = order_seed;
        for i in (1..order.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (seed >> 33) as usize % (i + 1));
        }

        let mut shard = ShardState::new(workers, scale);
        shard.init_pair((0, 0), init.clone());
        let mut result = None;
        for &w in &order {
            result = shard.receive_grad(w, (0, 0), &grads[w]);
        }
        let updated = result.expect("all workers reported");

        for i in 0..len {
            let sum: f32 = grads.iter().map(|g| g[i]).sum();
            let expect = init[i] + scale * sum;
            assert!((updated[i] - expect).abs() <= 1e-4 * (1.0 + expect.abs()));
        }
    });
}

/// Checkpoint/restore is lossless for arbitrary shard contents: every pair
/// exported, through the shard checkpoint codec, and installed again.
#[test]
fn shard_checkpoint_roundtrips() {
    cases(256, |g| {
        let pairs = g.vec(1..10, |g| {
            let key = (g.range(0u32..50), g.range(0u32..50));
            (key, g.vec(1..20, |g| g.range(-100.0f32..100.0)))
        });
        let mut shard = ShardState::new(1, -1.0);
        for (key, values) in &pairs {
            shard.init_pair(*key, values.clone());
        }
        let expected_pairs = shard.num_pairs();
        let ckpt = checkpoint::encode_shard(&ShardCheckpoint {
            shard: 0,
            next_iter: 0,
            epoch: 0,
            pairs: shard
                .sorted_keys()
                .into_iter()
                .map(|key| {
                    let (params, velocity) = shard.export_pair(key).unwrap();
                    PairState {
                        key,
                        params,
                        velocity,
                        residual: Vec::new(),
                    }
                })
                .collect(),
        });
        let decoded = checkpoint::decode_shard(&ckpt).expect("own checkpoint decodes");
        assert_eq!(decoded.pairs.len(), expected_pairs);
        let mut restored = ShardState::new(1, -1.0);
        for pair in decoded.pairs {
            restored.install_pair(pair.key, pair.params, pair.velocity);
        }
        for (key, _) in &pairs {
            assert_eq!(restored.pair(*key), shard.pair(*key));
        }
    });
}

/// Algorithm 1 picks the argmin of the two analytic costs — always.
#[test]
fn best_scheme_is_argmin() {
    cases(256, |g| {
        let (m, n) = (g.range(1usize..30_000), g.range(1usize..30_000));
        let k = g.range(1usize..512);
        let p = g.range(2usize..64);
        let cluster = ClusterConfig::colocated(p, k);
        let sfb = costmodel::sfb_cost(m, n, &cluster);
        let ps = costmodel::ps_cost(m, n, &cluster).server_and_worker;
        let picked = costmodel::best_scheme_fc(m, n, &cluster);
        if sfb <= ps {
            assert_eq!(picked, CommScheme::Sfb);
        } else {
            assert_eq!(picked, CommScheme::Ps);
        }
    });
}

/// The crossover batch size is consistent with BestScheme on both sides.
#[test]
fn crossover_batch_is_a_true_boundary() {
    cases(256, |g| {
        let (m, n) = (g.range(16usize..10_000), g.range(16usize..10_000));
        let p = g.range(2usize..33);
        let crossover = costmodel::sfb_crossover_batch(m, n, p, p);
        let below = crossover.floor() as usize;
        if below >= 1 {
            let cluster = ClusterConfig {
                workers: p,
                servers: p,
                batch_per_worker: below,
                colocated: true,
            };
            assert_eq!(costmodel::best_scheme_fc(m, n, &cluster), CommScheme::Sfb);
        }
        let above = crossover.ceil() as usize + 1;
        let cluster = ClusterConfig {
            workers: p,
            servers: p,
            batch_per_worker: above,
            colocated: true,
        };
        assert_eq!(costmodel::best_scheme_fc(m, n, &cluster), CommScheme::Ps);
    });
}

/// PS cost is monotone in the matrix size, SFB cost in the batch size.
#[test]
fn cost_model_monotonicity() {
    cases(256, |g| {
        let (m, n) = (g.range(1usize..5000), g.range(1usize..5000));
        let k = g.range(1usize..256);
        let p = g.range(2usize..32);
        let cluster = ClusterConfig::colocated(p, k);
        let bigger = ClusterConfig::colocated(p, k + 1);
        assert!(costmodel::sfb_cost(m, n, &bigger) >= costmodel::sfb_cost(m, n, &cluster));
        assert!(
            costmodel::ps_cost(m + 1, n, &cluster).server_and_worker
                >= costmodel::ps_cost(m, n, &cluster).server_and_worker
        );
        // PS cost is independent of K.
        assert_eq!(
            costmodel::ps_cost(m, n, &bigger).server_and_worker,
            costmodel::ps_cost(m, n, &cluster).server_and_worker
        );
    });
}

/// A random two-level topology: `(nodes, devices, intra, inter, oversub)`.
fn topology(g: &mut Gen) -> poseidon::config::Topology {
    let link = |gbps: u32, lat: f64| poseidon_netsim::LinkConfig {
        bandwidth_gbps: gbps as f64,
        latency_s: lat,
    };
    let (nodes, devices) = (g.range(1usize..6), g.range(1usize..5));
    let intra = link(g.range(1u32..200), 1e-6);
    let inter = link(g.range(1u32..100), 40e-6);
    let oversub = g.range(1u32..8) as f64;
    poseidon::config::Topology::two_level(nodes, devices, intra, inter, oversub)
}

/// Topology-aware monotonicity: widening the inter-node links (or the
/// uplinks feeding an oversubscribed core) never increases any scheme's
/// predicted step time.
#[test]
fn more_inter_bandwidth_never_slows_any_scheme() {
    cases(256, |g| {
        let topo = topology(g);
        let elems = g.range(0usize..(1 << 24));
        let k = g.range(1usize..128);
        let boost = g.range(1u32..10);
        let mut faster = topo;
        faster.inter.bandwidth_gbps *= boost as f64;
        let cluster = ClusterConfig::colocated(topo.total_devices().max(1), k);
        let fc = Some((512usize, 512usize));
        let slow = costmodel::scheme_times_topo(elems, fc, &cluster, &topo);
        let fast = costmodel::scheme_times_topo(elems, fc, &cluster, &faster);
        assert!(fast.ps <= slow.ps, "PS: {} > {}", fast.ps, slow.ps);
        assert!(fast.sfb.unwrap() <= slow.sfb.unwrap());
        assert!(
            fast.ring <= slow.ring,
            "ring: {} > {}",
            fast.ring,
            slow.ring
        );
        assert!(
            fast.tree <= slow.tree,
            "tree: {} > {}",
            fast.tree,
            slow.tree
        );
    });
}

/// The chosen scheme is always a cheapest one, and ties resolve by the
/// fixed preference order PS > SFB > ring > tree — so byte-count ties
/// can never flip the choice between runs or between equal-size layers.
#[test]
fn best_scheme_topo_is_a_stable_minimum() {
    cases(256, |g| {
        let topo = topology(g);
        let elems = g.range(0usize..(1 << 24));
        let k = g.range(1usize..128);
        let has_fc = g.any::<bool>();
        let p = topo.total_devices();
        let cluster = ClusterConfig::colocated(p.max(1), k);
        let fc = has_fc.then_some((1024usize, 256usize));
        let best = costmodel::best_scheme_topo(elems, fc, &cluster, &topo);
        // Deterministic: a second evaluation agrees (stability under reruns
        // and under equal-size sibling layers).
        assert_eq!(
            best,
            costmodel::best_scheme_topo(elems, fc, &cluster, &topo)
        );
        if p <= 1 {
            assert_eq!(best, CommScheme::Ps);
        } else {
            let t = costmodel::scheme_times_topo(elems, fc, &cluster, &topo);
            // Preference order, cheapest-first semantics.
            let mut ranked = vec![(CommScheme::Ps, t.ps)];
            if let Some(sfb) = t.sfb {
                ranked.push((CommScheme::Sfb, sfb));
            }
            ranked.push((CommScheme::Ring, t.ring));
            ranked.push((CommScheme::Tree, t.tree));
            let best_time = ranked
                .iter()
                .find(|(s, _)| *s == best)
                .expect("chosen scheme is priced")
                .1;
            for &(scheme, time) in &ranked {
                assert!(
                    best_time <= time,
                    "{:?}@{} beats chosen {:?}@{}",
                    scheme,
                    time,
                    best,
                    best_time
                );
                if scheme == best {
                    break;
                }
                // Everything preferred over the winner must be strictly
                // slower, else the tie-break would have kept it.
                assert!(
                    time > best_time,
                    "tie with preferred {:?} must not pick {:?}",
                    scheme,
                    best
                );
            }
        }
    });
}
