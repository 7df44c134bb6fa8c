//! Bitwise oracles of the 1-bit codec's hot paths: the encoder's scale
//! definition, every compiled copy of its loops and its carried residual
//! correction. Everything is differential against a slow spelling written out
//! here or the scalar `OneBitQuantizer`, through public API only, on inputs
//! committed in this file.

use poseidon_tensor::compress::{accumulate, decode_into, make_compressor, Codec};
use poseidon_tensor::quantize::{
    encode_in_place_on, wire_bytes, OneBitQuantizer, PackedSigns, Scales, Tier, SUM_LANES,
};
use poseidon_tensor::Matrix;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic values in roughly ±2, no dependency on an RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 32) as u32
    }

    fn next_f32(&mut self) -> f32 {
        ((self.next_u32() >> 8) as i32 - (1 << 23)) as f32 / (1 << 22) as f32
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32()).collect()
    }
}

// ---------------------------------------------------------------------------
// (i) the scale definition

/// Found by search (seeded random placement of one 2^52, one multiple of
/// 2^28 and a few halves among non-positive filler; hit 107): the four
/// positive elements sit in lanes 7, 10, 6 and — in the ragged tail — 0. The
/// 16-lane ascending fold adds the two halves to `5·2^28` before `2^52`
/// absorbs them, so its sum ends in `+1` and the mean rounds *up* across an
/// f32 tie; every other order meets `2^52` first, loses each half to a
/// round-to-even, and lands exactly on the tie, which rounds *down*.
#[rustfmt::skip]
const SEPARATING: [f32; 33] = [
    0.0, 0.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.5,
    0.0, -1.0, 4_503_599_627_370_496.0 /* 2^52 */, 0.0, 0.0, 0.0, 0.0, 0.0,
    -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0,
    1_342_177_280.0 /* 5·2^28 */,
];
const SEPARATING_POS_SCALE: u32 = 0x5880_0003;
const EVERY_OTHER_ORDER: u32 = 0x5880_0002;

/// Mean of the positive elements with element `i` added into f64 lane
/// `i % lanes` and the lanes folded from one end: `lanes = 1` is the
/// sequential sum.
fn pos_scale_under(vals: &[f32], lanes: usize, descending: bool) -> f32 {
    let mut acc = vec![0.0f64; lanes];
    let mut cnt = 0usize;
    for (i, &v) in vals.iter().enumerate() {
        if v > 0.0 {
            acc[i % lanes] += v as f64;
            cnt += 1;
        }
    }
    if descending {
        acc.reverse();
    }
    let sum = acc[1..].iter().fold(acc[0], |s, &l| s + l);
    (sum / cnt as f64) as f32
}

/// The summation order is part of the encoding. On [`SEPARATING`] the
/// definition (16 lanes, folded ascending from lane 0) gives a `pos_scale`
/// one ulp above what these mutations of it give, so this test fails if
/// either the oracle or the fast path is changed to
///
/// * a sequential sum in element order (the pre-lane definition),
/// * 8 lanes instead of 16,
/// * a descending lane fold,
///
/// and it fails if the oracle and the fast path ever disagree.
#[test]
fn lane_order_is_part_of_the_encoding() {
    assert_eq!(SUM_LANES, 16);
    let vals = &SEPARATING[..];
    assert_eq!(
        pos_scale_under(vals, 16, false).to_bits(),
        SEPARATING_POS_SCALE
    );
    for (mutation, lanes, descending) in [
        ("sequential", 1, false),
        ("8 lanes", 8, false),
        ("descending lane fold", 16, true),
    ] {
        assert_eq!(
            pos_scale_under(vals, lanes, descending).to_bits(),
            EVERY_OTHER_ORDER,
            "{mutation} no longer separates on this input"
        );
    }

    let n = vals.len();
    let mut oracle = OneBitQuantizer::new(1, n);
    let want = oracle
        .quantize(&Matrix::from_vec(1, n, vals.to_vec()))
        .to_bytes();
    assert_eq!(
        u32::from_le_bytes(want[8..12].try_into().unwrap()),
        SEPARATING_POS_SCALE,
        "the scalar oracle's pos_scale"
    );
    assert_eq!(
        make_compressor(Codec::OneBit, n).compress(vals),
        want,
        "fast path"
    );
    for tier in Tier::available() {
        let (mut eff, mut carry) = (vec![0.0; n], Scales::ZERO);
        let mut payload = vec![0xAAu8; wire_bytes(n)];
        encode_in_place_on(tier, &mut eff, &mut carry, vals, &mut payload);
        assert_eq!(payload, &want[..], "{} copy", tier.name());
    }
}

// ---------------------------------------------------------------------------
// (ii) every compiled copy ≡ the baseline body

/// `n` values with `specials` written over both edge steps and both sides of
/// every step and word boundary that exists at this length.
fn with_specials(rng: &mut Lcg, n: usize, specials: &[f32]) -> Vec<f32> {
    let mut vals = rng.vec(n);
    let last_step = (n - 1) / SUM_LANES * SUM_LANES;
    let edges = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65];
    let tail = [last_step.saturating_sub(1), last_step, last_step + 1, n - 1];
    for (k, &at) in edges.iter().chain(&tail).enumerate() {
        if at < n {
            vals[at] = specials[k % specials.len()];
        }
    }
    vals
}

/// One stream of the encoder through one compiled copy.
struct Stream {
    tier: Tier,
    eff: Vec<f32>,
    carry: Scales,
}

impl Stream {
    fn encode(&mut self, vals: &[f32]) -> Vec<u8> {
        // Junk in the destination: every byte must be overwritten.
        let mut payload = vec![0xAAu8; wire_bytes(vals.len())];
        encode_in_place_on(
            self.tier,
            &mut self.eff,
            &mut self.carry,
            vals,
            &mut payload,
        );
        payload
    }
}

/// Each ISA tier's encode, decode and accumulate against the baseline body:
/// payload, stream state, and both receive primitives, over three rounds so
/// the carried correction is live. One family of non-finite values per run,
/// so at most one NaN payload circulates and exact bits are well defined.
#[test]
fn every_isa_tier_equals_the_baseline_body_bit_for_bit() {
    let tiers = Tier::available();
    assert_eq!(tiers[0].name(), "baseline");
    let families: [(&str, &[f32]); 3] = [
        ("signed zeros", &[0.0, -0.0]),
        ("NaN", &[f32::NAN, 0.0, -0.0]),
        ("infinities", &[f32::INFINITY, -0.0, f32::NEG_INFINITY, 0.0]),
    ];
    let mut rng = Lcg(0x715);
    for n in [1usize, 31, 32, 33, 63, 64, 65, 1000, 524_288 + 37] {
        for (family, specials) in families {
            let mut streams: Vec<Stream> = tiers
                .iter()
                .map(|&tier| Stream {
                    tier,
                    eff: vec![0.0; n],
                    carry: Scales::ZERO,
                })
                .collect();
            for round in 0..3 {
                let vals = with_specials(&mut rng, n, specials);
                let acc0 = rng.vec(n);
                let (baseline, wide) = streams.split_first_mut().unwrap();
                let want = baseline.encode(&vals);
                let decoded_by = |tier: Tier, payload: &[u8]| {
                    let packed = PackedSigns::parse(payload).expect("own encoding parses");
                    let mut set = vec![f32::NAN; n];
                    packed.apply_on(tier, 0, &mut set, |o, v| *o = v);
                    let mut axpy = acc0.clone();
                    packed.apply_on(tier, 0, &mut axpy, |a, v| *a += -0.0125 * v);
                    (bits(&set), bits(&axpy))
                };
                let want_decoded = decoded_by(baseline.tier, &want);
                for s in wide {
                    let what = format!("{} n={n} {family} round {round}", s.tier.name());
                    assert_eq!(s.encode(&vals), want, "payload, {what}");
                    assert_eq!(bits(&s.eff), bits(&baseline.eff), "stream state, {what}");
                    assert_eq!(
                        (s.carry.pos.to_bits(), s.carry.neg.to_bits()),
                        (baseline.carry.pos.to_bits(), baseline.carry.neg.to_bits()),
                        "carry, {what}"
                    );
                    assert_eq!(decoded_by(s.tier, &want), want_decoded, "decode, {what}");
                }
                // What production dispatches to.
                let mut set = vec![f32::NAN; n];
                decode_into(Codec::OneBit, &want, &mut set).unwrap();
                let mut axpy = acc0.clone();
                accumulate(Codec::OneBit, &want, -0.0125, &mut axpy).unwrap();
                assert_eq!(
                    (bits(&set), bits(&axpy)),
                    want_decoded,
                    "decode_into / accumulate, n={n} {family} round {round}"
                );
            }
        }
    }
}

/// A window that starts inside the payload decodes what the whole-payload
/// pass decodes there, on every tier.
#[test]
fn windows_decode_what_the_whole_payload_decodes_there() {
    let n = 1000;
    let payload = make_compressor(Codec::OneBit, n).compress(&Lcg(0xD0).vec(n));
    let packed = PackedSigns::parse(&payload).unwrap();
    let mut whole = vec![0.0f32; n];
    packed.apply(0, &mut whole, |o, v| *o = v);
    for tier in Tier::available() {
        for (start, len) in [(0, 8), (8, 100), (64, 936), (992, 8), (1000, 0)] {
            let mut window = vec![f32::NAN; len];
            packed.apply_on(tier, start, &mut window, |o, v| *o = v);
            assert_eq!(
                bits(&window),
                bits(&whole[start..start + len]),
                "{} {start}+{len}",
                tier.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (iii) the carried residual correction

/// `residual()` is the oracle's residual after every round, and a stream
/// exported after 1, 2 or 5 rounds and restored into a fresh compressor
/// continues bit for bit with the one that never stopped.
#[test]
fn an_exported_carry_continues_the_uninterrupted_stream() {
    let mut rng = Lcg(0xCA22);
    for n in [1usize, 33, 1000] {
        for export_after in [1usize, 2, 5] {
            let mut oracle = OneBitQuantizer::new(1, n);
            let mut straight = make_compressor(Codec::OneBit, n);
            let mut restored = None;
            for round in 0..export_after + 3 {
                let what = format!("n={n} export after {export_after}, round {round}");
                if round == export_after {
                    let exported = straight.residual();
                    assert!(
                        n == 1 || exported.iter().any(|r| *r != 0.0),
                        "nothing carried at the export point, {what}"
                    );
                    let mut fresh = make_compressor(Codec::OneBit, n);
                    fresh.set_residual(&exported);
                    assert_eq!(bits(&fresh.residual()), bits(&exported), "{what}");
                    restored = Some(fresh);
                }
                let vals = rng.vec(n);
                let want = oracle
                    .quantize(&Matrix::from_vec(1, n, vals.clone()))
                    .to_bytes();
                let want_residual = bits(oracle.residual().as_slice());
                for (name, comp) in [
                    ("straight", Some(&mut straight)),
                    ("restored", restored.as_mut()),
                ] {
                    let Some(comp) = comp else { continue };
                    assert_eq!(comp.compress(&vals), want, "{name} payload, {what}");
                    assert_eq!(
                        bits(&comp.residual()),
                        want_residual,
                        "{name} residual, {what}"
                    );
                }
            }
        }
    }
}

/// Restoring a residual clears the carry, and a zero carry subtracts `+0.0`:
/// every restored value comes back with its own bits — a `-0.0` keeps its
/// sign — and enters the next encode exactly as the oracle adds it.
#[test]
fn a_zero_carry_is_an_exact_no_op() {
    let mixed = [
        -0.0f32,
        0.0,
        f32::MIN_POSITIVE / 4.0, // subnormal
        -f32::MIN_POSITIVE / 4.0,
        1.5,
        -2.25,
        -0.0,
    ];
    // With nothing but zeros in play both scales are +0.0, so the sign of
    // every zero survives into the next residual — or shows up missing.
    let zeros = [-0.0f32, 0.0, -0.0, -0.0, 0.0];
    for residual in [&mixed[..], &zeros[..]] {
        let n = residual.len();
        let mut comp = make_compressor(Codec::OneBit, n);
        // Leave a non-zero carry behind first: restoring must clear it.
        comp.compress(&Lcg(9).vec(n));
        comp.set_residual(residual);
        assert_eq!(bits(&comp.residual()), bits(residual));

        let mut oracle = OneBitQuantizer::new(1, n);
        oracle.set_residual(Matrix::from_vec(1, n, residual.to_vec()));
        // -0.0 + -0.0 is the one sum that tells a kept sign from a lost one.
        let vals = vec![-0.0f32; n];
        let want = oracle.quantize(&Matrix::from_vec(1, n, vals.clone()));
        assert_eq!(comp.compress(&vals), want.to_bytes());
        assert_eq!(bits(&comp.residual()), bits(oracle.residual().as_slice()));
    }
}
