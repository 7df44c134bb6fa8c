//! Property tests for the wire layer: every frame variant round-trips
//! bit-exactly through the codec (including the v3 codec tag in the layer
//! word), truncation is always reported as `Incomplete` (never a panic or a
//! garbage message), corrupt headers are rejected with the precise error, and
//! every payload codec in the registry survives its own round-trip while
//! rejecting truncated payloads.

use bytes::Bytes;
use poseidon::transport::{fabric, stale_epoch_frames, Message, Transport};
use poseidon::wire::{
    decode_codec, decode_frame, encode_frame, encode_frame_stamped, parse_header, Codec,
    FrameError, FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_VERSION, MAX_LAYER_INDEX,
};
use poseidon_tensor::bytesio;
use poseidon_tensor::compress::make_compressor;
use poseidon_tensor::sf::{SfBatch, SufficientFactor};
use poseidon_testkit::{cases, Gen};

/// Any codec the registry knows.
fn any_wire_codec(g: &mut Gen) -> Codec {
    Codec::from_wire_id(g.range(0u8..2)).expect("ids 0..2 are all registered")
}

/// Any message variant — the six data frames with arbitrary header fields
/// and an arbitrary opaque payload, plus the two payload-free control
/// frames of the reliability layer. Gradient-bearing variants additionally
/// carry an arbitrary codec tag.
fn any_message(g: &mut Gen) -> Message {
    let iter = g.any::<u64>();
    let layer = g.range(0..MAX_LAYER_INDEX + 1);
    let chunk = g.any::<u32>();
    let data = Bytes::from(g.bytes(0..512));
    let codec = any_wire_codec(g);
    match g.range(0u8..8) {
        0 => Message::GradChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        },
        1 => Message::ParamChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        },
        2 => Message::SfPush { iter, layer, data },
        3 => Message::ParamMatrix { iter, layer, data },
        4 => Message::Ack { upto: iter },
        5 => Message::Collective {
            iter,
            layer,
            route: chunk,
            codec,
            data,
        },
        6 => Message::Handoff {
            iter,
            layer,
            chunk,
            data,
        },
        _ => Message::Nack { expect: iter },
    }
}

/// `(iter-field operand, layer, chunk, payload length)` of the frame header
/// the message encodes to. Control frames carry their operand in the iter
/// field and no payload.
fn header_fields(msg: &Message) -> (u64, u32, Option<u32>, usize) {
    match msg {
        Message::GradChunk {
            iter,
            layer,
            chunk,
            data,
            ..
        }
        | Message::ParamChunk {
            iter,
            layer,
            chunk,
            data,
            ..
        } => (*iter, *layer, Some(*chunk), data.len()),
        Message::Collective {
            iter,
            layer,
            route,
            data,
            ..
        } => (*iter, *layer, Some(*route), data.len()),
        Message::Handoff {
            iter,
            layer,
            chunk,
            data,
        } => (*iter, *layer, Some(*chunk), data.len()),
        Message::SfPush { iter, layer, data } | Message::ParamMatrix { iter, layer, data } => {
            (*iter, *layer, None, data.len())
        }
        Message::Ack { upto } => (*upto, 0, None, 0),
        Message::Nack { expect } => (*expect, 0, None, 0),
    }
}

/// The codec tag a message stamps into its frame, if its variant carries one.
fn codec_of(msg: &Message) -> Option<Codec> {
    match msg {
        Message::GradChunk { codec, .. }
        | Message::ParamChunk { codec, .. }
        | Message::Collective { codec, .. } => Some(*codec),
        _ => None,
    }
}

#[test]
fn every_variant_roundtrips_bit_exactly() {
    cases(256, |g| {
        let msg = any_message(g);
        let frame = encode_frame(&msg);
        let (iter, _, _, payload_len) = header_fields(&msg);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload_len);
        assert_eq!(msg.wire_bytes(), frame.len() as u64);

        let (decoded, consumed) = decode_frame(&frame).expect("own frame must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(decoded.iter(), iter);
        assert_eq!(
            codec_of(&decoded),
            codec_of(&msg),
            "codec tag lost in flight"
        );
        // Same variant, same fields, same payload <=> identical re-encoding.
        assert_eq!(encode_frame(&decoded), frame);
    });
}

#[test]
fn any_strict_prefix_is_incomplete() {
    cases(256, |g| {
        let msg = any_message(g);
        let cut_frac = g.range(0.0f64..1.0);
        let frame = encode_frame(&msg);
        let cut = ((frame.len() as f64) * cut_frac) as usize; // < len
        match decode_frame(&frame[..cut]) {
            Err(FrameError::Incomplete { needed }) => {
                assert!(needed > cut, "needed {} <= cut {}", needed, cut);
                assert!(needed <= frame.len());
            }
            other => panic!("prefix of {} bytes gave {:?}", cut, other),
        }
        // And trailing garbage does not confuse the decode of frame one.
        let mut padded = frame.to_vec();
        padded.extend_from_slice(&[0xAA; 7]);
        let (_, consumed) = decode_frame(&padded).expect("padded frame");
        assert_eq!(consumed, frame.len());
    });
}

#[test]
fn corrupt_magic_version_tag_codec_are_rejected() {
    cases(256, |g| {
        let msg = any_message(g);
        let [m0, m1, bad_version, _] = g.any::<u32>().to_le_bytes();
        let bad_magic = [m0, m1];
        let bad_tag = g.range(9u32..256) as u8;
        let bad_codec = g.range(2u32..256) as u8;
        let frame = encode_frame(&msg).to_vec();

        if bad_magic != FRAME_MAGIC {
            let mut f = frame.clone();
            f[0] = bad_magic[0];
            f[1] = bad_magic[1];
            assert_eq!(
                decode_frame(&f).err(),
                Some(FrameError::BadMagic(bad_magic))
            );
        }
        if bad_version != FRAME_VERSION {
            let mut f = frame.clone();
            f[2] = bad_version;
            assert_eq!(
                decode_frame(&f).err(),
                Some(FrameError::BadVersion(bad_version))
            );
        }
        {
            // Byte 15 is the top byte of the little-endian layer word — the
            // codec id. An unregistered id must surface as BadCodec, for
            // every variant (even those that always stamp identity).
            let mut f = frame.clone();
            f[15] = bad_codec;
            assert_eq!(
                decode_frame(&f).err(),
                Some(FrameError::BadCodec(bad_codec))
            );
        }
        let mut f = frame;
        f[3] = bad_tag;
        assert_eq!(decode_frame(&f).err(), Some(FrameError::BadTag(bad_tag)));
    });
}

/// A realistic SFB payload survives the full path: factor batch ->
/// payload codec -> frame -> decode -> payload codec.
#[test]
fn sf_push_payload_roundtrips_through_the_frame() {
    cases(256, |g| {
        let (m, n, k) = (g.size(1..12), g.size(1..12), g.size(1..6));
        let seed = g.any::<u32>();
        let mut batch = SfBatch::new();
        for s in 0..k {
            let val =
                |i: usize| (seed.wrapping_add((s * 31 + i) as u32) % 1000) as f32 / 97.0 - 5.0;
            batch.push(SufficientFactor::new(
                (0..m).map(val).collect(),
                (0..n).map(|i| val(i + m)).collect(),
            ));
        }
        let msg = Message::SfPush {
            iter: 3,
            layer: 1,
            data: bytesio::encode_sf_batch(&batch),
        };
        let frame = encode_frame(&msg);
        assert_eq!(
            frame.len(),
            FRAME_HEADER_BYTES + bytesio::sf_batch_wire_bytes(k, m, n)
        );
        let (decoded, _) = decode_frame(&frame).expect("frame");
        let Message::SfPush { data, .. } = decoded else {
            panic!("variant changed in flight");
        };
        let back = bytesio::decode_sf_batch(&data).expect("sf payload");
        assert_eq!(back.len(), k);
        for (a, b) in back.factors().iter().zip(batch.factors()) {
            assert_eq!(&a.u, &b.u);
            assert_eq!(&a.v, &b.v);
        }
    });
}

/// Every registry codec's payload survives framing bit-exactly: the bytes
/// a compressor emits come out of the frame unchanged and decode to the
/// same values whether or not they crossed the wire.
#[test]
fn codec_payloads_roundtrip_through_the_frame() {
    cases(256, |g| {
        let codec = any_wire_codec(g);
        let vals = g.vec(1..200, |g| g.range(-100.0f32..100.0));
        let layer = g.range(0..MAX_LAYER_INDEX + 1);
        let mut comp = make_compressor(codec, vals.len());
        let payload = comp.compress(&vals);
        assert_eq!(payload.len(), codec.payload_bytes(vals.len()));
        let direct = decode_codec(codec, &payload, vals.len()).expect("own payload decodes");

        let msg = Message::GradChunk {
            iter: 2,
            layer,
            chunk: 0,
            codec,
            data: payload,
        };
        let frame = encode_frame(&msg);
        let (decoded, _) = decode_frame(&frame).expect("frame");
        let Message::GradChunk {
            codec: tag, data, ..
        } = decoded
        else {
            panic!("variant changed in flight");
        };
        assert_eq!(tag.wire_id(), codec.wire_id());
        let via_wire = decode_codec(tag, &data, vals.len()).expect("framed payload decodes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_wire), bits(&direct));
        if codec == Codec::Identity {
            assert_eq!(bits(&via_wire), bits(&vals));
        }
    });
}

/// Chopping bytes off the end of any codec's payload is always surfaced
/// as a `CodecError` — never a panic, never a silently-short decode.
#[test]
fn truncated_codec_payloads_are_rejected() {
    cases(256, |g| {
        let codec = any_wire_codec(g);
        let vals = g.vec(1..200, |g| g.range(-100.0f32..100.0));
        let cut_frac = g.range(0.0f64..1.0);
        let mut comp = make_compressor(codec, vals.len());
        let payload = comp.compress(&vals);
        // Never empty: vals has >= 1 element, every codec emits framing bytes.
        let cut = ((payload.len() as f64) * cut_frac) as usize; // < len
        assert!(
            decode_codec(codec, &payload[..cut], vals.len()).is_err(),
            "{} accepted a {}-of-{}-byte prefix",
            codec,
            cut,
            payload.len()
        );
    });
}

/// Residual-carrying codecs are bitwise deterministic: two independent
/// compressor instances fed the same sequence of tensors emit identical
/// bytes at every step, so replicas and reruns stay reproducible.
#[test]
fn residual_state_is_deterministic_across_instances() {
    cases(256, |g| {
        let codec = any_wire_codec(g);
        let rounds = g.vec(1..6, |g| {
            (0..32).map(|_| g.range(-10.0f32..10.0)).collect::<Vec<_>>()
        });
        let mut a = make_compressor(codec, 32);
        let mut b = make_compressor(codec, 32);
        for (i, vals) in rounds.iter().enumerate() {
            let pa = a.compress(vals);
            let pb = b.compress(vals);
            assert_eq!(&pa[..], &pb[..], "{} diverged at round {}", codec, i);
        }
    });
}

/// v4: an arbitrary membership-epoch stamp round-trips through every
/// frame variant (alongside `src`/`seq`) and never perturbs the
/// reassembled message, and any strict prefix of a stamped frame is
/// still `Incomplete` — never a garbage decode.
#[test]
fn epoch_stamp_roundtrips_through_every_variant() {
    cases(256, |g| {
        let msg = any_message(g);
        let (src, seq, epoch) = (g.any::<u32>(), g.any::<u32>(), g.any::<u32>());
        let cut_frac = g.range(0.0f64..1.0);
        let frame = encode_frame_stamped(&msg, src, seq, epoch);
        let hdr: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES]
            .try_into()
            .expect("header-sized slice");
        let parsed = parse_header(&hdr).expect("own header must parse");
        assert_eq!(parsed.epoch, epoch, "epoch word lost in flight");
        assert_eq!(parsed.src, src);
        assert_eq!(parsed.seq, seq);

        // The stamp rides the header only: the message reassembles
        // identically however it was stamped.
        let (decoded, consumed) = decode_frame(&frame).expect("own frame must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(encode_frame(&decoded), encode_frame(&msg));

        let cut = ((frame.len() as f64) * cut_frac) as usize; // < len
        match decode_frame(&frame[..cut]) {
            Err(FrameError::Incomplete { needed }) => assert!(needed > cut),
            other => panic!("stamped prefix of {} bytes gave {:?}", cut, other),
        }
    });
}

/// The receive-side epoch fence, driven through a real transport: a data
/// frame from a stale epoch is dropped *and counted*, never delivered;
/// control frames and current/future epochs always pass. Sampled over
/// small (sender, receiver) epoch pairs; `transport_contract.rs` runs the
/// fence on the TCP transport too.
#[test]
fn inproc_epoch_fence_admits_exactly_non_stale_frames() {
    cases(256, |g| {
        let sender_epoch = g.range(0u32..5);
        let receiver_epoch = g.range(0u32..5);
        let control = g.any::<bool>();
        let (eps, _) = fabric(2);
        eps[0].set_epoch(sender_epoch);
        eps[1].set_epoch(receiver_epoch);
        let msg = if control {
            Message::Ack { upto: 9 }
        } else {
            Message::GradChunk {
                iter: 1,
                layer: 0,
                chunk: 0,
                codec: Codec::Identity,
                data: Bytes::copy_from_slice(&[1, 2, 3, 4]),
            }
        };
        let dropped_before = stale_epoch_frames();
        eps[0].send(1, msg).expect("send");
        let got = eps[1].try_recv().expect("fabric alive");
        if control || sender_epoch >= receiver_epoch {
            let env = got.expect("non-stale frame must be delivered");
            assert_eq!(
                env.epoch, sender_epoch,
                "envelope carries the sender's epoch"
            );
        } else {
            assert!(got.is_none(), "stale data frame must be dropped");
            // Other tests in this binary may drop frames concurrently, so
            // the process-wide counter is gated as a lower bound.
            assert!(
                stale_epoch_frames() > dropped_before,
                "drop must be counted"
            );
        }
    });
}
