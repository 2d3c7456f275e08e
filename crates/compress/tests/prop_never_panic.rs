//! Decoders of store-sourced bytes never panic and never abort: every
//! input — arbitrary bytes, truncations and single-bit flips of valid
//! frames and streams — decodes to `Ok` or `Err`.
//!
//! Declared lengths in forged frames stay bounded here: a frame that
//! really declares gigabytes of zeros is valid, and decoding it is
//! supposed to produce them. Absurd declared lengths (2^62, u64::MAX)
//! are pinned by unit tests in the codec modules.

use gzlite::{compress_auto, compress_stream, decompress, decompress_stream_parallel, MAGIC};
use gzlite::{is_stream, STREAM_MAGIC};
use proptest::prelude::*;

/// Patterned bytes of `len`, compressible enough that every codec gets
/// picked by `compress_auto` somewhere in the sweep.
fn patterned(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| match seed % 4 {
            0 => 0,
            1 => (i % 13) as u8,
            2 => ((i * 2654435761 + seed) >> 7) as u8,
            _ => ((i / 64) ^ seed) as u8,
        })
        .collect()
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary token bytes under a well-formed header, for every codec
    /// id including unknown ones; arbitrary stream bodies.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        codec in 0u8..8,
        declared in 0u64..(1 << 20),
    ) {
        let _ = decompress(&noise);
        let mut frame = MAGIC.to_vec();
        frame.push(codec);
        varint(&mut frame, declared);
        frame.extend_from_slice(&noise);
        let _ = decompress(&frame);
        let mut stream = STREAM_MAGIC.to_vec();
        stream.extend_from_slice(&noise);
        let _ = decompress_stream_parallel(&stream, 2);
    }

    /// Truncations of a valid frame or stream err (a frame cut
    /// short can never decode), and every single-bit flip either errs or
    /// decodes to the original bytes (the crc over the original catches
    /// the rest).
    #[test]
    fn truncations_and_bit_flips_never_panic(
        len in 0usize..4000,
        seed in any::<u64>(),
        bit in any::<usize>(),
        chunked in any::<bool>(),
    ) {
        let data = patterned(len, seed);
        let wire = if chunked { compress_stream(&data, 1024) } else { compress_auto(&data) };
        let step = (wire.len() / 48).max(1);
        let cuts = (0..wire.len()).step_by(step).chain(wire.len().saturating_sub(8)..wire.len());
        for cut in cuts {
            if is_stream(&wire[..cut]) {
                prop_assert!(decompress_stream_parallel(&wire[..cut], 2).is_err());
            } else {
                prop_assert!(decompress(&wire[..cut]).is_err());
            }
        }
        let mut flipped = wire.clone();
        let bit = bit % (wire.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let decoded = if is_stream(&flipped) {
            decompress_stream_parallel(&flipped, 2)
        } else {
            decompress(&flipped)
        };
        if let Ok(out) = decoded {
            prop_assert_eq!(out, data);
        }
    }
}
