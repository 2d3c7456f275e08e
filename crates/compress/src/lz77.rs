//! Greedy LZ77 with hash-chain match finding — the match stage of DEFLATE
//! without the entropy coder, which keeps decode trivially fast.
//!
//! Token stream: repeated `(literal_len: varint, literal_bytes...,
//! match_len: varint, match_dist: varint)` groups. A `match_len` of 0 marks
//! "no match" (only valid for the final group). Distances are 1-based and
//! bounded by [`WINDOW`].

use crate::{varint, Error};

/// Sliding-window size (32 KiB, like DEFLATE).
pub const WINDOW: usize = 32 * 1024;
/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps the greedy search bounded).
const MAX_MATCH: usize = 1 << 16;
/// Hash table size (power of two).
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links to follow before giving up (speed/ratio knob).
const MAX_CHAIN: usize = 32;

#[inline]
fn hash4(data: &[u8]) -> usize {
    // Multiplicative hash of the next 4 bytes.
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Encode `input` into an LZ77 token stream.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.is_empty() {
        return out;
    }

    // head[h] = most recent position with hash h; prev[i % WINDOW] = previous
    // position in the chain for position i. usize::MAX marks "none".
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush = |out: &mut Vec<u8>, lits: &[u8], match_len: usize, dist: usize| {
        varint::write(out, lits.len() as u64);
        out.extend_from_slice(lits);
        varint::write(out, match_len as u64);
        if match_len > 0 {
            varint::write(out, dist as u64);
        }
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;

        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                let dist = i - cand;
                // Quick reject: candidate must at least extend the best match.
                if best_len == 0 || input.get(cand + best_len) == input.get(i + best_len) {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let mut len = 0;
                    while len < limit && input[cand + len] == input[i + len] {
                        len += 1;
                    }
                    if len >= MIN_MATCH && len > best_len {
                        best_len = len;
                        best_dist = dist;
                        if len >= limit {
                            break;
                        }
                    }
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            flush(&mut out, &input[lit_start..i], best_len, best_dist);
            // Insert hash entries for every position covered by the match so
            // later data can refer back into it.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(&input[i..]);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
            lit_start = i;
        } else {
            if i + MIN_MATCH <= input.len() {
                let h = hash4(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }

    if lit_start < input.len() || out.is_empty() {
        flush(&mut out, &input[lit_start..], 0, 0);
    }
    out
}

/// Decode an LZ77 token stream produced by [`encode`]. `expected_len` is
/// the length the frame declares, read from untrusted bytes: the stream
/// is rejected the moment it would produce more, no match may be longer
/// than [`encode`] ever emits, and the capacity reserved up front never
/// exceeds what `payload` can expand to — a forged length costs no
/// allocation.
pub fn decode(payload: &[u8], expected_len: usize) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    crate::try_grow(
        &mut out,
        expected_len.min(payload.len().saturating_mul(MAX_MATCH)),
    )?;
    let mut pos = 0;
    while pos < payload.len() {
        // `out.len() <= expected_len` holds throughout, so the room left
        // never underflows.
        let lit_len = varint::read(payload, &mut pos)?;
        if lit_len > (expected_len - out.len()) as u64 {
            return Err(Error::Malformed("lz77 literals exceed declared length"));
        }
        let lit_end = pos
            .checked_add(lit_len as usize)
            .ok_or(Error::Malformed("lz77 literal overflow"))?;
        let lits = payload.get(pos..lit_end).ok_or(Error::Truncated)?;
        out.extend_from_slice(lits);
        pos = lit_end;

        let match_len = varint::read(payload, &mut pos)?;
        if match_len == 0 {
            continue;
        }
        if match_len > MAX_MATCH as u64 {
            return Err(Error::Malformed("lz77 match longer than the encoder emits"));
        }
        let match_len = match_len as usize;
        let dist = varint::read(payload, &mut pos)?;
        if dist == 0 || dist > out.len() as u64 {
            return Err(Error::Malformed("lz77 distance out of range"));
        }
        if match_len > expected_len - out.len() {
            return Err(Error::Malformed("lz77 match exceeds declared length"));
        }
        crate::try_grow(&mut out, match_len)?;
        // Byte-by-byte copy: overlapping matches (dist < len) are the RLE
        // idiom and must self-reference the bytes being produced.
        let start = out.len() - dist as usize;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        assert_eq!(
            decode(&enc, data.len()).unwrap(),
            data,
            "len {}",
            data.len()
        );
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0, 0, 0, 0]);
    }

    #[test]
    fn overlapping_match_rle_idiom() {
        let data = vec![b'a'; 5000];
        let enc = encode(&data);
        assert!(enc.len() < 40, "run of 5000 became {}", enc.len());
        roundtrip(&data);
    }

    #[test]
    fn periodic_pattern() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
        let enc = encode(&data);
        assert!(enc.len() < data.len() / 8);
        roundtrip(&data);
    }

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        let phrase = b"offloading kernels to the spark cluster";
        data.extend_from_slice(phrase);
        data.extend(std::iter::repeat_n(7u8, 20_000));
        data.extend_from_slice(phrase);
        roundtrip(&data);
    }

    #[test]
    fn match_beyond_window_not_used() {
        // Same phrase separated by > WINDOW incompressible bytes: must still
        // roundtrip (correctness), even though the second phrase cannot
        // reference the first.
        let mut x: u64 = 99;
        let mut data = Vec::new();
        data.extend_from_slice(b"unique-phrase-at-the-start");
        for _ in 0..WINDOW + 100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((x >> 33) as u8);
        }
        data.extend_from_slice(b"unique-phrase-at-the-start");
        roundtrip(&data);
    }

    #[test]
    fn bad_distance_rejected() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1);
        payload.push(b'x');
        varint::write(&mut payload, 5); // match_len
        varint::write(&mut payload, 10); // dist > produced bytes
        assert!(decode(&payload, 100).is_err());
    }

    #[test]
    fn over_long_match_rejected() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1);
        payload.push(b'x');
        varint::write(&mut payload, MAX_MATCH as u64 + 1);
        varint::write(&mut payload, 1);
        assert!(decode(&payload, usize::MAX).is_err());
    }

    #[test]
    fn forged_length_reserves_only_what_the_payload_can_produce() {
        // A declared length of 2^62 used to be passed to
        // `Vec::with_capacity` as-is: an allocation failure that aborts
        // the process. Now it is bounded by the payload.
        assert_eq!(decode(&[5], 1 << 62), Err(Error::Truncated));
        let mut payload = Vec::new();
        varint::write(&mut payload, u64::MAX);
        assert!(decode(&payload, usize::MAX).is_err());
    }

    #[test]
    fn bomb_guard() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1);
        payload.push(b'x');
        varint::write(&mut payload, 1_000_000);
        varint::write(&mut payload, 1);
        assert!(decode(&payload, 10).is_err());
    }
}
