#![warn(missing_docs)]

//! `gzlite` — a small, dependency-free byte codec used by OmpCloud-rs
//! wherever the original OmpCloud system shelled out to gzip.
//!
//! The ICPP'17 paper compresses every offloaded buffer larger than a
//! configurable threshold before shipping it to cloud storage, and its
//! evaluation (Fig. 5) hinges on the fact that *sparse* matrices compress
//! much better than *dense* ones. This crate reproduces that behaviour with
//! two real codecs built from scratch:
//!
//! * [`Codec::ZeroRle`] — run-length encoding of zero bytes. Sparse
//!   float matrices are mostly `0x00` bytes, so this is both very fast and
//!   very effective on them, mirroring the paper's observation that "sparse
//!   matrices are compressed faster with better compression rate".
//! * [`Codec::Lz77`] — a greedy hash-chain LZ77 with varint-coded tokens,
//!   the general-purpose workhorse (a simplified DEFLATE match stage).
//!
//! [`compress_auto`] samples the input and picks the cheaper codec, which is
//! what the OmpCloud transfer threads use by default.
//!
//! Every frame is self-describing (magic, codec id, original length) and
//! integrity-checked with a from-scratch CRC-32 so that corrupted transfers
//! surface as [`Error::ChecksumMismatch`] instead of silent data damage.
//!
//! ```
//! let data = vec![0u8; 4096];
//! let frame = gzlite::compress_auto(&data);
//! assert!(frame.len() < data.len() / 10);
//! assert_eq!(gzlite::decompress(&frame).unwrap(), data);
//! ```

mod crc32;
mod frame;
mod lz77;
mod rle;
pub mod shuffle;
pub mod stream;
mod varint;

pub use crc32::{crc32, crc32_reference};
pub use frame::{FRAME_OVERHEAD, MAGIC};
pub use stream::{
    compress_stream, compress_stream_parallel, decompress_stream, decompress_stream_parallel,
    is_stream, DEFAULT_CHUNK, STREAM_MAGIC,
};

use std::fmt;

/// Reserve room for `additional` more output bytes, or fail with an
/// error instead of aborting the process: decoders size their output
/// from lengths read out of untrusted frames, and an allocation failure
/// is not something `catch_unwind` can stop.
pub(crate) fn try_grow(out: &mut Vec<u8>, additional: usize) -> Result<(), Error> {
    out.try_reserve(additional)
        .map_err(|_| Error::Malformed("declared length does not fit in memory"))
}

/// Identifies the compression algorithm stored inside a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw passthrough; used when compression would expand the input.
    Store,
    /// Zero-byte run-length encoding (fast path for sparse numeric data).
    ZeroRle,
    /// Greedy hash-chain LZ77 with varint token coding.
    Lz77,
    /// Byte-shuffle with stride 4 (f32/i32 planes) followed by LZ77 —
    /// the filter that makes dense float data compressible.
    Shuffle4Lz77,
    /// Byte-shuffle with stride 8 (f64/i64 planes) followed by LZ77.
    Shuffle8Lz77,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::Store => 0,
            Codec::ZeroRle => 1,
            Codec::Lz77 => 2,
            Codec::Shuffle4Lz77 => 3,
            Codec::Shuffle8Lz77 => 4,
        }
    }

    fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::Store),
            1 => Some(Codec::ZeroRle),
            2 => Some(Codec::Lz77),
            3 => Some(Codec::Shuffle4Lz77),
            4 => Some(Codec::Shuffle8Lz77),
            _ => None,
        }
    }

    fn shuffle_stride(self) -> Option<usize> {
        match self {
            Codec::Shuffle4Lz77 => Some(4),
            Codec::Shuffle8Lz77 => Some(8),
            _ => None,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Store => write!(f, "store"),
            Codec::ZeroRle => write!(f, "zero-rle"),
            Codec::Lz77 => write!(f, "lz77"),
            Codec::Shuffle4Lz77 => write!(f, "shuffle4+lz77"),
            Codec::Shuffle8Lz77 => write!(f, "shuffle8+lz77"),
        }
    }
}

/// Errors surfaced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Frame does not start with [`MAGIC`].
    BadMagic,
    /// Frame declares a codec id this build does not know.
    UnknownCodec(u8),
    /// Frame ended in the middle of a token or header field.
    Truncated,
    /// A varint field exceeded its domain.
    Malformed(&'static str),
    /// Payload decoded fine but the CRC-32 trailer disagrees.
    ChecksumMismatch {
        /// CRC-32 recorded in the frame trailer.
        expected: u32,
        /// CRC-32 of the decoded payload.
        actual: u32,
    },
    /// The decoded length differs from the length declared in the header.
    LengthMismatch {
        /// Length declared in the frame header.
        declared: usize,
        /// Length actually decoded.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadMagic => write!(f, "bad frame magic"),
            Error::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            Error::Truncated => write!(f, "truncated frame"),
            Error::Malformed(what) => write!(f, "malformed frame: {what}"),
            Error::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            Error::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declared {declared}, decoded {actual}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Compress `input` with an explicitly chosen codec.
///
/// If the chosen codec expands the data, the frame silently falls back to
/// [`Codec::Store`], so the result is never more than [`FRAME_OVERHEAD`]
/// bytes larger than the input.
pub fn compress(input: &[u8], codec: Codec) -> Vec<u8> {
    let payload = match codec {
        Codec::Store => None,
        Codec::ZeroRle => Some(rle::encode(input)),
        Codec::Lz77 => Some(lz77::encode(input)),
        Codec::Shuffle4Lz77 => Some(lz77::encode(&shuffle::shuffle(input, 4))),
        Codec::Shuffle8Lz77 => Some(lz77::encode(&shuffle::shuffle(input, 8))),
    };
    match payload {
        Some(p) if p.len() < input.len() => frame::seal(codec, input.len(), &p, crc32(input)),
        _ => frame::seal(Codec::Store, input.len(), input, crc32(input)),
    }
}

/// Compress `input`, picking a codec from a cheap per-buffer entropy
/// sample ([`probe`]), the strategy used by the OmpCloud transfer threads.
pub fn compress_auto(input: &[u8]) -> Vec<u8> {
    compress(input, probe(input))
}

/// Per-plane byte histograms over a (possibly windowed) sample.
struct ProbeStats {
    total: usize,
    zeros: usize,
    hist: [u32; 256],
    hist4: [[u32; 256]; 4],
    hist8: [[u32; 256]; 8],
    matches: usize,
    match_positions: usize,
}

impl ProbeStats {
    fn new() -> Self {
        ProbeStats {
            total: 0,
            zeros: 0,
            hist: [0; 256],
            hist4: [[0; 256]; 4],
            hist8: [[0; 256]; 8],
            matches: 0,
            match_positions: 0,
        }
    }

    /// Accumulate one window. `window` must start at an 8-byte-aligned
    /// offset of the original buffer so the stride-4/8 planes keep their
    /// phase across windows.
    fn scan(&mut self, window: &[u8], table: &mut [u32; 4096], history: &mut Vec<u8>) {
        for (i, &b) in window.iter().enumerate() {
            self.total += 1;
            if b == 0 {
                self.zeros += 1;
            }
            self.hist[b as usize] += 1;
            self.hist4[i & 3][b as usize] += 1;
            self.hist8[i & 7][b as usize] += 1;
        }
        // Count 4-byte matches against earlier sample positions — a cheap
        // stand-in for the LZ77 match stage that catches repetitive data
        // whose order-0 byte entropy looks incompressible.
        let base = history.len();
        history.extend_from_slice(window);
        if window.len() < 4 {
            return;
        }
        for i in 0..window.len() - 3 {
            let pos = base + i;
            let word = u32::from_le_bytes(history[pos..pos + 4].try_into().unwrap());
            let slot = (word.wrapping_mul(2654435761) >> 20) as usize;
            let cand = table[slot] as usize;
            self.match_positions += 1;
            if cand < pos && history[cand..cand + 4] == history[pos..pos + 4] {
                self.matches += 1;
            }
            table[slot] = pos as u32;
        }
    }

    fn entropy(hist: &[u32; 256], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        let mut h = 0.0;
        for &c in hist.iter() {
            if c > 0 {
                let p = f64::from(c) / n;
                h -= p * p.log2();
            }
        }
        h
    }

    fn plane_entropy<const K: usize>(planes: &[[u32; 256]; K]) -> f64 {
        let mut weighted = 0.0;
        let mut counted = 0usize;
        for plane in planes.iter() {
            let n: usize = plane.iter().map(|&c| c as usize).sum();
            weighted += Self::entropy(plane, n) * n as f64;
            counted += n;
        }
        if counted == 0 {
            0.0
        } else {
            weighted / counted as f64
        }
    }

    fn decide(&self) -> Codec {
        if self.total == 0 {
            return Codec::Store;
        }
        // Mostly-zero data: the RLE path is an order of magnitude faster
        // than LZ77 and compresses long zero runs just as well.
        if self.zeros * 2 >= self.total {
            return Codec::ZeroRle;
        }
        let match_ratio = if self.match_positions == 0 {
            0.0
        } else {
            self.matches as f64 / self.match_positions as f64
        };
        // Dense repeats (text, periodic data): LZ77 wins regardless of
        // byte entropy, which can look near-uniform for periodic data.
        if match_ratio > 0.5 {
            return Codec::Lz77;
        }
        let h = Self::entropy(&self.hist, self.total);
        let h4 = Self::plane_entropy(&self.hist4);
        let h8 = Self::plane_entropy(&self.hist8);
        // Structured numeric data: a byte plane with materially lower
        // entropy than the mixed stream means a shuffle filter will expose
        // runs to LZ77 (exponent planes of dense floats).
        let hp = h4.min(h8);
        if hp < 7.0 && hp + 0.3 < h {
            return if h8 + 0.25 < h4 {
                Codec::Shuffle8Lz77
            } else {
                Codec::Shuffle4Lz77
            };
        }
        if match_ratio > 0.15 || h < 6.0 {
            return Codec::Lz77;
        }
        Codec::Store
    }
}

/// Inspect a cheap entropy sample of `input` and guess the best codec for
/// the whole buffer. Exposed so the transfer manager can report its
/// decision.
///
/// Unlike the trial-encode probe this replaced (kept as
/// [`probe_exhaustive`]), this runs one streaming pass over at most
/// 16 KiB of windows spread through the buffer, measuring the zero
/// fraction, order-0 byte entropy, stride-4/8 plane entropies, and
/// 4-byte match density — a few microseconds instead of four trial
/// encodes of a 64 KiB prefix.
pub fn probe(input: &[u8]) -> Codec {
    const WINDOW: usize = 4 * 1024;
    const WINDOWS: usize = 4;
    let mut stats = ProbeStats::new();
    let mut table = Box::new([u32::MAX; 4096]);
    let mut history = Vec::with_capacity(WINDOW * WINDOWS);
    if input.len() <= WINDOW * WINDOWS {
        stats.scan(input, &mut table, &mut history);
    } else {
        // Spread windows through the buffer; align starts to 8 bytes so
        // the stride planes keep a consistent phase.
        let last = input.len() - WINDOW;
        for k in 0..WINDOWS {
            let start = (last * k / (WINDOWS - 1)) & !7;
            stats.scan(&input[start..start + WINDOW], &mut table, &mut history);
        }
    }
    stats.decide()
}

/// The original trial-encode probe: encodes a 64 KiB prefix with every
/// candidate codec and keeps the smallest. Retained as the "before"
/// baseline for the codec throughput benchmarks and as a second opinion
/// for offline tooling; the hot path uses [`probe`].
pub fn probe_exhaustive(input: &[u8]) -> Codec {
    const SAMPLE: usize = 64 * 1024;
    let sample = &input[..input.len().min(SAMPLE)];
    if sample.is_empty() {
        return Codec::Store;
    }
    let zeros = sample.iter().filter(|&&b| b == 0).count();
    if zeros * 2 >= sample.len() {
        return Codec::ZeroRle;
    }
    let rle_len = rle::encode(sample).len();
    let lz_len = lz77::encode(sample).len();
    let sh4_len = lz77::encode(&shuffle::shuffle(sample, 4)).len();
    let sh8_len = lz77::encode(&shuffle::shuffle(sample, 8)).len();
    let best = [
        (Codec::ZeroRle, rle_len),
        (Codec::Lz77, lz_len),
        (Codec::Shuffle4Lz77, sh4_len),
        (Codec::Shuffle8Lz77, sh8_len),
    ]
    .into_iter()
    .min_by_key(|(_, len)| *len)
    .expect("non-empty candidates");
    if best.1 >= sample.len() {
        Codec::Store
    } else {
        best.0
    }
}

/// The full pre-optimization encode path, retained (like
/// [`crc32_reference`] and [`probe_exhaustive`]) as the "before" leg of
/// the codec throughput benchmarks: trial-encode codec probe, one
/// sequential frame, sealed with the bytewise reference CRC. The frames
/// it produces stay wire-compatible — [`crc32`] computes the same
/// polynomial — so [`decompress`] opens them fine. The hot path is
/// [`encode_wire`].
pub fn compress_reference(input: &[u8]) -> Vec<u8> {
    let codec = probe_exhaustive(input);
    let payload = match codec {
        Codec::Store => None,
        Codec::ZeroRle => Some(rle::encode(input)),
        Codec::Lz77 => Some(lz77::encode(input)),
        Codec::Shuffle4Lz77 => Some(lz77::encode(&shuffle::shuffle(input, 4))),
        Codec::Shuffle8Lz77 => Some(lz77::encode(&shuffle::shuffle(input, 8))),
    };
    match payload {
        Some(p) if p.len() < input.len() => {
            frame::seal(codec, input.len(), &p, crc32_reference(input))
        }
        _ => frame::seal(Codec::Store, input.len(), input, crc32_reference(input)),
    }
}

/// Wire-encoding policy handed down by the transfer layer.
///
/// This is the **single decision point** for wire compression: the
/// transfer manager delegates the raw/compress/stream choice entirely to
/// [`plan_wire`] instead of second-guessing the codec with its own
/// `min_compression_size` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePolicy {
    /// Buffers smaller than this ship raw — frame overhead and probe cost
    /// would dominate any gain.
    pub min_compression_size: usize,
    /// Buffers at least this large are split into chunked streams so
    /// compression can fan out across worker threads.
    pub stream_threshold: usize,
    /// Chunk size for streamed frames.
    pub stream_chunk: usize,
    /// Worker threads for chunked compress/decompress (0 or 1 = sequential).
    pub threads: usize,
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy {
            min_compression_size: 1024,
            stream_threshold: 1024 * 1024,
            stream_chunk: 256 * 1024,
            threads: 1,
        }
    }
}

/// The shape [`plan_wire`] chose for a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePlan {
    /// Ship the payload raw, uncompressed.
    Raw,
    /// Seal one frame with the given codec.
    Single(Codec),
    /// Split into a chunked stream; each chunk picks its own codec.
    Chunked {
        /// Chunk size in bytes.
        chunk_size: usize,
    },
}

/// Decide how `payload` should travel on the wire under `policy`.
///
/// Per-buffer adaptive: every payload above the size floor gets its own
/// entropy probe, and a buffer that probes incompressible ships raw even
/// when it is large enough for the chunked stream path — chunking an
/// incompressible buffer pays frame overhead and thread fan-out for
/// nothing. The old behavior (one global threshold deciding raw vs
/// stream by size alone) over-compressed high-entropy buffers and
/// under-compressed small structured ones.
pub fn plan_wire(payload: &[u8], policy: &WirePolicy) -> WirePlan {
    if payload.len() < policy.min_compression_size {
        return WirePlan::Raw;
    }
    match probe(payload) {
        Codec::Store => WirePlan::Raw,
        codec => {
            if payload.len() >= policy.stream_threshold {
                WirePlan::Chunked {
                    chunk_size: policy.stream_chunk.max(1),
                }
            } else {
                WirePlan::Single(codec)
            }
        }
    }
}

/// Encode `payload` for the wire per `policy`. Returns `None` when the
/// payload should ship raw (too small, probed incompressible, or the
/// encoded form failed to shrink).
pub fn encode_wire(payload: &[u8], policy: &WirePolicy) -> Option<Vec<u8>> {
    match plan_wire(payload, policy) {
        WirePlan::Raw => None,
        WirePlan::Single(codec) => {
            let frame = compress(payload, codec);
            (frame.len() < payload.len()).then_some(frame)
        }
        WirePlan::Chunked { chunk_size } => {
            let stream = stream::compress_stream_parallel(payload, chunk_size, policy.threads);
            (stream.len() < payload.len()).then_some(stream)
        }
    }
}

/// Decode a frame produced by [`compress`] / [`compress_auto`].
pub fn decompress(frame_bytes: &[u8]) -> Result<Vec<u8>, Error> {
    let parsed = frame::open(frame_bytes)?;
    let out = match parsed.codec {
        Codec::Store => parsed.payload.to_vec(),
        Codec::ZeroRle => rle::decode(parsed.payload, parsed.original_len)?,
        Codec::Lz77 => lz77::decode(parsed.payload, parsed.original_len)?,
        Codec::Shuffle4Lz77 | Codec::Shuffle8Lz77 => {
            let stride = parsed.codec.shuffle_stride().expect("shuffle codec");
            let planes = lz77::decode(parsed.payload, parsed.original_len)?;
            shuffle::unshuffle(&planes, stride)
        }
    };
    if out.len() != parsed.original_len {
        return Err(Error::LengthMismatch {
            declared: parsed.original_len,
            actual: out.len(),
        });
    }
    let actual = crc32(&out);
    if actual != parsed.checksum {
        return Err(Error::ChecksumMismatch {
            expected: parsed.checksum,
            actual,
        });
    }
    Ok(out)
}

/// Which codec a sealed frame used (handy for transfer reports).
pub fn frame_codec(frame_bytes: &[u8]) -> Result<Codec, Error> {
    Ok(frame::open(frame_bytes)?.codec)
}

/// Compression statistics for a single sealed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Size of the original buffer in bytes.
    pub raw_len: usize,
    /// Size of the sealed frame in bytes (header + payload + trailer).
    pub frame_len: usize,
    /// Codec selected for the frame.
    pub codec: Codec,
}

impl Stats {
    /// Compression ratio `frame/raw`; 1.0 means "no gain".
    pub fn ratio(&self) -> f64 {
        if self.raw_len == 0 {
            1.0
        } else {
            self.frame_len as f64 / self.raw_len as f64
        }
    }
}

/// Compress and report [`Stats`] in one call.
pub fn compress_with_stats(input: &[u8]) -> (Vec<u8>, Stats) {
    let frame = compress_auto(input);
    let codec = frame_codec(&frame).expect("frame we just sealed is valid");
    let stats = Stats {
        raw_len: input.len(),
        frame_len: frame.len(),
        codec,
    };
    (frame, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], codec: Codec) {
        let frame = compress(data, codec);
        assert_eq!(decompress(&frame).unwrap(), data, "codec {codec}");
    }

    /// Regression: a frame of a few bytes declaring 2^62 output bytes
    /// used to abort the process inside `Vec::with_capacity`.
    #[test]
    fn forged_declared_length_is_an_error_not_an_abort() {
        for codec in [Codec::ZeroRle, Codec::Lz77, Codec::Shuffle4Lz77] {
            let mut frame = MAGIC.to_vec();
            frame.push(codec.id());
            varint::write(&mut frame, 1 << 62);
            frame.push(0);
            frame.extend_from_slice(&crc32(&[]).to_le_bytes());
            assert!(decompress(&frame).is_err(), "codec {codec}");
        }
    }

    #[test]
    fn empty_input_roundtrips_all_codecs() {
        for codec in [Codec::Store, Codec::ZeroRle, Codec::Lz77] {
            roundtrip(&[], codec);
        }
    }

    #[test]
    fn single_byte_roundtrips() {
        for codec in [Codec::Store, Codec::ZeroRle, Codec::Lz77] {
            roundtrip(&[42], codec);
        }
    }

    #[test]
    fn zeros_compress_well_with_rle() {
        let data = vec![0u8; 1 << 16];
        let frame = compress(&data, Codec::ZeroRle);
        assert!(
            frame.len() < 64,
            "65536 zero bytes became {} bytes",
            frame.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn repetitive_text_compresses_with_lz77() {
        let data: Vec<u8> = b"the cloud as an openmp offloading device "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let frame = compress(&data, Codec::Lz77);
        assert!(frame.len() < data.len() / 4, "got {}", frame.len());
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn incompressible_data_falls_back_to_store() {
        // A linear congruential stream has essentially no repeats at byte
        // granularity, so both codecs should give up.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let frame = compress_auto(&data);
        assert_eq!(frame_codec(&frame).unwrap(), Codec::Store);
        assert!(frame.len() <= data.len() + FRAME_OVERHEAD);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn probe_picks_rle_for_sparse_floats() {
        // 5% non-zero f32 matrix, little-endian bytes.
        let mut bytes = vec![0u8; 40_000];
        for i in (0..bytes.len()).step_by(80) {
            bytes[i..i + 4].copy_from_slice(&1.5f32.to_le_bytes());
        }
        assert_eq!(probe(&bytes), Codec::ZeroRle);
    }

    #[test]
    fn plan_wire_is_per_buffer_adaptive() {
        let policy = WirePolicy {
            min_compression_size: 1024,
            stream_threshold: 16 * 1024,
            stream_chunk: 4 * 1024,
            threads: 1,
        };
        // Below the floor: always raw, no probe.
        assert_eq!(plan_wire(&[0u8; 512], &policy), WirePlan::Raw);
        // Large but incompressible: the probe overrides the stream path.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let noise: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(plan_wire(&noise, &policy), WirePlan::Raw);
        // Large and compressible: chunked stream.
        assert_eq!(
            plan_wire(&vec![0u8; 32 * 1024], &policy),
            WirePlan::Chunked { chunk_size: 4096 }
        );
        // Mid-sized and compressible: one sealed frame.
        assert!(matches!(
            plan_wire(&vec![0u8; 8 * 1024], &policy),
            WirePlan::Single(_)
        ));
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let data = vec![7u8; 1024];
        let mut frame = compress(&data, Codec::ZeroRle);
        let idx = frame.len() / 2;
        frame[idx] ^= 0xFF;
        assert!(decompress(&frame).is_err());
    }

    #[test]
    fn corrupted_magic_is_detected() {
        let mut frame = compress_auto(&[1, 2, 3]);
        frame[0] ^= 0xFF;
        assert_eq!(decompress(&frame), Err(Error::BadMagic));
    }

    #[test]
    fn truncated_frame_is_detected() {
        let frame = compress(&vec![9u8; 512], Codec::Lz77);
        for cut in [0, 1, frame.len() / 2, frame.len() - 1] {
            assert!(decompress(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_report_ratio() {
        let (_, stats) = compress_with_stats(&vec![0u8; 10_000]);
        assert_eq!(stats.raw_len, 10_000);
        assert!(stats.ratio() < 0.02);
        assert_eq!(stats.codec, Codec::ZeroRle);
    }

    #[test]
    fn shuffle_codec_roundtrips() {
        let floats: Vec<u8> = (0..4096)
            .flat_map(|i| (0.5f32 + (i as f32).sin()).to_le_bytes())
            .collect();
        for codec in [Codec::Shuffle4Lz77, Codec::Shuffle8Lz77] {
            let frame = compress(&floats, codec);
            assert_eq!(decompress(&frame).unwrap(), floats, "{codec}");
        }
    }

    #[test]
    fn shuffle_makes_dense_floats_compressible() {
        // Uniform random floats in [0,1): plain LZ77 finds nothing, the
        // byte-shuffled exponent/high-mantissa planes do compress.
        let mut x: u64 = 7;
        let dense: Vec<u8> = (0..1 << 16)
            .flat_map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (x >> 40) as f32 / (1u64 << 24) as f32;
                v.to_le_bytes()
            })
            .collect();
        let plain = compress(&dense, Codec::Lz77);
        let shuffled = compress(&dense, Codec::Shuffle4Lz77);
        assert_eq!(
            frame_codec(&plain).unwrap(),
            Codec::Store,
            "plain LZ77 gives up"
        );
        assert_eq!(frame_codec(&shuffled).unwrap(), Codec::Shuffle4Lz77);
        assert!(
            shuffled.len() < dense.len() * 95 / 100,
            "shuffled {} vs raw {}",
            shuffled.len(),
            dense.len()
        );
        // And auto-probe now picks the shuffle codec for such data.
        let auto = compress_auto(&dense);
        assert_eq!(frame_codec(&auto).unwrap(), Codec::Shuffle4Lz77);
        assert_eq!(decompress(&auto).unwrap(), dense);
    }

    #[test]
    fn sparse_beats_dense_ratio() {
        // This is the asymmetry the paper's Fig. 5 is built on.
        let sparse = {
            let mut v = vec![0u8; 32_768];
            for i in (0..v.len()).step_by(40) {
                v[i] = (i % 251) as u8;
            }
            v
        };
        let dense: Vec<u8> = (0..32_768u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let (_, s_sparse) = compress_with_stats(&sparse);
        let (_, s_dense) = compress_with_stats(&dense);
        assert!(s_sparse.ratio() < s_dense.ratio());
        assert!(s_sparse.ratio() < 0.3);
    }
}
