//! The compress layer, measured by calling the `gzlite` wire API on the
//! workload's own mapped buffers with the policy the runtime's transfer
//! engine derives from the same configuration.

use crate::report::Outcome;
use crate::trace::{Span, Tracer, NONE};
use cloud_storage::TransferConfig;
use gzlite::WirePolicy;
use omp_model::DataEnv;
use ompcloud::CloudConfig;

/// Accumulated codec measurements.
pub struct CodecProbe {
    policy: WirePolicy,
    samples: usize,
    raw_bytes: u64,
    wire_bytes: u64,
    shipped_raw_bytes: u64,
    encode_ns: u64,
    decoded_bytes: u64,
    decode_ns: u64,
}

impl CodecProbe {
    /// Probe using the wire policy `config` gives the transfer engine.
    pub fn new(config: &CloudConfig) -> CodecProbe {
        let transfer = TransferConfig {
            min_compression_size: config.min_compression_size,
            codec_threads: config.io_threads,
            ..TransferConfig::default()
        };
        CodecProbe {
            policy: transfer.wire_policy(),
            samples: 0,
            raw_bytes: 0,
            wire_bytes: 0,
            shipped_raw_bytes: 0,
            encode_ns: 0,
            decoded_bytes: 0,
            decode_ns: 0,
        }
    }

    /// Probes taken so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Encode and decode each named buffer of `env` once, checking the
    /// round trip.
    pub fn measure(
        &mut self,
        env: &DataEnv,
        vars: &[String],
        region: u64,
        tracer: &Tracer,
    ) -> Result<(), String> {
        for var in vars {
            let raw = env
                .get_erased(var)
                .map_err(|e| format!("codec probe: {e}"))?
                .to_bytes();
            let len = raw.len() as u64;
            let t0 = tracer.now_ns();
            let wire = gzlite::encode_wire(&raw, &self.policy);
            let t1 = tracer.now_ns();
            span(tracer, "encode", region, t0, t1, len);
            self.raw_bytes += len;
            self.encode_ns += t1 - t0;
            match wire {
                None => {
                    self.wire_bytes += len;
                    self.shipped_raw_bytes += len;
                }
                Some(wire) => {
                    self.wire_bytes += wire.len() as u64;
                    let t0 = tracer.now_ns();
                    let decoded = if gzlite::is_stream(&wire) {
                        gzlite::decompress_stream_parallel(&wire, self.policy.threads)
                    } else {
                        gzlite::decompress(&wire)
                    }
                    .map_err(|e| format!("codec probe: decoding {var}: {e}"))?;
                    let t1 = tracer.now_ns();
                    span(tracer, "decode", region, t0, t1, len);
                    if decoded != raw {
                        return Err(format!("codec probe: {var} did not round-trip"));
                    }
                    self.decoded_bytes += len;
                    self.decode_ns += t1 - t0;
                }
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Write the `compress.*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        let rate = |bytes: u64, ns: u64| {
            if ns == 0 {
                0.0
            } else {
                bytes as f64 / 1e6 / (ns as f64 / 1e9)
            }
        };
        let share = |part: u64| {
            if self.raw_bytes == 0 {
                0.0
            } else {
                part as f64 / self.raw_bytes as f64
            }
        };
        out.set("compress.ratio", share(self.wire_bytes));
        out.set("compress.encode_mb_s", rate(self.raw_bytes, self.encode_ns));
        out.set(
            "compress.decode_mb_s",
            rate(self.decoded_bytes, self.decode_ns),
        );
        out.set("compress.raw_share", share(self.shipped_raw_bytes));
    }
}

fn span(tracer: &Tracer, name: &'static str, region: u64, start: u64, end: u64, bytes: u64) {
    tracer.record(Span {
        id: tracer.new_id(),
        name,
        layer: "compress",
        region,
        parent: NONE,
        start_ns: start,
        end_ns: end,
        bytes,
        phase: "",
    });
}
