//! The host-side transfer engine of the cloud plug-in.
//!
//! Per §III-A of the paper: "Our cloud plugin automatically creates a new
//! thread for transmitting each offloaded data (possibly after gzip
//! compression if the data size is larger than a predefined minimal
//! compression size)." This module reproduces that exactly — one worker
//! per buffer, compression above `min_compression_size`, transparent
//! decompression on download — and reports per-item raw/wire byte counts
//! and timings, the raw material of the Fig. 5 "host-target
//! communication" bars.
//!
//! Every store operation runs under a [`RetryPolicy`] session:
//! exponential backoff with decorrelated jitter on transient faults,
//! per-op/whole-transfer deadlines, and a separate bounded re-fetch
//! budget for corruption. Downloads are verified end to end: the wire
//! bytes of every put are recorded in a crc32 ledger (falling back to the
//! backend's own [`checksum`](ObjectStore::checksum) for objects staged
//! elsewhere) and checked on get before decompression — a mismatch
//! surfaces as retryable [`StorageError::Corrupted`], never as silent
//! bad data.

use crate::pack::{self, PackMember};
use crate::pool::{BytePool, PoolBuf};
use crate::retry::{RetryPolicy, RetryStats};
use crate::{StorageError, StoreHandle};
use gzlite::MAGIC;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs of the transfer engine.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Compress buffers at least this large (bytes). `usize::MAX`
    /// disables compression.
    pub min_compression_size: usize,
    /// Buffers at least this large are compressed as chunked multi-frame
    /// streams (bounded working set, multipart-upload friendly, and the
    /// unit of intra-buffer compression parallelism).
    pub stream_threshold: usize,
    /// Chunk size for streamed compression. Also the raw-byte cap of a
    /// packed object and of each buffer packed into one (see
    /// [`TransferManager::upload_fetch_packed`]).
    pub stream_chunk: usize,
    /// Worker threads fanned over the chunks of a single streamed buffer
    /// (compress and decompress). 0 or 1 = sequential.
    pub codec_threads: usize,
    /// Retry/backoff/deadline policy applied to every store operation.
    pub retry: RetryPolicy,
    /// Verify the crc32 of the wire bytes on every download against the
    /// upload-time ledger (or the backend checksum). Mismatches surface
    /// as retryable [`StorageError::Corrupted`].
    pub verify_integrity: bool,
    /// Cap on concurrent transfer threads (one per buffer up to this).
    pub max_threads: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            // The reference OmpCloud uses a ~1 KiB floor: tiny buffers are
            // cheaper to send raw than to compress.
            min_compression_size: 1024,
            stream_threshold: 1024 * 1024,
            stream_chunk: 256 * 1024,
            codec_threads: 4,
            retry: RetryPolicy::default(),
            verify_integrity: true,
            max_threads: 16,
        }
    }
}

impl TransferConfig {
    /// The wire-encoding policy this config hands the codec — the single
    /// decision point for raw/compress/stream (see [`gzlite::plan_wire`]).
    pub fn wire_policy(&self) -> gzlite::WirePolicy {
        gzlite::WirePolicy {
            min_compression_size: self.min_compression_size,
            stream_threshold: self.stream_threshold,
            stream_chunk: self.stream_chunk,
            threads: self.codec_threads.max(1),
        }
    }
}

/// Outcome of one buffer's transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemReport {
    /// Storage key.
    pub key: String,
    /// Uncompressed payload size.
    pub raw_bytes: u64,
    /// Bytes that actually hit the store.
    pub wire_bytes: u64,
    /// Whether the payload was compressed.
    pub compressed: bool,
    /// Wall time spent on this item (compression + store op).
    pub seconds: f64,
    /// Transient-fault retries performed.
    pub retries: u32,
    /// Corruption-triggered re-fetches performed.
    pub refetches: u32,
    /// Ops that overran their deadline (slow successes included).
    pub timeouts: u32,
    /// Time spent sleeping in retry backoff.
    pub backoff_s: f64,
}

impl ItemReport {
    fn fold_stats(&mut self, stats: RetryStats) {
        self.retries += stats.retries;
        self.refetches += stats.refetches;
        self.timeouts += stats.timeouts;
        self.backoff_s += stats.backoff.as_secs_f64();
    }
}

/// Aggregate outcome of a batch transfer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferReport {
    /// Per-buffer details.
    pub items: Vec<ItemReport>,
    /// Wall time of the whole batch (threads overlap, so this is less
    /// than the sum of item times).
    pub wall_seconds: f64,
}

impl TransferReport {
    /// Total uncompressed bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.raw_bytes).sum()
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.wire_bytes).sum()
    }

    /// Achieved compression ratio (wire/raw); 1.0 when nothing shrank.
    pub fn ratio(&self) -> f64 {
        let raw = self.raw_bytes();
        if raw == 0 {
            1.0
        } else {
            self.wire_bytes() as f64 / raw as f64
        }
    }

    /// Transient-fault retries across the batch.
    pub fn total_retries(&self) -> u32 {
        self.items.iter().map(|i| i.retries).sum()
    }

    /// Corruption re-fetches across the batch.
    pub fn total_refetches(&self) -> u32 {
        self.items.iter().map(|i| i.refetches).sum()
    }

    /// Deadline overruns across the batch.
    pub fn total_timeouts(&self) -> u32 {
        self.items.iter().map(|i| i.timeouts).sum()
    }

    /// Seconds slept in retry backoff across the batch.
    pub fn total_backoff_s(&self) -> f64 {
        self.items.iter().map(|i| i.backoff_s).sum()
    }
}

/// Outcome of a fused two-stage pipeline run ([`TransferManager::upload_fetch_pipelined`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Per-buffer details: uploaded-and-fetched items first (in request
    /// order), then fetch-only items.
    pub items: Vec<ItemReport>,
    /// Wall time of the whole pipeline.
    pub wall_seconds: f64,
    /// Aggregate CPU busy time summed over every compression worker
    /// (compression + decompression). With `cpu_workers` threads busy
    /// simultaneously this can exceed `wall_seconds`; use
    /// [`cpu_path_seconds`](Self::cpu_path_seconds) for a wall-comparable
    /// figure.
    pub cpu_busy_seconds: f64,
    /// Aggregate storage busy time summed over every I/O worker
    /// (puts + gets). See `cpu_busy_seconds` for the normalization caveat.
    pub io_busy_seconds: f64,
    /// Compression-stage pool width the busy time was summed over.
    pub cpu_workers: usize,
    /// I/O-stage pool width the busy time was summed over.
    pub io_workers: usize,
    /// Buffers the pipeline put (its put items).
    pub buffers_put: usize,
    /// Store objects those buffers went out as: fewer than
    /// `buffers_put` when small buffers shared a pack.
    pub objects_put: usize,
}

impl PipelineReport {
    /// Total uncompressed bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.raw_bytes).sum()
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.wire_bytes).sum()
    }

    /// Transient-fault retries across the pipeline.
    pub fn total_retries(&self) -> u32 {
        self.items.iter().map(|i| i.retries).sum()
    }

    /// Corruption re-fetches across the pipeline.
    pub fn total_refetches(&self) -> u32 {
        self.items.iter().map(|i| i.refetches).sum()
    }

    /// Deadline overruns across the pipeline.
    pub fn total_timeouts(&self) -> u32 {
        self.items.iter().map(|i| i.timeouts).sum()
    }

    /// Seconds slept in retry backoff across the pipeline.
    pub fn total_backoff_s(&self) -> f64 {
        self.items.iter().map(|i| i.backoff_s).sum()
    }

    /// Critical-path seconds of the compression stage: aggregate busy
    /// time normalized by the pool width — what the stage would have
    /// added to the wall had it run alone at the same parallelism.
    pub fn cpu_path_seconds(&self) -> f64 {
        self.cpu_busy_seconds / self.cpu_workers.max(1) as f64
    }

    /// Critical-path seconds of the storage stage (see
    /// [`cpu_path_seconds`](Self::cpu_path_seconds)).
    pub fn io_path_seconds(&self) -> f64 {
        self.io_busy_seconds / self.io_workers.max(1) as f64
    }

    /// Wall time saved versus running the compression and storage stages
    /// back to back at the same pool widths: sum of per-stage critical
    /// paths minus the pipelined wall. Clamped to `[0, wall_seconds]` —
    /// overlap can never exceed the time the pipeline actually ran.
    pub fn overlap_seconds(&self) -> f64 {
        (self.cpu_path_seconds() + self.io_path_seconds() - self.wall_seconds)
            .max(0.0)
            .min(self.wall_seconds)
    }
}

/// Payloads (in request order) plus the batch report. Payloads are
/// pool-backed: dropping one checks its allocation into the manager's
/// [`BytePool`] for reuse as encode staging.
pub type DownloadResult = (Vec<(String, PoolBuf)>, TransferReport);

/// Payloads (put items first, then fetch-only items, each in request
/// order) plus the pipeline report.
pub type PipelineResult = (Vec<(String, PoolBuf)>, PipelineReport);

/// A decoded download: the payload, the wire bytes it arrived as, and
/// whether those were compressed.
type Decoded<P> = (P, u64, bool);

/// The members decoded from one pack fetch, plus the fetch's retry stats.
type PackFetch = (Vec<Decoded<PoolBuf>>, RetryStats);

/// One committed output in a [`CommitManifest`]: logical name, the
/// staged `_tmp/` key holding the bytes, and the wire crc32 recorded at
/// upload (0 when integrity verification was off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Logical output name (e.g. `out/y`).
    pub name: String,
    /// Staged object key the bytes live under.
    pub key: String,
    /// crc32 of the staged wire bytes.
    pub wire_crc: u32,
}

/// The commit record of a two-phase output publish. Outputs are staged
/// under `<region>/_tmp/` while the region runs; putting this manifest
/// at `<region>/manifest` is the single atomic step that flips the
/// region to committed. A crash before the manifest leaves only `_tmp/`
/// orphans (collected by [`TransferManager::collect_orphans`]); a crash
/// after it leaves a fully readable region — there is no in-between.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitManifest {
    /// Committed outputs, in publish order.
    pub entries: Vec<ManifestEntry>,
}

impl CommitManifest {
    /// Serialize as `name\tkey\tcrc` lines.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{}\t{}\t{:08x}\n", e.name, e.key, e.wire_crc));
        }
        out.into_bytes()
    }

    fn from_bytes(key: &str, bytes: &[u8]) -> Result<CommitManifest, StorageError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| StorageError::Corrupted(format!("{key}: manifest is not utf-8")))?;
        let mut entries = Vec::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut fields = line.split('\t');
            let (Some(name), Some(obj), Some(crc)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(StorageError::Corrupted(format!(
                    "{key}: malformed manifest line: {line}"
                )));
            };
            let wire_crc = u32::from_str_radix(crc, 16).map_err(|_| {
                StorageError::Corrupted(format!("{key}: bad crc in manifest line: {line}"))
            })?;
            entries.push(ManifestEntry {
                name: name.to_string(),
                key: obj.to_string(),
                wire_crc,
            });
        }
        Ok(CommitManifest { entries })
    }
}

/// Moves batches of named buffers between host memory and a cloud store.
pub struct TransferManager {
    store: StoreHandle,
    config: TransferConfig,
    /// crc32 of the wire bytes of every object this manager uploaded —
    /// the reference downloads are verified against.
    ledger: parking_lot::Mutex<HashMap<String, u32>>,
    /// Staging-buffer pool shared with callers: encode staging checks
    /// out, decoded download payloads check back in on drop.
    pool: Arc<BytePool>,
    /// Key prefixes currently protected from orphan collection — the
    /// live dataflow sessions whose resident intermediates have no
    /// commit manifest by design.
    leases: parking_lot::Mutex<std::collections::HashSet<String>>,
    /// Pack index: the key of every buffer that went out inside a pack,
    /// mapped to the pack object carrying it. Fetches of such a key
    /// resolve here.
    packs: parking_lot::Mutex<HashMap<String, String>>,
}

impl TransferManager {
    /// Transfer engine over `store`.
    pub fn new(store: StoreHandle, config: TransferConfig) -> Self {
        TransferManager {
            store,
            config,
            ledger: parking_lot::Mutex::new(HashMap::new()),
            pool: BytePool::new(),
            leases: parking_lot::Mutex::new(std::collections::HashSet::new()),
            packs: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// The store this manager writes to.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// The staging-buffer pool. Callers serialize tiles into buffers
    /// checked out of this pool and hand them to [`upload`](Self::upload)
    /// — the allocation cycles back after the put instead of being freed.
    pub fn pool(&self) -> &Arc<BytePool> {
        &self.pool
    }

    /// Drop integrity-ledger and pack-index entries under `prefix` —
    /// call when the objects themselves are deleted, so neither table
    /// grows without bound across offloads.
    pub fn forget_prefix(&self, prefix: &str) {
        self.ledger.lock().retain(|k, _| !k.starts_with(prefix));
        self.packs
            .lock()
            .retain(|member, pack| !member.starts_with(prefix) && !pack.starts_with(prefix));
    }

    /// The pack object carrying `key`, when `key` went out inside one.
    pub(crate) fn pack_of(&self, key: &str) -> Option<String> {
        self.packs.lock().get(key).cloned()
    }

    /// The wire crc32 this manager recorded when it uploaded `key`, if
    /// any. Region fingerprints are built from these — the "input
    /// crc32s from the integrity ledger" of the recovery design.
    pub fn ledger_crc(&self, key: &str) -> Option<u32> {
        self.ledger.lock().get(key).copied()
    }

    /// The staged key output `name` uploads to before `region` commits.
    pub fn staged_key(region: &str, name: &str) -> String {
        format!("{region}/_tmp/{name}")
    }

    /// The key whose existence marks `region` as committed.
    pub fn manifest_key(region: &str) -> String {
        format!("{region}/manifest")
    }

    /// Phase two of the output commit: publish the manifest naming every
    /// staged output of `region`. Call only after all staged puts have
    /// landed; this single put is the atomic commit point.
    pub fn publish_manifest(
        &self,
        region: &str,
        names: &[String],
    ) -> Result<CommitManifest, StorageError> {
        let manifest = CommitManifest {
            entries: names
                .iter()
                .map(|name| {
                    let key = Self::staged_key(region, name);
                    let wire_crc = self.ledger_crc(&key).unwrap_or(0);
                    ManifestEntry {
                        name: name.clone(),
                        key,
                        wire_crc,
                    }
                })
                .collect(),
        };
        self.put_wire(&Self::manifest_key(region), manifest.to_bytes(), None)?;
        Ok(manifest)
    }

    /// Whether `region` has a committed (manifest-published) output set.
    pub fn is_committed(&self, region: &str) -> bool {
        self.store.exists(&Self::manifest_key(region))
    }

    /// Fetch and parse `region`'s commit manifest.
    pub fn read_manifest(&self, region: &str) -> Result<CommitManifest, StorageError> {
        let key = Self::manifest_key(region);
        let ((bytes, _, _), _) = self.fetch_plain(&key, None)?;
        CommitManifest::from_bytes(&key, &bytes)
    }

    /// Take a lease on `root`: every key under it is protected from
    /// [`collect_orphans`](Self::collect_orphans) until
    /// [`release`](Self::release). A dataflow session leases its
    /// `…/dataflow/dag-N` root while regions produce and consume
    /// resident intermediates there — those keys have no commit
    /// manifest by design, and the lease is what distinguishes a live
    /// chain from a crashed one.
    pub fn lease(&self, root: &str) {
        self.leases.lock().insert(root.to_string());
    }

    /// Release the lease on `root`. The holder deletes its own keys on
    /// a clean shutdown; after a crash (process gone, lease gone with
    /// it — leases are in-memory by construction) the next
    /// [`collect_orphans`](Self::collect_orphans) sweeps them.
    pub fn release(&self, root: &str) {
        self.leases.lock().remove(root);
    }

    /// Whether `key` sits under an active lease. Matches whole path
    /// segments — a lease on `…/dag-1` does not shadow `…/dag-10`.
    pub fn is_leased(&self, key: &str) -> bool {
        self.leases.lock().iter().any(|root| {
            key.strip_prefix(root.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// Garbage-collect staged outputs of crashed regions: every
    /// `…/_tmp/…` object under `prefix` whose region has no manifest is
    /// deleted, and every `…/dataflow/dag-N/…` resident intermediate
    /// whose dataflow root is not actively [leased](Self::lease) is
    /// swept with it (a crashed DAG run must leak no resident keys).
    /// Returns the number of orphans removed. Best effort — a failed
    /// delete is skipped, and the caller must not run this concurrently
    /// with a region that is still staging (a mid-upload region is
    /// indistinguishable from a crashed one).
    pub fn collect_orphans(&self, prefix: &str) -> usize {
        let mut by_region: HashMap<String, Vec<String>> = HashMap::new();
        let mut dataflow_orphans: Vec<String> = Vec::new();
        for key in self.store.list(prefix) {
            if let Some(pos) = key.find("/_tmp/") {
                by_region
                    .entry(key[..pos].to_string())
                    .or_default()
                    .push(key);
            } else if let Some(pos) = key.find("/dataflow/") {
                // Root = `…/dataflow/dag-N` — the lease unit.
                let seg_start = pos + "/dataflow/".len();
                let root_end = key[seg_start..]
                    .find('/')
                    .map(|p| seg_start + p)
                    .unwrap_or(key.len());
                if !self.is_leased(&key[..root_end]) {
                    dataflow_orphans.push(key);
                }
            }
        }
        let mut removed = 0;
        for (region, keys) in by_region {
            if self.is_committed(&region) {
                continue;
            }
            for key in keys {
                if self.store.delete(&key).is_ok() {
                    self.ledger.lock().remove(&key);
                    removed += 1;
                }
            }
        }
        for key in dataflow_orphans {
            // Re-check the lease at delete time: a chain may have leased
            // this root between the listing above and now, and sweeping
            // a live DAG's resident keys would fail its consumers. The
            // listing-time check is only a pre-filter.
            if self.is_leased(&key) {
                continue;
            }
            if self.store.delete(&key).is_ok() {
                self.ledger.lock().remove(&key);
                removed += 1;
            }
        }
        removed
    }

    /// Put `wire` under `key` with retries; records the wire crc32 in
    /// the integrity ledger. The payload is cloned only while another
    /// retry is still permitted — the terminal attempt moves it.
    fn put_wire(
        &self,
        key: &str,
        wire: Vec<u8>,
        io_timer: Option<&AtomicU64>,
    ) -> Result<RetryStats, StorageError> {
        let crc = self.config.verify_integrity.then(|| gzlite::crc32(&wire));
        let mut sess = self.config.retry.session(key);
        let mut wire = Some(wire);
        loop {
            let attempt = if sess.may_retry() {
                wire.as_ref()
                    .cloned()
                    .expect("payload kept while retryable")
            } else {
                // No further retry can be granted, so the payload is
                // never needed again: move it.
                wire.take().expect("terminal attempt")
            };
            let t = Instant::now();
            let result = sess.run(|| self.store.put(key, attempt));
            if let Some(timer) = io_timer {
                timer.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            match result {
                Ok(()) => {
                    if let Some(crc) = crc {
                        self.ledger.lock().insert(key.to_string(), crc);
                    }
                    // The plain object now answers for `key`, not a pack.
                    self.packs.lock().remove(key);
                    return Ok(sess.stats());
                }
                Err(e) => sess.on_error(e)?,
            }
        }
    }

    /// Get `key` with retries, verify its integrity, and `decode` it;
    /// `decode` learns whether the wire bytes were checked against a
    /// recorded crc. With `timers = (io, cpu)`, store time lands on `io`
    /// and verification/decoding on `cpu` (the pipelined accounting). A
    /// `Corrupted` verdict from the check or from `decode` re-fetches
    /// through the bounded re-fetch budget: an in-flight bit flip heals
    /// on the next read, at-rest damage exhausts the budget.
    fn fetch_with_retry<T>(
        &self,
        key: &str,
        timers: Option<(&AtomicU64, &AtomicU64)>,
        decode: impl Fn(Vec<u8>, bool) -> Result<T, StorageError>,
    ) -> Result<(T, RetryStats), StorageError> {
        let mut sess = self.config.retry.session(key);
        loop {
            let t = Instant::now();
            let fetched = sess.run(|| self.store.get(key));
            if let Some((io, _)) = timers {
                io.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            let wire = match fetched {
                Ok(w) => w,
                Err(e) => {
                    sess.on_error(e)?;
                    continue;
                }
            };
            let t = Instant::now();
            let decoded = self
                .verify(key, &wire)
                .and_then(|verified| decode(wire, verified));
            if let Some((_, cpu)) = timers {
                cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            match decoded {
                Ok(value) => return Ok((value, sess.stats())),
                Err(e) => sess.on_error(e)?,
            }
        }
    }

    /// Fetch the plain object `key` and decompress it. Returns
    /// `((payload, wire_bytes, compressed), stats)`.
    fn fetch_plain(
        &self,
        key: &str,
        timers: Option<(&AtomicU64, &AtomicU64)>,
    ) -> Result<(Decoded<Vec<u8>>, RetryStats), StorageError> {
        self.fetch_with_retry(key, timers, |wire, _| {
            let wire_bytes = wire.len() as u64;
            let (payload, compressed) = decode_wire(key, wire, self.config.codec_threads)?;
            Ok((payload, wire_bytes, compressed))
        })
    }

    /// Fetch pack `pack_key` once and decode the `wanted` members from
    /// slices of it, in order, fanned over the codec threads. Returns one
    /// `(payload, wire_bytes, compressed)` per wanted key. Damage
    /// anywhere in the pack — its crc, its header, a member's frame —
    /// re-fetches the whole pack, so one corrupted read heals with one
    /// re-get. The pack's crc covers its members; their own header crcs
    /// are checked only when the pack had no recorded crc to check.
    fn fetch_pack(
        &self,
        pack_key: &str,
        wanted: &[&str],
        timers: Option<(&AtomicU64, &AtomicU64)>,
    ) -> Result<PackFetch, StorageError> {
        self.fetch_with_retry(pack_key, timers, |wire, verified| {
            let members = pack::open(&wire)
                .map_err(|e| StorageError::Corrupted(format!("{pack_key}: {e}")))?;
            let dir = pack::split_key(pack_key).0;
            let check_members = self.config.verify_integrity && !verified;
            fan_out(wanted, self.config.codec_threads, |&key| {
                let m = key
                    .strip_prefix(dir)
                    .and_then(|name| members.iter().find(|m| m.name == name))
                    .ok_or_else(|| {
                        StorageError::NotFound(format!("{key} (not in pack {pack_key})"))
                    })?;
                if check_members && gzlite::crc32(m.wire) != m.wire_crc {
                    return Err(StorageError::Corrupted(format!(
                        "{key}: member wire crc32 disagrees with pack {pack_key}"
                    )));
                }
                let payload = if m.compressed {
                    self.pool.adopt(decode_frame(key, m.wire, 1)?)
                } else {
                    let mut raw = self.pool.get(m.wire.len());
                    raw.extend_from_slice(m.wire);
                    raw
                };
                Ok((payload, m.wire.len() as u64, m.compressed))
            })
            .into_iter()
            .collect()
        })
    }

    /// Fetch `key` wherever it lives — its own object, or a member slot
    /// of the pack the index names for it.
    fn fetch_any(&self, key: &str) -> Result<(Decoded<PoolBuf>, RetryStats), StorageError> {
        match self.pack_of(key) {
            Some(pack_key) => {
                let (mut decoded, stats) = self.fetch_pack(&pack_key, &[key], None)?;
                Ok((decoded.remove(0), stats))
            }
            None => {
                let ((payload, wire_bytes, compressed), stats) = self.fetch_plain(key, None)?;
                Ok(((self.pool.adopt(payload), wire_bytes, compressed), stats))
            }
        }
    }

    /// Check `wire` against the ledger's crc32 for `key` (or the
    /// backend checksum) when integrity verification is on. Returns
    /// whether there was a recorded crc to check against.
    fn verify(&self, key: &str, wire: &[u8]) -> Result<bool, StorageError> {
        if !self.config.verify_integrity {
            return Ok(false);
        }
        let expected = self
            .ledger
            .lock()
            .get(key)
            .copied()
            .or_else(|| self.store.checksum(key));
        match expected {
            Some(expected) => {
                let actual = gzlite::crc32(wire);
                if actual != expected {
                    return Err(StorageError::Corrupted(format!(
                        "{key}: wire crc32 {actual:#010x} != recorded {expected:#010x}"
                    )));
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Upload a batch of `(key, payload)` buffers, one worker thread per
    /// buffer (capped at `max_threads`). Blocks until every buffer landed.
    ///
    /// Payloads may be plain `Vec<u8>`s or [`PoolBuf`]s checked out of
    /// [`pool`](Self::pool); pooled staging buffers cycle back to the
    /// pool as soon as their wire form is sealed.
    pub fn upload<B: Into<PoolBuf>>(
        &self,
        items: Vec<(String, B)>,
    ) -> Result<TransferReport, StorageError> {
        let items: Vec<(String, PoolBuf)> = items.into_iter().map(|(k, b)| (k, b.into())).collect();
        let t0 = Instant::now();
        let results = self.run_parallel(items, |key, payload| {
            let t = Instant::now();
            let raw_bytes = payload.len() as u64;
            let (wire, compressed) = compress_for_wire(&self.config, payload);
            let wire_bytes = wire.len() as u64;
            let stats = self.put_wire(&key, wire, None)?;
            let mut report = ItemReport {
                key,
                raw_bytes,
                wire_bytes,
                compressed,
                seconds: t.elapsed().as_secs_f64(),
                retries: 0,
                refetches: 0,
                timeouts: 0,
                backoff_s: 0.0,
            };
            report.fold_stats(stats);
            Ok(report)
        })?;
        Ok(TransferReport {
            items: results,
            wall_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Download a batch of keys, transparently decompressing gzlite
    /// frames. Returns the payloads in the order requested plus a report.
    pub fn download(&self, keys: Vec<String>) -> Result<DownloadResult, StorageError> {
        let t0 = Instant::now();
        let results = self.run_parallel(
            keys.into_iter().map(|k| (k, PoolBuf::default())).collect(),
            |key, _| {
                let t = Instant::now();
                let ((payload, wire_bytes, compressed), stats) = self.fetch_any(&key)?;
                let mut report = ItemReport {
                    key,
                    raw_bytes: payload.len() as u64,
                    wire_bytes,
                    compressed,
                    seconds: t.elapsed().as_secs_f64(),
                    retries: 0,
                    refetches: 0,
                    timeouts: 0,
                    backoff_s: 0.0,
                };
                report.fold_stats(stats);
                Ok((report, payload))
            },
        )?;
        let mut items = Vec::with_capacity(results.len());
        let mut payloads = Vec::with_capacity(results.len());
        for (report, payload) in results {
            payloads.push((report.key.clone(), payload));
            items.push(report);
        }
        Ok((
            payloads,
            TransferReport {
                items,
                wall_seconds: t0.elapsed().as_secs_f64(),
            },
        ))
    }

    /// Fused upload + driver fetch as a two-stage pipeline: a pool of
    /// compression workers feeds a pool of `io_threads` store-I/O workers
    /// through a channel, so buffer *N+1* compresses while buffer *N* is
    /// in flight to the store — and each staged object is read back (and
    /// decompressed) the moment its put lands, instead of waiting for the
    /// whole upload batch.
    ///
    /// `put_items` travel the full compress → put → get → decompress
    /// chain, one object per buffer; `fetch_only` keys (already staged,
    /// e.g. upload-cache hits) skip straight to the get. Returns `(key,
    /// payload)` pairs — `put_items` first in request order, then
    /// `fetch_only` in request order — plus per-stage busy-time
    /// accounting.
    pub fn upload_fetch_pipelined<B: Into<PoolBuf>>(
        &self,
        put_items: Vec<(String, B)>,
        fetch_only: Vec<String>,
        io_threads: usize,
    ) -> Result<PipelineResult, StorageError> {
        self.pipeline(put_items, fetch_only, io_threads, false)
    }

    /// [`upload_fetch_pipelined`](Self::upload_fetch_pipelined) with
    /// small put items packed: buffers of at most
    /// [`stream_chunk`](TransferConfig::stream_chunk) raw bytes are
    /// grouped, in request order, into packs of at most `stream_chunk`
    /// raw bytes, and each pack costs one put and one get (format in the
    /// crate's `pack` module). A group of one goes out as a plain object.
    /// Members are still encoded one by one, each on its own `plan_wire`
    /// decision, and the report keeps one item per buffer. The integrity
    /// ledger records the pack's crc under the pack key and each
    /// member's wire crc under the member's key; the pack index lets
    /// later fetches of a member key (upload-cache hits) resolve to its
    /// pack, and a pack several such keys share is fetched once.
    ///
    /// The cap is one stream chunk rather than the larger stream
    /// threshold because the allocator keeps what large objects leave
    /// behind: on glibc, freeing a ~1 MiB pack raises the dynamic mmap
    /// and trim thresholds, after which every per-thread arena may hold
    /// up to 2 MiB of free memory. Measured on the `fanin_wan` workload
    /// of `perfbench`, 1 MiB packs raised peak RSS by 20-50%, 512 KiB
    /// packs by up to 28%, 256 KiB packs by about 4%, at the same region
    /// time (the packs are in flight in parallel).
    pub fn upload_fetch_packed<B: Into<PoolBuf>>(
        &self,
        put_items: Vec<(String, B)>,
        fetch_only: Vec<String>,
        io_threads: usize,
    ) -> Result<PipelineResult, StorageError> {
        self.pipeline(put_items, fetch_only, io_threads, true)
    }

    fn pipeline<B: Into<PoolBuf>>(
        &self,
        put_items: Vec<(String, B)>,
        fetch_only: Vec<String>,
        io_threads: usize,
        packing: bool,
    ) -> Result<PipelineResult, StorageError> {
        use std::sync::atomic::AtomicUsize;

        let put_items: Vec<(String, PoolBuf)> =
            put_items.into_iter().map(|(k, b)| (k, b.into())).collect();
        let t0 = Instant::now();
        let n_put = put_items.len();
        let total = n_put + fetch_only.len();
        if total == 0 {
            return Ok((Vec::new(), PipelineReport::default()));
        }

        /// One buffer a pack carries, with its member wire crc32.
        struct Packed {
            idx: usize,
            key: String,
            crc: u32,
        }
        /// A member encoded by the compression stage, waiting for the
        /// rest of its pack.
        struct Encoded {
            idx: usize,
            key: String,
            wire: Vec<u8>,
            compressed: bool,
            crc: u32,
        }
        enum IoJob {
            /// Compressed payload ready to hit the store and come back.
            PutGet {
                idx: usize,
                key: String,
                wire: Vec<u8>,
                compressed: bool,
            },
            /// Already staged: read (and decompress) only.
            Get { idx: usize, key: String },
            /// A sealed pack: put it, read it back, decode its members.
            PackPutGet {
                key: String,
                wire: Vec<u8>,
                members: Vec<Packed>,
            },
            /// A pack staged earlier: read it once, decode the wanted
            /// members.
            PackGet {
                key: String,
                members: Vec<(usize, String)>,
            },
        }

        // Packing plan, from raw sizes alone: `slot_of[i]` places put
        // item `i` in a pack, and each pack assembles its members as the
        // compression stage finishes them.
        let groups = if packing {
            let sized: Vec<(&str, usize)> = put_items
                .iter()
                .map(|(k, p)| (k.as_str(), p.len()))
                .collect();
            pack::plan(&sized, self.config.stream_chunk)
        } else {
            Vec::new()
        };
        let mut slot_of: Vec<Option<(usize, usize)>> = vec![None; n_put];
        for (g, members) in groups.iter().enumerate() {
            for (pos, &i) in members.iter().enumerate() {
                slot_of[i] = Some((g, pos));
            }
        }
        type Assembly = parking_lot::Mutex<(Vec<Option<Encoded>>, usize)>;
        let assemblies: Vec<Assembly> = groups
            .iter()
            .map(|m| parking_lot::Mutex::new(((0..m.len()).map(|_| None).collect(), m.len())))
            .collect();
        let objects_put = n_put - groups.iter().map(|m| m.len() - 1).sum::<usize>();

        // Fetch-only keys a pack carries are grouped per pack, so each
        // pack is fetched once however many of its members are wanted.
        let mut plain_gets: Vec<(usize, String)> = Vec::new();
        let mut pack_gets: Vec<(String, Vec<(usize, String)>)> = Vec::new();
        {
            let index = self.packs.lock();
            for (i, key) in fetch_only.into_iter().enumerate() {
                let idx = n_put + i;
                match index.get(&key) {
                    Some(pack_key) => match pack_gets.iter_mut().find(|(p, _)| p == pack_key) {
                        Some((_, members)) => members.push((idx, key)),
                        None => pack_gets.push((pack_key.clone(), vec![(idx, key)])),
                    },
                    None => plain_gets.push((idx, key)),
                }
            }
        }

        type Slot = parking_lot::Mutex<Option<Result<(ItemReport, PoolBuf), StorageError>>>;
        let slots: Vec<Slot> = (0..total).map(|_| parking_lot::Mutex::new(None)).collect();
        let cpu_busy_ns = AtomicU64::new(0);
        let io_busy_ns = AtomicU64::new(0);

        let cpu_threads = n_put.clamp(1, self.config.max_threads.max(1));
        let io_jobs = objects_put + plain_gets.len() + pack_gets.len();
        let io_threads = io_threads.max(1).min(io_jobs);

        type QueueSlot = parking_lot::Mutex<Option<(usize, String, PoolBuf)>>;
        let queue: Vec<QueueSlot> = put_items
            .into_iter()
            .enumerate()
            .map(|(i, (k, p))| parking_lot::Mutex::new(Some((i, k, p))))
            .collect();
        let next = AtomicUsize::new(0);

        // Fill every member slot of a pack from one fetch outcome. The
        // pack's own retry stats (its put and its get) land on the first
        // member only, so each fault is counted once.
        let fill_pack = |members: &[(usize, &str)],
                         fetched: Result<PackFetch, StorageError>,
                         put_stats: RetryStats| {
            match fetched {
                Ok((decoded, get_stats)) => {
                    for (n, (&(idx, key), (payload, wire_bytes, compressed))) in
                        members.iter().zip(decoded).enumerate()
                    {
                        let mut report = ItemReport {
                            key: key.to_string(),
                            raw_bytes: payload.len() as u64,
                            wire_bytes,
                            compressed,
                            seconds: 0.0,
                            retries: 0,
                            refetches: 0,
                            timeouts: 0,
                            backoff_s: 0.0,
                        };
                        if n == 0 {
                            report.fold_stats(put_stats);
                            report.fold_stats(get_stats);
                        }
                        *slots[idx].lock() = Some(Ok((report, payload)));
                    }
                }
                Err(e) => {
                    for &(idx, _) in members {
                        *slots[idx].lock() = Some(Err(e.clone()));
                    }
                }
            }
        };

        let (tx, rx) = crossbeam::channel::unbounded::<IoJob>();

        std::thread::scope(|scope| {
            // Stage B: store-I/O workers (put + get), decompression time
            // attributed back to the CPU stage.
            for _ in 0..io_threads {
                let rx = rx.clone();
                let (slots, cpu_busy_ns, io_busy_ns) = (&slots, &cpu_busy_ns, &io_busy_ns);
                let fill_pack = &fill_pack;
                scope.spawn(move || {
                    let timers = Some((io_busy_ns, cpu_busy_ns));
                    for job in rx.iter() {
                        let (idx, key, put_outcome) = match job {
                            IoJob::PutGet {
                                idx,
                                key,
                                wire,
                                compressed,
                            } => match self.put_wire(&key, wire, Some(io_busy_ns)) {
                                Ok(stats) => (idx, key, Some((stats, compressed))),
                                Err(e) => {
                                    *slots[idx].lock() = Some(Err(e));
                                    continue;
                                }
                            },
                            IoJob::Get { idx, key } => (idx, key, None),
                            IoJob::PackPutGet { key, wire, members } => {
                                let wanted: Vec<(usize, &str)> =
                                    members.iter().map(|m| (m.idx, m.key.as_str())).collect();
                                match self.put_wire(&key, wire, Some(io_busy_ns)) {
                                    Ok(put_stats) => {
                                        self.index_pack(
                                            &key,
                                            members.iter().map(|m| (m.key.as_str(), m.crc)),
                                        );
                                        let keys: Vec<&str> = wanted.iter().map(|w| w.1).collect();
                                        let fetched = self.fetch_pack(&key, &keys, timers);
                                        fill_pack(&wanted, fetched, put_stats);
                                    }
                                    Err(e) => fill_pack(&wanted, Err(e), RetryStats::default()),
                                }
                                continue;
                            }
                            IoJob::PackGet { key, members } => {
                                let wanted: Vec<(usize, &str)> =
                                    members.iter().map(|(idx, k)| (*idx, k.as_str())).collect();
                                let keys: Vec<&str> = wanted.iter().map(|w| w.1).collect();
                                let fetched = self.fetch_pack(&key, &keys, timers);
                                fill_pack(&wanted, fetched, RetryStats::default());
                                continue;
                            }
                        };
                        let (put_stats, put_compressed) =
                            put_outcome.unwrap_or((RetryStats::default(), false));
                        let fetched = self.fetch_plain(&key, timers);
                        *slots[idx].lock() = Some(fetched.map(
                            |((payload, wire_bytes, compressed), get_stats)| {
                                let payload = self.pool.adopt(payload);
                                let mut report = ItemReport {
                                    key,
                                    raw_bytes: payload.len() as u64,
                                    wire_bytes,
                                    compressed: put_compressed || compressed,
                                    seconds: 0.0,
                                    retries: 0,
                                    refetches: 0,
                                    timeouts: 0,
                                    backoff_s: 0.0,
                                };
                                report.fold_stats(put_stats);
                                report.fold_stats(get_stats);
                                (report, payload)
                            },
                        ));
                    }
                });
            }

            // Fetch-only keys go straight to the I/O stage.
            for (idx, key) in plain_gets {
                let _ = tx.send(IoJob::Get { idx, key });
            }
            for (key, members) in pack_gets {
                let _ = tx.send(IoJob::PackGet { key, members });
            }

            // Stage A: compression workers feeding the I/O pool. A packed
            // member parks its wire bytes in its pack's assembly; the
            // worker that encodes a pack's last member seals the pack.
            for _ in 0..cpu_threads {
                let tx = tx.clone();
                let (queue, next, cpu_busy_ns) = (&queue, &next, &cpu_busy_ns);
                let (slot_of, assemblies) = (&slot_of, &assemblies);
                let config = &self.config;
                scope.spawn(move || loop {
                    let q = next.fetch_add(1, Ordering::Relaxed);
                    if q >= queue.len() {
                        return;
                    }
                    let (idx, key, payload) = queue[q].lock().take().expect("claimed once");
                    let t = Instant::now();
                    let (wire, compressed) = compress_for_wire(config, payload);
                    let job = match slot_of[idx] {
                        None => Some(IoJob::PutGet {
                            idx,
                            key,
                            wire,
                            compressed,
                        }),
                        Some((g, pos)) => {
                            let crc = gzlite::crc32(&wire);
                            let complete = {
                                let mut assembly = assemblies[g].lock();
                                assembly.0[pos] = Some(Encoded {
                                    idx,
                                    key,
                                    wire,
                                    compressed,
                                    crc,
                                });
                                assembly.1 -= 1;
                                (assembly.1 == 0).then(|| std::mem::take(&mut assembly.0))
                            };
                            complete.map(|parts| {
                                let parts: Vec<Encoded> = parts
                                    .into_iter()
                                    .map(|p| p.expect("every member encoded"))
                                    .collect();
                                let sealed: Vec<PackMember<'_>> = parts
                                    .iter()
                                    .map(|p| PackMember {
                                        name: pack::split_key(&p.key).1,
                                        compressed: p.compressed,
                                        wire_crc: p.crc,
                                        wire: &p.wire,
                                    })
                                    .collect();
                                let key = pack::pack_key(&parts[0].key);
                                // Sealed into an exactly sized buffer, not a
                                // pooled one: the store keeps the bytes, so
                                // a pool buffer would never cycle back.
                                let wire = pack::seal(&sealed);
                                drop(sealed);
                                let members = parts
                                    .into_iter()
                                    .map(|p| Packed {
                                        idx: p.idx,
                                        key: p.key,
                                        crc: p.crc,
                                    })
                                    .collect();
                                IoJob::PackPutGet { key, wire, members }
                            })
                        }
                    };
                    cpu_busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if let Some(job) = job {
                        let _ = tx.send(job);
                    }
                });
            }

            // The workers' clones keep the channel alive; dropping the
            // original lets the I/O stage drain and exit.
            drop(tx);
        });

        let mut items = Vec::with_capacity(total);
        let mut payloads = Vec::with_capacity(total);
        for slot in slots {
            let (report, payload) = slot.into_inner().expect("all slots filled")?;
            payloads.push((report.key.clone(), payload));
            items.push(report);
        }
        Ok((
            payloads,
            PipelineReport {
                items,
                wall_seconds: t0.elapsed().as_secs_f64(),
                cpu_busy_seconds: cpu_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                io_busy_seconds: io_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                cpu_workers: cpu_threads,
                io_workers: io_threads,
                buffers_put: n_put,
                objects_put,
            },
        ))
    }

    /// Record a landed pack: each member's wire crc32 goes into the
    /// ledger under the member's key (the pack's own crc went in with
    /// its put), and the index maps each member key to the pack. An
    /// entry left pointing at a pack since re-sealed without that member
    /// fails its fetch as `NotFound`: members are looked up by name.
    fn index_pack<'a>(&self, pack_key: &str, members: impl Iterator<Item = (&'a str, u32)>) {
        let mut ledger = self.ledger.lock();
        let mut index = self.packs.lock();
        for (key, crc) in members {
            if self.config.verify_integrity {
                ledger.insert(key.to_string(), crc);
            }
            index.insert(key.to_string(), pack_key.to_string());
        }
    }

    /// Fan a batch out over scoped worker threads, preserving input order
    /// in the results.
    fn run_parallel<R, F>(
        &self,
        items: Vec<(String, PoolBuf)>,
        work: F,
    ) -> Result<Vec<R>, StorageError>
    where
        R: Send,
        F: Fn(String, PoolBuf) -> Result<R, StorageError> + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if items.len() == 1 {
            let (key, payload) = items.into_iter().next().expect("one item");
            return Ok(vec![work(key, payload)?]);
        }
        let threads = items.len().min(self.config.max_threads.max(1));
        type QueueSlot = parking_lot::Mutex<Option<(usize, String, PoolBuf)>>;
        let queue: Vec<QueueSlot> = items
            .into_iter()
            .enumerate()
            .map(|(i, (k, p))| parking_lot::Mutex::new(Some((i, k, p))))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<R, StorageError>>> = Vec::new();
        slots.resize_with(queue.len(), || None);
        let slots_mutex = parking_lot::Mutex::new(&mut slots);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= queue.len() {
                        return;
                    }
                    let (i, key, payload) = queue[idx].lock().take().expect("claimed once");
                    let result = work(key, payload);
                    slots_mutex.lock()[i] = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect()
    }
}

/// Encode one payload for the wire. The raw/compress/stream decision is
/// delegated entirely to the codec's [`gzlite::plan_wire`] probe — the
/// transfer layer no longer second-guesses it with its own size gate, so
/// there is exactly one decision point. Returns the wire bytes and
/// whether they are compressed; a pooled staging buffer cycles back to
/// its pool when the wire form replaced it.
fn compress_for_wire(config: &TransferConfig, payload: PoolBuf) -> (Vec<u8>, bool) {
    match gzlite::encode_wire(&payload, &config.wire_policy()) {
        // `payload` drops here: the staging allocation checks back into
        // the pool while the sealed wire bytes travel on.
        Some(wire) => (wire, true),
        // Raw path: the store retains the vector itself.
        None => (payload.detach(), false),
    }
}

/// Map `f` over `items` on up to `threads` scoped workers, keeping
/// order.
fn fan_out<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<R>>> = items
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                *slots[i].lock() = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every item mapped"))
        .collect()
}

/// Transparently decompress wire bytes: multi-frame streams (chunk
/// decode fanned over `threads` workers), single frames (both with
/// internal CRCs), or raw passthrough. Returns the payload and whether
/// it was compressed on the wire.
fn decode_wire(key: &str, wire: Vec<u8>, threads: usize) -> Result<(Vec<u8>, bool), StorageError> {
    if gzlite::is_stream(&wire) || wire.starts_with(&MAGIC) {
        Ok((decode_frame(key, &wire, threads)?, true))
    } else {
        Ok((wire, false))
    }
}

/// Decode a gzlite stream or single frame.
fn decode_frame(key: &str, wire: &[u8], threads: usize) -> Result<Vec<u8>, StorageError> {
    let decoded = if gzlite::is_stream(wire) {
        gzlite::decompress_stream_parallel(wire, threads.max(1))
    } else {
        gzlite::decompress(wire)
    };
    decoded.map_err(|e| StorageError::Corrupted(format!("{key}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, Trigger};
    use crate::s3::S3Store;
    use crate::ObjectStore;
    use std::sync::Arc;
    use std::time::Duration;

    fn manager(min_compress: usize) -> (TransferManager, S3Store) {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: min_compress,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        (tm, store)
    }

    /// Manager whose store runs a chaos plan; retries don't sleep.
    fn chaos_manager(min_compress: usize, plan: FaultPlan) -> (TransferManager, S3Store) {
        let store = S3Store::standalone("xfer");
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let tm = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: min_compress,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        (tm, store)
    }

    #[test]
    fn upload_download_roundtrip() {
        let (tm, _) = manager(64);
        let a = vec![0u8; 10_000]; // compresses hard
        let b: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let report = tm
            .upload(vec![("in/A".into(), a.clone()), ("in/B".into(), b.clone())])
            .unwrap();
        assert_eq!(report.items.len(), 2);
        assert!(
            report.ratio() < 1.0,
            "sparse member should shrink the batch"
        );

        let (payloads, dreport) = tm.download(vec!["in/A".into(), "in/B".into()]).unwrap();
        assert_eq!(payloads[0].0, "in/A");
        assert_eq!(payloads[0].1, a);
        assert_eq!(payloads[1].0, "in/B");
        assert_eq!(payloads[1].1, b);
        assert_eq!(dreport.items.len(), 2);
        assert_eq!(dreport.total_refetches(), 0, "clean run never re-fetches");
    }

    #[test]
    fn small_buffers_skip_compression() {
        let (tm, store) = manager(1024);
        let data = vec![0u8; 100]; // would compress, but below threshold
        tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert_eq!(store.get("k").unwrap(), data, "stored raw");
    }

    #[test]
    fn large_buffers_are_compressed_on_the_wire() {
        let (tm, store) = manager(1024);
        let data = vec![0u8; 100_000];
        let report = tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert!(report.items[0].compressed);
        assert!(report.items[0].wire_bytes < 1000);
        assert!(store.size("k").unwrap() < 1000, "stored compressed");
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn incompressible_large_buffer_falls_back_to_raw() {
        let (tm, _) = manager(1024);
        let mut x: u64 = 1;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let report = tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert!(!report.items[0].compressed);
        assert_eq!(report.items[0].wire_bytes, data.len() as u64);
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn transient_faults_are_retried() {
        let (tm, store) = manager(usize::MAX);
        store.service().inject_transient_faults(2);
        let report = tm.upload(vec![("k".into(), vec![1, 2, 3])]).unwrap();
        assert_eq!(report.items[0].retries, 2);
        assert_eq!(store.get("k").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn retry_budget_exhaustion_errors() {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                }
                .without_backoff(),
                ..Default::default()
            },
        );
        store.service().inject_transient_faults(10);
        assert!(tm.upload(vec![("k".into(), vec![1])]).is_err());
    }

    #[test]
    fn backoff_sleeps_between_retries() {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                retry: RetryPolicy {
                    backoff_base: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(20),
                    ..RetryPolicy::default()
                },
                ..Default::default()
            },
        );
        store.service().inject_transient_faults(2);
        let t = std::time::Instant::now();
        let report = tm.upload(vec![("k".into(), vec![1, 2, 3])]).unwrap();
        assert_eq!(report.items[0].retries, 2);
        assert!(
            t.elapsed() >= Duration::from_millis(10),
            "two retries sleep at least 2 x base"
        );
        assert!(report.total_backoff_s() >= 0.010);
    }

    #[test]
    fn in_flight_corruption_heals_via_refetch() {
        // The chaos plan flips one bit of the first get's response only;
        // the integrity check catches it and the re-fetch returns the
        // intact object.
        let plan = FaultPlan::new(42).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(0),
            FaultKind::Corrupt,
        ));
        let (tm, _) = chaos_manager(usize::MAX, plan);
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        tm.upload(vec![("k".into(), data.clone())]).unwrap();
        let (payloads, report) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data, "healed payload is bitwise intact");
        assert_eq!(report.items[0].refetches, 1, "exactly one re-fetch");
        assert_eq!(report.items[0].retries, 0, "corruption uses its own budget");
    }

    #[test]
    fn at_rest_corruption_exhausts_refetch_budget_and_errors() {
        // Every read of the damaged object disagrees with the ledger;
        // the bounded re-fetch budget runs dry and surfaces `Corrupted`
        // instead of silent bad data.
        let (tm, store) = manager(usize::MAX);
        let data = vec![7u8; 512];
        tm.upload(vec![("k".into(), data)]).unwrap();
        let mut stored = store.get("k").unwrap();
        stored[100] ^= 0x10;
        store.put("k", stored).unwrap();
        let err = tm.download(vec!["k".into()]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupted(_)), "{err:?}");
    }

    #[test]
    fn integrity_check_can_be_disabled() {
        // With verification off, at-rest damage in a raw (uncompressed)
        // object is NOT caught — the knob really gates the check.
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: usize::MAX,
                verify_integrity: false,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        tm.upload(vec![("k".into(), vec![7u8; 64])]).unwrap();
        let mut stored = store.get("k").unwrap();
        stored[3] ^= 0x40;
        store.put("k", stored.clone()).unwrap();
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, stored, "damage passes through unchecked");
    }

    #[test]
    fn backend_checksum_verifies_objects_staged_elsewhere() {
        // A second manager (empty ledger) downloads an object staged by
        // the first: the backend checksum still catches in-flight damage.
        let store = S3Store::standalone("xfer");
        let stager = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: usize::MAX,
                ..Default::default()
            },
        );
        stager.upload(vec![("k".into(), vec![9u8; 256])]).unwrap();

        let plan = FaultPlan::new(5).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(0),
            FaultKind::Corrupt,
        ));
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let reader = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: usize::MAX,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        let (payloads, report) = reader.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, vec![9u8; 256]);
        assert_eq!(report.total_refetches(), 1, "caught via backend checksum");
    }

    #[test]
    fn slow_faults_are_classified_as_timeouts() {
        let plan = FaultPlan::new(6)
            .rule(FaultRule::new(
                OpFilter::Get,
                Trigger::OpIndex(0),
                FaultKind::Delay(Duration::from_millis(12)),
            ))
            .rule(FaultRule::new(
                OpFilter::Get,
                Trigger::OpIndex(0),
                FaultKind::Transient,
            ));
        let store = S3Store::standalone("xfer");
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let tm = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: usize::MAX,
                retry: RetryPolicy {
                    op_deadline: Duration::from_millis(4),
                    ..RetryPolicy::default()
                }
                .without_backoff(),
                ..Default::default()
            },
        );
        tm.upload(vec![("k".into(), vec![1u8; 32])]).unwrap();
        let (payloads, report) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, vec![1u8; 32]);
        assert!(
            report.items[0].timeouts >= 1,
            "slow failure counted as timeout: {:?}",
            report.items[0]
        );
        assert_eq!(report.items[0].retries, 1, "timeout was retried");
    }

    #[test]
    fn forget_prefix_drops_ledger_entries() {
        let (tm, _) = manager(usize::MAX);
        tm.upload(vec![
            ("job1/a".into(), vec![1u8; 32]),
            ("job2/b".into(), vec![2u8; 32]),
        ])
        .unwrap();
        assert_eq!(tm.ledger.lock().len(), 2);
        tm.forget_prefix("job1/");
        assert_eq!(tm.ledger.lock().len(), 1);
        assert!(tm.ledger.lock().contains_key("job2/b"));
    }

    #[test]
    fn many_buffers_upload_in_parallel_and_keep_order() {
        let (tm, _) = manager(usize::MAX);
        let items: Vec<(String, Vec<u8>)> = (0..40)
            .map(|i| (format!("k{i:02}"), vec![i as u8; 100]))
            .collect();
        let report = tm.upload(items).unwrap();
        assert_eq!(report.items.len(), 40);
        for (i, item) in report.items.iter().enumerate() {
            assert_eq!(item.key, format!("k{i:02}"), "report preserves order");
        }
        let (payloads, _) = tm
            .download((0..40).map(|i| format!("k{i:02}")).collect())
            .unwrap();
        for (i, (_, p)) in payloads.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 100]);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (tm, _) = manager(64);
        let report = tm.upload(Vec::<(String, Vec<u8>)>::new()).unwrap();
        assert!(report.items.is_empty());
        assert_eq!(report.ratio(), 1.0);
    }

    #[test]
    fn download_missing_key_errors() {
        let (tm, _) = manager(64);
        assert!(matches!(
            tm.download(vec!["nope".into()]),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn big_buffers_go_through_the_stream_path() {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: 64,
                stream_threshold: 4096,
                stream_chunk: 1024,
                ..Default::default()
            },
        );
        let data = vec![0u8; 64 * 1024]; // well over the stream threshold
        let report = tm.upload(vec![("big".into(), data.clone())]).unwrap();
        assert!(report.items[0].compressed);
        let stored = store.get("big").unwrap();
        assert!(gzlite::is_stream(&stored), "stored as a multi-frame stream");
        let (payloads, _) = tm.download(vec!["big".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn pipelined_upload_fetch_matches_serial_roundtrip() {
        let (tm, store) = manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..12)
            .map(|i| {
                let payload: Vec<u8> = (0..4096u32)
                    .map(|j| ((j.wrapping_mul(i + 1)) >> 3) as u8)
                    .collect();
                (format!("in/v{i:02}"), payload)
            })
            .collect();
        let (payloads, report) = tm.upload_fetch_pipelined(items.clone(), vec![], 4).unwrap();
        assert_eq!(payloads.len(), items.len());
        for ((key, expected), (got_key, got)) in items.iter().zip(&payloads) {
            assert_eq!(got_key, key, "request order preserved");
            assert_eq!(got, expected, "put + get round-trips bitwise");
        }
        assert_eq!(report.items.len(), items.len());
        assert_eq!(report.raw_bytes(), 12 * 4096);
        // Objects really landed in the store (same wire form the serial
        // download path would read).
        let (serial, _) = tm
            .download(items.iter().map(|(k, _)| k.clone()).collect())
            .unwrap();
        assert_eq!(serial, payloads);
        assert!(store.exists("in/v00"));
    }

    #[test]
    fn pipelined_path_retries_and_heals_under_chaos() {
        let plan = FaultPlan::new(77)
            .rule(FaultRule::new(
                OpFilter::Any,
                Trigger::EveryNth(5),
                FaultKind::Transient,
            ))
            .rule(FaultRule::new(
                OpFilter::Get,
                Trigger::OpIndex(2),
                FaultKind::Corrupt,
            ));
        let (tm, _) = chaos_manager(64, plan);
        let items: Vec<(String, Vec<u8>)> = (0..10)
            .map(|i| {
                let payload: Vec<u8> = (0..2048u32).map(|j| ((j ^ (i * 37)) % 253) as u8).collect();
                (format!("in/c{i:02}"), payload)
            })
            .collect();
        let (payloads, report) = tm.upload_fetch_pipelined(items.clone(), vec![], 3).unwrap();
        for ((key, expected), (got_key, got)) in items.iter().zip(&payloads) {
            assert_eq!(got_key, key);
            assert_eq!(got, expected, "bitwise intact under chaos");
        }
        assert!(report.total_retries() > 0, "transient faults really fired");
        assert!(report.total_refetches() > 0, "corruption really fired");
    }

    #[test]
    fn pipelined_fetch_only_reads_staged_objects() {
        let (tm, _) = manager(64);
        let staged = vec![7u8; 5000];
        tm.upload(vec![("cached/x".into(), staged.clone())])
            .unwrap();
        let fresh = vec![1u8; 3000];
        let (payloads, report) = tm
            .upload_fetch_pipelined(
                vec![("new/y".into(), fresh.clone())],
                vec!["cached/x".into()],
                2,
            )
            .unwrap();
        // Put items first, then fetch-only, each in request order.
        assert_eq!(payloads[0].0, "new/y");
        assert_eq!(payloads[0].1, fresh);
        assert_eq!(payloads[1].0, "cached/x");
        assert_eq!(payloads[1].1, staged);
        assert!(
            report.items[1].compressed,
            "staged object decompressed on fetch"
        );
    }

    /// Patterned, compressible payload of `len` bytes, distinct per `seed`.
    fn patterned(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|j| ((j % 61) ^ seed.wrapping_mul(131)) as u8)
            .collect()
    }

    fn counted_manager(
        min_compress: usize,
    ) -> (TransferManager, Arc<crate::LatencyStore>, S3Store) {
        let inner = S3Store::standalone("xfer");
        let counted = Arc::new(crate::LatencyStore::new(
            Arc::new(inner.clone()),
            Duration::ZERO,
        ));
        let tm = TransferManager::new(
            counted.clone(),
            TransferConfig {
                min_compression_size: min_compress,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        (tm, counted, inner)
    }

    #[test]
    fn packed_pipeline_puts_one_object_per_pack() {
        let (tm, counted, inner) = counted_manager(64);
        // Twenty 4 KiB inputs pack together; a 300 KiB one is above the
        // 256 KiB cap and goes out plain, between them.
        let mut items: Vec<(String, Vec<u8>)> = (0..20)
            .map(|i| (format!("job-0/in/v{i:02}"), patterned(4096, i)))
            .collect();
        items.insert(7, ("job-0/in/big".into(), patterned(300 * 1024, 99)));
        let (payloads, report) = tm.upload_fetch_packed(items.clone(), vec![], 4).unwrap();
        for ((key, expected), (got_key, got)) in items.iter().zip(&payloads) {
            assert_eq!(got_key, key, "request order preserved");
            assert_eq!(got, expected, "member decoded bitwise");
        }
        assert_eq!((report.buffers_put, report.objects_put), (21, 2));
        assert_eq!(report.items.len(), 21, "one report item per buffer");
        assert_eq!((counted.put_count(), counted.get_count()), (2, 2));
        let stored = inner.list("job-0/");
        assert_eq!(stored.len(), 2, "{stored:?}");
        assert!(stored.contains(&"job-0/in/big".to_string()));
        let pack_key = tm.pack_of("job-0/in/v00").unwrap();
        assert!(stored.contains(&pack_key));
        assert!(tm.pack_of("job-0/in/big").is_none());
        // The ledger keeps per-member wire crcs (and the pack's own).
        for (item, (key, payload)) in report.items.iter().zip(&items) {
            if key == "job-0/in/big" {
                continue;
            }
            let wire = gzlite::encode_wire(payload, &tm.config.wire_policy())
                .unwrap_or_else(|| payload.clone());
            assert_eq!(item.wire_bytes, wire.len() as u64);
            assert_eq!(tm.ledger_crc(key), Some(gzlite::crc32(&wire)), "{key}");
        }
        assert!(tm.ledger_crc(&pack_key).is_some());
        // A member key downloads through the index too.
        let (got, _) = tm.download(vec!["job-0/in/v03".into()]).unwrap();
        assert_eq!(got[0].1, items[3].1);
        // Forgetting the prefix drops the index with the ledger.
        tm.forget_prefix("job-0/");
        assert!(tm.pack_of("job-0/in/v00").is_none());
    }

    #[test]
    fn unpacked_pipeline_keeps_one_object_per_buffer() {
        let (tm, counted, _) = counted_manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..5)
            .map(|i| (format!("out/v{i}"), patterned(1024, i)))
            .collect();
        let (_, report) = tm.upload_fetch_pipelined(items, vec![], 4).unwrap();
        assert_eq!((report.buffers_put, report.objects_put), (5, 5));
        assert_eq!(counted.put_count(), 5);
    }

    #[test]
    fn fetch_only_members_fetch_their_pack_once() {
        let (tm, counted, _) = counted_manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..4)
            .map(|i| (format!("job-0/in/v{i}"), patterned(2048, i)))
            .collect();
        tm.upload_fetch_packed(items.clone(), vec![], 4).unwrap();
        counted.reset_counts();
        // Three members of the old pack plus one fresh buffer (a pack of
        // one: plain).
        let fresh = patterned(2048, 77);
        let (payloads, report) = tm
            .upload_fetch_packed(
                vec![("job-1/in/v3".to_string(), fresh.clone())],
                items[..3].iter().map(|(k, _)| k.clone()).collect(),
                4,
            )
            .unwrap();
        assert_eq!(payloads[0].1, fresh);
        for (i, (key, payload)) in items[..3].iter().enumerate() {
            assert_eq!(&payloads[1 + i].0, key);
            assert_eq!(&payloads[1 + i].1, payload);
        }
        assert!(report.items[1..].iter().all(|i| i.compressed));
        assert_eq!(counted.put_count(), 1, "only the fresh buffer is put");
        assert_eq!(counted.get_count(), 2, "fresh object + the old pack once");
        // A plain re-put of a packed key supersedes its pack membership.
        tm.upload(vec![("job-0/in/v0".to_string(), vec![5u8; 16])])
            .unwrap();
        assert!(tm.pack_of("job-0/in/v0").is_none());
        let (got, _) = tm.download(vec!["job-0/in/v0".into()]).unwrap();
        assert_eq!(got[0].1, vec![5u8; 16]);
    }

    #[test]
    fn a_replaced_pack_never_serves_a_member_it_no_longer_holds() {
        let (tm, _) = manager(64);
        let a = patterned(512, 1);
        tm.upload_fetch_packed(
            vec![
                ("in/a".to_string(), a.clone()),
                ("in/b".to_string(), patterned(512, 2)),
            ],
            vec![],
            2,
        )
        .unwrap();
        // Same first member, different company: the pack key is reused.
        tm.upload_fetch_packed(
            vec![
                ("in/a".to_string(), a.clone()),
                ("in/c".to_string(), patterned(512, 3)),
            ],
            vec![],
            2,
        )
        .unwrap();
        assert!(matches!(
            tm.download(vec!["in/b".into()]),
            Err(StorageError::NotFound(_))
        ));
        let (got, _) = tm.download(vec!["in/a".into()]).unwrap();
        assert_eq!(got[0].1, a);
    }

    #[test]
    fn corrupted_pack_heals_with_one_refetch() {
        let plan = FaultPlan::new(9).rule(
            FaultRule::new(OpFilter::Get, Trigger::OpIndex(0), FaultKind::Corrupt).on_keys(".pack"),
        );
        let (tm, _) = chaos_manager(64, plan);
        let items: Vec<(String, Vec<u8>)> = (0..6)
            .map(|i| (format!("in/p{i}"), patterned(8192, i)))
            .collect();
        let (payloads, report) = tm.upload_fetch_packed(items.clone(), vec![], 2).unwrap();
        for ((_, expected), (_, got)) in items.iter().zip(&payloads) {
            assert_eq!(got, expected, "healed bitwise");
        }
        assert_eq!(report.objects_put, 1);
        assert_eq!(report.total_refetches(), 1, "one re-get heals the pack");
        assert_eq!(report.total_retries(), 0);
    }

    #[test]
    fn transient_pack_put_is_retried_and_counted_once() {
        let plan = FaultPlan::new(10).rule(
            FaultRule::new(OpFilter::Put, Trigger::OpIndex(0), FaultKind::Transient)
                .on_keys(".pack"),
        );
        let (tm, _) = chaos_manager(64, plan);
        let items: Vec<(String, Vec<u8>)> = (0..3)
            .map(|i| (format!("in/t{i}"), patterned(1000, i)))
            .collect();
        let (payloads, report) = tm.upload_fetch_packed(items.clone(), vec![], 2).unwrap();
        assert_eq!(payloads[2].1, items[2].1);
        assert_eq!(report.total_retries(), 1);
    }

    #[test]
    fn at_rest_pack_damage_fails_every_member() {
        let (tm, store) = manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..3)
            .map(|i| (format!("in/d{i}"), patterned(1000, i)))
            .collect();
        tm.upload_fetch_packed(items.clone(), vec![], 2).unwrap();
        let pack_key = tm.pack_of("in/d0").unwrap();
        let mut stored = store.get(&pack_key).unwrap();
        let last = stored.len() - 1;
        stored[last] ^= 0x01;
        store.put(&pack_key, stored).unwrap();
        let err = tm
            .upload_fetch_packed(Vec::<(String, Vec<u8>)>::new(), vec!["in/d1".into()], 2)
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupted(_)), "{err:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The transfer layer's wire decoder returns `Ok` or `Err` on
        /// arbitrary bytes, truncations and single-bit flips of valid
        /// frames and streams — never a panic or an abort.
        #[test]
        fn decode_wire_never_panics(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            len in 0usize..3000,
            seed in 0u32..1000,
            bit in 0usize..1_000_000,
            stream in proptest::prelude::any::<bool>(),
        ) {
            let _ = decode_wire("k", noise.clone(), 2);
            let mut forged = gzlite::STREAM_MAGIC.to_vec();
            forged.extend_from_slice(&noise);
            let _ = decode_wire("k", forged, 2);
            // A frame header over arbitrary tokens. The declared length
            // stays bounded: a frame that really declares gigabytes of
            // zeros is valid and would decode to them.
            let mut frame = MAGIC.to_vec();
            frame.push((seed % 6) as u8);
            let mut declared = len as u64;
            while declared >= 0x80 {
                frame.push(declared as u8 | 0x80);
                declared >>= 7;
            }
            frame.push(declared as u8);
            frame.extend_from_slice(&noise);
            let _ = decode_wire("k", frame, 2);
            let payload = patterned(len, seed);
            let wire = if stream {
                gzlite::compress_stream(&payload, 512)
            } else {
                gzlite::compress_auto(&payload)
            };
            for cut in (0..wire.len()).step_by(7) {
                let _ = decode_wire("k", wire[..cut].to_vec(), 2);
            }
            let mut flipped = wire.clone();
            let bit = bit % (wire.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok((decoded, true)) = decode_wire("k", flipped, 2) {
                // Frames carry their own crc: a flip that still decodes
                // must have decoded to the original bytes.
                proptest::prop_assert_eq!(decoded, payload);
            }
        }
    }

    #[test]
    fn pipeline_accounting_is_wall_normalized() {
        // Regression: busy seconds are summed over every pool worker, so
        // the old overlap (cpu_busy + io_busy - wall) reported ~20x the
        // wall on wide pools. Path seconds divide by the pool width and
        // overlap is clamped to the wall.
        let (tm, _) = manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..16)
            .map(|i| (format!("k{i:02}"), vec![(i % 251) as u8; 32 * 1024]))
            .collect();
        let (_, report) = tm.upload_fetch_pipelined(items, vec![], 4).unwrap();
        assert!(report.cpu_workers >= 1 && report.io_workers >= 1);
        assert!(
            report.overlap_seconds() <= report.wall_seconds + 1e-9,
            "overlap {} must not exceed wall {}",
            report.overlap_seconds(),
            report.wall_seconds
        );
        assert!(report.cpu_path_seconds() <= report.cpu_busy_seconds + 1e-12);
        assert!(report.io_path_seconds() <= report.io_busy_seconds + 1e-12);
    }

    #[test]
    fn pipelined_empty_batch_is_a_noop() {
        let (tm, _) = manager(64);
        let (payloads, report) = tm
            .upload_fetch_pipelined(Vec::<(String, Vec<u8>)>::new(), vec![], 4)
            .unwrap();
        assert!(payloads.is_empty());
        assert!(report.items.is_empty());
        assert_eq!(report.overlap_seconds(), 0.0);
    }

    #[test]
    fn pipelined_missing_fetch_key_errors() {
        let (tm, _) = manager(64);
        let result =
            tm.upload_fetch_pipelined(vec![("a".into(), vec![1, 2, 3])], vec!["missing".into()], 2);
        assert!(matches!(result, Err(StorageError::NotFound(_))));
    }

    #[test]
    fn sparse_vs_dense_wire_asymmetry() {
        // The core effect behind Fig. 5's sparse/dense split.
        let (tm, _) = manager(64);
        let sparse = {
            let mut v = vec![0u8; 65_536];
            for i in (0..v.len()).step_by(80) {
                v[i] = 1;
            }
            v
        };
        let dense = conformance::rng::bytes(65_536, 11);
        let rs = tm.upload(vec![("s".into(), sparse)]).unwrap();
        let rd = tm.upload(vec![("d".into(), dense)]).unwrap();
        assert!(
            rs.ratio() < rd.ratio(),
            "sparse ({:.3}) must beat dense ({:.3})",
            rs.ratio(),
            rd.ratio()
        );
    }

    #[test]
    fn pooled_staging_roundtrip_is_bitwise_clean() {
        let (tm, _) = manager(64);
        // Pollute the pool with junk from a "previous tile".
        for _ in 0..4 {
            let mut junk = tm.pool().get(8192);
            junk.extend_from_slice(&[0xEE; 8192]);
        }
        // Encode a real tile into a pooled staging buffer and roundtrip.
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 7) as u8).collect();
        let mut staged = tm.pool().get(data.len());
        staged.extend_from_slice(&data);
        tm.upload(vec![("tile".to_string(), staged)]).unwrap();
        let (payloads, _) = tm.download(vec!["tile".into()]).unwrap();
        assert_eq!(
            payloads[0].1, data,
            "no stale pool bytes leaked into the put"
        );
    }

    #[test]
    fn staging_buffers_cycle_through_the_pool() {
        let (tm, _) = manager(64);
        {
            let mut staged = tm.pool().get(16 * 1024);
            staged.extend_from_slice(&vec![0u8; 16 * 1024]); // compresses
            tm.upload(vec![("a".to_string(), staged)]).unwrap();
        }
        // Compressed path: the staging allocation checked back in after
        // the wire form replaced it.
        assert!(tm.pool().stats().returns >= 1, "{:?}", tm.pool().stats());
        let before = tm.pool().stats();
        let staged = tm.pool().get(16 * 1024);
        assert!(staged.is_empty());
        assert_eq!(
            tm.pool().stats().hits,
            before.hits + 1,
            "next tile reuses the allocation"
        );
        // Download payloads check in when the caller drops them.
        let (payloads, _) = tm.download(vec!["a".into()]).unwrap();
        let before = tm.pool().stats();
        drop(payloads);
        assert!(tm.pool().stats().returns > before.returns);
    }

    #[test]
    fn two_phase_commit_roundtrip() {
        let (tm, store) = manager(64);
        let names = vec!["out/y".to_string(), "out/z".to_string()];
        tm.upload(vec![
            (TransferManager::staged_key("job-0", "out/y"), vec![1; 32]),
            (TransferManager::staged_key("job-0", "out/z"), vec![2; 32]),
        ])
        .unwrap();
        assert!(!tm.is_committed("job-0"), "staged but not yet committed");

        let manifest = tm.publish_manifest("job-0", &names).unwrap();
        assert!(tm.is_committed("job-0"));
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].name, "out/y");
        assert_eq!(manifest.entries[0].key, "job-0/_tmp/out/y");
        assert_eq!(
            manifest.entries[0].wire_crc,
            tm.ledger_crc("job-0/_tmp/out/y").unwrap()
        );
        assert_eq!(tm.read_manifest("job-0").unwrap(), manifest);

        // Committed regions are never garbage-collected.
        assert_eq!(tm.collect_orphans(""), 0);
        assert_eq!(store.list("job-0/_tmp/").len(), 2);
    }

    #[test]
    fn orphaned_staging_is_collected_only_without_a_manifest() {
        let (tm, store) = manager(64);
        // A crashed region: two staged tiles, no manifest.
        tm.upload(vec![
            (TransferManager::staged_key("job-1", "out/a"), vec![3; 16]),
            (TransferManager::staged_key("job-1", "out/b"), vec![4; 16]),
        ])
        .unwrap();
        // A committed region next to it.
        tm.upload(vec![(
            TransferManager::staged_key("job-2", "out/a"),
            vec![5; 16],
        )])
        .unwrap();
        tm.publish_manifest("job-2", &["out/a".to_string()])
            .unwrap();

        assert_eq!(tm.collect_orphans(""), 2);
        assert!(store.list("job-1/_tmp/").is_empty(), "orphans removed");
        assert_eq!(store.list("job-2/_tmp/").len(), 1, "committed data kept");
        assert_eq!(
            tm.ledger_crc("job-1/_tmp/out/a"),
            None,
            "ledger entries go with the orphans"
        );
    }

    #[test]
    fn leased_dataflow_keys_survive_orphan_collection() {
        let (tm, store) = manager(64);
        let root = "omp/dataflow/dag-0";
        tm.lease(root);
        tm.upload(vec![
            (format!("{root}/y"), vec![1u8; 64]),
            (format!("{root}/t"), vec![2u8; 64]),
        ])
        .unwrap();
        assert!(tm.is_leased(&format!("{root}/y")));
        assert_eq!(tm.collect_orphans(""), 0, "live chain is protected");
        assert_eq!(store.list(root).len(), 2);

        // Clean shutdown path: the holder releases after deleting its
        // own keys; leftovers from a *crashed* chain (lease gone) are
        // swept by the next region start.
        tm.release(root);
        assert!(!tm.is_leased(&format!("{root}/y")));
        assert_eq!(tm.collect_orphans(""), 2, "crashed chain leaks nothing");
        assert!(store.list(root).is_empty());
        assert_eq!(tm.ledger_crc(&format!("{root}/y")), None);
    }

    /// Regression for the orphan-GC TOCTOU: the collector lists a
    /// root's keys while it is unleased (a crashed chain's leftovers),
    /// but a new chain may re-lease that root and overwrite the keys
    /// before the collector gets to its deletes. The delete-time lease
    /// re-check must protect the live chain — under the old listing-time
    /// check alone, this test's downloads fail intermittently.
    #[test]
    fn orphan_gc_never_sweeps_a_released_chain() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (tm, _store) = manager(16);
        let root = "omp/dataflow/dag-0";
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let tm_ref = &tm;
            let done_ref = &done;
            let gc = s.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    tm_ref.collect_orphans("");
                    std::thread::yield_now();
                }
            });
            for round in 0..200u8 {
                // The previous round's "crash" left this root's keys as
                // genuine orphans — the collector may hold them in a
                // sweep list right now. Leasing must protect the fresh
                // upload that lands under the same keys.
                tm.lease(root);
                let key = format!("{root}/v0/y");
                tm.upload(vec![(key.clone(), vec![round; 64])]).unwrap();
                let (payloads, _) = tm.download(vec![key.clone()]).unwrap_or_else(|e| {
                    panic!("round {round}: leased resident key swept by concurrent GC: {e}")
                });
                assert_eq!(&payloads[0].1[..], &[round; 64][..]);
                // Simulate a crash: release without cleanup, leaving the
                // key for the collector.
                tm.release(root);
            }
            done.store(true, Ordering::Relaxed);
            gc.join().unwrap();
        });
    }

    #[test]
    fn orphan_collection_scopes_dataflow_leases_per_dag() {
        let (tm, store) = manager(64);
        tm.lease("omp/dataflow/dag-1");
        tm.upload(vec![
            ("omp/dataflow/dag-0/y".to_string(), vec![1u8; 32]), // crashed
            ("omp/dataflow/dag-1/y".to_string(), vec![2u8; 32]), // live
        ])
        .unwrap();
        assert_eq!(tm.collect_orphans(""), 1, "only the unleased dag is swept");
        assert!(!store.exists("omp/dataflow/dag-0/y"));
        assert!(store.exists("omp/dataflow/dag-1/y"));
        // `dag-1` must not shadow `dag-10`: the lease unit is the full
        // path segment, not a string prefix of it.
        tm.upload(vec![("omp/dataflow/dag-10/y".to_string(), vec![3u8; 32])])
            .unwrap();
        assert_eq!(tm.collect_orphans(""), 1);
        assert!(!store.exists("omp/dataflow/dag-10/y"));
    }

    #[test]
    fn kill_between_staging_and_manifest_never_commits() {
        // The crash the protocol exists for: every staged put lands,
        // the store dies on the manifest publish. The region must read
        // as uncommitted, and the next start must sweep the leftovers.
        let plan = FaultPlan::new(31).rule(
            FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Kill).on_keys("/manifest"),
        );
        let (tm, store) = chaos_manager(64, plan);
        tm.upload(vec![(
            TransferManager::staged_key("job-3", "out/y"),
            vec![9; 64],
        )])
        .unwrap();
        assert!(tm
            .publish_manifest("job-3", &["out/y".to_string()])
            .is_err());
        assert!(!store.exists("job-3/manifest"), "commit never visible");
        assert_eq!(store.list("job-3/_tmp/").len(), 1, "torn staging left");

        // Next region start, store back up: GC sweeps the orphan.
        let tm2 = TransferManager::new(Arc::new(store.clone()), TransferConfig::default());
        assert_eq!(tm2.collect_orphans(""), 1);
        assert!(store.list("job-3/").is_empty());
    }
}
