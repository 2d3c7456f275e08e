#![warn(missing_docs)]

//! `cloud-storage` — the object-storage substrate of the offloading
//! pipeline.
//!
//! OmpCloud ships offloaded buffers as binary files through a cloud file
//! store — AWS S3 or any HDFS server (paper §III, step 2) — and reads the
//! results back the same way (step 8). This crate provides:
//!
//! * [`ObjectStore`] — the uniform key/value surface the cloud plug-in
//!   programs against (the paper's "modular infrastructure where the
//!   communication with the cloud can be customized for each service");
//! * [`S3Store`] — an S3-like bucket store with ETags, versioning counters
//!   and multipart uploads;
//! * [`HdfsStore`] — an HDFS-like block store with a namenode, datanodes,
//!   configurable block size and replication, surviving datanode loss;
//! * [`AzureBlobStore`] — an Azure-Storage-like account/container/blob
//!   store with block lists and snapshots (the paper's third backend);
//! * [`TransferManager`] — the host-side transfer engine: one thread per
//!   offloaded buffer, gzip-style compression above a size threshold, and
//!   a per-item report feeding the Fig. 5 "host-target communication"
//!   decomposition;
//! * [`StorageUri`] — `s3://bucket/prefix` and `hdfs://host:port/path`
//!   parsing for the cluster configuration file.

mod azure;
mod chaos;
mod hdfs;
mod journal;
mod latency;
mod pack;
mod pool;
mod retry;
mod s3;
mod transfer;
mod uri;

pub use azure::{AccessLevel, AzureAccount, AzureBlobStore};
pub use chaos::{ChaosStats, ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, Trigger};
pub use hdfs::{HdfsStore, DEFAULT_BLOCK_SIZE};
pub use journal::{RegionFingerprint, RegionJournal};
pub use latency::LatencyStore;
pub use pool::{BytePool, PoolBuf, PoolStats};
pub use retry::{RetryPolicy, RetrySession, RetryStats};
pub use s3::{MultipartUpload, S3Service, S3Store};
pub use transfer::{
    CommitManifest, ItemReport, ManifestEntry, PipelineReport, PipelineResult, TransferConfig,
    TransferManager, TransferReport,
};
pub use uri::StorageUri;

use std::fmt;
use std::sync::Arc;

/// Errors surfaced by storage backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Key (or file) does not exist.
    NotFound(String),
    /// Bucket does not exist.
    NoSuchBucket(String),
    /// Bucket already exists.
    BucketExists(String),
    /// A transient fault (network blip, throttling). Retryable.
    Transient(String),
    /// Data is permanently unavailable (all replicas lost).
    Unavailable(String),
    /// Payload failed integrity checks on download.
    Corrupted(String),
    /// An operation or transfer overran its deadline. Retryable when the
    /// per-op deadline expired; the whole-transfer deadline is terminal.
    Timeout(String),
    /// Malformed URI or configuration.
    BadUri(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "key not found: {k}"),
            StorageError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StorageError::BucketExists(b) => write!(f, "bucket already exists: {b}"),
            StorageError::Transient(why) => write!(f, "transient storage error: {why}"),
            StorageError::Unavailable(why) => write!(f, "data unavailable: {why}"),
            StorageError::Corrupted(why) => write!(f, "corrupted object: {why}"),
            StorageError::Timeout(why) => write!(f, "deadline exceeded: {why}"),
            StorageError::BadUri(u) => write!(f, "bad storage uri: {u}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Whether a retry might succeed. Per-op timeouts are retryable
    /// (the op was merely slow); whole-transfer deadline expiry is
    /// reported by the retry layer as a terminal error instead.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient(_) | StorageError::Timeout(_))
    }
}

/// Uniform object-store interface: what the cloud plug-in sees regardless
/// of which service the configuration file points at.
pub trait ObjectStore: Send + Sync {
    /// Store `data` under `key`, replacing any previous object.
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError>;

    /// Fetch the object at `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError>;

    /// Remove the object at `key` (idempotent).
    fn delete(&self, key: &str) -> Result<(), StorageError>;

    /// Does `key` exist?
    fn exists(&self, key: &str) -> bool;

    /// Keys starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Object size in bytes, if present.
    fn size(&self, key: &str) -> Option<u64>;

    /// CRC32 of the stored bytes, when the backend tracks one (S3's
    /// ETag, HDFS block checksums). `None` when the backend has no
    /// content hash; the transfer layer then falls back to its own
    /// upload-time ledger.
    fn checksum(&self, _key: &str) -> Option<u32> {
        None
    }

    /// Backend label ("s3", "hdfs") for logs and reports.
    fn kind(&self) -> &'static str;
}

/// Shared handle to any object store.
pub type StoreHandle = Arc<dyn ObjectStore>;

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Exercise the full ObjectStore contract against any backend.
    pub fn exercise_contract(store: &dyn ObjectStore) {
        assert!(!store.exists("a/b"));
        assert_eq!(
            store.get("a/b").unwrap_err(),
            StorageError::NotFound("a/b".into())
        );

        store.put("a/b", vec![1, 2, 3]).unwrap();
        assert!(store.exists("a/b"));
        assert_eq!(store.get("a/b").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.size("a/b"), Some(3));

        // Overwrite.
        store.put("a/b", vec![9; 10]).unwrap();
        assert_eq!(store.get("a/b").unwrap(), vec![9; 10]);
        assert_eq!(store.size("a/b"), Some(10));

        // Listing with prefixes.
        store.put("a/c", vec![]).unwrap();
        store.put("b/d", vec![7]).unwrap();
        assert_eq!(store.list("a/"), vec!["a/b".to_string(), "a/c".to_string()]);
        assert_eq!(
            store.list(""),
            vec!["a/b".to_string(), "a/c".to_string(), "b/d".to_string()]
        );

        // Empty object roundtrip.
        assert_eq!(store.get("a/c").unwrap(), Vec::<u8>::new());

        // Delete is idempotent.
        store.delete("a/b").unwrap();
        assert!(!store.exists("a/b"));
        store.delete("a/b").unwrap();
    }
}
