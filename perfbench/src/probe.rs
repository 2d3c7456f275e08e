//! Probes that observe a layer from outside by wrapping its public
//! surface: an `ObjectStore` around the real store, and a timing closure
//! around each region's loop body.

use crate::phase::{classify, Op};
use crate::trace::{Span, Tracer};
use cloud_storage::{ObjectStore, StorageError, StoreHandle};
use omp_model::TargetRegion;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store-op counters, as a plain snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `put` calls.
    pub puts: u64,
    /// `get` calls.
    pub gets: u64,
    /// Metadata calls (`delete`, `exists`, `list`, `size`, `checksum`).
    pub meta: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Bytes handed to `put`.
    pub put_bytes: u64,
    /// Bytes returned by successful `get`s.
    pub get_bytes: u64,
}

impl StoreCounts {
    /// Billed requests: every call.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets + self.meta
    }

    /// Bytes through the store in either direction.
    pub fn bytes(&self) -> u64 {
        self.put_bytes + self.get_bytes
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            meta: self.meta - earlier.meta,
            failed: self.failed - earlier.failed,
            put_bytes: self.put_bytes - earlier.put_bytes,
            get_bytes: self.get_bytes - earlier.get_bytes,
        }
    }
}

#[derive(Default)]
struct Counters {
    puts: AtomicU64,
    gets: AtomicU64,
    meta: AtomicU64,
    failed: AtomicU64,
    put_bytes: AtomicU64,
    get_bytes: AtomicU64,
}

/// `ObjectStore` decorator: always counts (two relaxed adds per op);
/// records a span per op while its tracer is enabled.
pub struct ProbeStore {
    inner: StoreHandle,
    counters: Counters,
    tracer: Arc<Tracer>,
}

impl ProbeStore {
    /// Wrap `inner`, recording spans into `tracer` when it is enabled.
    pub fn new(inner: StoreHandle, tracer: Arc<Tracer>) -> ProbeStore {
        ProbeStore {
            inner,
            counters: Counters::default(),
            tracer,
        }
    }

    /// Counter snapshot.
    pub fn counts(&self) -> StoreCounts {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StoreCounts {
            puts: load(&c.puts),
            gets: load(&c.gets),
            meta: load(&c.meta),
            failed: load(&c.failed),
            put_bytes: load(&c.put_bytes),
            get_bytes: load(&c.get_bytes),
        }
    }

    /// Run one store call, counting it and, when tracing, timing it.
    /// `bytes` extracts the payload size from the call's result.
    fn observe<T>(
        &self,
        op: Op,
        key: &str,
        call: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> Option<u64>,
    ) -> T {
        let start = self.tracer.enabled().then(|| self.tracer.now_ns());
        let out = call();
        let moved = bytes(&out);
        let c = &self.counters;
        let calls = match op {
            Op::Put => &c.puts,
            Op::Get => &c.gets,
            Op::Meta(_) => &c.meta,
        };
        calls.fetch_add(1, Ordering::Relaxed);
        let second = match (op, moved) {
            (_, None) => Some((&c.failed, 1)),
            (Op::Put, Some(b)) => Some((&c.put_bytes, b)),
            (Op::Get, Some(b)) => Some((&c.get_bytes, b)),
            (Op::Meta(_), Some(_)) => None,
        };
        if let Some((counter, n)) = second {
            counter.fetch_add(n, Ordering::Relaxed);
        }
        if let Some(start_ns) = start {
            let (region, parent) = self.tracer.current();
            self.tracer.record(Span {
                id: self.tracer.new_id(),
                name: op.name(),
                layer: "storage",
                region,
                parent,
                start_ns,
                end_ns: self.tracer.now_ns(),
                bytes: moved.unwrap_or(0),
                phase: classify(op, key).name(),
            });
        }
        out
    }
}

impl ObjectStore for ProbeStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        let len = data.len() as u64;
        self.observe(
            Op::Put,
            key,
            || self.inner.put(key, data),
            |r| r.is_ok().then_some(len),
        )
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.observe(
            Op::Get,
            key,
            || self.inner.get(key),
            |r| r.as_ref().ok().map(|d| d.len() as u64),
        )
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.observe(
            Op::Meta("delete"),
            key,
            || self.inner.delete(key),
            |r| r.is_ok().then_some(0),
        )
    }

    fn exists(&self, key: &str) -> bool {
        self.observe(
            Op::Meta("exists"),
            key,
            || self.inner.exists(key),
            |_| Some(0),
        )
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.observe(
            Op::Meta("list"),
            prefix,
            || self.inner.list(prefix),
            |_| Some(0),
        )
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.observe(Op::Meta("size"), key, || self.inner.size(key), |_| Some(0))
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        self.observe(
            Op::Meta("checksum"),
            key,
            || self.inner.checksum(key),
            |_| Some(0),
        )
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// A copy of `region` whose loop bodies record one `kernels` span per
/// iteration into `tracer`, attributed to `region_id`. Parents come from
/// the tracer's current scope at the time the body runs.
pub fn timed_region(region: &TargetRegion, region_id: u64, tracer: &Arc<Tracer>) -> TargetRegion {
    let mut timed = region.clone();
    for lp in &mut timed.loops {
        let inner = Arc::clone(&lp.body);
        let tracer = Arc::clone(tracer);
        lp.body = Arc::new(move |i, ins, outs| {
            let start_ns = tracer.now_ns();
            inner(i, ins, outs);
            let end_ns = tracer.now_ns();
            let (_, parent) = tracer.current();
            tracer.record(Span {
                id: tracer.new_id(),
                name: "body",
                layer: "kernels",
                region: region_id,
                parent,
                start_ns,
                end_ns,
                bytes: 0,
                phase: "",
            });
        });
    }
    timed
}
