//! Store operations and the offload phase their key belongs to.

/// One call on the `ObjectStore` surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `put`
    Put,
    /// `get`
    Get,
    /// `delete`, `exists`, `list`, `size` or `checksum`.
    Meta(&'static str),
}

impl Op {
    /// Span name of the op.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Meta(name) => name,
        }
    }
}

/// The step of the offload workflow a store op serves, told from its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Host puts a mapped input (`in/` key).
    HostUpload,
    /// Driver gets a mapped input (`in/` key).
    DriverFetch,
    /// Driver puts a region output (`out/` key).
    OutputWrite,
    /// Host gets a region output (`out/` key).
    HostDownload,
    /// Commit protocol: manifests, `_tmp/` staging and the journal.
    Commit,
    /// Everything else: metadata calls on data keys, resident buffers.
    Other,
}

impl Phase {
    /// Every phase, in workflow order.
    pub const ALL: [Phase; 6] = [
        Phase::HostUpload,
        Phase::DriverFetch,
        Phase::OutputWrite,
        Phase::HostDownload,
        Phase::Commit,
        Phase::Other,
    ];

    /// Metric and span label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::HostUpload => "host_upload",
            Phase::DriverFetch => "driver_fetch",
            Phase::OutputWrite => "output_write",
            Phase::HostDownload => "host_download",
            Phase::Commit => "commit",
            Phase::Other => "other",
        }
    }
}

/// Classify one store op. Commit keys win over the data prefix they may
/// also contain (`job-1/_tmp/out/y` is staging, not an output write).
pub fn classify(op: Op, key: &str) -> Phase {
    let has = |seg: &str| key.starts_with(seg) || key.contains(&format!("/{seg}"));
    if has("_tmp/") || has("journal/") || key == "manifest" || key.ends_with("/manifest") {
        return Phase::Commit;
    }
    match op {
        Op::Put if has("in/") => Phase::HostUpload,
        Op::Get if has("in/") => Phase::DriverFetch,
        Op::Put if has("out/") => Phase::OutputWrite,
        Op::Get if has("out/") => Phase::HostDownload,
        _ => Phase::Other,
    }
}
