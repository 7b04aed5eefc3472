//! A benchmark-owned [`Vfs`] wrapper around the real filesystem. It times
//! the storage layer's file operations from outside the program: one span
//! per `append`, `sync_data`, `read_all` and `try_read`, kept in memory
//! while recording is switched on. Each store gets its own wrapper, so the
//! primary's and a replica's I/O never mix.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use softrep_storage::{StorageResult, Vfs, VfsFile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Append,
    Sync,
    ReadAll,
    TryRead,
}

impl IoOp {
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Append => "append",
            IoOp::Sync => "sync_data",
            IoOp::ReadAll => "read_all",
            IoOp::TryRead => "try_read",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct IoSpan {
    pub op: IoOp,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub bytes: u64,
}

pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<IoSpan>>,
}

impl Recorder {
    fn record(&self, op: IoOp, started: Instant, bytes: usize) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        let span = IoSpan {
            op,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
            bytes: bytes as u64,
        };
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

pub struct TraceVfs {
    inner: Arc<dyn Vfs>,
    rec: Arc<Recorder>,
}

impl TraceVfs {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(TraceVfs {
            inner: softrep_storage::vfs::real(),
            rec: Arc::new(Recorder {
                on: AtomicBool::new(false),
                epoch,
                spans: Mutex::new(Vec::new()),
            }),
        })
    }

    pub fn recording(&self, on: bool) {
        self.rec.on.store(on, Ordering::SeqCst);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<IoSpan> {
        std::mem::take(&mut *self.rec.spans.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

struct TraceFile {
    inner: Arc<dyn VfsFile>,
    rec: Arc<Recorder>,
}

impl VfsFile for TraceFile {
    fn append(&self, data: &[u8]) -> StorageResult<()> {
        let started = Instant::now();
        let out = self.inner.append(data);
        self.rec.record(IoOp::Append, started, data.len());
        out
    }

    fn sync_data(&self) -> StorageResult<()> {
        let started = Instant::now();
        let out = self.inner.sync_data();
        self.rec.record(IoOp::Sync, started, 0);
        out
    }

    fn set_len(&self, len: u64) -> StorageResult<()> {
        self.inner.set_len(len)
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        let started = Instant::now();
        let out = self.inner.read_all();
        self.rec.record(IoOp::ReadAll, started, out.as_ref().map_or(0, Vec::len));
        out
    }
}

impl Vfs for TraceVfs {
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Arc::new(TraceFile { inner, rec: Arc::clone(&self.rec) }))
    }

    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        let inner = self.inner.create(path)?;
        Ok(Arc::new(TraceFile { inner, rec: Arc::clone(&self.rec) }))
    }

    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
        let started = Instant::now();
        let out = self.inner.try_read(path);
        let bytes = out.as_ref().ok().and_then(Option::as_ref).map_or(0, Vec::len);
        self.rec.record(IoOp::TryRead, started, bytes);
        out
    }

    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
        self.inner.write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> StorageResult<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
        self.inner.create_dir_all(path)
    }
}
