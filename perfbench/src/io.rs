//! A counting, timing [`StoreIo`] around the store's disk backend.
//!
//! nvstore emits no telemetry of its own, so the `store.io.*` ledger is
//! taken here, at the trait boundary. The flush policy is DiskIo's own:
//! every whole-file write and every rename is fsynced (renames also sync
//! the parent directory). The numbers describe the filesystem the
//! benchmark runs on, not a storage device.

use nvstore::io::IoError;
use nvstore::{DiskIo, StoreIo};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Counters shared between the wrapper (owned by the store) and the
/// benchmark.
#[derive(Default)]
pub struct IoLedger {
    pub writes: Cell<u64>,
    pub renames: Cell<u64>,
    pub reads: Cell<u64>,
    pub bytes_written: Cell<u64>,
    pub bytes_read: Cell<u64>,
    /// Seconds inside `write` and `rename` (both fsync).
    pub write_s: Cell<f64>,
    /// Seconds inside `read`.
    pub read_s: Cell<f64>,
}

fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

fn add_secs(c: &Cell<f64>, since: Instant) {
    c.set(c.get() + since.elapsed().as_secs_f64());
}

pub struct CountingIo {
    inner: DiskIo,
    ledger: Rc<IoLedger>,
}

impl CountingIo {
    pub fn new(inner: DiskIo, ledger: Rc<IoLedger>) -> Self {
        CountingIo { inner, ledger }
    }
}

impl StoreIo for CountingIo {
    fn read(&self, path: &str) -> Result<Vec<u8>, IoError> {
        let t = Instant::now();
        let out = self.inner.read(path);
        add_secs(&self.ledger.read_s, t);
        bump(&self.ledger.reads, 1);
        if let Ok(bytes) = &out {
            bump(&self.ledger.bytes_read, bytes.len() as u64);
        }
        out
    }

    fn write(&mut self, path: &str, data: &[u8]) -> Result<(), IoError> {
        let t = Instant::now();
        let out = self.inner.write(path, data);
        add_secs(&self.ledger.write_s, t);
        bump(&self.ledger.writes, 1);
        bump(&self.ledger.bytes_written, data.len() as u64);
        out
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), IoError> {
        let t = Instant::now();
        let out = self.inner.rename(from, to);
        add_secs(&self.ledger.write_s, t);
        bump(&self.ledger.renames, 1);
        out
    }

    fn remove(&mut self, path: &str) -> Result<(), IoError> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>, IoError> {
        self.inner.list(dir)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
}
