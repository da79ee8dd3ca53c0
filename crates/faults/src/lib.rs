//! # septic-faults
//!
//! Deterministic fault injection for the SEPTIC fail-safe layer: the test
//! doubles that break things on purpose, so the fault-tolerance claims in
//! the design (panic isolation, failure policies, crash-safe persistence)
//! are demonstrated rather than asserted.
//!
//! * [`FaultyIo`] — wraps any [`StorageIo`] (in tests: the DBMS's
//!   in-memory `MemIo`) and fails *scripted* operations (I/O error, torn
//!   write, **silent** torn write) exactly once each. The WAL and the
//!   model store both persist through `StorageIo`, so this one double
//!   covers WAL appends, checkpoint and model-snapshot writes, journal
//!   appends and recovery reads;
//! * [`PanickingGuard`] — a [`QueryGuard`] that always panics, with a
//!   chosen failure policy;
//! * [`PanickingPlugin`] — a stored-injection plugin that panics during
//!   confirmation: a SEPTIC failure, which the server decides by the
//!   mode's failure policy (fail-closed in prevention, fail-open in
//!   training and detection);
//! * [`socket`] — scripted socket faults against the framed TCP front
//!   end (mid-frame disconnect, slowloris partial header, oversized
//!   frame, garbage payload).
//!
//! Everything is deterministic: faults fire on the n-th occurrence of an
//! operation kind, not on timers or randomness.

pub mod socket;

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use septic::{Plugin, StoredAttack};
use septic_dbms::{FailurePolicy, GuardDecision, QueryContext, QueryGuard, StorageIo};

// ---------------------------------------------------------------------------
// Scripted fault injection
// ---------------------------------------------------------------------------

/// What an injected fault does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an I/O error and has no effect.
    Error,
    /// A write/append persists only the first `keep` bytes, then reports
    /// an error (the process "crashed" mid-write).
    Torn { keep: usize },
    /// A write/append persists only the first `keep` bytes but reports
    /// **success** — the classic torn write only a checksum can catch.
    SilentTorn { keep: usize },
}

/// The kind of [`StorageIo`] operation a fault is scripted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    Read,
    Write,
    Append,
    Rename,
}

/// Wraps a [`StorageIo`] (the medium under the DBMS's WAL and checkpoint
/// snapshots, and under the model store's snapshot and journal) and
/// injects scripted faults: each `(op, nth)` entry fires exactly once, on
/// the nth call (0-based) of that operation kind; operations without a
/// scripted fault pass through untouched. The interesting cases for a
/// write-ahead log:
///
/// * `Append` + [`Fault::Torn`] — the process dies mid-append; the tail
///   of the log is a partial frame the next recovery must quarantine;
/// * `Append` + [`Fault::SilentTorn`] — the medium lies about the append
///   having completed; only the CRC catches it at replay;
/// * `Append`/`Write` + [`Fault::Error`] — the commit must NOT be
///   acknowledged to the client.
#[derive(Debug)]
pub struct FaultyIo {
    inner: Arc<dyn StorageIo>,
    plan: Mutex<HashMap<(IoOp, u64), Fault>>,
    counts: Mutex<HashMap<IoOp, u64>>,
    injected: Mutex<Vec<(IoOp, u64, Fault)>>,
}

impl FaultyIo {
    /// Wraps `inner` with an empty fault plan.
    #[must_use]
    pub fn new(inner: Arc<dyn StorageIo>) -> Arc<Self> {
        Arc::new(FaultyIo {
            inner,
            plan: Mutex::new(HashMap::new()),
            counts: Mutex::new(HashMap::new()),
            injected: Mutex::new(Vec::new()),
        })
    }

    /// Scripts `fault` to fire on the `nth` (0-based) call of `op`.
    pub fn inject(&self, op: IoOp, nth: u64, fault: Fault) {
        self.plan.lock().insert((op, nth), fault);
    }

    /// The faults that actually fired, in order.
    #[must_use]
    pub fn fired(&self) -> Vec<(IoOp, u64, Fault)> {
        self.injected.lock().clone()
    }

    /// How many calls of `op` have been seen so far.
    #[must_use]
    pub fn calls(&self, op: IoOp) -> u64 {
        self.counts.lock().get(&op).copied().unwrap_or(0)
    }

    fn next_fault(&self, op: IoOp) -> Option<Fault> {
        let nth = {
            let mut counts = self.counts.lock();
            let c = counts.entry(op).or_insert(0);
            let nth = *c;
            *c += 1;
            nth
        };
        let fault = self.plan.lock().remove(&(op, nth));
        if let Some(f) = fault {
            self.injected.lock().push((op, nth, f));
        }
        fault
    }

    fn io_fault(op: IoOp, path: &Path) -> io::Error {
        io::Error::other(format!("injected {op:?} fault at {}", path.display()))
    }
}

impl StorageIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.next_fault(IoOp::Read) {
            Some(_) => Err(Self::io_fault(IoOp::Read, path)),
            None => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.next_fault(IoOp::Write) {
            Some(Fault::Error) => Err(Self::io_fault(IoOp::Write, path)),
            Some(Fault::Torn { keep }) => {
                self.inner.write(path, &data[..keep.min(data.len())])?;
                Err(Self::io_fault(IoOp::Write, path))
            }
            Some(Fault::SilentTorn { keep }) => {
                self.inner.write(path, &data[..keep.min(data.len())])
            }
            None => self.inner.write(path, data),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.next_fault(IoOp::Append) {
            Some(Fault::Error) => Err(Self::io_fault(IoOp::Append, path)),
            Some(Fault::Torn { keep }) => {
                self.inner.append(path, &data[..keep.min(data.len())])?;
                Err(Self::io_fault(IoOp::Append, path))
            }
            Some(Fault::SilentTorn { keep }) => {
                self.inner.append(path, &data[..keep.min(data.len())])
            }
            None => self.inner.append(path, data),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_fault(IoOp::Rename) {
            Some(_) => Err(Self::io_fault(IoOp::Rename, from)),
            None => self.inner.rename(from, to),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

// ---------------------------------------------------------------------------
// Failing guards and plugins
// ---------------------------------------------------------------------------

/// A [`QueryGuard`] that panics on every inspection — the worst-case
/// defense outage, used to demonstrate the server's panic isolation and
/// the two failure policies.
#[derive(Debug, Clone, Copy)]
pub struct PanickingGuard(pub FailurePolicy);

impl QueryGuard for PanickingGuard {
    fn inspect(&self, _ctx: &QueryContext<'_>) -> GuardDecision {
        panic!("injected guard panic");
    }

    fn name(&self) -> &str {
        "panicking-guard"
    }

    fn failure_policy(&self) -> FailurePolicy {
        self.0
    }
}

/// A stored-injection plugin whose precise check panics — models a buggy
/// third-party plugin taking down detection from inside SEPTIC.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanickingPlugin;

impl Plugin for PanickingPlugin {
    fn name(&self) -> &'static str {
        "panicking-plugin"
    }

    fn quick_filter(&self, _input: &str) -> bool {
        true
    }

    fn confirm(&self, _input: &str) -> Option<StoredAttack> {
        panic!("injected plugin panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_dbms::MemIo;
    use std::path::PathBuf;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(name)
    }

    #[test]
    fn faults_fire_once_on_the_scripted_call() {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(mem.clone());
        faulty.inject(IoOp::Write, 1, Fault::Error);
        faulty.write(&p("f"), b"first").unwrap(); // call 0: clean
        assert!(faulty.write(&p("f"), b"second").is_err()); // call 1: fault
        faulty.write(&p("f"), b"third").unwrap(); // one-shot: consumed
        assert_eq!(mem.read(&p("f")).unwrap(), b"third");
        assert_eq!(faulty.fired(), vec![(IoOp::Write, 1, Fault::Error)]);
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_a_silent_one_reports_success() {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(mem.clone());
        faulty.inject(IoOp::Write, 0, Fault::Torn { keep: 3 });
        faulty.inject(IoOp::Write, 1, Fault::SilentTorn { keep: 2 });
        assert!(faulty.write(&p("f"), b"abcdef").is_err());
        assert_eq!(mem.read(&p("f")).unwrap(), b"abc");
        faulty.write(&p("f"), b"abcdef").unwrap();
        assert_eq!(mem.read(&p("f")).unwrap(), b"ab");
    }

    #[test]
    fn faulty_io_tears_appends_and_counts_calls() {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(mem.clone());
        faulty.inject(IoOp::Append, 1, Fault::Torn { keep: 4 });
        faulty.inject(IoOp::Append, 2, Fault::SilentTorn { keep: 1 });
        faulty.append(&p("wal"), b"first-").unwrap();
        assert!(faulty.append(&p("wal"), b"second-").is_err());
        faulty.append(&p("wal"), b"third-").unwrap();
        assert_eq!(mem.read(&p("wal")).unwrap(), b"first-secot");
        assert_eq!(faulty.calls(IoOp::Append), 3);
        assert_eq!(faulty.fired().len(), 2);
    }
}
