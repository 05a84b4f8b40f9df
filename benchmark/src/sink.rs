//! Where handlers put what they receive.
//!
//! One [`Sink`] per cluster incarnation. Each subscription appends to its
//! own preallocated log behind its own (therefore uncontended) mutex, so
//! the delivery path shares no lock between subscriptions; the only shared
//! write is one atomic delivery counter, which the closed-loop generator
//! and the drain wait block on through a condvar that handlers touch only
//! when the awaited count is reached.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::workload::PROBE_BASE;

/// Nanoseconds since the process epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub tag: u64,
    /// Send (closed phase) or due (paced phase) time carried in the obvent.
    pub sent_ns: u64,
    /// Handler entry.
    pub recv_ns: u64,
}

#[derive(Default)]
struct SubLog {
    records: Mutex<Vec<Record>>,
    probed: AtomicBool,
}

pub struct Sink {
    /// One log per initial subscription plus a last, shared one for
    /// subscriptions churned in during the run (which must stay empty).
    logs: Vec<SubLog>,
    delivered: AtomicU64,
    /// Delivery count a waiter is blocked on (`u64::MAX` = nobody waits).
    wake_at: AtomicU64,
    gate: Mutex<()>,
    changed: Condvar,
    /// `Some` in the traced replay: handlers note their own `(entry, exit)`
    /// here and the driver turns the notes into spans after the callback.
    handler_spans: Option<Mutex<Vec<(u64, u64)>>>,
}

impl Sink {
    /// A sink with one log per entry of `capacities` (expected deliveries of
    /// that subscription) plus the stray log.
    pub fn new(capacities: &[usize], trace_handlers: bool) -> Arc<Sink> {
        let mut logs: Vec<SubLog> = capacities
            .iter()
            .map(|&n| SubLog {
                records: Mutex::new(Vec::with_capacity(n + 8)),
                ..SubLog::default()
            })
            .collect();
        logs.push(SubLog::default());
        Arc::new(Sink {
            logs,
            delivered: AtomicU64::new(0),
            wake_at: AtomicU64::new(u64::MAX),
            gate: Mutex::new(()),
            changed: Condvar::new(),
            handler_spans: trace_handlers.then(Mutex::default),
        })
    }

    /// Index of the shared log of churned-in subscriptions.
    pub fn stray_log(&self) -> usize {
        self.logs.len() - 1
    }

    /// The handler body: stamp entry time, append, count.
    pub fn record(&self, log: usize, tag: u64, sent_ns: u64) {
        let recv_ns = now_ns();
        if tag >= PROBE_BASE {
            self.logs[log].probed.store(true, Ordering::SeqCst);
            self.notify();
            return;
        }
        self.logs[log]
            .records
            .lock()
            .expect("log poisoned")
            .push(Record {
                tag,
                sent_ns,
                recv_ns,
            });
        let delivered = self.delivered.fetch_add(1, Ordering::SeqCst) + 1;
        if delivered >= self.wake_at.load(Ordering::SeqCst) {
            self.notify();
        }
        if let Some(spans) = &self.handler_spans {
            spans
                .lock()
                .expect("handler spans poisoned")
                .push((recv_ns, now_ns()));
        }
    }

    /// Takes the handler `(entry, exit)` notes made since the last call.
    pub fn take_handler_spans(&self, into: &mut Vec<(u64, u64)>) {
        if let Some(spans) = &self.handler_spans {
            into.append(&mut spans.lock().expect("handler spans poisoned"));
        }
    }

    fn notify(&self) {
        // Taking the gate orders this notify after a waiter's check.
        drop(self.gate.lock().expect("gate poisoned"));
        self.changed.notify_all();
    }

    /// Data deliveries so far (probes excluded).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::SeqCst)
    }

    /// Blocks until `target` deliveries happened or `timeout` elapsed;
    /// returns whether they did.
    pub fn wait_delivered(&self, target: u64, timeout: Duration) -> bool {
        self.wake_at.store(target, Ordering::SeqCst);
        let reached = self.wait(timeout, || self.delivered() >= target);
        self.wake_at.store(u64::MAX, Ordering::SeqCst);
        reached
    }

    /// Blocks until every log in `logs` saw a probe or `timeout` elapsed.
    pub fn wait_probed(&self, logs: &[usize], timeout: Duration) -> bool {
        self.wait(timeout, || {
            logs.iter()
                .all(|&l| self.logs[l].probed.load(Ordering::SeqCst))
        })
    }

    fn wait(&self, timeout: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut gate = self.gate.lock().expect("gate poisoned");
        loop {
            if done() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            gate = self
                .changed
                .wait_timeout(gate, deadline - now)
                .expect("gate poisoned")
                .0;
        }
    }

    /// Copies the logs out (after the run).
    pub fn take_logs(&self) -> Vec<Vec<Record>> {
        self.logs
            .iter()
            .map(|log| std::mem::take(&mut *log.records.lock().expect("log poisoned")))
            .collect()
    }
}
