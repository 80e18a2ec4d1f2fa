//! `TimedTransport`: a [`Transport`] decorator that times every `send` and
//! `recv` of the endpoint it wraps, from outside `ft-runtime`.
//!
//! The traced run passes decorated endpoints through
//! [`ft_runtime::run_spmd_with`]; the end-to-end runs use the raw endpoints.
//! Totals live in a shared [`WireTimes`] per rank so the bench can read
//! them after the run, and each call is also charged to the innermost open
//! span of the calling rank (see [`crate::spans`]).

use crate::spans;
use ft_runtime::{CommError, Msg, Transport, TransportStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one endpoint did on the wire. Statistics only, read after the run:
/// `Relaxed` is enough.
#[derive(Debug, Default)]
pub struct WireTimes {
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl WireTimes {
    /// Seconds spent inside `send`.
    pub fn send_secs(&self) -> f64 {
        self.send_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Seconds spent blocked in `recv` (timeouts included).
    pub fn recv_secs(&self) -> f64 {
        self.recv_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Messages sent.
    pub fn msgs(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }

    /// Payload bytes sent (8 per `f64`, as the runtime's ledger counts).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The decorator. Everything but `send`/`recv` forwards untouched.
pub struct TimedTransport<T: Transport> {
    inner: T,
    times: Arc<WireTimes>,
}

impl<T: Transport + 'static> TimedTransport<T> {
    /// Wrap a whole fabric (endpoints in rank order): the boxed endpoints
    /// `run_spmd_with` takes, plus each rank's totals.
    pub fn wrap_fabric(fabric: Vec<T>) -> (Vec<Box<dyn Transport>>, Vec<Arc<WireTimes>>) {
        let times: Vec<Arc<WireTimes>> = fabric.iter().map(|_| Arc::default()).collect();
        let boxed = fabric
            .into_iter()
            .zip(&times)
            .map(|(inner, t)| Box::new(TimedTransport { inner, times: Arc::clone(t) }) as Box<dyn Transport>)
            .collect();
        (boxed, times)
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, dst: usize, msg: Msg) {
        let bytes = 8 * msg.payload.len() as u64;
        let t = Instant::now();
        self.inner.send(dst, msg);
        let took = t.elapsed();
        self.times.send_ns.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        self.times.msgs.fetch_add(1, Ordering::Relaxed);
        self.times.bytes.fetch_add(bytes, Ordering::Relaxed);
        spans::note_send(took, bytes);
    }

    fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
        let t = Instant::now();
        let out = self.inner.recv(timeout);
        let took = t.elapsed();
        self.times.recv_ns.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        spans::note_recv(took);
        out
    }

    fn close(&self) {
        self.inner.close()
    }

    fn reopen(&self) {
        self.inner.reopen()
    }

    fn is_peer_dead(&self, peer: usize) -> bool {
        self.inner.is_peer_dead(peer)
    }

    fn incarnation(&self) -> u32 {
        self.inner.incarnation()
    }

    fn peer_incarnation(&self, peer: usize) -> u32 {
        self.inner.peer_incarnation(peer)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}
