//! Transparent tracing wrappers around the program's public protocol
//! roles.
//!
//! Each wrapper forwards every trait method — `observe_batch` included,
//! so the pause-on-message contract is the inner site's own — and keeps
//! its own counters plus a bounded span buffer. No state is shared
//! between wrappers, so the pooled engine can move them across threads
//! freely; the driver collects everything after the run ends.

use cma_stream::{Aggregator, Coordinator, Site, SiteId};
use std::time::Instant;

/// One recorded call: layer name, start and end in ns since the run's
/// epoch. Its parent — the driver interval that contains it — is
/// resolved when the spans are written out.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Bounded per-wrapper span buffer.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Recorder {
            epoch,
            cap,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[t0, t1)` and returns its length in ns.
    fn record(&mut self, name: &'static str, t0: Instant, t1: Instant) -> u64 {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
            });
        }
        (t1 - t0).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Counters of one traced site.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteCounters {
    pub observe_ns: u64,
    pub observe_calls: u64,
    pub arrivals: u64,
    pub emitted: u64,
    pub on_broadcast_ns: u64,
    pub on_broadcast_calls: u64,
}

impl SiteCounters {
    pub fn add(&mut self, o: &SiteCounters) {
        self.observe_ns += o.observe_ns;
        self.observe_calls += o.observe_calls;
        self.arrivals += o.arrivals;
        self.emitted += o.emitted;
        self.on_broadcast_ns += o.on_broadcast_ns;
        self.on_broadcast_calls += o.on_broadcast_calls;
    }

    pub fn busy_ns(&self) -> u64 {
        self.observe_ns + self.on_broadcast_ns
    }
}

/// A [`Site`] that times and counts every call into `inner`.
pub struct TracedSite<S> {
    pub inner: S,
    pub counters: SiteCounters,
    pub rec: Recorder,
}

impl<S> TracedSite<S> {
    pub fn new(inner: S, rec: Recorder) -> Self {
        TracedSite {
            inner,
            counters: SiteCounters::default(),
            rec,
        }
    }
}

impl<S: Site> Site for TracedSite<S> {
    type Input = S::Input;
    type UpMsg = S::UpMsg;
    type Broadcast = S::Broadcast;

    fn observe(&mut self, input: S::Input, out: &mut Vec<S::UpMsg>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.observe(input, out);
        let t1 = Instant::now();
        let c = &mut self.counters;
        c.observe_ns += self.rec.record("site.observe", t0, t1);
        c.observe_calls += 1;
        c.arrivals += 1;
        c.emitted += (out.len() - before) as u64;
    }

    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = S::Input>,
        out: &mut Vec<S::UpMsg>,
    ) {
        let before = out.len();
        let mut pulled = 0u64;
        let t0 = Instant::now();
        self.inner
            .observe_batch(inputs.into_iter().inspect(|_| pulled += 1), out);
        let t1 = Instant::now();
        let c = &mut self.counters;
        c.observe_ns += self.rec.record("site.observe", t0, t1);
        c.observe_calls += 1;
        c.arrivals += pulled;
        c.emitted += (out.len() - before) as u64;
    }

    fn on_broadcast(&mut self, broadcast: &S::Broadcast) {
        let t0 = Instant::now();
        self.inner.on_broadcast(broadcast);
        let t1 = Instant::now();
        self.counters.on_broadcast_ns += self.rec.record("site.on_broadcast", t0, t1);
        self.counters.on_broadcast_calls += 1;
    }
}

/// Counters of one traced interior node.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggCounters {
    pub absorb_ns: u64,
    pub absorbed: u64,
    pub flush_ns: u64,
    pub emitted: u64,
    pub on_broadcast_ns: u64,
}

impl AggCounters {
    pub fn add(&mut self, o: &AggCounters) {
        self.absorb_ns += o.absorb_ns;
        self.absorbed += o.absorbed;
        self.flush_ns += o.flush_ns;
        self.emitted += o.emitted;
        self.on_broadcast_ns += o.on_broadcast_ns;
    }

    pub fn busy_ns(&self) -> u64 {
        self.absorb_ns + self.flush_ns + self.on_broadcast_ns
    }
}

/// An [`Aggregator`] that times and counts every call into `inner`.
pub struct TracedAgg<A> {
    pub inner: A,
    pub counters: AggCounters,
    pub rec: Recorder,
}

impl<A> TracedAgg<A> {
    pub fn new(inner: A, rec: Recorder) -> Self {
        TracedAgg {
            inner,
            counters: AggCounters::default(),
            rec,
        }
    }
}

impl<A: Aggregator> Aggregator for TracedAgg<A> {
    type UpMsg = A::UpMsg;
    type Broadcast = A::Broadcast;

    fn absorb(&mut self, from: SiteId, msg: A::UpMsg) {
        let t0 = Instant::now();
        self.inner.absorb(from, msg);
        let t1 = Instant::now();
        self.counters.absorb_ns += self.rec.record("aggregator.absorb", t0, t1);
        self.counters.absorbed += 1;
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, A::UpMsg)>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.flush(out);
        let t1 = Instant::now();
        self.counters.flush_ns += self.rec.record("aggregator.flush", t0, t1);
        self.counters.emitted += (out.len() - before) as u64;
    }

    fn on_broadcast(&mut self, broadcast: &A::Broadcast) {
        let t0 = Instant::now();
        self.inner.on_broadcast(broadcast);
        let t1 = Instant::now();
        self.counters.on_broadcast_ns += self.rec.record("aggregator.on_broadcast", t0, t1);
    }
}

/// Counters of the traced root.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordCounters {
    pub receive_ns: u64,
    pub received: u64,
    pub broadcasts: u64,
}

/// A [`Coordinator`] that times and counts every call into `inner`,
/// and keeps the first `capture_cap` messages it receives for the wire
/// probe.
pub struct TracedCoord<C: Coordinator> {
    pub inner: C,
    pub counters: CoordCounters,
    pub rec: Recorder,
    pub captured: Vec<C::UpMsg>,
    capture_cap: usize,
}

impl<C: Coordinator> TracedCoord<C> {
    pub fn new(inner: C, rec: Recorder, capture_cap: usize) -> Self {
        TracedCoord {
            inner,
            counters: CoordCounters::default(),
            rec,
            captured: Vec::new(),
            capture_cap,
        }
    }
}

impl<C: Coordinator> Coordinator for TracedCoord<C>
where
    C::UpMsg: Clone,
{
    type UpMsg = C::UpMsg;
    type Broadcast = C::Broadcast;

    fn receive(&mut self, from: SiteId, msg: C::UpMsg, out: &mut Vec<C::Broadcast>) {
        if self.captured.len() < self.capture_cap {
            self.captured.push(msg.clone());
        }
        let before = out.len();
        let t0 = Instant::now();
        self.inner.receive(from, msg, out);
        let t1 = Instant::now();
        self.counters.receive_ns += self.rec.record("coordinator.receive", t0, t1);
        self.counters.received += 1;
        self.counters.broadcasts += (out.len() - before) as u64;
    }
}
