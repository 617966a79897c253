//! The two kinds of run: an untraced run that reports the end-to-end
//! metrics, and a traced run that reports the per-layer ones.

use crate::driver::{run, Check, Driver, Roles, RunOut, View, Workload};
use crate::measure::{best_time, median, quantile, trimmed_mean, RepeatTimer, RssProbe};
use crate::trace::{AggCounters, Recorder, SiteCounters, Span, TracedAgg, TracedCoord, TracedSite};
use cma_stream::{CommStats, FaultLink, MessageCost, SimNet, Snapshot, WireCodec, WireReader};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub tally: Check,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Setup rounds timed before the driver rounds; one more follows each
/// driver round, so set-up samples span the whole run.
const SETUP_ROUNDS: usize = 15;
/// Smallest span of one timed round of a µs-scale operation.
const REPEAT_ROUND_S: f64 = 0.02;
/// Timed driver rounds: at least this many after the warm-up round,
/// then more while the time budget lasts.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 64;
/// Within a timed round each driver repeats until it has had this much
/// time, so a driver far cheaper than the others still gets many
/// samples (and many fresh coordinators to query).
const SLICE_S: f64 = 1.5;

/// Index of a driver's slot in per-driver arrays (`Driver::ALL` order).
fn slot(d: Driver) -> usize {
    d as usize
}

/// What must repeat exactly between two runs of one deterministic
/// driver on one seed.
#[derive(PartialEq)]
struct Fingerprint {
    stats: CommStats,
    worst: u64,
    answers: Vec<u64>,
}

fn fingerprint<W: Workload, S, A>(w: &W, out: &RunOut<S, W::C, A>) -> Fingerprint {
    Fingerprint {
        stats: out.stats.clone(),
        worst: out.check.worst.to_bits(),
        answers: w.answers(&out.roles.coord),
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced<W: Workload>(w: &W, budget: Duration) -> Report {
    let start = Instant::now();
    let mut rep = Report::default();
    let mut setup = RepeatTimer::new(REPEAT_ROUND_S, || w.deploy());
    for _ in 0..SETUP_ROUNDS {
        setup.round(|| w.deploy());
    }
    let plain = View::plain();
    let arrivals = w.arrivals() as f64;

    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut rss = [0.0f64; 3];
    let mut refs: [Option<Fingerprint>; 3] = [None, None, None];
    let mut lat = Vec::new();
    for round in 0..=MAX_ROUNDS {
        // Round 0 is the warm-up: checked, never timed.
        if round > MIN_ROUNDS && start.elapsed() >= budget {
            break;
        }
        setup.round(|| w.deploy());
        for i in 0..3 {
            let d = Driver::ALL[(i + round) % 3];
            let slice = Instant::now();
            loop {
                let roles = w.deploy();
                // Memory is measured on the warm-up round only: the probe
                // hands freed pages back to the kernel, and the timed
                // rounds should not pay for faulting them in again.
                let probe = (round == 0).then(RssProbe::start);
                // Queries are timed on the deterministic drivers' results:
                // their coordinator state repeats for the seed, the pool's
                // does not.
                let want_lat = round > 0 && d != Driver::Pool;
                let out = run(w, d, roles, &plain, want_lat.then_some(&mut lat));
                if let Some(p) = probe {
                    rss[slot(d)] = p.rise_mb();
                }
                match out {
                    None => rep.tally.holds(false),
                    Some(out) => {
                        rep.tally.merge(&out.check);
                        if round > 0 {
                            walls[slot(d)].push(out.wall.as_secs_f64());
                        }
                        if d != Driver::Pool {
                            // Inline and the runner are deterministic: their
                            // counts, error ratio and answers repeat exactly.
                            let fp = fingerprint(w, &out);
                            match &refs[slot(d)] {
                                Some(first) => rep.tally.holds(*first == fp),
                                None => refs[slot(d)] = Some(fp),
                            }
                        }
                    }
                }
                if round == 0 || slice.elapsed().as_secs_f64() >= SLICE_S {
                    break;
                }
            }
        }
    }

    for d in Driver::ALL {
        let r: Vec<String> = walls[slot(d)]
            .iter()
            .map(|x| format!("{:.0}", arrivals / x))
            .collect();
        eprintln!(
            "perfbench: {} arrivals/s per timed run: {}",
            d.name(),
            r.join(" ")
        );
    }
    let inline = refs[slot(Driver::Inline)].as_ref();
    // Rates from the fastest timed run (see `best_time`).
    let rate = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            arrivals / best_time(v)
        }
    };
    rep.put("setup_s", "s", best_time(&setup.samples));
    rep.put("seq_arrivals_per_s", "1/s", rate(&walls[0]));
    rep.put("inline_arrivals_per_s", "1/s", rate(&walls[1]));
    rep.put("pool_arrivals_per_s", "1/s", rate(&walls[2]));
    rep.put(
        "query_us",
        "us",
        if lat.is_empty() {
            0.0
        } else {
            trimmed_mean(&lat)
        },
    );
    let stats = inline.map(|f| f.stats.clone()).unwrap_or_default();
    rep.put("msgs_total", "count", stats.total() as f64);
    rep.put(
        "bytes_total",
        "bytes",
        (stats.bytes_up + stats.bytes_down) as f64,
    );
    rep.put(
        "err_over_bound",
        "ratio",
        inline.map_or(f64::NAN, |f| f64::from_bits(f.worst)),
    );
    let t = &rep.tally;
    rep.put(
        "pass_share",
        "ratio",
        (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
    );
    rep.put("peak_rss_mb", "MB", rss.iter().fold(0.0, |a, &b| a.max(b)));
    rep
}

type Traced<W> = Roles<
    TracedSite<<W as Workload>::S>,
    TracedCoord<<W as Workload>::C>,
    TracedAgg<<W as Workload>::A>,
>;

/// Spans kept per wrapper: sites are many and small, the root is one.
const SITE_SPANS: usize = 2;
const AGG_SPANS: usize = 16;
const COORD_SPANS: usize = 4096;
/// Messages the traced root keeps for the wire and transport probes.
const CAPTURED: usize = 64;

fn wrap<W: Workload>(roles: Roles<W::S, W::C, W::A>, epoch: Instant) -> Traced<W> {
    Roles {
        sites: roles
            .sites
            .into_iter()
            .map(|s| TracedSite::new(s, Recorder::new(epoch, SITE_SPANS)))
            .collect(),
        coord: TracedCoord::new(roles.coord, Recorder::new(epoch, COORD_SPANS), CAPTURED),
        aggs: roles
            .aggs
            .into_iter()
            .map(|a| TracedAgg::new(a, Recorder::new(epoch, AGG_SPANS)))
            .collect(),
    }
}

fn traced_view<W: Workload>() -> View<TracedCoord<W::C>, W::C> {
    View {
        get: |c| &c.inner,
        get_mut: |c| &mut c.inner,
    }
}

/// Layer totals of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub site: SiteCounters,
    pub agg: AggCounters,
    pub receive_ns: u64,
    pub received: u64,
    pub broadcasts: u64,
}

impl Layers {
    fn of<W: Workload>(r: &Traced<W>) -> Self {
        let mut l = Layers::default();
        for s in &r.sites {
            l.site.add(&s.counters);
        }
        for a in &r.aggs {
            l.agg.add(&a.counters);
        }
        l.receive_ns = r.coord.counters.receive_ns;
        l.received = r.coord.counters.received;
        l.broadcasts = r.coord.counters.broadcasts;
        l
    }

    /// Time spent inside wrapped calls, all layers.
    pub fn busy_s(&self) -> f64 {
        (self.site.busy_ns() + self.agg.busy_ns() + self.receive_ns) as f64 * 1e-9
    }
}

/// A traced run's spans, the driver's timed intervals first as roots.
pub struct SpanLog {
    /// `(name, start_ns, end_ns, parent)`; roots have no parent.
    pub rows: Vec<(&'static str, u64, u64, Option<usize>)>,
}

impl SpanLog {
    fn of<W: Workload>(
        r: &Traced<W>,
        timed: &[(Instant, Instant)],
        epoch: Instant,
        root: &'static str,
    ) -> Self {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let mut rows: Vec<_> = timed
            .iter()
            .map(|&(a, b)| (root, ns(a), ns(b), None))
            .collect();
        let roots = rows.clone();
        let spans = r
            .sites
            .iter()
            .flat_map(|s| s.rec.spans())
            .chain(r.aggs.iter().flat_map(|a| a.rec.spans()))
            .chain(r.coord.rec.spans());
        for &Span {
            name,
            start_ns,
            end_ns,
            ..
        } in spans
        {
            let parent = roots
                .iter()
                .position(|&(_, a, b, _)| a <= start_ns && end_ns <= b);
            rows.push((name, start_ns, end_ns, parent));
        }
        SpanLog { rows }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, (name, a, b, p)) in self.rows.iter().enumerate() {
            let p = p.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(s, "{i}\t{p}\t{name}\t{a}\t{b}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Everything the traced run measured, for the report and the tests.
#[cfg_attr(not(test), allow(dead_code))]
pub struct TraceOutcome {
    pub report: Report,
    pub inline_layers: Layers,
    pub inline_wall_s: f64,
    pub inline_spans: SpanLog,
}

/// One untraced run of `d`, with its peak-RSS rise when `rss` asks for
/// it (the probe returns freed pages to the kernel first, so a run that
/// is also timed would pay for faulting them back in).
fn untraced_run<W: Workload>(w: &W, d: Driver, rss: bool) -> Option<(PlainOut<W>, f64)> {
    let roles = w.deploy();
    let probe = rss.then(RssProbe::start);
    let out = run(w, d, roles, &View::plain(), None);
    let rise = probe.map_or(0.0, |p| p.rise_mb());
    out.map(|o| (o, rise))
}

type PlainOut<W> = RunOut<<W as Workload>::S, <W as Workload>::C, <W as Workload>::A>;

type TracedOut<W> = RunOut<
    TracedSite<<W as Workload>::S>,
    TracedCoord<<W as Workload>::C>,
    TracedAgg<<W as Workload>::A>,
>;

/// One traced run of `d`, with the epoch its spans count from.
pub fn traced_run<W: Workload>(w: &W, d: Driver) -> Option<(TracedOut<W>, Instant)> {
    let epoch = Instant::now();
    let roles = wrap::<W>(w.deploy(), epoch);
    run(w, d, roles, &traced_view::<W>(), None).map(|o| (o, epoch))
}

/// Runs `f` `n` times, tallying every run's checks (a panic is a failed
/// check); returns the last run with the median driver wall time.
fn repeated<S, C, A, X>(
    n: usize,
    tally: &mut Check,
    mut f: impl FnMut() -> Option<(RunOut<S, C, A>, X)>,
) -> Option<(RunOut<S, C, A>, X, f64)> {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        match f() {
            Some((o, x)) => {
                tally.merge(&o.check);
                walls.push(o.wall.as_secs_f64());
                last = Some((o, x));
            }
            None => tally.holds(false),
        }
    }
    last.map(|(o, x)| (o, x, median(&walls)))
}

/// Per-call time in ns of `f` over `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// Inline runs per side of the tracing-overhead ratio.
const OVERHEAD_REPS: usize = 3;
/// Probe repetitions for the µs-scale layer probes.
const PROBE_REPS: usize = 64;
/// Samples the traced query timing collects (p99 needs ten beyond it).
const QUERY_SAMPLES: usize = 1_000;

/// The traced run: every per-layer metric. `span_path` receives the
/// inline run's span log.
pub fn traced<W: Workload>(w: &W, span_path: Option<&Path>) -> TraceOutcome {
    let mut rep = Report::default();
    let m = w.sites();

    let mut plan = RepeatTimer::new(REPEAT_ROUND_S, || w.topology().plan(m));
    for _ in 0..SETUP_ROUNDS {
        plan.round(|| w.topology().plan(m));
    }
    let plan_us = median(&plan.samples) * 1e6;

    // Each driver's first run is its warm-up and its memory probe; then
    // the untraced references, then the traced runs. The Inline runs
    // repeat so the tracing overhead compares medians.
    let tally = &mut rep.tally;
    let mut rss = [0.0; 3];
    for d in Driver::ALL {
        if let Some((_, rise, _)) = repeated(1, tally, || untraced_run(w, d, true)) {
            rss[slot(d)] = rise;
        }
    }
    let inline = repeated(OVERHEAD_REPS, tally, || {
        untraced_run(w, Driver::Inline, false)
    });
    let pool = repeated(1, tally, || untraced_run(w, Driver::Pool, false));
    let t_inline = repeated(OVERHEAD_REPS, tally, || traced_run(w, Driver::Inline));
    let t_pool = repeated(1, tally, || traced_run(w, Driver::Pool));
    let t_seq = repeated(1, tally, || traced_run(w, Driver::Seq));
    let (
        Some((inline, _, inline_wall)),
        Some((pool, _, _)),
        Some((t_inline, epoch, traced_wall)),
        Some((t_pool, _, _)),
        Some((t_seq, _, _)),
    ) = (inline, pool, t_inline, t_pool, t_seq)
    else {
        return TraceOutcome {
            report: rep,
            inline_layers: Layers::default(),
            inline_wall_s: 0.0,
            inline_spans: SpanLog { rows: Vec::new() },
        };
    };

    // Tracing must not change the run: same counts, same answers.
    rep.tally.holds(t_inline.stats == inline.stats);
    rep.tally
        .holds(w.answers(&t_inline.roles.coord.inner) == w.answers(&inline.roles.coord));

    let layers = Layers::of::<W>(&t_inline.roles);
    let wall = t_inline.wall.as_secs_f64();
    let engine_self = wall - layers.busy_s();
    rep.tally.holds(engine_self >= 0.0);
    let spans = SpanLog::of::<W>(&t_inline.roles, &t_inline.timed, epoch, "engine.inline");
    if let Some(p) = span_path {
        if let Err(e) = spans.write(p) {
            eprintln!("perfbench: cannot write spans to {}: {e}", p.display());
        }
    }

    // engine
    let es = &pool.engine;
    rep.put("engine.tasks", "count", es.total_tasks() as f64);
    rep.put("engine.steals", "count", es.total_steals() as f64);
    rep.put("engine.parks", "count", es.total_parks() as f64);
    rep.put("engine.wakeups", "count", es.total_wakeups() as f64);
    rep.put("engine.pool_msgs", "count", pool.stats.total() as f64);
    rep.put(
        "engine.pool_over_inline",
        "ratio",
        pool.wall.as_secs_f64() / inline_wall,
    );
    let pool_busy = Layers::of::<W>(&t_pool.roles).busy_s();
    rep.put(
        "engine.pool_busy_share",
        "ratio",
        pool_busy / (t_pool.wall.as_secs_f64() * 2.0),
    );
    rep.put("engine.self_s", "s", engine_self);
    rep.put("engine.inline_rss_mb", "MB", rss[slot(Driver::Inline)]);
    rep.put("engine.pool_rss_mb", "MB", rss[slot(Driver::Pool)]);

    // runner
    let seq_busy = Layers::of::<W>(&t_seq.roles).busy_s();
    rep.put("runner.self_s", "s", t_seq.wall.as_secs_f64() - seq_busy);
    rep.put("runner.rss_mb", "MB", rss[slot(Driver::Seq)]);

    // site
    let s = &layers.site;
    rep.put("site.observe_s", "s", s.observe_ns as f64 * 1e-9);
    rep.put("site.observe_calls", "count", s.observe_calls as f64);
    rep.put(
        "site.arrivals_per_call",
        "count",
        s.arrivals as f64 / s.observe_calls.max(1) as f64,
    );
    rep.put(
        "site.msgs_per_karrival",
        "count",
        s.emitted as f64 * 1e3 / s.arrivals.max(1) as f64,
    );
    rep.put("site.on_broadcast_s", "s", s.on_broadcast_ns as f64 * 1e-9);
    rep.put(
        "site.on_broadcast_calls",
        "count",
        s.on_broadcast_calls as f64,
    );

    // aggregator
    let a = &layers.agg;
    rep.put("aggregator.absorb_s", "s", a.absorb_ns as f64 * 1e-9);
    rep.put("aggregator.flush_s", "s", a.flush_ns as f64 * 1e-9);
    rep.put("aggregator.absorbed", "count", a.absorbed as f64);
    rep.put("aggregator.emitted", "count", a.emitted as f64);
    rep.put(
        "aggregator.emit_ratio",
        "ratio",
        a.emitted as f64 / a.absorbed.max(1) as f64,
    );
    rep.put(
        "aggregator.on_broadcast_s",
        "s",
        a.on_broadcast_ns as f64 * 1e-9,
    );

    // coordinator
    rep.put(
        "coordinator.receive_s",
        "s",
        layers.receive_ns as f64 * 1e-9,
    );
    rep.put("coordinator.received", "count", layers.received as f64);
    rep.put("coordinator.broadcasts", "count", layers.broadcasts as f64);
    let last = w.segments().len() - 1;
    let mut lat = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(2);
    while lat.len() < QUERY_SAMPLES && Instant::now() < deadline {
        w.time_queries(last, &t_inline.roles.coord.inner, &mut lat);
    }
    rep.put("coordinator.query_p99_us", "us", quantile(&lat, 0.99));
    rep.put("coordinator.queries", "count", lat.len() as f64);

    // broadcast, comm
    let st = &inline.stats;
    rep.put("broadcast.events", "count", st.broadcast_events as f64);
    rep.put(
        "broadcast.deliveries",
        "count",
        st.broadcast_deliveries as f64,
    );
    rep.put("broadcast.reach", "count", st.broadcast_reach as f64);
    rep.put("broadcast.peak_out", "count", st.broadcast_peak_out as f64);
    rep.put(
        "broadcast.lag_rounds",
        "count",
        st.broadcast_lag_rounds as f64,
    );
    rep.put("broadcast.stale", "count", st.broadcast_stale as f64);
    rep.put("comm.up_msgs", "count", st.up_msgs as f64);
    rep.put(
        "comm.root_in_msgs",
        "count",
        st.node_in_msgs.last().copied().unwrap_or(0) as f64,
    );
    rep.put("comm.max_fan_in", "count", st.max_fan_in as f64);

    // transport: the run's fault tallies, and `FaultLink::receive`
    // timed under the workload's plan on the captured messages.
    let f = &inline.faults;
    rep.put("transport.delivered", "count", f.delivered as f64);
    rep.put("transport.dropped", "count", f.dropped as f64);
    rep.put("transport.duplicated", "count", f.duplicated as f64);
    rep.put("transport.delayed", "count", f.delayed as f64);
    rep.put("transport.reordered", "count", f.reordered as f64);
    let captured = &t_inline.roles.coord.captured;
    let receive_ns = match (w.fault_plan(), captured.is_empty()) {
        (Some(plan), false) => {
            let net = SimNet::new(plan);
            let topo = w.topology().plan(m);
            let pipe =
                cma_stream::Transport::link(&net, topo.leaf_node_id(0), topo.root_node_id(), true);
            let mut link = FaultLink::<W::M>::new(pipe);
            let offers: Vec<W::M> = (0..PROBE_REPS)
                .flat_map(|_| captured.iter().cloned())
                .collect();
            let n = offers.len();
            let mut delivered = Vec::with_capacity(2 * n);
            let t0 = Instant::now();
            for msg in offers {
                let mass = msg.mass();
                link.receive(msg, mass, &mut delivered);
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
            link.close(&mut delivered);
            ns
        }
        _ => 0.0,
    };
    rep.put("transport.receive_ns", "ns", receive_ns);

    // wire: measured bytes, and the codec round trip on captured
    // messages — each encoding must be exactly `wire_bytes()` long and
    // decode to a message that re-encodes identically.
    rep.put("wire.bytes_up", "bytes", st.bytes_up as f64);
    rep.put("wire.bytes_down", "bytes", st.bytes_down as f64);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for msg in captured {
        let bytes = msg.to_wire();
        rep.tally.holds(bytes.len() as u64 == msg.wire_bytes());
        let back = W::M::decode(&mut WireReader::new(&bytes));
        rep.tally.holds(back.is_some_and(|b| b.to_wire() == bytes));
        let mut buf = Vec::with_capacity(bytes.len());
        enc.push(ns_per_call(PROBE_REPS, || {
            buf.clear();
            std::hint::black_box(msg).encode(&mut buf);
        }));
        dec.push(ns_per_call(PROBE_REPS, || {
            std::hint::black_box(W::M::decode(&mut WireReader::new(&bytes)));
        }));
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    rep.put("wire.encode_ns", "ns", med(&enc));
    rep.put("wire.decode_ns", "ns", med(&dec));

    rep.put("topology.plan_us", "us", plan_us);

    // snapshot: capture and restore the final root complex.
    let (coord, aggs) = (&inline.roles.coord, &inline.roles.aggs);
    let snap = Snapshot::capture(coord, aggs);
    rep.put("snapshot.bytes", "bytes", snap.len() as f64);
    let capture_us = ns_per_call(PROBE_REPS / 8, || {
        std::hint::black_box(Snapshot::capture(coord, aggs));
    }) * 1e-3;
    let restored = snap.restore::<W::C, W::A>();
    rep.tally.holds(
        restored
            .as_ref()
            .is_some_and(|(c, a)| Snapshot::capture(c, a) == snap),
    );
    let restore_us = ns_per_call(PROBE_REPS / 8, || {
        std::hint::black_box(snap.restore::<W::C, W::A>());
    }) * 1e-3;
    rep.put("snapshot.capture_us", "us", capture_us);
    rep.put("snapshot.restore_us", "us", restore_us);

    rep.put("trace.overhead", "ratio", traced_wall / inline_wall);

    TraceOutcome {
        report: rep,
        inline_layers: layers,
        inline_wall_s: wall,
        inline_spans: spans,
    }
}
