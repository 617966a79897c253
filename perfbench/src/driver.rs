//! The workload contract and the three drivers every workload runs
//! through: the sequential `Runner`, and the engine on
//! `Executor::Inline` and `Executor::Pool { workers: 1 }`.
//!
//! A driver gets the whole pre-partitioned stream one segment at a
//! time, returns the drained root complex, and is timed around the
//! library calls only: input clones, partitioning, fault charging and
//! the bound checks between segments all sit outside the clock.

use cma_stream::partition::RoundRobin;
use cma_stream::runner::engine::{resume_partitioned_topology_parts_on, EngineStats, Executor};
use cma_stream::runner::threaded::ThreadedConfig;
use cma_stream::{
    Aggregator, BroadcastPlane, ChannelTransport, CommStats, Coordinator, FaultPlan, FaultStats,
    MessageCost, Runner, SimNet, Site, Topology, Transport, WireCodec, WireSized,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outcome of the bound checks made at one or more checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Largest observed error over its certified bound.
    pub worst: f64,
}

impl Check {
    pub fn merge(&mut self, o: &Check) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.worst = self.worst.max(o.worst);
    }

    /// Records one check of `err` against `bound`.
    pub fn bound(&mut self, err: f64, bound: f64) {
        self.attempted += 1;
        let ratio = if bound > 0.0 {
            err / bound
        } else if err > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        self.worst = self.worst.max(ratio);
        // A tiny slack absorbs floating-point summation order only; a
        // NaN error fails.
        let within = err <= bound * (1.0 + 1e-9) + 1e-9;
        if !within {
            self.failed += 1;
        }
    }

    /// Records one pass/fail check with no error ratio.
    pub fn holds(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One benchmark workload: a deployment, its inputs and its checks.
pub trait Workload {
    type In: Clone + Send;
    type M: MessageCost + Clone + Send + WireCodec;
    type B: Clone + WireSized + Send;
    type S: Site<Input = Self::In, UpMsg = Self::M, Broadcast = Self::B> + Send;
    type C: Coordinator<UpMsg = Self::M, Broadcast = Self::B> + WireCodec;
    type A: Aggregator<UpMsg = Self::M, Broadcast = Self::B> + Send + WireCodec;

    fn sites(&self) -> usize;
    fn topology(&self) -> Topology;
    fn plane(&self) -> BroadcastPlane {
        BroadcastPlane::TreeCascade
    }
    /// The fault plan of the engine's message plane (`None`: the
    /// perfect `ChannelTransport`).
    fn fault_plan(&self) -> Option<FaultPlan> {
        None
    }
    /// The stream in global order, cut into ingest segments; the
    /// checks run after each segment.
    fn segments(&self) -> &[Vec<Self::In>];
    /// Deploys sites and coordinator, plans the topology and builds the
    /// aggregators (in plan order) — the set-up being timed.
    fn deploy(&self) -> Roles<Self::S, Self::C, Self::A>;
    /// Charges network damage to the coordinator's certified bound.
    fn charge(&self, _coord: &mut Self::C, _undercount: f64, _overcount: f64) {}
    /// Checks every answer at the checkpoint after segment `seg`.
    fn check(&self, seg: usize, coord: &Self::C) -> Check;
    /// Times the workload's query at the checkpoint after segment `seg`,
    /// pushing each call's latency in µs.
    fn time_queries(&self, seg: usize, coord: &Self::C, lat: &mut Vec<f64>);
    /// Every answer of the final query set, as bit patterns.
    fn answers(&self, coord: &Self::C) -> Vec<u64>;

    fn arrivals(&self) -> usize {
        self.segments().iter().map(Vec::len).sum()
    }
}

/// A deployment's roles: leaves, root and interior nodes.
pub struct Roles<S, C, A> {
    pub sites: Vec<S>,
    pub coord: C,
    pub aggs: Vec<A>,
}

/// How a driver reaches the workload's own coordinator inside a
/// possibly wrapped one.
pub struct View<C, T> {
    pub get: fn(&C) -> &T,
    pub get_mut: fn(&mut C) -> &mut T,
}

impl<T> View<T, T> {
    pub fn plain() -> Self {
        View {
            get: |c| c,
            get_mut: |c| c,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Seq,
    Inline,
    Pool,
}

impl Driver {
    pub const ALL: [Driver; 3] = [Driver::Seq, Driver::Inline, Driver::Pool];

    pub fn name(self) -> &'static str {
        match self {
            Driver::Seq => "seq",
            Driver::Inline => "inline",
            Driver::Pool => "pool",
        }
    }
}

/// The engine configuration every run uses: default batch 64,
/// capacity 4, with the workload's broadcast plane.
fn engine_config<W: Workload>(w: &W) -> ThreadedConfig {
    ThreadedConfig {
        plane: w.plane(),
        ..ThreadedConfig::default()
    }
}

/// The sequential runner's epoch size.
const SEQ_BATCH: usize = 64;

/// A finished driver run.
pub struct RunOut<S, C, A> {
    pub roles: Roles<S, C, A>,
    pub stats: CommStats,
    pub engine: EngineStats,
    pub faults: FaultStats,
    /// Wall time of the driver calls alone.
    pub wall: Duration,
    /// The timed intervals that make up `wall`.
    pub timed: Vec<(Instant, Instant)>,
    pub check: Check,
}

fn total(timed: &[(Instant, Instant)]) -> Duration {
    timed.iter().map(|&(a, b)| b - a).sum()
}

/// Round-robin partition of one segment starting at global index
/// `offset` — the assignment `RoundRobin` makes in the runner.
fn partition<T: Clone>(seg: &[T], offset: usize, m: usize) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..m)
        .map(|_| Vec::with_capacity(seg.len() / m + 1))
        .collect();
    for (i, x) in seg.iter().enumerate() {
        out[(offset + i) % m].push(x.clone());
    }
    out
}

/// Runs `roles` through `driver` over every segment of `w`, checking
/// after each and, when `lat` is given, timing the workload's queries
/// there. Returns `None` if the driver panicked.
pub fn run<W, S, C, A>(
    w: &W,
    driver: Driver,
    roles: Roles<S, C, A>,
    view: &View<C, W::C>,
    lat: Option<&mut Vec<f64>>,
) -> Option<RunOut<S, C, A>>
where
    W: Workload,
    S: Site<Input = W::In, UpMsg = W::M, Broadcast = W::B> + Send,
    C: Coordinator<UpMsg = W::M, Broadcast = W::B>,
    A: Aggregator<UpMsg = W::M, Broadcast = W::B> + Send,
{
    catch_unwind(AssertUnwindSafe(|| match driver {
        Driver::Seq => run_seq(w, roles, view, lat),
        Driver::Inline => run_engine(w, Executor::Inline, roles, view, lat),
        Driver::Pool => run_engine(w, Executor::Pool { workers: 1 }, roles, view, lat),
    }))
    .ok()
}

fn run_seq<W, S, C, A>(
    w: &W,
    roles: Roles<S, C, A>,
    view: &View<C, W::C>,
    mut lat: Option<&mut Vec<f64>>,
) -> RunOut<S, C, A>
where
    W: Workload,
    S: Site<Input = W::In, UpMsg = W::M, Broadcast = W::B>,
    C: Coordinator<UpMsg = W::M, Broadcast = W::B>,
    A: Aggregator<UpMsg = W::M, Broadcast = W::B>,
{
    let m = w.sites();
    let streams: Vec<Vec<W::In>> = w.segments().to_vec();
    let mut check = Check::default();
    let mut timed = Vec::with_capacity(streams.len() + 1);
    let Roles { sites, coord, aggs } = roles;

    let t0 = Instant::now();
    let mut pre_built = aggs.into_iter();
    let mut runner = Runner::with_topology(sites, coord, w.topology(), |_| {
        pre_built.next().expect("one pre-built aggregator per node")
    });
    runner.set_broadcast_plane(w.plane());
    let mut rr = RoundRobin::new(m);
    timed.push((t0, Instant::now()));

    for (k, stream) in streams.into_iter().enumerate() {
        let t0 = Instant::now();
        runner.run_partitioned(stream, &mut rr, SEQ_BATCH);
        timed.push((t0, Instant::now()));
        let coord = (view.get)(runner.coordinator());
        check.merge(&w.check(k, coord));
        if let Some(lat) = lat.as_deref_mut() {
            w.time_queries(k, coord, lat);
        }
    }
    let stats = runner.stats().clone();
    // The runner does not hand its interior nodes back; the probes that
    // need them use the engine's run.
    let (sites, coord, _) = runner.into_parts();
    RunOut {
        roles: Roles {
            sites,
            coord,
            aggs: Vec::new(),
        },
        stats,
        engine: EngineStats::default(),
        faults: FaultStats::default(),
        wall: total(&timed),
        timed,
        check,
    }
}

fn run_engine<W, S, C, A>(
    w: &W,
    exec: Executor,
    roles: Roles<S, C, A>,
    view: &View<C, W::C>,
    mut lat: Option<&mut Vec<f64>>,
) -> RunOut<S, C, A>
where
    W: Workload,
    S: Site<Input = W::In, UpMsg = W::M, Broadcast = W::B> + Send,
    C: Coordinator<UpMsg = W::M, Broadcast = W::B>,
    A: Aggregator<UpMsg = W::M, Broadcast = W::B> + Send,
{
    let m = w.sites();
    let mut offset = 0;
    let inputs: Vec<Vec<Vec<W::In>>> = w
        .segments()
        .iter()
        .map(|seg| {
            let p = partition(seg, offset, m);
            offset += seg.len();
            p
        })
        .collect();
    let sim = w.fault_plan().map(SimNet::new);
    let net: &dyn Transport = match &sim {
        Some(s) => s,
        None => &ChannelTransport,
    };
    let tcfg = engine_config(w);
    let plan = w.topology().plan(m);

    let Roles {
        mut sites,
        mut coord,
        mut aggs,
    } = roles;
    let mut stats: Option<CommStats> = None;
    let mut engine = EngineStats::default();
    let mut check = Check::default();
    let mut timed = Vec::with_capacity(inputs.len());
    let mut charged = FaultStats::default();
    for (k, seg_inputs) in inputs.into_iter().enumerate() {
        let seg_plan = plan.clone();
        let t0 = Instant::now();
        let parts = resume_partitioned_topology_parts_on(
            sites, coord, seg_inputs, &tcfg, exec, seg_plan, aggs, net,
        );
        timed.push((t0, Instant::now()));
        sites = parts.sites;
        coord = parts.coordinator;
        aggs = parts.aggregators;
        match &mut stats {
            Some(s) => s.absorb(&parts.stats),
            None => stats = Some(parts.stats),
        }
        engine.absorb(&parts.engine);
        if let Some(sim) = &sim {
            let now = sim.stats();
            w.charge(
                (view.get_mut)(&mut coord),
                now.undercount_mass() - charged.undercount_mass(),
                now.overcount_mass() - charged.overcount_mass(),
            );
            charged = now;
        }
        check.merge(&w.check(k, (view.get)(&coord)));
        if let Some(lat) = lat.as_deref_mut() {
            w.time_queries(k, (view.get)(&coord), lat);
        }
    }
    RunOut {
        roles: Roles { sites, coord, aggs },
        stats: stats.unwrap_or_default(),
        engine,
        faults: charged,
        wall: total(&timed),
        timed,
        check,
    }
}
