//! The three workloads. Each makes its inputs and its ground truth from
//! the seed before anything is timed; the program only ever sees the
//! generated stream.
//!
//! * `hh-wide` — HH-P1 over 65 536 sites: the scheduler and the
//!   broadcast cascade carry almost all the work, the sites very little.
//! * `matrix-d128` — MT-P2 at d = 128: the site kernels dominate and the
//!   scheduler should not matter.
//! * `window-lossy` — windowed Misra–Gries over a faulty simulated
//!   network with gossip broadcasts and reads between every segment.

use crate::driver::{Check, Roles, Workload};
use cma_core::hh::{self, HhConfig, HhEstimator};
use cma_core::matrix::{self, MatrixConfig, MatrixEstimator};
use cma_core::window::{mg, SwMgConfig};
use cma_data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma_linalg::eigen::jacobi_eigen_sym;
use cma_linalg::random::unit_vector;
use cma_stream::{BroadcastPlane, FaultPlan, LinkFaults, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Seeds derived from the workload seed for each independent stream.
fn subseed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn time_us(lat: &mut Vec<f64>, f: impl FnOnce() -> f64) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    lat.push(t0.elapsed().as_secs_f64() * 1e6);
}

// ---------------------------------------------------------------- hh-wide

/// HH-P1, `Tree{8}`, `TreeCascade`, Zipf(2) over 10⁴ items, β = 1000.
pub struct HhWide {
    cfg: HhConfig,
    topo: Topology,
    segments: Vec<Vec<(u64, f64)>>,
    /// Exact weight of each item `1..=universe` (index 0 unused).
    truth: Vec<f64>,
    total: f64,
    universe: u64,
}

/// Heavy-hitter threshold of the hh-wide query.
const HH_PHI: f64 = 0.05;
/// Queries timed at the hh-wide checkpoint per run.
const HH_QUERIES: usize = 40;

impl HhWide {
    pub fn new(seed: u64, sites: usize, arrivals: usize) -> Self {
        let universe = 10_000;
        let stream =
            WeightedZipfStream::new(universe, 2.0, 1_000.0, subseed(seed, 1)).take_vec(arrivals);
        let mut truth = vec![0.0; universe + 1];
        for &(e, w) in &stream {
            truth[e as usize] += w;
        }
        let total = stream.iter().map(|&(_, w)| w).sum();
        HhWide {
            cfg: HhConfig::new(sites, 0.05).with_seed(subseed(seed, 2)),
            topo: Topology::Tree { fanout: 8 },
            segments: vec![stream],
            truth,
            total,
            universe: universe as u64,
        }
    }

    fn query(&self, c: &hh::p1::P1Coordinator) -> (Vec<(u64, f64)>, Vec<f64>) {
        let hh = c.heavy_hitters(HH_PHI, self.cfg.epsilon);
        let est = (1..=self.universe).map(|e| c.estimate(e)).collect();
        (hh, est)
    }
}

impl Workload for HhWide {
    type In = (u64, f64);
    type M = hh::p1::P1Msg;
    type B = f64;
    type S = hh::p1::P1Site;
    type C = hh::p1::P1Coordinator;
    type A = hh::p1::P1Aggregator;

    fn sites(&self) -> usize {
        self.cfg.sites
    }
    fn topology(&self) -> Topology {
        self.topo
    }
    fn segments(&self) -> &[Vec<(u64, f64)>] {
        &self.segments
    }

    fn deploy(&self) -> Roles<Self::S, Self::C, Self::A> {
        let (sites, coord, _) = hh::p1::deploy_topology(&self.cfg, self.topo).into_parts();
        let aggs = self
            .topo
            .plan(self.cfg.sites)
            .agg_nodes()
            .map(hh::p1::make_aggregator(&self.cfg, self.topo))
            .collect();
        Roles { sites, coord, aggs }
    }

    /// `|f_e − Ŵ_e| ≤ εW` for every item of the universe, and Lemma 1's
    /// reporting rule: every true φ-heavy item is reported, nothing
    /// below `(φ − ε)W` is.
    fn check(&self, _seg: usize, c: &Self::C) -> Check {
        let mut check = Check::default();
        let eps_w = self.cfg.epsilon * self.total;
        let (hh, est) = self.query(c);
        for (e, &f_hat) in est.iter().enumerate() {
            check.bound((self.truth[e + 1] - f_hat).abs(), eps_w);
        }
        let reported: Vec<u64> = hh.iter().map(|&(e, _)| e).collect();
        for e in 1..=self.universe {
            let f = self.truth[e as usize];
            if f >= HH_PHI * self.total {
                check.holds(reported.contains(&e));
            }
        }
        for &e in &reported {
            check.holds(self.truth[e as usize] >= (HH_PHI - self.cfg.epsilon) * self.total);
        }
        check
    }

    fn time_queries(&self, _seg: usize, c: &Self::C, lat: &mut Vec<f64>) {
        for _ in 0..HH_QUERIES {
            // Estimates fold into a sum: collecting them would time the
            // allocator's heap trimming along with the lookups.
            time_us(lat, || {
                let hh = c.heavy_hitters(HH_PHI, self.cfg.epsilon);
                let est: f64 = (1..=self.universe).map(|e| c.estimate(e)).sum();
                hh.len() as f64 + est
            });
        }
    }

    fn answers(&self, c: &Self::C) -> Vec<u64> {
        let (hh, est) = self.query(c);
        hh.iter()
            .flat_map(|&(e, w)| [e, w.to_bits()])
            .chain(est.iter().map(|x| x.to_bits()))
            .chain([c.total_weight().to_bits()])
            .collect()
    }
}

// ------------------------------------------------------------ matrix-d128

/// MT-P2, `Tree{4}`, ε = 0.1, d = 128, 16-term 0.7ᵏ spectrum, β = 100.
pub struct MatrixD128 {
    cfg: MatrixConfig,
    topo: Topology,
    segments: Vec<Vec<Vec<f64>>>,
    /// Unit probes: seeded random directions, then the top eigenvectors
    /// of the true Gram.
    probes: Vec<Vec<f64>>,
    /// `‖Ax‖²` for each probe.
    truth: Vec<f64>,
    frob_sq: f64,
}

/// Random probes and top-eigenvector probes of the matrix query.
const MX_RANDOM_PROBES: usize = 24;
const MX_EIGEN_PROBES: usize = 8;
/// Times each probe is queried at the matrix checkpoint per run.
const MX_QUERY_REPS: usize = 2;

impl MatrixD128 {
    pub fn new(seed: u64, sites: usize, rows: usize) -> Self {
        let d = 128;
        let spectrum: Vec<f64> = (0..16).map(|k| 0.7f64.powi(k)).collect();
        let stream: Vec<Vec<f64>> =
            SyntheticMatrixStream::new(d, &spectrum, 100.0, subseed(seed, 1))
                .take(rows)
                .collect();
        let mut gram = StreamingGram::new(d);
        for r in &stream {
            gram.update(r);
        }
        let mut rng = StdRng::seed_from_u64(subseed(seed, 3));
        let mut probes: Vec<Vec<f64>> = (0..MX_RANDOM_PROBES)
            .map(|_| unit_vector(&mut rng, d))
            .collect();
        let eig = jacobi_eigen_sym(gram.gram()).expect("Jacobi converges on a finite Gram");
        probes.extend((0..MX_EIGEN_PROBES).map(|i| eig.vectors.row(i).to_vec()));
        let g = gram.gram();
        let truth = probes
            .iter()
            .map(|x| {
                let gx = g.apply(x);
                x.iter().zip(&gx).map(|(a, b)| a * b).sum()
            })
            .collect();
        MatrixD128 {
            cfg: MatrixConfig::new(sites, 0.1, d).with_seed(subseed(seed, 2)),
            topo: Topology::Tree { fanout: 4 },
            segments: vec![stream],
            probes,
            truth,
            frob_sq: gram.frob_sq(),
        }
    }
}

impl Workload for MatrixD128 {
    type In = Vec<f64>;
    type M = matrix::p2::MP2Msg;
    type B = f64;
    type S = matrix::p2::MP2Site;
    type C = matrix::p2::MP2Coordinator;
    type A = matrix::p2::MP2Aggregator;

    fn sites(&self) -> usize {
        self.cfg.sites
    }
    fn topology(&self) -> Topology {
        self.topo
    }
    fn segments(&self) -> &[Vec<Vec<f64>>] {
        &self.segments
    }

    fn deploy(&self) -> Roles<Self::S, Self::C, Self::A> {
        let (sites, coord, _) = matrix::p2::deploy_topology(&self.cfg, self.topo).into_parts();
        let aggs = self
            .topo
            .plan(self.cfg.sites)
            .agg_nodes()
            .map(matrix::p2::make_aggregator(&self.cfg, self.topo))
            .collect();
        Roles { sites, coord, aggs }
    }

    /// The deterministic MT-P2 guarantee per probe:
    /// `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F`.
    fn check(&self, _seg: usize, c: &Self::C) -> Check {
        let mut check = Check::default();
        let bound = self.cfg.epsilon * self.frob_sq;
        for (x, &ax) in self.probes.iter().zip(&self.truth) {
            let gap = ax - c.direction_norm_sq(x);
            check.bound(gap.abs(), bound);
            check.holds(gap >= -1e-9 * self.frob_sq);
        }
        check
    }

    fn time_queries(&self, _seg: usize, c: &Self::C, lat: &mut Vec<f64>) {
        for _ in 0..MX_QUERY_REPS {
            for x in &self.probes {
                time_us(lat, || c.direction_norm_sq(x));
            }
        }
    }

    fn answers(&self, c: &Self::C) -> Vec<u64> {
        self.probes
            .iter()
            .map(|x| c.direction_norm_sq(x).to_bits())
            .chain([c.frob_estimate().to_bits()])
            .collect()
    }
}

// ----------------------------------------------------------- window-lossy

/// Windowed Misra–Gries (SwMg), `Tree{4}`, ε = 0.05, 64 counters, on a
/// `SimNet` with up-link faults and a gossip broadcast plane; the heavy
/// set rotates every half window and the stream is ingested in fixed
/// segments with reads at every checkpoint.
pub struct WindowLossy {
    cfg: SwMgConfig,
    topo: Topology,
    seed: u64,
    segments: Vec<Vec<(u64, (u64, f64))>>,
    /// Per checkpoint: the true window weight of every item present.
    truth: Vec<HashMap<u64, f64>>,
    /// Per checkpoint: the heaviest true items, the query set.
    query_items: Vec<Vec<u64>>,
}

/// Items queried per checkpoint.
const WIN_QUERY_ITEMS: usize = 16;

/// The up-link fault mix of window-lossy.
fn window_faults() -> LinkFaults {
    LinkFaults {
        drop: 0.01,
        duplicate: 0.01,
        delay: 0.02,
        delay_hops: 4,
        reorder: 0.02,
    }
}

impl WindowLossy {
    pub fn new(seed: u64, sites: usize, window: u64, segment: usize, segments: usize) -> Self {
        let universe = 10_000u64;
        let half = (window / 2).max(1);
        let n = segment * segments;
        let raw =
            WeightedZipfStream::new(universe as usize, 2.0, 1_000.0, subseed(seed, 1)).take_vec(n);
        // Every half window the heavy set moves to fresh item ids.
        let stream: Vec<(u64, (u64, f64))> = raw
            .into_iter()
            .enumerate()
            .map(|(t, (e, w))| {
                let phase = t as u64 / half;
                let item = (e - 1 + phase * 7_919) % universe + 1;
                (t as u64, (item, w))
            })
            .collect();
        let mut truth = Vec::with_capacity(segments);
        let mut query_items = Vec::with_capacity(segments);
        for k in 0..segments {
            let end = (k + 1) * segment;
            let start = end.saturating_sub(window as usize);
            let mut exact: HashMap<u64, f64> = HashMap::new();
            for &(_, (e, w)) in &stream[start..end] {
                *exact.entry(e).or_insert(0.0) += w;
            }
            let mut top: Vec<(u64, f64)> = exact.iter().map(|(&e, &w)| (e, w)).collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            query_items.push(top.iter().take(WIN_QUERY_ITEMS).map(|&(e, _)| e).collect());
            truth.push(exact);
        }
        WindowLossy {
            cfg: SwMgConfig::new(sites, 0.05, window, 64),
            topo: Topology::Tree { fanout: 4 },
            seed,
            segments: stream.chunks(segment).map(<[_]>::to_vec).collect(),
            truth,
            query_items,
        }
    }

    fn clock(&self, seg: usize) -> u64 {
        self.segments[..=seg].iter().map(Vec::len).sum::<usize>() as u64
    }
}

impl Workload for WindowLossy {
    type In = (u64, (u64, f64));
    type M = cma_core::window::SwMsg<cma_sketch::MgSummary>;
    type B = f64;
    type S = mg::SwMgSite;
    type C = mg::SwMgCoordinator;
    type A = mg::SwMgAggregator;

    fn sites(&self) -> usize {
        self.cfg.params.sites
    }
    fn topology(&self) -> Topology {
        self.topo
    }
    fn plane(&self) -> BroadcastPlane {
        BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 24,
            seed: subseed(self.seed, 4),
        }
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        Some(FaultPlan::up_only(subseed(self.seed, 5), window_faults()))
    }
    fn segments(&self) -> &[Vec<(u64, (u64, f64))>] {
        &self.segments
    }

    fn deploy(&self) -> Roles<Self::S, Self::C, Self::A> {
        let (sites, coord, _) = mg::deploy_topology(&self.cfg, self.topo).into_parts();
        let aggs = self
            .topo
            .plan(self.sites())
            .agg_nodes()
            .map(mg::make_aggregator(&self.cfg, self.topo))
            .collect();
        Roles { sites, coord, aggs }
    }

    fn charge(&self, c: &mut Self::C, undercount: f64, overcount: f64) {
        c.charge_faults(undercount, overcount);
    }

    /// The two-part window bound, side by side: overcount within the
    /// straddling (and duplicated) mass, undercount within summary loss
    /// plus withheld (and lost) mass — for every item present in the
    /// true window or tracked by the coordinator.
    fn check(&self, seg: usize, c: &Self::C) -> Check {
        let mut check = Check::default();
        let t = self.clock(seg);
        let bound = c.error_bound_at(t);
        let summary = c.window_summary_at(t);
        let truth = &self.truth[seg];
        let side = |check: &mut Check, est: f64, f: f64| {
            if est > f {
                check.bound(est - f, bound.straddle);
            } else {
                check.bound(f - est, bound.summary_loss + bound.withheld);
            }
        };
        for (&e, &f) in truth {
            side(&mut check, summary.estimate(e), f);
        }
        for (e, est) in summary.counters() {
            if !truth.contains_key(&e) {
                side(&mut check, est, 0.0);
            }
        }
        // The query path answers exactly what the folded summary holds.
        for &e in &self.query_items[seg] {
            check.holds(c.estimate_at(t, e).to_bits() == summary.estimate(e).to_bits());
        }
        check
    }

    fn time_queries(&self, seg: usize, c: &Self::C, lat: &mut Vec<f64>) {
        let t = self.clock(seg);
        for &e in &self.query_items[seg] {
            time_us(lat, || c.estimate_at(t, e) + c.error_bound_at(t).total());
        }
    }

    fn answers(&self, c: &Self::C) -> Vec<u64> {
        let last = self.segments.len() - 1;
        let t = self.clock(last);
        self.query_items[last]
            .iter()
            .map(|&e| c.estimate_at(t, e).to_bits())
            .chain([c.error_bound_at(t).total().to_bits()])
            .collect()
    }
}
