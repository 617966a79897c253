//! The benchmark's own checks, at reduced input sizes: tracing changes
//! nothing, the traced layer times account for the traced wall time,
//! and the deterministic drivers repeat their counts exactly.

use crate::bench;
use crate::driver::{run, Driver, View, Workload};
use crate::workloads::{HhWide, MatrixD128, WindowLossy};
use cma_stream::Snapshot;

fn small_hh(seed: u64) -> HhWide {
    HhWide::new(seed, 512, 20_000)
}

fn small_matrix(seed: u64) -> MatrixD128 {
    MatrixD128::new(seed, 8, 2_000)
}

fn small_window(seed: u64) -> WindowLossy {
    WindowLossy::new(seed, 64, 4_096, 1_024, 8)
}

/// A traced Inline run reproduces the untraced `CommStats` and every
/// answer bit for bit, and so does a traced runner.
fn tracing_is_transparent<W: Workload>(w: &W) {
    for d in [Driver::Inline, Driver::Seq] {
        let plain = run(w, d, w.deploy(), &View::plain(), None).expect("untraced run");
        let (traced, _) = bench::traced_run(w, d).expect("traced run");
        assert_eq!(traced.stats, plain.stats, "{d:?}: CommStats differ");
        assert_eq!(
            w.answers(&traced.roles.coord.inner),
            w.answers(&plain.roles.coord),
            "{d:?}: answers differ"
        );
        assert_eq!(traced.check, plain.check, "{d:?}: checks differ");
        assert_eq!(plain.check.failed, 0, "{d:?}: a certified bound failed");
    }
}

#[test]
fn tracing_is_transparent_hh() {
    tracing_is_transparent(&small_hh(7));
}

#[test]
fn tracing_is_transparent_matrix() {
    tracing_is_transparent(&small_matrix(7));
}

#[test]
fn tracing_is_transparent_window() {
    tracing_is_transparent(&small_window(7));
}

/// The reported layer self times plus `engine.self_s` sum to the traced
/// Inline wall time, and the recorded spans really partition it: each
/// lies inside a timed driver interval and none overlaps another.
fn self_times_account_for_wall<W: Workload>(w: &W) {
    let out = bench::traced(w, None);
    let r = &out.report;
    assert!(r.correct(), "traced run failed {} checks", r.tally.failed);
    let layer_sum: f64 = [
        "site.observe_s",
        "site.on_broadcast_s",
        "aggregator.absorb_s",
        "aggregator.flush_s",
        "aggregator.on_broadcast_s",
        "coordinator.receive_s",
    ]
    .iter()
    .map(|n| r.get(n).expect("layer metric reported"))
    .sum();
    let engine_self = r.get("engine.self_s").expect("engine.self_s reported");
    assert!(engine_self >= 0.0);
    let wall = out.inline_wall_s;
    assert!(
        (layer_sum + engine_self - wall).abs() <= 1e-9 * wall.max(1.0),
        "layers {layer_sum} + engine {engine_self} != wall {wall}"
    );
    assert!((out.inline_layers.busy_s() - layer_sum).abs() <= 1e-9 * wall.max(1.0));

    let mut spans: Vec<(u64, u64)> = Vec::new();
    for &(_, a, b, parent) in &out.inline_spans.rows {
        if parent.is_some() {
            spans.push((a, b));
        }
    }
    let orphans = out
        .inline_spans
        .rows
        .iter()
        .filter(|r| r.3.is_none() && r.0 != "engine.inline")
        .count();
    assert_eq!(
        orphans, 0,
        "a wrapped span fell outside every driver interval"
    );
    assert!(!spans.is_empty());
    spans.sort_unstable();
    for pair in spans.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "spans overlap: {pair:?}");
    }
}

#[test]
fn self_times_account_for_wall_hh() {
    self_times_account_for_wall(&small_hh(11));
}

#[test]
fn self_times_account_for_wall_matrix() {
    self_times_account_for_wall(&small_matrix(11));
}

#[test]
fn self_times_account_for_wall_window() {
    self_times_account_for_wall(&small_window(11));
}

/// For a fixed seed the Inline and runner counts repeat exactly across
/// independently built workloads: messages, bytes, the error ratio and
/// the snapshot size.
fn counts_repeat<W: Workload>(make: impl Fn() -> W) {
    let counts = || {
        let w = make();
        Driver::ALL
            .iter()
            .filter(|&&d| d != Driver::Pool)
            .map(|&d| {
                let out = run(&w, d, w.deploy(), &View::plain(), None).expect("run");
                let snap = (d == Driver::Inline)
                    .then(|| Snapshot::capture(&out.roles.coord, &out.roles.aggs).len());
                (
                    out.stats.total(),
                    out.stats.bytes_up + out.stats.bytes_down,
                    out.check.worst.to_bits(),
                    snap,
                )
            })
            .collect::<Vec<_>>()
    };
    let first = counts();
    assert!(first.iter().all(|c| c.0 > 0 && c.1 > 0));
    assert_eq!(first, counts());
}

#[test]
fn counts_repeat_hh() {
    counts_repeat(|| small_hh(3));
}

#[test]
fn counts_repeat_matrix() {
    counts_repeat(|| small_matrix(3));
}

#[test]
fn counts_repeat_window() {
    counts_repeat(|| small_window(3));
}
