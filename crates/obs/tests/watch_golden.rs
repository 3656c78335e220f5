//! Golden-file test for the `dm watch` table renderer: a checked-in
//! rule file, six checked-in snapshot fixtures (one per replay tick),
//! and the exact report their replay must render. The report is what
//! `dm watch` prints and what the CI watch-smoke step greps, so a
//! formatting change is a *product* change — it must show up in review
//! as a golden-file edit, not slip by.
//!
//! The snapshot fixtures are canonically the output of [`scenario`]
//! below (an overload burst that fires two rules, then a quiet stretch
//! that lets the window slide past it and resolve them). Regenerate
//! everything after an intentional change:
//!
//! ```text
//! cargo test -p dm-obs --test watch_golden -- --ignored regenerate_fixtures
//! ```
//!
//! The same replay is reproducible through the CLI:
//!
//! ```text
//! cargo run -p dm-bench --bin dm -- watch \
//!     crates/obs/tests/fixtures/watch_rules.json \
//!     crates/obs/tests/fixtures/watch_snap_{1,2,3,4,5,6}.json \
//!     --window 300 --tick 100
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::watch::{Clock, ManualClock, RuleSet, WatchReport, Watcher};
use dm_obs::{InMemoryRecorder, Obs, Snapshot};
use std::sync::Arc;

/// Replay cadence (`--tick`) and sliding window (`--window`).
const TICK_MS: u64 = 100;
const WINDOW_MS: u64 = 300;
const SNAPS: usize = 6;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The scripted serving story behind the snapshot fixtures, as six
/// cumulative snapshots:
///
/// 1. baseline traffic — fast scores, shallow queue;
/// 2. overload burst — slow scores, sheds, deep queue (rules breach);
/// 3. burst over — the queue drains, but the burst is still inside the
///    300 ms window (latency and shed-rate alerts mature to firing);
/// 4. quiet — the window still reaches back to the baseline frame;
/// 5. quiet — the window finally slides past the burst (alerts clear);
/// 6. quiet — resolved alerts return to ok.
fn scenario() -> Vec<String> {
    let source = InMemoryRecorder::new();
    let obs = Obs::new(&source);
    let mut snaps = Vec::with_capacity(SNAPS);
    // Tick 1: baseline.
    for _ in 0..4 {
        obs.value("serve.latency.score_ns", 500_000);
    }
    obs.counter("serve.req.admitted", 10);
    obs.gauge("serve.queue.depth", 1.0);
    snaps.push(source.snapshot().to_json());
    // Tick 2: overload burst.
    for _ in 0..4 {
        obs.value("serve.latency.score_ns", 5_000_000);
    }
    obs.counter("serve.shed.queue_full", 6);
    obs.gauge("serve.queue.depth", 6.0);
    snaps.push(source.snapshot().to_json());
    // Tick 3: the queue drains; nothing else moves.
    obs.gauge("serve.queue.depth", 1.0);
    snaps.push(source.snapshot().to_json());
    // Ticks 4-6: quiet.
    for _ in 3..SNAPS {
        snaps.push(source.snapshot().to_json());
    }
    snaps
}

/// Replays the committed fixtures exactly the way `dm watch` does:
/// parse the rule file, then per snapshot advance the manual clock one
/// tick and evaluate.
fn replay() -> WatchReport {
    let rules = RuleSet::from_json(&fixture("watch_rules.json")).expect("rule fixture parses");
    let clock = Arc::new(ManualClock::new(0));
    let mut watcher = Watcher::new(rules, WINDOW_MS, clock.clone() as Arc<dyn Clock>);
    let sink = InMemoryRecorder::new();
    let obs = Obs::new(&sink);
    let mut transitions = Vec::new();
    for i in 1..=SNAPS {
        let name = format!("watch_snap_{i}.json");
        let snap = Snapshot::from_json(&fixture(&name))
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        clock.advance(TICK_MS);
        transitions.extend(watcher.tick(&snap, &obs));
    }
    WatchReport {
        transitions,
        statuses: watcher.statuses(),
    }
}

#[test]
fn report_matches_golden() {
    assert_eq!(
        replay().render(),
        fixture("watch_report.golden"),
        "watch table renderer drifted from the committed golden"
    );
}

/// The committed snapshots are exactly what the scripted scenario
/// produces, and each one round-trips through the snapshot reader —
/// a hand-edit that breaks canonical form fails here.
#[test]
fn snapshot_fixtures_are_canonical() {
    let generated = scenario();
    for (i, expected) in generated.iter().enumerate() {
        let name = format!("watch_snap_{}.json", i + 1);
        let committed = fixture(&name);
        assert_eq!(&committed, expected, "{name} drifted from the scenario");
        let snap = Snapshot::from_json(&committed)
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        assert_eq!(snap.to_json(), committed, "{name} is not canonical");
    }
}

/// The fixtures exercise a full alert lifecycle; this pins the shape so
/// a fixture edit can't silently hollow the golden test out.
#[test]
fn golden_covers_a_full_alert_lifecycle() {
    let report = replay();
    let rendered = report.render();
    assert!(rendered.starts_with("watch: 3 rules, 0 firing, 10 transitions"));
    for edge in [
        "ok -> pending",
        "pending -> firing",
        "pending -> ok",
        "firing -> resolved",
        "resolved -> ok",
    ] {
        assert!(rendered.contains(edge), "golden lost the `{edge}` edge");
    }
    // Both SLO rules complete the firing -> resolved -> ok cycle; the
    // queue-depth near-miss walks back from pending without firing.
    assert_eq!(report.transitions.len(), 10);
}

/// Rewrites every fixture from the scenario (run explicitly after an
/// intentional renderer or scenario change; see the module docs).
#[test]
#[ignore = "regenerates the committed fixtures in-place"]
fn regenerate_fixtures() {
    for (i, snap) in scenario().iter().enumerate() {
        std::fs::write(fixture_path(&format!("watch_snap_{}.json", i + 1)), snap).unwrap();
    }
    std::fs::write(fixture_path("watch_report.golden"), replay().render()).unwrap();
}
