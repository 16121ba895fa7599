//! End-to-end integration: a seeded workload through the live router.
//!
//! Pins down the three contract properties of the runtime:
//!
//! 1. **determinism** — with blocking backpressure, the final FIB
//!    equals the sequential application of the update trace, and two
//!    runs of the same seeds agree exactly, regardless of thread
//!    interleaving;
//! 2. **conservation** — every packet handed to the dispatcher
//!    completes (arrivals == completions; updates are the only
//!    droppable input and drops are accounted);
//! 3. **observability** — the final stats snapshot is non-empty and
//!    internally consistent.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clue_compress::onrtc;
use clue_fib::{gen::FibGen, NextHop, Prefix, Route, RouteTable, Update};
use clue_partition::{EvenRangePartition, Indexer};
use clue_router::{
    run, CheckpointView, JournalBatch, OverflowPolicy, RouterConfig, RouterService, UpdateJournal,
};
use clue_traffic::{PacketGen, UpdateGen};

fn workload() -> (RouteTable, Vec<u32>, Vec<Update>) {
    let fib = FibGen::new(1001).routes(4_000).generate();
    let packets = PacketGen::new(1002).generate(&fib, 40_000);
    let updates = UpdateGen::new(1003).generate(&fib, 2_500);
    (fib, packets, updates)
}

fn routes(t: &RouteTable) -> Vec<Route> {
    t.iter().collect()
}

#[test]
fn seeded_run_is_deterministic_and_conserves_packets() {
    let (fib, packets, updates) = workload();
    let cfg = RouterConfig {
        workers: 4,
        batch_size: 32,
        overflow: OverflowPolicy::Block,
        ..RouterConfig::default()
    };

    let a = run(&fib, &packets, &updates, &cfg);
    let b = run(&fib, &packets, &updates, &cfg);

    // 1. Determinism: both runs and the offline sequential replay agree.
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    assert_eq!(routes(&a.final_table), routes(&expect));
    assert_eq!(routes(&a.final_table), routes(&b.final_table));
    assert_eq!(
        routes(&a.final_compressed),
        routes(&onrtc(&expect)),
        "compressed form must track the sequential table"
    );
    assert_eq!(routes(&a.final_compressed), routes(&b.final_compressed));

    // 2. Conservation: zero lost packets, all updates ingested.
    assert!(a.packets_conserved(), "arrivals != completions");
    assert_eq!(a.snapshot.arrivals, packets.len() as u64);
    assert_eq!(a.snapshot.updates_received, updates.len() as u64);
    assert_eq!(a.snapshot.update_drops, 0, "Block policy never drops");
    assert_eq!(
        a.snapshot.updates_received,
        a.snapshot.updates_applied
            + a.snapshot.updates_superseded
            + a.snapshot.updates_cancelled
            + a.snapshot.updates_elided,
        "every ingested update is applied or accounted as absorbed"
    );

    // 3. Observability: the snapshot is non-empty and well-formed.
    let s = &a.snapshot;
    assert_eq!(s.workers, 4);
    assert_eq!(s.lookup_ns.count(), packets.len() as u64);
    assert!(s.lookup_ns.quantile(0.99) >= s.lookup_ns.quantile(0.5));
    assert!(s.ttf_batch_ns.count() > 0, "batches must record TTF");
    assert!(s.epochs > 0, "updates must publish epochs");
    assert!(s.per_worker_serviced.iter().all(|&n| n > 0), "idle worker");
    let json = s.to_json();
    for key in [
        "\"p99\":",
        "\"ttf_batch_ns\":",
        "\"coalesce_ratio\":",
        "\"dropped\":0",
    ] {
        assert!(json.contains(key), "snapshot JSON missing {key}");
    }
}

#[test]
fn every_result_is_a_plausible_next_hop() {
    // Lookups race updates, so a packet may resolve against any epoch;
    // but every *completed* lookup must still return either a next hop
    // from the FIB's alphabet or a genuine miss under some epoch. With
    // announce-heavy churn over a generated FIB, misses stay rare.
    let (fib, packets, updates) = workload();
    let report = run(
        &fib,
        &packets[..20_000],
        &updates[..1_000],
        &RouterConfig::default(),
    );
    assert!(report.packets_conserved());
    let misses = report.results.iter().filter(|r| r.is_none()).count();
    assert!(
        misses < report.results.len() / 10,
        "{misses} misses out of {} lookups",
        report.results.len()
    );
    assert!(report.elapsed.as_nanos() > 0);
}

#[test]
fn tiled_backend_serves_and_converges_like_the_default() {
    // The tiled plane takes the incremental path (persistent TileSet +
    // Arc-snapshot epochs) instead of per-bucket recompiles; the
    // externally observable contract must not change.
    let (fib, packets, updates) = workload();
    let cfg = RouterConfig {
        workers: 4,
        batch_size: 32,
        overflow: OverflowPolicy::Block,
        backend: clue_core::BackendKind::Tiled,
        ..RouterConfig::default()
    };
    let report = run(&fib, &packets[..20_000], &updates[..1_500], &cfg);
    assert!(report.packets_conserved());
    let mut expect = fib.clone();
    for &u in &updates[..1_500] {
        expect.apply(u);
    }
    assert_eq!(routes(&report.final_table), routes(&expect));
    assert_eq!(routes(&report.final_compressed), routes(&onrtc(&expect)));
    assert!(report.snapshot.epochs > 0, "updates must publish epochs");
    let misses = report.results.iter().filter(|r| r.is_none()).count();
    assert!(
        misses < report.results.len() / 10,
        "{misses} misses out of {} tiled lookups",
        report.results.len()
    );
}

#[test]
fn dynamic_redundancy_stays_bounded() {
    // The paper's headline: updates may force cut-spanning replicas,
    // but the count stays a sliver of the table. 2.5k updates over a
    // 4k-route table must not replicate more than a few percent.
    let (fib, _, updates) = workload();
    let report = run(&fib, &[], &updates, &RouterConfig::default());
    let table = report.final_compressed.len() as u64;
    assert!(
        report.dynamic_redundancy <= table / 10,
        "replicas {} vs table {}",
        report.dynamic_redundancy,
        table
    );
}

/// The per-chip DRed contents and the compressed table at drain time.
type Drained = Arc<Mutex<Option<(Vec<Vec<Route>>, RouteTable)>>>;

/// Journals nothing; keeps what the service hands over when it drains.
struct DrainProbe(Drained);

impl UpdateJournal for DrainProbe {
    fn append(&mut self, _: &JournalBatch<'_>) -> io::Result<()> {
        Ok(())
    }

    fn on_drain(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        *self.0.lock().unwrap() = Some((view.dreds.to_vec(), view.compressed.clone()));
        Ok(())
    }
}

/// Blocks until `done()` holds, failing the test after a generous bound.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn dred_fills_never_resurrect_flushed_routes() {
    // The paper's delete-if-present rule: once the update plane flushes
    // a prefix from the DReds, no fill may put its old route back. Hot
    // lookups homed on one chip with 1-slot FIFOs keep diverting and
    // bouncing (so bounced hits keep filling the other DReds) while
    // every hot host route is re-announced round after round; a worker
    // still on the pre-flush epoch must not re-insert what was flushed.
    const WORKERS: usize = 4;
    const ROUNDS: u16 = 20;
    for seed in [1101u64, 1102] {
        let fib = FibGen::new(seed).routes(10_000).generate();
        let compressed = onrtc(&fib);
        let index = EvenRangePartition::split(&compressed, WORKERS)
            .index()
            .clone();
        let chip0: Vec<u32> = compressed
            .iter()
            .map(|r| r.prefix.low())
            .filter(|&a| index.bucket_of(a) == 0)
            .collect();
        let hot: Vec<u32> = chip0
            .iter()
            .step_by((chip0.len() / 32).max(1))
            .take(32)
            .copied()
            .collect();
        // A fresh next hop each round, outside the generated alphabet,
        // so every update changes forwarding and publishes one epoch.
        let updates: Vec<Update> = (0..ROUNDS)
            .flat_map(|round| {
                hot.iter().map(move |&a| Update::Announce {
                    prefix: Prefix::new(a, 32),
                    next_hop: NextHop(100 + round),
                })
            })
            .collect();
        let total = updates.len() as u64;
        let probe: Vec<u32> = hot.iter().cycle().take(256).copied().collect();

        let cfg = RouterConfig {
            workers: WORKERS,
            fifo_capacity: 1,
            batch_size: 1,
            ..RouterConfig::default()
        };
        let drained: Drained = Arc::default();
        let svc = RouterService::start_with_journal(
            &fib,
            &cfg,
            Box::new(DrainProbe(Arc::clone(&drained))),
        );
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = svc.lookup_batch(probe.clone());
                    }
                });
            }
            for &u in &updates {
                let _ = svc.submit_update(u);
            }
            wait_until("every update", || svc.stats().updates_received == total);
            wait_until("the last epoch", || svc.epoch() == total);
            stop.store(true, Ordering::Relaxed);
        });

        let mut expect = fib.clone();
        for &u in &updates {
            expect.apply(u);
        }
        let reference = onrtc(&expect).to_trie();
        let settled = svc.lookup_batch(probe.clone());
        let wrong = probe
            .iter()
            .zip(&settled)
            .filter(|&(&a, nh)| *nh != reference.lookup(a).map(|(_, &v)| v))
            .count();
        let report = svc.drain();
        assert_eq!(report.final_table, expect, "seed {seed}");
        assert_eq!(
            wrong, 0,
            "seed {seed}: settled lookups served flushed routes"
        );

        let (dreds, live) = drained.lock().unwrap().take().expect("on_drain ran");
        let stale: Vec<Route> = dreds
            .iter()
            .flatten()
            .filter(|r| live.get(r.prefix) != Some(r.next_hop))
            .copied()
            .collect();
        assert!(
            stale.is_empty(),
            "seed {seed}: {} stale DRed routes, first {:?}",
            stale.len(),
            &stale[..stale.len().min(4)]
        );
    }
}
