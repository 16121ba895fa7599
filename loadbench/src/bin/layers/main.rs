//! The traced run: the end-to-end run's inputs replayed through each
//! layer's public functions, with spans recorded around those calls
//! from this file; prints the per-layer metrics.
//!
//! `layers --workload W --seed N --seconds S --trace 1 [--routes N]`
//!
//! Lookup frames go over the wire exactly as in the end-to-end run.
//! Every other measured frame is then replayed one layer deeper at a
//! time: through an in-process `RouterService` (router), through the
//! lookup planes of an `EpochState` built the same way the service
//! builds its first epoch (core), and through the frame codec (net).
//! The remaining layers are timed offline on the same table, keys and
//! update stream. Spans stay in memory and are written to
//! `out/spans-<workload>-<seed>.jsonl` once the run ends.

mod spans;

use std::hint::black_box;
use std::io;
use std::time::Instant;

use clue_cache::LruPrefixCache;
use clue_compress::onrtc;
use clue_core::{mean_ttf, CluePipeline, TtfSample};
use clue_fib::{NextHop, RouteTable};
use clue_loadbench::drive::{self, us, Tap};
use clue_loadbench::inputs::{self, Inputs};
use clue_loadbench::report::{median, quantile, Report};
use clue_loadbench::run::{self, Measured};
use clue_loadbench::{out_dir, Args, Workload};
use clue_net::frame::{Frame, FrameType};
use clue_net::wire;
use clue_partition::{EvenRangePartition, Indexer, RangeIndex};
use clue_router::coalesce::coalesce;
use clue_router::epoch::EpochState;
use clue_router::journal::{CheckpointView, JournalBatch, UpdateJournal};
use clue_router::service::RouterService;
use clue_router::RouterConfig;
use clue_store::{Store, StoreConfig};

use spans::Tracer;

/// On lookup-small, the `net`, `router` and `core` self-time p50s must
/// add up to the wire p50 within this share of it.
const SELF_SUM_TOLERANCE: f64 = 0.25;
/// Repetitions of each offline build step (the median is reported).
const BUILD_REPS: usize = 3;
/// Passes of the whole key pool through the lookup planes.
const PLANE_PASSES: usize = 8;
/// Keys per timed DRed lookup span.
const DRED_CHUNK: usize = 1024;
/// Update frames replayed through coalesce, journal and pipeline.
const REPLAY_FRAMES: usize = 48;
/// Of those, the frames also published as an epoch.
const PUBLISH_FRAMES: usize = 12;
/// Checkpoints written after the replayed frames.
const CHECKPOINTS: usize = 3;

fn main() {
    run::main_with(layers, "layers")
}

fn layers(args: &Args) -> io::Result<Report> {
    let origin = Instant::now();
    let inputs = inputs::generate(args.workload, args.seed, args.routes, args.window());
    let cfg = RouterConfig::default();
    let compressed = onrtc(&inputs.table);
    let index = EvenRangePartition::split(&compressed, cfg.workers)
        .index()
        .clone();
    let epoch = EpochState::build(0, &compressed, &index, cfg.workers, cfg.backend);
    let replay_svc = RouterService::start(&inputs.table, &cfg);
    let mut taps: Vec<Replay<'_>> = (0..args.workload.lookup_conns())
        .map(|conn| Replay {
            conn: conn as u64,
            seen: 0,
            svc: &replay_svc,
            epoch: &epoch,
            index: &index,
            tracer: Tracer::default(),
            plane_ns_per_addr: Vec::new(),
            untraced_rtt_us: Vec::new(),
        })
        .collect();
    let measured = run::measure(args, &inputs, 1, &mut taps)?;
    let mut tracer = Tracer::default();
    let mut plane_ns = Vec::new();
    let mut untraced = Vec::new();
    for tap in taps {
        tracer.absorb(tap.tracer);
        plane_ns.extend(tap.plane_ns_per_addr);
        untraced.extend(tap.untraced_rtt_us);
    }
    drop(replay_svc.drain());

    let mut report = Report::default();
    run::account(&inputs, &measured, &mut report);
    wire_layers(&tracer, plane_ns, untraced, args.workload, &mut report);
    let offline = Offline {
        args,
        inputs: &inputs,
        cfg: &cfg,
        compressed: &compressed,
        index: &index,
        epoch: &epoch,
    };
    offline.setup_layers(&mut tracer, &mut report);
    offline.lookup_layers(&mut tracer, &mut report);
    offline.update_layers(&mut tracer, &mut report)?;
    router_counts(&measured, &epoch, &mut report);

    let mut e2e = Report::default();
    run::end_to_end(&measured, &mut e2e);
    report
        .extra
        .extend(e2e.headline.into_iter().filter(|m| m.name != "rss_peak_mb"));
    let path = out_dir().join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write(&path, origin) {
        eprintln!("layers: could not write {}: {e}", path.display());
    }
    report.fact("spans", tracer.spans.len());
    Ok(report)
}

/// Replays measured wire frames through the layers below the wire.
struct Replay<'a> {
    conn: u64,
    seen: u64,
    svc: &'a RouterService,
    epoch: &'a EpochState,
    index: &'a RangeIndex,
    tracer: Tracer,
    plane_ns_per_addr: Vec<f64>,
    /// Round trips of the frames left untraced, for the overhead.
    untraced_rtt_us: Vec<f64>,
}

impl Tap for Replay<'_> {
    fn frame(&mut self, addrs: &[u32], sent: Instant, answered: Instant) {
        self.seen += 1;
        if self.seen % 2 == 1 {
            self.untraced_rtt_us.push(us(answered - sent));
            return;
        }
        let req = (self.conn << 40) | self.seen;
        let (svc, epoch, index) = (self.svc, self.epoch, self.index);
        let t = &mut self.tracer;
        let wire = t.record(req, None, "net.wire", sent, answered);
        let (results, service) = t.time(req, Some(wire), "router.service", || {
            svc.lookup_batch(addrs.to_vec())
        });
        let (_, plane) = t.time(req, Some(service), "core.plane", || {
            for &a in addrs {
                black_box(epoch.planes[index.bucket_of(a)].lookup(a));
            }
        });
        self.plane_ns_per_addr
            .push(t.spans[plane].ns() / addrs.len() as f64);
        t.time(req, Some(wire), "net.codec", || {
            codec_round_trip(addrs, &results)
        });
    }
}

/// Both frames of a lookup exchange through the codec: the request
/// encoded, framed, unframed and decoded, then the reply the same way.
fn codec_round_trip(addrs: &[u32], results: &[Option<NextHop>]) {
    let request = Frame {
        kind: FrameType::Lookup,
        seq: 1,
        payload: wire::encode_lookup(addrs),
    }
    .encode();
    let (frame, _) = Frame::try_decode(&request)
        .expect("own frame decodes")
        .expect("own frame is whole");
    black_box(wire::decode_lookup(&frame.payload).expect("own payload decodes"));
    let reply = Frame {
        kind: FrameType::LookupResult,
        seq: 1,
        payload: wire::encode_results(results),
    }
    .encode();
    let (frame, _) = Frame::try_decode(&reply)
        .expect("own frame decodes")
        .expect("own frame is whole");
    black_box(wire::decode_results(&frame.payload).expect("own payload decodes"));
}

fn to_us(ns: Vec<f64>) -> Vec<f64> {
    ns.into_iter().map(|v| v / 1e3).collect()
}

fn to_ms(ns: Vec<f64>) -> Vec<f64> {
    ns.into_iter().map(|v| v / 1e6).collect()
}

/// Metrics of the replayed wire frames: service and dispatch, codec and
/// transport, plane per address; the self-time sum check and the
/// tracing overhead.
fn wire_layers(
    t: &Tracer,
    mut plane_ns: Vec<f64>,
    mut untraced_us: Vec<f64>,
    workload: Workload,
    report: &mut Report,
) {
    let own = t.self_ns();
    let self_us = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &v)| v / 1e3)
            .collect()
    };
    let mut service = to_us(t.durations("router.service"));
    let n = service.len();
    report.headline(
        "router.service_batch_p50_us",
        quantile(&mut service, 0.5),
        "us",
        n,
    );
    report.headline(
        "router.service_batch_p99_us",
        quantile(&mut service, 0.99),
        "us",
        n,
    );
    report.headline(
        "router.dispatch_self_p50_us",
        median(&mut self_us("router.service")),
        "us",
        n,
    );
    report.headline(
        "net.transport_self_p50_us",
        median(&mut self_us("net.wire")),
        "us",
        n,
    );
    report.headline(
        "net.frame_codec_ns",
        median(&mut t.durations("net.codec")),
        "ns",
        n,
    );
    report.headline(
        "core.plane_lookup_ns",
        median(&mut plane_ns),
        "ns",
        plane_ns.len(),
    );

    let requests = t.layer_self_by_request("net.wire");
    let layer = |name: &str| -> f64 {
        let mut v: Vec<f64> = requests
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0) / 1e3)
            .collect();
        median(&mut v)
    };
    let parts = [layer("net"), layer("router"), layer("core")];
    let mut wire = to_us(t.durations("net.wire"));
    let wire_p50 = median(&mut wire);
    let error = (parts.iter().sum::<f64>() - wire_p50).abs() / wire_p50.max(f64::MIN_POSITIVE);
    report.extra("trace.net_self_p50_us", parts[0], "us", requests.len());
    report.extra("trace.router_self_p50_us", parts[1], "us", requests.len());
    report.extra("trace.core_self_p50_us", parts[2], "us", requests.len());
    report.extra("trace.self_sum_error", error, "ratio", requests.len());
    if workload == Workload::LookupSmall && error > SELF_SUM_TOLERANCE {
        report.broken(format!(
            "net+router+core self p50s {parts:?} us miss the wire p50 {wire_p50} us by {error:.3} \
             (tolerance {SELF_SUM_TOLERANCE})"
        ));
    }
    let overhead = wire_p50 - median(&mut untraced_us);
    report.extra("trace.overhead_p50_us", overhead, "us", untraced_us.len());
}

/// The offline half of the traced run: layer calls on the run's table,
/// keys and update stream, each a root span.
struct Offline<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    cfg: &'a RouterConfig,
    compressed: &'a RouteTable,
    index: &'a RangeIndex,
    epoch: &'a EpochState,
}

/// Request ids of offline spans start past any wire request's.
const OFFLINE_REQ: u64 = 1 << 62;

impl Offline<'_> {
    /// The calls `setup_s` is made of: compress, split, build, start.
    fn setup_layers(&self, t: &mut Tracer, report: &mut Report) {
        let (table, cfg) = (&self.inputs.table, self.cfg);
        for rep in 0..BUILD_REPS as u64 {
            let req = OFFLINE_REQ + rep;
            t.time(req, None, "compress.onrtc", || black_box(onrtc(table)));
            t.time(req, None, "partition.split", || {
                black_box(EvenRangePartition::split(self.compressed, cfg.workers))
            });
            t.time(req, None, "router.epoch_build", || {
                black_box(EpochState::build(
                    0,
                    self.compressed,
                    self.index,
                    cfg.workers,
                    cfg.backend,
                ))
            });
            let (svc, _) = t.time(req, None, "router.service_start", || {
                RouterService::start(table, cfg)
            });
            drop(svc.drain());
        }
        for (metric, span) in [
            ("compress.onrtc_ms", "compress.onrtc"),
            ("partition.split_ms", "partition.split"),
            ("router.epoch_build_ms", "router.epoch_build"),
            ("router.service_start_ms", "router.service_start"),
        ] {
            report.headline(
                metric,
                median(&mut to_ms(t.durations(span))),
                "ms",
                BUILD_REPS,
            );
        }
    }

    /// Plane and DRed lookups on one thread over the key pool, and how
    /// the keys fall on the partition.
    fn lookup_layers(&self, t: &mut Tracer, report: &mut Report) {
        let (keys, epoch, index) = (&self.inputs.keys, self.epoch, self.index);
        for pass in 0..PLANE_PASSES as u64 {
            t.time(
                OFFLINE_REQ + (1 << 20) + pass,
                None,
                "core.plane_scan",
                || {
                    for &a in keys {
                        black_box(epoch.planes[index.bucket_of(a)].lookup(a));
                    }
                },
            );
        }
        let mut rates: Vec<f64> = t
            .durations("core.plane_scan")
            .into_iter()
            .map(|ns| keys.len() as f64 / (ns / 1e9))
            .collect();
        report.headline(
            "core.plane_lookup_rate",
            median(&mut rates),
            "lookups/s",
            PLANE_PASSES,
        );

        let mut per_chip = vec![0u64; index.bucket_count()];
        for &a in keys {
            per_chip[index.bucket_of(a)] += 1;
        }
        let busiest = per_chip.iter().max().copied().unwrap_or(0);
        let share = busiest as f64 / keys.len().max(1) as f64;
        report.headline("partition.busiest_chip_share", share, "ratio", keys.len());

        // Fill the DRed the way bounced hits do, then time lookups in it.
        let mut dred = LruPrefixCache::new(self.cfg.dred_capacity);
        for &a in keys {
            if dred.lookup(a).is_none() {
                if let Some(route) = epoch.planes[index.bucket_of(a)].lookup(a) {
                    dred.insert(route);
                }
            }
        }
        for (i, chunk) in keys.chunks(DRED_CHUNK).enumerate() {
            t.time(
                OFFLINE_REQ + (2 << 20) + i as u64,
                None,
                "cache.dred_lookup",
                || {
                    for &a in chunk {
                        black_box(dred.lookup(a));
                    }
                },
            );
        }
        let mut per_lookup: Vec<f64> = t
            .durations("cache.dred_lookup")
            .into_iter()
            .map(|ns| ns / DRED_CHUNK as f64)
            .collect();
        let n = per_lookup.len();
        report.headline("cache.dred_lookup_ns", median(&mut per_lookup), "ns", n);
    }

    /// The update path on the seed's update stream: coalesce, journal
    /// append, pipeline apply, epoch publish, checkpoint.
    fn update_layers(&self, t: &mut Tracer, report: &mut Report) -> io::Result<()> {
        let (table, cfg, index) = (&self.inputs.table, self.cfg, self.index);
        let frames = match &self.inputs.churn {
            Some(c) => c.frames.iter().take(REPLAY_FRAMES).cloned().collect(),
            None => inputs::update_frames(table, self.args.seed, REPLAY_FRAMES),
        };
        let dir = out_dir().join(format!("layers-{}-{}", self.args.seed, std::process::id()));
        drive::remove_dir(&dir)?;
        let (mut store, _) = Store::open(&dir, StoreConfig::default())?;
        store.init_from_table(table, cfg.workers)?;
        let mut pipeline =
            CluePipeline::new(table, cfg.workers, cfg.dred_capacity, table.len() + 1024);
        let mut mirror = table.clone();
        let (mut raw, mut absorbed) = (0usize, 0usize);
        let mut ttf: Vec<TtfSample> = Vec::new();
        for (k, frame) in frames.iter().enumerate() {
            let req = OFFLINE_REQ + (3 << 20) + k as u64;
            let (batch, _) = t.time(req, None, "router.coalesce", || coalesce(frame, &mirror));
            raw += batch.raw;
            absorbed += batch.absorbed();
            let record = JournalBatch {
                epoch: k as u64,
                seq_hw: k as u64 + 1,
                raw: u32::try_from(batch.raw).expect("a frame fits u32"),
                ops: &batch.ops,
            };
            t.time(req, None, "store.append", || store.append(&record))
                .0?;
            for &op in &batch.ops {
                mirror.apply(op);
                let ((sample, _), _) = t.time(req, None, "core.pipeline_apply", || {
                    pipeline.apply_with_diff(op)
                });
                ttf.push(sample);
            }
            if k < PUBLISH_FRAMES {
                t.time(req, None, "router.epoch_publish", || {
                    let compressed = pipeline.fib().compressed_table();
                    black_box(EpochState::build(
                        k as u64 + 1,
                        &compressed,
                        index,
                        cfg.workers,
                        cfg.backend,
                    ))
                });
            }
        }
        let compressed = pipeline.fib().compressed_table();
        let dreds = vec![Vec::new(); cfg.workers];
        let view = CheckpointView {
            epoch: frames.len() as u64,
            seq_hw: frames.len() as u64,
            table: &mirror,
            compressed: &compressed,
            cuts: index.cuts(),
            dreds: &dreds,
        };
        for i in 0..CHECKPOINTS as u64 {
            let req = OFFLINE_REQ + (4 << 20) + i;
            t.time(req, None, "store.checkpoint", || store.checkpoint(&view))
                .0?;
        }
        drop(store);
        drive::remove_dir(&dir)?;

        let mut coalesce_us = to_us(t.durations("router.coalesce"));
        let n = coalesce_us.len();
        report.headline(
            "router.coalesce_batch_us",
            median(&mut coalesce_us),
            "us",
            n,
        );
        let absorbed_frac = absorbed as f64 / raw.max(1) as f64;
        report.headline("router.coalesce_absorbed_frac", absorbed_frac, "ratio", raw);
        let mut append = to_us(t.durations("store.append"));
        report.headline("store.append_p50_us", quantile(&mut append, 0.5), "us", n);
        report.headline("store.append_p99_us", quantile(&mut append, 0.99), "us", n);
        let mut checkpoint = to_ms(t.durations("store.checkpoint"));
        report.headline(
            "store.checkpoint_ms",
            median(&mut checkpoint),
            "ms",
            CHECKPOINTS,
        );
        let mut apply = to_us(t.durations("core.pipeline_apply"));
        let n = apply.len();
        report.headline(
            "core.pipeline_apply_p50_us",
            quantile(&mut apply, 0.5),
            "us",
            n,
        );
        report.headline(
            "core.pipeline_apply_p99_us",
            quantile(&mut apply, 0.99),
            "us",
            n,
        );
        // Means, as the paper's TTF figures average them: TTF2 and TTF3
        // are modelled TCAM and DRed costs, whose medians are one cost
        // step on every stream.
        let mean = mean_ttf(&ttf);
        report.headline("core.ttf1_ns", mean.ttf1_ns, "ns", n);
        report.headline("core.ttf2_ns", mean.ttf2_ns, "ns", n);
        report.headline("core.ttf3_ns", mean.ttf3_ns, "ns", n);
        let mut publish = to_ms(t.durations("router.epoch_publish"));
        let n = publish.len();
        report.headline(
            "router.epoch_publish_p50_ms",
            quantile(&mut publish, 0.5),
            "ms",
            n,
        );
        report.headline(
            "router.epoch_publish_p99_ms",
            quantile(&mut publish, 0.99),
            "ms",
            n,
        );
        Ok(())
    }
}

/// Ratios and counts the live router reported, and the plane footprint.
fn router_counts(m: &Measured, epoch: &EpochState, report: &mut Report) {
    let s = &m.router.snapshot;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.headline(
        "router.diversion_frac",
        ratio(s.diversions, s.arrivals),
        "ratio",
        s.arrivals as usize,
    );
    let probes = s.dred_hits + s.dred_misses;
    report.headline(
        "cache.dred_hit_frac",
        ratio(s.dred_hits, probes),
        "ratio",
        probes as usize,
    );
    let received = s.updates_received;
    report.headline(
        "router.updates_per_epoch",
        ratio(received, s.epochs),
        "count",
        s.epochs as usize,
    );
    let redundancy = m.router.dynamic_redundancy as f64;
    report.headline("router.dynamic_redundancy", redundancy, "count", 1);
    let heap: usize = epoch.planes.iter().map(|p| p.heap_bytes()).sum();
    report.headline(
        "core.plane_heap_mb",
        heap as f64 / f64::from(1 << 20),
        "MiB",
        epoch.planes.len(),
    );
}
