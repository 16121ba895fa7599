//! One measured run and its checks, shared by both binaries.

use std::io;
use std::time::Duration;

use clue_compress::onrtc;
use clue_router::RouterReport;

use crate::drive::{self, ChurnStats, Keys, LookupStats, Tap, Window};
use crate::inputs::Inputs;
use crate::report::{median, quantile, rss_peak_mb, Report};
use crate::{out_dir, Args, Workload};

/// Boots per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Lookups before the window opens, so connections, caches and lazily
/// built state are warm when timing starts.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Everything one run measured.
pub struct Measured {
    /// The measured window.
    pub window: Window,
    /// Every lookup connection, merged.
    pub lookups: LookupStats,
    /// The update stream (churn only).
    pub churn: Option<ChurnStats>,
    /// The drained router's final report.
    pub router: RouterReport,
    /// Set-up time of each boot, seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set once the measured router drained, MiB.
    pub rss_peak_mb: Option<f64>,
}

/// Boots the router, drives `args.workload` at it with one tap per
/// lookup connection, drains it, and then boots it `setup_reps - 1`
/// more times for the set-up time alone. Those extra boots come after
/// the peak resident set is read, so they cannot inflate it.
///
/// # Errors
///
/// Fails if the router cannot be booted or drained.
///
/// # Panics
///
/// Panics if `taps` does not hold one tap per lookup connection.
pub fn measure<T: Tap>(
    args: &Args,
    inputs: &Inputs,
    setup_reps: usize,
    taps: &mut [T],
) -> io::Result<Measured> {
    assert_eq!(
        taps.len(),
        args.workload.lookup_conns(),
        "one tap per lookup connection"
    );
    let dir = (args.workload == Workload::Churn)
        .then(|| out_dir().join(format!("data-{}-{}", args.seed, std::process::id())));
    let first = (inputs.keys[0], inputs.expected[0]);
    let (server, setup) = drive::boot_timed(&inputs.table, dir.as_deref(), first)?;
    let mut setup_s = vec![setup];
    let window = Window::after(WARMUP, args.window());
    let keys = Keys {
        addrs: &inputs.keys,
        expected: &inputs.expected,
    };
    let frame_len = args.workload.frame_len();
    let (lookups, churn) = match &inputs.churn {
        Some(c) => {
            let mut s = drive::churn(&server, keys, frame_len, c, window, &mut taps[0]);
            (std::mem::take(&mut s.lookups), Some(s))
        }
        None => (
            drive::lookup_conns(&server, keys, frame_len, window, taps),
            None,
        ),
    };
    let router = server.drain()?;
    let rss_peak_mb = rss_peak_mb();
    for _ in 1..setup_reps {
        let (server, setup) = drive::boot_timed(&inputs.table, dir.as_deref(), first)?;
        setup_s.push(setup);
        server.drain()?;
    }
    if let Some(dir) = &dir {
        drive::remove_dir(dir)?;
    }
    Ok(Measured {
        window,
        lookups,
        churn,
        router,
        setup_s,
        rss_peak_mb,
    })
}

/// Counts attempts and failures and runs the final-state checks:
/// every answer against its reference; on churn, the drained router's
/// tables against the updates applied in order and their recompression.
pub fn account(inputs: &Inputs, m: &Measured, report: &mut Report) {
    let l = &m.lookups;
    report.attempted = l.sent;
    report.failed = l.wrong_frames + l.errors;
    report.wrong = l.wrong;
    let snap = &m.router.snapshot;
    report.fact("arrivals", snap.arrivals);
    report.fact("diversions", snap.diversions);
    report.fact("dred_hits", snap.dred_hits);
    report.fact("dred_misses", snap.dred_misses);
    report.fact("epochs", snap.epochs);
    report.fact("updates_received", snap.updates_received);
    report.fact("journal_appends", snap.journal_appends);
    report.fact("lookup_frames", l.rtt_us.len());
    report.fact("setup_reps", m.setup_s.len());
    let (Some(c), Some(s)) = (&inputs.churn, &m.churn) else {
        return;
    };
    report.attempted += s.frames + s.verify_frames;
    report.failed += s.failed_frames + s.verify_failed;
    report.wrong += s.verify_wrong;
    report.fact("update_frames", s.frames);
    report.fact("unacked", s.unacked);
    report.fact("dropped", s.dropped);
    report.fact("invisible", s.invisible);
    report.fact("unprobed", s.unprobed);
    report.fact("probe_wrong", s.probe_wrong);
    report.fact("verified", s.verified);
    report.fact("excluded_keys", c.excluded_keys);
    if m.router.final_table != c.final_table {
        report.broken("final_table differs from the updates applied in order");
    }
    if m.router.final_compressed != onrtc(&c.final_table) {
        report.broken("final_compressed differs from onrtc(final_table)");
    }
}

/// The end-to-end metrics: the last-line set of `BENCHMARK.json`, plus
/// `failed_frac` and churn's update metrics, which are printed only.
pub fn end_to_end(m: &Measured, report: &mut Report) {
    let l = &m.lookups;
    let n = l.rtt_us.len();
    let mut rtt = l.rtt_us.clone();
    report.headline(
        "lookup_rate",
        l.addrs as f64 / m.window.seconds(),
        "lookups/s",
        n,
    );
    report.headline("lookup_p50_us", quantile(&mut rtt, 0.5), "us", n);
    report.headline("lookup_p95_us", quantile(&mut rtt, 0.95), "us", n);
    let mut setup = m.setup_s.clone();
    report.headline("setup_s", median(&mut setup), "s", setup.len());
    report.headline("rss_peak_mb", m.rss_peak_mb.unwrap_or(0.0), "MiB", 1);
    // The p99 spreads too widely from run to run on a small shared
    // machine to be gated; it is printed beside the p95.
    report.extra("lookup_p99_us", quantile(&mut rtt, 0.99), "us", n);
    let frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.extra("failed_frac", frac, "ratio", report.attempted as usize);
    let Some(s) = &m.churn else {
        return;
    };
    let mut ack = s.ack_us.clone();
    let mut vis = s.visible_ms.clone();
    let mut lag = s.send_lag_us.clone();
    report.extra(
        "update_ack_p50_us",
        quantile(&mut ack, 0.5),
        "us",
        ack.len(),
    );
    report.extra(
        "update_ack_p99_us",
        quantile(&mut ack, 0.99),
        "us",
        ack.len(),
    );
    report.extra(
        "update_visible_p50_ms",
        quantile(&mut vis, 0.5),
        "ms",
        vis.len(),
    );
    report.extra(
        "update_visible_p99_ms",
        quantile(&mut vis, 0.99),
        "ms",
        vis.len(),
    );
    report.extra("send_lag_p99_us", quantile(&mut lag, 0.99), "us", lag.len());
}

/// Runs `main`'s body: parses arguments, arms the watchdog, and exits
/// 2 on a usage error, 1 on a failed run or a wrong answer.
pub fn main_with(run: impl FnOnce(&Args) -> io::Result<Report>, name: &str) -> ! {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: {e}\n{}", Args::USAGE);
            std::process::exit(2);
        }
    };
    crate::arm_watchdog(Duration::from_secs(170));
    match run(&args) {
        Ok(report) => {
            let file = format!(
                "result-{}-{}-trace{}.txt",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            );
            report.emit(&args, &out_dir(), &file);
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
    }
}
