//! Load benchmark for the CLUE router.
//!
//! One load process drives an in-process `clue_net::Server` over loopback
//! TCP, started the way `clue serve` starts it, with three seeded
//! workloads (see [`Workload`]). The `e2e` binary measures what a client
//! of the router sees; the `layers` binary replays the same inputs
//! through each layer's public functions and derives per-layer numbers
//! from spans recorded around those calls.
//!
//! This library holds everything both binaries share, and it uses only
//! the router's outward-facing API (server, client, wire codec, store,
//! input generators), so that changes to inner layers cannot stop the
//! end-to-end measurement from building. Calls into inner layers live in
//! the `layers` binary alone.

#![warn(missing_docs)]

pub mod drive;
pub mod inputs;
pub mod report;
pub mod run;

use std::path::PathBuf;
use std::time::Duration;

/// Routes in the paper-scale table (the paper's rrc01 RIB size).
pub const PAPER_ROUTES: usize = 390_000;

/// A seeded traffic mix the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only, 64-address frames, default (Zipf 1.0) keys: per-frame
    /// overhead of wire, bridge and dispatcher dominates; no FIFO
    /// overflows, so DRed, diversion and the update path stay idle.
    LookupSmall,
    /// Read-only, 1024-address frames (larger than a chip FIFO), Zipf-3
    /// keys: one chip takes most of the traffic, so diversion, DRed and
    /// bounce do real work.
    LookupSkew,
    /// Durable open-loop updates beside closed-loop lookups: coalesce,
    /// journal, pipeline and epoch publish do almost all the work.
    Churn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::LookupSmall, Workload::LookupSkew, Workload::Churn];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupSmall => "lookup-small",
            Workload::LookupSkew => "lookup-skew",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Addresses per lookup frame (before churn appends its probes).
    #[must_use]
    pub fn frame_len(self) -> usize {
        match self {
            Workload::LookupSkew => 1024,
            Workload::LookupSmall | Workload::Churn => 64,
        }
    }

    /// Zipf exponent of the lookup keys (`PacketGen`'s default is 1.0;
    /// 3 is the `ddos-skew` scenario's exponent).
    #[must_use]
    pub fn zipf_exponent(self) -> f64 {
        match self {
            Workload::LookupSkew => 3.0,
            Workload::LookupSmall | Workload::Churn => 1.0,
        }
    }

    /// Closed-loop lookup connections. The load process opens at most
    /// two connections in all, so churn keeps one for its updates.
    #[must_use]
    pub fn lookup_conns(self) -> usize {
        match self {
            Workload::Churn => 1,
            Workload::LookupSmall | Workload::LookupSkew => 2,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which traffic mix to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced per-layer replay instead of the end-to-end run.
    pub trace: bool,
    /// Routes in the generated table.
    pub routes: usize,
}

impl Args {
    /// Usage text for errors.
    pub const USAGE: &'static str = "usage: --workload lookup-small|lookup-skew|churn \
         --seed N --seconds S --trace 0|1 [--routes N]";

    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--routes N]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed flag.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut routes = PAPER_ROUTES;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                        return Err(bad("must be in (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    });
                }
                "--routes" => {
                    routes = value.parse::<usize>().map_err(|_| bad("not a count"))?;
                    if !(1_000..=4_000_000).contains(&routes) {
                        return Err(bad("must be in 1000..=4000000"));
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            routes,
        })
    }

    /// The measured window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Directory (inside the benchmark's own tree) for data dirs, results
/// and span files. Git ignores it.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Derives an independent sub-seed for input stream `stream`
/// (splitmix64 finaliser), so tables, keys and updates never share a
/// random sequence.
#[must_use]
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aborts the process if a run outlives `limit`: a hung router must
/// not hang the benchmark. The thread is never joined; it ends with the
/// process.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("loadbench: run exceeded {limit:?}; aborting");
        std::process::exit(3);
    });
}
