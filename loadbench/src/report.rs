//! Metrics, the run envelope, and the output format.
//!
//! A run prints one `metric` line per measured value (name, value, unit,
//! sample count), one `envelope` line, and as its last line the JSON
//! object the benchmark contract asks for. The same document, envelope
//! included, is written under [`out_dir`](crate::out_dir).

use std::fmt::Write as _;
use std::path::Path;

use crate::Args;

/// Output schema version.
pub const SCHEMA: &str = "clue-loadbench/1";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the last line (the contract's set for this
    /// run kind).
    pub headline: Vec<Metric>,
    /// Metrics printed and saved but left out of the last line, because
    /// they exist only on some workloads.
    pub extra: Vec<Metric>,
    /// Operations attempted (lookup and update frames).
    pub attempted: u64,
    /// Operations failed: a wrong answer, an error, a lost or refused
    /// reply, a dropped update, or a probe that never became visible.
    pub failed: u64,
    /// Answers that contradicted the reference (any makes the run
    /// incorrect).
    pub wrong: u64,
    /// Checks that failed outright, with what failed.
    pub broken: Vec<String>,
    /// Run facts for the envelope, as `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Adds a last-line metric.
    pub fn headline(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.headline.push(metric(name, value, unit, samples));
    }

    /// Adds a printed-only metric.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.extra.push(metric(name, value, unit, samples));
    }

    /// Records a run fact for the envelope.
    pub fn fact(&mut self, key: &str, json_value: impl ToString) {
        self.facts.push((key.to_owned(), json_value.to_string()));
    }

    /// Records a failed check.
    pub fn broken(&mut self, what: impl Into<String>) {
        self.broken.push(what.into());
    }

    /// Whether every answer matched and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.broken.is_empty()
    }

    /// The contract's last line.
    #[must_use]
    pub fn last_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.headline.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The envelope: schema, source revision, seed, scale, cores and
    /// repetition counts, plus the run's facts.
    #[must_use]
    pub fn envelope(&self, args: &Args) -> String {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let mut s = format!(
            "{{\"schema\":\"{SCHEMA}\",\"rev\":\"{}\",\"workload\":\"{}\",\"seed\":{},\
             \"routes\":{},\"cores\":{cores},\"seconds\":{},\"trace\":{}",
            source_rev(),
            args.workload.name(),
            args.seed,
            args.routes,
            json_number(args.seconds),
            args.trace,
        );
        for (k, v) in &self.facts {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        let _ = write!(
            s,
            ",\"wrong\":{},\"broken\":[{}]}}",
            self.wrong,
            self.broken
                .iter()
                .map(|b| format!("\"{}\"", b.replace(['"', '\\'], "'")))
                .collect::<Vec<_>>()
                .join(",")
        );
        s
    }

    /// Prints every metric line, the envelope and the last line, and
    /// saves them as `<name>.txt` under `dir` (a failure to save is
    /// reported on stderr and does not fail the run).
    pub fn emit(&self, args: &Args, dir: &Path, name: &str) {
        let mut text = String::new();
        for m in self.headline.iter().chain(&self.extra) {
            let _ = writeln!(
                text,
                "metric {} {} {} n={}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        for b in &self.broken {
            let _ = writeln!(text, "check-failed {b}");
        }
        let _ = writeln!(text, "envelope {}", self.envelope(args));
        text.push_str(&self.last_line());
        text.push('\n');
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), &text))
        {
            eprintln!("loadbench: could not save {name}: {e}");
        }
        print!("{text}");
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// A finite JSON number (a non-finite value, which no metric should
/// produce, is written as 0 rather than breaking the document).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Nearest-rank quantile `q` of `values` (sorted in place); 0 when empty.
#[must_use]
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
#[must_use]
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Identifies the router source the benchmark built: an FNV-1a digest of
/// every file under `crates/` and `vendor/` (paths and bytes, in sorted
/// order). The benchmark runs in checkouts that are not git
/// repositories, so this stands in for the git revision.
#[must_use]
pub fn source_rev() -> String {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
