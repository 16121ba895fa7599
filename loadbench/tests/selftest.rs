//! Self-tests of the benchmark at small scale: a planted wrong reference
//! answer counts as a failure, every metric `BENCHMARK.json` names is
//! printed with its unit on two seeds, and each workload still exercises
//! its own layer. (A planted missing ack is tested beside the churn
//! accounting, in `src/drive.rs`.)

use std::process::Command;
use std::sync::Mutex;

use clue_fib::NextHop;
use clue_loadbench::report::Report;
use clue_loadbench::{inputs, run, Args, Workload};

const ROUTES: usize = 5_000;

/// Runs of the binaries are serialised so that they do not compete for
/// the cores they time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn planted_wrong_reference_answer_is_a_failure() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let args = Args {
        workload: Workload::LookupSmall,
        seed: 7,
        seconds: 1.0,
        trace: false,
        routes: ROUTES,
    };
    let mut inputs = inputs::generate(args.workload, args.seed, args.routes, args.window());
    // Key 100 is in the first connection's slice, so it is sent.
    let planted = &mut inputs.expected[100];
    *planted = Some(NextHop(planted.map_or(1, |h| h.0 ^ 0x8000)));
    let measured = run::measure(&args, &inputs, 1, &mut [(), ()]).expect("run completes");
    let mut report = Report::default();
    run::account(&inputs, &measured, &mut report);
    assert!(report.wrong > 0, "the planted answer was never counted");
    assert!(report.failed > 0 && report.failed <= report.attempted);
    assert!(!report.correct());
}

#[test]
fn lookup_small_prints_every_metric_and_stays_idle() {
    let (e2e, _) = check_workload("lookup-small", &[]);
    assert_eq!(
        fact(&e2e, "diversions"),
        0,
        "128 addresses in flight overflowed a FIFO"
    );
    assert_eq!(fact(&e2e, "epochs"), 0);
    assert_eq!(fact(&e2e, "journal_appends"), 0);
}

#[test]
fn lookup_skew_prints_every_metric_and_diverts() {
    let (e2e, layers) = check_workload("lookup-skew", &[]);
    assert!(fact(&e2e, "diversions") > 0, "no home FIFO overflowed");
    assert!(metric(&layers, "router.diversion_frac") > 0.0);
    assert_eq!(fact(&e2e, "epochs"), 0);
}

#[test]
fn churn_prints_every_metric_and_publishes() {
    let churn_only = [
        ("update_ack_p50_us", "us"),
        ("update_ack_p99_us", "us"),
        ("update_visible_p50_ms", "ms"),
        ("update_visible_p99_ms", "ms"),
        ("send_lag_p99_us", "us"),
    ];
    let (e2e, layers) = check_workload("churn", &churn_only);
    assert!(fact(&e2e, "epochs") > 0, "no epoch published");
    assert!(fact(&e2e, "journal_appends") > 0, "nothing journaled");
    assert!(fact(&e2e, "update_frames") > 0);
    assert!(metric(&layers, "router.updates_per_epoch") > 0.0);
}

/// Runs `workload` end to end (seed 1) and traced (seed 2), asserts both
/// runs are correct with no failure and print every metric named in
/// `BENCHMARK.json` with its unit, plus the printed-only metrics; returns
/// both outputs.
fn check_workload(workload: &str, extra: &[(&str, &str)]) -> (String, String) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let e2e = run_bin(env!("CARGO_BIN_EXE_e2e"), workload, 1, 0);
    let layers = run_bin(env!("CARGO_BIN_EXE_layers"), workload, 2, 1);
    for (out, section) in [(&e2e, "end_to_end"), (&layers, "per_layer")] {
        let last = out.lines().last().expect("a last line");
        assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
        assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
        let listed = listed(&spec, section);
        assert_eq!(
            last.matches("{\"value\":").count(),
            listed.len(),
            "{workload} {section}: {last}"
        );
        for (name, unit) in &listed {
            let key = format!("\"{name}\":{{\"value\":");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let rest = &last[at + key.len()..];
            assert!(
                rest.split('}')
                    .next()
                    .is_some_and(|m| m.ends_with(&format!("\"unit\":\"{unit}\""))),
                "{workload}: {name} not in {unit}"
            );
        }
    }
    let printed_only = [("lookup_p99_us", "us"), ("failed_frac", "ratio")];
    for (name, unit) in printed_only.iter().chain(extra) {
        let line = format!("metric {name} ");
        let found = e2e.lines().find(|l| l.starts_with(&line));
        let found = found.unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert!(
            found.contains(&format!(" {unit} n=")),
            "{workload}: {found}"
        );
    }
    (e2e, layers)
}

fn run_bin(exe: &str, workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .args(["--routes", &ROUTES.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{exe} {workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric listed under `section` of the spec
/// (one object per line, as `BENCHMARK.json` is written).
fn listed(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let key = format!("\"{key}\": \"");
        let at = obj.find(&key).expect("field present") + key.len();
        obj[at..]
            .split('"')
            .next()
            .expect("field closes")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// A router counter from the `envelope` line.
fn fact(out: &str, key: &str) -> u64 {
    let envelope = out
        .lines()
        .find(|l| l.starts_with("envelope "))
        .expect("an envelope line");
    let key = format!("\"{key}\":");
    let at = envelope
        .find(&key)
        .unwrap_or_else(|| panic!("{key} in envelope"))
        + key.len();
    envelope[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .expect("a count")
}

/// A metric's value from its `metric` line.
fn metric(out: &str, name: &str) -> f64 {
    let line = format!("metric {name} ");
    out.lines()
        .find_map(|l| l.strip_prefix(&line))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} printed"))
}
