//! Starting the router and driving load at it over loopback TCP.
//!
//! The router is started the way `clue serve` starts it: an in-process
//! [`Server`] with [`ServerConfig`] at its defaults apart from the
//! listen address, and, for durable runs, a fresh [`Store`] seeded from
//! the table and wired in through `RouterService::start_with_journal`.
//! Lookups go through the public client ([`Connection`]); churn's update
//! stream speaks the wire protocol directly so that each frame's ack can
//! be timed on its own.

use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use clue_fib::{NextHop, RouteTable};
use clue_net::frame::{Frame, FrameType};
use clue_net::{wire, ClientConfig, Connection, Server, ServerConfig};
use clue_router::service::RouterService;
use clue_store::{Store, StoreConfig};

use crate::inputs::{ChurnInputs, Probe};

/// How long churn waits, after the window, for acks and probes.
pub const GRACE: Duration = Duration::from_secs(10);

/// Boots the router over `table` on a loopback port; with `data_dir`,
/// durably, into that (fresh) directory.
///
/// # Errors
///
/// Fails if the port cannot be bound or the data dir cannot be seeded.
pub fn boot(table: &RouteTable, data_dir: Option<&Path>) -> io::Result<Server> {
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let Some(dir) = data_dir else {
        return Server::start(table, &cfg);
    };
    let (mut store, recovered) = Store::open(dir, StoreConfig::default())?;
    if recovered.is_some() {
        return Err(io::Error::other(format!("{} is not fresh", dir.display())));
    }
    store.init_from_table(table, cfg.router.workers)?;
    let svc = RouterService::start_with_journal(table, &cfg.router, Box::new(store));
    Server::start_with_service(svc, 0, &cfg)
}

/// Opens a client connection to `server`.
///
/// # Errors
///
/// Fails if the handshake does not complete.
pub fn connect(server: &Server) -> io::Result<Connection> {
    Connection::connect(ClientConfig::to_addr(server.local_addr().to_string()))
}

/// Boots the router into a fresh `data_dir` (if given) and returns it
/// with its set-up time: seconds from the boot call to the first
/// correctly answered lookup.
///
/// # Errors
///
/// Fails if the boot fails or the first lookup is wrong.
pub fn boot_timed(
    table: &RouteTable,
    data_dir: Option<&Path>,
    first: (u32, Option<NextHop>),
) -> io::Result<(Server, f64)> {
    if let Some(dir) = data_dir {
        remove_dir(dir)?;
    }
    let t0 = Instant::now();
    let server = boot(table, data_dir)?;
    let mut conn = connect(&server)?;
    let got = conn.lookup(&[first.0])?;
    let setup_s = t0.elapsed().as_secs_f64();
    conn.close()?;
    if got != [first.1] {
        return Err(io::Error::other(format!(
            "first lookup of {:#x} answered {got:?}, expected {:?}",
            first.0, first.1
        )));
    }
    Ok((server, setup_s))
}

/// Removes `dir` if it exists.
///
/// # Errors
///
/// Fails if it exists and cannot be removed.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Observes each measured lookup frame; the traced run replays it
/// through the layers below the wire.
pub trait Tap: Send {
    /// Called after the wire answered `addrs`, sent at `sent` and
    /// answered at `answered`.
    fn frame(&mut self, addrs: &[u32], sent: Instant, answered: Instant);
}

impl Tap for () {
    fn frame(&mut self, _: &[u32], _: Instant, _: Instant) {}
}

/// The measured window: frames sent before `start` only warm up.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start of measurement.
    pub start: Instant,
    /// End of measurement (no closed-loop frame starts after it).
    pub end: Instant,
}

impl Window {
    /// A window of `length` after `warmup` from now.
    #[must_use]
    pub fn after(warmup: Duration, length: Duration) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + length,
        }
    }

    /// Length of the window, seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// What one lookup connection saw.
#[derive(Debug, Default, Clone)]
pub struct LookupStats {
    /// Round trip of each frame sent inside the window, µs.
    pub rtt_us: Vec<f64>,
    /// Workload addresses those frames carried.
    pub addrs: u64,
    /// Frames sent, measured or not.
    pub sent: u64,
    /// Frames (measured or not) with at least one wrong answer.
    pub wrong_frames: u64,
    /// Wrong answers (measured or not).
    pub wrong: u64,
    /// Frames that failed with an error.
    pub errors: u64,
}

impl LookupStats {
    /// Merges another connection's numbers into these.
    pub fn merge(&mut self, other: LookupStats) {
        self.rtt_us.extend(other.rtt_us);
        self.addrs += other.addrs;
        self.sent += other.sent;
        self.wrong_frames += other.wrong_frames;
        self.wrong += other.wrong;
        self.errors += other.errors;
    }

    /// Records a frame of `addrs` workload addresses, sent at `sent`
    /// and answered at `answered`, if it was sent inside `window`.
    fn measure(&mut self, window: &Window, addrs: usize, sent: Instant, answered: Instant) -> bool {
        let inside = sent >= window.start && sent < window.end;
        if inside {
            self.rtt_us.push(us(answered - sent));
            self.addrs += addrs as u64;
        }
        inside
    }
}

/// The keys a lookup connection cycles through, with their answers.
#[derive(Debug, Clone, Copy)]
pub struct Keys<'a> {
    /// Addresses.
    pub addrs: &'a [u32],
    /// Their expected answers.
    pub expected: &'a [Option<NextHop>],
}

impl Keys<'_> {
    /// The `i`-th of `n` equal slices (one per connection).
    #[must_use]
    pub fn slice(&self, i: usize, n: usize) -> Keys<'_> {
        let len = self.addrs.len() / n;
        Keys {
            addrs: &self.addrs[i * len..(i + 1) * len],
            expected: &self.expected[i * len..(i + 1) * len],
        }
    }
}

/// Closed loop: sends `frame_len`-address frames from `keys` (cycling)
/// until `window.end`, checking every answer.
pub fn lookup_loop<T: Tap>(
    server: &Server,
    keys: Keys<'_>,
    frame_len: usize,
    window: Window,
    tap: &mut T,
) -> LookupStats {
    let mut stats = LookupStats::default();
    let Ok(mut conn) = connect(server) else {
        stats.errors += 1;
        return stats;
    };
    let mut at = 0usize;
    let mut addrs = Vec::with_capacity(frame_len);
    let mut expected = Vec::with_capacity(frame_len);
    loop {
        let sent = Instant::now();
        if sent >= window.end {
            break;
        }
        addrs.clear();
        expected.clear();
        while addrs.len() < frame_len {
            addrs.push(keys.addrs[at]);
            expected.push(keys.expected[at]);
            at = (at + 1) % keys.addrs.len();
        }
        let reply = conn.lookup(&addrs);
        let answered = Instant::now();
        stats.sent += 1;
        match reply {
            Ok(got) => {
                let wrong = mismatches(&got, &expected);
                stats.wrong += wrong;
                stats.wrong_frames += u64::from(wrong > 0);
                if stats.measure(&window, addrs.len(), sent, answered) {
                    tap.frame(&addrs, sent, answered);
                }
            }
            Err(_) => stats.errors += 1,
        }
    }
    let _ = conn.close();
    stats
}

/// Runs `taps.len()` closed-loop lookup connections over disjoint slices
/// of `keys` and merges what they saw.
pub fn lookup_conns<T: Tap>(
    server: &Server,
    keys: Keys<'_>,
    frame_len: usize,
    window: Window,
    taps: &mut [T],
) -> LookupStats {
    let n = taps.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = taps
            .iter_mut()
            .enumerate()
            .map(|(i, tap)| {
                let keys = keys.slice(i, n);
                s.spawn(move || lookup_loop(server, keys, frame_len, window, tap))
            })
            .collect();
        let mut all = LookupStats::default();
        for h in handles {
            all.merge(h.join().expect("lookup connection thread panicked"));
        }
        all
    })
}

/// Number of answers in `got` that differ from `expected` (a reply of
/// the wrong length counts every expected answer as wrong).
#[must_use]
pub fn mismatches(got: &[Option<NextHop>], expected: &[Option<NextHop>]) -> u64 {
    if got.len() != expected.len() {
        return expected.len() as u64;
    }
    got.iter().zip(expected).filter(|(g, e)| g != e).count() as u64
}

/// Microseconds in `d`.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the churn workload saw.
#[derive(Debug, Default)]
pub struct ChurnStats {
    /// The lookup connection.
    pub lookups: LookupStats,
    /// Update frames offered.
    pub frames: u64,
    /// Per acked frame: due time to ack, µs.
    pub ack_us: Vec<f64>,
    /// Per visible frame: due time to the first reply showing its probe's
    /// post-frame answer, ms.
    pub visible_ms: Vec<f64>,
    /// Per sent frame: send time minus due time, µs.
    pub send_lag_us: Vec<f64>,
    /// Frames that failed in any of the ways below but `unprobed`.
    pub failed_frames: u64,
    /// Frames never acked, or refused with an error frame.
    pub unacked: u64,
    /// Frames whose ack reported dropped updates.
    pub dropped: u64,
    /// Frames with a probe that never became visible.
    pub invisible: u64,
    /// Frames without a probe (visibility not measurable).
    pub unprobed: u64,
    /// Probe answers that were not one of the probe's states in order.
    pub probe_wrong: u64,
    /// Addresses checked after the last frame became visible.
    pub verified: u64,
    /// Verification frames sent.
    pub verify_frames: u64,
    /// Verification frames with a wrong answer or an error.
    pub verify_failed: u64,
    /// Of those, answers that differed from the final table.
    pub verify_wrong: u64,
}

/// A sent frame's probe, awaiting visibility.
struct Pending {
    frame: usize,
    probe: Probe,
    /// Index into `probe.states` of the latest answer seen.
    pos: usize,
}

/// Timeline of the churn update stream, shared by its three threads.
struct Timeline {
    due: Vec<Instant>,
    acked: Vec<Option<Instant>>,
    refused: Vec<bool>,
    dropped: Vec<bool>,
    visible: Vec<Option<Instant>>,
    pending: Vec<Pending>,
    lag_us: Vec<f64>,
    probe_wrong: u64,
}

impl Timeline {
    fn new(due: Vec<Instant>) -> Timeline {
        let n = due.len();
        Timeline {
            due,
            acked: vec![None; n],
            refused: vec![false; n],
            dropped: vec![false; n],
            visible: vec![None; n],
            pending: Vec::new(),
            lag_us: Vec::with_capacity(n),
            probe_wrong: 0,
        }
    }

    /// Turns the finished timeline into churn's numbers: every frame is
    /// acked or failed, and every probed frame visible or failed.
    fn settle(self, probes: &[Option<Probe>], lookups: LookupStats) -> ChurnStats {
        let mut stats = ChurnStats {
            lookups,
            frames: self.due.len() as u64,
            send_lag_us: self.lag_us,
            probe_wrong: self.probe_wrong,
            ..ChurnStats::default()
        };
        for (k, &due) in self.due.iter().enumerate() {
            let unacked = match self.acked[k] {
                Some(t) if !self.refused[k] => {
                    stats.ack_us.push(us(t - due));
                    false
                }
                _ => true,
            };
            let invisible = match (&probes[k], self.visible[k]) {
                (None, _) => {
                    stats.unprobed += 1;
                    false
                }
                (Some(_), Some(t)) => {
                    stats.visible_ms.push(us(t - due) / 1e3);
                    false
                }
                (Some(_), None) => true,
            };
            stats.unacked += u64::from(unacked);
            stats.dropped += u64::from(self.dropped[k]);
            stats.invisible += u64::from(invisible);
            stats.failed_frames += u64::from(unacked || self.dropped[k] || invisible);
        }
        stats
    }
}

/// Records a probe answer `got`; returns false when it
/// contradicts the probe's order of states (an answer from no state, or
/// from a state before one already seen).
fn observe(p: &mut Pending, got: Option<NextHop>) -> bool {
    match p.probe.states[p.pos..].iter().position(|&s| s == got) {
        Some(step) => {
            p.pos += step;
            true
        }
        None => false,
    }
}

/// Runs churn: one connection sends `churn.frames` open loop, one
/// due every `churn.period` from `window.start`; the other sends
/// closed-loop lookups from `keys` with every pending probe appended.
/// After the window it waits up to [`GRACE`] for every ack and probe,
/// then checks [`ChurnInputs::verify_keys`] against the final table.
pub fn churn<T: Tap>(
    server: &Server,
    keys: Keys<'_>,
    frame_len: usize,
    churn: &ChurnInputs,
    window: Window,
    tap: &mut T,
) -> ChurnStats {
    let n = churn.frames.len();
    let due: Vec<Instant> = (0..n)
        .map(|k| window.start + churn.period * u32::try_from(k).expect("frame count fits u32"))
        .collect();
    let line = Mutex::new(Timeline::new(due.clone()));
    let give_up = window.end.max(due.last().copied().unwrap_or(window.end)) + GRACE;
    let sender_done = AtomicBool::new(false);

    let lookups = std::thread::scope(|s| {
        let line = &line;
        let sender_done = &sender_done;
        s.spawn(move || {
            send_updates(server, churn, line, give_up);
            sender_done.store(true, Ordering::SeqCst);
        });
        s.spawn(move || {
            probe_lookups(
                server,
                keys,
                frame_len,
                window,
                give_up,
                line,
                sender_done,
                tap,
            )
        })
        .join()
        .expect("churn lookup thread panicked")
    });

    let mut stats = line
        .into_inner()
        .expect("churn threads joined")
        .settle(&churn.probes, lookups);
    if stats.invisible == 0 && stats.unacked == 0 {
        verify_final(server, churn, frame_len, &mut stats);
    }
    stats
}

/// Checks the verify keys against the final table, once every frame is
/// visible (so every later epoch holds the whole stream).
fn verify_final(server: &Server, churn: &ChurnInputs, frame_len: usize, stats: &mut ChurnStats) {
    let Ok(mut conn) = connect(server) else {
        stats.lookups.errors += 1;
        return;
    };
    for (addrs, expected) in churn
        .verify_keys
        .chunks(frame_len)
        .zip(churn.verify_expected.chunks(frame_len))
    {
        let wrong = match conn.lookup(addrs) {
            Ok(got) => mismatches(&got, expected),
            Err(_) => expected.len() as u64,
        };
        stats.verify_wrong += wrong;
        stats.verify_failed += u64::from(wrong > 0);
        stats.verify_frames += 1;
        stats.verified += addrs.len() as u64;
    }
    let _ = conn.close();
}

/// The update connection: handshake, then each frame at its due time,
/// with a reader thread timestamping acks.
fn send_updates(server: &Server, churn: &ChurnInputs, line: &Mutex<Timeline>, give_up: Instant) {
    let connected = dial(server).and_then(|stream| Ok((stream.try_clone()?, stream)));
    let (reader, stream) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("churn: update connection failed: {e}");
            return;
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| read_acks(reader, churn.frames.len(), line, give_up));
        for (k, frame) in churn.frames.iter().enumerate() {
            let due = line.lock().expect("timeline lock").due[k];
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let update = Frame {
                kind: FrameType::Update,
                seq: k as u64 + 1,
                payload: wire::encode_updates(frame),
            };
            let sent = Instant::now();
            if update.write_to(&mut &stream).is_err() {
                break;
            }
            let mut l = line.lock().expect("timeline lock");
            l.lag_us.push(us(sent.saturating_duration_since(due)));
            if let Some(probe) = &churn.probes[k] {
                l.pending.push(Pending {
                    frame: k,
                    probe: probe.clone(),
                    pos: 0,
                });
            }
        }
    });
    let _ = Frame::empty(FrameType::Shutdown, 0).write_to(&mut &stream);
}

/// Dials `server` and performs the `Hello` handshake from a fresh
/// stream (no acked history).
fn dial(server: &Server) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    Frame {
        kind: FrameType::Hello,
        seq: 0,
        payload: wire::encode_u64(0),
    }
    .write_to(&mut &stream)?;
    let reply = Frame::read_from(&mut &stream)?;
    if reply.kind != FrameType::HelloAck {
        return Err(io::Error::other(format!(
            "expected HelloAck, got {:?}",
            reply.kind
        )));
    }
    Ok(stream)
}

/// Reads update acks until all `n` frames are settled or `give_up`.
fn read_acks(stream: TcpStream, n: usize, line: &Mutex<Timeline>, give_up: Instant) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut settled = 0usize;
    while settled < n && Instant::now() < give_up {
        let frame = match Frame::read_from(&mut &stream) {
            Ok(f) => f,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        };
        let now = Instant::now();
        let Some(k) = usize::try_from(frame.seq)
            .ok()
            .and_then(|s| s.checked_sub(1))
        else {
            continue;
        };
        let mut l = line.lock().expect("timeline lock");
        if k >= n || l.acked[k].is_some() {
            continue;
        }
        match frame.kind {
            FrameType::UpdateAck => {
                l.acked[k] = Some(now);
                l.dropped[k] = wire::decode_ack(&frame.payload).map_or(true, |a| a.dropped > 0);
            }
            FrameType::Error => {
                l.acked[k] = Some(now);
                l.refused[k] = true;
            }
            _ => continue,
        }
        settled += 1;
    }
}

/// The churn lookup connection: closed-loop frames of `frame_len` keys
/// plus every pending probe, until the window has ended and every probe
/// settled (or `give_up`).
#[allow(clippy::too_many_arguments)]
fn probe_lookups<T: Tap>(
    server: &Server,
    keys: Keys<'_>,
    frame_len: usize,
    window: Window,
    give_up: Instant,
    line: &Mutex<Timeline>,
    sender_done: &AtomicBool,
    tap: &mut T,
) -> LookupStats {
    let mut stats = LookupStats::default();
    let Ok(mut conn) = connect(server) else {
        stats.errors += 1;
        return stats;
    };
    let mut at = 0usize;
    let mut addrs = Vec::with_capacity(frame_len * 2);
    let mut expected = Vec::with_capacity(frame_len);
    loop {
        let sent = Instant::now();
        let probes: Vec<(usize, u32)> = {
            let l = line.lock().expect("timeline lock");
            if sent >= give_up
                || (sent >= window.end
                    && sender_done.load(Ordering::SeqCst)
                    && l.pending.is_empty())
            {
                break;
            }
            l.pending.iter().map(|p| (p.frame, p.probe.addr)).collect()
        };
        addrs.clear();
        expected.clear();
        while addrs.len() < frame_len {
            addrs.push(keys.addrs[at]);
            expected.push(keys.expected[at]);
            at = (at + 1) % keys.addrs.len();
        }
        addrs.extend(probes.iter().map(|&(_, a)| a));
        let reply = conn.lookup(&addrs);
        let answered = Instant::now();
        stats.sent += 1;
        let got = match reply {
            Ok(got) if got.len() == addrs.len() => got,
            Ok(_) | Err(_) => {
                stats.errors += 1;
                continue;
            }
        };
        let mut wrong = mismatches(&got[..frame_len], &expected);
        {
            let mut l = line.lock().expect("timeline lock");
            let Timeline {
                pending,
                visible,
                probe_wrong,
                ..
            } = &mut *l;
            for (&(frame, _), &answer) in probes.iter().zip(&got[frame_len..]) {
                let Some(p) = pending.iter_mut().find(|p| p.frame == frame) else {
                    continue;
                };
                if !observe(p, answer) {
                    *probe_wrong += 1;
                    wrong += 1;
                }
                if answer == p.probe.post() {
                    visible[frame] = Some(answered);
                }
            }
            pending.retain(|p| visible[p.frame].is_none());
        }
        stats.wrong += wrong;
        stats.wrong_frames += u64::from(wrong > 0);
        // Probes are the benchmark's own addresses, not workload: the
        // rate counts the frame's workload keys only.
        if stats.measure(&window, frame_len, sent, answered) {
            tap.frame(&addrs, sent, answered);
        }
    }
    let _ = conn.close();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(states: &[u16]) -> Probe {
        Probe {
            addr: 0x0A00_0001,
            states: states.iter().map(|&h| Some(NextHop(h))).collect(),
        }
    }

    /// Three frames, all acked and visible, except as `plant` changes.
    fn settled(plant: impl FnOnce(&mut Timeline)) -> ChurnStats {
        let t0 = Instant::now();
        let due: Vec<Instant> = (0..3).map(|k| t0 + Duration::from_millis(k)).collect();
        let mut line = Timeline::new(due.clone());
        for (k, &d) in due.iter().enumerate() {
            line.acked[k] = Some(d + Duration::from_millis(1));
            line.visible[k] = Some(d + Duration::from_millis(2));
        }
        plant(&mut line);
        let probes = vec![Some(probe(&[1, 2])); 3];
        line.settle(&probes, LookupStats::default())
    }

    #[test]
    fn complete_timeline_has_no_failures() {
        let s = settled(|_| {});
        assert_eq!(
            (s.failed_frames, s.ack_us.len(), s.visible_ms.len()),
            (0, 3, 3)
        );
    }

    #[test]
    fn planted_missing_ack_is_a_failure() {
        let s = settled(|l| {
            l.acked[1] = None;
            l.visible[1] = None;
        });
        assert_eq!((s.unacked, s.failed_frames, s.ack_us.len()), (1, 1, 2));
    }

    #[test]
    fn refused_frame_and_dropped_update_are_failures() {
        let s = settled(|l| {
            l.refused[0] = true;
            l.dropped[2] = true;
        });
        assert_eq!((s.unacked, s.dropped, s.failed_frames), (1, 1, 2));
    }

    #[test]
    fn probe_never_visible_is_a_failure() {
        let s = settled(|l| l.visible[2] = None);
        assert_eq!(
            (s.invisible, s.failed_frames, s.visible_ms.len()),
            (1, 1, 2)
        );
    }

    #[test]
    fn probe_answers_only_move_forward() {
        let mut p = Pending {
            frame: 0,
            probe: probe(&[1, 2, 3]),
            pos: 0,
        };
        assert!(observe(&mut p, Some(NextHop(1))));
        assert!(observe(&mut p, Some(NextHop(2))));
        assert!(observe(&mut p, Some(NextHop(2))));
        assert!(!observe(&mut p, Some(NextHop(1))), "moved back");
        assert!(!observe(&mut p, Some(NextHop(9))), "not a state");
        assert!(observe(&mut p, Some(NextHop(3))));
    }
}
