//! Seeded inputs and the reference answers they are checked against.
//!
//! Everything here runs before any timer starts, and the router only
//! ever receives what this module generated: the table, lookup keys and
//! update frames. Expected answers come from models that share no code
//! with the router's compression, partitioning or lookup planes: a
//! binary trie over the *uncompressed* table for static answers, and a
//! longest-match probe of every prefix length over an ordered map for
//! tables that change.

use std::collections::HashMap;
use std::time::Duration;

use clue_fib::gen::FibGen;
use clue_fib::{mask, NextHop, Prefix, RouteTable, Update};
use clue_traffic::{PacketGen, UpdateGen};

use crate::{sub_seed, Workload};

/// Lookup keys generated per run; connections cycle through them.
pub const KEY_POOL: usize = 1 << 19;
/// Updates per churn update frame.
pub const UPDATE_FRAME: usize = 16;
/// Churn's offered update-frame rate (frames per second): about half
/// the rate at which one durable connection saturated at paper scale on
/// a 2-core machine (~18 frames/s, one epoch publish per frame).
pub const UPDATE_FRAMES_PER_S: f64 = 8.0;
/// Addresses checked against the final table once churn has drained.
pub const VERIFY_KEYS: usize = 1 << 15;

/// Input stream ids for [`sub_seed`].
const TABLE: u64 = 1;
const KEYS: u64 = 2;
const UPDATES: u64 = 3;
const VERIFY: u64 = 4;

/// One address whose answer the churn stream changes in exactly one
/// frame, and the answers it passes through while that frame applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// The probed address.
    pub addr: u32,
    /// Answers in order: before the frame, after each update of the
    /// frame that changes it. The last is the post-frame answer and
    /// occurs nowhere earlier, so seeing it proves the frame is live.
    pub states: Vec<Option<NextHop>>,
}

impl Probe {
    /// The answer once the whole frame is visible.
    #[must_use]
    pub fn post(&self) -> Option<NextHop> {
        *self.states.last().expect("a probe has at least two states")
    }
}

/// The churn workload's update stream and its checks.
#[derive(Debug, Clone)]
pub struct ChurnInputs {
    /// Update frames, sent in order at [`ChurnInputs::period`] spacing.
    pub frames: Vec<Vec<Update>>,
    /// Each frame's probe, when the frame changes some address that no
    /// other frame touches. The last frame always has one.
    pub probes: Vec<Option<Probe>>,
    /// Spacing of frame due times (open loop).
    pub period: Duration,
    /// The original table after every frame, applied in order.
    pub final_table: RouteTable,
    /// Addresses checked after the last frame is visible.
    pub verify_keys: Vec<u32>,
    /// Their answers under [`ChurnInputs::final_table`].
    pub verify_expected: Vec<Option<NextHop>>,
    /// Lookup keys dropped from the pool because an update covers them
    /// (their answer is then a moving target).
    pub excluded_keys: usize,
}

/// Every input of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The routing table the router boots with.
    pub table: RouteTable,
    /// Lookup keys, cycled through by the lookup connections.
    pub keys: Vec<u32>,
    /// Each key's answer; constant for the whole run.
    pub expected: Vec<Option<NextHop>>,
    /// The update stream (churn only).
    pub churn: Option<ChurnInputs>,
}

/// The paper-scale table, generated the way `clue_bench::standard_rib`
/// generates it, from `seed`.
#[must_use]
pub fn table(seed: u64, routes: usize) -> RouteTable {
    FibGen::new(sub_seed(seed, TABLE)).routes(routes).generate()
}

/// Longest match by probing every prefix length, longest first.
#[must_use]
pub fn lpm(table: &RouteTable, addr: u32) -> Option<NextHop> {
    (0..=32u8)
        .rev()
        .find_map(|len| table.get(Prefix::new(addr & mask(len), len)))
}

/// Answers of `keys` under `table`, from a trie over the table as given.
#[must_use]
pub fn answers(table: &RouteTable, keys: &[u32]) -> Vec<Option<NextHop>> {
    let trie = table.to_trie();
    keys.iter()
        .map(|&a| trie.lookup(a).map(|(_, &nh)| nh))
        .collect()
}

/// Generates the inputs of `workload` at `seed`, with enough update
/// frames to fill `window` at [`UPDATE_FRAMES_PER_S`].
#[must_use]
pub fn generate(workload: Workload, seed: u64, routes: usize, window: Duration) -> Inputs {
    let table = table(seed, routes);
    let mut keys = PacketGen::new(sub_seed(seed, KEYS))
        .zipf_exponent(workload.zipf_exponent())
        .generate(&table, KEY_POOL);
    let churn = (workload == Workload::Churn).then(|| {
        let frames = (window.as_secs_f64() * UPDATE_FRAMES_PER_S).ceil() as usize;
        let churn = churn(&table, seed, frames.max(1));
        let before = keys.len();
        keys.retain(|&a| !churn.covers(a, None));
        churn.inputs(before - keys.len(), &table, seed)
    });
    let expected = answers(&table, &keys);
    Inputs {
        table,
        keys,
        expected,
        churn,
    }
}

/// The update stream and an index of which frames touch which prefix.
struct Stream {
    frames: Vec<Vec<Update>>,
    probes: Vec<Option<Probe>>,
    touched: HashMap<Prefix, Vec<usize>>,
    final_table: RouteTable,
}

impl Stream {
    /// Whether a frame other than `except` updates a prefix covering
    /// `addr`.
    fn covers(&self, addr: u32, except: Option<usize>) -> bool {
        (0..=32u8).any(|len| {
            self.touched
                .get(&Prefix::new(addr & mask(len), len))
                .is_some_and(|frames| frames.iter().any(|&f| Some(f) != except))
        })
    }

    fn inputs(self, excluded_keys: usize, table: &RouteTable, seed: u64) -> ChurnInputs {
        let verify_keys = PacketGen::new(sub_seed(seed, VERIFY)).generate(table, VERIFY_KEYS);
        let verify_expected = answers(&self.final_table, &verify_keys);
        ChurnInputs {
            frames: self.frames,
            probes: self.probes,
            period: Duration::from_secs_f64(1.0 / UPDATE_FRAMES_PER_S),
            final_table: self.final_table,
            verify_keys,
            verify_expected,
            excluded_keys,
        }
    }
}

/// The seed's update stream against `table`, `frames` frames of
/// [`UPDATE_FRAME`] `UpdateGen` updates (the BGP mix standing in for the
/// paper's RIPE trace).
#[must_use]
pub fn update_frames(table: &RouteTable, seed: u64, frames: usize) -> Vec<Vec<Update>> {
    UpdateGen::new(sub_seed(seed, UPDATES))
        .generate(table, frames * UPDATE_FRAME)
        .chunks(UPDATE_FRAME)
        .map(<[Update]>::to_vec)
        .collect()
}

/// Builds `frames` frames of the update stream and picks a probe for
/// each.
fn churn(table: &RouteTable, seed: u64, frames: usize) -> Stream {
    let mut stream = Stream {
        frames: update_frames(table, seed, frames),
        probes: Vec::new(),
        touched: HashMap::new(),
        final_table: table.clone(),
    };
    for (k, frame) in stream.frames.iter().enumerate() {
        for u in frame {
            stream.touched.entry(u.prefix()).or_default().push(k);
        }
    }
    let mut probes = Vec::with_capacity(frames);
    for (k, frame) in stream.frames.iter().enumerate() {
        let mut candidates: Vec<Probe> = Vec::new();
        for u in frame {
            let p = u.prefix();
            for addr in [p.low(), p.low() + (p.high() - p.low()) / 2, p.high()] {
                if !stream.covers(addr, Some(k)) && candidates.iter().all(|c| c.addr != addr) {
                    let states = vec![lpm(&stream.final_table, addr)];
                    candidates.push(Probe { addr, states });
                }
            }
        }
        for &u in frame {
            stream.final_table.apply(u);
            for c in &mut candidates {
                if u.prefix().contains_addr(c.addr) {
                    let now = lpm(&stream.final_table, c.addr);
                    if c.states.last() != Some(&now) {
                        c.states.push(now);
                    }
                }
            }
        }
        probes.push(candidates.into_iter().find(|c| {
            let (post, earlier) = c.states.split_last().expect("states start non-empty");
            !earlier.is_empty() && !earlier.contains(post)
        }));
    }
    // Visibility of the last frame is what proves the stream fully
    // applied, so the stream ends at its last frame with a probe.
    let kept = probes
        .iter()
        .rposition(Option::is_some)
        .map_or(0, |i| i + 1);
    assert!(
        kept > 0,
        "no update frame changes an address only it touches"
    );
    if kept < frames {
        probes.truncate(kept);
        stream.frames.truncate(kept);
        stream.final_table = table.clone();
        for &u in stream.frames.iter().flatten() {
            stream.final_table.apply(u);
        }
    }
    stream.probes = probes;
    stream
}
