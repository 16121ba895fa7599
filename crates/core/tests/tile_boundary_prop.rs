//! Tile-boundary geometry properties: every address the tiling could
//! plausibly get wrong — tile-cut straddlers, the /0 default route,
//! /32 host routes at range extremes, and split-then-merge churn — is
//! checked against the naive flat-scan reference.
//!
//! Capacities are kept tiny (4–64 intervals) so even small generated
//! tables force many tiles, many cuts, and real split/merge traffic.

use clue_compress::TableDiff;
use clue_core::tile::{TileConfig, TileSet};
use clue_core::LookupPlane;
use clue_fib::{NextHop, Prefix, Route};
use proptest::prelude::*;

/// A prefix universe spanning the adversarial geometry: the default
/// route, disjoint /8s, nested /16s, and /32 host routes at the very
/// edges of their /8 (so a match interval ends exactly on a cut
/// candidate).
fn universe(i: u8) -> Prefix {
    match usize::from(i) % 81 {
        0 => Prefix::root(),
        x if x < 33 => Prefix::new(((x - 1) as u32) << 24, 8),
        x if x < 65 => Prefix::new((((x - 33) as u32) << 24) | (1 << 16), 16),
        x if x < 73 => Prefix::new((((x - 65) as u32) << 24) | 0x00FF_FFFF, 32),
        x => Prefix::new(((x - 73) as u32) << 24, 32),
    }
}

fn flat_lpm(routes: &[Route], addr: u32) -> Option<Route> {
    routes
        .iter()
        .filter(|r| r.prefix.contains_addr(addr))
        .max_by_key(|r| r.prefix.len())
        .copied()
}

/// Probes aimed at the tiling itself: both sides of every tile cut,
/// plus every route's interval ends and the addresses one past them.
fn boundary_probes(set: &TileSet, routes: &[Route]) -> Vec<u32> {
    let mut addrs = vec![0u32, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];
    for t in set.tiles() {
        addrs.extend([
            t.start(),
            t.end(),
            t.start().wrapping_sub(1),
            t.end().wrapping_add(1),
        ]);
    }
    for r in routes {
        let (lo, hi) = (r.prefix.low(), r.prefix.high());
        addrs.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
    }
    addrs
}

fn dedup_routes(entries: &[(u8, u8)]) -> Vec<Route> {
    let mut routes: Vec<Route> = Vec::new();
    for &(i, nh) in entries {
        let prefix = universe(i);
        if !routes.iter().any(|r| r.prefix == prefix) {
            routes.push(Route::new(prefix, NextHop(u16::from(nh) % 8)));
        }
    }
    routes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A freshly built tile set answers every cut-straddling and
    /// route-boundary probe like the flat scan, at any capacity.
    #[test]
    fn cut_straddlers_match_flat_scan(
        entries in prop::collection::vec((any::<u8>(), any::<u8>()), 1..48),
        capacity in 4usize..64,
        random_probes in prop::collection::vec(any::<u32>(), 32),
    ) {
        let routes = dedup_routes(&entries);
        let set = TileSet::build(TileConfig::with_capacity(capacity), &routes);
        set.check_invariants();
        let plane = set.plane();
        let mut probes = boundary_probes(&set, &routes);
        probes.extend_from_slice(&random_probes);
        for addr in probes {
            prop_assert_eq!(
                plane.lookup(addr),
                flat_lpm(&routes, addr),
                "addr {:#010x} over {} tiles (capacity {})",
                addr, set.tile_count(), capacity
            );
        }
    }

    /// Incremental maintenance under random announce/withdraw churn:
    /// after every batch the invariants hold and the boundary probes
    /// agree with the flat scan of the tracked route set.
    #[test]
    fn churned_set_tracks_flat_scan(
        base in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        ops in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 1..48),
        capacity in 4usize..48,
    ) {
        let mut routes = dedup_routes(&base);
        let mut set = TileSet::build(TileConfig::with_capacity(capacity), &routes);
        for batch in ops.chunks(8) {
            let pre = routes.clone();
            for &(i, announce, nh) in batch {
                let prefix = universe(i);
                let held = routes.iter().position(|r| r.prefix == prefix);
                match (announce, held) {
                    (true, Some(at)) => {
                        routes[at] = Route::new(prefix, NextHop(u16::from(nh) % 8));
                    }
                    (true, None) => {
                        routes.push(Route::new(prefix, NextHop(u16::from(nh) % 8)));
                    }
                    (false, Some(at)) => {
                        routes.remove(at);
                    }
                    (false, None) => {}
                }
            }
            // Canonical set-diff of the batch (each prefix in at most
            // one list), the shape `CompressedFib::apply` emits.
            let mut diff = TableDiff {
                inserts: Vec::new(),
                deletes: Vec::new(),
                modifies: Vec::new(),
            };
            for r in &routes {
                match pre.iter().find(|p| p.prefix == r.prefix) {
                    None => diff.inserts.push(*r),
                    Some(p) if p.next_hop != r.next_hop => diff.modifies.push(*r),
                    Some(_) => {}
                }
            }
            for p in &pre {
                if !routes.iter().any(|r| r.prefix == p.prefix) {
                    diff.deletes.push(p.prefix);
                }
            }
            set.apply(&diff);
            set.check_invariants();
            let plane = set.plane();
            for addr in boundary_probes(&set, &routes) {
                prop_assert_eq!(
                    plane.lookup(addr),
                    flat_lpm(&routes, addr),
                    "addr {:#010x} after churn (capacity {})",
                    addr, capacity
                );
            }
        }
    }

    /// Split-then-merge: a burst of /24s into one narrow region forces
    /// splits; withdrawing the burst forces merges back down; the
    /// surviving answers match the flat scan at every step.
    #[test]
    fn split_then_merge_round_trip(
        burst_len in 24u32..96,
        region in 0u8..200,
        capacity in 4usize..24,
    ) {
        let base = vec![
            Route::new(Prefix::root(), NextHop(1)),
            Route::new(Prefix::new(u32::from(region) << 24, 8), NextHop(2)),
        ];
        let mut set = TileSet::build(TileConfig::with_capacity(capacity), &base);
        let tiles_before = set.tile_count();

        let burst: Vec<Route> = (0..burst_len)
            .map(|i| {
                Route::new(
                    Prefix::new((u32::from(region) << 24) | (i << 8), 24),
                    NextHop((i % 6 + 3) as u16),
                )
            })
            .collect();
        let grow = set.apply(&TableDiff {
            inserts: burst.clone(),
            deletes: Vec::new(),
            modifies: Vec::new(),
        });
        set.check_invariants();
        prop_assert!(grow.splits > 0, "burst of {} never split: {:?}", burst_len, grow);
        let mut now = base.clone();
        now.extend_from_slice(&burst);
        let plane = set.plane();
        for addr in boundary_probes(&set, &now) {
            prop_assert_eq!(plane.lookup(addr), flat_lpm(&now, addr));
        }

        let shrink = set.apply(&TableDiff {
            inserts: Vec::new(),
            deletes: burst.iter().map(|r| r.prefix).collect(),
            modifies: Vec::new(),
        });
        set.check_invariants();
        prop_assert!(shrink.merges > 0, "withdraw never merged: {:?}", shrink);
        prop_assert!(
            set.tile_count() <= tiles_before + 1,
            "{} tiles linger after drain (started at {})",
            set.tile_count(),
            tiles_before
        );
        let plane = set.plane();
        for addr in boundary_probes(&set, &base) {
            prop_assert_eq!(plane.lookup(addr), flat_lpm(&base, addr));
        }
    }
}
