use super::*;
use clue_compress::onrtc;
use clue_fib::gen::FibGen;
use clue_fib::Prefix;

fn flat_lpm(routes: &[Route], addr: u32) -> Option<Route> {
    routes
        .iter()
        .filter(|r| r.prefix.contains_addr(addr))
        .max_by_key(|r| r.prefix.len())
        .copied()
}

fn probe_addrs(routes: &[Route], set: &TileSet) -> Vec<u32> {
    let mut addrs = vec![0u32, 1, 0x8000_0000, u32::MAX - 1, u32::MAX];
    for r in routes {
        let (lo, hi) = (r.prefix.low(), r.prefix.high());
        addrs.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
    }
    // Tile cut boundaries and their straddling neighbours.
    for t in &set.tiles {
        addrs.extend([
            t.start,
            t.end,
            t.start.wrapping_sub(1),
            t.end.wrapping_add(1),
        ]);
    }
    addrs
}

fn assert_matches_flat(set: &TileSet, routes: &[Route]) {
    set.check_invariants();
    let plane = set.plane();
    for addr in probe_addrs(routes, set) {
        assert_eq!(
            plane.lookup(addr),
            flat_lpm(routes, addr),
            "addr {addr:#010x}"
        );
    }
}

fn diff(inserts: &[Route], deletes: &[Prefix]) -> TableDiff {
    TableDiff {
        inserts: inserts.to_vec(),
        deletes: deletes.to_vec(),
        modifies: Vec::new(),
    }
}

fn route(bits: u32, len: u8, nh: u16) -> Route {
    Route::new(Prefix::new(bits, len), NextHop(nh))
}

#[test]
fn empty_set_is_one_miss_tile() {
    let set = TileSet::build(TileConfig::default(), &[]);
    set.check_invariants();
    assert_eq!(set.tile_count(), 1);
    assert_eq!(set.route_count(), 0);
    let plane = set.plane();
    assert!(plane.is_empty());
    for addr in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
        assert_eq!(plane.lookup(addr), None);
    }
}

#[test]
fn small_capacity_forces_many_tiles_and_stays_correct() {
    let table = onrtc(&FibGen::new(11).routes(2_000).generate());
    let routes: Vec<Route> = table.iter().collect();
    let set = TileSet::build(TileConfig::with_capacity(64), &routes);
    assert!(set.tile_count() > 10, "only {} tiles", set.tile_count());
    assert_matches_flat(&set, &routes);
    let plane = set.plane();
    assert_eq!(plane.len(), routes.len());
    assert!(plane.heap_bytes() > 0);
    assert!(plane.occupancy() > 0.0 && plane.occupancy() <= 1.0);
}

#[test]
fn overlapping_routes_resolve_longest_match() {
    let routes = [
        route(0, 0, 1),
        route(0xC000_0000, 2, 2),
        route(0xC0A8_0000, 16, 3),
        route(0xC0A8_0100, 24, 4),
        route(0xC0A8_01FE, 31, 5),
        route(0xC0A8_01FF, 32, 6),
    ];
    let set = TileSet::build(TileConfig::with_capacity(4), &routes);
    assert_matches_flat(&set, &routes);
}

#[test]
fn single_insert_rewrites_at_most_two_tiles() {
    let table = onrtc(&FibGen::new(3).routes(5_000).generate());
    let routes: Vec<Route> = table.iter().collect();
    let mut set = TileSet::build(TileConfig::with_capacity(256), &routes);
    let before = set.tile_count();
    // A /24 inside one of the generator's dense regions: its range is
    // tiny next to any tile span, so at most the tile holding it (and
    // on a cut, its neighbour) is rewritten.
    let added = route(0x0B22_3300, 24, 9);
    let churn = set.apply(&diff(&[added], &[]));
    assert!(
        churn.tiles_rewritten <= 2 + churn.splits,
        "churn {churn:?} over a {before}-tile set"
    );
    let mut now: Vec<Route> = routes.clone();
    now.retain(|r| r.prefix != added.prefix);
    now.push(added);
    assert_matches_flat(&set, &now);
}

#[test]
fn overflowing_tile_splits_and_underflow_merges_back() {
    // Start from a near-empty table with tiny tiles.
    let base = [route(0, 0, 1)];
    let mut set = TileSet::build(TileConfig::with_capacity(16), &base);
    assert_eq!(set.tile_count(), 1);

    // Pour /24s into one /16 until the tile must split.
    let burst: Vec<Route> = (0..64)
        .map(|i| route(0x0A0A_0000 + (i << 8), 24, (i % 7 + 2) as u16))
        .collect();
    let churn = set.apply(&diff(&burst, &[]));
    assert!(churn.splits > 0, "no split after overflow: {churn:?}");
    assert!(set.tile_count() > 1);
    let mut now = base.to_vec();
    now.extend_from_slice(&burst);
    assert_matches_flat(&set, &now);

    // Withdraw them all: the split tiles drain and merge back.
    let gone: Vec<Prefix> = burst.iter().map(|r| r.prefix).collect();
    let churn = set.apply(&diff(&[], &gone));
    assert!(churn.merges > 0, "no merge after underflow: {churn:?}");
    assert_eq!(set.tile_count(), 1, "drained set re-merges to one tile");
    assert_matches_flat(&set, &base);
}

#[test]
fn incremental_apply_equals_fresh_build() {
    let table = onrtc(&FibGen::new(17).routes(3_000).generate());
    let mut routes: Vec<Route> = table.iter().collect();
    let cfg = TileConfig::with_capacity(128);
    let mut set = TileSet::build(cfg, &routes);

    // Churn: withdraw every 5th route, announce replacements nearby.
    let mut removed = Vec::new();
    let mut i = 0;
    routes.retain(|r| {
        i += 1;
        if i % 5 == 0 {
            removed.push(r.prefix);
            false
        } else {
            true
        }
    });
    let added: Vec<Route> = (0..200)
        .map(|i| route(0x1500_0000 + (i << 10), 22, (i % 5 + 1) as u16))
        .collect();
    set.apply(&diff(&added, &removed));
    routes.extend_from_slice(&added);

    set.check_invariants();
    let fresh = TileSet::build(cfg, &routes);
    let (inc, scratch) = (set.plane(), fresh.plane());
    let mut addr = 0x0222_4155u32;
    for _ in 0..50_000 {
        addr = addr.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
        assert_eq!(inc.lookup(addr), scratch.lookup(addr), "addr {addr:#010x}");
    }
}

#[test]
fn per_range_planes_share_boundary_tiles() {
    let table = onrtc(&FibGen::new(23).routes(4_000).generate());
    let routes: Vec<Route> = table.iter().collect();
    let set = TileSet::build(TileConfig::with_capacity(128), &routes);
    assert!(set.tile_count() >= 4);

    // Two buckets cut in the middle of some tile's range.
    let cut = 0x8000_1234u32;
    let left = set.plane_for_range(0, cut - 1);
    let right = set.plane_for_range(cut, u32::MAX);
    assert!(left.tile_count() + right.tile_count() >= set.tile_count());

    // Lookups on each side agree with the full plane.
    let full = set.plane();
    let mut addr = 0x0777_0001u32;
    for _ in 0..20_000 {
        addr = addr.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
        let side = if addr < cut { &left } else { &right };
        assert_eq!(side.lookup(addr), full.lookup(addr), "addr {addr:#010x}");
    }
}

#[test]
fn build_plane_builds_the_tiled_backend() {
    let table = onrtc(&FibGen::new(5).routes(1_000).generate());
    let routes: Vec<Route> = table.iter().collect();
    let plane = crate::lookup::build_plane(BackendKind::Tiled, &routes);
    assert_eq!(plane.kind(), BackendKind::Tiled);
    assert_eq!(plane.len(), routes.len());
    for addr in [0u32, 0x0A01_0203, 0xC0A8_0101, u32::MAX] {
        assert_eq!(plane.lookup(addr), flat_lpm(&routes, addr));
    }
}

#[test]
fn churn_totals_accumulate() {
    let mut set = TileSet::build(TileConfig::with_capacity(8), &[route(0, 0, 1)]);
    let r = route(0x0A00_0000, 8, 2);
    set.apply(&diff(&[r], &[]));
    set.apply(&diff(&[], &[r.prefix]));
    let total = set.total_churn();
    assert!(total.tiles_rewritten >= 2);
    let empty = set.apply(&TableDiff {
        inserts: Vec::new(),
        deletes: Vec::new(),
        modifies: Vec::new(),
    });
    assert_eq!(empty, TileChurn::default());
    assert_eq!(set.total_churn(), total, "empty diff adds no churn");
}

#[test]
fn modifies_change_labels_in_place() {
    let base = [route(0x0A00_0000, 8, 1), route(0x0B00_0000, 8, 2)];
    let mut set = TileSet::build(TileConfig::default(), &base);
    let modified = route(0x0A00_0000, 8, 7);
    set.apply(&TableDiff {
        inserts: Vec::new(),
        deletes: Vec::new(),
        modifies: vec![modified],
    });
    let now = [modified, base[1]];
    assert_matches_flat(&set, &now);
}
