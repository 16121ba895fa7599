//! Routing tables and update messages.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::prefix::{NextHop, ParsePrefixError, Prefix};
use crate::trie::Trie;

/// One FIB entry: a prefix and its forwarding action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Forwarding action.
    pub next_hop: NextHop,
}

impl Route {
    /// Creates a route.
    #[must_use]
    pub fn new(prefix: Prefix, next_hop: NextHop) -> Self {
        Route { prefix, next_hop }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.prefix, self.next_hop.0)
    }
}

/// A routing table: an ordered map from prefix to next hop.
///
/// The map is keyed by the `(bits, len)` order of [`Prefix`], so iteration
/// is deterministic and, for non-overlapping tables, follows ascending
/// address ranges.
///
/// # Examples
///
/// ```
/// use clue_fib::{NextHop, RouteTable};
///
/// let mut fib = RouteTable::new();
/// fib.insert("10.0.0.0/8".parse()?, NextHop(1));
/// fib.insert("10.1.0.0/16".parse()?, NextHop(2));
/// assert_eq!(fib.len(), 2);
///
/// let trie = fib.to_trie();
/// assert_eq!(trie.lookup(0x0A01_0000).map(|(_, nh)| *nh), Some(NextHop(2)));
/// # Ok::<(), clue_fib::ParsePrefixError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    map: BTreeMap<Prefix, NextHop>,
}

impl RouteTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Number of routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts a route, returning the previous next hop for the prefix.
    pub fn insert(&mut self, prefix: Prefix, next_hop: NextHop) -> Option<NextHop> {
        self.map.insert(prefix, next_hop)
    }

    /// Removes the route for `prefix`, returning its next hop.
    pub fn remove(&mut self, prefix: Prefix) -> Option<NextHop> {
        self.map.remove(&prefix)
    }

    /// The next hop stored for exactly `prefix`.
    #[must_use]
    pub fn get(&self, prefix: Prefix) -> Option<NextHop> {
        self.map.get(&prefix).copied()
    }

    /// Whether the table stores a route for exactly `prefix`.
    #[must_use]
    pub fn contains(&self, prefix: Prefix) -> bool {
        self.map.contains_key(&prefix)
    }

    /// Iterates routes in `(bits, len)` order.
    pub fn iter(&self) -> impl Iterator<Item = Route> + '_ {
        self.map.iter().map(|(&p, &nh)| Route::new(p, nh))
    }

    /// Applies an update message to the table.
    pub fn apply(&mut self, update: Update) {
        match update {
            Update::Announce { prefix, next_hop } => {
                self.insert(prefix, next_hop);
            }
            Update::Withdraw { prefix } => {
                self.remove(prefix);
            }
        }
    }

    /// Builds the trie representation of the table.
    #[must_use]
    pub fn to_trie(&self) -> Trie<NextHop> {
        self.map.iter().map(|(&p, &nh)| (p, nh)).collect()
    }

    /// Collects the table from a trie.
    #[must_use]
    pub fn from_trie(trie: &Trie<NextHop>) -> Self {
        trie.iter().map(|(p, &nh)| (p, nh)).collect()
    }

    /// Whether no route in the table contains another.
    ///
    /// Non-overlap is the property ONRTC establishes; every CLUE-specific
    /// TCAM optimization (no priority encoder, O(1) update, even
    /// partitioning) depends on it.
    #[must_use]
    pub fn is_non_overlapping(&self) -> bool {
        // A containing prefix always sorts before the prefixes it
        // contains, and prefix ranges are laminar (nest or are disjoint),
        // so a route overlaps an earlier one exactly when it starts at or
        // below the largest range end seen so far.
        let mut max_high: Option<u32> = None;
        for &p in self.map.keys() {
            if let Some(h) = max_high {
                if p.low() <= h {
                    return false;
                }
            }
            max_high = Some(max_high.unwrap_or(0).max(p.high()));
        }
        true
    }

    /// Set of distinct next hops used by the table.
    #[must_use]
    pub fn next_hops(&self) -> Vec<NextHop> {
        let mut v: Vec<NextHop> = self.map.values().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serializes to the text format `a.b.c.d/len nh`, one route per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for r in self.iter() {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        s
    }

    /// Parses the text format produced by [`RouteTable::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseRouteError`] for malformed lines. Blank lines and
    /// lines starting with `#` are skipped.
    pub fn from_text(text: &str) -> Result<Self, ParseRouteError> {
        let mut table = RouteTable::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let route: Route = line
                .parse()
                .map_err(|_| ParseRouteError { line: lineno + 1 })?;
            table.insert(route.prefix, route.next_hop);
        }
        Ok(table)
    }
}

/// Exact-prefix queries over a route set, answered by both the flat
/// [`RouteTable`] and the [`Trie`] form of it, so code that only asks
/// "what does `prefix` map to?" can take either.
pub trait RouteSet {
    /// The next hop stored for exactly `prefix`.
    fn next_hop_of(&self, prefix: Prefix) -> Option<NextHop>;
}

impl RouteSet for RouteTable {
    fn next_hop_of(&self, prefix: Prefix) -> Option<NextHop> {
        self.get(prefix)
    }
}

impl RouteSet for Trie<NextHop> {
    fn next_hop_of(&self, prefix: Prefix) -> Option<NextHop> {
        self.get(prefix).copied()
    }
}

impl FromIterator<(Prefix, NextHop)> for RouteTable {
    fn from_iter<I: IntoIterator<Item = (Prefix, NextHop)>>(iter: I) -> Self {
        RouteTable {
            map: iter.into_iter().collect(),
        }
    }
}

impl FromIterator<Route> for RouteTable {
    fn from_iter<I: IntoIterator<Item = Route>>(iter: I) -> Self {
        iter.into_iter().map(|r| (r.prefix, r.next_hop)).collect()
    }
}

impl Extend<Route> for RouteTable {
    fn extend<I: IntoIterator<Item = Route>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r.prefix, r.next_hop);
        }
    }
}

impl FromStr for Route {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split_whitespace();
        let bad = || "".parse::<Prefix>().unwrap_err();
        let prefix: Prefix = parts.next().ok_or_else(bad)?.parse()?;
        let nh: u16 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(Route::new(prefix, NextHop(nh)))
    }
}

/// Error returned when parsing a [`RouteTable`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouteError {
    line: usize,
}

impl ParseRouteError {
    /// 1-based line number of the malformed line.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid route syntax on line {}", self.line)
    }
}

impl std::error::Error for ParseRouteError {}

/// A BGP-like incremental update message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// A route announcement (insert or next-hop change).
    Announce {
        /// Destination prefix.
        prefix: Prefix,
        /// New forwarding action.
        next_hop: NextHop,
    },
    /// A route withdrawal.
    Withdraw {
        /// Destination prefix.
        prefix: Prefix,
    },
}

impl Update {
    /// The prefix the update refers to.
    #[must_use]
    pub fn prefix(&self) -> Prefix {
        match *self {
            Update::Announce { prefix, .. } | Update::Withdraw { prefix } => prefix,
        }
    }

    /// Whether this is an announcement.
    #[must_use]
    pub fn is_announce(&self) -> bool {
        matches!(self, Update::Announce { .. })
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Update::Announce { prefix, next_hop } => write!(f, "A {prefix} {}", next_hop.0),
            Update::Withdraw { prefix } => write!(f, "W {prefix}"),
        }
    }
}

impl FromStr for Update {
    type Err = ParsePrefixError;

    /// Parses the format produced by `Display`: `A <prefix> <nh>` or
    /// `W <prefix>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || "".parse::<Prefix>().unwrap_err();
        let mut parts = s.split_whitespace();
        let kind = parts.next().ok_or_else(bad)?;
        let prefix: Prefix = parts.next().ok_or_else(bad)?.parse()?;
        let update = match kind {
            "A" => {
                let nh: u16 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                Update::Announce {
                    prefix,
                    next_hop: NextHop(nh),
                }
            }
            "W" => Update::Withdraw { prefix },
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut t = RouteTable::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), NextHop(1)), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), NextHop(2)), Some(NextHop(1)));
        assert_eq!(t.get(p("10.0.0.0/8")), Some(NextHop(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn text_round_trip() {
        let mut t = RouteTable::new();
        t.insert(p("10.0.0.0/8"), NextHop(1));
        t.insert(p("192.168.1.0/24"), NextHop(42));
        let text = t.to_text();
        let back = RouteTable::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_text_skips_comments_and_reports_bad_lines() {
        let table = RouteTable::from_text("# comment\n\n10.0.0.0/8 1\n").unwrap();
        assert_eq!(table.len(), 1);
        let err = RouteTable::from_text("10.0.0.0/8 1\nnot a route\n").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn route_parse_rejects_trailing_tokens() {
        assert!("10.0.0.0/8 1 extra".parse::<Route>().is_err());
        assert!("10.0.0.0/8".parse::<Route>().is_err());
    }

    #[test]
    fn apply_announce_and_withdraw() {
        let mut t = RouteTable::new();
        t.apply(Update::Announce {
            prefix: p("10.0.0.0/8"),
            next_hop: NextHop(1),
        });
        assert_eq!(t.len(), 1);
        t.apply(Update::Withdraw {
            prefix: p("10.0.0.0/8"),
        });
        assert!(t.is_empty());
    }

    #[test]
    fn non_overlap_detection() {
        let mut t = RouteTable::new();
        t.insert(p("10.0.0.0/8"), NextHop(1));
        t.insert(p("11.0.0.0/8"), NextHop(2));
        assert!(t.is_non_overlapping());
        t.insert(p("10.1.0.0/16"), NextHop(3));
        assert!(!t.is_non_overlapping());
    }

    #[test]
    fn non_overlap_detects_distant_nesting() {
        // The containing prefix is not the immediate predecessor in sort
        // order: 10.0.0.0/8 < 10.0.0.0/9 < 10.64.0.0/10, and /8 ⊃ /10.
        let mut t = RouteTable::new();
        t.insert(p("10.0.0.0/8"), NextHop(1));
        t.insert(p("10.0.0.0/9"), NextHop(2));
        t.insert(p("10.64.0.0/10"), NextHop(3));
        assert!(!t.is_non_overlapping());
    }

    #[test]
    fn next_hops_dedups() {
        let mut t = RouteTable::new();
        t.insert(p("10.0.0.0/8"), NextHop(1));
        t.insert(p("11.0.0.0/8"), NextHop(1));
        t.insert(p("12.0.0.0/8"), NextHop(2));
        assert_eq!(t.next_hops(), vec![NextHop(1), NextHop(2)]);
    }

    #[test]
    fn to_trie_preserves_lookup_semantics() {
        let mut t = RouteTable::new();
        t.insert(p("10.0.0.0/8"), NextHop(1));
        t.insert(p("10.1.0.0/16"), NextHop(2));
        let trie = t.to_trie();
        assert_eq!(trie.lookup(0x0A01_0000).map(|(_, v)| *v), Some(NextHop(2)));
        assert_eq!(trie.lookup(0x0A02_0000).map(|(_, v)| *v), Some(NextHop(1)));
        assert_eq!(RouteTable::from_trie(&trie), t);
    }

    #[test]
    fn update_parse_round_trip() {
        for s in ["A 10.0.0.0/8 5", "W 192.168.0.0/16"] {
            let u: Update = s.parse().unwrap();
            assert_eq!(u.to_string(), s);
        }
        for bad in [
            "",
            "X 10.0.0.0/8",
            "A 10.0.0.0/8",
            "W 10.0.0.0/8 5",
            "A nope 5",
        ] {
            assert!(bad.parse::<Update>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn update_accessors() {
        let a = Update::Announce {
            prefix: p("10.0.0.0/8"),
            next_hop: NextHop(1),
        };
        let w = Update::Withdraw {
            prefix: p("10.0.0.0/8"),
        };
        assert!(a.is_announce());
        assert!(!w.is_announce());
        assert_eq!(a.prefix(), w.prefix());
        assert_eq!(a.to_string(), "A 10.0.0.0/8 1");
        assert_eq!(w.to_string(), "W 10.0.0.0/8");
    }
}
