//! The persistent content-addressed proof cache (paper §4.4, grown into a
//! service-grade store for `tpotd`).
//!
//! Two tables, one file:
//!
//! - **Query outcomes** — `(query fingerprint, solver-config digest) →
//!   sat | unsat`. The fingerprint is the FNV-1a hash of the
//!   serialize-once SMT-LIB text (PR 1); the config digest folds in every
//!   knob that picks *which solver pipeline* produced the outcome (address
//!   encoding, incremental sessions, restart schedule, conflict budgets, …)
//!   so a hit can never cross incompatible configurations. Before this
//!   crate the cache was keyed by fingerprint alone — latent while the
//!   cache lived and died with one process, a live bug the moment it
//!   persists across differently-configured runs.
//! - **POT outcomes** — `(cone-of-influence digest, config digest) →
//!   proved | failed(details)`. The cone digest covers the TIR of every
//!   function reachable from the POT (plus the global invariants and the
//!   global-variable layout, see `tpot_ir::diff`), so an unchanged POT in
//!   an edited translation unit is served in microseconds without running
//!   the engine at all — the daemon's `cached` provenance.
//!
//! Writes use the repo's atomic discipline (merge with concurrent
//! flushers, temp file + rename); the in-memory map is bounded by an LRU
//! byte budget (`TPOT_CACHE_MAX_MB`) with evictions counted in the
//! `solver.cache.evictions` metric. Query-table lookups are counted by
//! their caller (the engine publishes `engine.cache_{hits,misses}` per
//! POT); POT-table lookups here, as `solver.cache.pot_{hits,misses}`.
//! The file format is line-oriented text (`q`/`p` records, format tag
//! `v2`); files written by the pre-digest v1 format are deliberately *not*
//! migrated — their entries carry no config digest, so reusing them would
//! be exactly the bug this crate exists to prevent.

use std::collections::HashMap;
use std::path::PathBuf;

use tpot_api::CacheStatsWire;
use tpot_obs::json::{self, Value};
use tpot_obs::metrics::LazyCounter;

static EVICTIONS: LazyCounter = LazyCounter::new("solver.cache.evictions");
static POT_HITS: LazyCounter = LazyCounter::new("solver.cache.pot_hits");
static POT_MISSES: LazyCounter = LazyCounter::new("solver.cache.pot_misses");

/// FNV-1a over raw bytes — the one content hash the whole pipeline uses
/// (identical constants to `tpot_smt::print::query_fingerprint`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Folds one more value into a digest (order-sensitive).
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xd6e8feb86659fd93);
    x ^ (x >> 32)
}

/// Outcome stored in the query table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CachedOutcome {
    /// Query was satisfiable.
    Sat,
    /// Query was unsatisfiable.
    Unsat,
}

/// Outcome stored in the POT table.
///
/// Engine `Error` outcomes are never cached — they describe resource
/// limits or unsupported constructs, both of which a re-run (or a config
/// change) can resolve. `failed` entries keep compact violation
/// descriptions (kind + message); models and traces are deliberately
/// dropped — a client that wants the counterexample re-runs with the POT
/// forced (the engine run is cheap next to the solver work the query
/// table already saves).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PotEntry {
    /// True = proved, false = failed.
    pub proved: bool,
    /// Violation descriptions for failed outcomes.
    pub detail: Vec<String>,
}

struct Slot<T> {
    value: T,
    stamp: u64,
    bytes: u64,
}

/// The persistent content-addressed proof cache.
pub struct ProofCache {
    path: Option<PathBuf>,
    queries: HashMap<(u64, u64), Slot<CachedOutcome>>,
    pots: HashMap<(u64, u64), Slot<PotEntry>>,
    /// LRU clock: monotonically increasing access stamp, persisted so
    /// recency survives restarts.
    clock: u64,
    /// Approximate bytes of all entries (what the rendered file costs).
    bytes: u64,
    /// LRU byte budget; inserts evict the stalest entries beyond it.
    max_bytes: u64,
    dirty: bool,
    /// Statistics: lookup hits (both tables).
    pub hits: u64,
    /// Statistics: lookup misses (both tables).
    pub misses: u64,
    /// Statistics: entries evicted by the size bound.
    pub evictions: u64,
}

/// Default LRU budget when `TPOT_CACHE_MAX_MB` is unset: 256 MiB.
pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

const Q_LINE_BYTES: u64 = 48;
const P_LINE_BYTES: u64 = 52;

impl Default for ProofCache {
    fn default() -> Self {
        ProofCache {
            path: None,
            queries: HashMap::new(),
            pots: HashMap::new(),
            clock: 0,
            bytes: 0,
            max_bytes: tpot_obs::config()
                .cache_max_mb
                .map(|mb| mb << 20)
                .unwrap_or(DEFAULT_MAX_BYTES),
            dirty: false,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl ProofCache {
    /// In-memory cache (not persisted) — still deduplicates within a run.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Opens (or creates) a cache file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let mut cache = Self::default();
        let path = path.into();
        if let Ok(text) = std::fs::read_to_string(&path) {
            cache.load(&text);
        }
        cache.path = Some(path);
        Ok(cache)
    }

    /// Overrides the LRU byte budget (`TPOT_CACHE_MAX_MB` otherwise).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes.max(1);
        self
    }

    fn load(&mut self, text: &str) {
        for (key, slot) in parse_queries(text) {
            self.clock = self.clock.max(slot.stamp);
            self.bytes += slot.bytes;
            self.queries.insert(key, slot);
        }
        for (key, slot) in parse_pots(text) {
            self.clock = self.clock.max(slot.stamp);
            self.bytes += slot.bytes;
            self.pots.insert(key, slot);
        }
    }

    /// Looks up a query outcome under `(fingerprint, config digest)`.
    pub fn get_query(&mut self, fp: u64, cfg: u64) -> Option<CachedOutcome> {
        match self.queries.get_mut(&(fp, cfg)) {
            Some(slot) => {
                self.clock += 1;
                slot.stamp = self.clock;
                self.hits += 1;
                Some(slot.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a query outcome.
    pub fn put_query(&mut self, fp: u64, cfg: u64, outcome: CachedOutcome) {
        self.clock += 1;
        let slot = Slot {
            value: outcome,
            stamp: self.clock,
            bytes: Q_LINE_BYTES,
        };
        if let Some(old) = self.queries.insert((fp, cfg), slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += Q_LINE_BYTES;
        self.dirty = true;
        self.enforce_budget();
    }

    /// Looks up a POT outcome under `(cone digest, config digest)`.
    pub fn get_pot(&mut self, cone: u64, cfg: u64) -> Option<PotEntry> {
        match self.pots.get_mut(&(cone, cfg)) {
            Some(slot) => {
                self.clock += 1;
                slot.stamp = self.clock;
                self.hits += 1;
                POT_HITS.add(1);
                Some(slot.value.clone())
            }
            None => {
                self.misses += 1;
                POT_MISSES.add(1);
                None
            }
        }
    }

    /// Records a POT outcome.
    pub fn put_pot(&mut self, cone: u64, cfg: u64, entry: PotEntry) {
        self.clock += 1;
        let bytes = P_LINE_BYTES + entry.detail.iter().map(|d| d.len() as u64 + 4).sum::<u64>();
        let slot = Slot {
            value: entry,
            stamp: self.clock,
            bytes,
        };
        if let Some(old) = self.pots.insert((cone, cfg), slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.dirty = true;
        self.enforce_budget();
    }

    fn enforce_budget(&mut self) {
        if self.bytes <= self.max_bytes {
            return;
        }
        // Oldest-stamp-first across both tables. Eviction is rare (the
        // budget is hundreds of MB, entries are tens of bytes), so the
        // collect+sort is fine.
        let mut order: Vec<(u64, (u64, u64), bool)> = self
            .queries
            .iter()
            .map(|(k, s)| (s.stamp, *k, false))
            .chain(self.pots.iter().map(|(k, s)| (s.stamp, *k, true)))
            .collect();
        order.sort_unstable_by_key(|(stamp, _, _)| *stamp);
        for (_, key, is_pot) in order {
            if self.bytes <= self.max_bytes {
                break;
            }
            let removed = if is_pot {
                self.pots.remove(&key).map(|s| s.bytes)
            } else {
                self.queries.remove(&key).map(|s| s.bytes)
            };
            if let Some(b) = removed {
                self.bytes -= b;
                self.evictions += 1;
                EVICTIONS.add(1);
            }
        }
    }

    /// Number of cached query outcomes.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Number of cached POT outcomes.
    pub fn pot_len(&self) -> usize {
        self.pots.len()
    }

    /// True when both tables are empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty() && self.pots.is_empty()
    }

    /// Wire-format statistics snapshot.
    pub fn stats(&self) -> CacheStatsWire {
        let mut s = CacheStatsWire::default();
        s.query_entries = self.queries.len() as u64;
        s.pot_entries = self.pots.len() as u64;
        s.hits = self.hits;
        s.misses = self.misses;
        s.evictions = self.evictions;
        s
    }

    /// Writes the cache to disk (no-op for in-memory caches).
    ///
    /// Crash/concurrency-safe: merges with any entries another process (or
    /// a parallel worker flushing the same path) wrote since we opened the
    /// file, then writes a temp file and renames it into place atomically.
    /// Our own entries win key collisions — outcomes for a given key are
    /// deterministic, so a collision means equal values anyway.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(path) = self.path.clone() {
            if let Ok(text) = std::fs::read_to_string(&path) {
                for (key, slot) in parse_queries(&text) {
                    if !self.queries.contains_key(&key) {
                        self.bytes += slot.bytes;
                        self.queries.insert(key, slot);
                    }
                }
                for (key, slot) in parse_pots(&text) {
                    if !self.pots.contains_key(&key) {
                        self.bytes += slot.bytes;
                        self.pots.insert(key, slot);
                    }
                }
                self.enforce_budget();
            }
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, self.render())?;
            std::fs::rename(&tmp, &path)?;
        }
        self.dirty = false;
        Ok(())
    }

    fn render(&self) -> String {
        let mut out = String::with_capacity(self.bytes as usize + 64);
        out.push_str("# tpot proof cache v2\n");
        let mut qs: Vec<(&(u64, u64), &Slot<CachedOutcome>)> = self.queries.iter().collect();
        qs.sort_unstable_by_key(|(k, _)| **k);
        for ((fp, cfg), slot) in qs {
            let kind = match slot.value {
                CachedOutcome::Sat => "sat",
                CachedOutcome::Unsat => "unsat",
            };
            out.push_str(&format!("q {fp:016x} {cfg:016x} {} {kind}\n", slot.stamp));
        }
        let mut ps: Vec<(&(u64, u64), &Slot<PotEntry>)> = self.pots.iter().collect();
        ps.sort_unstable_by_key(|(k, _)| **k);
        for ((cone, cfg), slot) in ps {
            if slot.value.proved {
                out.push_str(&format!("p {cone:016x} {cfg:016x} {} proved\n", slot.stamp));
            } else {
                let detail = Value::Arr(
                    slot.value
                        .detail
                        .iter()
                        .map(|d| Value::Str(d.clone()))
                        .collect(),
                )
                .render();
                out.push_str(&format!(
                    "p {cone:016x} {cfg:016x} {} failed {detail}\n",
                    slot.stamp
                ));
            }
        }
        out
    }
}

impl Drop for ProofCache {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn parse_key_stamp(parts: &mut std::str::SplitWhitespace<'_>) -> Option<(u64, u64, u64)> {
    let a = u64::from_str_radix(parts.next()?, 16).ok()?;
    let b = u64::from_str_radix(parts.next()?, 16).ok()?;
    let stamp = parts.next()?.parse().ok()?;
    Some((a, b, stamp))
}

fn parse_queries(text: &str) -> Vec<((u64, u64), Slot<CachedOutcome>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("q") {
            continue;
        }
        let Some((fp, cfg, stamp)) = parse_key_stamp(&mut parts) else {
            continue;
        };
        let value = match parts.next() {
            Some("sat") => CachedOutcome::Sat,
            Some("unsat") => CachedOutcome::Unsat,
            _ => continue,
        };
        out.push((
            (fp, cfg),
            Slot {
                value,
                stamp,
                bytes: Q_LINE_BYTES,
            },
        ));
    }
    out
}

fn parse_pots(text: &str) -> Vec<((u64, u64), Slot<PotEntry>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("p") {
            continue;
        }
        let Some((cone, cfg, stamp)) = parse_key_stamp(&mut parts) else {
            continue;
        };
        let value = match parts.next() {
            Some("proved") => PotEntry {
                proved: true,
                detail: Vec::new(),
            },
            Some("failed") => {
                let rest: String = {
                    // The detail JSON may contain spaces: re-slice the line
                    // after the 5th token.
                    let mut it = line.splitn(6, ' ');
                    for _ in 0..5 {
                        it.next();
                    }
                    it.next().unwrap_or("[]").to_string()
                };
                let detail = json::parse(&rest)
                    .ok()
                    .and_then(|v| {
                        v.as_arr().map(|a| {
                            a.iter()
                                .filter_map(|x| x.as_str().map(str::to_string))
                                .collect()
                        })
                    })
                    .unwrap_or_default();
                PotEntry {
                    proved: false,
                    detail,
                }
            }
            _ => continue,
        };
        let bytes = P_LINE_BYTES + value.detail.iter().map(|d| d.len() as u64 + 4).sum::<u64>();
        out.push((
            (cone, cfg),
            Slot {
                value,
                stamp,
                bytes,
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tpot-proofcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn query_round_trip_across_reopen() {
        let path = tmpfile("roundtrip");
        {
            let mut c = ProofCache::open(&path).unwrap();
            c.put_query(1, 10, CachedOutcome::Sat);
            c.put_query(2, 10, CachedOutcome::Unsat);
            c.put_pot(
                7,
                10,
                PotEntry {
                    proved: true,
                    detail: vec![],
                },
            );
            c.put_pot(
                8,
                10,
                PotEntry {
                    proved: false,
                    detail: vec!["loop invariant violated: \"x\" out of range".into()],
                },
            );
            c.flush().unwrap();
        }
        let mut c = ProofCache::open(&path).unwrap();
        assert_eq!(c.get_query(1, 10), Some(CachedOutcome::Sat));
        assert_eq!(c.get_query(2, 10), Some(CachedOutcome::Unsat));
        assert!(c.get_pot(7, 10).unwrap().proved);
        let failed = c.get_pot(8, 10).unwrap();
        assert!(!failed.proved);
        assert_eq!(failed.detail.len(), 1);
        assert!(failed.detail[0].contains("\"x\""));
        assert_eq!(c.hits, 4);
        assert_eq!(c.misses, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_digest_isolates_entries() {
        let mut c = ProofCache::in_memory();
        c.put_query(42, 1, CachedOutcome::Unsat);
        assert_eq!(c.get_query(42, 2), None, "different config digest");
        assert_eq!(c.get_query(42, 1), Some(CachedOutcome::Unsat));
        c.put_pot(
            9,
            1,
            PotEntry {
                proved: true,
                detail: vec![],
            },
        );
        assert_eq!(c.get_pot(9, 2), None);
        assert!(c.get_pot(9, 1).is_some());
    }

    #[test]
    fn lru_evicts_stalest_first() {
        let mut c = ProofCache::in_memory().with_max_bytes(Q_LINE_BYTES * 3);
        c.put_query(1, 0, CachedOutcome::Sat);
        c.put_query(2, 0, CachedOutcome::Sat);
        c.put_query(3, 0, CachedOutcome::Sat);
        // Touch 1 so 2 becomes the stalest.
        assert!(c.get_query(1, 0).is_some());
        c.put_query(4, 0, CachedOutcome::Sat);
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions, 1);
        // Bypass get() for the assertion to avoid perturbing stamps.
        assert!(!c.queries.contains_key(&(2, 0)), "stalest entry evicted");
        assert!(c.queries.contains_key(&(1, 0)), "recently-touched survives");
    }

    #[test]
    fn concurrent_flushers_merge() {
        let path = tmpfile("merge");
        let mut a = ProofCache::open(&path).unwrap();
        let mut b = ProofCache::open(&path).unwrap();
        a.put_query(1, 0, CachedOutcome::Sat);
        b.put_query(2, 0, CachedOutcome::Unsat);
        a.flush().unwrap();
        b.flush().unwrap();
        let mut c = ProofCache::open(&path).unwrap();
        assert_eq!(c.get_query(1, 0), Some(CachedOutcome::Sat));
        assert_eq!(c.get_query(2, 0), Some(CachedOutcome::Unsat));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_format_is_not_migrated() {
        let path = tmpfile("v1");
        std::fs::write(&path, "# tpot query cache v1\n123 sat\n456 unsat\n").unwrap();
        let mut c = ProofCache::open(&path).unwrap();
        assert!(c.is_empty(), "digest-less v1 entries must be dropped");
        assert_eq!(c.get_query(123, 0), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recency_survives_restart() {
        let path = tmpfile("recency");
        {
            let mut c = ProofCache::open(&path).unwrap();
            c.put_query(1, 0, CachedOutcome::Sat);
            c.put_query(2, 0, CachedOutcome::Sat);
            c.put_query(3, 0, CachedOutcome::Sat);
            assert!(c.get_query(1, 0).is_some()); // 1 is now freshest
            c.flush().unwrap();
        }
        let mut c = ProofCache::open(&path)
            .unwrap()
            .with_max_bytes(Q_LINE_BYTES * 2);
        c.put_query(4, 0, CachedOutcome::Sat); // evicts down to budget
        assert!(c.queries.contains_key(&(1, 0)), "pre-restart touch counted");
        assert!(!c.queries.contains_key(&(2, 0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn digest_helpers_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(mix(0, 1), mix(0, 2));
        assert_ne!(mix(1, 0), mix(2, 0));
        // Order-sensitive.
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }
}
