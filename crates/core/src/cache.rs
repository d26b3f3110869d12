//! Hash-consed caches for analysis-as-a-service: compiled programs and certified
//! solve results, keyed by structural fingerprint.
//!
//! The serve daemon answers three kinds of query from these caches:
//!
//! * **repeat** — the exact pair (by the hash of each side's
//!   [`AnalyzedProgram::canonical_form`]) was solved at the same options before: the
//!   certified [`DiffCostResult`] is returned verbatim, pivot-free;
//! * **near-repeat** — an *edited* pair shares most per-location sub-fingerprints
//!   with a cached entry: the cached basis is replayed unchanged as a warm start, so
//!   the re-solve only has to re-derive the edited locations' constraint rows (a
//!   warm basis is a hint matched by column name, never an input to a verdict, so
//!   the replay is sound by construction);
//! * **cold** — nothing matches: a full solve runs and populates the cache.
//!
//! Every key is computed once, when a program is compiled: a [`CompiledProgram`]
//! carries its canonical form, its 64-bit fingerprint and its per-location
//! fingerprints next to the program, and the solve cache reads only those. Hits
//! copy nothing: [`ProgramCache::get_or_compile`] hands out the one compiled entry
//! behind an [`Arc`], and [`SolveCache::lookup`] the one [`CachedSolve`].
//!
//! Fingerprints are 64-bit, so every solve entry keeps the pair's compiled entries
//! and [`SolveCache::lookup`] compares their canonical strings on a shard hit: a
//! fingerprint collision degrades to a cache miss, never to a wrong answer.
//!
//! Both caches shard their maps over [`Mutex`]es keyed by fingerprint, so concurrent
//! daemon requests contend only when they touch the same shard; a poisoned shard
//! (a panicking request died holding the lock) is recovered with
//! [`PoisonError::into_inner`] — entries are only ever inserted whole.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use dca_ir::fingerprint::{fnv1a, fnv1a_extend};
use dca_lp::LpBasis;

use crate::options::{AnalysisOptions, LpBackend};
use crate::program::AnalyzedProgram;
use crate::solver::DiffCostResult;

const SHARDS: usize = 16;

/// The structural fingerprint of a `(new, old)` program pair: the two program
/// fingerprints their [`CompiledProgram`]s stored, folded in order ("new then old" —
/// direction matters, the analysis is asymmetric). The analysis options are
/// excluded; the solve key folds them in separately.
fn fold_pair(new: u64, old: u64) -> u64 {
    let hash = fnv1a_extend(fnv1a(b"pair:"), &new.to_le_bytes());
    fnv1a_extend(hash, &old.to_le_bytes())
}

/// A fingerprint of every [`AnalysisOptions`] field that changes the synthesized LP
/// (and hence the result): two solves agree whenever their pair and options
/// fingerprints agree. The time budget is excluded — it bounds the solve, it does
/// not select the answer (and only certified results are cached).
pub fn options_fingerprint(options: &AnalysisOptions) -> u64 {
    let backend = match options.backend {
        LpBackend::Certified => 0u8,
        LpBackend::Exact => 1,
    };
    let flags =
        [u8::from(options.include_cost_in_template), u8::from(options.phase_split), backend];
    let encoded =
        [&options.degree.to_le_bytes()[..], &options.max_products.to_le_bytes(), &flags].concat();
    fnv1a_extend(fnv1a(b"options:"), &encoded)
}

/// A compiled program together with its cache keys, each computed once when the
/// program is compiled.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The compiled, invariant-analyzed program.
    pub program: AnalyzedProgram,
    /// [`AnalyzedProgram::canonical_form`] (collision guard of the solve cache).
    canonical: String,
    /// The hash of `canonical`: the program's cache key.
    fingerprint: u64,
    /// [`AnalyzedProgram::location_fingerprints`] (near-repeat matching).
    locations: Vec<u64>,
}

impl CompiledProgram {
    /// Wraps `program`, rendering its canonical form and fingerprints once.
    fn new(program: AnalyzedProgram) -> CompiledProgram {
        let canonical = program.canonical_form();
        let fingerprint = fnv1a(canonical.as_bytes());
        let locations = program.location_fingerprints();
        CompiledProgram { program, canonical, fingerprint, locations }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SolveKey {
    pair: u64,
    options: u64,
}

impl SolveKey {
    fn new(new: &CompiledProgram, old: &CompiledProgram, options: &AnalysisOptions) -> SolveKey {
        SolveKey {
            pair: fold_pair(new.fingerprint, old.fingerprint),
            options: options_fingerprint(options),
        }
    }
}

/// One cached certified solve, with everything a replay needs.
#[derive(Debug)]
pub struct CachedSolve {
    /// The pair's compiled entries: their canonical strings are the collision
    /// guard (compared on every hit), their location fingerprints the near-repeat
    /// key.
    new: Arc<CompiledProgram>,
    old: Arc<CompiledProgram>,
    /// The certified result, returned verbatim on a repeat query.
    pub result: DiffCostResult,
    /// The final basis, replayed as a warm start by near-repeat queries.
    pub basis: LpBasis,
}

/// A cached basis selected for a near-repeat replay.
#[derive(Debug, Clone)]
pub struct NearMatch {
    /// The ancestor's basis as stored: a warm start for the querying pair, which
    /// can change its pivot path but never its verdict.
    pub basis: LpBasis,
    /// How many locations (across both sides) differ from the ancestor — the rows
    /// the warm-started re-solve actually has to re-derive.
    pub changed_locations: usize,
}

/// One shard's bucket list: entries whose `(pair, options)` fingerprint collides.
type SolveShard = Mutex<HashMap<u64, Vec<(SolveKey, Arc<CachedSolve>)>>>;

/// Sharded map from `(pair, options)` fingerprints to certified solves.
#[derive(Debug)]
pub struct SolveCache {
    shards: Vec<SolveShard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SolveCache {
    fn default() -> SolveCache {
        SolveCache::new()
    }
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> SolveCache {
        SolveCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: SolveKey) -> &SolveShard {
        &self.shards[(key.pair as usize) % SHARDS]
    }

    /// Looks up a certified solve for exactly this pair at these options. On a
    /// fingerprint hit the canonical strings are compared too, so a collision is
    /// reported as a miss.
    pub fn lookup(
        &self,
        new: &CompiledProgram,
        old: &CompiledProgram,
        options: &AnalysisOptions,
    ) -> Option<Arc<CachedSolve>> {
        let key = SolveKey::new(new, old, options);
        let shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let found = shard.get(&key.pair).and_then(|entries| {
            entries.iter().find(|(entry_key, entry)| {
                *entry_key == key
                    && entry.new.canonical == new.canonical
                    && entry.old.canonical == old.canonical
            })
        });
        match found {
            Some((_, entry)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a certified solve. Uncertified (truncated/anytime) results must not be
    /// inserted — a repeat query would replay a loose bound forever; callers gate on
    /// [`crate::SolveOutcome::is_certified`].
    pub fn insert(
        &self,
        new: &Arc<CompiledProgram>,
        old: &Arc<CompiledProgram>,
        options: &AnalysisOptions,
        result: &DiffCostResult,
        basis: LpBasis,
    ) {
        let key = SolveKey::new(new, old, options);
        let entry = Arc::new(CachedSolve {
            new: Arc::clone(new),
            old: Arc::clone(old),
            result: result.clone(),
            basis,
        });
        let mut shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let entries = shard.entry(key.pair).or_default();
        match entries.iter_mut().find(|(entry_key, _)| *entry_key == key) {
            Some((_, existing)) => *existing = entry,
            None => entries.push((key, entry)),
        }
    }

    /// Scans for the closest cached ancestor of an edited pair: same options, same
    /// location counts on both sides, and more than half of the per-location
    /// sub-fingerprints unchanged. Returns its basis as stored, plus the
    /// changed-location count. `None` when nothing is close enough for a warm
    /// start to plausibly help.
    pub fn nearest_basis(
        &self,
        new: &CompiledProgram,
        old: &CompiledProgram,
        options: &AnalysisOptions,
    ) -> Option<NearMatch> {
        let options_fp = options_fingerprint(options);
        let total = new.locations.len() + old.locations.len();
        // The best candidate so far is shared, not copied: only the winner's basis
        // is cloned, once the scan is over and no shard is locked.
        let mut best: Option<(usize, Arc<CachedSolve>)> = None;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (key, entry) in shard.values().flatten() {
                if key.options != options_fp
                    || entry.new.locations.len() != new.locations.len()
                    || entry.old.locations.len() != old.locations.len()
                {
                    continue;
                }
                let changed = count_mismatches(&entry.new.locations, &new.locations)
                    + count_mismatches(&entry.old.locations, &old.locations);
                if changed * 2 >= total {
                    continue;
                }
                if best.as_ref().is_none_or(|(best_changed, _)| changed < *best_changed) {
                    best = Some((changed, Arc::clone(entry)));
                }
            }
        }
        let (changed_locations, entry) = best?;
        Some(NearMatch { basis: entry.basis.clone(), changed_locations })
    }

    /// Number of cached solves.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                shard.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that returned a verified entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or only a colliding fingerprint).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

fn count_mismatches(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// One shard's bucket list: `(source, compiled)` per source hash.
type ProgramShard = Mutex<HashMap<u64, Vec<(String, Arc<CompiledProgram>)>>>;

/// Sharded source-text → [`CompiledProgram`] cache (hash-consing of compilation,
/// invariant analysis and fingerprinting). Keyed by the source hash; the source
/// string is stored and compared on hit, so a hash collision degrades to a
/// recompile.
#[derive(Debug)]
pub struct ProgramCache {
    shards: Vec<ProgramShard>,
    compiles: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> ProgramCache {
        ProgramCache::new()
    }
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            compiles: AtomicU64::new(0),
        }
    }

    /// Compiles (and invariant-analyzes and fingerprints) `source`, or shares the
    /// cached entry of an identical earlier submission.
    ///
    /// # Errors
    ///
    /// Returns the compiler's human-readable message when `source` does not parse
    /// or lower (compile errors are not cached — they are cheap to reproduce).
    pub fn get_or_compile(&self, source: &str) -> Result<Arc<CompiledProgram>, String> {
        let hash = fnv1a(source.as_bytes());
        let shard = &self.shards[(hash as usize) % SHARDS];
        {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(entries) = shard.get(&hash) {
                for (cached_source, compiled) in entries {
                    if cached_source == source {
                        return Ok(Arc::clone(compiled));
                    }
                }
            }
        }
        // Compile outside the shard lock: compilation is the expensive part, and a
        // racing duplicate insert is harmless (both entries hold identical data).
        let compiled = Arc::new(CompiledProgram::new(AnalyzedProgram::from_source(source)?));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard
            .entry(hash)
            .or_default()
            .push((source.to_string(), Arc::clone(&compiled)));
        Ok(compiled)
    }

    /// How many genuine compilations ran (cache misses).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::DiffCostSolver;

    fn source(tick: u32) -> String {
        format!(
            "proc count(n) {{ assume(n >= 1 && n <= 50); i = 0; \
             while (i < n) {{ tick({tick}); i = i + 1; }} }}"
        )
    }

    #[test]
    fn solve_cache_round_trips_and_matches_near_repeats() {
        let programs = ProgramCache::new();
        let old = programs.get_or_compile(&source(1)).unwrap();
        let new = programs.get_or_compile(&source(2)).unwrap();
        let options = AnalysisOptions::default();
        let cache = SolveCache::new();
        assert!(cache.lookup(&new, &old, &options).is_none());
        assert!(cache.is_empty());

        let solver = DiffCostSolver::new(options);
        let (result, basis) =
            solver.solve_with_warm_start(&new.program, &old.program, None, None).unwrap();
        cache.insert(&new, &old, &options, &result, basis);
        assert_eq!(cache.len(), 1);

        // Repeat query: resubmit the same sources, hit the cache bit-identically.
        let new_again = programs.get_or_compile(&source(2)).unwrap();
        let hit = cache.lookup(&new_again, &old, &options).expect("repeat must hit");
        assert_eq!(hit.result.threshold.to_bits(), result.threshold.to_bits());
        assert_eq!(cache.hits(), 1);

        // Different options miss; swapped direction misses (analysis is asymmetric).
        assert!(cache.lookup(&new, &old, &AnalysisOptions::with_degree(3)).is_none());
        assert!(cache.lookup(&old, &new, &options).is_none());

        // Near-repeat: a one-location edit matches the cached entry's basis and
        // reports how many locations changed.
        let edited = programs.get_or_compile(&source(3)).unwrap();
        let near = cache.nearest_basis(&edited, &old, &options).expect("edit must near-match");
        assert!(near.changed_locations >= 1);
        assert!(
            near.changed_locations * 2
                < edited.program.ts.num_locations() + old.program.ts.num_locations(),
            "most locations must be unchanged"
        );
        // The ancestor's basis, replayed as is, solves to the same threshold a cold
        // solve finds.
        let (warm_result, _) = solver
            .solve_with_warm_start(&edited.program, &old.program, Some(&near.basis), None)
            .unwrap();
        let cold_result = solver.solve(&edited.program, &old.program).unwrap();
        assert_eq!(warm_result.threshold.to_bits(), cold_result.threshold.to_bits());
    }

    #[test]
    fn program_cache_dedupes_identical_sources() {
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&source(1)).unwrap();
        let b = cache.get_or_compile(&source(1)).unwrap();
        assert_eq!(cache.compiles(), 1, "second submission must be a hit");
        assert!(Arc::ptr_eq(&a, &b), "a hit must share the compiled entry, not copy it");
        assert_eq!(a.program.canonical_form(), b.program.canonical_form());
        assert_eq!(
            a.fingerprint,
            fnv1a(a.program.canonical_form().as_bytes()),
            "the stored key is the hash of the program's canonical form"
        );
        assert!(cache.get_or_compile("proc broken {").is_err());
    }

    #[test]
    fn a_fingerprint_collision_is_a_miss() {
        let programs = ProgramCache::new();
        let old = programs.get_or_compile(&source(1)).unwrap();
        let new = programs.get_or_compile(&source(2)).unwrap();
        let options = AnalysisOptions::default();
        let solver = DiffCostSolver::new(options);
        let (result, basis) =
            solver.solve_with_warm_start(&new.program, &old.program, None, None).unwrap();

        // A different program forged to carry `new`'s fingerprint: its solve entry
        // lands under the querying pair's key, but its canonical string differs.
        let other = programs.get_or_compile(&source(3)).unwrap();
        let forged = Arc::new(CompiledProgram {
            program: other.program.clone(),
            canonical: other.canonical.clone(),
            fingerprint: new.fingerprint,
            locations: other.locations.clone(),
        });
        let cache = SolveCache::new();
        cache.insert(&forged, &old, &options, &result, basis);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&new, &old, &options).is_none(), "a collision must miss");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The forged entry itself still answers its own (forged) pair.
        assert!(cache.lookup(&forged, &old, &options).is_some());
    }

    #[test]
    fn options_fingerprint_separates_every_lp_relevant_field() {
        let base = AnalysisOptions::default();
        let fp = options_fingerprint(&base);
        assert_eq!(fp, options_fingerprint(&base.clone()));
        assert_ne!(fp, options_fingerprint(&AnalysisOptions::with_degree(3)));
        assert_ne!(fp, options_fingerprint(&base.exact()));
        assert_ne!(fp, options_fingerprint(&base.without_phase_split()));
        // The time budget does not change what is computed, only how long it may take.
        assert_eq!(
            fp,
            options_fingerprint(&base.with_time_budget(std::time::Duration::from_secs(1)))
        );
    }
}
