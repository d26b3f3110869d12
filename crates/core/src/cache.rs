//! Hash-consed caches for analysis-as-a-service: compiled programs and certified
//! solve results, keyed by structural fingerprint.
//!
//! The serve daemon answers three kinds of query from these caches:
//!
//! * **repeat** — the exact pair (by [`AnalyzedProgram::fingerprint`]) was solved at
//!   the same options before: the certified [`DiffCostResult`] is returned verbatim,
//!   pivot-free;
//! * **near-repeat** — an *edited* pair shares most per-location sub-fingerprints
//!   with a cached entry: the cached basis is [rebadged](dca_lp::LpBasis::rebadged)
//!   to the new pair and replayed as a warm start, so the re-solve only has to
//!   re-derive the edited locations' constraint rows (warm starts change the pivot
//!   path, never the verdict — the replay is sound by construction);
//! * **cold** — nothing matches: a full solve runs and populates the cache.
//!
//! Fingerprints are 64-bit, so every entry stores the pair's canonical strings and
//! [`SolveCache::lookup`] compares them on a shard hit: a fingerprint collision
//! degrades to a cache miss, never to a wrong answer.
//!
//! Both caches shard their maps over [`Mutex`]es keyed by fingerprint, so concurrent
//! daemon requests contend only when they touch the same shard; a poisoned shard
//! (a panicking request died holding the lock) is recovered with
//! [`PoisonError::into_inner`] — entries are only ever inserted whole.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use dca_ir::fingerprint::{fnv1a, fnv1a_extend};
use dca_lp::LpBasis;

use crate::options::{AnalysisOptions, LpBackend};
use crate::program::AnalyzedProgram;
use crate::solver::DiffCostResult;

const SHARDS: usize = 16;

/// The structural fingerprint of a `(new, old)` program pair: the two program
/// fingerprints folded in order ("new then old" — direction matters, the analysis
/// is asymmetric). This is also the provenance stamp
/// [`crate::DiffCostSolver::solve_with_warm_start`] puts on the bases it returns.
/// Degree and tier are deliberately excluded so the escalation ladder can thread
/// one basis across rungs; cache layers key on them separately.
pub fn pair_fingerprint(new: &AnalyzedProgram, old: &AnalyzedProgram) -> u64 {
    let hash = fnv1a_extend(fnv1a(b"pair:"), &new.fingerprint().to_le_bytes());
    fnv1a_extend(hash, &old.fingerprint().to_le_bytes())
}

/// A fingerprint of every [`AnalysisOptions`] field that changes the synthesized LP
/// (and hence the result): two solves agree whenever their pair and options
/// fingerprints agree. The time budget is excluded — it bounds the solve, it does
/// not select the answer (and only certified results are cached). The `presolve`
/// and `row_generation` switches are folded in although they never change a
/// verdict: they change the solve statistics a cache hit replays.
pub fn options_fingerprint(options: &AnalysisOptions) -> u64 {
    let backend = match options.backend {
        LpBackend::Certified => 0u8,
        LpBackend::Exact => 1,
    };
    let encoded = [
        options.degree.to_le_bytes(),
        options.max_products.to_le_bytes(),
        options.invariant_tier.index().to_le_bytes(),
        [
            u8::from(options.include_cost_in_template),
            u8::from(options.phase_split),
            backend,
            u8::from(options.presolve) | u8::from(options.row_generation) << 1,
        ],
    ]
    .concat();
    fnv1a_extend(fnv1a(b"options:"), &encoded)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SolveKey {
    pair: u64,
    options: u64,
}

/// One cached certified solve, with everything a replay needs.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// Canonical forms of the pair (collision guard: compared on every hit).
    new_canonical: String,
    old_canonical: String,
    /// The certified result, returned verbatim on a repeat query.
    pub result: DiffCostResult,
    /// The final basis, stamped with this pair's fingerprint.
    pub basis: Option<LpBasis>,
    /// Per-location sub-fingerprints of both sides (near-repeat matching).
    new_locations: Vec<u64>,
    old_locations: Vec<u64>,
}

/// A cached basis selected for a near-repeat replay.
#[derive(Debug, Clone)]
pub struct NearMatch {
    /// The ancestor's basis, already rebadged to the *querying* pair's fingerprint
    /// (the explicit cross-pair opt-in — see [`LpBasis::rebadged`]).
    pub basis: LpBasis,
    /// How many locations (across both sides) differ from the ancestor — the rows
    /// the warm-started re-solve actually has to re-derive.
    pub changed_locations: usize,
}

/// One shard's bucket list: entries whose `(pair, options)` fingerprint collides.
type SolveShard = Mutex<HashMap<u64, Vec<(SolveKey, CachedSolve)>>>;

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

    fn shard(&self, key: SolveKey) -> &Mutex<HashMap<u64, Vec<(SolveKey, CachedSolve)>>> {
        &self.shards[(key.pair as usize) % SHARDS]
    }

    /// Looks up a certified solve for exactly this pair at these options. On a
    /// fingerprint hit the canonical strings are compared too, so a collision is
    /// reported as a miss.
    pub fn lookup(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        options: &AnalysisOptions,
    ) -> Option<CachedSolve> {
        let key = SolveKey {
            pair: pair_fingerprint(new, old),
            options: options_fingerprint(options),
        };
        let shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let found = shard.get(&key.pair).and_then(|entries| {
            entries.iter().find(|(entry_key, entry)| {
                *entry_key == key
                    && entry.new_canonical == new.canonical_form()
                    && entry.old_canonical == old.canonical_form()
            })
        });
        match found {
            Some((_, entry)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.clone())
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
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        options: &AnalysisOptions,
        result: &DiffCostResult,
        basis: Option<LpBasis>,
    ) {
        let key = SolveKey {
            pair: pair_fingerprint(new, old),
            options: options_fingerprint(options),
        };
        let entry = CachedSolve {
            new_canonical: new.canonical_form(),
            old_canonical: old.canonical_form(),
            result: result.clone(),
            basis,
            new_locations: new.location_fingerprints(),
            old_locations: old.location_fingerprints(),
        };
        let mut shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let entries = shard.entry(key.pair).or_default();
        match entries.iter_mut().find(|(entry_key, _)| *entry_key == key) {
            Some((_, existing)) => *existing = entry,
            None => entries.push((key, entry)),
        }
    }

    /// Scans for the closest cached ancestor of an edited pair: same options, same
    /// location counts on both sides, and more than half of the per-location
    /// sub-fingerprints unchanged. Returns its basis rebadged to the querying
    /// pair's fingerprint, plus the changed-location count. `None` when nothing is
    /// close enough for a warm start to plausibly help.
    pub fn nearest_basis(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        options: &AnalysisOptions,
    ) -> Option<NearMatch> {
        let options_fp = options_fingerprint(options);
        let new_locations = new.location_fingerprints();
        let old_locations = old.location_fingerprints();
        let total = new_locations.len() + old_locations.len();
        let mut best: Option<(usize, LpBasis)> = None;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (key, entry) in shard.values().flatten() {
                if key.options != options_fp
                    || entry.new_locations.len() != new_locations.len()
                    || entry.old_locations.len() != old_locations.len()
                {
                    continue;
                }
                let Some(basis) = &entry.basis else { continue };
                let changed = count_mismatches(&entry.new_locations, &new_locations)
                    + count_mismatches(&entry.old_locations, &old_locations);
                if changed * 2 >= total {
                    continue;
                }
                if best.as_ref().is_none_or(|(best_changed, _)| changed < *best_changed) {
                    best = Some((changed, basis.clone()));
                }
            }
        }
        best.map(|(changed_locations, basis)| NearMatch {
            basis: basis.rebadged(pair_fingerprint(new, old)),
            changed_locations,
        })
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

/// One shard's bucket list: `(source, tier index, compiled)` per source hash.
type ProgramShard = Mutex<HashMap<u64, Vec<(String, u32, AnalyzedProgram)>>>;

/// Sharded source-text → [`AnalyzedProgram`] cache (hash-consing of compilation and
/// invariant analysis). Keyed by `(source hash, tier)`; the source string is stored
/// and compared on hit, so a hash collision degrades to a recompile.
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

    /// Compiles (and invariant-analyzes) `source` at `tier`, or returns the cached
    /// program for an identical earlier submission.
    ///
    /// # Errors
    ///
    /// Returns the compiler's human-readable message when `source` does not parse
    /// or lower (compile errors are not cached — they are cheap to reproduce).
    pub fn get_or_compile(
        &self,
        source: &str,
        tier: dca_invariants::InvariantTier,
    ) -> Result<AnalyzedProgram, String> {
        let hash = fnv1a(source.as_bytes());
        let shard = &self.shards[(hash as usize) % SHARDS];
        {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(entries) = shard.get(&hash) {
                for (cached_source, cached_tier, program) in entries {
                    if *cached_tier == tier.index() && cached_source == source {
                        return Ok(program.clone());
                    }
                }
            }
        }
        // Compile outside the shard lock: compilation is the expensive part, and a
        // racing duplicate insert is harmless (last writer wins on identical data).
        let program = AnalyzedProgram::from_source_at_tier(source, tier)?;
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard
            .entry(hash)
            .or_default()
            .push((source.to_string(), tier.index(), program.clone()));
        Ok(program)
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
    use dca_invariants::InvariantTier;

    fn source(tick: u32) -> String {
        format!(
            "proc count(n) {{ assume(n >= 1 && n <= 50); i = 0; \
             while (i < n) {{ tick({tick}); i = i + 1; }} }}"
        )
    }

    #[test]
    fn solve_cache_round_trips_and_matches_near_repeats() {
        let programs = ProgramCache::new();
        let old = programs.get_or_compile(&source(1), InvariantTier::Baseline).unwrap();
        let new = programs.get_or_compile(&source(2), InvariantTier::Baseline).unwrap();
        let options = AnalysisOptions::default();
        let cache = SolveCache::new();
        assert!(cache.lookup(&new, &old, &options).is_none());
        assert!(cache.is_empty());

        let solver = DiffCostSolver::new(options);
        let (result, basis) = solver.solve_with_warm_start(&new, &old, None);
        let result = result.unwrap();
        cache.insert(&new, &old, &options, &result, basis);
        assert_eq!(cache.len(), 1);

        // Repeat query: recompile the same sources, hit the cache bit-identically.
        let new_again = programs.get_or_compile(&source(2), InvariantTier::Baseline).unwrap();
        let hit = cache.lookup(&new_again, &old, &options).expect("repeat must hit");
        assert_eq!(hit.result.threshold.to_bits(), result.threshold.to_bits());
        assert_eq!(cache.hits(), 1);

        // Different options miss; swapped direction misses (analysis is asymmetric).
        assert!(cache.lookup(&new, &old, &AnalysisOptions::with_degree(3)).is_none());
        assert!(cache.lookup(&old, &new, &options).is_none());

        // Near-repeat: a one-location edit matches the cached entry's basis and
        // reports how many locations changed.
        let edited = programs.get_or_compile(&source(3), InvariantTier::Baseline).unwrap();
        let near = cache.nearest_basis(&edited, &old, &options).expect("edit must near-match");
        assert!(near.changed_locations >= 1);
        assert!(
            near.changed_locations * 2
                < edited.ts.num_locations() + old.ts.num_locations(),
            "most locations must be unchanged"
        );
        assert_eq!(
            near.basis.fingerprint(),
            Some(pair_fingerprint(&edited, &old)),
            "the replayed basis must be rebadged to the querying pair"
        );
        // The rebadged basis passes the provenance guard and solves to the same
        // threshold a cold solve finds.
        let (warm_result, _) = solver.solve_with_warm_start(&edited, &old, Some(&near.basis));
        let warm_result = warm_result.unwrap();
        assert!(!warm_result.stats.lp_warm_rejected);
        let (cold_result, _) = solver.solve_with_warm_start(&edited, &old, None);
        assert_eq!(
            warm_result.threshold.to_bits(),
            cold_result.unwrap().threshold.to_bits()
        );
    }

    #[test]
    fn program_cache_dedupes_identical_sources_per_tier() {
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&source(1), InvariantTier::Baseline).unwrap();
        let b = cache.get_or_compile(&source(1), InvariantTier::Baseline).unwrap();
        assert_eq!(cache.compiles(), 1, "second submission must be a hit");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let _ = cache.get_or_compile(&source(1), InvariantTier::Hull).unwrap();
        assert_eq!(cache.compiles(), 2, "a different tier is a different entry");
        assert!(cache.get_or_compile("proc broken {", InvariantTier::Baseline).is_err());
    }

    #[test]
    fn options_fingerprint_separates_every_lp_relevant_field() {
        let base = AnalysisOptions::default();
        let fp = options_fingerprint(&base);
        assert_eq!(fp, options_fingerprint(&base.clone()));
        assert_ne!(fp, options_fingerprint(&AnalysisOptions::with_degree(3)));
        assert_ne!(fp, options_fingerprint(&base.exact()));
        assert_ne!(fp, options_fingerprint(&base.with_invariant_tier(InvariantTier::Hull)));
        assert_ne!(fp, options_fingerprint(&base.without_phase_split()));
        assert_ne!(fp, options_fingerprint(&base.without_presolve()));
        assert_ne!(fp, options_fingerprint(&base.without_row_generation()));
        // The time budget does not change what is computed, only how long it may take.
        assert_eq!(
            fp,
            options_fingerprint(&base.with_time_budget(std::time::Duration::from_secs(1)))
        );
    }
}
