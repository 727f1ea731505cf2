//! The compare-and-merge engine behind both schedules of Algorithm 2.
//!
//! [`Engine`] owns the algorithm state — value-pair index, super records,
//! union–find, schema voter, similarity cache, pruned-pair memo, dirty
//! set, counters and journal — and performs every step of the paper's
//! loop that does not depend on *which* pairs are compared *when*:
//!
//! * frontier keys and (memoized) Algorithm-1 bounds;
//! * the parallel verify phase with its stats fold, span and timing;
//! * the sequential re-verification of a stale verdict;
//! * banking a verdict's cache fills under still-root labels;
//! * vote → decide → journal the freshly decided schema matchings;
//! * merge: union, `⊕`, index and cache maintenance, memo invalidation;
//! * round-end and call-end bookkeeping, including the
//!   [`HeraConfig::validate_index`] invariant check.
//!
//! Two schedules sit on top and decide the rest: the Paper schedule
//! (`driver.rs`, behind [`crate::Hera`]) and the Ranked schedule
//! (`session.rs`, behind [`crate::HeraSession`]'s resolve calls). See
//! DESIGN.md, "One engine, two schedules".

use crate::config::HeraConfig;
use crate::simcache::{SimCache, SimDelta};
use crate::stats::RunStats;
use crate::super_record::{LabelRemap, SuperRecord};
use crate::verify::{InstanceVerifier, Verification, VerifyScratch};
use crate::voter::SchemaVoter;
use hera_index::{
    drain_ranked_with, BoundMode, Bounds, RankedCandidate, UnionFind, ValuePairIndex,
};
use hera_obs::Recorder;
use hera_sim::ValueSimilarity;
use hera_types::json::Json;
use hera_types::{HeraError, Result, SchemaRegistry};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;
use std::time::Instant;

/// A verdict of the parallel verify phase and the cache traffic it
/// recorded (banked later, in the sequential apply phase).
pub(crate) type Verdict = (Verification, SimDelta);

/// Algorithm state plus the steps both schedules share.
pub(crate) struct Engine {
    pub(crate) config: HeraConfig,
    pub(crate) metric: Arc<dyn ValueSimilarity>,
    pub(crate) registry: SchemaRegistry,
    pub(crate) index: ValuePairIndex,
    pub(crate) supers: FxHashMap<u32, SuperRecord>,
    pub(crate) uf: UnionFind,
    pub(crate) voter: SchemaVoter,
    /// Merge-aware `metric.sim` memo: read-only during the parallel
    /// verify phase, filled and re-homed only in the sequential apply
    /// phase, so results stay bit-identical at every thread count.
    pub(crate) cache: Option<SimCache>,
    /// Root pairs whose bounds were last computed with `Up < δ` and
    /// whose inputs have not changed since: the group is unrewritten and
    /// neither side's informative size moved. Derived state — never
    /// checkpointed; a cold memo recomputes with identical results.
    pub(crate) pruned_memo: FxHashSet<(u32, u32)>,
    /// Roots whose evidence changed since a schedule last drained them;
    /// every merge marks its surviving root.
    pub(crate) dirty: FxHashSet<u32>,
    pub(crate) stats: RunStats,
    pub(crate) recorder: Recorder,
    /// Worker count of the parallel verify phase.
    pub(crate) threads: usize,
    /// Scratch for the sequential re-verifications.
    scratch: VerifyScratch,
}

/// Counters at the start of one round, for its end-of-round deltas.
pub(crate) struct Round {
    /// The round number (the lifetime `RunStats::iterations`).
    pub(crate) n: usize,
    merges: usize,
    metric_calls: u64,
}

impl Engine {
    /// An engine with no records.
    pub(crate) fn new(
        config: HeraConfig,
        metric: Arc<dyn ValueSimilarity>,
        recorder: Recorder,
    ) -> Self {
        Self {
            threads: crate::parallel::effective_threads(config.num_threads),
            cache: config.sim_cache.then(SimCache::new),
            config,
            metric,
            registry: SchemaRegistry::new(),
            index: ValuePairIndex::default(),
            supers: FxHashMap::default(),
            uf: UnionFind::new(0),
            voter: SchemaVoter::new(),
            pruned_memo: FxHashSet::default(),
            dirty: FxHashSet::default(),
            stats: RunStats::default(),
            recorder,
            scratch: VerifyScratch::new(),
        }
    }

    /// Algorithm 1's bounds of a root pair under the current sizes.
    pub(crate) fn bounds(&self, a: u32, b: u32) -> Bounds {
        bounds(&self.index, &self.supers, self.config.bound_mode, a, b)
    }

    /// Bounds every key through the pruned-pair memo, prunes `Up < δ`
    /// (counted in `RunStats::pruned`) and returns the survivors in
    /// [`hera_index::rank_candidates`] order.
    pub(crate) fn drain_ranked(
        &mut self,
        keys: &[(u32, u32)],
        round: usize,
    ) -> Vec<RankedCandidate> {
        let delta = self.config.delta;
        let (mut hits, mut misses) = (0i64, 0i64);
        let (ranked, pruned) = {
            let (index, supers, memo) = (&self.index, &self.supers, &mut self.pruned_memo);
            let bounds = |a, b| bounds(index, supers, self.config.bound_mode, a, b);
            drain_ranked_with(
                keys,
                |a, b| {
                    if memo.contains(&(a, b)) {
                        debug_assert!(
                            bounds(a, b).up < delta,
                            "pruned-pair memo hit ({a}, {b}) no longer prunes"
                        );
                        hits += 1;
                        return None;
                    }
                    misses += 1;
                    let computed = bounds(a, b);
                    if computed.up < delta {
                        memo.insert((a, b));
                    }
                    Some(computed)
                },
                |r| supers[&r].members.len() as u64,
                delta,
            )
        };
        self.stats.pruned += pruned;
        if self.recorder.enabled() {
            // Host-side cache traffic: a cold memo (a restored session)
            // counts differently, so this stays out of the core journal.
            self.recorder.emit_diag(
                "diag",
                vec![
                    ("what", Json::Str("pruned_memo".into())),
                    ("round", Json::Int(round as i64)),
                    ("hits", Json::Int(hits)),
                    ("misses", Json::Int(misses)),
                ],
            );
        }
        ranked
    }

    /// Opens a round: bumps the lifetime iteration counter.
    pub(crate) fn begin_round(&mut self) -> Round {
        self.stats.iterations += 1;
        Round {
            n: self.stats.iterations,
            merges: self.stats.merges,
            metric_calls: self.stats.metric_sim_calls,
        }
    }

    /// Merges applied since `round` opened.
    pub(crate) fn merges_since(&self, round: &Round) -> usize {
        self.stats.merges - round.merges
    }

    /// Closes a round: per-round metric calls, the `round_end` event,
    /// and — under [`HeraConfig::validate_index`] — the index and
    /// sim-cache invariant check.
    pub(crate) fn end_round(&mut self, round: &Round) -> Result<()> {
        self.stats
            .metric_calls_by_round
            .push(self.stats.metric_sim_calls - round.metric_calls);
        self.recorder.round_end(
            round.n,
            self.merges_since(round) as i64,
            self.index.len() as i64,
            self.voter.open_buckets() as i64,
        );
        if !self.config.validate_index {
            return Ok(());
        }
        self.index.check_invariants().map_err(|e| {
            HeraError::Corrupt(format!(
                "index invariant broken after iteration {}: {e}",
                round.n
            ))
        })?;
        if let Some(c) = &self.cache {
            c.check_invariants().map_err(|e| {
                HeraError::Corrupt(format!(
                    "sim-cache invariant broken after iteration {}: {e}",
                    round.n
                ))
            })?;
        }
        Ok(())
    }

    /// Closes a resolve call: end-of-call sizes and resolve time.
    pub(crate) fn finish(&mut self, started: Instant) {
        self.stats.final_index_size = self.index.len();
        if let Some(c) = &self.cache {
            self.stats.sim_cache_size = c.len();
            self.stats.sim_cache_invalidated = c.invalidated();
        }
        self.stats.resolve_time += started.elapsed();
    }

    /// Verifies root pairs against the current state on the worker
    /// pool. Verification is read-only, so the verdicts — returned in
    /// input order — are identical at every thread count. Emits the
    /// `stage` span (one deterministic fold over the verdicts) and
    /// timing; `comparisons` says whether the pairs count towards
    /// `RunStats::comparisons`.
    pub(crate) fn verify_all(
        &mut self,
        pairs: &[(u32, u32)],
        stage: &str,
        round: usize,
        comparisons: bool,
    ) -> Vec<Verdict> {
        let started = Instant::now();
        let verdicts = {
            let verifier = InstanceVerifier::new(
                self.metric.as_ref(),
                self.config.xi,
                self.config.use_kuhn_munkres,
            );
            let (index, supers, registry, cache) =
                (&self.index, &self.supers, &self.registry, &self.cache);
            let voter = self.config.schema_voting.then_some(&self.voter);
            crate::parallel::par_map_with(
                self.threads,
                pairs,
                VerifyScratch::new,
                |scratch, &(a, b)| {
                    let v = verifier.verify_with(
                        index,
                        &supers[&a],
                        &supers[&b],
                        registry,
                        voter,
                        cache.as_ref(),
                        scratch,
                    );
                    (v, std::mem::take(&mut scratch.delta))
                },
            )
        };
        let elapsed = started.elapsed();
        self.stats.verify_time += elapsed;
        let mut agg = StageAgg::default();
        for (v, delta) in &verdicts {
            self.count(v, delta, comparisons);
            agg.add(v, delta);
        }
        agg.emit(&self.recorder, stage, round);
        self.recorder.timing(stage, Some(round), elapsed);
        verdicts
    }

    /// Re-verifies one root pair whose snapshot verdict went stale,
    /// against the current state, and banks its cache fills at once.
    pub(crate) fn reverify(
        &mut self,
        (a, b): (u32, u32),
        comparison: bool,
        agg: &mut StageAgg,
    ) -> Verification {
        let started = Instant::now();
        let verifier = InstanceVerifier::new(
            self.metric.as_ref(),
            self.config.xi,
            self.config.use_kuhn_munkres,
        );
        let v = verifier.verify_with(
            &self.index,
            &self.supers[&a],
            &self.supers[&b],
            &self.registry,
            self.config.schema_voting.then_some(&self.voter),
            self.cache.as_ref(),
            &mut self.scratch,
        );
        self.stats.verify_time += started.elapsed();
        let delta = std::mem::take(&mut self.scratch.delta);
        self.count(&v, &delta, comparison);
        agg.add(&v, &delta);
        if let Some(c) = self.cache.as_mut() {
            c.apply(&delta);
        }
        // Hand the buffer back so the next re-verification reuses it.
        self.scratch.delta = delta;
        v
    }

    fn count(&mut self, v: &Verification, delta: &SimDelta, comparison: bool) {
        self.stats.comparisons += usize::from(comparison);
        self.stats.simplified_nodes_sum += v.simplified_nodes;
        self.stats.graph_nodes_sum += v.graph_nodes;
        self.stats.matchings_run += 1;
        self.stats.record_cache_delta(delta);
    }

    /// Memoizes a snapshot verdict's metric calls, even when the verdict
    /// itself goes stale: the fills are exact metric outputs. Fills
    /// naming a since-folded record are dropped — only root labels stay
    /// valid across merges.
    pub(crate) fn bank(&mut self, delta: &SimDelta) {
        if let Some(c) = self.cache.as_mut() {
            let uf = &self.uf;
            c.apply_if(delta, |l| uf.find_const(l.rid) == l.rid);
        }
    }

    /// The schema-based method (§IV-B, Algorithm 2 line 9): casts a vote
    /// for every attribute pair aggregated by the pair's predicted field
    /// matching, decides what the votes now support, and journals the
    /// fresh decisions. Returns true when a matching was decided.
    pub(crate) fn vote(&mut self, round: usize, (a, b): (u32, u32), v: &Verification) -> bool {
        if !self.config.schema_voting {
            return false;
        }
        let (left, right) = (&self.supers[&a], &self.supers[&b]);
        for &(lf, rf, _) in v.predicted() {
            for &x in &left.fields[lf as usize].attrs {
                for &y in &right.fields[rf as usize].attrs {
                    self.voter.add_vote(&self.registry, x, y);
                }
            }
        }
        let cfg = &self.config;
        let fresh = self
            .voter
            .decide(cfg.vote_prior, cfg.vote_error_threshold, cfg.vote_min_n);
        self.stats.schema_matchings_decided += fresh.len();
        if self.recorder.enabled() {
            for d in &fresh {
                self.recorder.schema_decided(
                    round,
                    &self.registry.attr_qualified_name(d.attr),
                    &self.registry.attr_qualified_name(d.partner),
                    d.up_error(),
                );
            }
        }
        !fresh.is_empty()
    }

    /// Merges root `b` into root `a` (`a < b`) along the verdict's field
    /// matching (Algorithm 2 line 10) and maintains the index, the cache
    /// and the pruned-pair memo (§III-B2). Marks `a` dirty and returns
    /// the label remap, for state kept outside the engine.
    pub(crate) fn merge(
        &mut self,
        round: usize,
        (a, b): (u32, u32),
        v: &Verification,
    ) -> LabelRemap {
        debug_assert!(a < b);
        self.recorder.merge(round, a, b, v.sim, v.matching.len());
        let k = self.uf.union(a, b);
        debug_assert_eq!(k, a, "union keeps the smaller root");
        let loser = self.supers.remove(&b).expect("loser super record exists");
        let winner = self.supers.get_mut(&a).expect("winner super record exists");
        let matching: Vec<(u32, u32)> = v.matching.iter().map(|&(l, r, _)| (l, r)).collect();
        let size_before = winner.informative_size();
        let remap = winner.absorb(&loser, &matching);
        let winner_grew = winner.informative_size() != size_before;
        // Bounds move only where the merge rewrites a group (the
        // loser's, re-homed under the winner) or resizes a side.
        let memo = !self.pruned_memo.is_empty();
        if memo {
            self.pruned_memo.remove(&(a, b));
            for p in self.index.partners(b) {
                self.pruned_memo.remove(&pair_key(b, p));
                self.pruned_memo.remove(&pair_key(a, p));
            }
        }
        self.index.merge(a, b, k, |l| remap.apply(l));
        if memo && winner_grew {
            for p in self.index.partners(a) {
                self.pruned_memo.remove(&pair_key(a, p));
            }
        }
        // The cache survives the merge through the same remap: the
        // (a, b) group is invalidated, third-party groups are re-homed.
        if let Some(c) = self.cache.as_mut() {
            c.merge(a, b, k, |l| remap.apply(l));
        }
        self.dirty.insert(k);
        self.stats.merges += 1;
        remap
    }
}

fn bounds(
    index: &ValuePairIndex,
    supers: &FxHashMap<u32, SuperRecord>,
    mode: BoundMode,
    a: u32,
    b: u32,
) -> Bounds {
    let size = |r: u32| supers[&r].informative_size();
    index.bounds(a, b, size(a), size(b), mode)
}

/// The frontier's candidate root pairs: every index group touching a
/// dirty root, each once, as a normalized `(min, max)` key. Group keys
/// are always live union–find roots (a merge re-homes the loser's groups
/// under the winner), so each dirty root's partner list *is* its share
/// of the frontier — no index scan, no `find`, no dedup set. A pair of
/// two dirty roots is emitted from its smaller side only.
pub(crate) fn frontier_keys(index: &ValuePairIndex, dirty: &FxHashSet<u32>) -> Vec<(u32, u32)> {
    let mut keys = Vec::new();
    for &r in dirty {
        for p in index.partners(r) {
            if p < r && dirty.contains(&p) {
                continue;
            }
            keys.push(pair_key(r, p));
        }
    }
    keys
}

/// The normalized `(min, max)` key of a root pair.
pub(crate) fn pair_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Deterministic per-stage aggregate over a list of verifications, folded
/// in input order (the `par_map_with` output order, which is independent
/// of thread count). `lookups` uses [`SimDelta::lookups`], the
/// cache-invariant counter, so the emitted span is byte-identical with
/// the similarity cache on or off.
#[derive(Debug, Default)]
pub(crate) struct StageAgg {
    pub(crate) pairs: i64,
    pub(crate) lookups: i64,
    graph_nodes: i64,
    simplified_nodes: i64,
    components: i64,
}

impl StageAgg {
    fn add(&mut self, v: &Verification, delta: &SimDelta) {
        self.pairs += 1;
        self.lookups += delta.lookups() as i64;
        self.graph_nodes += v.graph_nodes as i64;
        self.simplified_nodes += v.simplified_nodes as i64;
        self.components += v.components as i64;
    }

    fn emit(&self, rec: &Recorder, stage: &str, round: usize) {
        rec.span(
            stage,
            Some(round),
            &[
                ("pairs", self.pairs),
                ("lookups", self.lookups),
                ("graph_nodes", self.graph_nodes),
                ("simplified_nodes", self.simplified_nodes),
                ("components", self.components),
            ],
        );
    }
}
