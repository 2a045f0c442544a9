//! The global radix prefix cache over the block pool.
//!
//! A serving front-end sees the same system prompt across thousands of
//! requests that *never overlap*, so prompt-prefix reuse is a **global**
//! cache: any request whose prompt starts with an already-computed
//! prefix reuses those pages, however long ago its producer released
//! them. It is the serving plane's only prefix-reuse path.
//!
//! [`PrefixCache`] is a radix tree over token-id prefixes at **block
//! granularity**: one node per pool block, keyed by the exact
//! `block_tokens` token ids that block holds. Only *full* prompt blocks
//! are cached, which makes every cached block immutable — decode writes
//! land in later (partial) blocks, and copy-on-write protects against
//! any rewrite by a sharer. The cache holds its own reference on every
//! cached block (refcount +1), so cached pages survive their producing
//! request's release and are never recycled underneath a reader.
//!
//! # Eviction (ref-count-aware, round-granular LRU)
//!
//! Under pool pressure the serving planner evicts cold cached prefixes
//! leaf-first. A node is evictable only when
//!
//! * it has no cached children (evicting an interior node would orphan
//!   the path below it),
//! * its pool refcount is exactly 1 — the cache's own reference — so a
//!   prefix **mid-reuse by a live request is refused**, and
//! * it was not touched in the current round (a lookup this round is a
//!   claim: the hit's admission task has not retained the blocks yet).
//!
//! # Determinism
//!
//! Recency is stamped at **round** granularity (the serving loop calls
//! [`PrefixCache::begin_round`] once per planning pass), never from a
//! wall clock or a per-operation counter: concurrent inserts from
//! prefill-finish tasks executing in any lane order produce identical
//! stamps, and eviction orders candidates by `(stamp, token path)` — a
//! total order independent of thread timing. Insert collisions (two
//! requests computing the same prefix privately in one round) are
//! first-wins on the *block id*, which is sound because colliding
//! blocks hold bit-identical K/V rows (same model, same tokens, same
//! absolute RoPE positions); no stream bit or page count depends on
//! which id won.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use llmnpu_obs::{EventKind, Plane, TraceSink};

use crate::pool::{BlockId, BlockPool};
use crate::{Error, Result};

/// One cached block: the pool page holding the `block_tokens` tokens of
/// this node's edge key, plus recency/child bookkeeping.
#[derive(Debug)]
struct Node {
    block: BlockId,
    /// Round of the last lookup/insert that touched this node.
    stamp: u64,
    children: BTreeMap<Box<[u32]>, Node>,
}

/// A successful [`PrefixCache::lookup`]: the longest cached chain of
/// full blocks matching the probe, plus an optional partial tail.
#[derive(Debug, Clone, Default)]
pub struct CachedPrefix {
    /// Cached block ids covering the matched full blocks, root-down.
    /// The blocks are *not* retained for the caller — they are
    /// cache-held and claim-protected until the next
    /// [`PrefixCache::begin_round`]; an admission path retains them via
    /// `BlockTable::reserve_with_prefix`.
    pub blocks: Vec<BlockId>,
    /// Tokens covered by `blocks` (`blocks.len() × block_tokens`).
    pub tokens: usize,
    /// A cached block sharing only its leading rows with the probe's
    /// remainder: `(block, rows)` — the sub-block tail recovered by a
    /// partial-row copy into the sharer's first private page.
    pub tail: Option<(BlockId, usize)>,
}

impl CachedPrefix {
    /// Total matched tokens: full blocks plus the partial tail.
    #[must_use]
    pub fn matched_tokens(&self) -> usize {
        self.tokens + self.tail.map_or(0, |(_, rows)| rows)
    }
}

/// Cumulative cache counters (serving reports snapshot and diff these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheMetrics {
    /// Lookups answered with at least one matched token.
    pub hits: u64,
    /// Lookups answered with nothing.
    pub misses: u64,
    /// Tokens served from cache across all hits (full blocks + tails).
    pub hit_tokens: u64,
    /// Pool pages reused from cache across all hits (full blocks only;
    /// a tail reuses rows, not a page).
    pub hit_blocks: u64,
    /// Blocks newly retained by inserts.
    pub inserted_blocks: u64,
    /// Cached blocks released by LRU eviction.
    pub evicted_blocks: u64,
}

#[derive(Debug, Default)]
struct Inner {
    children: BTreeMap<Box<[u32]>, Node>,
    /// Current round (see [`PrefixCache::begin_round`]).
    round: u64,
    /// Cached block count (= node count; the cache's held pages).
    held: usize,
    metrics: PrefixCacheMetrics,
}

/// Global radix/trie prefix cache over a [`BlockPool`]. See the module
/// docs for the design.
///
/// Interior mutability: lookups and inserts run from planner code and
/// from prefill-finish tasks on executor lanes, so the tree lives
/// behind a mutex. All lock acquisitions recover from poisoning — the
/// tree is validate-then-apply under the lock, and a panicking task
/// must not turn the shared cache into a denial of service.
#[derive(Debug, Default)]
pub struct PrefixCache {
    inner: Mutex<Inner>,
    block_tokens: usize,
    /// Optional trace recorder for cache traffic. Numeric plane: no
    /// wall timestamps; Exec plane (lookups run from executor tasks).
    trace: OnceLock<Arc<TraceSink>>,
}

fn lock(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Longest common prefix of two token slices.
fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl PrefixCache {
    /// An empty cache for pools with the given page size.
    #[must_use]
    pub fn new(block_tokens: usize) -> Self {
        PrefixCache {
            inner: Mutex::new(Inner::default()),
            block_tokens,
            trace: OnceLock::new(),
        }
    }

    /// Installs a trace sink for cache events (hit / miss / insert /
    /// evict). First install wins; later calls are ignored (the cache
    /// outlives individual serving sessions).
    pub fn install_trace(&self, sink: Arc<TraceSink>) {
        let _ = self.trace.set(sink);
    }

    fn trace_event(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(sink) = self.trace.get() {
            sink.event(Plane::Exec, kind, None, detail);
        }
    }

    /// The page size the cache's node keys are sliced at.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Blocks currently held (retained) by the cache.
    #[must_use]
    pub fn held_blocks(&self) -> usize {
        lock(&self.inner).held
    }

    /// Cumulative counters.
    #[must_use]
    pub fn metrics(&self) -> PrefixCacheMetrics {
        lock(&self.inner).metrics
    }

    /// Starts a planning round: recency stamps written from here on
    /// carry the new round id, and nodes touched in the *new* round are
    /// claim-protected from eviction. Call once per serve planning pass.
    pub fn begin_round(&self) {
        lock(&self.inner).round += 1;
    }

    /// Longest cached prefix of `tokens`: the deepest chain of full
    /// blocks whose keys match, plus (optionally) one more cached block
    /// sharing only leading rows with the remainder. Touched nodes are
    /// stamped with the current round (LRU bump + eviction claim).
    ///
    /// Pass the probe already capped to the maximum shareable length
    /// (a prefill must still compute at least one suffix token).
    #[must_use]
    pub fn lookup(&self, tokens: &[u32]) -> CachedPrefix {
        let bt = self.block_tokens;
        let mut g = lock(&self.inner);
        let round = g.round;
        let mut hit = CachedPrefix::default();
        descend(&mut g.children, tokens, bt, round, &mut hit);
        let matched = hit.matched_tokens();
        if matched > 0 {
            g.metrics.hits += 1;
            g.metrics.hit_tokens += matched as u64;
            g.metrics.hit_blocks += hit.blocks.len() as u64;
        } else {
            g.metrics.misses += 1;
        }
        drop(g);
        if matched > 0 {
            let blocks = hit.blocks.len();
            self.trace_event(EventKind::CacheHit, || {
                format!("{matched} token(s) over {blocks} cached block(s)")
            });
        } else {
            self.trace_event(EventKind::CacheMiss, || {
                format!("probe of {} token(s)", tokens.len())
            });
        }
        hit
    }

    /// Caches the full-block prefix of `tokens` backed by `blocks` (a
    /// producing request's leading table blocks, prefill complete).
    /// Only `tokens.len() / block_tokens` whole blocks are considered;
    /// each *newly* added node retains its block in `pool` (the cache's
    /// own reference). Existing nodes win ties (their block already
    /// holds bit-identical rows). Returns the number of blocks newly
    /// cached.
    ///
    /// Inserted nodes are stamped one round *back*: a block published
    /// mid-round is immediately reclaimable by a memory-pressure
    /// eviction once its producer releases it (refcounts protect pages
    /// mid-use), while claims lookups placed this round (stamp ==
    /// round) are never downgraded.
    ///
    /// # Errors
    ///
    /// Returns pool errors if a block to retain is invalid or free
    /// (nothing is partially inserted on error: the walk retains one
    /// block per step *before* descending).
    pub fn insert(&self, pool: &BlockPool, tokens: &[u32], blocks: &[BlockId]) -> Result<usize> {
        let bt = self.block_tokens;
        let full = (tokens.len() / bt).min(blocks.len());
        let mut g = lock(&self.inner);
        let stamp = g.round.saturating_sub(1);
        let mut added = 0;
        let mut children = &mut g.children;
        for i in 0..full {
            let key: Box<[u32]> = tokens[i * bt..(i + 1) * bt].into();
            let node = match children.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    pool.retain_blocks(&blocks[i..=i])?;
                    added += 1;
                    e.insert(Node {
                        block: blocks[i],
                        stamp,
                        children: BTreeMap::new(),
                    })
                }
            };
            node.stamp = node.stamp.max(stamp);
            children = &mut node.children;
        }
        if added > 0 {
            g.held += added;
            g.metrics.inserted_blocks += added as u64;
            let held = g.held;
            drop(g);
            self.trace_event(EventKind::CacheInsert, || {
                format!("{added} block(s) cached, {held} held")
            });
        }
        Ok(added)
    }

    /// Evicts cold cached prefixes leaf-first until at least
    /// `want_blocks` pages were freed or no evictable node remains,
    /// releasing each evicted block back to `pool`. Returns blocks
    /// freed. See the module docs for what "evictable" means; the scan
    /// order is `(stamp, token path)` — fully deterministic.
    ///
    /// # Errors
    ///
    /// Returns pool errors only if the cache's accounting disagrees
    /// with the pool (a cached block it holds a reference on was freed
    /// behind its back).
    pub fn evict_lru(&self, pool: &BlockPool, want_blocks: usize) -> Result<usize> {
        let mut g = lock(&self.inner);
        let round = g.round;
        let mut freed = 0;
        while freed < want_blocks {
            // Coldest evictable leaf: no cached children, untouched
            // this round, refcount exactly 1 (cache-only — a prefix
            // mid-reuse is refused).
            let Some(path) = coldest_leaf(&g.children, round, pool)? else {
                break;
            };
            let block = remove_path(&mut g.children, &path).ok_or(Error::Inconsistent {
                what: "eviction path vanished under the cache lock".to_owned(),
            })?;
            pool.release_blocks(&[block])?;
            g.held -= 1;
            g.metrics.evicted_blocks += 1;
            freed += 1;
        }
        if freed > 0 {
            drop(g);
            self.trace_event(EventKind::CacheEvict, || {
                format!("{freed} of {want_blocks} wanted block(s) evicted")
            });
        }
        Ok(freed)
    }

    /// Releases every cached block back to `pool` and empties the tree
    /// (end of a transient serving session). Returns blocks freed.
    ///
    /// # Errors
    ///
    /// Returns pool errors on accounting disagreement (double free).
    pub fn flush(&self, pool: &BlockPool) -> Result<usize> {
        let mut g = lock(&self.inner);
        let mut blocks = Vec::with_capacity(g.held);
        collect_blocks(&g.children, &mut blocks);
        pool.release_blocks(&blocks)?;
        g.children.clear();
        g.held = 0;
        Ok(blocks.len())
    }
}

/// One step of the lookup walk: follow the full-block child matching
/// `tokens`' head if present, else resolve the partial tail among the
/// current children. (The full-block membership test runs *before* the
/// mutable descent so the tail scan never overlaps a live child loan —
/// the borrow checker cannot express "hand the map back on miss".)
fn descend(
    children: &mut BTreeMap<Box<[u32]>, Node>,
    tokens: &[u32],
    bt: usize,
    round: u64,
    hit: &mut CachedPrefix,
) {
    let full_match = tokens.len() >= bt && children.contains_key(&tokens[..bt]);
    if full_match {
        if let Some(node) = children.get_mut(&tokens[..bt]) {
            node.stamp = round;
            hit.blocks.push(node.block);
            hit.tokens += bt;
            descend(&mut node.children, &tokens[bt..], bt, round, hit);
        }
        return;
    }
    // Partial tail: a child block whose leading rows match the
    // remainder. The argmax is deterministic — BTreeMap iteration is
    // key-ordered and strict `>` makes the smallest key win ties.
    if tokens.is_empty() {
        return;
    }
    let mut best: Option<(&mut Node, usize)> = None;
    for (key, node) in children.iter_mut() {
        let rows = lcp(tokens, key);
        if rows > 0 && best.as_ref().is_none_or(|(_, b)| rows > *b) {
            best = Some((node, rows));
        }
    }
    if let Some((node, rows)) = best {
        node.stamp = round;
        hit.tail = Some((node.block, rows));
    }
}

/// Depth-first scan for the coldest evictable leaf, returning its key
/// path from the root. `None` when nothing is evictable.
fn coldest_leaf(
    children: &BTreeMap<Box<[u32]>, Node>,
    round: u64,
    pool: &BlockPool,
) -> Result<Option<Vec<Box<[u32]>>>> {
    fn walk(
        children: &BTreeMap<Box<[u32]>, Node>,
        round: u64,
        pool: &BlockPool,
        path: &mut Vec<Box<[u32]>>,
        best: &mut Option<(u64, Vec<Box<[u32]>>)>,
    ) -> Result<()> {
        for (key, node) in children {
            path.push(key.clone());
            if node.children.is_empty() {
                let claimed = node.stamp == round;
                if !claimed && pool.ref_count(node.block)? == 1 {
                    // BTreeMap iteration is key-ordered, so on equal
                    // stamps the first (smallest-path) candidate wins —
                    // strict `<` keeps it.
                    let colder = best.as_ref().is_none_or(|(s, _)| node.stamp < *s);
                    if colder {
                        *best = Some((node.stamp, path.clone()));
                    }
                }
            } else {
                walk(&node.children, round, pool, path, best)?;
            }
            path.pop();
        }
        Ok(())
    }
    let mut best = None;
    let mut path = Vec::new();
    walk(children, round, pool, &mut path, &mut best)?;
    Ok(best.map(|(_, p)| p))
}

/// Removes the node at `path` (produced by [`coldest_leaf`] under the
/// same lock guard, so present and a leaf) and returns its block.
fn remove_path(children: &mut BTreeMap<Box<[u32]>, Node>, path: &[Box<[u32]>]) -> Option<BlockId> {
    match path {
        [] => None,
        [last] => children.remove(last).map(|node| node.block),
        [head, rest @ ..] => remove_path(&mut children.get_mut(head)?.children, rest),
    }
}

fn collect_blocks(children: &BTreeMap<Box<[u32]>, Node>, out: &mut Vec<BlockId>) {
    for node in children.values() {
        out.push(node.block);
        collect_blocks(&node.children, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BlockTable, PoolConfig};

    fn pool(blocks: usize) -> BlockPool {
        BlockPool::new(PoolConfig {
            layers: 1,
            kv_dim: 2,
            block_tokens: 4,
            blocks,
        })
        .unwrap()
    }

    fn toks(n: usize, base: u32) -> Vec<u32> {
        (0..n as u32).map(|i| base + i).collect()
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(10, 0);
        assert_eq!(cache.lookup(&prompt).matched_tokens(), 0);

        // Producer computed the prompt privately; cache its 2 full blocks.
        let mut table = BlockTable::reserve(&p, 10).unwrap();
        let added = cache.insert(&p, &prompt, table.blocks()).unwrap();
        assert_eq!(added, 2);
        assert_eq!(cache.held_blocks(), 2);
        // Cache holds its own reference: producer release keeps them live.
        table.release(&p).unwrap();
        assert_eq!(p.used_blocks(), 2);

        let hit = cache.lookup(&prompt[..9]);
        assert_eq!(hit.tokens, 8);
        assert_eq!(hit.blocks.len(), 2);
        assert_eq!(hit.tail, None, "third block was partial, never cached");
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 1));
        assert_eq!(m.hit_tokens, 8);
    }

    #[test]
    fn partial_tail_match_mid_block() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(8, 0);
        let table = BlockTable::reserve(&p, 8).unwrap();
        cache.insert(&p, &prompt, table.blocks()).unwrap();

        // Probe shares block 0 fully and 2 rows of block 1.
        let probe = [0, 1, 2, 3, 4, 5, 99];
        let hit = cache.lookup(&probe);
        assert_eq!(hit.tokens, 4);
        assert_eq!(hit.blocks, vec![table.blocks()[0]]);
        assert_eq!(hit.tail, Some((table.blocks()[1], 2)));
        assert_eq!(hit.matched_tokens(), 6);

        // Probe diverging inside the first block: tail only.
        let hit = cache.lookup(&[0, 1, 7, 7]);
        assert_eq!(hit.tokens, 0);
        assert_eq!(hit.tail, Some((table.blocks()[0], 2)));
    }

    #[test]
    fn eviction_is_lru_leaf_first_and_refuses_claims_and_reuse() {
        let p = pool(16);
        let cache = PrefixCache::new(4);

        cache.begin_round(); // round 1
        let cold = toks(4, 100);
        let mut t_cold = BlockTable::reserve(&p, 4).unwrap();
        let cold_block = t_cold.blocks()[0];
        cache.insert(&p, &cold, t_cold.blocks()).unwrap();
        t_cold.release(&p).unwrap();

        cache.begin_round(); // round 2
        let warm = toks(8, 0);
        let mut t_warm = BlockTable::reserve(&p, 8).unwrap();
        let warm_blocks = t_warm.blocks().to_vec();
        cache.insert(&p, &warm, &warm_blocks).unwrap();
        t_warm.release(&p).unwrap();

        cache.begin_round(); // round 3: nothing claimed yet
                             // Coldest leaf is the round-1 entry; the warm chain would go
                             // leaf-first (deep block before its parent) next.
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(p.ref_count(cold_block).unwrap(), 0, "cold entry gone");
        assert_eq!(cache.held_blocks(), 2);

        // A lookup this round claims the warm chain: eviction refused.
        let hit = cache.lookup(&warm[..7]);
        assert_eq!(hit.blocks.len(), 1);
        assert!(hit.tail.is_some());
        assert_eq!(cache.evict_lru(&p, 2).unwrap(), 0, "claims protect hits");

        cache.begin_round(); // round 4: claims expire…
        let mut sharer = BlockTable::reserve_with_prefix(&p, &[warm_blocks[0]], 8).unwrap();
        // …but block 0 is mid-reuse (refcount 2: cache + sharer), and
        // the leaf (block 1) cannot be evicted either without breaking
        // the claim-free chain? No — the leaf is cache-only (refcount
        // 1) and cold, so exactly the leaf goes; the mid-reuse parent
        // is refused.
        assert_eq!(
            cache.evict_lru(&p, 2).unwrap(),
            1,
            "leaf evicts, parent refused"
        );
        assert_eq!(
            p.ref_count(warm_blocks[0]).unwrap(),
            2,
            "mid-reuse block survives"
        );
        assert_eq!(cache.held_blocks(), 1);
        sharer.release(&p).unwrap();

        cache.begin_round(); // round 5: no user left — parent evicts.
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(cache.held_blocks(), 0);
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn reinsertion_after_eviction() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(4, 0);
        let mut t = BlockTable::reserve(&p, 4).unwrap();
        cache.insert(&p, &prompt, t.blocks()).unwrap();
        t.release(&p).unwrap();

        cache.begin_round();
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.lookup(&prompt).matched_tokens(), 0);

        // Fresh producer re-caches the same tokens under a new block.
        let mut t2 = BlockTable::reserve(&p, 4).unwrap();
        assert_eq!(cache.insert(&p, &prompt, t2.blocks()).unwrap(), 1);
        let hit = cache.lookup(&prompt);
        assert_eq!(hit.blocks, t2.blocks().to_vec());
        t2.release(&p).unwrap();
        cache.flush(&p).unwrap();
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn first_wins_on_colliding_inserts() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(4, 0);
        let a = BlockTable::reserve(&p, 4).unwrap();
        let b = BlockTable::reserve(&p, 4).unwrap();
        assert_eq!(cache.insert(&p, &prompt, a.blocks()).unwrap(), 1);
        assert_eq!(cache.insert(&p, &prompt, b.blocks()).unwrap(), 0);
        assert_eq!(cache.lookup(&prompt).blocks, a.blocks().to_vec());
        assert_eq!(cache.held_blocks(), 1);
    }

    #[test]
    fn flush_returns_every_block() {
        let p = pool(16);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        for base in [0u32, 500, 1000] {
            let prompt = toks(8, base);
            let mut t = BlockTable::reserve(&p, 8).unwrap();
            cache.insert(&p, &prompt, t.blocks()).unwrap();
            t.release(&p).unwrap();
        }
        assert_eq!(cache.held_blocks(), 6);
        assert_eq!(p.used_blocks(), 6);
        assert_eq!(cache.flush(&p).unwrap(), 6);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.held_blocks(), 0);
    }
}
