//! The global prefix cache and the block pool, fuzzed together against a
//! naive model: a `HashMap` from every cached full-page token path to
//! its block and recency stamp, with lookup, insert and LRU eviction
//! written out the slow, obvious way.
//!
//! Each case runs a seeded sequence of what serving does to a session:
//! admissions that reserve fresh pages or adopt a cached prefix (with
//! the partial-tail row copy), table forks, copy-on-write
//! divergence, full-prompt inserts, *partial*-prompt inserts (the pages
//! a prefill cut at a chunk boundary publishes before it resumes),
//! planning rounds with their lookup claims, pressure evictions,
//! releases and flushes. After every operation:
//!
//! * lookups, insert counts, eviction counts and the cache's counters
//!   equal the model's;
//! * every block's pool refcount equals its holders — one per table
//!   that lists it, one per cache node that holds it — so a page is
//!   used exactly when somebody holds it (no leak, no early free);
//! * the cache's held-page count equals the model's node count.
//!
//! Releasing every table and flushing the cache must leave the pool
//! empty.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use proptest::prelude::*;

use llmnpu_kv::{BlockId, BlockPool, BlockTable, CachedPrefix, PoolConfig, PrefixCache};

/// Pages in the fuzzed pool: small, so reservations run out and the
/// eviction paths carry load.
const POOL_BLOCKS: usize = 24;

/// The naive cache: every cached full-page path, root-down.
#[derive(Default)]
struct Model {
    bt: usize,
    round: u64,
    nodes: HashMap<Vec<u32>, (BlockId, u64)>,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
    hit_blocks: u64,
    inserted: u64,
    evicted: u64,
}

fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Model {
    /// The deepest cached chain of full pages matching `probe`, then the
    /// child of its end sharing the most leading rows with the rest
    /// (smallest key on ties); every node touched is stamped.
    fn lookup(&mut self, probe: &[u32]) -> CachedPrefix {
        let bt = self.bt;
        let mut hit = CachedPrefix::default();
        let mut depth = 0;
        while (depth + 1) * bt <= probe.len() {
            let Some(node) = self.nodes.get_mut(&probe[..(depth + 1) * bt]) else {
                break;
            };
            node.1 = self.round;
            hit.blocks.push(node.0);
            depth += 1;
        }
        hit.tokens = depth * bt;
        let (path, rest) = probe.split_at(depth * bt);
        let mut best: Option<(&[u32], usize)> = None;
        for key in self.nodes.keys() {
            if key.len() != (depth + 1) * bt || &key[..depth * bt] != path {
                continue;
            }
            let (edge, rows) = (&key[depth * bt..], lcp(rest, &key[depth * bt..]));
            if rows > 0 && best.is_none_or(|(e, r)| rows > r || (rows == r && edge < e)) {
                best = Some((edge, rows));
            }
        }
        if let Some((edge, rows)) = best {
            let node = self.nodes.get_mut(&[path, edge].concat()).unwrap();
            node.1 = self.round;
            hit.tail = Some((node.0, rows));
        }
        let matched = hit.matched_tokens() as u64;
        if matched > 0 {
            self.hits += 1;
            self.hit_tokens += matched;
            self.hit_blocks += hit.blocks.len() as u64;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Caches the whole pages of `tokens` backed by `blocks`; existing
    /// nodes win and are stamped one round back, like new ones.
    fn insert(&mut self, tokens: &[u32], blocks: &[BlockId]) -> usize {
        let stamp = self.round.saturating_sub(1);
        let mut added = 0;
        for i in 0..(tokens.len() / self.bt).min(blocks.len()) {
            match self.nodes.entry(tokens[..(i + 1) * self.bt].to_vec()) {
                Entry::Occupied(mut e) => e.get_mut().1 = e.get().1.max(stamp),
                Entry::Vacant(e) => {
                    e.insert((blocks[i], stamp));
                    added += 1;
                }
            }
        }
        self.inserted += added as u64;
        added
    }

    /// Evicts up to `want` leaves that nobody but the cache holds and no
    /// lookup claimed this round, coldest first, smallest path on ties.
    fn evict(&mut self, want: usize, refs: impl Fn(&Model, BlockId) -> u32) -> usize {
        let mut freed = 0;
        while freed < want {
            let leaf = self
                .nodes
                .iter()
                .filter(|(key, &(block, stamp))| {
                    let has_child = self
                        .nodes
                        .keys()
                        .any(|k| k.len() == key.len() + self.bt && k.starts_with(key));
                    !has_child && stamp != self.round && refs(self, block) == 1
                })
                .min_by(|a, b| (a.1 .1, a.0).cmp(&(b.1 .1, b.0)))
                .map(|(key, _)| key.clone());
            let Some(key) = leaf else { break };
            self.nodes.remove(&key);
            freed += 1;
        }
        self.evicted += freed as u64;
        freed
    }
}

/// A live request: its table and the prompt its pages hold.
struct Live {
    table: BlockTable,
    prompt: Vec<u32>,
}

/// Every holder's share of `block`: tables listing it, cache nodes on it.
fn holders(model: &Model, live: &[Live], block: BlockId) -> u32 {
    let tables = live
        .iter()
        .map(|l| l.table.blocks().iter().filter(|&&b| b == block).count())
        .sum::<usize>();
    let cached = model.nodes.values().filter(|&&(b, _)| b == block).count();
    (tables + cached) as u32
}

/// SplitMix64 over one op's seed: that op's parameters.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }

    /// A prompt over a three-token alphabet, so prefixes collide often.
    fn prompt(&mut self, bt: usize) -> Vec<u32> {
        let len = 1 + self.below(4 * bt + 2);
        (0..len).map(|_| self.below(3) as u32).collect()
    }
}

fn check(pool: &BlockPool, cache: &PrefixCache, model: &Model, live: &[Live], op: &str) {
    let mut used = 0;
    for b in 0..POOL_BLOCKS {
        let want = holders(model, live, b);
        assert_eq!(pool.ref_count(b).unwrap(), want, "{op}: block {b} refcount");
        used += usize::from(want > 0);
    }
    assert_eq!(pool.used_blocks(), used, "{op}: used pages = held pages");
    assert_eq!(cache.held_blocks(), model.nodes.len(), "{op}: cached pages");
    let m = cache.metrics();
    assert_eq!(
        (m.hits, m.misses, m.hit_tokens, m.hit_blocks),
        (model.hits, model.misses, model.hit_tokens, model.hit_blocks),
        "{op}: lookup counters"
    );
    assert_eq!(
        (m.inserted_blocks, m.evicted_blocks),
        (model.inserted, model.evicted),
        "{op}: insert / evict counters"
    );
}

fn run(bt: usize, ops: &[(u8, u64)]) {
    let pool = BlockPool::new(PoolConfig {
        layers: 1,
        kv_dim: 2,
        block_tokens: bt,
        blocks: POOL_BLOCKS,
    })
    .unwrap();
    let cache = PrefixCache::new(bt);
    let mut model = Model {
        bt,
        ..Model::default()
    };
    let mut live: Vec<Live> = Vec::new();
    for &(code, seed) in ops {
        let mut d = Draw(seed);
        let op = match code {
            // Admission: adopt the cached prefix of the prompt (capped
            // so one token is left to prefill), reserve the rest, copy
            // the partial tail's rows into the first private page.
            0..=2 => {
                let prompt = d.prompt(bt);
                let probe = &prompt[..prompt.len() - 1];
                let hit = cache.lookup(probe);
                let want = model.lookup(probe);
                assert_eq!(
                    (&hit.blocks, hit.tokens, hit.tail),
                    (&want.blocks, want.tokens, want.tail),
                    "lookup of {probe:?}"
                );
                let total = prompt.len() + d.below(2 * bt);
                if let Ok(table) = BlockTable::reserve_with_prefix(&pool, &hit.blocks, total) {
                    if let Some((src, rows)) = hit.tail {
                        let dst = table.blocks()[hit.blocks.len()];
                        pool.copy_rows(src, dst, rows).unwrap();
                    }
                    live.push(Live { table, prompt });
                }
                "admit"
            }
            // Table fork: a new table adopts a live table's leading
            // whole pages through `reserve_with_prefix`, for a prompt
            // that extends them.
            3 if !live.is_empty() => {
                let donor = &live[d.below(live.len())];
                let pages = d.below(donor.prompt.len() / bt + 1);
                let mut prompt = donor.prompt[..pages * bt].to_vec();
                prompt.extend(d.prompt(bt));
                let prefix = donor.table.blocks()[..pages].to_vec();
                let total = prompt.len() + d.below(bt);
                if let Ok(table) = BlockTable::reserve_with_prefix(&pool, &prefix, total) {
                    live.push(Live { table, prompt });
                }
                "fork"
            }
            // Copy-on-write at a position of a live table.
            4 if !live.is_empty() => {
                let i = d.below(live.len());
                let pos = d.below(live[i].table.capacity_tokens());
                let old = live[i].table.locate(pos).unwrap().0;
                let shared = pool.ref_count(old).unwrap() > 1;
                match live[i].table.ensure_writable(&pool, pos) {
                    Ok(copied) => assert_eq!(copied, shared, "cow copies iff shared"),
                    Err(_) => assert!(shared && pool.free_blocks() == 0, "cow failed unshared"),
                }
                "cow"
            }
            // A completed prefill publishes its whole prompt; a prefill
            // cut at a chunk boundary publishes a prefix of it.
            5 | 6 if !live.is_empty() => {
                let l = &live[d.below(live.len())];
                let done = if code == 5 {
                    l.prompt.len()
                } else {
                    d.below(l.prompt.len() + 1)
                };
                let added = cache
                    .insert(&pool, &l.prompt[..done], l.table.blocks())
                    .unwrap();
                assert_eq!(added, model.insert(&l.prompt[..done], l.table.blocks()));
                "insert"
            }
            7 => {
                let want = d.below(4);
                let freed = cache.evict_lru(&pool, want).unwrap();
                let model_freed = model.evict(want, |m, b| holders(m, &live, b));
                assert_eq!(freed, model_freed, "evict_lru({want})");
                "evict"
            }
            8 if !live.is_empty() => {
                let mut l = live.swap_remove(d.below(live.len()));
                l.table.release(&pool).unwrap();
                "release"
            }
            9 => {
                cache.begin_round();
                model.round += 1;
                "round"
            }
            10 => {
                assert_eq!(cache.flush(&pool).unwrap(), model.nodes.len());
                model.nodes.clear();
                "flush"
            }
            _ => continue,
        };
        check(&pool, &cache, &model, &live, op);
    }
    for mut l in live {
        l.table.release(&pool).unwrap();
    }
    cache.flush(&pool).unwrap();
    assert_eq!(pool.used_blocks(), 0, "pages leaked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prefix_cache_and_pool_match_a_naive_model(
        bt in 1usize..=4,
        ops in prop::collection::vec((0u8..=10, any::<u64>()), 1..160),
    ) {
        run(bt, &ops);
    }
}
