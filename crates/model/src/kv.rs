//! A request's key/value store: pages of the [`BlockPool`] behind a
//! block table.
//!
//! The KV cache is one of the custom operators llm.npu implements on top of
//! QNN (§4). Its semantic role in this reproduction is the chunk-level
//! causal dependency of §3.2: chunk *i*'s attention reads the keys/values
//! written by chunks `0..i`, which is exactly the cross-chunk dependency
//! the scheduler must respect (Equation 2).
//!
//! There is **one** store. A K/V row exists only in a pool page, reached
//! through a [`PagedKvCache`]: serving reserves pages of the shared pool,
//! and a solo run (`generate`, `last_hidden`, `calibrate`, the
//! single-request DAG executor) opens a private pool of exactly one page
//! ([`PagedKvCache::solo`]) — contiguous memory behind the same block
//! table, so every forward runs the same code over the same layout.

use std::sync::Arc;

use llmnpu_kv::{BlockPool, BlockTable, PoolConfig};

use crate::config::ModelConfig;
use crate::Result;

/// A request's KV cache: per-layer `[len, kv_dim]` rows living in fixed
/// [`BlockPool`] pages named by a per-request [`BlockTable`], so
///
/// * capacity is **reserved** against the pool (admission by free
///   pages),
/// * a common prompt prefix can be **shared** with another request's
///   cache (ref-counted blocks, copy-on-write on divergence), and
/// * eviction is `release()` — pages go back to the pool and the
///   request can be recomputed later.
///
/// Positions are absolute and writes are position-addressed, matching
/// the out-of-order prefill executor's invariant. Attention reads go
/// through [`PagedKvReader::view`] (a cache dereferences to its reader)
/// as whole-page slices — what `forward::attention_over_pages` hands the
/// tiled attention kernel, whose key tile is its own constant, so any
/// paging is bit-identical to the one-page store.
#[derive(Debug)]
pub struct PagedKvCache(PagedKvReader);

impl PagedKvCache {
    /// A private store for one solo run: its own pool of exactly **one
    /// page** of `tokens` positions (contiguous, sized exactly — nothing
    /// grows), already reserved.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) for zero `tokens`.
    pub fn solo(cfg: &ModelConfig, tokens: usize) -> Result<Self> {
        let pool = Arc::new(BlockPool::new(PoolConfig {
            layers: cfg.layers,
            kv_dim: cfg.kv_dim(),
            block_tokens: tokens,
            blocks: 1,
        })?);
        Self::reserve(&pool, tokens)
    }

    fn over(pool: &Arc<BlockPool>, table: BlockTable) -> Self {
        PagedKvCache(PagedKvReader {
            pool: Arc::clone(pool),
            table,
        })
    }

    /// Reserves pool capacity for `tokens` positions (every block
    /// fresh).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) if the pool cannot supply
    /// the pages.
    pub fn reserve(pool: &Arc<BlockPool>, tokens: usize) -> Result<Self> {
        Ok(Self::over(pool, BlockTable::reserve(pool, tokens)?))
    }

    /// Reserves capacity for `total_tokens`, sharing the first
    /// `shared_tokens` (block-aligned) with `donor`'s table — the
    /// shared system-prompt blocks are retained, not re-allocated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) on misalignment or pool
    /// exhaustion.
    pub fn reserve_shared(
        pool: &Arc<BlockPool>,
        donor: &PagedKvCache,
        shared_tokens: usize,
        total_tokens: usize,
    ) -> Result<Self> {
        let table = BlockTable::reserve_shared(pool, &donor.0.table, shared_tokens, total_tokens)?;
        Ok(Self::over(pool, table))
    }

    /// Reserves capacity for `total_tokens` on top of already-resident
    /// **cached** prefix blocks (a hit in the global radix prefix cache,
    /// `llmnpu_kv::prefix`): the cached blocks are retained by id — no
    /// live donor cache required — and the remainder allocated fresh.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) if any prefix block is
    /// invalid or free, or on pool exhaustion (the retain is rolled
    /// back).
    pub fn reserve_with_prefix(
        pool: &Arc<BlockPool>,
        prefix_blocks: &[llmnpu_kv::BlockId],
        total_tokens: usize,
    ) -> Result<Self> {
        let table = BlockTable::reserve_with_prefix(pool, prefix_blocks, total_tokens)?;
        Ok(Self::over(pool, table))
    }

    /// The backing pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<BlockPool> {
        &self.0.pool
    }

    /// The request's block table.
    #[must_use]
    pub fn table(&self) -> &BlockTable {
        &self.0.table
    }

    /// Reserved token capacity.
    #[must_use]
    pub fn capacity_tokens(&self) -> usize {
        self.0.table.capacity_tokens()
    }

    /// Writes one position's K/V rows in one layer (copy-on-write if the
    /// position's block is shared).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) on bad addressing or
    /// width.
    pub fn write_position(
        &mut self,
        layer: usize,
        pos: usize,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<()> {
        let PagedKvReader { pool, table } = &mut self.0;
        Ok(table.write_row(pool, layer, pos, k_row, v_row)?)
    }

    /// Returns every page to the pool (eviction / request completion).
    /// Returns the number of blocks that became free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) on a double release.
    pub fn release(&mut self) -> Result<usize> {
        let PagedKvReader { pool, table } = &mut self.0;
        Ok(table.release(pool)?)
    }

    /// A read-only snapshot of this cache (shared pool handle + a copy
    /// of the block list, **no** refcount change), so a reader can drop
    /// whatever lock owns the cache before the page walk — long
    /// attention reads must not serialize against the owner's lock.
    ///
    /// Sound only while the owning cache is alive and not released:
    /// the serving executor's dependency edges guarantee a request's
    /// eviction/release never overlaps its own attention tasks, and
    /// prefix-shared blocks are never rewritten (appends land in fresh
    /// blocks, so the owner's concurrent copy-on-write can't swap a
    /// snapshot block out from under a reader).
    #[must_use]
    pub fn reader(&self) -> PagedKvReader {
        self.0.clone()
    }
}

/// A cache reads through its own reader: [`PagedKvReader::view`] is the
/// one page walk, whoever holds the rows.
impl std::ops::Deref for PagedKvCache {
    type Target = PagedKvReader;

    fn deref(&self) -> &PagedKvReader {
        &self.0
    }
}

/// The read half of a [`PagedKvCache`]: a pool handle plus a block
/// table. Detached from its cache by [`PagedKvCache::reader`] — see
/// there for the validity contract.
#[derive(Debug, Clone)]
pub struct PagedKvReader {
    pool: Arc<BlockPool>,
    table: BlockTable,
}

impl PagedKvReader {
    /// Runs `f` over the first `visible_rows` cached positions of one
    /// layer as whole-page K/V slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) if `visible_rows` exceeds
    /// capacity.
    pub fn view<R>(
        &self,
        layer: usize,
        visible_rows: usize,
        f: impl FnOnce(&[&[f32]], &[&[f32]]) -> R,
    ) -> Result<R> {
        Ok(self.table.with_pages(&self.pool, layer, visible_rows, f)?)
    }

    /// The first `visible_rows` K and V rows of one layer, each copied
    /// out as one flat row-major `[visible_rows × kv_dim]` vector: the
    /// cached rows with the page layout erased, which is what two stores
    /// of different page sizes are compared by.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`](crate::Error::Kv) if `visible_rows` exceeds
    /// capacity.
    pub fn rows(&self, layer: usize, visible_rows: usize) -> Result<(Vec<f32>, Vec<f32>)> {
        self.view(layer, visible_rows, |pages_k, pages_v| {
            (pages_k.concat(), pages_v.concat())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    /// `tiny`: 2 layers, `kv_dim` 16.
    fn cfg() -> ModelConfig {
        ModelConfig::tiny()
    }

    fn row(base: f32) -> Vec<f32> {
        (0..cfg().kv_dim()).map(|i| base + i as f32).collect()
    }

    fn neg(row: &[f32]) -> Vec<f32> {
        row.iter().map(|x| -x).collect()
    }

    /// Writes position `p`'s rows (`row(100·p)`, negated for V) in layer 0.
    fn write(kv: &mut PagedKvCache, positions: impl IntoIterator<Item = usize>) {
        for p in positions {
            let k = row(100.0 * p as f32);
            kv.write_position(0, p, &k, &neg(&k)).unwrap();
        }
    }

    fn paged(block_tokens: usize, tokens: usize) -> PagedKvCache {
        let pool = Arc::new(
            BlockPool::new(PoolConfig {
                layers: cfg().layers,
                kv_dim: cfg().kv_dim(),
                block_tokens,
                blocks: tokens.div_ceil(block_tokens),
            })
            .unwrap(),
        );
        PagedKvCache::reserve(&pool, tokens).unwrap()
    }

    #[test]
    fn solo_is_one_exact_page() {
        let kv = PagedKvCache::solo(&cfg(), 7).unwrap();
        assert_eq!(kv.capacity_tokens(), 7);
        assert_eq!(kv.table().blocks().len(), 1);
        assert_eq!(kv.pool().total_blocks(), 1);
        assert_eq!(kv.pool().free_blocks(), 0);
        kv.view(0, 7, |pages_k, pages_v| {
            assert_eq!(pages_k.len(), 1);
            assert_eq!(pages_v[0].len(), 7 * cfg().kv_dim());
        })
        .unwrap();
        assert!(matches!(
            PagedKvCache::solo(&cfg(), 0),
            Err(Error::Kv(llmnpu_kv::Error::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn append_accumulates_positions() {
        let mut kv = PagedKvCache::solo(&cfg(), 5).unwrap();
        write(&mut kv, 0..3);
        write(&mut kv, 3..5);
        let (k, _) = kv.rows(0, 5).unwrap();
        for p in 0..5 {
            let w = cfg().kv_dim();
            assert_eq!(&k[p * w..(p + 1) * w], row(100.0 * p as f32).as_slice());
        }
        // Layer 1 untouched.
        let (k1, v1) = kv.rows(1, 5).unwrap();
        assert!(k1.iter().chain(&v1).all(|&x| x == 0.0));
    }

    #[test]
    fn tensors_round_trip() {
        for mut kv in [PagedKvCache::solo(&cfg(), 5).unwrap(), paged(2, 5)] {
            write(&mut kv, 0..5);
            let (k, v) = kv.rows(0, 5).unwrap();
            let want: Vec<f32> = (0..5).flat_map(|p| row(100.0 * p as f32)).collect();
            assert_eq!(k, want);
            assert_eq!(v, neg(&want));
            // A shorter view is a prefix of the same rows.
            assert_eq!(kv.rows(0, 3).unwrap().0, want[..3 * cfg().kv_dim()]);
            // A detached reader walks the same pages.
            assert_eq!(kv.reader().rows(0, 5).unwrap(), (k, v));
        }
    }

    #[test]
    fn chunked_appends_equal_one_big_append() {
        // The §3.2 invariant at the cache level: writes are
        // position-addressed, so chunks landing in any order — on any
        // paging — leave the rows one in-order pass leaves.
        let mut whole = PagedKvCache::solo(&cfg(), 6).unwrap();
        write(&mut whole, 0..6);
        for mut chunked in [PagedKvCache::solo(&cfg(), 6).unwrap(), paged(4, 6)] {
            for chunk in [2usize, 0, 1] {
                write(&mut chunked, chunk * 2..(chunk + 1) * 2);
            }
            assert_eq!(whole.rows(0, 6).unwrap(), chunked.rows(0, 6).unwrap());
        }
    }

    #[test]
    fn mismatched_kv_shapes_rejected() {
        let mut kv = PagedKvCache::solo(&cfg(), 2).unwrap();
        let k = row(0.0);
        assert!(matches!(
            kv.write_position(0, 0, &k, &k[1..]),
            Err(Error::Kv(llmnpu_kv::Error::WidthMismatch { .. }))
        ));
    }

    #[test]
    fn inconsistent_widths_across_appends_rejected() {
        let mut kv = PagedKvCache::solo(&cfg(), 4).unwrap();
        write(&mut kv, 0..2);
        let before = kv.rows(0, 4).unwrap();
        let wide = vec![9.0; cfg().kv_dim() + 1];
        assert!(kv.write_position(0, 2, &wide, &wide).is_err());
        // The failed write must not have touched the store.
        assert_eq!(kv.rows(0, 4).unwrap(), before);
    }

    #[test]
    fn layer_bounds_checked() {
        let mut kv = PagedKvCache::solo(&cfg(), 3).unwrap();
        let k = row(0.0);
        assert!(kv.write_position(cfg().layers, 0, &k, &k).is_err());
        assert!(kv.view(5, 1, |_, _| ()).is_err());
    }

    #[test]
    fn position_bounds_checked() {
        let mut kv = PagedKvCache::solo(&cfg(), 3).unwrap();
        let k = row(0.0);
        assert!(matches!(
            kv.write_position(0, 3, &k, &k),
            Err(Error::Kv(llmnpu_kv::Error::OutOfRange { .. }))
        ));
        assert!(matches!(
            kv.view(0, 4, |_, _| ()),
            Err(Error::Kv(llmnpu_kv::Error::OutOfRange { .. }))
        ));
    }

    #[test]
    fn bytes_accounts_keys_and_values() {
        // A solo store holds exactly its rows: nothing is rounded up to a
        // page size and nothing doubles.
        let kv = PagedKvCache::solo(&cfg(), 4).unwrap();
        let f32s = 4 * cfg().kv_dim() * 2 * cfg().layers;
        assert_eq!(kv.pool().bytes(), (f32s * 4) as u64);
    }
}
