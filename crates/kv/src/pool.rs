//! The fixed-page block pool and per-request block tables.
//!
//! See the crate docs for the design. The short version: KV storage is
//! one slab per layer, divided into fixed **blocks** of
//! `block_tokens × kv_dim` elements (keys and values each); a block id
//! names the same-sized slab in *every* layer; requests hold ordered
//! [`BlockTable`]s of block ids; blocks are ref-counted so tables can be
//! forked to share a common prefix, and a write into a shared block
//! copies it first (copy-on-write).

use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use llmnpu_obs::{EventKind, Plane, TraceSink};

use crate::{Error, Result};

/// Identifier of one pool block (page). Valid across all layers.
pub type BlockId = usize;

/// Shape of a [`BlockPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Decoder layers the pool serves (each block materializes one slab
    /// per layer).
    pub layers: usize,
    /// Feature width of one K (or V) row: `kv_heads × head_dim`.
    pub kv_dim: usize,
    /// Token positions per block (the page size, in tokens).
    pub block_tokens: usize,
    /// Total blocks in the pool.
    pub blocks: usize,
}

impl PoolConfig {
    fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("layers", self.layers),
            ("kv_dim", self.kv_dim),
            ("block_tokens", self.block_tokens),
            ("blocks", self.blocks),
        ] {
            if v == 0 {
                return Err(Error::InvalidConfig {
                    what: format!("{what} must be non-zero"),
                });
            }
        }
        Ok(())
    }

    /// Elements of one block's keys (or values) in one layer.
    #[must_use]
    pub fn block_elems(&self) -> usize {
        self.block_tokens * self.kv_dim
    }

    /// Bytes of one block across all layers, keys and values, at f32.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        (2 * self.layers * self.block_elems() * std::mem::size_of::<f32>()) as u64
    }

    /// Blocks needed to hold `tokens` positions.
    #[must_use]
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }
}

/// One layer's page storage: keys and values behind read-write locks
/// (many concurrent attention readers, brief row writers). The slabs
/// are plain `f32` data — a panicking holder cannot corrupt them
/// (readers don't mutate; the row writer's `copy_from_slice` validates
/// its bounds before moving any element) — so acquisitions below
/// recover from lock poisoning via [`PoisonError::into_inner`] instead
/// of turning one request's panic into a pool-wide denial of service.
#[derive(Debug)]
struct LayerStore {
    k: RwLock<Vec<f32>>,
    v: RwLock<Vec<f32>>,
}

/// Ownership metadata: which blocks are free, how many tables reference
/// each live block, and the usage watermarks.
#[derive(Debug)]
struct Meta {
    /// LIFO free list.
    free: Vec<BlockId>,
    /// Reference count per block (0 = free).
    refs: Vec<u32>,
    used: usize,
    peak_used: usize,
    cow_copies: u64,
}

/// Point-in-time pool accounting (for serving reports and leak pinning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total blocks in the pool.
    pub total_blocks: usize,
    /// Blocks currently free.
    pub free_blocks: usize,
    /// Blocks currently referenced by at least one table.
    pub used_blocks: usize,
    /// High-water mark of `used_blocks` since creation.
    pub peak_used_blocks: usize,
    /// Copy-on-write block copies performed since creation.
    pub cow_copies: u64,
    /// Total pool bytes (all layers, keys + values, f32).
    pub bytes: u64,
}

/// Locks the ownership metadata, recovering from poisoning: every
/// mutation under this lock is validate-then-apply (bounds and refcounts
/// are checked before the first write, and the apply loops are
/// infallible), so a panicking holder cannot leave `Meta` torn — and a
/// permanently poisoned pool would turn one request's panic into a
/// pool-wide denial of service.
fn lock_meta(m: &Mutex<Meta>) -> std::sync::MutexGuard<'_, Meta> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fixed-page KV block pool.
#[derive(Debug)]
pub struct BlockPool {
    cfg: PoolConfig,
    layers: Vec<LayerStore>,
    meta: Mutex<Meta>,
    /// Optional trace recorder for allocation-traffic events. The kv
    /// crate is on the numeric plane, so events carry no wall
    /// timestamps (Exec plane: emission order follows live traffic).
    trace: OnceLock<Arc<TraceSink>>,
}

impl BlockPool {
    /// Allocates the pool slabs (zero-filled).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for any zero dimension.
    pub fn new(cfg: PoolConfig) -> Result<Self> {
        cfg.validate()?;
        let elems = cfg.blocks * cfg.block_elems();
        let layers = (0..cfg.layers)
            .map(|_| LayerStore {
                k: RwLock::new(vec![0.0; elems]),
                v: RwLock::new(vec![0.0; elems]),
            })
            .collect();
        let meta = Meta {
            // LIFO: block 0 is handed out first.
            free: (0..cfg.blocks).rev().collect(),
            refs: vec![0; cfg.blocks],
            used: 0,
            peak_used: 0,
            cow_copies: 0,
        };
        Ok(BlockPool {
            cfg,
            layers,
            meta: Mutex::new(meta),
            trace: OnceLock::new(),
        })
    }

    /// Installs a trace sink for pool events (reserve / release / COW).
    /// First install wins; later calls on an already-traced pool are
    /// ignored (the pool outlives individual serving sessions).
    pub fn install_trace(&self, sink: Arc<TraceSink>) {
        let _ = self.trace.set(sink);
    }

    fn trace_event(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(sink) = self.trace.get() {
            sink.event(Plane::Exec, kind, None, detail);
        }
    }

    /// The pool's shape.
    #[must_use]
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Total blocks.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.cfg.blocks
    }

    /// Currently free blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        lock_meta(&self.meta).free.len()
    }

    /// Currently referenced blocks — the leak counter: must be zero
    /// after every table has been released.
    #[must_use]
    pub fn used_blocks(&self) -> usize {
        lock_meta(&self.meta).used
    }

    /// Accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let m = lock_meta(&self.meta);
        PoolStats {
            total_blocks: self.cfg.blocks,
            free_blocks: m.free.len(),
            used_blocks: m.used,
            peak_used_blocks: m.peak_used,
            cow_copies: m.cow_copies,
            bytes: self.bytes(),
        }
    }

    /// Total pool bytes (all layers, keys + values, f32).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.cfg.block_bytes() * self.cfg.blocks as u64
    }

    /// Reference count of one block (0 = free). Test/debug introspection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for a bad block id.
    pub fn ref_count(&self, block: BlockId) -> Result<u32> {
        let m = lock_meta(&self.meta);
        m.refs.get(block).copied().ok_or(Error::OutOfRange {
            what: "block",
            index: block,
            bound: self.cfg.blocks,
        })
    }

    /// Allocates `n` blocks (refcount 1 each).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfPages`] if fewer than `n` blocks are free.
    pub fn alloc_blocks(&self, n: usize) -> Result<Vec<BlockId>> {
        let mut m = lock_meta(&self.meta);
        if m.free.len() < n {
            return Err(Error::OutOfPages {
                requested: n,
                available: m.free.len(),
            });
        }
        let at = m.free.len() - n;
        let blocks: Vec<BlockId> = m.free.split_off(at);
        for &b in &blocks {
            m.refs[b] = 1;
        }
        m.used += n;
        m.peak_used = m.peak_used.max(m.used);
        let free_now = m.free.len();
        drop(m);
        self.trace_event(EventKind::PoolReserve, || {
            format!("{n} page(s), {free_now} free")
        });
        Ok(blocks)
    }

    /// Increments the refcount of each block (prefix sharing: a forked
    /// table retains the shared blocks).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for a bad id or a free block (a
    /// free block cannot be retained — that would resurrect it).
    pub fn retain_blocks(&self, blocks: &[BlockId]) -> Result<()> {
        let mut m = lock_meta(&self.meta);
        for &b in blocks {
            if b >= self.cfg.blocks || m.refs[b] == 0 {
                return Err(Error::OutOfRange {
                    what: "retained block",
                    index: b,
                    bound: self.cfg.blocks,
                });
            }
        }
        for &b in blocks {
            m.refs[b] += 1;
        }
        Ok(())
    }

    /// Decrements each block's refcount, returning blocks that reached
    /// zero to the free list. Returns how many blocks were freed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for a bad id or an already-free
    /// block (a double release).
    pub fn release_blocks(&self, blocks: &[BlockId]) -> Result<usize> {
        let mut m = lock_meta(&self.meta);
        for &b in blocks {
            if b >= self.cfg.blocks || m.refs[b] == 0 {
                return Err(Error::OutOfRange {
                    what: "released block",
                    index: b,
                    bound: self.cfg.blocks,
                });
            }
        }
        let mut freed = 0;
        for &b in blocks {
            m.refs[b] -= 1;
            if m.refs[b] == 0 {
                m.free.push(b);
                m.used -= 1;
                freed += 1;
            }
        }
        drop(m);
        if freed > 0 {
            self.trace_event(EventKind::PoolRelease, || {
                format!("{freed} of {} page(s) freed", blocks.len())
            });
        }
        Ok(freed)
    }

    fn check_slot(&self, layer: usize, block: BlockId, slot: usize) -> Result<()> {
        if layer >= self.cfg.layers {
            return Err(Error::OutOfRange {
                what: "layer",
                index: layer,
                bound: self.cfg.layers,
            });
        }
        if block >= self.cfg.blocks {
            return Err(Error::OutOfRange {
                what: "block",
                index: block,
                bound: self.cfg.blocks,
            });
        }
        if slot >= self.cfg.block_tokens {
            return Err(Error::OutOfRange {
                what: "slot",
                index: slot,
                bound: self.cfg.block_tokens,
            });
        }
        Ok(())
    }

    /// Writes one token position's K and V rows into `(layer, block,
    /// slot)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] / [`Error::WidthMismatch`] on bad
    /// addressing.
    pub fn write_row(
        &self,
        layer: usize,
        block: BlockId,
        slot: usize,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<()> {
        self.check_slot(layer, block, slot)?;
        for row in [k_row, v_row] {
            if row.len() != self.cfg.kv_dim {
                return Err(Error::WidthMismatch {
                    expected: self.cfg.kv_dim,
                    got: row.len(),
                });
            }
        }
        let off = (block * self.cfg.block_tokens + slot) * self.cfg.kv_dim;
        let store = &self.layers[layer];
        store.k.write().unwrap_or_else(PoisonError::into_inner)[off..off + self.cfg.kv_dim]
            .copy_from_slice(k_row);
        store.v.write().unwrap_or_else(PoisonError::into_inner)[off..off + self.cfg.kv_dim]
            .copy_from_slice(v_row);
        Ok(())
    }

    /// Copies block `src`'s slab over block `dst`'s, in every layer (the
    /// data half of copy-on-write).
    fn copy_block(&self, src: BlockId, dst: BlockId) {
        let elems = self.cfg.block_elems();
        let (s, d) = (src * elems, dst * elems);
        for store in &self.layers {
            store
                .k
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .copy_within(s..s + elems, d);
            store
                .v
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .copy_within(s..s + elems, d);
        }
    }

    /// Copies the first `rows` token slots of block `src` into block
    /// `dst`, keys and values, in **every** layer — the partial-tail
    /// copy behind sub-block prefix sharing: a sharer whose common
    /// prefix ends mid-block copies the source block's (say, a cached
    /// prefix's) leading rows into its own first private page instead
    /// of rounding the share down to a block boundary.
    ///
    /// Both blocks must be live (refcount ≥ 1); `dst` is the copier's
    /// private page, so no copy-on-write is involved.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for a bad block id, a free block,
    /// or `rows > block_tokens`.
    pub fn copy_rows(&self, src: BlockId, dst: BlockId, rows: usize) -> Result<()> {
        if rows > self.cfg.block_tokens {
            return Err(Error::OutOfRange {
                what: "copied rows",
                index: rows,
                bound: self.cfg.block_tokens,
            });
        }
        {
            let m = lock_meta(&self.meta);
            for b in [src, dst] {
                if b >= self.cfg.blocks || m.refs[b] == 0 {
                    return Err(Error::OutOfRange {
                        what: "copied block",
                        index: b,
                        bound: self.cfg.blocks,
                    });
                }
            }
        }
        let elems = rows * self.cfg.kv_dim;
        let (s, d) = (src * self.cfg.block_elems(), dst * self.cfg.block_elems());
        for store in &self.layers {
            store
                .k
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .copy_within(s..s + elems, d);
            store
                .v
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .copy_within(s..s + elems, d);
        }
        Ok(())
    }

    /// Runs `f` over one layer's full K and V slabs under the read lock
    /// — the gather-free read path: callers slice whole pages out of the
    /// slabs via a table's block ids.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for a bad layer.
    pub fn with_layer<R>(&self, layer: usize, f: impl FnOnce(&[f32], &[f32]) -> R) -> Result<R> {
        if layer >= self.cfg.layers {
            return Err(Error::OutOfRange {
                what: "layer",
                index: layer,
                bound: self.cfg.layers,
            });
        }
        let store = &self.layers[layer];
        let k = store.k.read().unwrap_or_else(PoisonError::into_inner);
        let v = store.v.read().unwrap_or_else(PoisonError::into_inner);
        Ok(f(&k, &v))
    }
}

/// A request's ordered block list: block `i` covers token positions
/// `[i·block_tokens, (i+1)·block_tokens)`.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    blocks: Vec<BlockId>,
    block_tokens: usize,
}

impl BlockTable {
    /// Reserves capacity for `tokens` positions (all blocks fresh).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfPages`] if the pool cannot supply the
    /// blocks, or [`Error::InvalidConfig`] for zero tokens.
    pub fn reserve(pool: &BlockPool, tokens: usize) -> Result<Self> {
        if tokens == 0 {
            return Err(Error::InvalidConfig {
                what: "cannot reserve a zero-token table".to_owned(),
            });
        }
        let blocks = pool.alloc_blocks(pool.config().blocks_for(tokens))?;
        Ok(BlockTable {
            blocks,
            block_tokens: pool.config().block_tokens,
        })
    }

    /// Reserves capacity for `total_tokens` positions on top of
    /// already-resident leading pages — how a prefix-cache hit is
    /// admitted: `prefix` names live pool blocks (the full pages of a
    /// hit in the global radix prefix cache, or another table's leading
    /// blocks). The prefix blocks are retained (refcount +1); the
    /// remainder is allocated fresh.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the prefix covers more than
    /// `total_tokens`, [`Error::OutOfRange`] if any prefix block is
    /// free or invalid, otherwise allocation errors as
    /// [`BlockTable::reserve`] (with the retain rolled back, so a
    /// failed reservation leaks nothing).
    pub fn reserve_with_prefix(
        pool: &BlockPool,
        prefix: &[BlockId],
        total_tokens: usize,
    ) -> Result<Self> {
        let bt = pool.config().block_tokens;
        let shared_tokens = prefix.len() * bt;
        if shared_tokens > total_tokens {
            return Err(Error::InvalidConfig {
                what: format!(
                    "shared prefix of {shared_tokens} tokens exceeds total {total_tokens}"
                ),
            });
        }
        pool.retain_blocks(prefix)?;
        let fresh_count = pool.config().blocks_for(total_tokens) - prefix.len();
        let fresh = match pool.alloc_blocks(fresh_count) {
            Ok(f) => f,
            Err(e) => {
                pool.release_blocks(prefix)
                    .map_err(|undo| Error::Inconsistent {
                        what: format!(
                            "rollback of shared-prefix retain failed: {undo} (after {e})"
                        ),
                    })?;
                return Err(e);
            }
        };
        let mut blocks = prefix.to_vec();
        blocks.extend(fresh);
        Ok(BlockTable {
            blocks,
            block_tokens: bt,
        })
    }

    /// The block ids, in position order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Token capacity of the table.
    #[must_use]
    pub fn capacity_tokens(&self) -> usize {
        self.blocks.len() * self.block_tokens
    }

    /// The `(block, slot)` address of a token position.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] past the reserved capacity.
    pub fn locate(&self, pos: usize) -> Result<(BlockId, usize)> {
        let idx = pos / self.block_tokens;
        if idx >= self.blocks.len() {
            return Err(Error::OutOfRange {
                what: "position",
                index: pos,
                bound: self.capacity_tokens(),
            });
        }
        Ok((self.blocks[idx], pos % self.block_tokens))
    }

    /// Makes the block holding `pos` exclusively owned, copying it (all
    /// layers) if it is shared — copy-on-write at the divergence point.
    /// Returns `true` if a copy happened.
    ///
    /// # Errors
    ///
    /// Returns addressing errors, or [`Error::OutOfPages`] if a copy is
    /// needed and the pool is full.
    pub fn ensure_writable(&mut self, pool: &BlockPool, pos: usize) -> Result<bool> {
        let idx = pos / self.block_tokens;
        let (old, _) = self.locate(pos)?;
        if pool.ref_count(old)? <= 1 {
            return Ok(false);
        }
        let fresh = pool.alloc_blocks(1)?;
        pool.copy_block(old, fresh[0]);
        pool.release_blocks(&[old])?;
        self.blocks[idx] = fresh[0];
        lock_meta(&pool.meta).cow_copies += 1;
        pool.trace_event(EventKind::PoolCow, || {
            format!("block {old} diverged at pos {pos}")
        });
        Ok(true)
    }

    /// Writes one position's K/V rows in one layer, applying
    /// copy-on-write first if the position's block is shared.
    ///
    /// Positions are absolute, so out-of-order writers (prefill chunks
    /// completing in any order) cannot corrupt the table.
    ///
    /// # Errors
    ///
    /// Returns addressing/width errors from the pool.
    pub fn write_row(
        &mut self,
        pool: &BlockPool,
        layer: usize,
        pos: usize,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<()> {
        self.ensure_writable(pool, pos)?;
        let (block, slot) = self.locate(pos)?;
        pool.write_row(layer, block, slot, k_row, v_row)
    }

    /// Runs `f` over the table's first `visible_rows` positions in one
    /// layer as a sequence of whole-page slices (`pages_k[i]` /
    /// `pages_v[i]` hold `rows_i × kv_dim` contiguous elements; all
    /// pages but the last hold `block_tokens` rows). This is the
    /// gather-free attention read path.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if `visible_rows` exceeds capacity
    /// or the layer is bad.
    pub fn with_pages<R>(
        &self,
        pool: &BlockPool,
        layer: usize,
        visible_rows: usize,
        f: impl FnOnce(&[&[f32]], &[&[f32]]) -> R,
    ) -> Result<R> {
        if visible_rows > self.capacity_tokens() {
            return Err(Error::OutOfRange {
                what: "visible rows",
                index: visible_rows,
                bound: self.capacity_tokens(),
            });
        }
        let bt = self.block_tokens;
        let kv_dim = pool.config().kv_dim;
        pool.with_layer(layer, |k_all, v_all| {
            let mut pages_k: Vec<&[f32]> = Vec::with_capacity(visible_rows.div_ceil(bt));
            let mut pages_v: Vec<&[f32]> = Vec::with_capacity(pages_k.capacity());
            let mut remaining = visible_rows;
            for &b in &self.blocks {
                if remaining == 0 {
                    break;
                }
                let rows = remaining.min(bt);
                let off = b * bt * kv_dim;
                pages_k.push(&k_all[off..off + rows * kv_dim]);
                pages_v.push(&v_all[off..off + rows * kv_dim]);
                remaining -= rows;
            }
            f(&pages_k, &pages_v)
        })
    }

    /// Releases every block back to the pool and empties the table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] on a double release.
    pub fn release(&mut self, pool: &BlockPool) -> Result<usize> {
        let freed = pool.release_blocks(&self.blocks)?;
        self.blocks.clear();
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(blocks: usize) -> BlockPool {
        BlockPool::new(PoolConfig {
            layers: 2,
            kv_dim: 4,
            block_tokens: 4,
            blocks,
        })
        .unwrap()
    }

    fn row(base: f32) -> Vec<f32> {
        (0..4).map(|i| base + i as f32).collect()
    }

    #[test]
    fn config_validation_rejects_zeros() {
        for bad in [
            PoolConfig {
                layers: 0,
                kv_dim: 4,
                block_tokens: 4,
                blocks: 2,
            },
            PoolConfig {
                layers: 1,
                kv_dim: 0,
                block_tokens: 4,
                blocks: 2,
            },
            PoolConfig {
                layers: 1,
                kv_dim: 4,
                block_tokens: 0,
                blocks: 2,
            },
            PoolConfig {
                layers: 1,
                kv_dim: 4,
                block_tokens: 4,
                blocks: 0,
            },
        ] {
            assert!(BlockPool::new(bad).is_err());
        }
    }

    #[test]
    fn alloc_release_roundtrip_and_watermarks() {
        let p = pool(8);
        assert_eq!(p.free_blocks(), 8);
        let a = p.alloc_blocks(3).unwrap();
        assert_eq!(p.used_blocks(), 3);
        let b = p.alloc_blocks(2).unwrap();
        assert_eq!(p.stats().peak_used_blocks, 5);
        assert_eq!(p.release_blocks(&a).unwrap(), 3);
        assert_eq!(p.release_blocks(&b).unwrap(), 2);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(p.free_blocks(), 8);
        assert_eq!(p.stats().peak_used_blocks, 5, "watermark survives frees");
        // Double release is an error, not a silent corruption.
        assert!(p.release_blocks(&a).is_err());
    }

    #[test]
    fn alloc_beyond_capacity_errors() {
        let p = pool(2);
        assert!(matches!(
            p.alloc_blocks(3),
            Err(Error::OutOfPages {
                requested: 3,
                available: 2
            })
        ));
        // A failed alloc takes nothing.
        assert_eq!(p.free_blocks(), 2);
    }

    #[test]
    fn write_read_roundtrip_through_pages() {
        let p = pool(4);
        let mut t = BlockTable::reserve(&p, 6).unwrap(); // 2 blocks
        for pos in 0..6 {
            t.write_row(&p, 1, pos, &row(pos as f32), &row(-(pos as f32)))
                .unwrap();
        }
        t.with_pages(&p, 1, 6, |pk, pv| {
            assert_eq!(pk.len(), 2);
            assert_eq!(pk[0].len(), 4 * 4);
            assert_eq!(pk[1].len(), 2 * 4, "last page is partial");
            // Row 5 lives at page 1, local row 1.
            assert_eq!(&pk[1][4..8], row(5.0).as_slice());
            assert_eq!(&pv[1][4..8], row(-5.0).as_slice());
        })
        .unwrap();
        // Layer 0 untouched (zeros).
        t.with_pages(&p, 0, 6, |pk, _| {
            assert!(pk.iter().all(|pg| pg.iter().all(|&x| x == 0.0)));
        })
        .unwrap();
        t.release(&p).unwrap();
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn out_of_order_position_writes_land_correctly() {
        let p = pool(4);
        let mut t = BlockTable::reserve(&p, 8).unwrap();
        for pos in [7usize, 0, 5, 2, 1, 6, 3, 4] {
            t.write_row(&p, 0, pos, &row(pos as f32), &row(pos as f32))
                .unwrap();
        }
        t.with_pages(&p, 0, 8, |pk, _| {
            for pos in 0..8 {
                let page = &pk[pos / 4];
                let local = pos % 4;
                assert_eq!(&page[local * 4..local * 4 + 4], row(pos as f32).as_slice());
            }
        })
        .unwrap();
        t.release(&p).unwrap();
    }

    #[test]
    fn prefix_sharing_refcounts_and_allocates_once() {
        let p = pool(8);
        let mut a = BlockTable::reserve(&p, 8).unwrap(); // 2 blocks
        for pos in 0..8 {
            a.write_row(&p, 0, pos, &row(pos as f32), &row(pos as f32))
                .unwrap();
        }
        let used_before = p.used_blocks();
        // B shares the first block (4 tokens) and adds one of its own.
        let b = BlockTable::reserve_with_prefix(&p, &a.blocks()[..1], 8).unwrap();
        assert_eq!(b.blocks()[0], a.blocks()[0]);
        assert_eq!(
            p.used_blocks(),
            used_before + 1,
            "the shared block must not be re-allocated"
        );
        assert_eq!(p.ref_count(a.blocks()[0]).unwrap(), 2);
        // B reads A's prefix rows through its own table.
        b.with_pages(&p, 0, 4, |pk, _| {
            assert_eq!(&pk[0][0..4], row(0.0).as_slice());
        })
        .unwrap();
        // A releasing first must keep the shared block alive for B.
        a.release(&p).unwrap();
        assert_eq!(p.ref_count(b.blocks()[0]).unwrap(), 1);
        b.with_pages(&p, 0, 4, |pk, _| {
            assert_eq!(&pk[0][4..8], row(1.0).as_slice());
        })
        .unwrap();
        let mut b = b;
        b.release(&p).unwrap();
        assert_eq!(p.used_blocks(), 0, "no pages leaked");
    }

    #[test]
    fn copy_on_write_diverges_without_disturbing_the_donor() {
        let p = pool(8);
        let mut a = BlockTable::reserve(&p, 4).unwrap(); // 1 block
        for pos in 0..4 {
            a.write_row(&p, 0, pos, &row(10.0 + pos as f32), &row(0.0))
                .unwrap();
        }
        let mut b = BlockTable::reserve_with_prefix(&p, a.blocks(), 8).unwrap();
        assert_eq!(b.blocks()[0], a.blocks()[0]);
        // B overwrites a *shared* position: COW must kick in.
        let copied = b.ensure_writable(&p, 2).unwrap();
        assert!(copied);
        assert_ne!(b.blocks()[0], a.blocks()[0], "B now owns a private copy");
        assert_eq!(p.ref_count(a.blocks()[0]).unwrap(), 1);
        b.write_row(&p, 0, 2, &row(99.0), &row(99.0)).unwrap();
        // The copy carried the prefix data; the donor is untouched.
        b.with_pages(&p, 0, 4, |pk, _| {
            assert_eq!(&pk[0][0..4], row(10.0).as_slice(), "copied data");
            assert_eq!(&pk[0][8..12], row(99.0).as_slice(), "diverged row");
        })
        .unwrap();
        a.with_pages(&p, 0, 4, |pk, _| {
            assert_eq!(&pk[0][8..12], row(12.0).as_slice(), "donor unchanged");
        })
        .unwrap();
        assert_eq!(p.stats().cow_copies, 1);
        // Sole ownership: a second ensure is a no-op.
        assert!(!b.ensure_writable(&p, 2).unwrap());
        a.release(&p).unwrap();
        b.release(&p).unwrap();
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn reserve_with_prefix_rolls_back_on_exhaustion() {
        let p = pool(3);
        let a = BlockTable::reserve(&p, 8).unwrap(); // 2 blocks
        let shared = &a.blocks()[..1];
        // A prefix longer than the reservation is refused.
        assert!(BlockTable::reserve_with_prefix(&p, a.blocks(), 4).is_err());
        // Needs 1 fresh block beyond the shared one, but 1 is free and
        // the request needs 1 — exactly fits.
        let b = BlockTable::reserve_with_prefix(&p, shared, 8).unwrap();
        // Now the pool is exhausted: a failed share must undo its retain.
        let before = p.ref_count(a.blocks()[0]).unwrap();
        assert!(BlockTable::reserve_with_prefix(&p, shared, 8).is_err());
        assert_eq!(p.ref_count(a.blocks()[0]).unwrap(), before);
        drop(b);
    }

    #[test]
    fn addressing_is_bounds_checked() {
        let p = pool(2);
        let mut t = BlockTable::reserve(&p, 4).unwrap();
        assert!(t.locate(4).is_err());
        assert!(t.write_row(&p, 5, 0, &row(0.0), &row(0.0)).is_err());
        assert!(t.write_row(&p, 0, 0, &[1.0; 3], &row(0.0)).is_err());
        assert!(t.with_pages(&p, 0, 5, |_, _| ()).is_err());
        assert!(p.with_layer(7, |_, _| ()).is_err());
        assert!(BlockTable::reserve(&p, 0).is_err());
    }
}
