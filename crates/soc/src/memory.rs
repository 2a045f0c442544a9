//! Memory-space model: unified DRAM, per-processor spaces and the NPU's
//! addressable window.
//!
//! Although mobile SoCs use one physical DRAM, the paper notes (§3.3) that
//! heterogeneous processors use *separate memory spaces*, so shadow
//! execution naively duplicates every MatMul weight into CPU space (~2×
//! footprint) — motivating the hot-channel policy. The NPU additionally
//! addresses only a limited window (~4 GB, §4), forcing llm.npu to
//! prioritize compute-heavy ops like FFN for NPU placement when weights
//! exceed the window.

use std::collections::BTreeMap;

use crate::spec::SocSpec;
use crate::{Error, Processor, Result};

/// A named allocation in some memory space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Human-readable tag (e.g. `"weights/layer3/ffn_up"`).
    pub label: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// Tracks allocations across the DRAM budget and per-processor spaces.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    dram_budget: u64,
    npu_window: u64,
    spaces: BTreeMap<Processor, Vec<Allocation>>,
}

impl MemoryModel {
    /// Creates a memory model for a device.
    #[must_use]
    pub fn new(spec: &SocSpec) -> Self {
        MemoryModel {
            dram_budget: spec.dram_bytes,
            npu_window: spec.npu_window_bytes,
            spaces: BTreeMap::new(),
        }
    }

    /// Total bytes allocated across all spaces (they share physical DRAM).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.spaces
            .values()
            .flat_map(|allocs| allocs.iter().map(|a| a.bytes))
            .sum()
    }

    /// Bytes allocated in one processor's space.
    #[must_use]
    pub fn space_bytes(&self, p: Processor) -> u64 {
        self.spaces
            .get(&p)
            .map(|allocs| allocs.iter().map(|a| a.bytes).sum())
            .unwrap_or(0)
    }

    /// Remaining DRAM.
    #[must_use]
    pub fn available_bytes(&self) -> u64 {
        self.dram_budget.saturating_sub(self.total_bytes())
    }

    /// Remaining NPU-window capacity.
    #[must_use]
    pub fn npu_window_available(&self) -> u64 {
        self.npu_window
            .saturating_sub(self.space_bytes(Processor::Npu))
    }

    /// Allocates `bytes` in processor `p`'s space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if DRAM would overflow, or if an NPU
    /// allocation would exceed the NPU-addressable window.
    pub fn alloc(&mut self, p: Processor, label: impl Into<String>, bytes: u64) -> Result<()> {
        if bytes > self.available_bytes() {
            return Err(Error::OutOfMemory {
                space: "dram",
                requested: bytes,
                available: self.available_bytes(),
            });
        }
        if p == Processor::Npu && bytes > self.npu_window_available() {
            return Err(Error::OutOfMemory {
                space: "npu-window",
                requested: bytes,
                available: self.npu_window_available(),
            });
        }
        self.spaces.entry(p).or_default().push(Allocation {
            label: label.into(),
            bytes,
        });
        Ok(())
    }

    /// Frees the first allocation with a matching label in `p`'s space.
    /// Returns the freed bytes, or 0 if no allocation matched.
    pub fn free(&mut self, p: Processor, label: &str) -> u64 {
        if let Some(allocs) = self.spaces.get_mut(&p) {
            if let Some(idx) = allocs.iter().position(|a| a.label == label) {
                return allocs.remove(idx).bytes;
            }
        }
        0
    }

    /// All allocations in one space.
    #[must_use]
    pub fn allocations(&self, p: Processor) -> &[Allocation] {
        self.spaces.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GIB;

    fn model() -> MemoryModel {
        MemoryModel::new(&SocSpec::snapdragon_8gen3())
    }

    #[test]
    fn alloc_and_totals() {
        let mut m = model();
        m.alloc(Processor::Cpu, "weights", GIB).unwrap();
        m.alloc(Processor::Npu, "weights", 2 * GIB).unwrap();
        assert_eq!(m.total_bytes(), 3 * GIB);
        assert_eq!(m.space_bytes(Processor::Cpu), GIB);
        assert_eq!(m.space_bytes(Processor::Npu), 2 * GIB);
        assert_eq!(m.available_bytes(), 21 * GIB);
    }

    #[test]
    fn npu_window_is_enforced() {
        // §4: Hexagon NPUs address ~4 GB — a 7B model's 7 GB of INT8
        // weights cannot all live in NPU space.
        let mut m = model();
        let err = m.alloc(Processor::Npu, "llama7b", 7 * GIB).unwrap_err();
        assert!(matches!(
            err,
            Error::OutOfMemory {
                space: "npu-window",
                ..
            }
        ));
        // The same allocation succeeds in CPU space.
        m.alloc(Processor::Cpu, "llama7b", 7 * GIB).unwrap();
    }

    #[test]
    fn dram_budget_is_enforced() {
        let mut m = model();
        m.alloc(Processor::Cpu, "big", 23 * GIB).unwrap();
        let err = m.alloc(Processor::Cpu, "more", 2 * GIB).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { space: "dram", .. }));
    }

    #[test]
    fn free_releases_by_label() {
        let mut m = model();
        m.alloc(Processor::Cpu, "a", 100).unwrap();
        m.alloc(Processor::Cpu, "b", 200).unwrap();
        assert_eq!(m.free(Processor::Cpu, "a"), 100);
        assert_eq!(m.free(Processor::Cpu, "a"), 0);
        assert_eq!(m.total_bytes(), 200);
        assert_eq!(m.allocations(Processor::Cpu).len(), 1);
    }

    #[test]
    fn npu_window_frees_capacity_on_free() {
        let mut m = model();
        m.alloc(Processor::Npu, "g1", 3 * GIB).unwrap();
        assert_eq!(m.npu_window_available(), GIB);
        m.free(Processor::Npu, "g1");
        assert_eq!(m.npu_window_available(), 4 * GIB);
    }
}
