//! Opt-in kernel profiling hooks.
//!
//! The tensor crate lives on the numeric plane: the workspace lint
//! forbids it from reading wall clocks, yet the ROADMAP's calibrated
//! latency model needs real per-(site, shape) kernel timings. The
//! split: this module holds an installable [`KernelProbe`] — a trait
//! whose implementation (and clock) live in `llmnpu-obs` — and the
//! GEMM/GEMV/LUT drivers wrap their hot call in [`profiled`]. With no
//! probe installed the wrapper costs one relaxed atomic load; with one
//! installed, the driver passes opaque begin/end tokens through and
//! never sees a timestamp itself.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

pub use llmnpu_obs::calib::KernelProbe;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PROBE: Mutex<Option<Arc<dyn KernelProbe>>> = Mutex::new(None);

fn probe_slot() -> std::sync::MutexGuard<'static, Option<Arc<dyn KernelProbe>>> {
    // The slot holds a plain handle; poison is safely ignored.
    match PROBE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Install `probe` as the process-wide kernel probe. Replaces any
/// previous probe; all instrumented drivers begin reporting to it.
pub fn install(probe: Arc<dyn KernelProbe>) {
    *probe_slot() = Some(probe);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the installed probe; drivers return to the no-op fast path.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::Release);
    *probe_slot() = None;
}

/// Whether a probe is currently installed.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Run `f`, attributing its duration to `(site, m, n, k)` when a probe
/// is installed. The fast path (no probe) is a single atomic load.
#[inline]
pub fn profiled<R>(site: &'static str, m: usize, n: usize, k: usize, f: impl FnOnce() -> R) -> R {
    if !is_active() {
        return f();
    }
    let probe = probe_slot().clone();
    match probe {
        Some(p) => {
            let token = p.begin();
            let out = f();
            p.end(token, site, m, n, k);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Epilogue;
    use crate::{gemm, PackedMatrixF32, PackedMatrixI2, PackedMatrixI4, PackedMatrixI8, Tensor};
    use llmnpu_obs::CalibrationTable;

    /// The probe slot is process-wide: tests that install one take turns.
    static INSTALLS: Mutex<()> = Mutex::new(());

    fn take_turn() -> std::sync::MutexGuard<'static, ()> {
        INSTALLS.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn profiled_records_only_while_installed() {
        let _turn = take_turn();
        let table = Arc::new(CalibrationTable::default());
        assert_eq!(profiled("t.site", 1, 2, 3, || 41 + 1), 42);

        install(Arc::new(llmnpu_obs::WallProbe::new(Arc::clone(&table))));
        assert!(is_active());
        assert_eq!(profiled("t.site", 1, 2, 3, || 7), 7);
        uninstall();

        assert_eq!(profiled("t.site", 1, 2, 3, || 8), 8);
        let rows = table.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 1, "only the installed-window call records");
        assert_eq!((rows[0].m, rows[0].n, rows[0].k), (1, 2, 3));
    }

    #[test]
    fn every_kernel_backed_matmul_entry_reports_to_the_probe() {
        // A shape no other test multiplies (concurrent tests report to
        // the installed probe too), and a distinct `m` per call so every
        // call owns its row.
        let (k, n) = (28usize, 21usize);
        let a = |m: usize| Tensor::<f32>::zeros([m, k]);
        let ai = |m: usize| Tensor::<i8>::zeros([m, k]);
        let w = Tensor::<f32>::zeros([k, n]);
        let pf = PackedMatrixF32::from_tensor(&w);
        let pi = PackedMatrixI8::from_tensor(&Tensor::<i8>::zeros([k, n]));
        let p4 = PackedMatrixI4::from_tensor(&w, 4);
        let p2 = PackedMatrixI2::from_tensor(&w, 4);
        let row = vec![0.0f32; k];
        let rows = |m: usize| vec![row.as_slice(); m];
        let (w_scales, row_scales) = (vec![1.0f32; n], vec![1.0f32; 14]);
        let fused = |m: usize, epilogue: Epilogue<'_>| {
            let mut out = Tensor::zeros([m, n]);
            gemm::matmul_i8_fused_prepacked(&mut out, &ai(m), &pi, epilogue, 1).unwrap();
        };

        let _turn = take_turn();
        let table = Arc::new(CalibrationTable::default());
        install(Arc::new(llmnpu_obs::WallProbe::new(Arc::clone(&table))));
        gemm::matmul_f32(&a(3), &w).unwrap();
        gemm::matmul_f32_threaded(&a(4), &w, 2).unwrap();
        gemm::matmul_f32_prepacked(&a(5), &pf, 1).unwrap();
        gemm::matmul_f32_rows_prepacked(&rows(6), &pf, 1).unwrap();
        gemm::matmul_f32_rows_prepacked(&rows(1), &pf, 1).unwrap();
        gemm::matmul_i8_prepacked(&ai(7), &pi, 1).unwrap();
        gemm::matmul_i4_prepacked(&a(8), &p4, 1).unwrap();
        gemm::matmul_i4_rows_prepacked(&rows(9), &p4, 1).unwrap();
        gemm::matmul_i2_prepacked(&a(10), &p2, 1).unwrap();
        fused(11, Epilogue::PerTensor { scale: 1.0 });
        fused(12, Epilogue::PerTensorAcc { scale: 1.0 });
        fused(
            13,
            Epilogue::PerChannel {
                a_scale: 1.0,
                w_scales: &w_scales,
            },
        );
        fused(
            14,
            Epilogue::PerRow {
                row_scales: &row_scales,
                w_scales: &w_scales,
            },
        );
        // Attention is the one kernel entry outside `gemm`: 3 query rows
        // × 2 heads per KV head → m = 6, over 5 cached rows.
        let geom = crate::kernel::attention::HeadGeometry {
            heads: 4,
            kv_heads: 2,
            head_dim: 6,
        };
        let (q, kv) = (vec![0.0f32; 3 * 24], vec![0.0f32; 5 * 12]);
        crate::kernel::attention::attention_paged(geom, 2, &q, &[&kv], &[&kv], &mut [0.0; 72]);
        uninstall();

        let recorded = table.rows();
        let attention: u64 = recorded
            .iter()
            .filter(|r| r.site == "attention" && (r.m, r.n, r.k) == (6, 5, 6))
            .map(|r| r.count)
            .sum();
        assert_eq!(
            attention, 1,
            "attention at m = group · seq, n = kv_len, k = head_dim"
        );
        for (site, m) in [
            ("gemm.f32", 3),
            ("gemm.f32", 4),
            ("gemm.f32.prepacked", 5),
            ("gemv.f32.rows", 6),
            // A batch of one keeps the GEMV path — and its site.
            ("gemm.f32.prepacked", 1),
            ("gemm.i8.prepacked", 7),
            ("lut.i4.prepacked", 8),
            ("lut.i4.rows", 9),
            ("lut.i2.prepacked", 10),
            ("gemm.i8.fused.prepacked", 11),
            ("gemm.i8.fused.prepacked", 12),
            ("gemm.i8.fused.prepacked", 13),
            ("gemm.i8.fused.prepacked", 14),
        ] {
            let calls: u64 = recorded
                .iter()
                .filter(|r| r.site == site && (r.m, r.n, r.k) == (m, n, k))
                .map(|r| r.count)
                .sum();
            assert_eq!(calls, 1, "{site} at m = {m}");
        }
    }
}
