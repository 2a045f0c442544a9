//! The paper's evaluation, regenerated: one module per figure or table.
//!
//! Each module under [`figures`] prints one of the paper's tables or
//! figures as an aligned text table, with a `paper` reference column
//! where the paper states a number. The `paper` binary runs them all in
//! file-name order (or the ones named by `--fig`, at `--seed N`); its
//! default output is committed as `BENCH_paper.txt` at the repository
//! root, and CI regenerates it and fails on any byte of difference, so a
//! change that moves a figure updates that record in the same commit.
//! [`baselines`] holds the batch-coupled quantization baselines the
//! accuracy figures compare against.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod figures;

/// What a figure returns: any error aborts the run.
pub type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio as `"12.3x"`.
#[must_use]
pub fn ratio(ours: f64, theirs: f64) -> String {
    if ours <= 0.0 {
        return "-".to_owned();
    }
    format!("{:.1}x", theirs / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 10.0), "5.0x");
        assert_eq!(ratio(0.0, 10.0), "-");
    }
}
