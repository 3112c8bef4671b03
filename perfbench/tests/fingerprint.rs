//! The work counts of `tree-search` and `large-lp` are an exact regression
//! gate. Each run here makes two passes (the second after the writes that
//! follow the first), and every repetition of a request inside a run must
//! match its first (a mismatch counts as a failed operation). Two runs with
//! different seeds (different request orders) must report identical nodes,
//! LPs, pivots and refactorizations per request, equal to the counts
//! committed in `perfbench/fingerprint.tsv`. A change that moves a count
//! updates that file and says why.

use perfbench::run::{Config, Outcome};

/// `workload<TAB>request<TAB>nodes<TAB>lps<TAB>pivots<TAB>refactorizations`
/// lines of a run's fingerprint.
fn render(workload: &str, outcome: &Outcome) -> Vec<String> {
    outcome
        .fingerprint
        .iter()
        .map(|(label, [nodes, lps, pivots, refactorizations])| {
            format!("{workload}\t{label}\t{nodes}\t{lps}\t{pivots}\t{refactorizations}")
        })
        .collect()
}

#[test]
fn tree_search_and_large_lp_repeat_their_work_counts() {
    let committed: Vec<&str> = include_str!("../fingerprint.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let mut measured = Vec::new();
    for workload in ["tree-search", "large-lp"] {
        let run = |seed| {
            let cfg = Config {
                seed,
                seconds: 1e-3,
                trace: false,
                min_passes: 2,
            };
            perfbench::run_workload(workload, &cfg).expect("a known workload")
        };
        let (first, second) = (run(1), run(2));
        for outcome in [&first, &second] {
            assert_eq!(outcome.passes.len(), 2);
            assert!(
                outcome.fingerprint_stable,
                "{workload}: counts moved within a run: {:?}",
                outcome.failures
            );
            assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
        }
        assert!(!first.fingerprint.is_empty());
        assert_eq!(
            first.fingerprint, second.fingerprint,
            "{workload}: counts moved between runs"
        );
        measured.extend(render(workload, &first));
    }
    assert_eq!(
        measured,
        committed,
        "work counts differ from perfbench/fingerprint.tsv; measured:\n{}",
        measured.join("\n")
    );
}
