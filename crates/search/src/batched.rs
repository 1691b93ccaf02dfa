//! Batched search: the paper's §7 extension, as a view of the one loop.
//!
//! "Our current implementation samples only one multi-task model at a
//! time, which limits the efficiency of the iterative process. We can
//! accelerate this process by sampling multiple models in parallel or
//! adopting parallel simulated annealing algorithms."
//!
//! The driver implements this as its batch size K
//! ([`SearchConfig::batch_size`]): each round proposes K candidates and
//! fine-tunes them concurrently, then updates elites and filters in
//! iteration order — the classic synchronous parallel-SA scheme: slightly
//! staler feedback in exchange for K-way parallel fine-tuning.
//! [`run_search_batched`] runs that loop and groups its trace into rounds.

use crate::driver::{run_search, CandidateStatus, SearchConfig};
use crate::evaluator::EvalMode;
use gmorph_graph::{AbsGraph, WeightStore};
use gmorph_tensor::Result;

/// Candidate outcomes of one round.
#[derive(Debug, Clone)]
pub struct BatchRound {
    /// Candidates that reached evaluation (evaluated, terminated early, or
    /// failed).
    pub evaluated: usize,
    /// Candidates settled before evaluation (no mutation, duplicate,
    /// quarantined, or rule-filtered).
    pub skipped: usize,
}

/// Result of a batched search.
#[derive(Debug, Clone)]
pub struct BatchedResult {
    /// Best satisfying graph at mini scale.
    pub best_mini: AbsGraph,
    /// Speedup over the original.
    pub speedup: f64,
    /// Per-round outcomes; the last round may be short.
    pub rounds: Vec<BatchRound>,
}

/// Runs Algorithm 1 with `batch_size` candidates per round.
///
/// `cfg.iterations` counts *candidates*, so a batched run is directly
/// comparable to a sequential run of the same `iterations`. A zero
/// `batch_size` is an error.
pub fn run_search_batched(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
    batch_size: usize,
) -> Result<BatchedResult> {
    let cfg = SearchConfig {
        batch_size,
        ..cfg.clone()
    };
    let res = run_search(mini, paper, teacher_weights, mode, &cfg)?;
    let rounds = res
        .trace
        .chunks(batch_size)
        .map(|round| {
            let evaluated = round
                .iter()
                .filter(|r| {
                    matches!(
                        r.status,
                        CandidateStatus::Evaluated
                            | CandidateStatus::TerminatedEarly
                            | CandidateStatus::Failed
                    )
                })
                .count();
            BatchRound {
                evaluated,
                skipped: round.len() - evaluated,
            }
        })
        .collect();
    Ok(BatchedResult {
        best_mini: res.best.mini,
        speedup: res.speedup,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SearchResult;
    use crate::evaluator::SurrogateContext;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_graph::CapacityVector;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_perf::accuracy::{FinetuneConfig, SurrogateParams};

    fn setup() -> (AbsGraph, AbsGraph, WeightStore, EvalMode) {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let mini = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap();
        let paper = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t1).unwrap(),
        ])
        .unwrap();
        let mut weights = WeightStore::new();
        for (_, n) in mini.iter() {
            weights.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mode = EvalMode::Surrogate(SurrogateContext {
            orig_capacity: CapacityVector::of(&mini).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.85, 0.80],
        });
        (mini, paper, weights, mode)
    }

    fn cfg(iterations: usize) -> SearchConfig {
        SearchConfig {
            iterations,
            finetune: FinetuneConfig {
                max_epochs: 20,
                eval_every: 2,
                target_drop: 0.02,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn unified(cfg: &SearchConfig, batch_size: usize) -> SearchResult {
        let (mini, paper, weights, mode) = setup();
        let cfg = SearchConfig {
            batch_size,
            ..cfg.clone()
        };
        run_search(&mini, &paper, &weights, &mode, &cfg).unwrap()
    }

    #[test]
    fn batched_search_finds_satisfying_speedup() {
        let (mini, paper, weights, mode) = setup();
        let r = run_search_batched(&mini, &paper, &weights, &mode, &cfg(32), 4).unwrap();
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
        r.best_mini.validate().unwrap();
        // Every candidate of the budget lands in exactly one round.
        assert_eq!(r.rounds.len(), 8);
        for round in &r.rounds {
            assert_eq!(round.evaluated + round.skipped, 4);
        }
        // The projection agrees with the unified result.
        let u = unified(&cfg(32), 4);
        assert_eq!(u.trace.len(), 32);
        assert_eq!(r.best_mini.signature(), u.best.mini.signature());
        assert_eq!(r.speedup.to_bits(), u.speedup.to_bits());
        let evaluated: usize = r.rounds.iter().map(|x| x.evaluated).sum();
        assert_eq!(evaluated, u.evaluated + u.failed);
    }

    #[test]
    fn batched_matches_sequential_quality_roughly() {
        let (mini, paper, weights, mode) = setup();
        let seq = run_search(&mini, &paper, &weights, &mode, &cfg(32)).unwrap();
        let bat = run_search_batched(&mini, &paper, &weights, &mode, &cfg(32), 4).unwrap();
        // Same candidate budget: quality within a factor.
        assert!(
            bat.speedup > seq.speedup * 0.5,
            "{} vs {}",
            bat.speedup,
            seq.speedup
        );
    }

    #[test]
    fn best_latency_monotone_across_rounds() {
        let r = unified(&cfg(24), 3);
        assert_eq!(r.trace.len(), 24);
        for w in r.trace.windows(2) {
            assert!(w[1].best_latency_ms <= w[0].best_latency_ms + 1e-9);
            assert!(w[1].virtual_hours >= w[0].virtual_hours);
        }
    }

    #[test]
    fn zero_batch_rejected() {
        let (mini, paper, weights, mode) = setup();
        assert!(run_search_batched(&mini, &paper, &weights, &mode, &cfg(8), 0).is_err());
    }

    #[test]
    fn rule_filter_works_in_batched_mode() {
        let mut c = cfg(48);
        c.finetune.target_drop = 0.0;
        c.rule_filter = true;
        let r = unified(&c, 4);
        assert!(r.rule_filtered > 0);
    }
}
