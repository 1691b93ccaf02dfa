//! Algorithm 1: the graph mutation optimization loop.
//!
//! Each iteration (1) samples a base abstract graph — the original
//! multi-DNN graph or an elite — under the sampling policy, (2) samples
//! input-shareable node pairs and applies a graph mutation pass, (3)
//! generates and evaluates the candidate (with predictive filtering), and
//! (4) updates the elites and the best model when the accuracy target is
//! met. Iterations run in rounds of `batch_size` (K): a round proposes
//! its K candidates in order, evaluates them together, and folds the
//! outcomes back in order, so K = 1 is the sequential loop.
//!
//! The driver tracks every candidate at two scales simultaneously: the
//! *mini* graph (trainable) and the *paper* graph (analytic estimation),
//! replaying the same mutation operations on both. Node ids are aligned by
//! construction (both graphs are parsed from parallel spec lists and
//! mutated identically), which the driver asserts every iteration.

use crate::checkpoint::{
    config_fingerprint, load_latest_search, CheckpointManager, CheckpointOptions, LoopState,
    SearchSnapshot, SEARCH_KIND,
};
use crate::evaluator::EvalMode;
use crate::history::{Elite, History};
use crate::policy::{PolicyKind, SimulatedAnnealing};
use crate::supervisor::{self, SupervisorConfig};
use gmorph_graph::pairs::{pairs_with, PairPolicy};
use gmorph_graph::{mutation, AbsGraph, CapacityVector, NodeId, WeightStore};
use gmorph_perf::accuracy::FinetuneConfig;
use gmorph_perf::estimator::{estimate_latency_ms, Backend};
use gmorph_perf::filter::CapacityRuleFilter;
use gmorph_perf::VirtualClock;
use gmorph_telemetry::{Event, EventKind, Value};
use gmorph_tensor::engine;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, TensorError};
use std::time::Instant;

/// The metric the search minimizes (the paper's config item (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Estimated paper-scale latency (ms, Eager backend).
    Latency,
    /// Total paper-scale FLOPs.
    Flops,
}

/// Virtual-clock sample count (paper-scale representative inputs).
const VIRTUAL_SAMPLES: u64 = 20_000;

/// Search configuration (the paper's "configuration file", §3).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Total optimization iterations `N` (paper: 200): one candidate
    /// each, for every batch size.
    pub iterations: usize,
    /// Candidates proposed and evaluated per round, K (§7's "sampling
    /// multiple models in parallel"). K = 1 (the default) is the paper's
    /// sequential Algorithm 1; K > 1 fine-tunes each round's candidates
    /// concurrently on the engine pool.
    pub batch_size: usize,
    /// Metric to optimize.
    pub objective: Objective,
    /// Sampling policy.
    pub policy: PolicyKind,
    /// Maximum mutation operations per pass.
    pub max_ops_per_pass: usize,
    /// Simulated-annealing cooling constant α (paper: 0.99).
    pub sa_alpha: f32,
    /// Pair-enumeration policy (similar shapes by default).
    pub pair_policy: PairPolicy,
    /// Enables rule-based filtering (the "+R" variants).
    pub rule_filter: bool,
    /// Fine-tuning configuration; `target_drop` is the accuracy threshold
    /// and `early_termination` enables the "+P" variant.
    pub finetune: FinetuneConfig,
    /// Virtual-clock effective training throughput in FLOP/s (the paper's
    /// RTX-8000 assumption by default).
    pub virtual_throughput: f64,
    /// RNG seed.
    pub seed: u64,
    /// Candidate-evaluation supervision: deadlines, retry/backoff, fault
    /// injection (see [`crate::supervisor`]). The default is inert for
    /// healthy candidates, so clean runs stay bit-identical.
    pub supervisor: SupervisorConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 24,
            batch_size: 1,
            objective: Objective::Latency,
            policy: PolicyKind::SimulatedAnnealing,
            sa_alpha: 0.99,
            max_ops_per_pass: 2,
            pair_policy: PairPolicy::SimilarShape,
            rule_filter: false,
            finetune: FinetuneConfig::default(),
            virtual_throughput: gmorph_perf::clock::DEFAULT_THROUGHPUT,
            seed: 0,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// What happened to one candidate during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStatus {
    /// Evaluated by fine-tuning (real or surrogate).
    Evaluated,
    /// Skipped: identical architecture already evaluated.
    Duplicate,
    /// Skipped by rule-based filtering before fine-tuning.
    RuleFiltered,
    /// Fine-tuning cut short by predictive early termination.
    TerminatedEarly,
    /// No legal mutation was found this round.
    NoMutation,
    /// Evaluation failed every permitted attempt (classified, rejected).
    Failed,
    /// Skipped before evaluation: matched a quarantined failure.
    Quarantined,
}

impl CandidateStatus {
    /// Stable wire name used in telemetry events and persisted traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            CandidateStatus::Evaluated => "evaluated",
            CandidateStatus::Duplicate => "duplicate",
            CandidateStatus::RuleFiltered => "rule_filtered",
            CandidateStatus::TerminatedEarly => "terminated_early",
            CandidateStatus::NoMutation => "no_mutation",
            CandidateStatus::Failed => "failed",
            CandidateStatus::Quarantined => "quarantined",
        }
    }

    /// Parses a wire name written by [`CandidateStatus::as_str`].
    pub fn parse(s: &str) -> Option<CandidateStatus> {
        Some(match s {
            "evaluated" => CandidateStatus::Evaluated,
            "duplicate" => CandidateStatus::Duplicate,
            "rule_filtered" => CandidateStatus::RuleFiltered,
            "terminated_early" => CandidateStatus::TerminatedEarly,
            "no_mutation" => CandidateStatus::NoMutation,
            "failed" => CandidateStatus::Failed,
            "quarantined" => CandidateStatus::Quarantined,
            _ => return None,
        })
    }
}

/// Per-iteration trace record (drives Figure 8's curves).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Iteration number (1-based).
    pub iter: usize,
    /// Candidate status.
    pub status: CandidateStatus,
    /// Whether the base graph was an elite (exploitation) rather than the
    /// original multi-DNN graph.
    pub from_elite: bool,
    /// Accuracy drop after fine-tuning (`NaN` when not evaluated).
    pub drop: f32,
    /// Whether the accuracy target was met.
    pub met_target: bool,
    /// Estimated paper-scale latency of the candidate (ms).
    pub candidate_latency_ms: f64,
    /// Best satisfying latency found so far (ms).
    pub best_latency_ms: f64,
    /// Fine-tuning epochs spent.
    pub epochs: usize,
    /// Virtual search time so far (hours).
    pub virtual_hours: f64,
    /// Wall-clock time so far (seconds).
    pub wall_seconds: f64,
}

impl TraceRecord {
    /// The record's fields as named telemetry values: the one encoding
    /// behind both the `search.iter` event and the `.trace.jsonl` line.
    pub fn fields(&self) -> Vec<(String, Value)> {
        let fields: [(&str, Value); 10] = [
            ("iter", self.iter.into()),
            ("status", self.status.as_str().into()),
            ("from_elite", self.from_elite.into()),
            ("drop", self.drop.into()),
            ("met_target", self.met_target.into()),
            ("candidate_latency_ms", self.candidate_latency_ms.into()),
            ("best_latency_ms", self.best_latency_ms.into()),
            ("epochs", self.epochs.into()),
            ("virtual_hours", self.virtual_hours.into()),
            ("wall_seconds", self.wall_seconds.into()),
        ];
        fields
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect()
    }
}

/// A search's candidate-outcome counts, tallied from its trace: the
/// trace is the one record of what happened to each candidate, so
/// neither the loop nor its snapshots keep counters of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Candidates fine-tuned (`Evaluated` + `TerminatedEarly`).
    pub evaluated: usize,
    /// Candidates skipped by rule-based filtering.
    pub rule_filtered: usize,
    /// Candidates whose fine-tuning was terminated early.
    pub early_terminated: usize,
    /// Duplicate candidates skipped.
    pub duplicates: usize,
    /// Candidates that failed every permitted evaluation attempt.
    pub failed: usize,
    /// Candidates skipped because they matched a quarantined failure.
    pub quarantined: usize,
}

impl OutcomeCounts {
    /// Tallies the statuses of a trace.
    pub fn of(trace: &[TraceRecord]) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for rec in trace {
            match rec.status {
                CandidateStatus::Evaluated => c.evaluated += 1,
                CandidateStatus::TerminatedEarly => {
                    c.evaluated += 1;
                    c.early_terminated += 1;
                }
                CandidateStatus::RuleFiltered => c.rule_filtered += 1,
                CandidateStatus::Duplicate => c.duplicates += 1,
                CandidateStatus::Failed => c.failed += 1,
                CandidateStatus::Quarantined => c.quarantined += 1,
                CandidateStatus::NoMutation => {}
            }
        }
        c
    }
}

/// The best model found by a search.
#[derive(Debug, Clone)]
pub struct BestModel {
    /// Mini-scale abstract graph.
    pub mini: AbsGraph,
    /// Paper-scale abstract graph.
    pub paper: AbsGraph,
    /// Trained weights (real mode) or inheritance markers (surrogate).
    pub weights: WeightStore,
    /// Estimated paper-scale latency (ms, Eager backend).
    pub latency_ms: f64,
    /// Accuracy drop.
    pub drop: f32,
    /// Per-task scores.
    pub scores: Vec<f32>,
}

/// Outcome of a full search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best satisfying model (the original when nothing beat it).
    pub best: BestModel,
    /// Latency of the original multi-DNN graph (ms, Eager backend).
    pub original_latency_ms: f64,
    /// Speedup of `best` over the original.
    pub speedup: f64,
    /// Per-iteration trace.
    pub trace: Vec<TraceRecord>,
    /// Total virtual search time (hours).
    pub virtual_hours: f64,
    /// Total wall-clock time (seconds).
    pub wall_seconds: f64,
    /// Candidates fine-tuned.
    pub evaluated: usize,
    /// Candidates skipped by rule-based filtering.
    pub rule_filtered: usize,
    /// Candidates whose fine-tuning was terminated early.
    pub early_terminated: usize,
    /// Duplicate candidates skipped.
    pub duplicates: usize,
    /// Candidates that failed every permitted evaluation attempt.
    pub failed: usize,
    /// Candidates skipped because they matched a quarantined failure.
    pub quarantined: usize,
}

/// Runs Algorithm 1.
///
/// `mini` and `paper` are the abstract graphs of the input multi-DNNs at
/// the two scales (node-id aligned); `teacher_weights` hold the
/// well-trained single-task weights; `mode` selects real or surrogate
/// accuracy evaluation.
pub fn run_search(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
) -> Result<SearchResult> {
    run_search_checkpointed(mini, paper, teacher_weights, mode, cfg, None)
}

/// One iteration's proposal, carried from the propose step to the fold.
struct Proposal {
    iter: usize,
    /// Index of the elite that was mutated (`None`: the original graph).
    elite: Option<usize>,
    temperature: f32,
    /// Node and `Rescale`-node counts of the mutated graph (-1 without one).
    nodes: i64,
    rescales: i64,
    /// Paper-scale latency estimate (NaN when never estimated).
    latency_ms: f64,
    step: Step,
}

enum Step {
    /// Settled before evaluation, with the `search.iter` reason.
    Skip(CandidateStatus, &'static str),
    /// Passed every screen; goes to the supervisor.
    Evaluate(Box<Candidate>),
}

struct Candidate {
    mini: AbsGraph,
    paper: AbsGraph,
    signature: String,
    capacity: CapacityVector,
}

/// Runs Algorithm 1 with optional crash-safe checkpointing.
///
/// Each round proposes `cfg.batch_size` (K) candidates, one iteration
/// each, sequentially on the search RNG stream; evaluates the survivors
/// under supervision; then folds the outcomes into the clock, policy,
/// filters, elites, best model and trace in iteration order. K = 1 is the
/// sequential search. K > 1 is §7's "sampling multiple models in
/// parallel": the round's candidates fine-tune concurrently on the engine
/// pool, each on its own RNG stream, so results do not depend on the
/// thread count. `cfg.iterations` counts candidates for every K.
///
/// With `ckpt = Some(opts)` the loop snapshots its complete state after
/// every round (written to disk when the round covers a multiple of
/// `opts.every` iterations, and on drop/panic), and — when `opts.resume`
/// is set — restores the newest valid snapshot whose config fingerprint
/// matches before iterating. A resumed run replays the remaining rounds
/// bit-exactly: every field of the final [`SearchResult`] except
/// wall-clock seconds equals the uninterrupted run's.
pub fn run_search_checkpointed(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Result<SearchResult> {
    if mini.len() != paper.len() {
        return Err(TensorError::InvalidArgument {
            op: "run_search",
            msg: format!(
                "mini graph has {} nodes, paper graph {} — scales out of sync",
                mini.len(),
                paper.len()
            ),
        });
    }
    if cfg.batch_size == 0 {
        return Err(TensorError::InvalidArgument {
            op: "run_search",
            msg: "batch_size must be nonzero".to_string(),
        });
    }
    let wall_start = Instant::now();
    let mut rng = Rng::new(cfg.seed ^ 0x5EA_4C4);
    let mut policy = SimulatedAnnealing::new();
    policy.alpha = cfg.sa_alpha;
    let mut history = History::new(policy.max_elites);
    let mut rule_filter = CapacityRuleFilter::new();
    let mut clock = VirtualClock::with_throughput(VIRTUAL_SAMPLES, cfg.virtual_throughput);
    let mut trace: Vec<TraceRecord> = Vec::with_capacity(cfg.iterations);

    let original_latency_ms = estimate_latency_ms(paper, Backend::Eager)?;
    let _run_span = gmorph_telemetry::span!(
        "search.run",
        iterations = cfg.iterations,
        batch_size = cfg.batch_size,
        seed = cfg.seed,
        objective = match cfg.objective {
            Objective::Latency => "latency",
            Objective::Flops => "flops",
        }
    );
    gmorph_telemetry::meta!(
        "search.run_meta",
        iterations = cfg.iterations,
        batch_size = cfg.batch_size,
        seed = cfg.seed,
        rule_filter = cfg.rule_filter,
        early_termination = cfg.finetune.early_termination,
        sa_alpha = cfg.sa_alpha,
        virtual_samples = VIRTUAL_SAMPLES,
        virtual_throughput = clock.throughput(),
        original_latency_ms = original_latency_ms,
        nodes = mini.len()
    );
    let teacher_scores = mode.teacher_scores().to_vec();
    let mut best = BestModel {
        mini: mini.clone(),
        paper: paper.clone(),
        weights: teacher_weights.clone(),
        latency_ms: original_latency_ms,
        drop: 0.0,
        scores: teacher_scores.clone(),
    };

    // Resume: restore the newest valid snapshot whose fingerprint matches
    // this exact config + input graphs, then continue from its iteration.
    let fingerprint = config_fingerprint(cfg, mini, paper);
    let mut start_iter = 1usize;
    let mut wall_offset = 0.0f64;
    if let Some(opts) = ckpt {
        if opts.resume {
            if let Some(snap) = load_latest_search(&opts.dir, fingerprint)? {
                rng = Rng::restore(&snap.state.rng);
                policy.restore_last_drop(snap.state.last_drop);
                history =
                    History::from_parts(snap.state.evaluated, snap.state.elites, policy.max_elites);
                rule_filter =
                    CapacityRuleFilter::from_parts(snap.state.failures, snap.state.quarantined);
                clock.restore_seconds(snap.state.clock_seconds);
                best = snap.best;
                trace = snap.trace;
                start_iter = snap.state.next_iter;
                wall_offset = snap.state.wall_offset;
                gmorph_telemetry::point!(
                    "search.resumed",
                    next_iter = start_iter,
                    evaluated = OutcomeCounts::of(&trace).evaluated,
                    elites = history.elite_count(),
                    virtual_hours = clock.hours()
                );
            }
        }
    }
    let mut manager = ckpt.map(|opts| CheckpointManager::new(opts, SEARCH_KIND));

    let k = cfg.batch_size;
    for first in (start_iter..=cfg.iterations).step_by(k) {
        let last = (first + k - 1).min(cfg.iterations);

        // Steps 1-2 for each iteration of the round, in order: sample the
        // base graph (original or elite), mutate it at both scales, and
        // screen the candidate before any evaluation work. Only the search
        // stream and the dedup set change here.
        let mut round = Vec::with_capacity(last + 1 - first);
        for iter in first..=last {
            let use_elite = match cfg.policy {
                PolicyKind::SimulatedAnnealing => {
                    policy.sample_from_elites(iter, history.elite_count(), &mut rng)
                }
                PolicyKind::RandomSampling => false,
            };
            let elite =
                (use_elite && history.elite_count() > 0).then(|| rng.below(history.elite_count()));
            let (base_mini, base_paper) = match elite {
                Some(i) => (&history.elites()[i].mini, &history.elites()[i].paper),
                None => (mini, paper),
            };
            let candidate = propose_candidate(
                base_mini,
                base_paper,
                cfg.pair_policy,
                cfg.max_ops_per_pass,
                &mut rng,
            )?;
            let mut p = Proposal {
                iter,
                elite,
                temperature: policy.temperature(iter),
                nodes: -1,
                rescales: -1,
                latency_ms: f64::NAN,
                step: Step::Skip(CandidateStatus::NoMutation, "no_mutation"),
            };
            if let Some((cand_mini, cand_paper)) = candidate {
                p.nodes = cand_mini.len() as i64;
                p.rescales = cand_mini
                    .iter()
                    .filter(|(_, n)| matches!(n.spec, gmorph_nn::BlockSpec::Rescale { .. }))
                    .count() as i64;
                p.step = 'screen: {
                    // Deduplicate by structural signature first: a
                    // previously seen candidate skips even the latency
                    // estimate, not just the fine-tuning.
                    let signature = cand_mini.signature();
                    if history.seen(&signature) {
                        break 'screen Step::Skip(CandidateStatus::Duplicate, "duplicate");
                    }
                    history.record_evaluated(signature.clone());
                    p.latency_ms = estimate_latency_ms(&cand_paper, Backend::Eager)?;
                    // Quarantine is always on (independent of
                    // `rule_filter`): its entries record *evaluation
                    // failures*, and a match would fail the same way
                    // again. The §5.1 dominance rule applies, so an equal
                    // or more aggressive merge is skipped too.
                    let capacity = CapacityVector::of(&cand_mini)?;
                    if let Some(v) = rule_filter.quarantine_verdict(&signature, &capacity) {
                        break 'screen Step::Skip(CandidateStatus::Quarantined, v.as_str());
                    }
                    // Rule-based filtering (§5.1) before any fine-tuning.
                    let verdict = if cfg.rule_filter {
                        rule_filter.verdict(&capacity)
                    } else {
                        None
                    };
                    if let Some(v) = verdict {
                        break 'screen Step::Skip(CandidateStatus::RuleFiltered, v.as_str());
                    }
                    Step::Evaluate(Box::new(Candidate {
                        mini: cand_mini,
                        paper: cand_paper,
                        signature,
                        capacity,
                    }))
                };
            }
            round.push(p);
        }

        // Step 3: evaluate (fine-tune) the survivors, supervised. With
        // K = 1 the candidate draws from the search stream, which makes
        // K = 1 the sequential search; with K > 1 each candidate draws
        // from its own stream keyed by (seed, iter), so the round runs on
        // the engine pool at any thread count with the same results.
        let pending: Vec<(usize, &AbsGraph, &WeightStore)> = round
            .iter()
            .filter_map(|p| match &p.step {
                Step::Evaluate(c) => Some((
                    p.iter,
                    &c.mini,
                    p.elite
                        .map_or(teacher_weights, |i| &history.elites()[i].weights),
                )),
                Step::Skip(..) => None,
            })
            .collect();
        let evaluate = |(iter, cand, weights): (usize, &AbsGraph, &WeightStore), rng: &mut Rng| {
            supervisor::evaluate_supervised(
                mode,
                cand,
                weights,
                &cfg.finetune,
                &cfg.supervisor,
                cfg.seed,
                iter,
                rng,
                cfg.seed.wrapping_mul(1_000_003) ^ iter as u64,
            )
        };
        let outcomes = if k == 1 {
            pending.iter().map(|&c| evaluate(c, &mut rng)).collect()
        } else {
            engine::parallel_map(pending.len(), |j| {
                let mut own = Rng::new(supervisor::candidate_seed(cfg.seed, pending[j].0));
                evaluate(pending[j], &mut own)
            })
        };
        let mut outcomes = outcomes.into_iter();

        // Step 4, in iteration order: charge the clock, contain failures,
        // update the policy, filters, elites and best model, and record.
        for p in round {
            let (status, reason, drop, met, epochs) = match p.step {
                Step::Skip(status, reason) => {
                    let overhead = match status {
                        CandidateStatus::Duplicate => {
                            gmorph_telemetry::counter!("search.duplicates");
                            gmorph_telemetry::counter!("search.dedup_hit");
                            1.0
                        }
                        CandidateStatus::Quarantined => {
                            gmorph_telemetry::counter!("search.quarantine_skipped");
                            gmorph_telemetry::counter!("filter.rule.quarantined");
                            2.0
                        }
                        CandidateStatus::RuleFiltered => {
                            gmorph_telemetry::counter!("search.rule_filtered");
                            if gmorph_telemetry::enabled() {
                                gmorph_telemetry::counter!(&format!("filter.rule.{reason}"));
                            }
                            2.0
                        }
                        _ => {
                            gmorph_telemetry::counter!("search.no_mutation");
                            0.0
                        }
                    };
                    clock.charge_overhead(overhead);
                    (status, reason, f32::NAN, false, 0)
                }
                Step::Evaluate(c) => 'fold: {
                    let Candidate {
                        mini: cand_mini,
                        paper: cand_paper,
                        signature,
                        capacity,
                    } = *c;
                    let outcome = outcomes
                        .next()
                        .expect("one outcome per evaluated candidate");
                    // A failing candidate was retried (transient kinds
                    // only); now it is classified, quarantined, and scored
                    // as a rejected SA step — never an aborted run.
                    let evaluation = match outcome {
                        Ok(evaluation) => {
                            let paper_flops = cand_paper.flops()?;
                            clock.charge_finetune(paper_flops, evaluation.result.epochs_run);
                            clock.charge_eval(
                                paper_flops * evaluation.result.records.len().max(1) as u64,
                            );
                            evaluation
                        }
                        Err(report) => {
                            // Failed attempts still consumed search time.
                            clock.charge_overhead(2.0 * report.attempts as f64);
                            gmorph_telemetry::counter!("search.failed");
                            gmorph_telemetry::counter!("eval.quarantine");
                            gmorph_telemetry::point!(
                                "eval.quarantine",
                                iter = p.iter,
                                kind = report.kind.as_str(),
                                attempts = report.attempts,
                                signature = signature.as_str(),
                                error = report.message.as_str()
                            );
                            rule_filter.record_quarantine(signature, capacity);
                            // A failed candidate reads as maximally bad to
                            // the SA policy: elites stay preferable and the
                            // temperature schedule sees a rejection, not a
                            // hole.
                            policy.observe_drop(1.0);
                            break 'fold (
                                CandidateStatus::Failed,
                                report.kind.as_str(),
                                f32::NAN,
                                false,
                                0,
                            );
                        }
                    };
                    let result = evaluation.result;
                    policy.observe_drop(result.final_drop.max(0.0));
                    gmorph_telemetry::counter!("search.evaluated");
                    let status = if result.terminated_early {
                        gmorph_telemetry::counter!("search.early_terminated");
                        CandidateStatus::TerminatedEarly
                    } else {
                        CandidateStatus::Evaluated
                    };
                    if !result.met_target {
                        if cfg.rule_filter {
                            rule_filter.record_failure(capacity);
                        }
                        gmorph_telemetry::counter!("search.rejected");
                        let drop = result.final_drop;
                        break 'fold (status, "rejected_drop", drop, false, result.epochs_run);
                    }
                    let (objective, best_objective) = match cfg.objective {
                        Objective::Latency => (p.latency_ms, best.latency_ms),
                        Objective::Flops => {
                            (cand_paper.flops()? as f64, best.paper.flops()? as f64)
                        }
                    };
                    let reason = if objective < best_objective {
                        best = BestModel {
                            mini: cand_mini.clone(),
                            paper: cand_paper.clone(),
                            weights: evaluation.weights.clone(),
                            latency_ms: p.latency_ms,
                            drop: result.final_drop,
                            scores: result.final_scores.clone(),
                        };
                        gmorph_telemetry::counter!("search.best_improved");
                        "accepted_best"
                    } else {
                        "accepted_elite"
                    };
                    history.add_elite(Elite {
                        mini: cand_mini,
                        paper: cand_paper,
                        weights: evaluation.weights,
                        drop: result.final_drop,
                        latency_ms: p.latency_ms,
                        scores: result.final_scores,
                    });
                    gmorph_telemetry::counter!("search.accepted");
                    (status, reason, result.final_drop, true, result.epochs_run)
                }
            };
            trace.push(TraceRecord {
                iter: p.iter,
                status,
                from_elite: p.elite.is_some(),
                drop,
                met_target: met,
                candidate_latency_ms: p.latency_ms,
                best_latency_ms: best.latency_ms,
                epochs,
                virtual_hours: clock.hours(),
                wall_seconds: wall_offset + wall_start.elapsed().as_secs_f64(),
            });
            emit_iter(
                trace.last().unwrap(),
                p.temperature,
                reason,
                p.nodes,
                p.rescales,
            );
        }

        // Snapshot the completed round; the manager decides whether it
        // hits the disk now or stays pending (flushed on drop).
        if let Some(mgr) = manager.as_mut() {
            let snapshot = SearchSnapshot {
                state: LoopState {
                    fingerprint,
                    next_iter: last + 1,
                    rng: rng.state(),
                    last_drop: policy.last_drop(),
                    clock_seconds: clock.seconds(),
                    wall_offset: wall_offset + wall_start.elapsed().as_secs_f64(),
                    failures: rule_filter.failures().to_vec(),
                    quarantined: rule_filter.quarantined().to_vec(),
                    evaluated: history
                        .evaluated_signatures()
                        .into_iter()
                        .map(str::to_string)
                        .collect(),
                    elites: history.elites().to_vec(),
                },
                best: best.clone(),
                trace: trace.clone(),
            };
            mgr.tick(first..=last, snapshot.encode())?;
        }
        if let Some(opts) = ckpt {
            (first..=last).for_each(|iter| opts.maybe_crash(iter));
        }
    }

    let wall_seconds = wall_offset + wall_start.elapsed().as_secs_f64();
    let counts = OutcomeCounts::of(&trace);
    gmorph_telemetry::point!(
        "search.done",
        iterations = cfg.iterations,
        evaluated = counts.evaluated,
        rule_filtered = counts.rule_filtered,
        early_terminated = counts.early_terminated,
        duplicates = counts.duplicates,
        failed = counts.failed,
        quarantined = counts.quarantined,
        best_latency_ms = best.latency_ms,
        original_latency_ms = original_latency_ms,
        speedup = original_latency_ms / best.latency_ms,
        virtual_hours = clock.hours(),
        wall_seconds = wall_seconds
    );
    Ok(SearchResult {
        speedup: original_latency_ms / best.latency_ms,
        best,
        original_latency_ms,
        trace,
        virtual_hours: clock.hours(),
        wall_seconds,
        evaluated: counts.evaluated,
        rule_filtered: counts.rule_filtered,
        early_terminated: counts.early_terminated,
        duplicates: counts.duplicates,
        failed: counts.failed,
        quarantined: counts.quarantined,
    })
}

/// Samples a mutation pass and replays it at both scales.
///
/// Public so the experiment harness can draw candidates exactly the way
/// the search does (Figure 1/2/3 sample candidates outside a search run).
pub fn propose_candidate(
    base_mini: &AbsGraph,
    base_paper: &AbsGraph,
    pair_policy: PairPolicy,
    max_ops_per_pass: usize,
    rng: &mut Rng,
) -> Result<Option<(AbsGraph, AbsGraph)>> {
    let pairs = pairs_with(base_mini, pair_policy)?;
    if pairs.is_empty() {
        return Ok(None);
    }
    for _ in 0..8 {
        let k = 1 + rng.below(max_ops_per_pass.max(1));
        let chosen: Vec<(NodeId, NodeId)> = (0..k).map(|_| pairs[rng.below(pairs.len())]).collect();
        let (cand_mini, ops_mini) = mutation::mutation_pass(base_mini, &chosen)?;
        if ops_mini.is_empty() {
            continue;
        }
        let (cand_paper, ops_paper) = mutation::mutation_pass(base_paper, &chosen)?;
        // Scales must replay identically; node ids are aligned by
        // construction, so a divergence is a bug worth failing loudly on.
        if ops_mini.len() != ops_paper.len()
            || ops_mini
                .iter()
                .zip(ops_paper.iter())
                .any(|(a, b)| a.host != b.host || a.guest != b.guest)
        {
            return Err(TensorError::InvalidArgument {
                op: "run_search::propose",
                msg: "mini/paper mutation replay diverged".to_string(),
            });
        }
        return Ok(Some((cand_mini, cand_paper)));
    }
    Ok(None)
}

/// Emits the per-iteration `search.iter` telemetry event: the trace
/// record's fields plus `reason`, which explains the outcome
/// (`accepted_best`, `accepted_elite`, `rejected_drop`, `duplicate`,
/// `exact`/`more_aggressive` for filter verdicts, a failure kind,
/// `no_mutation`), the SA `temperature`, and `cand_nodes`/`rescales`,
/// which characterize the mutated graph (-1 when none was produced).
fn emit_iter(rec: &TraceRecord, temperature: f32, reason: &str, cand_nodes: i64, rescales: i64) {
    gmorph_telemetry::counter!("search.iterations");
    if !gmorph_telemetry::enabled() {
        return;
    }
    let mut fields = rec.fields();
    fields.extend([
        ("reason".to_string(), reason.into()),
        ("temperature".to_string(), temperature.into()),
        ("cand_nodes".to_string(), cand_nodes.into()),
        ("rescales".to_string(), rescales.into()),
    ]);
    gmorph_telemetry::emit(Event::new(EventKind::Point, "search.iter").with_fields(fields));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateContext;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_perf::accuracy::SurrogateParams;

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

    fn quick_cfg(iterations: usize) -> SearchConfig {
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

    #[test]
    fn search_finds_a_faster_satisfying_model() {
        let (mini, paper, weights, mode) = setup();
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(40)).unwrap();
        assert!(res.speedup > 1.05, "speedup = {}", res.speedup);
        assert!(res.best.drop <= 0.02 + 1e-6);
        assert!(res.evaluated > 0);
        assert_eq!(res.trace.len(), 40);
        res.best.mini.validate().unwrap();
        res.best.paper.validate().unwrap();
    }

    #[test]
    fn best_latency_is_monotone_along_trace() {
        let (mini, paper, weights, mode) = setup();
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(30)).unwrap();
        for w in res.trace.windows(2) {
            assert!(w[1].best_latency_ms <= w[0].best_latency_ms + 1e-9);
        }
        // Virtual time is monotone too.
        for w in res.trace.windows(2) {
            assert!(w[1].virtual_hours >= w[0].virtual_hours);
        }
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (mini, paper, weights, mode) = setup();
        let a = run_search(&mini, &paper, &weights, &mode, &quick_cfg(15)).unwrap();
        let b = run_search(&mini, &paper, &weights, &mode, &quick_cfg(15)).unwrap();
        assert_eq!(a.best.latency_ms, b.best.latency_ms);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn rule_filter_skips_candidates() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(50);
        // A strict target makes most candidates fail, feeding the filter.
        cfg.finetune.target_drop = 0.0;
        cfg.rule_filter = true;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        assert!(
            res.rule_filtered > 0,
            "rule filter never fired ({} evaluated)",
            res.evaluated
        );
    }

    #[test]
    fn early_termination_reduces_epochs() {
        let (mini, paper, weights, mode) = setup();
        let mut base_cfg = quick_cfg(30);
        base_cfg.finetune.target_drop = 0.0;
        base_cfg.finetune.max_epochs = 40;
        let plain = run_search(&mini, &paper, &weights, &mode, &base_cfg).unwrap();
        let mut et_cfg = base_cfg.clone();
        et_cfg.finetune.early_termination = true;
        let et = run_search(&mini, &paper, &weights, &mode, &et_cfg).unwrap();
        assert!(
            et.virtual_hours < plain.virtual_hours,
            "P variant not cheaper: {} vs {}",
            et.virtual_hours,
            plain.virtual_hours
        );
        assert!(et.early_terminated > 0);
    }

    #[test]
    fn random_policy_never_uses_elites() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(20);
        cfg.policy = PolicyKind::RandomSampling;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Still functional: finds something or keeps the original.
        assert!(res.speedup >= 1.0);
    }

    #[test]
    fn duplicate_candidates_are_skipped() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(60);
        cfg.max_ops_per_pass = 1;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // With 60 single-op rounds over a modest pair set, repeats occur.
        assert!(res.duplicates > 0);
    }

    #[test]
    fn flops_objective_optimizes_flops() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(30);
        cfg.objective = Objective::Flops;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Best model's FLOPs must not exceed the original's.
        assert!(res.best.paper.flops().unwrap() <= paper.flops().unwrap());
        res.best.mini.validate().unwrap();
    }

    #[test]
    fn single_model_graph_still_searches_in_branch() {
        // With one model there are no cross-branch pairs, but in-branch
        // mutations (panel 1) remain legal.
        let t0 = TaskSpec::classification("solo", 2);
        let mini = parse_specs(&[vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap()]).unwrap();
        let paper =
            parse_specs(&[vgg(VggDepth::Vgg13, VisionScale::paper(), &t0).unwrap()]).unwrap();
        let mut weights = WeightStore::new();
        for (_, n) in mini.iter() {
            weights.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mode = EvalMode::Surrogate(SurrogateContext {
            orig_capacity: CapacityVector::of(&mini).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.9],
        });
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(20)).unwrap();
        assert!(res.speedup >= 1.0);
        res.best.mini.validate().unwrap();
    }

    #[test]
    fn trace_statuses_are_consistent_with_counters() {
        let (mini, paper, weights, mode) = setup();
        for batch_size in [1, 4] {
            let mut cfg = quick_cfg(40);
            cfg.batch_size = batch_size;
            cfg.rule_filter = true;
            cfg.finetune.target_drop = 0.0;
            cfg.finetune.early_termination = true;
            let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
            let count = |st: CandidateStatus| res.trace.iter().filter(|r| r.status == st).count();
            assert_eq!(res.trace.len(), cfg.iterations, "K={batch_size}");
            let iters: Vec<usize> = res.trace.iter().map(|r| r.iter).collect();
            assert_eq!(
                iters,
                (1..=cfg.iterations).collect::<Vec<_>>(),
                "K={batch_size}"
            );
            assert_eq!(
                count(CandidateStatus::RuleFiltered),
                res.rule_filtered,
                "K={batch_size}"
            );
            assert_eq!(
                count(CandidateStatus::Duplicate),
                res.duplicates,
                "K={batch_size}"
            );
            assert_eq!(
                count(CandidateStatus::TerminatedEarly),
                res.early_terminated,
                "K={batch_size}"
            );
            assert_eq!(
                count(CandidateStatus::Evaluated) + res.early_terminated,
                res.evaluated,
                "K={batch_size}"
            );
            assert!(res.rule_filtered > 0, "K={batch_size}: filter never fired");
        }
    }

    #[test]
    fn telemetry_events_reconstruct_search_counts() {
        let (mini, paper, weights, mode) = setup();
        for batch_size in [1, 4] {
            let mut cfg = quick_cfg(40);
            cfg.batch_size = batch_size;
            cfg.rule_filter = true;
            cfg.finetune.target_drop = 0.0;
            cfg.finetune.early_termination = true;

            let guard = gmorph_telemetry::sink::install_test_sink();
            let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
            let events = guard.events();
            drop(guard);

            // Other tests in this binary run concurrently and may emit
            // their own events while the sink is installed; keep only this
            // thread's. (`search.iter` is emitted by the fold, on the
            // thread running the search, for every batch size.)
            let here = gmorph_telemetry::span::thread_id();
            let iters: Vec<_> = events
                .iter()
                .filter(|e| e.thread == here && e.name == "search.iter")
                .collect();
            assert_eq!(iters.len(), cfg.iterations, "K={batch_size}");
            assert_eq!(iters.len(), res.trace.len(), "K={batch_size}");

            let by_status = |s: &str| {
                iters
                    .iter()
                    .filter(|e| e.field("status").and_then(|v| v.as_str()) == Some(s))
                    .count()
            };
            assert_eq!(
                by_status("rule_filtered"),
                res.rule_filtered,
                "K={batch_size}"
            );
            assert_eq!(by_status("duplicate"), res.duplicates, "K={batch_size}");
            assert_eq!(
                by_status("terminated_early"),
                res.early_terminated,
                "K={batch_size}"
            );
            assert_eq!(
                by_status("evaluated") + res.early_terminated,
                res.evaluated,
                "K={batch_size}"
            );

            // Events mirror the trace record-for-record, every field of
            // the shared encoding included.
            for (e, r) in iters.iter().zip(res.trace.iter()) {
                for (name, value) in r.fields() {
                    let got = e
                        .field(&name)
                        .unwrap_or_else(|| panic!("event lacks {name}"));
                    match (got.as_f64(), value.as_f64()) {
                        (Some(a), Some(b)) if a.is_nan() && b.is_nan() => {}
                        (Some(a), Some(b)) => assert_eq!(a, b, "K={batch_size}: {name}"),
                        _ => assert_eq!(got, &value, "K={batch_size}: {name}"),
                    }
                }
            }
            // The final best latency is reconstructible from the stream.
            let last_best = iters
                .last()
                .and_then(|e| e.field("best_latency_ms"))
                .and_then(|v| v.as_f64())
                .unwrap();
            assert_eq!(last_best, res.best.latency_ms, "K={batch_size}");

            // The run meta event carries the clock assumptions and K.
            let meta = events
                .iter()
                .find(|e| e.thread == here && e.name == "search.run_meta")
                .expect("run meta event");
            assert_eq!(
                meta.field("virtual_throughput").and_then(|v| v.as_f64()),
                Some(gmorph_perf::clock::DEFAULT_THROUGHPUT)
            );
            assert_eq!(
                meta.field("batch_size").and_then(|v| v.as_f64()),
                Some(batch_size as f64)
            );
        }
    }

    #[test]
    fn propose_candidate_finds_some_mutation() {
        let (mini, paper, _, _) = setup();
        let mut rng = Rng::new(0);
        let (cand_mini, cand_paper) =
            propose_candidate(&mini, &paper, PairPolicy::SimilarShape, 2, &mut rng)
                .unwrap()
                .expect("a two-VGG graph has legal mutations");
        cand_mini.validate().unwrap();
        cand_paper.validate().unwrap();
        assert_ne!(cand_mini.signature(), mini.signature());
        assert_eq!(cand_mini.len(), cand_paper.len());
    }

    #[test]
    fn zero_batch_size_rejected() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(4);
        cfg.batch_size = 0;
        assert!(run_search(&mini, &paper, &weights, &mode, &cfg).is_err());
    }

    #[test]
    fn custom_throughput_scales_virtual_hours() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(15);
        let base = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        cfg.virtual_throughput = gmorph_perf::clock::DEFAULT_THROUGHPUT * 2.0;
        let fast = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Same seed, same decisions — only the clock rate differs, so the
        // virtual total shrinks (overhead charges are rate-independent,
        // so it is not exactly half).
        assert!(
            fast.virtual_hours < base.virtual_hours,
            "{} !< {}",
            fast.virtual_hours,
            base.virtual_hours
        );
        assert_eq!(fast.evaluated, base.evaluated);
    }

    #[test]
    fn mismatched_scales_rejected() {
        let (mini, _, weights, mode) = setup();
        let t0 = TaskSpec::classification("a", 2);
        let short =
            parse_specs(&[vgg(VggDepth::Vgg11, VisionScale::paper(), &t0).unwrap()]).unwrap();
        assert!(run_search(&mini, &short, &weights, &mode, &quick_cfg(5)).is_err());
    }
}
