//! §7 extension: batched parallel search vs the sequential driver.
//!
//! The paper's discussion proposes "sampling multiple models in parallel
//! or adopting parallel simulated annealing algorithms" to cut search
//! time. The search driver implements synchronous parallel SA as its batch
//! size K ([`OptimizationConfig::batch_size`]); this experiment compares
//! K = 2, 4, 8 against the sequential driver (K = 1) at equal candidate
//! budgets: search quality should match (staler elite feedback costs
//! little) while wall-clock time scales with available cores (on a
//! single-core machine both take similar wall time — the virtual-clock
//! column shows the cost that parallel hardware would divide).

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::prelude::*;

/// Runs the batched-search comparison on B1.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;
    let cfg = paper_config(BenchId::B1, opts, 0.01);

    let mut rows = Vec::new();
    for batch_size in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let r = session.optimize(&OptimizationConfig {
            batch_size,
            ..cfg.clone()
        })?;
        rows.push(vec![
            match batch_size {
                1 => "sequential".to_string(),
                k => format!("batched x{k}"),
            },
            format!("{:.2}x", r.speedup),
            f(r.best.latency_ms, 2),
            f(r.virtual_hours, 1),
            f(t0.elapsed().as_secs_f64(), 2),
        ]);
    }
    reporter.print_table(
        "§7 extension: sequential vs batched parallel search (B1, 1% budget)",
        &["driver", "speedup", "best (ms)", "virtual h", "wall (s)"],
        &rows,
    );
    reporter.write_csv(
        "batched.csv",
        &["driver", "speedup", "best_ms", "virtual_h", "wall_s"],
        &rows,
    );
    Ok(())
}
