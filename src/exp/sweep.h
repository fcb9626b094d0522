#ifndef CORRTRACK_EXP_SWEEP_H_
#define CORRTRACK_EXP_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/driver.h"
#include "exp/report.h"

namespace corrtrack::exp {

/// The §8.2 base configuration: P=10, k=10, thr=0.5, tps=1300, sn=3,
/// z=1000, 5-minute windows and reporting, paper-calibrated generator.
/// `num_documents` scales the run (see ExperimentConfig's scale note);
/// honour the CORRTRACK_DOCS environment variable when set.
ExperimentConfig PaperBaseConfig();

/// One column of a Figure 3–6 plot: a label ("k=10") and a config mutation.
struct SweepPoint {
  std::string column_label;
  std::function<void(ExperimentConfig*)> apply;
};

/// The paper's four sweeps (Figures 3–6 share them):
///  (a) thr ∈ {0.2, 0.5}; (b) P ∈ {3, 5, 10}; (c) k ∈ {5, 10, 20};
///  (d) tps ∈ {1300, 2600}.
std::vector<SweepPoint> ThresholdSweep();
std::vector<SweepPoint> PartitionerSweep();
std::vector<SweepPoint> PartitionSweep();
std::vector<SweepPoint> RateSweep();

/// results[algorithm][point], algorithms in paper order (DS, SCI, SCC,
/// SCL). Runs every combination sequentially and deterministically.
using SweepResults = std::vector<std::vector<ExperimentResult>>;
SweepResults RunSweep(const std::vector<SweepPoint>& points,
                      const ExperimentConfig& base);

/// Builds a paper-style figure table from sweep results, extracting one
/// metric per run.
FigureTable MakeFigureTable(
    const std::string& title, const std::string& fixed_params,
    const std::vector<SweepPoint>& points, const SweepResults& results,
    const std::function<double(const ExperimentResult&)>& metric,
    int precision = 3);

}  // namespace corrtrack::exp

#endif  // CORRTRACK_EXP_SWEEP_H_
