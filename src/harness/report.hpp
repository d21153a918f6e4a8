// Sweep driving and figure-style reporting for the bench binaries.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace netclone::harness {

struct SweepPoint {
  double load_fraction = 0.0;
  ExperimentResult result;
};

/// Standard load points used by the paper's latency-throughput curves.
[[nodiscard]] std::vector<double> default_load_points();

/// Runs `base` at each load fraction of `capacity_rps` and returns the
/// points. Each point gets a derived seed so runs are independent but the
/// whole sweep is reproducible.
[[nodiscard]] std::vector<SweepPoint> run_sweep(
    const ClusterConfig& base, double capacity_rps,
    const std::vector<double>& load_fractions);

/// Prints the header + one row per point in the format every bench emits:
///   scheme, offered load fraction, achieved KRPS, p50/p99/p99.9 (us), ...
void print_series(const std::string& title,
                  const std::vector<SweepPoint>& points);

/// Accumulates named pass/fail conditions ("C-Clone saturates at about
/// half of baseline throughput") and prints a SHAPE-CHECK verdict block;
/// returns true when everything held.
class ShapeCheck {
 public:
  void expect(bool condition, const std::string& label);
  /// Prints all outcomes; returns overall success.
  bool report() const;

 private:
  struct Entry {
    bool ok;
    std::string label;
  };
  std::vector<Entry> entries_;
};

/// Global duration multiplier for bench runs, from NETCLONE_BENCH_SCALE
/// (default 1.0). Values < 1 shorten runs for smoke testing; > 1 tightens
/// tails for paper-quality curves.
[[nodiscard]] double bench_scale();

/// Scales a duration by bench_scale().
[[nodiscard]] SimTime scaled(SimTime t);

/// Writes one sweep as CSV (header + one row per point) for external
/// plotting. Returns false (and logs) when the file cannot be opened.
bool write_csv(const std::string& path,
               const std::vector<SweepPoint>& points);

/// Peak 99th-percentile improvement of `b` over `a` at matching loads
/// (max over points of p99_a / p99_b).
[[nodiscard]] double best_p99_improvement(
    const std::vector<SweepPoint>& a, const std::vector<SweepPoint>& b);

/// Highest achieved throughput across a sweep.
[[nodiscard]] double peak_throughput(const std::vector<SweepPoint>& points);

}  // namespace netclone::harness
