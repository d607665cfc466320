#pragma once

/// \file common.hpp
/// Shared pieces of the repository benchmark: command-line arguments, the
/// result report (the JSON line the benchmark prints last), statistics,
/// benchmark-side spans, the fixed model checkpoint, the seeded scenes and
/// the run fingerprint.
///
/// Every timing is taken in the benchmark's own code, around calls into the
/// repository's public functions; nothing inside src/ is instrumented for
/// it and src/obs tracing stays off.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "io/trajectory.hpp"
#include "mpm/scenes.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Frames = std::vector<std::vector<double>>;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";         ///< checkout root (holds perfbench/)
  std::string commit = "unknown"; ///< commit or source-tree digest
};

/// The run's outcome. Operations are counted as attempted and failed; a
/// failed correctness check is a failed operation. print_json() writes the
/// one-line result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; `ok` false counts it failed and logs `what`.
  void attempt(bool ok, const std::string& what = "");
  /// Marks the whole run incorrect (a measurement that cannot be trusted)
  /// without counting an operation.
  void invalidate(const std::string& why);
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  void print_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  int logged_ = 0;
};

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// Minor page faults of this process so far (getrusage ru_minflt).
[[nodiscard]] long minor_faults();

// ---- spans -----------------------------------------------------------------

/// Benchmark-side spans, kept in memory and written as Chrome trace JSON
/// when the run ends. Self time is a span's duration minus the durations of
/// its direct children.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now())
      : origin_(origin) {}
  /// Records a span; returns its id for use as a parent. A parent whose
  /// end is not known yet is added with end == start and closed by finish().
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t trace_id = 0, std::string args = "");
  void finish(int id, Clock::time_point end);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    std::uint64_t trace_id;
    std::string args;  ///< extra JSON members, without braces
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Path of the run's trace file under the build directory.
[[nodiscard]] std::string trace_path(const Args& args);

// ---- model, scenes, outputs -----------------------------------------------

/// Path of the fixed checkpoint under perfbench/model after verifying its
/// FNV-1a digest; throws on a missing or altered file.
[[nodiscard]] std::string verified_checkpoint(const Args& args);
/// Loads the verified checkpoint.
[[nodiscard]] gns::core::LearnedSimulator load_checkpoint(const Args& args);

/// The Fig-3 granular box (32 x 16 cells over 1.0 x 0.5 m, 4 particles per
/// cell) with friction angle `phi_deg`.
[[nodiscard]] gns::mpm::GranularSceneParams fig3_scene(double phi_deg);

/// A column collapse in the Fig-3 box whose particles are displaced by a
/// seeded uniform jitter of 1% of the particle spacing, so each seed gives
/// a slightly different input of the same size.
[[nodiscard]] gns::mpm::Scene column_scene(double width, double aspect,
                                           double phi_deg,
                                           std::uint64_t seed);

/// Records `frames` frames of `scene` at the GNS frame interval.
[[nodiscard]] gns::io::Trajectory record(const gns::mpm::Scene& scene,
                                         int frames, double phi_deg);

[[nodiscard]] gns::core::SceneContext material_context(double phi_deg);

[[nodiscard]] bool all_finite(const Frames& frames);
/// FNV-1a over the IEEE bits of every frame; chains through `seed`.
[[nodiscard]] std::uint64_t frames_digest(const Frames& frames,
                                          std::uint64_t seed = 0);

// ---- fingerprint and executor accounting ------------------------------------

/// Prints the run fingerprint: CPU, nproc, SIMD ISA, compiler, build type,
/// commit, executor workers, every toggle's state, checkpoint digest.
void print_fingerprint(const Args& args);

/// Executor counters at one instant; deltas give busy and steal shares.
struct ExecSample {
  Clock::time_point at;
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  double busy_seconds = 0.0;
};
[[nodiscard]] ExecSample exec_sample();
/// Adds exec.busy_frac and exec.steal_frac for the interval [a, b].
void report_exec(Report& report, const ExecSample& a, const ExecSample& b);

constexpr int kSubsteps = 20;        ///< MPM steps per GNS frame
constexpr int kSetupReps = 9;        ///< set-ups per run; the median is reported
constexpr double kColumnWidth = 0.15;
constexpr double kColumnAspect = 2.0;

void run_rollout(const Args& args, Report& report);
void run_inverse(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
