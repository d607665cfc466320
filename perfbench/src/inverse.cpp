// Workload `inverse`: the paper's section-5 problem, the only workload in
// which the autograd tape and backward pass run. Episodes of kGradSteps
// gradient-descent steps start at phi = 45 deg and move toward the runout
// of phi = 30 deg at k = 30; each step is LearnedSimulator::rollout_diff,
// smooth_runout and the squared-error loss, then Tensor::backward. Every
// episode repeats the same phi sequence, so gradients must match the first
// episode bitwise.
//
// A gradient step is the workload's operation. The traced run splits each
// step into forward, loss and backward and counts minor page faults around
// forward and backward.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "ad/ops.hpp"
#include "common.hpp"
#include "core/datagen.hpp"
#include "core/inverse.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr double kTargetPhi = 30.0;
constexpr double kStartPhi = 45.0;
constexpr int kRolloutSteps = 30;  ///< k
constexpr int kGradSteps = 2;      ///< gradient steps per episode
constexpr double kLearningRate = 80.0;
constexpr double kSmoothTemp = 0.01;

struct Fixture {
  std::optional<core::LearnedSimulator> sim;
  core::Window window;
  double target_runout = 0.0;
};

Fixture setup(const Args& args) {
  Fixture fx;
  fx.sim.emplace(load_checkpoint(args));
  const mpm::Scene scene =
      column_scene(kColumnWidth, kColumnAspect, kTargetPhi, args.seed);
  fx.window = fx.sim->window_from_trajectory(
      record(scene, fx.sim->features().window_size(), kTargetPhi));
  // Self-consistent target, as in Fig 5: the surrogate's own runout at the
  // true angle after k steps.
  const Frames target =
      fx.sim->rollout(fx.window, kRolloutSteps, material_context(kTargetPhi));
  fx.target_runout =
      core::smooth_runout_value(target.back(), 2, kSmoothTemp);
  return fx;
}

/// One gradient step's outputs and its phase split.
struct Step {
  Clock::time_point started;
  double loss = 0.0;
  double gradient = 0.0;
  double forward_s = 0.0, loss_s = 0.0, backward_s = 0.0, total_s = 0.0;
  long forward_minflt = 0, backward_minflt = 0;
  bool ok = false;  ///< finite and bitwise equal to episode 0
};

/// One gradient step. With `split` the forward, loss and backward phases
/// are timed and their minor faults counted; without it only the whole step
/// is timed. The tape is freed inside the timed region.
Step grad_step(const Fixture& fx, double material, bool split) {
  Step st;
  const auto t0 = Clock::now();
  st.started = t0;
  {
    const long f0 = split ? minor_faults() : 0;
    ad::Tensor theta = ad::Tensor::scalar(material, /*requires_grad=*/true);
    core::SceneContext ctx;
    ctx.material = theta;
    core::Window seed;
    for (const auto& t : fx.window) seed.push_back(t.detach());
    const std::vector<ad::Tensor> frames =
        fx.sim->rollout_diff(seed, kRolloutSteps, ctx);
    Clock::time_point t1, t2;
    long f1 = 0;
    if (split) {
      t1 = Clock::now();
      f1 = minor_faults();
    }
    const ad::Tensor runout =
        core::smooth_runout(frames.back(), kSmoothTemp);
    const ad::Tensor loss =
        ad::square(ad::add_scalar(runout, -fx.target_runout));
    if (split) t2 = Clock::now();
    const long f2 = split ? minor_faults() : 0;
    loss.backward();
    if (split) {
      const auto t3 = Clock::now();
      st.backward_minflt = minor_faults() - f2;
      st.forward_minflt = f1 - f0;
      st.forward_s = seconds_between(t0, t1);
      st.loss_s = seconds_between(t1, t2);
      st.backward_s = seconds_between(t2, t3);
    }
    st.loss = loss.item();
    st.gradient = theta.grad().empty() ? 0.0 : theta.grad()[0];
  }
  st.total_s = seconds_since(t0);
  return st;
}

/// Runs episodes until `seconds` pass (at least one step), checking every
/// gradient bitwise against the first episode's.
std::vector<Step> run_steps(const Fixture& fx, double seconds, bool split,
                            std::vector<double>& expected, Report& report) {
  const double min_mat = std::tan(5.0 * M_PI / 180.0);
  const double max_mat = std::tan(60.0 * M_PI / 180.0);
  std::vector<Step> steps;
  const auto start = Clock::now();
  double material = core::material_param_from_friction(kStartPhi);
  for (int i = 0;; ++i) {
    const int k = i % kGradSteps;
    if (k == 0) material = core::material_param_from_friction(kStartPhi);
    Step st = grad_step(fx, material, split);
    const bool finite = std::isfinite(st.loss) && std::isfinite(st.gradient);
    if (static_cast<int>(expected.size()) <= k) {
      expected.push_back(st.gradient);
      st.ok = finite;
      report.attempt(st.ok, "non-finite loss or gradient");
    } else {
      st.ok = finite && st.gradient == expected[k];
      report.attempt(st.ok, "gradient differs from episode 0 at step " +
                                std::to_string(k));
    }
    material = std::clamp(material - kLearningRate * st.gradient, min_mat,
                          max_mat);
    steps.push_back(st);
    if (seconds_since(start) >= seconds) break;
  }
  return steps;
}

template <typename Field>
std::vector<double> collect(const std::vector<Step>& steps, Field field) {
  std::vector<double> out;
  for (const Step& s : steps) out.push_back(static_cast<double>(s.*field));
  return out;
}

}  // namespace

void run_inverse(const Args& args, Report& report) {
  std::vector<double> setup_s;
  Fixture fx;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    fx = setup(args);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("target runout %.6f m\n", fx.target_runout);

  std::vector<double> expected;
  if (!args.trace) {
    const auto start = Clock::now();
    const std::vector<Step> steps =
        run_steps(fx, args.seconds, false, expected, report);
    const double elapsed = seconds_since(start);
    std::printf("grad steps %zu\n", steps.size());
    const std::vector<double> step_s = collect(steps, &Step::total_s);
    report.metric("op_p50_ms", quantile(step_s, 0.5) * 1e3, "ms");
    report.metric("op_p90_ms", quantile(step_s, 0.9) * 1e3, "ms");
    report.metric("goodput_per_s",
                  std::count_if(steps.begin(), steps.end(),
                                [](const Step& s) { return s.ok; }) /
                      elapsed,
                  "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // First half plain, second half split into phases: the ratio of the two
    // medians is the cost of tracing.
    const std::vector<Step> plain =
        run_steps(fx, args.seconds / 2, false, expected, report);
    SpanLog spans;
    const ExecSample exec0 = exec_sample();
    const std::vector<Step> traced =
        run_steps(fx, args.seconds / 2, true, expected, report);
    const ExecSample exec1 = exec_sample();
    // Spans are laid out from each step's measured phases after the steps
    // ran, so recording them adds nothing to the timed steps.
    const auto d = [](double sec) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(sec));
    };
    for (const Step& s : traced) {
      const auto at = s.started;
      const int step = spans.add("inverse.grad_step", at, at + d(s.total_s));
      spans.add("core.rollout_diff", at, at + d(s.forward_s), step);
      spans.add("core.loss", at + d(s.forward_s),
                at + d(s.forward_s + s.loss_s), step);
      spans.add("ad.backward", at + d(s.forward_s + s.loss_s),
                at + d(s.forward_s + s.loss_s + s.backward_s), step);
    }
    std::printf("grad steps %zu plain, %zu traced\n", plain.size(),
                traced.size());
    report.metric("core.rollout_diff_s",
                  median(collect(traced, &Step::forward_s)), "s");
    report.metric("core.loss_ms", median(collect(traced, &Step::loss_s)) * 1e3,
                  "ms");
    report.metric("ad.backward_s", median(collect(traced, &Step::backward_s)),
                  "s");
    report.metric("ad.forward_minflt",
                  median(collect(traced, &Step::forward_minflt)), "count");
    report.metric("ad.backward_minflt",
                  median(collect(traced, &Step::backward_minflt)), "count");
    report_exec(report, exec0, exec1);
    report.metric("bench.trace_overhead_frac",
                  median(collect(traced, &Step::total_s)) /
                          median(collect(plain, &Step::total_s)) -
                      1.0,
                  "fraction");
    spans.write(trace_path(args));
  }
  std::printf("output_digest inverse 0x%016llx\n",
              static_cast<unsigned long long>(frames_digest({expected})));
}

}  // namespace perfbench
