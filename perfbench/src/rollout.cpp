// Workload `rollout`: the paper's forward surrogate, one in-process caller
// in a closed loop. Each round runs, on the phi = 30 deg column of Figs 3-4
// (190 particles), the GNS rollout (LearnedSimulator::rollout, 54 steps),
// the pure-MPM reference (run_mpm_reference, 20 substeps per frame) and the
// hybrid loop (run_hybrid, M = 10, K = 5), plus a GNS rollout of a 0.9 x
// 0.36 m column (1334 particles) whose edge working set is far beyond L2.
// A round is the workload's operation; op_p50_ms and op_p90_ms are round
// wall times.
//
// The traced run replays every GNS step through the public calls that make
// it up (build_graph_cached, GraphIndex, the feature builders,
// GnsModel::forward, the integrator ops), checks the replica's frames
// bitwise against rollout(), and times the ad kernels at the real shapes.

#include <cstdio>
#include <optional>

#include "ad/nn.hpp"
#include "ad/ops.hpp"
#include "common.hpp"
#include "core/datagen.hpp"
#include "core/hybrid.hpp"
#include "graph/neighbor_search.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr double kPhi = 30.0;
constexpr int kFig3Frames = 60;  ///< recorded frames incl. the seed window
constexpr double kLargeWidth = 0.9;
constexpr double kLargeAspect = 0.4;
constexpr int kLargeSteps = 8;
constexpr int kMpmRepsPerRound = 3;

/// One seeded input scene: the MPM initial state and the GNS seed window.
struct Input {
  mpm::Scene scene;
  core::Window window;
};

struct Fixture {
  std::optional<core::LearnedSimulator> sim;
  Input fig3;
  Input large;
  core::SceneContext ctx;
  int fig3_steps = 0;
};

Input make_input(const core::LearnedSimulator& sim, double width,
                 double aspect, std::uint64_t seed) {
  Input in{column_scene(width, aspect, kPhi, seed), {}};
  in.window = sim.window_from_trajectory(
      record(in.scene, sim.features().window_size(), kPhi));
  return in;
}

Fixture setup(const Args& args) {
  Fixture fx;
  fx.sim.emplace(load_checkpoint(args));
  fx.fig3 = make_input(*fx.sim, kColumnWidth, kColumnAspect, args.seed);
  fx.large = make_input(*fx.sim, kLargeWidth, kLargeAspect, args.seed);
  fx.ctx = material_context(kPhi);
  fx.fig3_steps = kFig3Frames - fx.sim->features().window_size();
  return fx;
}

core::HybridConfig hybrid_config() {
  core::HybridConfig config;
  config.gns_frames = 10;
  config.refine_frames = 5;
  config.substeps = kSubsteps;
  return config;
}

/// Reference outputs of the first (warm-up) round; later rounds and the
/// traced replica must match them bitwise.
struct Reference {
  Frames gns;
  Frames large;
  Frames mpm;
  Frames hybrid;
};

Reference reference_round(const Fixture& fx, Report& report) {
  Reference ref;
  ref.gns = fx.sim->rollout(fx.fig3.window, fx.fig3_steps, fx.ctx);
  ref.large = fx.sim->rollout(fx.large.window, kLargeSteps, fx.ctx);
  ref.mpm = core::run_mpm_reference(fx.fig3.scene.make_solver(), kFig3Frames,
                                    kSubsteps)
                .frames;
  ref.hybrid = core::run_hybrid(*fx.sim, fx.fig3.scene.make_solver(),
                                hybrid_config(), kFig3Frames,
                                core::material_param_from_friction(kPhi))
                   .frames;
  report.attempt(all_finite(ref.gns) && all_finite(ref.large) &&
                     all_finite(ref.mpm) && all_finite(ref.hybrid),
                 "non-finite rollout output");
  std::uint64_t d = frames_digest(ref.gns);
  d = frames_digest(ref.large, d);
  d = frames_digest(ref.mpm, d);
  d = frames_digest(ref.hybrid, d);
  std::printf("output_digest rollout 0x%016llx\n",
              static_cast<unsigned long long>(d));
  return ref;
}

// ---- untraced run ------------------------------------------------------------

void run_untraced(const Fixture& fx, const Reference& ref, const Args& args,
                  Report& report) {
  std::vector<double> round_ms;
  int good_rounds = 0;
  const auto start = Clock::now();
  do {
    bool ok = true;
    const auto check = [&](bool pass, const char* what) {
      report.attempt(pass, what);
      ok = ok && pass;
    };
    const auto r0 = Clock::now();
    Frames frames = fx.sim->rollout(fx.fig3.window, fx.fig3_steps, fx.ctx);
    check(frames == ref.gns, "Fig-3 rollout differs from round 0");

    frames = fx.sim->rollout(fx.large.window, kLargeSteps, fx.ctx);
    check(frames == ref.large, "large rollout differs from round 0");

    for (int r = 0; r < kMpmRepsPerRound; ++r) {
      const core::MpmReference m = core::run_mpm_reference(
          fx.fig3.scene.make_solver(), kFig3Frames, kSubsteps);
      check(m.frames == ref.mpm, "MPM reference differs");
    }

    const core::HybridResult h = core::run_hybrid(
        *fx.sim, fx.fig3.scene.make_solver(), hybrid_config(), kFig3Frames,
        core::material_param_from_friction(kPhi));
    check(h.frames == ref.hybrid, "hybrid run differs");
    round_ms.push_back(seconds_since(r0) * 1e3);
    if (ok) ++good_rounds;
  } while (seconds_since(start) < args.seconds);
  const double elapsed = seconds_since(start);

  std::printf("rounds %zu\n", round_ms.size());
  report.metric("op_p50_ms", quantile(round_ms, 0.5), "ms");
  report.metric("op_p90_ms", quantile(round_ms, 0.9), "ms");
  report.metric("goodput_per_s", good_rounds / elapsed, "1/s");
}

// ---- traced run --------------------------------------------------------------

/// Per-layer seconds of one replayed rollout.
struct Replica {
  Frames frames;
  double build = 0.0, index = 0.0, features = 0.0, forward = 0.0,
         integrate = 0.0;
  double edges = 0.0;  ///< summed over steps
  double wall = 0.0;   ///< replica wall time including span bookkeeping
  graph::Graph mid_graph;  ///< graph of the middle step, for kernel shapes
  [[nodiscard]] double layer_sum() const {
    return build + index + features + forward + integrate;
  }
};

/// Replays LearnedSimulator::rollout step by step through public calls, in
/// the same order and under the same guards, timing each layer.
Replica replay(const core::LearnedSimulator& sim, const core::Window& initial,
               int steps, const core::SceneContext& ctx, SpanLog& spans,
               const char* scene) {
  ad::NoGradGuard no_grad;
  const core::FeatureConfig& fc = sim.features();
  Replica r;
  r.frames.reserve(static_cast<std::size_t>(steps));
  const auto start = Clock::now();
  const int root = spans.add(std::string(scene) + ".replica", start, start);
  graph::CellList cells = core::make_rollout_cells(
      fc, graph::default_skin_fraction() * fc.connectivity_radius);
  core::Window window;
  for (const auto& t : initial) window.push_back(t.detach());
  for (int s = 0; s < steps; ++s) {
    ad::ArenaScope arena_frame;
    const auto t0 = Clock::now();
    graph::Graph g = core::build_graph_cached(fc, window.back(), cells);
    const auto t1 = Clock::now();
    const core::GraphIndex index(g);
    const auto t2 = Clock::now();
    const ad::Tensor node =
        core::build_node_features(fc, sim.normalizer(), window, ctx);
    const ad::Tensor edge =
        core::build_edge_features(fc, window.back(), g, index);
    const auto t3 = Clock::now();
    const core::GnsOutput out = sim.model().forward(node, edge, g, index);
    const auto t4 = Clock::now();
    const ad::Tensor accel =
        sim.normalizer().denormalize_acceleration(out.acceleration);
    const ad::Tensor& xt = window.back();
    const ad::Tensor& xprev = window[window.size() - 2];
    ad::Tensor next = ad::add(xt, ad::add(ad::sub(xt, xprev), accel));
    const auto t5 = Clock::now();
    r.frames.push_back(core::tensor_to_frame(next));
    window.erase(window.begin());
    window.push_back(next);
    const auto t6 = Clock::now();

    r.build += seconds_between(t0, t1);
    r.index += seconds_between(t1, t2);
    r.features += seconds_between(t2, t3);
    r.forward += seconds_between(t3, t4);
    r.integrate += seconds_between(t4, t5);
    r.edges += g.num_edges();
    const int step = spans.add(std::string(scene) + ".step", t0, t6, root);
    spans.add("graph.build", t0, t1, step);
    spans.add("core.index", t1, t2, step);
    spans.add("core.features", t2, t3, step);
    spans.add("core.forward", t3, t4, step);
    spans.add("core.integrate", t4, t5, step);
    if (s == steps / 2) r.mid_graph = std::move(g);
  }
  const auto end = Clock::now();
  spans.finish(root, end);
  r.wall = seconds_between(start, end);
  return r;
}

/// Median seconds per call of `fn` over at least `min_reps` calls and
/// `min_seconds` of calls.
template <typename Fn>
double time_call(Fn&& fn, int min_reps = 20, double min_seconds = 0.25) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         seconds_since(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

/// ad kernels at one scene's real shapes: the processor's edge MLP
/// [E, 3L] -> L, and the gather/scatter over the step's IndexMaps.
void report_kernels(const core::LearnedSimulator& sim, const graph::Graph& g,
                    const std::string& suffix, Report& report) {
  ad::NoGradGuard no_grad;
  const core::GnsConfig& cfg = sim.model().config();
  const int e = g.num_edges();
  const int n = g.num_nodes;
  Rng rng(7);
  const ad::Mlp edge_mlp(3 * cfg.latent, cfg.mlp_hidden, cfg.mlp_layers,
                         cfg.latent, rng, /*output_layer_norm=*/true);
  const auto random = [&rng](int rows, int cols) {
    std::vector<double> v(static_cast<std::size_t>(rows) * cols);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    return ad::Tensor::from_vector(rows, cols, std::move(v));
  };
  const ad::Tensor edge_in = random(e, 3 * cfg.latent);
  const ad::Tensor nodes = random(n, cfg.latent);
  const ad::Tensor edges = random(e, cfg.latent);
  const core::GraphIndex index(g);

  const double mlp_s = time_call([&] { (void)edge_mlp.forward(edge_in); });
  // Matmul FLOPs computed from the shapes: 2 * E * sum(in * out) per layer.
  double flops = 0.0;
  int in = 3 * cfg.latent;
  for (int l = 0; l < cfg.mlp_layers; ++l) {
    flops += 2.0 * e * in * cfg.mlp_hidden;
    in = cfg.mlp_hidden;
  }
  flops += 2.0 * e * in * cfg.latent;
  report.metric("ad.edge_mlp_ms" + suffix, mlp_s * 1e3, "ms");
  report.metric("ad.edge_mlp_gflops" + suffix, flops / mlp_s * 1e-9,
                "GFLOP/s");
  report.metric("ad.gather_ms" + suffix,
                time_call([&] {
                  (void)ad::gather_rows(nodes, index.senders);
                }) * 1e3,
                "ms");
  report.metric("ad.scatter_ms" + suffix,
                time_call([&] {
                  (void)ad::scatter_add_rows(edges, index.receivers);
                }) * 1e3,
                "ms");
}

/// Per-step layer metrics of one scene from its replicas.
struct LayerSamples {
  std::vector<double> build, index, features, forward, integrate, edges,
      ratio, overhead, rollout_step;
  void add(const Replica& r, int steps, double rollout_s) {
    const double ms = 1e3 / steps;
    build.push_back(r.build * ms);
    index.push_back(r.index * ms);
    features.push_back(r.features * ms);
    forward.push_back(r.forward * ms);
    integrate.push_back(r.integrate * ms);
    edges.push_back(r.edges / steps);
    ratio.push_back(r.layer_sum() / rollout_s);
    overhead.push_back(r.wall / rollout_s - 1.0);
    rollout_step.push_back(rollout_s * ms);
  }
  void report_to(Report& report, const std::string& suffix) const {
    report.metric("graph.build_ms" + suffix, median(build), "ms");
    report.metric("graph.edges" + suffix, median(edges), "count");
    report.metric("core.index_ms" + suffix, median(index), "ms");
    report.metric("core.features_ms" + suffix, median(features), "ms");
    report.metric("core.forward_ms" + suffix, median(forward), "ms");
    report.metric("core.integrate_ms" + suffix, median(integrate), "ms");
    report.metric("core.replica_ratio" + suffix, median(ratio), "ratio");
    report.metric("core.rollout_step_ms" + suffix, median(rollout_step), "ms");
  }
};

void run_traced(const Fixture& fx, const Reference& ref, const Args& args,
                Report& report) {
  SpanLog spans;
  LayerSamples fig3, large;
  std::vector<double> mpm_step_us, mpm_share, hybrid_frame_ms;
  graph::Graph fig3_graph, large_graph;
  const core::LearnedSimulator& sim = *fx.sim;

  // Times rollout(), then replays it; the replica must equal rollout()
  // bitwise.
  const auto measure = [&](const Input& in, int steps, const Frames& expected,
                        const char* scene, LayerSamples& out,
                        graph::Graph& graph_out) {
    const auto t0 = Clock::now();
    const Frames frames = sim.rollout(in.window, steps, fx.ctx);
    const auto t1 = Clock::now();
    spans.add(std::string(scene) + ".rollout", t0, t1);
    report.attempt(frames == expected,
                   std::string(scene) + " rollout differs from round 0");
    Replica r = replay(sim, in.window, steps, fx.ctx, spans, scene);
    report.attempt(r.frames == frames,
                   std::string(scene) + " replica differs from rollout()");
    out.add(r, steps, seconds_between(t0, t1));
    graph_out = std::move(r.mid_graph);
  };

  const ExecSample exec0 = exec_sample();
  const auto start = Clock::now();
  do {
    measure(fx.fig3, fx.fig3_steps, ref.gns, "fig3", fig3, fig3_graph);
    measure(fx.large, kLargeSteps, ref.large, "large", large, large_graph);

    mpm::MpmSolver solver = fx.fig3.scene.make_solver();
    const int mpm_steps = (kFig3Frames - 1) * kSubsteps;
    const auto m0 = Clock::now();
    for (int s = 0; s < mpm_steps; ++s) solver.step();
    const auto m1 = Clock::now();
    spans.add("mpm.steps", m0, m1);
    mpm_step_us.push_back(seconds_between(m0, m1) * 1e6 / mpm_steps);

    const auto h0 = Clock::now();
    const core::HybridResult h = core::run_hybrid(
        sim, fx.fig3.scene.make_solver(), hybrid_config(), kFig3Frames,
        core::material_param_from_friction(kPhi));
    const auto h1 = Clock::now();
    spans.add("core.hybrid", h0, h1);
    hybrid_frame_ms.push_back(seconds_between(h0, h1) * 1e3 /
                              (kFig3Frames - 1));
    report.attempt(h.frames == ref.hybrid, "hybrid run differs");
    mpm_share.push_back(h.mpm_seconds / (h.mpm_seconds + h.gns_seconds));
  } while (seconds_since(start) < args.seconds);
  const ExecSample exec1 = exec_sample();

  std::printf("rounds %zu\n", fig3.ratio.size());
  fig3.report_to(report, "");
  large.report_to(report, ".large");
  report_kernels(sim, fig3_graph, "", report);
  report_kernels(sim, large_graph, ".large", report);
  report.metric("mpm.step_us", median(mpm_step_us), "us");
  report.metric("core.hybrid.mpm_share", median(mpm_share), "fraction");
  report.metric("core.hybrid.frame_ms", median(hybrid_frame_ms), "ms");
  report_exec(report, exec0, exec1);
  report.metric("bench.trace_overhead_frac", median(fig3.overhead),
                "fraction");
  spans.write(trace_path(args));
}

}  // namespace

void run_rollout(const Args& args, Report& report) {
  // Set-up is repeated and its median reported; the last fixture is used.
  std::vector<double> setup_s;
  Fixture fx;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    fx = setup(args);
    setup_s.push_back(seconds_since(t0));
  }
  const Reference ref = reference_round(fx, report);
  if (args.trace) {
    run_traced(fx, ref, args, report);
  } else {
    run_untraced(fx, ref, args, report);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
