#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "ad/arena.hpp"
#include "ad/ops.hpp"
#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "exec/executor.hpp"
#include "graph/neighbor_search.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

using namespace gns;

namespace {

/// FNV-1a 64 of perfbench/model/columns_v1.bin: the Fig-3 "columns" model
/// (friction sweep 20-45 deg, 2500 steps, latent 32, 3 message rounds).
constexpr std::uint64_t kCheckpointDigest = 0x0502fe86b9720231ULL;
constexpr const char* kCheckpointFile = "perfbench/model/columns_v1.bin";

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint missing: " + path);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return hash_bytes(bytes.data(), bytes.size());
}

}  // namespace

// ---- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    invalidate("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (logged_++ < 10) std::printf("FAILED: %s\n", what.c_str());
}

void Report::invalidate(const std::string& why) {
  correct_ = false;
  std::printf("INVALID: %s\n", why.c_str());
}

void Report::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// ---- spans -----------------------------------------------------------------

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t trace_id,
                 std::string args) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({std::move(name), us(start), us(end), parent, trace_id,
                    std::move(args)});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::finish(int id, Clock::time_point end) {
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(end - origin_).count();
}

void SpanLog::write(const std::string& path) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_us - s.start_us;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"self_us\": %.3f, "
                 "\"trace_id\": \"%s\"%s%s}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.start_us, dur, i,
                 s.parent, dur - child_us[i], hex(s.trace_id).c_str(),
                 s.args.empty() ? "" : ", ", s.args.c_str());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("trace: %zu spans -> %s\n", spans_.size(), path.c_str());
}

std::string trace_path(const Args& args) {
  return args.root + "/.bench_build/traces/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

// ---- model, scenes, outputs -----------------------------------------------

std::string verified_checkpoint(const Args& args) {
  const std::string path = args.root + "/" + kCheckpointFile;
  const std::uint64_t digest = file_digest(path);
  if (digest != kCheckpointDigest)
    throw std::runtime_error("checkpoint digest " + hex(digest) +
                             " != expected " + hex(kCheckpointDigest) +
                             " for " + path);
  return path;
}

core::LearnedSimulator load_checkpoint(const Args& args) {
  const std::string path = verified_checkpoint(args);
  auto sim = core::load_simulator(path);
  if (!sim) throw std::runtime_error("checkpoint does not load: " + path);
  return std::move(*sim);
}

mpm::GranularSceneParams fig3_scene(double phi_deg) {
  mpm::GranularSceneParams params;
  params.cells_x = 32;
  params.cells_y = 16;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  params.material.friction_deg = phi_deg;
  return params;
}

mpm::Scene column_scene(double width, double aspect, double phi_deg,
                        std::uint64_t seed) {
  const mpm::GranularSceneParams params = fig3_scene(phi_deg);
  mpm::Scene scene = mpm::make_column_collapse(params, width, aspect);
  const double spacing = params.domain_width / params.cells_x /
                         params.particles_per_cell_dim;
  const double amplitude = 0.01 * spacing;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (auto& x : scene.particles.position) {
    x.x += rng.uniform(-amplitude, amplitude);
    x.y += rng.uniform(-amplitude, amplitude);
  }
  return scene;
}

io::Trajectory record(const mpm::Scene& scene, int frames, double phi_deg) {
  mpm::MpmSolver solver = scene.make_solver();
  return core::record_mpm_trajectory(
      solver, frames, kSubsteps, core::material_param_from_friction(phi_deg));
}

core::SceneContext material_context(double phi_deg) {
  core::SceneContext ctx;
  ctx.material =
      ad::Tensor::scalar(core::material_param_from_friction(phi_deg));
  return ctx;
}

bool all_finite(const Frames& frames) {
  for (const auto& f : frames)
    for (double x : f)
      if (!std::isfinite(x)) return false;
  return true;
}

std::uint64_t frames_digest(const Frames& frames, std::uint64_t seed) {
  Fnv1a h;
  h.update_u64(seed);
  for (const auto& f : frames) h.update_doubles(f);
  return h.digest();
}

// ---- fingerprint and executor accounting ------------------------------------

void print_fingerprint(const Args& args) {
  std::printf(
      "fingerprint: {\"cpu\": \"%s\", \"nproc\": %u, \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"exec_workers\": %d, \"toggles\": {\"exec\": %d, \"simd\": %d, "
      "\"fused\": %d, \"arena\": %d, \"skin_fraction\": %g}, "
      "\"checkpoint\": \"%s\"}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      simd::active() ? "avx2" : "scalar", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, args.commit.c_str(),
      exec::Executor::global().workers(), exec::enabled() ? 1 : 0,
      simd::enabled() ? 1 : 0, ad::fused_linear_enabled() ? 1 : 0,
      ad::arena_enabled() ? 1 : 0, graph::default_skin_fraction(),
      hex(kCheckpointDigest).c_str());
}

ExecSample exec_sample() {
  const exec::ExecutorStats s = exec::Executor::global().stats();
  return {Clock::now(), s.executed, s.stolen, s.busy_seconds};
}

void report_exec(Report& report, const ExecSample& a, const ExecSample& b) {
  const double wall = seconds_between(a.at, b.at);
  const int workers = exec::Executor::global().workers();
  const double executed = static_cast<double>(b.executed - a.executed);
  report.metric("exec.busy_frac",
                (b.busy_seconds - a.busy_seconds) / (wall * workers),
                "fraction");
  report.metric("exec.steal_frac",
                executed > 0.0 ? static_cast<double>(b.stolen - a.stolen) /
                                     executed
                               : 0.0,
                "fraction");
}

}  // namespace perfbench
