// Workload `serve`: the only workload through net, serve, store and the
// executor's scheduling. A loopback net::Server over a JobScheduler
// configured as `serve_rollouts --listen` ships it (4 workers, queue 256,
// max_batch 1) with a RolloutCache in a fresh directory whose byte budget is
// half the distinct working set, so the cache evicts.
//
// Load is open-loop: requests are due at seeded Poisson arrival times (the
// count is fixed at rate x seconds, arrival times uniform given the count)
// and are sent from at most nproc net::Client connections. Each request is
// a Fig-3 column window of 95 or 190 particles and 4 or 8 steps; a fixed
// share repeat an earlier request or a prefix of one, so cache hits and
// single-flight joins interleave with misses that compute and insert.
// A request is the workload's operation; its latency is timed from its due
// time. Every reply is checked bitwise against an in-process rollout() of
// the same request. peak_rss_mb is read when the load ends, before those
// reference rollouts, so it is the serving stack's peak, not the checker's.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "core/datagen.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr double kPhi = 30.0;
constexpr int kTrajectoryFrames = 54;  ///< holds windows starting up to 48
constexpr int kFullParticles = 190;
constexpr int kPrefixSteps = 4;         ///< steps of a prefix repeat
/// Offered requests per second. High enough to keep the executor's workers
/// from parking between requests: a request that has to wake them is about
/// twice as slow, and by an amount that swings with the host.
constexpr double kRate = 10.0;
constexpr double kRepeatShare = 0.3;    ///< requests repeating an earlier one

/// Sizes of novel requests, cycled in this order: per 20, 5 small (95
/// particles, 4 steps), 10 medium (95 x 8) and 5 large (190 x 8). With
/// about a quarter of all replies cache hits, the p50 falls inside the
/// medium class and the p90 inside the large one, so neither sits on a class
/// boundary where a few requests more or less would move it by a whole
/// class.
struct Size {
  int particles;
  int steps;
};
constexpr Size kSmall{95, 4}, kMedium{95, 8}, kLarge{190, 8};
constexpr Size kSizeCycle[] = {
    kMedium, kSmall, kMedium, kLarge, kMedium, kSmall,  kMedium,
    kLarge,  kMedium, kSmall, kMedium, kLarge, kMedium, kSmall,
    kMedium, kLarge, kMedium, kSmall, kMedium, kLarge};
/// Seed windows start at frame (offset + 19 k) mod kStarts for the k-th
/// novel request: every start once per kStarts requests, so the rollout
/// cost, which depends on how far the column has collapsed, is the same mix
/// in every run.
constexpr int kStarts = 49;
constexpr double kLatencyLimitMs = 1000.0;  ///< goodput latency limit
constexpr double kGenLagLimitMs = 20.0;     ///< p90 lateness that voids a run
const char* const kModel = "columns";

/// Distinct request content: a seed window and a material.
struct Base {
  int start = 0;
  int particles = 0;
  double material = 0.0;
  int max_steps = 0;  ///< longest rollout any request asks of this content
};

struct Planned {
  double due_s = 0.0;  ///< offset from the start of the load
  int base = 0;
  int steps = 0;
};

struct Plan {
  std::vector<Base> bases;
  std::vector<Planned> requests;
};

/// Seeded open-loop schedule over `seconds`.
Plan make_plan(std::uint64_t seed, double seconds) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  const int n = std::max(8, static_cast<int>(std::lround(kRate * seconds)));
  const int repeats = static_cast<int>(std::lround(kRepeatShare * n));
  Plan plan;
  plan.requests.resize(static_cast<std::size_t>(n));
  std::vector<double> due(static_cast<std::size_t>(n));
  for (double& d : due) d = rng.uniform(0.0, seconds);
  std::sort(due.begin(), due.end());

  // Which requests repeat: a seeded choice of `repeats` among 1..n-1.
  std::vector<int> order(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) order[i] = i + 1;
  for (int i = n - 2; i > 0; --i)
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  std::vector<bool> is_repeat(static_cast<std::size_t>(n), false);
  for (int i = 0; i < repeats; ++i) is_repeat[order[i]] = true;

  // Novel requests cycle through the sizes from a seeded offset; a repeat
  // asks for the same content as a random earlier request, either all its
  // steps or a kPrefixSteps prefix.
  const std::size_t cycle = std::size(kSizeCycle);
  const std::size_t offset = rng.uniform_index(cycle);
  const int start_offset = static_cast<int>(rng.uniform_index(kStarts));
  int novel = 0;
  for (int i = 0; i < n; ++i) {
    Planned& p = plan.requests[i];
    p.due_s = due[i];
    if (is_repeat[i]) {
      const Planned& earlier = plan.requests[rng.uniform_index(i)];
      p.base = earlier.base;
      p.steps = rng.uniform() < 0.5 ? earlier.steps
                                    : std::min(earlier.steps, kPrefixSteps);
    } else {
      const Size size = kSizeCycle[(offset + novel) % cycle];
      Base b;
      b.start = (start_offset + 19 * novel) % kStarts;
      b.particles = size.particles;
      b.material = core::material_param_from_friction(
          kPhi + rng.uniform(-5.0, 5.0));
      p.steps = size.steps;
      p.base = static_cast<int>(plan.bases.size());
      plan.bases.push_back(b);
      ++novel;
    }
    Base& b = plan.bases[p.base];
    b.max_steps = std::max(b.max_steps, p.steps);
  }
  return plan;
}

serve::RolloutRequest make_request(const io::Trajectory& traj, const Base& b,
                                   int steps, int window) {
  serve::RolloutRequest req;
  req.model = kModel;
  req.steps = steps;
  req.material = b.material;
  for (int t = b.start; t < b.start + window; ++t) {
    const auto& full = traj.frames[t];
    req.window.emplace_back(full.begin(), full.begin() + b.particles * 2);
  }
  return req;
}

/// The serving stack, torn down in reverse order of construction.
struct Stack {
  std::string cache_dir;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::JobScheduler> scheduler;
  std::unique_ptr<net::Server> server;

  ~Stack() {
    if (server) server->stop();
    server.reset();
    if (scheduler) scheduler->shutdown(/*drain=*/true);
    scheduler.reset();
    if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
  }
};

std::unique_ptr<Stack> start_stack(const Args& args,
                                   std::uint64_t byte_budget) {
  static int instance = 0;
  auto stack = std::make_unique<Stack>();
  stack->cache_dir = args.root + "/.bench_build/serve-cache-" +
                     std::to_string(::getpid()) + "-" +
                     std::to_string(instance++);
  std::filesystem::remove_all(stack->cache_dir);
  stack->registry = std::make_shared<serve::ModelRegistry>();
  if (!stack->registry->load(kModel, verified_checkpoint(args)))
    throw std::runtime_error("registry cannot load the checkpoint");
  serve::SchedulerConfig sc;
  sc.workers = 4;
  sc.queue_capacity = 256;
  store::CacheConfig cc;
  cc.dir = stack->cache_dir;
  cc.byte_budget = byte_budget;
  sc.cache = std::make_shared<store::RolloutCache>(cc);
  stack->scheduler =
      std::make_unique<serve::JobScheduler>(stack->registry, sc);
  stack->server = std::make_unique<net::Server>(*stack->scheduler,
                                                net::ServerConfig{});
  if (!stack->server->start()) throw std::runtime_error("server start failed");
  return stack;
}

/// One request's life as the generator saw it.
struct Record {
  Clock::time_point pickup, sent, done;
  net::ClientResult result;
};

int client_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// Sends the plan open-loop; returns one record per request.
std::vector<Record> run_load(const Stack& stack, const Plan& plan,
                             const std::vector<serve::RolloutRequest>& reqs,
                             Clock::time_point& start) {
  std::vector<Record> records(plan.requests.size());
  std::atomic<std::size_t> next{0};
  net::ClientConfig cc;
  cc.port = stack.server->port();
  const int clients = client_count();
  std::vector<std::unique_ptr<net::Client>> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<net::Client>(cc));
    if (!conns.back()->connect()) throw std::runtime_error("connect failed");
  }
  start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= records.size()) break;
        Record& r = records[i];
        r.pickup = Clock::now();
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan.requests[i].due_s)));
        r.sent = Clock::now();
        r.result = conns[c]->rollout(reqs[i]);
        r.done = Clock::now();
      }
    });
  }
  for (auto& t : threads) t.join();
  return records;
}

/// Reads `name` (optionally with a quantile label) from a Prometheus body.
double prom_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::stod(line.substr(name.size() + 1));
  }
  return 0.0;
}

struct LoadSummary {
  std::vector<double> latency_ms, hit_ms, lag_ms;
  double goodput_rps = 0.0;
};

/// Checks every reply against the expected frames and summarizes latency.
LoadSummary check_load(const Plan& plan, const std::vector<Record>& records,
                       const std::vector<Frames>& expected,
                       Clock::time_point start, Report& report) {
  LoadSummary s;
  int good = 0;
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const Planned& p = plan.requests[i];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(p.due_s));
    const bool ok =
        r.result.ok() &&
        r.result.frames.size() == static_cast<std::size_t>(p.steps) &&
        std::equal(r.result.frames.begin(), r.result.frames.end(),
                   expected[p.base].begin());
    report.attempt(ok, "request " + std::to_string(i) + ": " +
                           (r.result.ok() ? "frames differ from rollout()"
                                          : r.result.transport_error +
                                                r.result.error));
    const double ms = seconds_between(due, r.done) * 1e3;
    s.latency_ms.push_back(ok ? ms : INFINITY);
    if (ok && ms <= kLatencyLimitMs) ++good;
    if (ok && r.result.cache_outcome == serve::CacheOutcome::Hit)
      s.hit_ms.push_back(ms);
    s.lag_ms.push_back(seconds_between(std::max(due, r.pickup), r.sent) * 1e3);
    last_done = std::max(last_done, r.done);
  }
  s.goodput_rps = good / seconds_between(start, last_done);
  return s;
}

/// Marks the run invalid when the generator, not the server, fell behind
/// its schedule, or when no reply was a cache hit.
void validate_load(const LoadSummary& s, Report& report) {
  const double lag_p90 = quantile(s.lag_ms, 0.9);
  std::printf("hits %zu, generator lag p90 %.3f ms\n", s.hit_ms.size(),
              lag_p90);
  if (lag_p90 > kGenLagLimitMs)
    report.invalidate("open-loop generator fell behind its schedule");
  if (s.hit_ms.empty()) report.invalidate("no cache hits");
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const double load_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Plan plan = make_plan(args.seed, load_seconds);
  std::uint64_t working_set = 0;
  for (const Base& b : plan.bases)
    working_set += static_cast<std::uint64_t>(b.max_steps) * b.particles * 16;
  const std::uint64_t budget = working_set / 2;

  // Set-up: checkpoint, MPM seed trajectory, cache, scheduler and server.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  io::Trajectory traj;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    stack.reset();
    stack = start_stack(args, budget);
    const mpm::Scene scene =
        column_scene(kColumnWidth, kColumnAspect, kPhi, args.seed);
    traj = record(scene, kTrajectoryFrames, kPhi);
    setup_s.push_back(seconds_since(t0));
  }
  const auto sim = stack->registry->get(kModel);
  const int window = sim->features().window_size();
  if (traj.num_particles != kFullParticles)
    throw std::runtime_error("unexpected Fig-3 particle count " +
                             std::to_string(traj.num_particles));
  std::vector<serve::RolloutRequest> reqs;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const Planned& p = plan.requests[i];
    reqs.push_back(make_request(traj, plan.bases[p.base], p.steps, window));
    reqs.back().trace_id = (args.seed << 32) | (i + 1);
  }
  std::printf("requests %zu (%zu distinct), %d connections, cache budget "
              "%llu of %llu bytes\n",
              reqs.size(), plan.bases.size(), client_count(),
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(working_set));

  Clock::time_point start;
  std::vector<Record> records = run_load(*stack, plan, reqs, start);
  const double load_peak_rss_mb = peak_rss_mb();
  ExecSample exec0{}, exec1{};
  std::vector<Record> traced;
  Clock::time_point traced_start;
  std::string scrape;
  if (args.trace) {
    // Second half: a fresh stack and cache, the same plan, with spans.
    stack.reset();
    stack = start_stack(args, budget);
    exec0 = exec_sample();
    traced = run_load(*stack, plan, reqs, traced_start);
    exec1 = exec_sample();
  }
  {
    net::ClientConfig cc;
    cc.port = stack->server->port();
    net::Client client(cc);
    const net::Client::StatsResult st = client.stats();
    if (!st.ok()) throw std::runtime_error("stats scrape failed");
    scrape = st.reply.body;
  }
  stack.reset();

  // Expected frames: one in-process rollout() per distinct content, as long
  // as the longest request for it; every reply must be a prefix. Computed
  // after the load, on as many threads as there were connections.
  std::vector<Frames> expected(plan.bases.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < client_count(); ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < expected.size();
             i = next.fetch_add(1)) {
          const Base& b = plan.bases[i];
          const serve::RolloutRequest req =
              make_request(traj, b, b.max_steps, window);
          core::Window win;
          for (const auto& f : req.window)
            win.push_back(core::frame_to_tensor(f, 2));
          core::SceneContext ctx;
          ctx.material = ad::Tensor::scalar(b.material);
          expected[i] = sim->rollout(win, b.max_steps, ctx);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  std::uint64_t digest = 0;
  for (const Frames& e : expected) {
    report.attempt(all_finite(e), "non-finite rollout()");
    digest = frames_digest(e, digest);
  }
  std::printf("output_digest serve 0x%016llx\n",
              static_cast<unsigned long long>(digest));

  const LoadSummary plain = check_load(plan, records, expected, start, report);
  validate_load(plain, report);

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", load_peak_rss_mb, "MB");
    report.metric("op_p50_ms", quantile(plain.latency_ms, 0.5), "ms");
    report.metric("op_p90_ms", quantile(plain.latency_ms, 0.9), "ms");
    report.metric("goodput_per_s", plain.goodput_rps, "1/s");
    return;
  }

  const LoadSummary tr = check_load(plan, traced, expected, traced_start,
                                    report);
  validate_load(tr, report);
  SpanLog spans(traced_start);
  std::vector<double> decode, cache, queue, compute, serialize, wire;
  double hits = 0, joined = 0, ok = 0, busy = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Record& r = traced[i];
    const net::ClientResult& res = r.result;
    busy += res.busy_retries;
    if (!res.ok()) continue;
    ++ok;
    const serve::PhaseTimeline& ph = res.phases;
    decode.push_back(ph.decode_us);
    cache.push_back(ph.cache_us);
    serialize.push_back(ph.serialize_us);
    wire.push_back(res.rtt_ms * 1e3 - ph.total_us());
    if (res.cache_outcome == serve::CacheOutcome::Hit) ++hits;
    if (res.cache_outcome == serve::CacheOutcome::Joined) ++joined;
    if (res.cache_outcome == serve::CacheOutcome::Miss) {
      queue.push_back(ph.queue_us);
      compute.push_back(ph.compute_us);
    }
    // Benchmark-side spans: the request (due -> done), the generator's wait
    // (due -> sent) and the round trip (sent -> done) with the server's
    // phases laid out in order inside it; the round trip's self time is the
    // wire.
    const auto due = traced_start +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(plan.requests[i].due_s));
    const std::string outcome =
        std::string("\"cache\": \"") + serve::to_string(res.cache_outcome) +
        "\"";
    const int root = spans.add("serve.request", due, r.done, -1, res.trace_id,
                               outcome);
    spans.add("bench.wait", due, r.sent, root, res.trace_id);
    const int rtt = spans.add("net.rtt", r.sent, r.done, root, res.trace_id);
    auto at = r.sent;
    const std::pair<const char*, double> phases[] = {
        {"net.decode", ph.decode_us},       {"store.cache", ph.cache_us},
        {"serve.queue", ph.queue_us},       {"serve.batch_wait", ph.batch_wait_us},
        {"serve.compute", ph.compute_us},   {"net.serialize", ph.serialize_us}};
    for (const auto& [name, us] : phases) {
      if (us <= 0.0) continue;
      const auto end = at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(us));
      spans.add(name, at, end, rtt, res.trace_id);
      at = end;
    }
  }
  report.metric("serve.hit_p50_ms", median(tr.hit_ms), "ms");
  report.metric("net.decode_us_p50", median(decode), "us");
  report.metric("store.cache_us_p50", median(cache), "us");
  report.metric("serve.queue_us_p50", quantile(queue, 0.5), "us");
  report.metric("serve.queue_us_p90", quantile(queue, 0.9), "us");
  report.metric("serve.compute_us_p50", median(compute), "us");
  report.metric("net.serialize_us_p50", median(serialize), "us");
  report.metric("net.write_us_p50",
                prom_value(scrape, "serve_phase_write_us{quantile=\"0.5\"}"),
                "us");
  report.metric("net.wire_us_p50", median(wire), "us");
  const double batches = prom_value(scrape, "serve_batch_size_count");
  report.metric("serve.batch_size_mean",
                batches > 0 ? prom_value(scrape, "serve_batch_size_sum") /
                                  batches
                            : 0.0,
                "count");
  report.metric("store.hit_frac", ok > 0 ? hits / ok : 0.0, "fraction");
  report.metric("store.joined_frac", ok > 0 ? joined / ok : 0.0, "fraction");
  report.metric("store.evictions",
                prom_value(scrape, "serve_cache_evictions"), "count");
  report.metric("net.busy_retries", busy, "count");
  report.metric("bench.gen_lag_ms_p90", quantile(tr.lag_ms, 0.9), "ms");
  report_exec(report, exec0, exec1);
  report.metric("bench.trace_overhead_frac",
                quantile(tr.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5) -
                    1.0,
                "fraction");
  spans.write(trace_path(args));
}

}  // namespace perfbench
