// XRBench perf benchmark: one workload per process, closed loop (one client
// issuing engine calls back to back). `--trace 0` measures the end-to-end
// metrics; `--trace 1` replays the same generated inputs layer by layer on
// one thread and reports per-layer metrics. Every call's simulated outputs
// are hashed and checked against the serial replay and, for the golden seed,
// against the committed digests. Human-readable lines go first; the last
// line of stdout is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/cost_model.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"
#include "sim/simulator.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace perfbench;
namespace xr = xrbench;

namespace {

/// Seed whose input-0 replay digests are committed in expected_digests.txt.
constexpr std::uint64_t kGoldenSeed = 1;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;
/// Throughput and CPU time are taken per block of calls at least this long,
/// and reported as the median block.
constexpr double kBlockSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string expected;
  std::string rev = "unknown";
  bool print_digest = false;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_xr: %s\nusage: perfbench_xr --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--expected PATH] [--rev REV] [--print-digest]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digest") {
      a.print_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else if (flag == "--expected") {
        a.expected = v;
      } else if (flag == "--rev") {
        a.rev = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-48s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_host(const Args& a, std::size_t nproc) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"build_type\": \"%s\", \"rev\": \"%s\", \"loadavg\": [%.2f, %.2f, "
      "%.2f], \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}}\n",
      nproc, PERFBENCH_CXX_ID, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE,
      a.rev.c_str(), load[0], load[1], load[2], a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
}

/// Committed input-0 replay digest of `workload` at kGoldenSeed.
bool golden_digest(const std::string& path, const std::string& workload,
                   std::uint64_t& out) {
  std::ifstream in(path);
  std::string name, hex;
  while (in >> name >> hex) {
    if (name == workload) {
      out = std::stoull(hex, nullptr, 16);
      return true;
    }
  }
  return false;
}

/// Replays input 0 at the golden seed and compares with the committed
/// digest. Prints the outcome; returns true on a match.
bool check_golden(const Args& a) {
  ReplayCounts counts;
  const auto w = make_workload(a.workload, kGoldenSeed);
  const auto got = w->replay(0, nullptr, counts).digest;
  std::uint64_t want = 0;
  if (!golden_digest(a.expected, a.workload, want)) {
    std::printf("golden digest: none committed for %s in '%s' (got %016llx)\n",
                a.workload.c_str(), a.expected.c_str(),
                static_cast<unsigned long long>(got));
    return false;
  }
  std::printf("golden digest (seed %llu): %016llx, committed %016llx: %s\n",
              static_cast<unsigned long long>(kGoldenSeed),
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want),
              got == want ? "match" : "MISMATCH");
  return got == want;
}

struct CallRecord {
  std::size_t input;
  CallOutput out;
  bool threw;
};

/// Failed calls: a call fails when it threw, a score is out of range, or
/// its digest differs from the serial replay of its input.
std::int64_t count_failures(Workload& w, const std::vector<CallRecord>& calls) {
  std::map<std::size_t, CallOutput> reference;
  std::int64_t failed = 0;
  for (const auto& c : calls) {
    auto it = reference.find(c.input);
    if (it == reference.end()) {
      ReplayCounts counts;
      it = reference.emplace(c.input, w.replay(c.input, nullptr, counts))
               .first;
    }
    const CallOutput& ref = it->second;
    if (c.threw || !c.out.in_range || !ref.in_range ||
        c.out.digest != ref.digest) {
      ++failed;
    }
  }
  return failed;
}

// ---- untraced run: end-to-end metrics -------------------------------------

int run_untraced(const Args& a, std::size_t nproc,
                 Clock::time_point process_start) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const auto t0 = k == 0 ? process_start : Clock::now();
    w = make_workload(a.workload, a.seed);
    w->call(0, nproc);  // untimed warm-up: engines, memos, arenas
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<CallRecord> calls;
  std::vector<double> call_ms;
  std::vector<double> block_rate;
  std::vector<double> block_cpu_ms_per_unit;
  const auto start = Clock::now();
  auto block_start = start;
  double block_cpu = cpu_seconds();
  std::int64_t block_units = 0;
  for (std::size_t k = 0;; ++k) {
    const auto t0 = Clock::now();
    if (seconds_between(start, t0) >= a.seconds) break;
    CallRecord rec{k % w->num_inputs(), {}, false};
    try {
      rec.out = w->call(rec.input, nproc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "call %zu threw: %s\n", k, e.what());
      rec.threw = true;
    }
    const auto t1 = Clock::now();
    call_ms.push_back(seconds_between(t0, t1) * 1e3);
    block_units += rec.out.units;
    calls.push_back(rec);
    const double block_s = seconds_between(block_start, t1);
    if (block_s >= kBlockSeconds && block_units > 0) {
      const double cpu = cpu_seconds();
      block_rate.push_back(static_cast<double>(block_units) / block_s);
      block_cpu_ms_per_unit.push_back((cpu - block_cpu) * 1e3 /
                                      static_cast<double>(block_units));
      block_start = t1;
      block_cpu = cpu;
      block_units = 0;
    }
  }
  const double rss = peak_rss_mb();
  if (block_rate.empty()) {
    std::fprintf(stderr, "no complete measurement block; raise --seconds\n");
    return 1;
  }

  const auto attempted = static_cast<std::int64_t>(calls.size());
  const std::int64_t failed = count_failures(*w, calls);
  const bool golden = check_golden(a);

  // Tail: p95, which has at least 10 calls beyond it once a run makes 200
  // calls (every workload does at the benchmark's run length); shorter runs
  // fall back to the highest of {90, 75, 50} that does. The highest
  // percentile with 10 calls beyond it would move with the number of calls
  // a change makes per run, and one burst of host interference decides it.
  std::vector<double> sorted = call_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  double tail_pct = 50.0;
  for (double p : {95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) {
      tail_pct = p;
      break;
    }
  }
  // Nearest-rank percentile.
  const auto rank = static_cast<std::size_t>(
      std::ceil(tail_pct / 100.0 * static_cast<double>(n)));
  const std::size_t tail_idx = std::max<std::size_t>(rank, 1) - 1;
  std::printf("workload %s: %lld calls, %s per call median %.0f\n",
              a.workload.c_str(), static_cast<long long>(attempted),
              w->unit(), median([&] {
                std::vector<double> u;
                for (const auto& c : calls) u.push_back(c.out.units);
                return u;
              }()));
  std::printf("call_ms_tail %.6g ms (p%g: %zu calls beyond it of %zu)\n",
              sorted[tail_idx], tail_pct, n - 1 - tail_idx, n);
  std::printf("units_per_s and cpu_ms_per_unit: median of %zu blocks\n",
              block_rate.size());
  std::printf("error_rate %.6g (%lld failed of %lld calls)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));

  print_result(failed == 0 && golden, attempted, failed,
               {{"setup_s", median(setups), "s"},
                {"units_per_s", median(block_rate), "1/s"},
                {"call_ms_p50", median(call_ms), "ms"},
                {"cpu_ms_per_unit", median(block_cpu_ms_per_unit), "ms"},
                {"peak_rss_mb", rss, "MB"}});
  return failed == 0 && golden ? 0 : 1;
}

// ---- traced run: per-layer metrics ----------------------------------------

/// Runs `fn` until `budget_s` has passed and at least `min_reps` times;
/// returns each repetition's wall seconds.
std::vector<double> repeat(double budget_s, int min_reps,
                           const std::function<void(int)>& fn) {
  std::vector<double> reps;
  const auto start = Clock::now();
  for (int r = 0; r < min_reps || seconds_between(start, Clock::now()) <
                                      budget_s;
       ++r) {
    const auto t0 = Clock::now();
    fn(r);
    reps.push_back(seconds_between(t0, Clock::now()));
  }
  return reps;
}

/// Hold-model probe of sim::Simulator: `depth` pending events, each fired
/// event schedules one successor, `events` events in all.
struct HoldProbe {
  xr::sim::Simulator sim;
  InputRng rng{7};
  std::int64_t remaining = 0;

  double gap_ms() {
    return 2.0 * static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  static void fire(HoldProbe* p) {
    if (p->remaining-- <= 0) return;
    p->sim.schedule_after(p->gap_ms(), [p] { fire(p); });
  }
};

double sim_ns_per_event(std::size_t depth, double budget_s) {
  constexpr std::int64_t kEvents = 200000;
  std::vector<double> ns;
  repeat(budget_s, 3, [&](int) {
    auto p = std::make_unique<HoldProbe>();
    p->sim.reserve(depth + 8);
    HoldProbe* self = p.get();
    for (std::size_t d = 0; d < depth; ++d) {
      p->sim.schedule_at(p->gap_ms() * static_cast<double>(depth) / 2.0,
                         [self] { HoldProbe::fire(self); });
    }
    p->remaining = kEvents;
    const auto t0 = Clock::now();
    const std::size_t fired = p->sim.run();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(fired));
  });
  return median(ns);
}

double pool_ns_per_task(std::size_t nproc, double budget_s) {
  constexpr std::size_t kTasks = 4096;
  xr::util::ThreadPool pool(nproc);
  std::vector<std::uint64_t> slots(kTasks, 0);
  std::vector<double> ns;
  repeat(budget_s, 5, [&](int) {
    std::vector<xr::util::Task> batch;
    batch.reserve(kTasks);
    std::uint64_t* out = slots.data();
    for (std::size_t i = 0; i < kTasks; ++i) {
      batch.push_back([out, i] { out[i] += i; });
    }
    const auto t0 = Clock::now();
    pool.submit_batch(std::move(batch));
    pool.wait_idle();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kTasks);
  });
  return median(ns);
}

/// The exact counts one replay of an input must repeat.
std::vector<std::int64_t> exact_counts(const ReplayCounts& c) {
  return {c.inferences(), c.dropped,          c.builds,
          c.records_scored, c.sessions_offered, c.sessions_admitted};
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

int run_traced(const Args& a, std::size_t nproc) {
  const bool fleet_workload = a.workload == "fleet_serve";
  auto w = make_workload(a.workload, a.seed);
  // Layers this workload does not call are measured on the workload that
  // does, at the same seed: run_program and the fleet layer on fleet_serve,
  // ScenarioRunner::run on trial_sweep.
  auto helper =
      make_workload(fleet_workload ? "trial_sweep" : "fleet_serve", a.seed);
  Tracer tracer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::size_t, std::uint64_t> digest_of;
  std::map<std::pair<const Workload*, std::size_t>, std::vector<std::int64_t>>
      counts_of;
  const auto check = [&](std::size_t input, const CallOutput& out) {
    ++attempted;
    auto it = digest_of.emplace(input, out.digest).first;
    if (!out.in_range || it->second != out.digest) ++failed;
  };
  const auto check_counts = [&](const Workload& wl, std::size_t input,
                                const ReplayCounts& c) {
    auto it = counts_of.emplace(std::make_pair(&wl, input), exact_counts(c))
                  .first;
    if (it->second != exact_counts(c)) {
      std::printf("exact counts of %s input %zu did not repeat\n", wl.name(),
                  input);
      ++failed;
    }
  };

  // Warm-up: engines at every worker count, models and arenas.
  for (std::size_t t : {std::size_t{0}, std::size_t{1}, nproc}) {
    check(0, w->call(0, t));
  }
  ReplayCounts warm;
  check(0, w->replay(0, nullptr, warm));
  check_counts(*w, 0, warm);
  helper->call(0, 0);
  ReplayCounts helper_warm;
  helper->replay(0, nullptr, helper_warm);
  check_counts(*helper, 0, helper_warm);

  const std::size_t inputs = w->num_inputs();
  const double s = a.seconds;

  // Phase A: parallel scaling. 1-worker and nproc-worker calls of the same
  // input alternate which runs first, so drift cannot favour one side.
  std::vector<double> efficiency, tn_s;
  repeat(0.3 * s, 4, [&](int r) {
    const std::size_t i = static_cast<std::size_t>(r) % inputs;
    double t1 = 0.0, tn = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool one = (side == 0) == (r % 2 == 0);
      const auto t0 = Clock::now();
      check(i, w->call(i, one ? 1 : nproc));
      (one ? t1 : tn) = seconds_between(t0, Clock::now());
    }
    efficiency.push_back(t1 / (static_cast<double>(nproc) * tn));
    tn_s.push_back(tn);
  });

  // Phase B: inline engine call vs the traced serial replay of the same
  // input.
  ReplayCounts counts;     // summed over every replay
  ReplayCounts counts0;    // input 0, first replay
  int replays = 0;
  repeat(0.35 * s, 3, [&](int r) {
    const std::size_t i = static_cast<std::size_t>(r) % inputs;
    {
      Scope span(&tracer, "inline");
      check(i, w->call(i, 0));
    }
    ReplayCounts c;
    {
      Scope span(&tracer, "replay");
      check(i, w->replay(i, &tracer, c));
    }
    check_counts(*w, i, c);
    if (r == 0) counts0 = c;
    counts.add(c);
    ++replays;
  });

  // Phase C: the helper workload's replay, then single-layer probes.
  const double probe_s = 0.35 * s / 6.0;
  ReplayCounts helper_counts, helper0;
  repeat(probe_s, 2, [&](int r) {
    {
      Scope span(&tracer, "helper.inline");
      helper->call(0, 0);
    }
    ReplayCounts c;
    {
      Scope span(&tracer, "helper.replay");
      helper->replay(0, &tracer, c);
    }
    check_counts(*helper, 0, c);
    if (r == 0) helper0 = c;
    helper_counts.add(c);
  });

  const auto systems = w->table_systems();
  std::int64_t layer_levels = 0;
  for (const auto& sys : systems) {
    for (const auto& sa : sys.sub_accels) {
      for (auto task : xr::models::all_tasks()) {
        layer_levels += static_cast<std::int64_t>(
            xr::models::model_graph(task).num_layers() * sa.dvfs.num_levels());
      }
    }
  }
  double sink = 0.0;
  const auto kernel_s = repeat(probe_s, 3, [&](int) {
    Scope span(&tracer, "probe.costmodel.all_levels");
    const xr::costmodel::AnalyticalCostModel model;
    for (const auto& sys : systems) {
      for (const auto& sa : sys.sub_accels) {
        for (auto task : xr::models::all_tasks()) {
          sink += model.model_cost_all_levels(xr::models::model_graph(task), sa)
                      .back()
                      .latency_ms;
        }
      }
    }
  });
  std::vector<double> cold_s, warm_s;
  repeat(probe_s, 3, [&](int) {
    const xr::costmodel::AnalyticalCostModel model;
    for (auto* out : {&cold_s, &warm_s}) {
      const auto t0 = Clock::now();
      Scope span(&tracer, out == &cold_s ? "probe.cost_table.cold"
                                         : "probe.cost_table.warm");
      for (const auto& sys : systems) {
        sink += xr::runtime::CostTable(sys, model).latency_ms(
            xr::models::TaskId::kHT, 0);
      }
      out->push_back(seconds_between(t0, Clock::now()));
    }
  });
  if (sink == 0.0) std::printf("(probe sink is zero)\n");

  std::vector<double> per_run(counts.inferences_per_run.begin(),
                              counts.inferences_per_run.end());
  const auto depth =
      static_cast<std::size_t>(std::max(1.0, std::round(median(per_run) / 2)));
  double sim_ns = 0.0;
  {
    Scope span(&tracer, "probe.sim");
    sim_ns = sim_ns_per_event(depth, probe_s);
  }
  double pool_ns = 0.0;
  {
    Scope span(&tracer, "probe.thread_pool");
    pool_ns = pool_ns_per_task(nproc, probe_s);
  }

  // ---- metrics from spans and counts --------------------------------------
  const auto totals = tracer.totals();
  const auto total_ns = [&](const std::string& key) {
    const auto it = totals.find(key);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  const auto count = [&](const std::string& key) {
    const auto it = totals.find(key);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double inline_ns = total_ns("inline");
  const double replay_ns = total_ns("replay");
  const double layers_ns = replay_ns - totals.at("replay").self_ns;
  const double mean_tn = [&] {
    double sum = 0.0;
    for (double t : tn_s) sum += t;
    return sum / static_cast<double>(tn_s.size());
  }();

  // Runner metrics come from whichever replay calls the layer.
  const std::string run_root = fleet_workload ? "helper.replay" : "replay";
  const std::string program_root = fleet_workload ? "replay" : "helper.replay";
  const std::string fleet_inline = fleet_workload ? "inline" : "helper.inline";
  const auto& run_counts = fleet_workload ? helper_counts : counts;
  const auto& program_counts = fleet_workload ? counts : helper_counts;
  const auto& fleet0 = fleet_workload ? counts0 : helper0;
  const double fleet_inline_ns = total_ns(fleet_inline);
  const double session_ns =
      total_ns(program_root + "/runtime.scenario_runner.run_program") +
      total_ns(program_root + "/core.score");

  std::printf("span self time (ms), all repetitions:\n");
  for (const auto& [key, t] : totals) {
    std::printf("  %-56s n=%-7zu total %10.3f  self %10.3f\n", key.c_str(),
                t.count, t.total_ns / 1e6, t.self_ns / 1e6);
  }
  std::printf("replays %d, sim probe depth %zu, layer-levels %lld\n", replays,
              depth, static_cast<long long>(layer_levels));
  if (!a.trace_out.empty()) {
    // Spans are written in time order; the cap keeps the file a size
    // Perfetto opens quickly while still covering the first replays.
    constexpr std::size_t kMaxTraceSpans = 50000;
    if (tracer.write_chrome_json(a.trace_out, kMaxTraceSpans)) {
      std::printf("trace written to %s\n", a.trace_out.c_str());
    } else {
      std::printf("could not write trace to %s\n", a.trace_out.c_str());
      ++failed;
    }
  }
  const bool golden = check_golden(a);

  const double n = static_cast<double>(nproc);
  print_result(
      failed == 0 && golden, attempted, failed,
      {{"costmodel.all_levels_ns_per_layer_level",
        median(kernel_s) * 1e9 / static_cast<double>(layer_levels), "ns"},
       {"costmodel.layer_levels", static_cast<double>(layer_levels), "count"},
       {"runtime.cost_table.cold_build_us",
        median(cold_s) * 1e6 / static_cast<double>(systems.size()), "us"},
       {"runtime.cost_table.warm_build_us",
        median(warm_s) * 1e6 / static_cast<double>(systems.size()), "us"},
       {"runtime.cost_table.builds", static_cast<double>(counts0.builds),
        "count"},
       {"runtime.scenario_runner.run_us",
        per(total_ns(run_root + "/runtime.scenario_runner.run"),
            count(run_root + "/runtime.scenario_runner.run")) / 1e3,
        "us"},
       {"runtime.scenario_runner.ns_per_inference",
        per(total_ns(run_root + "/runtime.scenario_runner.run"),
            static_cast<double>(run_counts.run_inferences)),
        "ns"},
       {"runtime.scenario_runner.program_ns_per_inference",
        per(total_ns(program_root + "/runtime.scenario_runner.run_program"),
            static_cast<double>(program_counts.program_inferences)),
        "ns"},
       {"runtime.inferences", static_cast<double>(counts0.inferences()),
        "count"},
       {"runtime.drop_share",
        per(static_cast<double>(counts0.dropped),
            static_cast<double>(counts0.inferences())),
        "ratio"},
       {"sim.ns_per_event", sim_ns, "ns"},
       {"core.score.ns_per_record",
        per(total_ns("replay/core.score"),
            static_cast<double>(counts.records_scored)),
        "ns"},
       {"core.sweep.parallel_efficiency", median(efficiency), "ratio"},
       {"core.sweep.glue_share", 1.0 - per(layers_ns, inline_ns), "ratio"},
       {"core.sweep.worker_idle_share",
        1.0 - per(layers_ns / replays, n * mean_tn * 1e9), "ratio"},
       {"util.thread_pool.ns_per_task", pool_ns, "ns"},
       {"fleet.generate_us",
        per(total_ns(program_root + "/fleet.generate"),
            count(program_root + "/fleet.generate")) / 1e3,
        "us"},
       {"fleet.self_share", 1.0 - per(session_ns, fleet_inline_ns), "ratio"},
       {"fleet.admitted_share",
        per(static_cast<double>(fleet0.sessions_admitted),
            static_cast<double>(fleet0.sessions_offered)),
        "ratio"},
       {"trace.overhead_share", 1.0 - per(inline_ns, replay_ns), "ratio"}});
  return failed == 0 && golden ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  // What is measured must not depend on the caller's environment: worker
  // count, pinning and the cost-kernel path all stay at their defaults.
  for (const char* var : {"XRBENCH_THREADS", "XRBENCH_PIN", "XRBENCH_SIMD"}) {
    unsetenv(var);
  }
  const Args a = parse_args(argc, argv);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  try {
    if (a.print_digest) {
      ReplayCounts counts;
      const auto w = make_workload(a.workload, kGoldenSeed);
      std::printf("%s %016llx\n", a.workload.c_str(),
                  static_cast<unsigned long long>(
                      w->replay(0, nullptr, counts).digest));
      return 0;
    }
    print_host(a, nproc);
    return a.trace ? run_traced(a, nproc)
                   : run_untraced(a, nproc, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_xr: %s\n", e.what());
    return 1;
  }
}
