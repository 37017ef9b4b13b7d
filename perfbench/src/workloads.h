#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/accelerator.h"
#include "trace.h"

namespace perfbench {

/// Deterministic input stream (splitmix64): the benchmark draws every input
/// from its own generator, so inputs depend only on --seed.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Hash of the exact bits of a call's simulated outputs. Scores also pass
/// through a range check: each must be finite and in [0, 1].
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add_score(double v);
  std::uint64_t value() const { return h_; }
  bool in_range() const { return in_range_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
  bool in_range_ = true;
};

/// What one call (or its replay) produced.
struct CallOutput {
  std::uint64_t digest = 0;
  std::int64_t units = 0;  ///< Design points, trials or admitted sessions.
  bool in_range = true;
};

/// Simulated-side counts and per-run facts gathered during replays.
struct ReplayCounts {
  std::int64_t run_inferences = 0;    ///< Executed + dropped, run() only.
  std::int64_t program_inferences = 0;  ///< Same, run_program() only.
  std::int64_t dropped = 0;           ///< Over both run kinds.
  std::int64_t records_scored = 0;    ///< Records score_scenario walked.
  std::int64_t builds = 0;            ///< CostTable builds.
  std::int64_t sessions_offered = 0;
  std::int64_t sessions_admitted = 0;
  std::vector<std::int64_t> inferences_per_run;  ///< Both run kinds.

  std::int64_t inferences() const {
    return run_inferences + program_inferences;
  }
  void add(const ReplayCounts& o);
};

/// One benchmark workload: a fixed list of call inputs generated from the
/// seed, the engine call under test, and a serial layer-by-layer replay of
/// the same call through the layers' public functions.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual const char* unit() const = 0;
  /// Distinct call inputs; call k of a run uses input k % num_inputs().
  virtual std::size_t num_inputs() const = 0;

  /// The call under test on an engine with `threads` workers (0 = inline on
  /// the calling thread).
  virtual CallOutput call(std::size_t input, std::size_t threads) = 0;

  /// Serial replay of call `input`, one public layer call at a time, with a
  /// span around each when `tracer` is set. Its digest must equal call()'s.
  virtual CallOutput replay(std::size_t input, Tracer* tracer,
                            ReplayCounts& counts) = 0;

  /// The systems one call builds cost tables for, one entry per build.
  virtual std::vector<xrbench::hw::AcceleratorSystem> table_systems() const = 0;
};

/// Builds the named workload's inputs from `seed`. Throws
/// std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
