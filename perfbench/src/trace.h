#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder for one thread. Spans nest: a span begun while
/// another is open becomes its child. Nothing is written until
/// write_chrome_json, so recording costs two clock reads and one vector
/// append per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  ///< Index of the enclosing span, -1 for a root.
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };

  /// Totals of every span with one (root name, span name) path.
  struct Totals {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< Duration minus the time children cover.
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name);
  void end(int id);

  /// Aggregates spans by "root/name" (a root aggregates under its own name).
  std::map<std::string, Totals> totals() const;

  /// Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// complete events, one track), with each span's self time in its args.
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         std::size_t max_spans) const;

 private:
  std::vector<double> self_ns() const;
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
