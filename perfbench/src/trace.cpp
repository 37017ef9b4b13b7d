#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, parent, now_ns(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes close in reverse order of opening, so `id` is the innermost.
  open_.pop_back();
}

std::vector<double> Tracer::self_ns() const {
  // Children of one span run one after another on this thread, so their
  // intervals are disjoint and the covered time is their summed duration.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].begin_ns);
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.begin_ns);
    }
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const auto self = self_ns();
  std::vector<int> root(spans_.size());
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    // A parent is always recorded before its children.
    root[i] = s.parent < 0 ? static_cast<int>(i)
                           : root[static_cast<std::size_t>(s.parent)];
    std::string key = s.name;
    if (s.parent >= 0) {
      key = std::string(spans_[static_cast<std::size_t>(root[i])].name) + "/" +
            key;
    }
    auto& t = out[key];
    ++t.count;
    t.total_ns += static_cast<double>(s.end_ns - s.begin_ns);
    t.self_ns += self[i];
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_spans) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  const auto self = self_ns();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < std::min(spans_.size(), max_spans); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                 self[i] / 1e3);
  }
  std::fputs("]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
