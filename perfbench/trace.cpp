#include "bench.hpp"
#include "service/json_io.hpp"

namespace nfbench {

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  if (!t_.on_) return;
  id_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back({name, now_s(), 0.0, t_.open_});
  t_.open_ = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  Span& s = t_.spans_[static_cast<std::size_t>(id_)];
  s.end = now_s();
  t_.open_ = s.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

double Tracer::top_level_seconds(double since) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.start >= since) sum += s.end - s.start;
  }
  return sum;
}

std::string Tracer::chrome_json() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    nemfpga::JsonWriter w;
    w.field("name", s.name)
        .field("ph", "X")
        .field("pid", std::uint64_t{1})
        .field("tid", std::uint64_t{1})
        .field("ts", (s.start - t0) * 1e6)
        .field("dur", (s.end - s.start) * 1e6)
        .field("id", static_cast<std::uint64_t>(i));
    if (s.parent >= 0) {
      w.field("parent", static_cast<std::uint64_t>(s.parent));
    }
    out += (i == 0 ? "\n" : ",\n") + w.str();
  }
  return out + "\n]\n";
}

bool Report::fail(const std::string& why) {
  if (correct) error = why;
  correct = false;
  return false;
}

}  // namespace nfbench
