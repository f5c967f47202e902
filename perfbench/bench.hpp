// Shared plumbing of the end-to-end benchmark: the span recorder used by
// traced runs, the per-run report every workload fills, and the workload
// entry points. Walls come only from this benchmark's own steady clock;
// no wall-time field of a program result is read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans nest by scope on the calling thread
/// (the benchmark records them from its client thread only). A disabled
/// tracer records nothing, so the same code serves traced and untraced
/// passes.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_ = -1;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  Scope span(const char* name) { return Scope(*this, name); }

  /// Per span name: summed duration minus the time its direct children
  /// cover.
  std::map<std::string, double> self_seconds() const;
  /// Summed duration of top-level spans starting at or after `since`.
  double top_level_seconds(double since) const;
  /// Chrome trace-event JSON (an array of complete "X" events, one flat
  /// object each, with the parent's event id in "parent").
  std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  };
  bool on_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// What one run of a workload measured and checked.
struct Report {
  bool correct = true;
  std::string error;  ///< First failed gate.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;     ///< One entry per set-up repetition.
  double wall_s = 0.0;             ///< Wall of the measured work list.
  std::vector<double> latency_s;   ///< One entry per request.
  /// Per-layer figures (emitted by traced runs): only what the workload
  /// measured.
  std::map<std::string, double> layer;
  /// Work unit of latency_s, plural, for the info lines ("flow jobs").
  std::string unit = "requests";

  /// Record a failed correctness gate; returns false so callers can
  /// `return r.fail(...)` out of a pass.
  bool fail(const std::string& why);
};

/// Run configuration handed over by run.py as one flat JSON object.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::size_t threads = 1;  ///< min(4, cpus), not configurable.
  std::string trace_file;  ///< Chrome trace output (traced runs).
  /// Self-test hook: "checksum" corrupts the reference a gate compares
  /// against, so the run must fail.
  std::string inject;
};

void run_flow_suite(const Config& c, Tracer& t, Report& r);
void run_wmin_table1(const Config& c, Tracer& t, Report& r);
void run_serve_open(const Config& c, Tracer& t, Report& r);
void run_eco_sessions(const Config& c, Tracer& t, Report& r);

}  // namespace nfbench
