// `nemfpga serve` — the long-lived flow-as-a-service daemon. Clients
// connect over TCP (loopback) and exchange newline-delimited flat JSON
// objects in the bench-schema style:
//
//   -> {"op":"flow","id":1,"benchmark":"tseng","w":64,"timing":false}
//   -> {"op":"flow","id":2,"synth_luts":1000,"inputs":48,"outputs":48}
//   <- {"id":1,"ok":true,"w":64,"iterations":9,"tree_checksum":"0x...",...}
//   -> {"op":"stats"}
//   <- {"ok":true,"cache_hits":5,"cache_misses":2,...}
//   -> {"op":"shutdown"}
//
// Flow requests: "benchmark" names an MCNC/Pistorius catalog circuit, or
// "synth_luts" (+ optional "inputs"/"outputs"/"latches"/"locality")
// generates a synthetic one; "w" overrides the channel width, "seed" the
// placement seed, "timing" enables the timing-driven router, "variant"
// names a registered switch-technology backend (cmos / nem-naive /
// nem-opt / rram, with the legacy spellings nem and nem_opt still
// accepted), "sb_pattern" a switch-block pattern (wilton / subset /
// universal / custom). Responses come back in request order
// per connection while the jobs themselves run concurrently on the
// scheduler (pipelined clients get batch throughput; tree_checksum is a
// hex string because JSON numbers cannot carry 64 bits). Errors are
// {"ok":false,"error":...} — a malformed request never kills the
// connection, let alone the daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/job_scheduler.hpp"
#include "service/json_io.hpp"

namespace nemfpga {

struct ServeOptions {
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (printed).
  std::size_t workers = 8;
  std::size_t cache_bytes = ArtifactCache::kDefaultMaxBytes;
  /// Architecture defaults for fields a job does not override.
  ArchParams arch;
  bool verbose = false;  ///< Per-request log lines on stdout.
};

/// Build a FlowJob from a parsed "op":"flow" request (exposed for the
/// CLI and tests). Throws std::runtime_error, naming the field, on an
/// invalid spec: synth_luts outside [1, 1e6]; inputs, outputs or latches
/// outside [0, 1e6]; w outside [2, RouteOptions::max_channel_width]; seed
/// outside [0, 2^53]; any of these not an integer; a non-finite locality.
FlowJob job_from_json(const JsonObject& o, const ServeOptions& defaults);

class ServeServer {
 public:
  /// Binds and listens on 127.0.0.1:opt.port immediately (so port() is
  /// valid before run()); throws std::runtime_error if binding fails.
  explicit ServeServer(const ServeOptions& opt);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  std::uint16_t port() const { return port_; }
  ArtifactCache& cache() { return cache_; }
  JobScheduler& scheduler() { return scheduler_; }

  /// Accept loop; returns after shutdown() (or a "shutdown" request)
  /// once every connection has drained.
  void run();
  /// Thread-safe stop: unblocks run().
  void shutdown();

  /// Process one request line synchronously and return the response
  /// line (no socket involved — the CLI fallback and the unit tests
  /// drive the protocol through this).
  std::string handle_request_line(const std::string& line);

  /// The stats response body (also printed by the CLI on exit).
  std::string stats_json();

 private:
  void connection_loop(int fd);

  ServeOptions opt_;
  ArtifactCache cache_;
  JobScheduler scheduler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> conns_;
};

}  // namespace nemfpga
