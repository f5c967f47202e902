// Unit coverage for the serve surface: the flat-JSON protocol codec,
// request -> FlowJob translation, the job scheduler's future semantics,
// and a real TCP round-trip against ServeServer on an ephemeral port
// (flow, pipelined flows, stats, malformed requests, shutdown). The
// concurrency/determinism story is tests/test_serve_tsan.cpp.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "netlist/mcnc.hpp"
#include "service/job_scheduler.hpp"
#include "service/json_io.hpp"
#include "service/server.hpp"

namespace nemfpga {
namespace {

// ---------------------------------------------------------------------
// JSON codec.

TEST(JsonIo, ParsesFlatObject) {
  const JsonObject o = parse_json_object(
      R"({"op":"flow","benchmark":"tseng","w":64,"timing":true,)"
      R"("locality":0.5,"note":"a\"b\\c\n"})");
  EXPECT_EQ(o.get_string("op"), "flow");
  EXPECT_EQ(o.get_string("benchmark"), "tseng");
  EXPECT_EQ(o.get_number("w"), 64.0);
  EXPECT_TRUE(o.get_bool("timing"));
  EXPECT_EQ(o.get_number("locality"), 0.5);
  EXPECT_EQ(o.get_string("note"), "a\"b\\c\n");
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_string("missing", "def"), "def");
  EXPECT_EQ(o.get_number("missing", 7.0), 7.0);
}

TEST(JsonIo, ParsesEmptyObjectAndWhitespace) {
  EXPECT_TRUE(parse_json_object("{}").fields.empty());
  const JsonObject o = parse_json_object("  { \"a\" : 1 , \"b\" : null }  ");
  EXPECT_EQ(o.get_number("a"), 1.0);
  EXPECT_TRUE(o.has("b"));
}

TEST(JsonIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_json_object(""), std::runtime_error);
  EXPECT_THROW(parse_json_object("not json"), std::runtime_error);
  EXPECT_THROW(parse_json_object("{\"a\":1"), std::runtime_error);
  EXPECT_THROW(parse_json_object("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse_json_object("{\"a\":1} trailing"), std::runtime_error);
  // Nested containers are explicitly outside the protocol.
  EXPECT_THROW(parse_json_object("{\"a\":{}}"), std::runtime_error);
  EXPECT_THROW(parse_json_object("{\"a\":[1,2]}"), std::runtime_error);
}

TEST(JsonIo, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.field("s", "he\"llo\n");
  w.field("d", 0.1);
  w.field("u", std::uint64_t{18446744073709551615ull});
  w.field("b", true);
  const JsonObject o = parse_json_object(w.str());
  EXPECT_EQ(o.get_string("s"), "he\"llo\n");
  EXPECT_EQ(o.get_number("d"), 0.1);  // %.17g round-trips exactly
  EXPECT_TRUE(o.get_bool("b"));
  // 2^64-1 exceeds double precision — which is exactly why checksums
  // travel as hex strings, not numbers.
  EXPECT_TRUE(o.has("u"));
}

// ---------------------------------------------------------------------
// Request -> FlowJob.

TEST(JobFromJson, BenchmarkRequestHonorsOverrides) {
  ServeOptions defaults;
  const JsonObject o = parse_json_object(
      R"({"op":"flow","benchmark":"tseng","w":64,"seed":7,)"
      R"("timing":true,"variant":"nem_opt"})");
  const FlowJob job = job_from_json(o, defaults);
  EXPECT_EQ(job.name, "tseng");
  EXPECT_GT(job.netlist.block_count(), 0u);
  EXPECT_EQ(job.opt.arch.W, 64u);
  EXPECT_EQ(job.opt.place.seed, 7u);
  EXPECT_TRUE(job.opt.route.timing_driven);
  EXPECT_EQ(job.opt.timing_backend, "nem-opt");
}

TEST(JobFromJson, SynthRequestAndDefaults) {
  ServeOptions defaults;
  defaults.arch.W = 50;
  const FlowJob job = job_from_json(
      parse_json_object(R"({"op":"flow","synth_luts":200})"), defaults);
  EXPECT_EQ(job.name, "synth-200");
  EXPECT_EQ(job.opt.arch.W, 50u) << "defaults.arch must flow through";
  EXPECT_FALSE(job.opt.route.timing_driven);
  EXPECT_EQ(job.opt.timing_backend, "cmos");
}

TEST(JobFromJson, RejectsInvalidSpecs) {
  ServeOptions defaults;
  EXPECT_THROW(job_from_json(parse_json_object(R"({"op":"flow"})"), defaults),
               std::runtime_error);
  EXPECT_THROW(
      job_from_json(parse_json_object(R"({"op":"flow","synth_luts":0})"),
                    defaults),
      std::runtime_error);
  EXPECT_THROW(
      job_from_json(
          parse_json_object(R"({"op":"flow","benchmark":"tseng","w":1})"),
          defaults),
      std::runtime_error);
  EXPECT_THROW(job_from_json(parse_json_object(
                                 R"({"op":"flow","benchmark":"tseng",)"
                                 R"("variant":"ecl"})"),
                             defaults),
               std::runtime_error);

  // Numeric fields are range-checked before any cast: non-finite,
  // negative, fractional and out-of-range values are rejected with an
  // error naming the field.
  const auto rejects = [&](const char* body, const char* field) {
    try {
      job_from_json(parse_json_object(body), defaults);
      ADD_FAILURE() << "accepted " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << body << " -> " << e.what();
    }
  };
  rejects(R"({"op":"flow","synth_luts":-1})", "synth_luts");
  rejects(R"({"op":"flow","synth_luts":nan})", "synth_luts");
  rejects(R"({"op":"flow","synth_luts":1e30})", "synth_luts");
  rejects(R"({"op":"flow","synth_luts":2.5})", "synth_luts");
  rejects(R"({"op":"flow","synth_luts":100,"inputs":-4})", "inputs");
  rejects(R"({"op":"flow","synth_luts":100,"outputs":inf})", "outputs");
  rejects(R"({"op":"flow","synth_luts":100,"latches":1e300})", "latches");
  rejects(R"({"op":"flow","synth_luts":100,"locality":nan})", "locality");
  rejects(R"({"op":"flow","benchmark":"tseng","w":nan})", "w");
  rejects(R"({"op":"flow","benchmark":"tseng","w":1e30})", "w");
  rejects(R"({"op":"flow","benchmark":"tseng","w":64.5})", "w");
  rejects(R"({"op":"flow","benchmark":"tseng","seed":-1})", "seed");
  rejects(R"({"op":"flow","benchmark":"tseng","seed":1e300})", "seed");
  rejects(R"({"op":"flow","benchmark":"tseng","seed":-inf})", "seed");
}

// ---------------------------------------------------------------------
// Scheduler.

TEST(JobScheduler, RunsJobsAndCounts) {
  ArtifactCache cache;
  JobScheduler sched(cache, 2);
  EXPECT_EQ(sched.workers(), 2u);

  FlowJob job;
  job.name = "tseng";
  job.netlist = generate_benchmark("tseng");
  job.opt.arch.W = 64;
  std::future<FlowJobResult> f1 = sched.submit(job);
  std::future<FlowJobResult> f2 = sched.submit(std::move(job));

  const FlowJobResult r1 = f1.get();
  const FlowJobResult r2 = f2.get();
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.tree_checksum, r2.tree_checksum)
      << "same job spec must give an identical routing";
  EXPECT_EQ(r1.w, 64u);
  EXPECT_GT(r1.route_iterations, 0u);
  EXPECT_GT(r1.wall_s, 0.0);

  const JobScheduler::Counters c = sched.counters();
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.failed, 0u);
  // Both jobs share one fabric: one build per artifact, reuse for the
  // rest (lookahead + RR graph at minimum).
  const ArtifactCache::Stats s = cache.stats();
  EXPECT_GE(s.hits + s.single_flight_waits, 1u);
}

TEST(JobScheduler, FlowFailureIsAResultNotACrash) {
  ArtifactCache cache;
  JobScheduler sched(cache, 1);
  FlowJob job;
  job.name = "unroutable";
  job.netlist = generate_benchmark("tseng");
  job.opt.arch.W = 2;  // far below Wmin — router must give up
  const FlowJobResult r = sched.submit(std::move(job)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(sched.counters().failed, 1u);
}

// ---------------------------------------------------------------------
// Socket round-trip.

class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
  }

  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST(ServeServer, SocketRoundTrip) {
  ServeOptions opt;
  opt.port = 0;  // ephemeral
  opt.workers = 2;
  ServeServer server(opt);
  ASSERT_GT(server.port(), 0);
  std::thread runner([&] { server.run(); });

  {
    LineClient client(server.port());
    // Pipelined: both jobs land on the scheduler before either response
    // is read; responses must come back in request order.
    client.send_line(
        R"({"op":"flow","id":1,"benchmark":"tseng","w":64,"seed":1})");
    client.send_line(
        R"({"op":"flow","id":2,"benchmark":"tseng","w":64,"seed":2})");
    client.send_line(R"({"op":"bogus","id":3})");
    client.send_line("{malformed");

    const JsonObject r1 = parse_json_object(client.recv_line());
    EXPECT_EQ(r1.get_number("id"), 1.0);
    EXPECT_TRUE(r1.get_bool("ok"));
    EXPECT_EQ(r1.get_number("w"), 64.0);
    EXPECT_EQ(r1.get_string("tree_checksum").substr(0, 2), "0x");

    const JsonObject r2 = parse_json_object(client.recv_line());
    EXPECT_EQ(r2.get_number("id"), 2.0);
    EXPECT_TRUE(r2.get_bool("ok"));
    EXPECT_NE(r2.get_string("tree_checksum"), r1.get_string("tree_checksum"))
        << "different placement seeds should route differently";

    const JsonObject r3 = parse_json_object(client.recv_line());
    EXPECT_EQ(r3.get_number("id"), 3.0);
    EXPECT_FALSE(r3.get_bool("ok", true));

    const JsonObject r4 = parse_json_object(client.recv_line());
    EXPECT_FALSE(r4.get_bool("ok", true))
        << "malformed request must error, not kill the connection";

    client.send_line(R"({"op":"stats"})");
    const JsonObject st = parse_json_object(client.recv_line());
    EXPECT_TRUE(st.get_bool("ok"));
    EXPECT_EQ(st.get_number("jobs_completed"), 2.0);
    EXPECT_GE(st.get_number("cache_misses"), 1.0);
    EXPECT_GE(st.get_number("cache_hits") +
                  st.get_number("cache_single_flight_waits"),
              1.0)
        << "second tseng job must reuse the first one's artifacts";
    EXPECT_GT(st.get_number("cache_resident_bytes"), 0.0);

    client.send_line(R"({"op":"shutdown","id":9})");
    const JsonObject bye = parse_json_object(client.recv_line());
    EXPECT_EQ(bye.get_number("id"), 9.0);
    EXPECT_TRUE(bye.get_bool("shutting_down"));
  }
  runner.join();
}

TEST(ServeServer, HandleRequestLineIsTheSynchronousPath) {
  ServeOptions opt;
  opt.port = 0;
  opt.workers = 1;
  ServeServer server(opt);

  const JsonObject r = parse_json_object(server.handle_request_line(
      R"({"op":"flow","benchmark":"tseng","w":64})"));
  EXPECT_TRUE(r.get_bool("ok"));
  EXPECT_EQ(r.get_string("name"), "tseng");

  const JsonObject e =
      parse_json_object(server.handle_request_line(R"({"op":"nope"})"));
  EXPECT_FALSE(e.get_bool("ok", true));
  server.shutdown();
}

}  // namespace
}  // namespace nemfpga
