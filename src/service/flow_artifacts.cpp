#include "service/flow_artifacts.hpp"

#include <cstdio>

#include "device/switch_tech.hpp"
#include "timing/variant.hpp"

namespace nemfpga {
namespace {

void append_double(std::string& s, const char* name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",%s=%.17g", name, v);
  s += buf;
}

void append_size(std::string& s, const char* name, std::size_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",%s=%zu", name, v);
  s += buf;
}

/// The fabric fields every artifact keys on (grid + cluster/segment/
/// switch geometry). W / fc / dense_fanout are appended only by the
/// artifacts that depend on them.
std::string fabric_prefix(const ArchParams& a, std::size_t nx,
                          std::size_t ny) {
  std::string s;
  append_size(s, "N", a.N);
  append_size(s, "K", a.K);
  append_size(s, "L", a.L);
  append_size(s, "fs", a.fs);
  append_size(s, "iopp", a.io_per_pad);
  append_size(s, "nx", nx);
  append_size(s, "ny", ny);
  s += ",sb=";
  s += sb_pattern_name(a.sb_pattern);
  if (a.sb_pattern == SbPattern::kCustom) {
    append_size(s, "sbrot", a.sb_custom_rot);
  }
  return s;
}

void append_width_fields(std::string& s, const ArchParams& a) {
  append_size(s, "W", a.W);
  append_double(s, "fci", a.fc_in);
  append_double(s, "fco", a.fc_out);
  append_size(s, "dense", a.dense_fanout ? 1 : 0);
}

std::size_t delay_model_bytes(const DelayModel& m) {
  return sizeof(DelayModel) + m.node_delay.size() * sizeof(double);
}

}  // namespace

std::string rr_graph_key(const ArchParams& arch, std::size_t nx,
                         std::size_t ny, RrBackend backend) {
  std::string s = backend == RrBackend::kImplicit ? "irr/" : "rr/";
  s += fabric_prefix(arch, nx, ny);
  append_width_fields(s, arch);
  return s;
}

std::string lookahead_key(const ArchParams& arch, std::size_t nx,
                          std::size_t ny, const DelayProfile* delay) {
  std::string s = "la/";
  s += fabric_prefix(arch, nx, ny);
  if (delay != nullptr) {
    append_double(s, "tws", delay->t_wire_stage);
    append_double(s, "tip", delay->t_input_path);
  }
  return s;
}

std::string delay_model_key(const ArchParams& arch, std::size_t nx,
                            std::size_t ny, std::string_view backend) {
  std::string s = "dm/";
  s += fabric_prefix(arch, nx, ny);
  append_width_fields(s, arch);
  s += ",tech=";
  // Canonicalize through the registry so legacy alias spellings ("nem",
  // "nem_opt") share the canonical name's cache entry.
  s += switch_technology(backend).name();
  return s;
}

std::string delay_model_key(const ArchParams& arch, std::size_t nx,
                            std::size_t ny, FpgaVariant variant) {
  return delay_model_key(arch, nx, ny, variant_backend_name(variant));
}

FlowArtifacts make_flow_artifacts(ArtifactCache* cache,
                                  const ArchParams& arch, std::size_t nx,
                                  std::size_t ny, const RouteOptions& ropt,
                                  std::string_view timing_backend) {
  FlowArtifacts a;
  if (ropt.rr_backend == RrBackend::kImplicit) {
    const auto build = [&] {
      return std::make_shared<const ImplicitRrGraph>(arch, nx, ny);
    };
    if (cache != nullptr) {
      bool built = false;
      a.irr = cache->get_or_build<ImplicitRrGraph>(
          rr_graph_key(arch, nx, ny, RrBackend::kImplicit), build,
          [](const ImplicitRrGraph& g) { return g.memory_bytes(); }, &built);
      a.rr_from_cache = !built;
    } else {
      a.irr = build();
    }
  } else {
    const auto build = [&] {
      return std::make_shared<const RrGraph>(arch, nx, ny);
    };
    if (cache != nullptr) {
      bool built = false;
      a.rr = cache->get_or_build<RrGraph>(
          rr_graph_key(arch, nx, ny, RrBackend::kExplicit), build,
          [](const RrGraph& g) { return g.memory_bytes(); }, &built);
      a.rr_from_cache = !built;
    } else {
      a.rr = build();
    }
  }
  const RrGraphView gv = a.view();

  if (ropt.timing_driven) {
    const auto build = [&] {
      return std::make_shared<const DelayModel>(
          make_delay_model(gv, make_view(arch, timing_backend)));
    };
    if (cache != nullptr) {
      bool built = false;
      a.delay_model = cache->get_or_build<DelayModel>(
          delay_model_key(arch, nx, ny, timing_backend), build,
          delay_model_bytes, &built);
      a.delay_model_from_cache = !built;
    } else {
      a.delay_model = build();
    }
  }

  if (!ropt.lookahead) {
    const DelayProfile* prof =
        a.delay_model ? &a.delay_model->profile : nullptr;
    const auto build = [&] {
      return std::make_shared<const RouteLookahead>(gv, prof);
    };
    if (cache != nullptr) {
      bool built = false;
      a.lookahead = cache->get_or_build<RouteLookahead>(
          lookahead_key(arch, nx, ny, prof), build,
          [](const RouteLookahead& la) { return la.memory_bytes(); },
          &built);
      a.lookahead_from_cache = !built;
      if (built) a.lookahead_build_s = a.lookahead->build_seconds();
    } else {
      a.lookahead = build();
      a.lookahead_build_s = a.lookahead->build_seconds();
    }
  }
  return a;
}

}  // namespace nemfpga
