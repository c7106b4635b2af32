#pragma once
// The job table (DESIGN.md §14). Every job kind the daemon serves — flow,
// scenario, evolve, lint and sta — is one struct here that declares, once:
//
//   kName      the CLI command, the `sctune client` op, the SCTB payload
//              section and the response-cache digest tag
//   kType      its SCTP MessageType
//   kRevision  bumped when the kind's output changes for unchanged fields
//              (lint carries its rule-pack version), so stale cached
//              responses can never be served
//   fields()   every request field, in wire order, named after its CLI flag
//   run()      the computation: {exitCode, summary, body}
//
// Everything else derives from fields(): the SCTB codec, the cache digest,
// the CLI argument resolver (tools/sctune_cli.cpp) and the daemon handler
// (TuningService). The CLI runs the same run() in-process, so a daemon
// response is byte-identical to the local command by construction, and a
// field added to a kind enters its wire format and cache key automatically.
// The request deadline travels after the fields and never enters the key.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "artifact/fields.hpp"
#include "artifact/hash.hpp"
#include "artifact/mem_cache.hpp"
#include "artifact/store.hpp"
#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "lint/engine.hpp"
#include "postsi/scenario.hpp"
#include "server/protocol.hpp"

namespace sct::server {

/// A file operand: the CLI reads `path` and ships `text`, so the daemon
/// never touches the client's filesystem.
struct FileArg {
  std::string path;
  std::string text;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("path", s.path);
    v("text", s.text);
  }
};

/// Whether the CLI resolver insists on a field's flag. The codec and the
/// digest ignore it.
enum class Need : std::uint8_t { kOptional, kRequired };

/// What one job produced: the CLI exit code, the one-line human summary and
/// the body document (report text or JSON).
struct JobResult {
  int exitCode = 0;
  std::string summary;
  std::string body;
};

/// Cache tiers a job's flow shares with its caller (the daemon's, or the
/// CLI's --cache-dir store). Null disables a tier; tiers never change
/// results.
struct JobContext {
  artifact::ArtifactStore* store = nullptr;
  artifact::MemoryArtifactCache* memCache = nullptr;
};

// Each fields() takes the job as a template so one list serves const
// (encode, digest) and mutable (decode, CLI) visitors alike. The visitor is
// called as v(flag, member[, need]) in wire order; a need may depend on
// fields visited before it.

struct FlowKind {
  static constexpr const char* kName = "flow";
  static constexpr MessageType kType = MessageType::kFlowRequest;
  static constexpr std::uint32_t kRevision = 1;
  using Job = core::FlowJob;

  template <class J, class V>
  static void fields(J& j, V&& v) {
    v("profile", j.profile);
    v("workload", j.workload);
    v("period", j.period, Need::kRequired);
    v("method", j.method);
    v("value", j.value, j.method.empty() ? Need::kOptional : Need::kRequired);
    v("mc", j.mcCount);
    v("seed", j.mcSeed);
    v("lint-mode", j.lintMode);
  }
  static JobResult run(const Job& job, const JobContext& context);
};

struct ScenarioKind {
  static constexpr const char* kName = "scenario";
  static constexpr MessageType kType = MessageType::kScenarioRequest;
  static constexpr std::uint32_t kRevision = 1;
  struct Job {
    /// scenario.mcSeed is not a field: run() takes it from --seed, which
    /// seeds both the flow and the scenario Monte Carlo.
    postsi::ScenarioJob scenario;
    bool json = false;  ///< JSON body instead of "scenario-report v1"
  };

  template <class J, class V>
  static void fields(J& j, V&& v) {
    auto& s = j.scenario;
    v("profile", s.flow.profile);
    v("workload", s.flow.workload);
    v("method", s.flow.method);
    v("value", s.flow.value,
      s.flow.method.empty() ? Need::kOptional : Need::kRequired);
    v("mc", s.flow.mcCount);
    v("seed", s.flow.mcSeed);
    v("lint-mode", s.flow.lintMode);
    v("periods", s.periods);
    // Base of the paper's period set, used when no explicit list is given.
    v("period", s.flow.period,
      s.periods.empty() ? Need::kRequired : Need::kOptional);
    v("scenarios", s.scenarios);
    v("tune-range-min", s.element.rangeMin);
    v("tune-range-max", s.element.rangeMax);
    v("tune-step", s.element.step);
    v("tune-area", s.element.areaPerElement);
    v("trials", s.mcTrials);
    v("json", j.json);
  }
  static JobResult run(const Job& job, const JobContext& context);
};

struct EvolveKind {
  static constexpr const char* kName = "evolve";
  static constexpr MessageType kType = MessageType::kEvolveRequest;
  static constexpr std::uint32_t kRevision = 1;
  struct Job {
    evo::EvolveJob evolve;  ///< flow.method/value unused: the tuner explores
    bool json = false;      ///< JSON body instead of "evolve-report v1"
  };

  template <class J, class V>
  static void fields(J& j, V&& v) {
    auto& flow = j.evolve.flow;
    auto& params = j.evolve.params;
    v("profile", flow.profile);
    v("workload", flow.workload);
    v("period", flow.period, Need::kRequired);
    v("mc", flow.mcCount);
    v("seed", flow.mcSeed);
    v("lint-mode", flow.lintMode);
    v("population", params.population);
    v("generations", params.generations);
    v("objectives", params.objectives);
    v("gene-min", params.geneMin);
    v("gene-max", params.geneMax);
    v("evo-seed", params.seed);
    v("json", j.json);
  }
  static JobResult run(const Job& job, const JobContext& context);
};

struct LintKind {
  static constexpr const char* kName = "lint";
  static constexpr MessageType kType = MessageType::kLintRequest;
  static constexpr std::uint32_t kRevision = lint::kRulePackVersion;
  /// The positional operand (`sctune [client] lint <artifact>`) fills this
  /// field.
  static constexpr const char* kOperand = "path";
  struct Job {
    FileArg path;      ///< the artifact to lint
    std::string type;  ///< lib|stat|netlist|constraints; empty = infer from
                       ///< the path's extension
    FileArg ref;       ///< optional nominal library for the cross-checks
    bool json = false;
    bool sarif = false;
  };

  template <class J, class V>
  static void fields(J& j, V&& v) {
    v("path", j.path, Need::kRequired);
    v("type", j.type);
    v("ref", j.ref);
    v("json", j.json);
    v("sarif", j.sarif);
  }
  static JobResult run(const Job& job, const JobContext& context);
};

struct StaKind {
  static constexpr const char* kName = "sta";
  static constexpr MessageType kType = MessageType::kStaRequest;
  static constexpr std::uint32_t kRevision = 1;
  struct Job {
    FileArg lib;
    FileArg netlist;
    double period = 0.0;
  };

  template <class J, class V>
  static void fields(J& j, V&& v) {
    v("lib", j.lib, Need::kRequired);
    v("netlist", j.netlist, Need::kRequired);
    v("period", j.period, Need::kRequired);
  }
  static JobResult run(const Job& job, const JobContext& context);
};

/// Calls f(std::type_identity<Kind>{}) for each kind in table order until
/// one returns true; returns whether any did.
template <class F>
bool anyKind(F&& f) {
  return f(std::type_identity<FlowKind>{}) ||
         f(std::type_identity<ScenarioKind>{}) ||
         f(std::type_identity<EvolveKind>{}) ||
         f(std::type_identity<LintKind>{}) || f(std::type_identity<StaKind>{});
}

/// A job request on the wire: the kind's fields, then the deadline.
template <class Kind>
struct JobRequest {
  typename Kind::Job job{};
  std::uint64_t deadlineMillis = 0;  ///< 0 = no deadline

  static constexpr const char* kSection = Kind::kName;
  template <class S, class V>
  static void fields(S& s, V&& v) {
    Kind::fields(s.job, v);
    v("deadline-ms", s.deadlineMillis);
  }
};

/// The flow request under its historical name (bench drivers build it).
using FlowRequest = JobRequest<FlowKind>;

/// Response-cache key: the kind tag, then the canonical encoding of every
/// field. The deadline is not a field, so it never splits the cache.
template <class Kind>
[[nodiscard]] artifact::Digest requestDigest(const typename Kind::Job& job) {
  artifact::Hasher hasher;
  hasher.str("sctp-job").str(Kind::kName).u32(Kind::kRevision);
  Kind::fields(job, artifact::Emit<artifact::Hasher>{hasher});
  return hasher.digest();
}

[[nodiscard]] inline std::vector<std::byte> encodeFlowRequest(
    const FlowRequest& request) {
  return encodePayload(request);
}

}  // namespace sct::server
