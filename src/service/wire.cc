#include "service/wire.h"

#include <utility>

#include "common/strings.h"
#include "serialize/frame.h"

namespace flor {
namespace wire {

namespace {

/// Parses a meta section of exactly `keys.size()` "key\tvalue" lines in
/// the given order. Anything else — missing key, extra line, reordered
/// lines — is Corruption: encoders emit a fixed shape, so deviation
/// means the bytes were not produced by EncodeRequest/EncodeResponse.
Result<std::vector<std::string>> ParseMetaValues(
    const std::string& section, const std::vector<const char*>& keys) {
  const std::vector<std::string> lines = StrSplit(section, '\n');
  if (lines.size() != keys.size()) {
    return Status::Corruption(
        StrCat("wire meta: expected ", keys.size(), " lines, got ",
               lines.size()));
  }
  std::vector<std::string> values;
  values.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t tab = lines[i].find('\t');
    if (tab == std::string::npos ||
        lines[i].compare(0, tab, keys[i]) != 0) {
      return Status::Corruption(
          StrCat("wire meta: expected key '", keys[i], "' on line ", i));
    }
    values.push_back(lines[i].substr(tab + 1));
  }
  return values;
}

Result<int64_t> MetaInt(const std::string& value, const char* key) {
  int64_t out = 0;
  if (!ParseI64(value, &out)) {
    return Status::Corruption(
        StrCat("wire meta: '", key, "' is not an integer: '", value, "'"));
  }
  return out;
}

Result<double> MetaDouble(const std::string& value, const char* key) {
  double out = 0;
  if (!ParseF64(value, &out)) {
    return Status::Corruption(
        StrCat("wire meta: '", key, "' is not a double: '", value, "'"));
  }
  return out;
}

}  // namespace

std::string EncodeRequest(const Request& req) {
  std::string meta;
  meta += StrCat("op\t", req.op, "\n");
  meta += StrCat("tenant\t", req.tenant, "\n");
  meta += StrCat("run\t", req.run, "\n");
  meta += StrCat("workload\t", req.workload, "\n");
  meta += StrCat("engine\t", req.engine, "\n");
  meta += StrCat("workers\t", req.workers, "\n");
  meta += StrCat("loop_id\t", req.loop_id);
  return EncodeSections(kRequestTag, {meta, req.ctx});
}

Result<Request> DecodeRequest(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kRequestTag, message));
  if (sections.size() != 2) {
    return Status::Corruption(
        StrCat("wire request: expected 2 sections, got ", sections.size()));
  }
  FLOR_ASSIGN_OR_RETURN(
      std::vector<std::string> values,
      ParseMetaValues(sections[0], {"op", "tenant", "run", "workload",
                                    "engine", "workers", "loop_id"}));
  Request req;
  req.op = values[0];
  req.tenant = values[1];
  req.run = values[2];
  req.workload = values[3];
  req.engine = values[4];
  FLOR_ASSIGN_OR_RETURN(req.workers, MetaInt(values[5], "workers"));
  FLOR_ASSIGN_OR_RETURN(const int64_t loop, MetaInt(values[6], "loop_id"));
  if (loop < INT32_MIN || loop > INT32_MAX) {
    return Status::Corruption(
        StrCat("wire request: loop_id out of range: ", loop));
  }
  req.loop_id = static_cast<int32_t>(loop);
  req.ctx = std::move(sections[1]);
  return req;
}

std::string EncodeResponse(const Response& res) {
  std::vector<std::string> sections;
  sections.reserve(res.payload.size() + 2);
  sections.push_back(StrCat("code\t", res.code));
  sections.push_back(res.message);
  for (const std::string& p : res.payload) sections.push_back(p);
  return EncodeSections(kResponseTag, sections);
}

Result<Response> DecodeResponse(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kResponseTag, message));
  if (sections.size() < 2) {
    return Status::Corruption(
        StrCat("wire response: expected >= 2 sections, got ",
               sections.size()));
  }
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> values,
                        ParseMetaValues(sections[0], {"code"}));
  Response res;
  FLOR_ASSIGN_OR_RETURN(res.code, MetaInt(values[0], "code"));
  if (!IsValidStatusCode(res.code)) {
    return Status::Corruption(
        StrCat("wire response: invalid status code ", res.code));
  }
  res.message = std::move(sections[1]);
  res.payload.assign(std::make_move_iterator(sections.begin() + 2),
                     std::make_move_iterator(sections.end()));
  return res;
}

Status Response::ToStatus() const {
  if (ok()) return Status::OK();
  return Status(static_cast<StatusCode>(code), message);
}

Response ErrorResponse(const Status& status) {
  Response res;
  res.code = static_cast<int64_t>(status.code());
  res.message = status.message();
  return res;
}

Response MakeRecordReply(const RecordReply& reply) {
  Response res;
  std::string meta;
  meta += StrCat("checkpoints\t", reply.checkpoints, "\n");
  meta += StrCat("runtime_seconds\t",
                 StrFormat("%a", reply.runtime_seconds), "\n");
  meta += StrCat("admission_wait_seconds\t",
                 StrFormat("%a", reply.admission_wait_seconds));
  res.payload = {meta, reply.manifest};
  return res;
}

Result<RecordReply> ParseRecordReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  if (res.payload.size() != 2) {
    return Status::Corruption(
        StrCat("record reply: expected 2 payload sections, got ",
               res.payload.size()));
  }
  FLOR_ASSIGN_OR_RETURN(
      std::vector<std::string> values,
      ParseMetaValues(res.payload[0], {"checkpoints", "runtime_seconds",
                                       "admission_wait_seconds"}));
  RecordReply reply;
  FLOR_ASSIGN_OR_RETURN(reply.checkpoints,
                        MetaInt(values[0], "checkpoints"));
  FLOR_ASSIGN_OR_RETURN(reply.runtime_seconds,
                        MetaDouble(values[1], "runtime_seconds"));
  FLOR_ASSIGN_OR_RETURN(reply.admission_wait_seconds,
                        MetaDouble(values[2], "admission_wait_seconds"));
  reply.manifest = res.payload[1];
  return reply;
}

Response MakeReplayReply(const ReplayReply& reply) {
  Response res;
  std::string meta;
  meta += StrCat("workers_used\t", reply.workers_used, "\n");
  meta += StrCat("latency_seconds\t",
                 StrFormat("%a", reply.latency_seconds), "\n");
  meta += StrCat("wall_seconds\t", StrFormat("%a", reply.wall_seconds),
                 "\n");
  meta += StrCat("bucket_faults\t", reply.bucket_faults, "\n");
  meta += StrCat("bloom_skipped_probes\t", reply.bloom_skipped_probes,
                 "\n");
  meta += StrCat("deferred_ok\t", reply.deferred_ok ? 1 : 0);
  res.payload = {meta, reply.merged_logs};
  return res;
}

Result<ReplayReply> ParseReplayReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  if (res.payload.size() != 2) {
    return Status::Corruption(
        StrCat("replay reply: expected 2 payload sections, got ",
               res.payload.size()));
  }
  FLOR_ASSIGN_OR_RETURN(
      std::vector<std::string> values,
      ParseMetaValues(res.payload[0],
                      {"workers_used", "latency_seconds", "wall_seconds",
                       "bucket_faults", "bloom_skipped_probes",
                       "deferred_ok"}));
  ReplayReply reply;
  FLOR_ASSIGN_OR_RETURN(reply.workers_used,
                        MetaInt(values[0], "workers_used"));
  FLOR_ASSIGN_OR_RETURN(reply.latency_seconds,
                        MetaDouble(values[1], "latency_seconds"));
  FLOR_ASSIGN_OR_RETURN(reply.wall_seconds,
                        MetaDouble(values[2], "wall_seconds"));
  FLOR_ASSIGN_OR_RETURN(reply.bucket_faults,
                        MetaInt(values[3], "bucket_faults"));
  FLOR_ASSIGN_OR_RETURN(reply.bloom_skipped_probes,
                        MetaInt(values[4], "bloom_skipped_probes"));
  FLOR_ASSIGN_OR_RETURN(const int64_t deferred,
                        MetaInt(values[5], "deferred_ok"));
  if (deferred != 0 && deferred != 1) {
    return Status::Corruption(
        StrCat("replay reply: deferred_ok must be 0/1, got ", deferred));
  }
  reply.deferred_ok = deferred == 1;
  reply.merged_logs = res.payload[1];
  return reply;
}

Response MakeQueryReply(const QueryReply& reply) {
  Response res;
  res.payload.reserve(reply.runs.size() + 1);
  res.payload.push_back(StrCat("runs\t", reply.runs.size()));
  for (const RunInfo& run : reply.runs) {
    std::string section;
    section += StrCat("prefix\t", run.prefix, "\n");
    section += StrCat("workload\t", run.workload, "\n");
    section += StrCat("record_runtime_seconds\t",
                      StrFormat("%a", run.record_runtime_seconds), "\n");
    section += StrCat("checkpoints\t", run.checkpoints);
    res.payload.push_back(std::move(section));
  }
  return res;
}

Result<QueryReply> ParseQueryReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  if (res.payload.empty()) {
    return Status::Corruption("query reply: missing count section");
  }
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> head,
                        ParseMetaValues(res.payload[0], {"runs"}));
  FLOR_ASSIGN_OR_RETURN(const int64_t count, MetaInt(head[0], "runs"));
  if (count < 0 || static_cast<size_t>(count) != res.payload.size() - 1) {
    return Status::Corruption(
        StrCat("query reply: declares ", count, " runs but ",
               res.payload.size() - 1, " sections follow"));
  }
  QueryReply reply;
  reply.runs.reserve(static_cast<size_t>(count));
  for (size_t i = 1; i < res.payload.size(); ++i) {
    FLOR_ASSIGN_OR_RETURN(
        std::vector<std::string> values,
        ParseMetaValues(res.payload[i],
                        {"prefix", "workload", "record_runtime_seconds",
                         "checkpoints"}));
    RunInfo run;
    run.prefix = values[0];
    run.workload = values[1];
    FLOR_ASSIGN_OR_RETURN(
        run.record_runtime_seconds,
        MetaDouble(values[2], "record_runtime_seconds"));
    FLOR_ASSIGN_OR_RETURN(run.checkpoints,
                          MetaInt(values[3], "checkpoints"));
    reply.runs.push_back(std::move(run));
  }
  return reply;
}

Response MakeExistsReply(const ExistsReply& reply) {
  Response res;
  res.payload = {StrCat("exists\t", reply.exists ? 1 : 0)};
  return res;
}

Result<ExistsReply> ParseExistsReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  if (res.payload.size() != 1) {
    return Status::Corruption(
        StrCat("exists reply: expected 1 payload section, got ",
               res.payload.size()));
  }
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> values,
                        ParseMetaValues(res.payload[0], {"exists"}));
  FLOR_ASSIGN_OR_RETURN(const int64_t flag, MetaInt(values[0], "exists"));
  if (flag != 0 && flag != 1) {
    return Status::Corruption(
        StrCat("exists reply: flag must be 0/1, got ", flag));
  }
  ExistsReply reply;
  reply.exists = flag == 1;
  return reply;
}

const char* EngineName(ReplayEngine engine) {
  switch (engine) {
    case ReplayEngine::kSimulated:
      return "sim";
    case ReplayEngine::kThreads:
      return "threads";
    case ReplayEngine::kProcesses:
      return "procs";
  }
  return "sim";
}

Result<ReplayEngine> ParseEngine(const std::string& name) {
  if (name == "sim") return ReplayEngine::kSimulated;
  if (name == "threads") return ReplayEngine::kThreads;
  if (name == "procs") return ReplayEngine::kProcesses;
  return Status::InvalidArgument(
      StrCat("unknown replay engine '", name,
             "' (expected sim, threads, or procs)"));
}

}  // namespace wire
}  // namespace flor
