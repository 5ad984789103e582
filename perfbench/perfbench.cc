// flor_perfbench — one measured run of one benchmark workload.
//
// Drives flor end to end: WireClient (unix socket) -> flor::Server ->
// Session -> admission -> record / replay / query / exists -> checkpoint
// store, spool and GC -> PosixFileSystem, on a fresh root under --workdir,
// with a WallClock and no simulated device time (wall_batch_seconds = 0),
// so every number is flor's own cost.
//
//   flor_perfbench --workload ingest|lookup|replay --seed N --seconds S
//                    --trace 0|1 --workdir DIR --out RAW.json
//                    [--spans SPANS.tsv]
//
// The load is a closed loop: at most four clients, each a thread holding
// one WireClient with a fixed operation list generated from --seed. The
// list length scales with --seconds, but the run ends when every list is
// done and Connection::DrainBackground() returns, never on a timer, so
// the work done is the same from run to run. Every answer is checked; a
// wrong one is counted as failed. The raw samples and counters go to
// --out as JSON, which perfbench/run.py turns into the metrics.
//
// --trace 1 hands flor a counting FileSystem and factory wrappers and
// records spans (probe.h); --trace 0 hands it the bare PosixFileSystem.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checkpoint/store.h"
#include "common/strings.h"
#include "env/env.h"
#include "env/filesystem.h"
#include "probe.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "workloads/programs.h"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;
using flor::CheckpointKey;
using flor::Manifest;
using flor::ProgramFactory;
using flor::Result;
using flor::Status;
using flor::StrCat;

constexpr const char* kRoot = "flor";
constexpr const char* kBucket = "bucket";
/// Set-ups per run; the last one serves the measured phase and setup_s is
/// their median.
constexpr int kSetups = 5;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "flor_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Programs. Tiny real models; sizes are the knobs BENCHMARK.json names.
// ---------------------------------------------------------------------------

flor::workloads::WorkloadProfile Profile(const std::string& name) {
  flor::workloads::WorkloadProfile p;
  p.name = name;
  p.benchmark = "perfbench";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.wall_batch_seconds = 0;  // device time zeroed: measure flor only
  p.task_kind = flor::data::Task::kVision;
  p.real_classes = 4;
  p.real_batch = 16;
  if (name == "wide") {  // ingest: a few hundred KB per checkpoint
    p.epochs = 4;
    p.real_samples = 64;
    p.real_feature_dim = 64;
    p.real_hidden = 192;
    p.seed = 7101;
  } else if (name == "small") {  // lookup catalog runs
    p.epochs = 3;
    p.real_samples = 32;
    p.real_feature_dim = 8;
    p.real_hidden = 8;
    p.seed = 7102;
  } else if (name == "exec") {  // replay: the real-engine bench shape
    p.epochs = 8;
    p.real_samples = 128;
    p.real_feature_dim = 24;
    p.real_hidden = 24;
    p.seed = 7103;
  }
  return p;
}

struct ProgramSpec {
  ProgramFactory record;  ///< no probes
  ProgramFactory probed;  ///< kProbeInner (hindsight replay)
  flor::SessionRecordOptions options;
  int64_t epochs = 0;
};

std::map<std::string, ProgramSpec> BuildPrograms() {
  std::map<std::string, ProgramSpec> out;
  for (const char* name : {"wide", "small", "exec"}) {
    const auto profile = Profile(name);
    ProgramSpec spec;
    spec.record = flor::workloads::MakeWorkloadFactory(
        profile, flor::workloads::kProbeNone);
    spec.probed = flor::workloads::MakeWorkloadFactory(
        profile, flor::workloads::kProbeInner);
    const flor::RecordOptions defaults =
        flor::workloads::DefaultRecordOptions(profile, "");
    spec.options.workload = defaults.workload;
    spec.options.materializer = defaults.materializer;
    spec.options.adaptive = defaults.adaptive;
    // Checkpoint every epoch: the adaptive controller keys off measured
    // wall time, which would make the checkpoint count vary run to run.
    spec.options.adaptive.enabled = false;
    spec.options.nominal_checkpoint_bytes = 0;
    spec.epochs = profile.epochs;
    out.emplace(name, std::move(spec));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation lists.
// ---------------------------------------------------------------------------

enum class OpKind { kRecord, kReplay, kQuery, kExists };

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kRecord: return "record";
    case OpKind::kReplay: return "replay";
    case OpKind::kQuery: return "query";
    case OpKind::kExists: return "exists";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kQuery;
  std::string run;     ///< record / replay / exists (fixed key)
  std::string engine;  ///< replay
  /// Exists: a present key is drawn at run time from the client's own
  /// record replies (`pick` selects run and checkpoint); a fixed key is
  /// used when `fixed` is set.
  bool present = false;
  bool fixed = false;
  CheckpointKey key;
  uint64_t pick = 0;
};

struct ClientPlan {
  std::string tenant;
  std::string program;  ///< record/replay spec base
  bool steady = false;  ///< counts toward steady_wait
  std::vector<Op> ops;
};

/// A preloaded run a client may probe.
struct KnownRun {
  std::string run;
  Manifest manifest;
};

struct WorkloadConfig {
  flor::ConnectionOptions conn;
  /// Preloaded runs per tenant (program, count).
  std::map<std::string, std::pair<std::string, int>> preload;
  std::vector<ClientPlan> clients;
};

flor::ConnectionOptions BaseConnection() {
  flor::ConnectionOptions c;
  c.root = kRoot;
  c.ckpt_shards = 2;
  c.tier.bucket_prefix = kBucket;
  c.tier.bloom_filter = true;
  c.gc.keep_last_k = 1;  // background GC demotes all but the newest epoch
  return c;
}

int Scaled(double per_second, double seconds, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(per_second *
                                                        seconds)));
}

/// A key no record ever writes: a real loop id with an out-of-range epoch.
CheckpointKey AbsentKey(int32_t loop_id, std::mt19937_64* rng) {
  CheckpointKey key;
  key.loop_id = loop_id;
  key.ctx = StrCat("e=", 1000 + static_cast<int>((*rng)() % 100000));
  return key;
}

constexpr int kIngestPreloadRuns = 3;

WorkloadConfig MakeIngest(double seconds, uint64_t seed) {
  WorkloadConfig w;
  w.conn = BaseConnection();
  w.conn.max_concurrent_records = 2;
  w.conn.max_records_per_tenant = 1;
  // Tenant `burst` records back to back on two clients.
  const int burst_records = Scaled(5.6, seconds, 4);
  for (int c = 0; c < 2; ++c) {
    ClientPlan plan;
    plan.tenant = "burst";
    plan.program = "wide";
    for (int i = 0; i < burst_records; ++i) {
      Op op;
      op.kind = OpKind::kRecord;
      op.run = StrCat("b", c, "-", i);
      plan.ops.push_back(op);
    }
    w.clients.push_back(std::move(plan));
  }
  // Two steady tenants each loop record -> query -> a few exists, over a
  // small history recorded at set-up.
  const int loops = Scaled(4.5, seconds, 3);
  for (int c = 0; c < 2; ++c) {
    w.preload[StrCat("steady", c)] = {"wide", kIngestPreloadRuns};
    std::mt19937_64 rng(seed * 1000003u + 17u * static_cast<uint64_t>(c));
    ClientPlan plan;
    plan.tenant = StrCat("steady", c);
    plan.program = "wide";
    plan.steady = true;
    for (int i = 0; i < loops; ++i) {
      Op rec;
      rec.kind = OpKind::kRecord;
      rec.run = StrCat("s", c, "-", i);
      plan.ops.push_back(rec);
      Op query;
      query.kind = OpKind::kQuery;
      plan.ops.push_back(query);
      // Two present and two absent keys per loop, in seeded order: the
      // seed picks keys and order, never how much work a loop does.
      std::vector<bool> present = {true, true, false, false};
      std::shuffle(present.begin(), present.end(), rng);
      for (bool p : present) {
        Op ex;
        ex.kind = OpKind::kExists;
        ex.present = p;
        ex.pick = rng();
        plan.ops.push_back(ex);
      }
    }
    w.clients.push_back(std::move(plan));
  }
  return w;
}

/// Lookup ops need the preloaded manifests, so they are generated after
/// set-up from `catalog` (tenant -> runs, in record order).
/// Three readers run at once: one reader's scans sit on one vCPU and
/// follow its speed, several average over the host's vCPUs. Twenty runs
/// per tenant keep one scan of the root near 10 ms. The walk's time
/// follows the host: with one reader, ops_per_s spread (quartile distance
/// over median, ten seeds) 0.23 at sixty runs per tenant and 0.08 at twenty.
constexpr int kLookupReaders = 3;
constexpr int kLookupCatalogRuns = 20;

WorkloadConfig MakeLookupShape(double seconds) {
  WorkloadConfig w;
  w.conn = BaseConnection();
  for (int t = 0; t < kLookupReaders; ++t) {
    w.preload[StrCat("reader", t)] = {"small", kLookupCatalogRuns};
  }
  for (int t = 0; t < kLookupReaders; ++t) {
    ClientPlan plan;
    plan.tenant = StrCat("reader", t);
    plan.program = "small";
    w.clients.push_back(std::move(plan));
  }
  // The writer records new runs under its own tenant: a few percent of
  // the catalog, and the readers' answers stay exact.
  ClientPlan writer;
  writer.tenant = "writer";
  writer.program = "small";
  const int writes = Scaled(0.2, seconds, 2);
  for (int i = 0; i < writes; ++i) {
    Op op;
    op.kind = OpKind::kRecord;
    op.run = StrCat("w-", i);
    writer.ops.push_back(op);
  }
  w.clients.push_back(std::move(writer));
  return w;
}

void FillLookupReaders(
    WorkloadConfig* w, double seconds, uint64_t seed,
    const std::map<std::string, std::vector<KnownRun>>& catalog) {
  const int ops = Scaled(600.0, seconds, 50);
  for (int c = 0; c < kLookupReaders; ++c) {
    ClientPlan& plan = w->clients[static_cast<size_t>(c)];
    const std::vector<KnownRun>& runs = catalog.at(plan.tenant);
    std::mt19937_64 rng(seed * 7919u + 31u * static_cast<uint64_t>(c) + 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const int32_t loop_id = runs.front().manifest.records.front().key.loop_id;
    // Blocks of ten ops: one query at a fixed slot (staggered across
    // readers) and nine exists probes in seeded order, five present and
    // four absent or the reverse, alternating by block. The seed picks keys
    // and the probe order only, never how much work a reader does or when
    // its scans fall.
    enum Kind { kQ, kPresent, kAbsent };
    std::vector<Kind> kinds;
    for (int block = 0; block * 10 < ops; ++block) {
      std::vector<Kind> probes;
      for (int i = 0; i < 9; ++i)
        probes.push_back((i + block) % 2 == 0 ? kPresent : kAbsent);
      std::shuffle(probes.begin(), probes.end(), rng);
      probes.insert(probes.begin() + (3 * c) % 10, kQ);
      kinds.insert(kinds.end(), probes.begin(), probes.end());
    }
    kinds.resize(static_cast<size_t>(ops));
    for (const Kind kind : kinds) {
      Op op;
      if (kind == kQ) {
        op.kind = OpKind::kQuery;
      } else {
        op.kind = OpKind::kExists;
        op.fixed = true;
        op.present = kind == kPresent;
        // Favour recent runs: index from the back, quadratic skew.
        const double u = unit(rng);
        const size_t back = static_cast<size_t>(
            std::floor(u * u * static_cast<double>(runs.size())));
        const KnownRun& run = runs[runs.size() - 1 -
                                   std::min(back, runs.size() - 1)];
        op.run = run.run;
        if (op.present) {
          const auto& recs = run.manifest.records;
          op.key = recs[rng() % recs.size()].key;
        } else {
          op.key = AbsentKey(loop_id, &rng);
        }
      }
      plan.ops.push_back(op);
    }
  }
}

constexpr int kReplayTenants = 2;
constexpr int kReplayRunsPerTenant = 3;

WorkloadConfig MakeReplay(double seconds, uint64_t seed) {
  WorkloadConfig w;
  w.conn = BaseConnection();
  const int rounds = Scaled(19.5, seconds, 1);
  for (int t = 0; t < kReplayTenants; ++t) {
    const std::string tenant = StrCat("analyst", t);
    w.preload[tenant] = {"exec", kReplayRunsPerTenant};
    ClientPlan plan;
    plan.tenant = tenant;
    plan.program = "exec";
    std::mt19937_64 rng(seed * 104729u + static_cast<uint64_t>(t) + 5);
    for (int r = 0; r < rounds; ++r) {
      // Every run under both engines each round, in seeded order, so the
      // threads and procs answers of one run are always compared.
      std::vector<Op> round;
      for (int i = 0; i < kReplayRunsPerTenant; ++i) {
        for (const char* engine : {"threads", "procs"}) {
          Op op;
          op.kind = OpKind::kReplay;
          op.run = StrCat("run", i);
          op.engine = engine;
          round.push_back(op);
        }
      }
      std::shuffle(round.begin(), round.end(), rng);
      plan.ops.insert(plan.ops.end(), round.begin(), round.end());
    }
    w.clients.push_back(std::move(plan));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Deployment: connection + server + clients on a fresh root.
// ---------------------------------------------------------------------------

struct Shared {
  bool traced = false;
  std::map<std::string, ProgramSpec> programs;
  Tracer tracer{false};
  std::vector<std::unique_ptr<ClientSlot>> slots;
  std::mutex factory_mu;
  std::vector<double> factory_seconds;
  /// Held around each procs-engine replay call. Two ProcessReplayExecutor
  /// runs in one process reap each other's children through waitpid(-1)
  /// (see README). This lock is a stopgap: remove it together with that fix.
  std::mutex procs_mu;

  explicit Shared(bool t) : traced(t), tracer(t) {}
};

/// Resolver spec: "<program>[+probe][;c=<client>;r=<request>]", or
/// "hello;c=<client>" — the set-up handshake that binds a handler thread
/// to its client (answered NotFound, which leaves the connection usable).
Result<flor::ResolvedWorkload> ResolveSpec(Shared* shared,
                                           const std::string& spec,
                                           int* client_out,
                                           int64_t* request_out) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = spec.find(';', pos);
    const size_t end = semi == std::string::npos ? spec.size() : semi;
    parts.push_back(spec.substr(pos, end - pos));
    pos = end + 1;
  }
  int client = -1;
  int64_t request = -1;
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].rfind("c=", 0) == 0) client = std::atoi(parts[i].c_str() + 2);
    if (parts[i].rfind("r=", 0) == 0)
      request = std::strtoll(parts[i].c_str() + 2, nullptr, 10);
  }
  *client_out = client;
  *request_out = request;
  const int slots = static_cast<int>(shared->slots.size());
  if (client >= 0 && client < slots && shared->traced) {
    ThreadCtx& ctx = Tls();
    ctx.role = Role::kHandler;
    ctx.client = client;
  }
  if (parts[0] == "hello") return Status::NotFound("handshake");

  std::string name = parts[0];
  bool probed = false;
  const size_t plus = name.find('+');
  if (plus != std::string::npos) {
    probed = name.substr(plus + 1) == "probe";
    name = name.substr(0, plus);
  }
  auto it = shared->programs.find(name);
  if (it == shared->programs.end())
    return Status::NotFound(StrCat("unknown program '", name, "'"));

  flor::ResolvedWorkload out;
  out.record = it->second.options;
  const ProgramFactory base = probed ? it->second.probed : it->second.record;
  if (!shared->traced) {
    out.factory = base;
    return out;
  }
  out.factory = [shared, base, client,
                 request]() -> Result<flor::ProgramInstance> {
    if (InForkedChild().load()) return base();
    ThreadCtx& ctx = Tls();
    if (ctx.role == Role::kUnknown) {  // a replay-engine pool thread
      ctx.role = Role::kWorker;
      ctx.client = client;
      ctx.request = request;
    } else if (ctx.role == Role::kWorker) {
      ctx.request = request;
    }
    const double t0 = NowSeconds();
    const uint64_t id = shared->tracer.Open();
    Result<flor::ProgramInstance> instance = base();
    const double t1 = NowSeconds();
    shared->tracer.Close(id, Layer::kFactory, "factory", request, client, t0,
                         t1);
    std::lock_guard<std::mutex> lock(shared->factory_mu);
    shared->factory_seconds.push_back(t1 - t0);
    return instance;
  };
  return out;
}

Result<flor::ResolvedWorkload> Resolve(Shared* shared,
                                       const std::string& spec) {
  const double start = NowSeconds();
  const uint64_t span = shared->tracer.Open();
  int client = -1;
  int64_t request = -1;
  Result<flor::ResolvedWorkload> out =
      ResolveSpec(shared, spec, &client, &request);
  shared->tracer.Close(span, Layer::kResolver, "resolve", request, client,
                       start, NowSeconds());
  return out;
}

struct Deployment {
  stdfs::path dir;
  std::unique_ptr<flor::PosixFileSystem> posix;
  std::unique_ptr<ProbeFileSystem> probe;
  std::unique_ptr<flor::Env> env;
  std::unique_ptr<flor::Connection> conn;
  std::unique_ptr<flor::Server> server;
  std::vector<flor::WireClient> clients;
  /// tenant -> preloaded runs in record order.
  std::map<std::string, std::vector<KnownRun>> catalog;
  uint64_t preload_raw_bytes = 0;

  ~Deployment() { TearDown(); }

  void TearDown() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    if (conn) (void)conn->Close();
    conn.reset();
  }
};

uint64_t RawBytes(const Manifest& m) {
  uint64_t raw = 0;
  for (const auto& r : m.records) raw += r.raw_bytes;
  return raw;
}

/// `dir` is absolute; `socket` is relative to the working directory, which
/// keeps it under the AF_UNIX path limit however deep the checkout is.
std::unique_ptr<Deployment> SetUp(Shared* shared, const WorkloadConfig& w,
                                  const stdfs::path& dir,
                                  const std::string& socket) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  stdfs::create_directories(dir);
  d->posix = std::make_unique<flor::PosixFileSystem>((dir / "fs").string());
  flor::FileSystem* fs = d->posix.get();
  if (shared->traced) {
    d->probe = std::make_unique<ProbeFileSystem>(
        fs, kBucket, &shared->tracer, &shared->slots);
    fs = d->probe.get();
  }
  d->env = std::make_unique<flor::Env>(std::make_unique<flor::WallClock>(),
                                       fs);
  auto conn = flor::Connection::Open(d->env.get(), w.conn);
  if (!conn.ok()) Die(StrCat("Connection::Open: ", conn.status().ToString()));
  d->conn = std::move(*conn);

  flor::ServerOptions sopts;
  sopts.unix_path = socket;
  sopts.resolve_workload = [shared](const std::string& spec) {
    return Resolve(shared, spec);
  };
  auto server = flor::Server::Start(d->conn.get(), sopts);
  if (!server.ok()) Die(StrCat("Server::Start: ", server.status().ToString()));
  d->server = std::move(*server);

  // Preload: one thread per tenant, through the shared Connection.
  std::vector<std::thread> loaders;
  std::mutex mu;
  std::string error;
  for (const auto& [tenant, what] : w.preload) {
    d->catalog[tenant].resize(static_cast<size_t>(what.second));
  }
  for (const auto& entry : w.preload) {
    const std::string tenant = entry.first;
    const ProgramSpec& spec = shared->programs.at(entry.second.first);
    const int count = entry.second.second;
    std::vector<KnownRun>* runs = &d->catalog[tenant];
    loaders.emplace_back([&, tenant, runs, count, spec_ptr = &spec] {
      auto session = d->conn->OpenSession(tenant);
      if (!session.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        error = session.status().ToString();
        return;
      }
      for (int i = 0; i < count; ++i) {
        const std::string run = StrCat("run", i);
        auto rec = (*session)->Record(run, spec_ptr->record,
                                      spec_ptr->options);
        if (!rec.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          error = rec.status().ToString();
          return;
        }
        (*runs)[static_cast<size_t>(i)] = {run, rec->manifest};
      }
    });
  }
  for (auto& t : loaders) t.join();
  if (!error.empty()) Die(StrCat("preload: ", error));
  for (const auto& [tenant, runs] : d->catalog) {
    for (const KnownRun& r : runs) d->preload_raw_bytes += RawBytes(r.manifest);
  }
  d->conn->DrainBackground();

  for (size_t c = 0; c < w.clients.size(); ++c) {
    auto client = flor::WireClient::ConnectUnix(sopts.unix_path);
    if (!client.ok()) Die(StrCat("connect: ", client.status().ToString()));
    if (shared->traced) {
      flor::wire::Request hello;
      hello.op = "record";
      hello.tenant = "hello";
      hello.run = "hello";
      hello.workload = StrCat("hello;c=", c);
      auto res = client->Call(hello);
      if (!res.ok()) Die(StrCat("handshake: ", res.status().ToString()));
    }
    d->clients.push_back(std::move(*client));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Measured phase.
// ---------------------------------------------------------------------------

struct Sample {
  OpKind kind = OpKind::kQuery;
  int client = 0;
  int64_t request = 0;
  bool ok = false;
  bool steady = false;
  double start = 0;
  double end = 0;
  /// Server-reported: admission wait + runtime (record), wall (replay).
  double wait_s = 0;
  double run_s = 0;
  double wall_s = 0;
  std::string engine;
  int64_t wire_bytes = 0;
  int64_t fs_calls = 0;
  int64_t list_entries = 0;
  int64_t runs_returned = 0;
  int64_t merged_log_bytes = 0;
  int64_t bucket_faults = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  int64_t checkpoints = 0;
  double materialize_s = 0;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<std::string> failures;
  int64_t absent_probes = 0;
};

std::string RunName(const std::string& prefix) {
  const size_t slash = prefix.find_last_of('/');
  return slash == std::string::npos ? prefix : prefix.substr(slash + 1);
}

void RunClient(Shared* shared, int c, const ClientPlan& plan,
               const std::vector<KnownRun>& preloaded,
               flor::WireClient* wc, int64_t expected_ckpts,
               std::atomic<bool>* go, ClientResult* out) {
  ThreadCtx& tls = Tls();
  tls.role = Role::kClient;
  tls.client = c;
  while (!go->load()) std::this_thread::yield();

  std::vector<KnownRun> mine = preloaded;  // this tenant's runs so far
  std::set<std::string> expected_runs;
  for (const KnownRun& r : preloaded) expected_runs.insert(r.run);
  std::map<std::string, std::string> reference_logs;  // run -> merged logs
  ClientSlot& slot = *shared->slots[static_cast<size_t>(c)];

  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    Sample s;
    s.kind = op.kind;
    s.client = c;
    s.steady = plan.steady;
    s.request = static_cast<int64_t>(c) * 1000000 + static_cast<int64_t>(i);
    const std::string tag =
        StrCat("client ", c, " op ", i, " (", OpName(op.kind), ")");

    flor::wire::Request req;
    req.op = OpName(op.kind);
    req.tenant = plan.tenant;
    req.run = op.run;
    bool expect_exists = false;
    if (op.kind == OpKind::kRecord || op.kind == OpKind::kReplay) {
      req.workload = plan.program;
      if (op.kind == OpKind::kReplay) req.workload += "+probe";
      if (shared->traced) req.workload += StrCat(";c=", c, ";r=", s.request);
    }
    if (op.kind == OpKind::kReplay) {
      req.engine = op.engine;
      req.workers = 2;
      s.engine = op.engine;
    }
    if (op.kind == OpKind::kExists) {
      CheckpointKey key = op.key;
      if (!op.fixed) {
        if (mine.empty()) {
          out->failures.push_back(tag + ": no recorded run to probe");
          s.end = s.start = NowSeconds();
          out->samples.push_back(s);
          continue;
        }
        const KnownRun& run = mine[op.pick % mine.size()];
        req.run = run.run;
        const auto& recs = run.manifest.records;
        if (op.present) {
          key = recs[(op.pick / 7) % recs.size()].key;
        } else {
          std::mt19937_64 rng(op.pick);
          key = AbsentKey(recs.front().key.loop_id, &rng);
        }
      }
      expect_exists = op.present;
      if (!op.present) ++out->absent_probes;
      req.loop_id = key.loop_id;
      req.ctx = key.ctx;
    }

    std::unique_lock<std::mutex> procs_turn(shared->procs_mu,
                                            std::defer_lock);
    if (op.kind == OpKind::kReplay && op.engine == "procs")
      procs_turn.lock();
    slot.Begin(s.request);
    const uint64_t span = shared->tracer.Open();
    s.start = NowSeconds();
    Result<flor::wire::Response> res = wc->Call(req);
    s.end = NowSeconds();
    shared->tracer.Close(span, Layer::kClient, OpName(op.kind), s.request, c,
                         s.start, s.end);
    if (procs_turn.owns_lock()) procs_turn.unlock();
    s.fs_calls = slot.fs_calls.load();
    s.list_entries = slot.list_entries.load();

    auto fail = [&](const std::string& why) {
      out->failures.push_back(tag + ": " + why);
    };
    if (!res.ok()) {
      fail(res.status().ToString());
      out->samples.push_back(s);
      continue;
    }
    if (shared->traced) {
      s.wire_bytes =
          static_cast<int64_t>(flor::wire::EncodeRequest(req).size() +
                               flor::wire::EncodeResponse(*res).size() + 8);
    }
    if (!res->ok()) {
      fail(res->ToStatus().ToString());
      out->samples.push_back(s);
      continue;
    }

    switch (op.kind) {
      case OpKind::kRecord: {
        auto reply = flor::wire::ParseRecordReply(*res);
        if (!reply.ok()) {
          fail(reply.status().ToString());
          break;
        }
        auto manifest = Manifest::Deserialize(reply->manifest);
        if (!manifest.ok()) {
          fail("manifest does not parse: " + manifest.status().ToString());
          break;
        }
        const int64_t n = static_cast<int64_t>(manifest->records.size());
        if (n != expected_ckpts || reply->checkpoints != n) {
          fail(StrCat("expected ", expected_ckpts, " checkpoints, reply says ",
                      reply->checkpoints, ", manifest has ", n));
          break;
        }
        s.wait_s = reply->admission_wait_seconds;
        s.run_s = reply->runtime_seconds;
        s.raw_bytes = RawBytes(*manifest);
        s.stored_bytes = manifest->TotalStoredBytes();
        s.checkpoints = n;
        for (const auto& r : manifest->records) s.materialize_s += r.materialize_seconds;
        mine.push_back({op.run, std::move(*manifest)});
        expected_runs.insert(op.run);
        s.ok = true;
        break;
      }
      case OpKind::kReplay: {
        auto reply = flor::wire::ParseReplayReply(*res);
        if (!reply.ok()) {
          fail(reply.status().ToString());
          break;
        }
        if (!reply->deferred_ok) {
          fail("deferred check failed");
          break;
        }
        if (reply->merged_logs.empty()) {
          fail("empty merged logs");
          break;
        }
        auto ref = reference_logs.find(op.run);
        if (ref == reference_logs.end()) {
          reference_logs.emplace(op.run, reply->merged_logs);
        } else if (ref->second != reply->merged_logs) {
          fail(StrCat("merged logs of ", op.run, " (", op.engine,
                      ") differ from an earlier replay"));
          break;
        }
        s.wall_s = reply->wall_seconds;
        s.merged_log_bytes = static_cast<int64_t>(reply->merged_logs.size());
        s.bucket_faults = reply->bucket_faults;
        s.ok = true;
        break;
      }
      case OpKind::kQuery: {
        auto reply = flor::wire::ParseQueryReply(*res);
        if (!reply.ok()) {
          fail(reply.status().ToString());
          break;
        }
        std::set<std::string> got;
        for (const auto& info : reply->runs) got.insert(RunName(info.prefix));
        if (got != expected_runs ||
            got.size() != reply->runs.size()) {
          fail(StrCat("query returned ", reply->runs.size(),
                      " runs, expected ", expected_runs.size()));
          break;
        }
        s.runs_returned = static_cast<int64_t>(reply->runs.size());
        s.ok = true;
        break;
      }
      case OpKind::kExists: {
        auto reply = flor::wire::ParseExistsReply(*res);
        if (!reply.ok()) {
          fail(reply.status().ToString());
          break;
        }
        if (reply->exists != expect_exists) {
          fail(StrCat("exists(", req.run, ", L", req.loop_id, "@", req.ctx,
                      ") = ", reply->exists ? "true" : "false"));
          break;
        }
        s.ok = true;
        break;
      }
    }
    out->samples.push_back(std::move(s));
  }
}

// ---------------------------------------------------------------------------
// Trace analysis: self time per layer and coverage of each round trip.
// ---------------------------------------------------------------------------

using Interval = std::pair<double, double>;

double UnionLength(std::vector<Interval> v, double lo, double hi) {
  for (auto& iv : v) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(v.begin(), v.end());
  double total = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (const auto& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = iv.first;
      cur_hi = iv.second;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, iv.second);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

struct TraceSummary {
  std::map<std::string, double> self_seconds;  // layer -> total self time
  double covered_seconds = 0;
  double rtt_seconds = 0;
  int64_t spans = 0;
};

TraceSummary AnalyzeTrace(const std::vector<Span>& spans,
                          const std::vector<Sample>& samples) {
  TraceSummary out;
  out.spans = static_cast<int64_t>(spans.size());
  std::unordered_map<uint64_t, double> child_time;  // parent id -> busy
  std::unordered_map<int64_t, std::vector<Interval>> server_roots;
  std::unordered_map<int64_t, double> resolver_end;
  for (const Span& s : spans) {
    if (s.layer == Layer::kClient) continue;
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
    if (s.request >= 0 && s.parent == 0)
      server_roots[s.request].push_back({s.start, s.end});
    if (s.layer == Layer::kResolver && s.request >= 0)
      resolver_end[s.request] = s.end;
  }
  for (const Span& s : spans) {
    if (s.layer == Layer::kClient) continue;
    double self = s.end - s.start;
    auto it = child_time.find(s.id);
    if (it != child_time.end()) self -= it->second;
    std::string layer = LayerName(s.layer);
    if (s.layer == Layer::kFs && s.request < 0) layer = "fs_background";
    out.self_seconds[layer] += std::max(0.0, self);
  }
  for (const Sample& smp : samples) {
    const double rtt = smp.end - smp.start;
    if (rtt <= 0) continue;
    std::vector<Interval> roots = server_roots[smp.request];
    const double inside = UnionLength(roots, smp.start, smp.end);
    // Server-reported time, placed right after the resolver returned: the
    // admission wait and run of a record, the engine wall of a replay.
    const double reported =
        smp.kind == OpKind::kRecord ? smp.wait_s + smp.run_s
        : smp.kind == OpKind::kReplay ? smp.wall_s : 0.0;
    auto re = resolver_end.find(smp.request);
    if (reported > 0 && re != resolver_end.end())
      roots.push_back({re->second, re->second + reported});
    const double covered = UnionLength(roots, smp.start, smp.end);
    // "service": reported server time no observed span accounts for;
    // "client": what neither explains (wire, dispatch, encode/decode).
    out.self_seconds["service"] += covered - inside;
    out.self_seconds["client"] += rtt - covered;
    out.covered_seconds += covered;
    out.rtt_seconds += rtt;
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                double t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die(StrCat("cannot write ", path));
  std::fprintf(f, "id\tparent\trequest\tclient\tthread\tlayer\tname\t"
                  "start_us\tend_us\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRId64 "\t%d\t%d\t%s\t%s\t"
                    "%.3f\t%.3f\n",
                 s.id, s.parent, s.request, s.client, s.thread,
                 LayerName(s.layer), s.name.c_str(), (s.start - t0) * 1e6,
                 (s.end - t0) * 1e6);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += "\"" + Escape(k) + "\": ";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
  }
  void Str(const std::string& v) {
    Sep();
    out_ += "\"" + Escape(v) + "\"";
  }
  void Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = false;
  }
  static std::string Escape(const std::string& s) {
    std::string o;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        o += '\\';
        o += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        o += ' ';
      } else {
        o += ch;
      }
    }
    return o;
  }
  std::string out_;
  bool fresh_ = true;
};

double CpuSeconds() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

/// Restarts the kernel's peak-RSS count (VmHWM) at the current RSS, so the
/// peak read at the end covers the measured phase and not set-up. False
/// when the kernel refuses.
bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

/// VmHWM of this process in KiB; ru_maxrss when /proc has no VmHWM.
int64_t PeakRssKb() {
  int64_t kb = -1;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (kb < 0 && std::fgets(line, sizeof line, f)) {
      long long v = 0;
      if (std::sscanf(line, "VmHWM: %lld kB", &v) == 1) kb = v;
    }
    std::fclose(f);
  }
  if (kb < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = ru.ru_maxrss;
  }
  return kb;
}

/// Bytes of every file under `dir`, by path class.
std::array<uint64_t, kPathClassCount> BytesUnder(const stdfs::path& dir) {
  std::array<uint64_t, kPathClassCount> total{};
  std::error_code ec;
  for (auto it = stdfs::recursive_directory_iterator(dir, ec);
       it != stdfs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string rel = it->path().lexically_relative(dir).string();
    total[static_cast<size_t>(ClassifyPath(rel, kBucket))] +=
        it->file_size(ec);
  }
  return total;
}

/// Flushes the filesystem holding `dir`, so writeback and discards left by
/// earlier runs or set-ups do not land inside the next timed interval.
void SettleFilesystem(const stdfs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string out;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else Die("unknown flag " + k);
  }
  if (a.workdir.empty() || a.out.empty()) Die("--workdir and --out required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  InstallForkHook();
  Shared shared(args.trace);
  shared.programs = BuildPrograms();

  WorkloadConfig config;
  if (args.workload == "ingest") {
    config = MakeIngest(args.seconds, args.seed);
  } else if (args.workload == "lookup") {
    config = MakeLookupShape(args.seconds);
  } else if (args.workload == "replay") {
    config = MakeReplay(args.seconds, args.seed);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  for (size_t c = 0; c < config.clients.size(); ++c)
    shared.slots.push_back(std::make_unique<ClientSlot>());

  const stdfs::path workdir = stdfs::absolute(args.workdir);
  const std::string out_path = stdfs::absolute(args.out).string();
  const std::string spans_path =
      args.spans.empty() ? "" : stdfs::absolute(args.spans).string();
  stdfs::create_directories(workdir);
  if (::chdir(workdir.c_str()) != 0) Die("cannot enter " + workdir.string());
  std::vector<double> setup_seconds;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    if (d) {
      d->TearDown();
      stdfs::remove_all(d->dir);
      d.reset();
    }
    SettleFilesystem(workdir);
    const double t0 = NowSeconds();
    d = SetUp(&shared, config, workdir / StrCat("setup", i),
              StrCat("setup", i, ".sock"));
    setup_seconds.push_back(NowSeconds() - t0);
  }
  if (args.workload == "lookup")
    FillLookupReaders(&config, args.seconds, args.seed, d->catalog);

  SettleFilesystem(workdir);
  const bool rss_reset = ResetPeakRss();
  const flor::ConnectionStats before = d->conn->stats();
  shared.tracer.Clear();
  if (d->probe) d->probe->Reset();
  shared.factory_seconds.clear();

  std::vector<ClientResult> results(config.clients.size());
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  static const std::vector<KnownRun> kNone;
  for (size_t c = 0; c < config.clients.size(); ++c) {
    const ClientPlan& plan = config.clients[c];
    auto known = d->catalog.find(plan.tenant);
    const int64_t expected_ckpts = shared.programs.at(plan.program).epochs;
    threads.emplace_back(RunClient, &shared, static_cast<int>(c),
                         std::cref(plan),
                         std::cref(known == d->catalog.end() ? kNone
                                                             : known->second),
                         &d->clients[c], expected_ckpts, &go, &results[c]);
  }
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  go.store(true);
  for (auto& t : threads) t.join();
  d->conn->DrainBackground();
  const double t1 = NowSeconds();
  const double cpu1 = CpuSeconds();
  const int64_t peak_rss_kb = PeakRssKb();

  const flor::ConnectionStats after = d->conn->stats();
  const std::vector<Span> spans = shared.tracer.Take();
  const std::array<uint64_t, kPathClassCount> root_bytes =
      BytesUnder(d->dir / "fs");

  std::vector<Sample> samples;
  std::vector<std::string> failures;
  int64_t absent_probes = 0;
  for (ClientResult& r : results) {
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    absent_probes += r.absent_probes;
  }

  // Invariants the service must keep.
  if (after.gc_failures != before.gc_failures)
    failures.push_back("background GC failed: " + after.last_gc_error);
  int burst_peak = 0;
  if (auto it = after.tenants.find("burst"); it != after.tenants.end())
    burst_peak = it->second.max_observed_records;
  if (config.conn.max_records_per_tenant > 0 &&
      burst_peak > config.conn.max_records_per_tenant)
    failures.push_back(StrCat("burst tenant held ", burst_peak,
                              " slots, quota ",
                              config.conn.max_records_per_tenant));

  auto tenant_sum = [](const flor::ConnectionStats& st,
                       int64_t flor::TenantStats::*field) {
    int64_t total = 0;
    for (const auto& [name, t] : st.tenants) total += t.*field;
    return total;
  };
  auto delta = [&](int64_t flor::TenantStats::*field) {
    return tenant_sum(after, field) - tenant_sum(before, field);
  };

  uint64_t raw_total = d->preload_raw_bytes;
  for (const Sample& s : samples) raw_total += s.raw_bytes;

  Json j;
  j.Open('{');
  j.Key("workload"); j.Str(args.workload);
  j.Key("seed"); j.Int(static_cast<int64_t>(args.seed));
  j.Key("traced"); j.Bool(args.trace);
  j.Key("clients"); j.Int(static_cast<int64_t>(config.clients.size()));
  j.Key("setup_s"); j.Open('[');
  for (double s : setup_seconds) j.Num(s);
  j.Close(']');
  j.Key("wall_s"); j.Num(t1 - t0);
  j.Key("cpu_s"); j.Num(cpu1 - cpu0);
  j.Key("peak_rss_kb"); j.Int(peak_rss_kb);
  j.Key("rss_reset"); j.Bool(rss_reset);
  j.Key("root_bytes"); j.Open('{');
  for (int pc = 0; pc < kPathClassCount; ++pc) {
    j.Key(PathClassName(pc));
    j.Int(static_cast<int64_t>(root_bytes[static_cast<size_t>(pc)]));
  }
  j.Close('}');
  j.Key("raw_ckpt_bytes"); j.Int(static_cast<int64_t>(raw_total));
  j.Key("absent_probes"); j.Int(absent_probes);
  j.Key("failures"); j.Open('[');
  for (const auto& f : failures) j.Str(f);
  j.Close(']');
  j.Key("stats"); j.Open('{');
  j.Key("gc_passes"); j.Int(after.gc_passes - before.gc_passes);
  j.Key("gc_failures"); j.Int(after.gc_failures - before.gc_failures);
  j.Key("admission_waits"); j.Int(after.admission_waits - before.admission_waits);
  j.Key("spool_objects"); j.Int(delta(&flor::TenantStats::spool_objects));
  j.Key("spool_bytes"); j.Int(delta(&flor::TenantStats::spool_bytes));
  j.Key("bucket_faults"); j.Int(delta(&flor::TenantStats::bucket_faults));
  j.Key("bloom_skipped"); j.Int(delta(&flor::TenantStats::bloom_skipped_probes));
  j.Key("burst_peak"); j.Int(burst_peak);
  j.Key("quota"); j.Int(config.conn.max_records_per_tenant);
  j.Close('}');

  j.Key("ops"); j.Open('[');
  for (const Sample& s : samples) {
    j.Open('{');
    j.Key("k"); j.Str(OpName(s.kind));
    j.Key("c"); j.Int(s.client);
    j.Key("ok"); j.Bool(s.ok);
    j.Key("ms"); j.Num((s.end - s.start) * 1e3);
    if (s.steady) { j.Key("steady"); j.Bool(true); }
    if (s.kind == OpKind::kRecord) {
      j.Key("wait_ms"); j.Num(s.wait_s * 1e3);
      j.Key("run_ms"); j.Num(s.run_s * 1e3);
      j.Key("raw"); j.Int(static_cast<int64_t>(s.raw_bytes));
      j.Key("stored"); j.Int(static_cast<int64_t>(s.stored_bytes));
      j.Key("ckpts"); j.Int(s.checkpoints);
      j.Key("mat_ms"); j.Num(s.materialize_s * 1e3);
    }
    if (s.kind == OpKind::kReplay) {
      j.Key("engine"); j.Str(s.engine);
      j.Key("wall_ms"); j.Num(s.wall_s * 1e3);
      j.Key("log_bytes"); j.Int(s.merged_log_bytes);
      j.Key("faults"); j.Int(s.bucket_faults);
    }
    if (args.trace) {
      j.Key("wire_bytes"); j.Int(s.wire_bytes);
      j.Key("fs_calls"); j.Int(s.fs_calls);
      j.Key("list_entries"); j.Int(s.list_entries);
    }
    if (s.kind == OpKind::kQuery) { j.Key("runs"); j.Int(s.runs_returned); }
    j.Close('}');
  }
  j.Close(']');

  if (args.trace) {
    j.Key("fs"); j.Open('{');
    for (int op = 0; op < kFsOpCount; ++op) {
      for (int pc = 0; pc < kPathClassCount; ++pc) {
        for (int tc = 0; tc < kThreadClassCount; ++tc) {
          const FsCell& cell = d->probe->cell(op, pc, tc);
          if (cell.calls.load() == 0) continue;
          j.Key(StrCat(FsOpName(op), ".", PathClassName(pc), ".",
                       ThreadClassName(tc)));
          j.Open('[');
          j.Int(cell.calls.load());
          j.Int(cell.bytes.load());
          j.Int(cell.nanos.load());
          j.Int(cell.entries.load());
          j.Close(']');
        }
      }
    }
    j.Close('}');
    j.Key("factory_ms"); j.Open('[');
    for (double s : shared.factory_seconds) j.Num(s * 1e3);
    j.Close(']');
    const TraceSummary ts = AnalyzeTrace(spans, samples);
    j.Key("trace"); j.Open('{');
    j.Key("spans"); j.Int(ts.spans);
    j.Key("covered_s"); j.Num(ts.covered_seconds);
    j.Key("rtt_s"); j.Num(ts.rtt_seconds);
    j.Key("self_s"); j.Open('{');
    for (const auto& [layer, secs] : ts.self_seconds) {
      j.Key(layer);
      j.Num(secs);
    }
    j.Close('}');
    j.Close('}');
    if (!spans_path.empty()) WriteSpans(spans_path, spans, t0);
  }
  j.Close('}');

  d->TearDown();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + out_path);
  std::fputs(j.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
