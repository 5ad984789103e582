// Outside-in instrumentation for the end-to-end benchmark.
//
// Nothing here reaches into flor: the benchmark sees each layer only
// through the objects it hands in (a FileSystem, a ProgramFactory, a
// WorkloadResolver) and the calls it makes (WireClient::Call). This file
// holds the pieces those wrappers share:
//
//   * ThreadCtx — a thread-local tag saying which role the current thread
//     plays (benchmark client, server handler bound to a client, replay
//     worker bound to a request, or unknown = flor's own background
//     threads: materializer, spool, GC). Handler threads are tagged by the
//     resolver, replay workers by the wrapped factory.
//   * ClientSlot — the in-flight request of one client. A client publishes
//     the request id before each call; its handler thread reads it, so
//     filesystem work done while serving the call is charged to it.
//   * Tracer — spans kept in memory and written out when the run ends.
//   * ProbeFileSystem — counts and times every FileSystem call by op kind,
//     path class and thread class.
//
// Forked process-engine workers inherit a copy of all of this, but what
// they count lives in the child's memory and is lost. A pthread_atfork
// hook switches the wrappers to plain forwarding in the child, so a child
// never touches a lock another thread of the parent held at fork time.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <pthread.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/filesystem.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True in a process-engine child (set by the pthread_atfork hook).
inline std::atomic<bool>& InForkedChild() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline void InstallForkHook() {
  static const int installed = pthread_atfork(
      nullptr, nullptr, [] { InForkedChild().store(true); });
  (void)installed;
}

enum class Role : uint8_t { kUnknown, kClient, kHandler, kWorker };

/// Thread classes the fs counters are split by.
enum ThreadClass : int {
  kRequestThread = 0,   ///< server handler serving a client call
  kWorkerThread = 1,    ///< threads-engine replay worker
  kBackgroundThread = 2,///< materializer, spool, GC (flor-owned threads)
  kThreadClassCount = 3,
};

struct ThreadCtx {
  Role role = Role::kUnknown;
  int client = -1;
  /// Request a worker thread serves (handlers read their client's slot).
  int64_t request = -1;
  int thread_index = -1;
  /// Open spans on this thread, innermost last.
  std::vector<uint64_t> open_spans;
};

inline ThreadCtx& Tls() {
  thread_local ThreadCtx ctx;
  return ctx;
}

inline int ThreadIndex() {
  static std::atomic<int> next{0};
  ThreadCtx& ctx = Tls();
  if (ctx.thread_index < 0) ctx.thread_index = next.fetch_add(1);
  return ctx.thread_index;
}

/// The in-flight request of one benchmark client and what its handler
/// thread did for it.
struct ClientSlot {
  std::atomic<int64_t> request{-1};
  std::atomic<int64_t> fs_calls{0};
  std::atomic<int64_t> list_entries{0};

  void Begin(int64_t request_id) {
    fs_calls.store(0);
    list_entries.store(0);
    request.store(request_id);
  }
};

/// Span layers. kClient is the client-observed round trip of a request;
/// the others are calls the benchmark's wrappers observe.
enum class Layer : uint8_t { kClient, kResolver, kFactory, kFs };

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "client";
    case Layer::kResolver: return "resolver";
    case Layer::kFactory: return "factory";
    case Layer::kFs: return "fs";
  }
  return "?";
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< enclosing span on the same thread, 0 = none
  int64_t request = -1;  ///< -1 = background work
  int client = -1;
  int thread = -1;
  Layer layer = Layer::kClient;
  std::string name;
  double start = 0;
  double end = 0;
};

/// In-memory span sink. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_ && !InForkedChild().load(); }

  /// Opens a span on the calling thread; returns its id (0 if disabled).
  uint64_t Open() {
    if (!enabled()) return 0;
    const uint64_t id = next_id_.fetch_add(1) + 1;
    Tls().open_spans.push_back(id);
    return id;
  }

  /// Closes the innermost span opened by Open() and records it.
  void Close(uint64_t id, Layer layer, std::string name, int64_t request,
             int client, double start, double end) {
    if (id == 0) return;
    ThreadCtx& ctx = Tls();
    if (!ctx.open_spans.empty() && ctx.open_spans.back() == id)
      ctx.open_spans.pop_back();
    Span span;
    span.id = id;
    span.parent = ctx.open_spans.empty() ? 0 : ctx.open_spans.back();
    span.request = request;
    span.client = client;
    span.thread = ThreadIndex();
    span.layer = layer;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Drops everything recorded so far (set-up spans).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Which request the calling thread is working for, or -1.
inline int64_t CurrentRequest(const std::vector<std::unique_ptr<ClientSlot>>&
                                  slots) {
  const ThreadCtx& ctx = Tls();
  if (ctx.role == Role::kHandler && ctx.client >= 0 &&
      ctx.client < static_cast<int>(slots.size())) {
    return slots[static_cast<size_t>(ctx.client)]->request.load();
  }
  if (ctx.role == Role::kWorker) return ctx.request;
  return -1;
}

enum FsOp : int {
  kFsWrite, kFsAppend, kFsRead, kFsExists, kFsSize, kFsDelete, kFsList,
  kFsOpCount,
};

inline const char* FsOpName(int op) {
  static const char* const kNames[kFsOpCount] = {
      "write", "append", "read", "exists", "size", "delete", "list"};
  return kNames[op];
}

enum PathClass : int {
  kPathManifest, kPathLogs, kPathLocalCkpt, kPathBucketCkpt, kPathOther,
  kPathClassCount,
};

inline const char* PathClassName(int c) {
  static const char* const kNames[kPathClassCount] = {
      "manifest", "logs", "local_ckpt", "bucket_ckpt", "other"};
  return kNames[c];
}

inline const char* ThreadClassName(int c) {
  static const char* const kNames[kThreadClassCount] = {
      "request", "worker", "background"};
  return kNames[c];
}

/// Path class of an object path: bucket objects live under
/// "<bucket_prefix>/", runs under "<root>/<tenant>/<run>/".
inline int ClassifyPath(const std::string& path,
                        const std::string& bucket_prefix) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  if (path.size() > bucket_prefix.size() &&
      path.compare(0, bucket_prefix.size(), bucket_prefix) == 0 &&
      path[bucket_prefix.size()] == '/')
    return kPathBucketCkpt;
  if (ends_with("/manifest.tsv")) return kPathManifest;
  if (ends_with("/logs.tsv")) return kPathLogs;
  if (path.find("/ckpt") != std::string::npos) return kPathLocalCkpt;
  return kPathOther;
}

/// Counters of one (op, path class, thread class) cell.
struct FsCell {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> nanos{0};
  std::atomic<int64_t> entries{0};  ///< ListPrefix paths returned
};

/// Pass-through FileSystem that counts and times every call. Thread-safe
/// (atomic counters; spans go through the Tracer's lock).
class ProbeFileSystem : public flor::FileSystem {
 public:
  /// Does not own `base`, `tracer` or `slots`; `bucket_prefix` names the
  /// bucket tier so its objects are told apart from local checkpoints.
  ProbeFileSystem(flor::FileSystem* base, std::string bucket_prefix,
                  Tracer* tracer,
                  const std::vector<std::unique_ptr<ClientSlot>>* slots)
      : base_(base), bucket_prefix_(std::move(bucket_prefix)),
        tracer_(tracer), slots_(slots) {}

  flor::Status WriteFile(const std::string& path,
                         const std::string& data) override {
    Call call(this, kFsWrite, path);
    flor::Status s = base_->WriteFile(path, data);
    call.Done(static_cast<int64_t>(data.size()));
    return s;
  }
  flor::Status AppendFile(const std::string& path,
                          const std::string& data) override {
    Call call(this, kFsAppend, path);
    flor::Status s = base_->AppendFile(path, data);
    call.Done(static_cast<int64_t>(data.size()));
    return s;
  }
  flor::Result<std::string> ReadFile(const std::string& path) const override {
    Call call(this, kFsRead, path);
    flor::Result<std::string> r = base_->ReadFile(path);
    call.Done(r.ok() ? static_cast<int64_t>(r->size()) : 0);
    return r;
  }
  bool Exists(const std::string& path) const override {
    Call call(this, kFsExists, path);
    const bool exists = base_->Exists(path);
    call.Done(0);
    return exists;
  }
  flor::Result<uint64_t> FileSize(const std::string& path) const override {
    Call call(this, kFsSize, path);
    flor::Result<uint64_t> r = base_->FileSize(path);
    call.Done(0);
    return r;
  }
  flor::Status DeleteFile(const std::string& path) override {
    Call call(this, kFsDelete, path);
    flor::Status s = base_->DeleteFile(path);
    call.Done(0);
    return s;
  }
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override {
    Call call(this, kFsList, prefix);
    std::vector<std::string> out = base_->ListPrefix(prefix);
    call.Done(0, static_cast<int64_t>(out.size()));
    return out;
  }

  const FsCell& cell(int op, int path_class, int thread_class) const {
    return cells_[static_cast<size_t>(
        (op * kPathClassCount + path_class) * kThreadClassCount +
        thread_class)];
  }

  void Reset() {
    for (FsCell& c : cells_) {
      c.calls.store(0);
      c.bytes.store(0);
      c.nanos.store(0);
      c.entries.store(0);
    }
  }

 private:
  /// One observed call: classifies it on entry, accounts it in Done().
  class Call {
   public:
    Call(const ProbeFileSystem* fs, int op, const std::string& path)
        : fs_(fs), op_(op), active_(!InForkedChild().load()) {
      if (!active_) return;
      path_class_ = ClassifyPath(path, fs_->bucket_prefix_);
      span_ = fs_->tracer_->Open();
      start_ = NowSeconds();
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

    void Done(int64_t bytes, int64_t entries = 0) {
      if (!active_) return;
      const double end = NowSeconds();
      const ThreadCtx& ctx = Tls();
      int thread_class = kBackgroundThread;
      if (ctx.role == Role::kHandler) thread_class = kRequestThread;
      if (ctx.role == Role::kWorker) thread_class = kWorkerThread;
      FsCell& c = fs_->cells_[static_cast<size_t>(
          (op_ * kPathClassCount + path_class_) * kThreadClassCount +
          thread_class)];
      c.calls.fetch_add(1, std::memory_order_relaxed);
      c.bytes.fetch_add(bytes, std::memory_order_relaxed);
      c.nanos.fetch_add(static_cast<int64_t>((end - start_) * 1e9),
                        std::memory_order_relaxed);
      c.entries.fetch_add(entries, std::memory_order_relaxed);
      if (thread_class == kRequestThread && ctx.client >= 0) {
        ClientSlot& slot = *(*fs_->slots_)[static_cast<size_t>(ctx.client)];
        slot.fs_calls.fetch_add(1, std::memory_order_relaxed);
        slot.list_entries.fetch_add(entries, std::memory_order_relaxed);
      }
      fs_->tracer_->Close(span_, Layer::kFs,
                          std::string(FsOpName(op_)) + ":" +
                              PathClassName(path_class_),
                          CurrentRequest(*fs_->slots_), ctx.client, start_,
                          end);
    }

   private:
    const ProbeFileSystem* fs_;
    int op_;
    bool active_;
    int path_class_ = kPathOther;
    uint64_t span_ = 0;
    double start_ = 0;
  };

  flor::FileSystem* base_;
  std::string bucket_prefix_;
  Tracer* tracer_;
  const std::vector<std::unique_ptr<ClientSlot>>* slots_;
  mutable std::array<FsCell, kFsOpCount * kPathClassCount *
                                 kThreadClassCount>
      cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
