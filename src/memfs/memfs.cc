#include "memfs/memfs.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/path.h"
#include "sim/task.h"

namespace memfs::fs {

namespace {

// Per-open-file write buffer of 8 MB (§3.2.2): the stripes a writer may
// have in flight before Write() waits for a flusher.
constexpr std::uint64_t kWriteBufferBytes = units::MiB(8);

}  // namespace

MemFs::MemFs(sim::Simulation& sim, net::Network& network,
             kv::KvCluster& storage, MemFsConfig config)
    : sim_(sim),
      config_(config),
      striper_(config.stripe_size),
      fuse_(sim, network.config().nodes, config.fuse),
      replicas_(sim, storage,
                {config.replication, config.degraded_writes,
                 config.hash_kind, config.use_ketama, config.io,
                 config.metrics},
                stats_),
      write_pool_(sim, network.config().nodes, config.io_threads,
                  "memfs.write_pool"),
      read_pool_(sim, network.config().nodes, config.read_threads,
                 "memfs.read_pool") {
  if (config_.metrics != nullptr) {
    const std::uint32_t nodes = network.config().nodes;
    open_files_gauges_.reserve(nodes);
    dirty_gauges_.reserve(nodes);
    for (std::uint32_t node = 0; node < nodes; ++node) {
      open_files_gauges_.push_back(
          &config_.metrics->Gauge(InstanceGaugeName("fs.open_files", node)));
      dirty_gauges_.push_back(
          &config_.metrics->Gauge(InstanceGaugeName("fs.dirty_bytes", node)));
    }
  }
  // Bootstrap the root directory directly into its home server (and every
  // replica); this happens at deployment time, before any simulated traffic.
  if (config_.metadata == meta::MetadataMode::kSharded) {
    meta_client_ = std::make_unique<meta::Client>(replicas_, config_.meta,
                                                  config_.metrics);
  } else {
    replicas_.SeedKey("/", meta::DirRecordHeader());
  }
}

namespace {

// An op's scope-exit latency recorder. Declared after the op span, it
// records one vfs.* sample as the op's frame ends, on whichever co_return,
// so nothing has to await the op's future. The exemplar names the op span;
// an untraced op's sample carries trace id 0 and is only counted. Without a
// registry the histogram is null and the destructor does nothing. The ops
// that hold one bind `tctx` by reference, which keeps each of their frames
// within the frame pool's size class of before the recorder.
class OpLatency {
 public:
  OpLatency(sim::Simulation& sim, MetricsRegistry* metrics,
            std::string_view name, const trace::TraceContext& op,
            net::NodeId node)
      : sim_(sim),
        histogram_(metrics != nullptr ? &metrics->Histogram(name) : nullptr),
        start_(sim.now()),
        op_(op),
        node_(node) {}
  OpLatency(const OpLatency&) = delete;
  OpLatency& operator=(const OpLatency&) = delete;

  ~OpLatency() {
    if (histogram_ == nullptr) return;
    Exemplar tag;
    tag.trace_id = op_.trace_id;
    tag.span_id = op_.span_id;
    tag.node = node_;
    tag.at = sim_.now();
    histogram_->Record(tag.at - start_, tag);
  }

 private:
  sim::Simulation& sim_;
  LatencyHistogram* histogram_;
  sim::SimTime start_;
  const trace::TraceContext& op_;  // the op span, which outlives this
  net::NodeId node_;
};

// The append_log arm's lookup in the shape the sharded arm's ends in: the
// path-keyed record of `path`, or its lookup failure, as an Attr with ino 0.
// A directory's live names go to `names` when it is non-null.
Result<meta::Attr> PathAttr(const Result<Bytes>& record,
                            const std::string& path,
                            std::vector<std::string>* names) {
  if (!record.ok()) return status::LookupError(record.status(), path);
  auto rec = meta::DecodePathRecord(record.value(), names);
  if (!rec.ok()) return rec.status();
  return meta::Attr{0, *rec};
}

// The FUSE crossing every op pays first. EnterFuse is not a coroutine: it
// opens the fuse.enter span under `op` and calls Enter, and the op
// co_awaits the gate, which waits on that future. The gate is a temporary of
// the co_await statement, so its span closes when the op resumes.
struct FuseGate {
  trace::ScopedSpan span;
  sim::VoidFuture entered;
  auto operator co_await() const { return entered.operator co_await(); }
};

[[nodiscard]] FuseGate EnterFuse(FuseLayer& fuse, const VfsContext& ctx,
                                 const trace::TraceContext& op) {
  return {trace::ScopedSpan(op, "fuse.enter", "queue"),
          fuse.Enter(ctx.node, ctx.process)};
}

// Listing entries carry names only.
std::vector<FileInfo> InfosOf(std::vector<std::string> names) {
  std::vector<FileInfo> infos(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    infos[i].name = std::move(names[i]);
  }
  return infos;
}

}  // namespace

FileHandle MemFs::InstallHandle(std::string path, meta::Ino ino,
                                net::NodeId node, bool writing,
                                std::uint32_t epoch, std::uint64_t size) {
  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->ident = ino != 0 ? meta::StripeIdent(ino) : file->path;
  file->stripe_keys.Reset(file->ident);
  file->ino = ino;
  file->node = node;
  file->writing = writing;
  file->epoch = epoch;
  if (writing) {
    const auto capacity_stripes = std::max<std::uint64_t>(
        kWriteBufferBytes / config_.stripe_size, 1);
    file->tokens = std::make_unique<sim::Semaphore>(sim_, capacity_stripes);
    file->inflight = std::make_unique<sim::WaitGroup>(sim_);
    ++stats_.files_created;
  } else {
    file->size = size;
    ++stats_.files_opened;
  }
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  GaugeAdd(OpenFilesGauge(node), 1);
  return handle;
}

Result<MemFs::OpenFile*> MemFs::FindHandle(FileHandle handle, bool writing) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) return status::BadHandle();
  OpenFile* file = it->second.get();
  if (file->writing != writing) {
    return status::Permission(writing ? "handle is read-only"
                                      : "handle is write-only");
  }
  return file;
}

// ---------------------------------------------------------------------------
// Create / write path

sim::Future<Result<FileHandle>> MemFs::Create(VfsContext ctx,
                                              std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.create", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.create", tctx, ctx.node);
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  // Stripes key on a sharded file's ino, not its path: rename moves the
  // dentry only. An append_log file (ino 0) keys on its path.
  meta::Ino ino = 0;
  if (meta_client_ != nullptr) {
    auto created =
        co_await meta_client_->CreateFile(ctx.node, path, current_epoch(),
                                          tctx);
    if (!created.ok()) co_return created.status();
    ino = created->ino;
  } else {
    // Register an unsealed file record; ADD makes concurrent double-create
    // lose deterministically (write-once implies a single writer).
    Status added = co_await replicas_.ReplicatedAdd(
        ctx.node, path, meta::EncodeFileRecord({.epoch = current_epoch()}),
        tctx);
    if (!added.ok()) {
      co_return added.code() == ErrorCode::kExists ? status::Exists(path)
                                                   : added;
    }
    // Link into the parent's directory event log (atomic APPEND, all
    // replicas).
    const std::string parent = path::Parent(path);
    Status linked = co_await replicas_.ReplicatedAppend(
        ctx.node, parent, meta::DirEvent(path::Basename(path), false), tctx);
    if (!linked.ok()) {
      // Roll the file record back. Best-effort — the create already fails
      // and an orphaned record is inert.
      // lint: allow(ignored-status) best-effort rollback of an inert record
      co_await replicas_.ReplicatedDelete(ctx.node, path, tctx);
      co_return status::LookupError(linked, "parent directory: " + parent);
    }
  }
  co_return InstallHandle(std::move(path), ino, ctx.node, /*writing=*/true,
                          current_epoch(), 0);
}

sim::Future<Status> MemFs::Write(VfsContext ctx, FileHandle handle,
                                 Bytes data) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.write", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.write", tctx, ctx.node);
  trace::Annotate(tctx, "bytes", std::to_string(data.size()));
  co_await EnterFuse(fuse_, ctx, tctx);
  auto found = FindHandle(handle, /*writing=*/true);
  if (!found.ok()) co_return found.status();
  OpenFile* file = *found;
  stats_.bytes_written += data.size();
  file->written += data.size();
  file->pending.Append(data);
  GaugeAdd(DirtyGauge(file->node), static_cast<std::int64_t>(data.size()));

  // Carve and ship every full stripe. SubmitStripe blocks on buffer
  // capacity, so a writer outrunning the network parks here — that is the
  // paper's "buffering saturates write bandwidth" behaviour with bounded
  // memory.
  while (file->pending.size() >= config_.stripe_size) {
    Bytes stripe = file->pending.Slice(0, config_.stripe_size);
    file->pending = file->pending.Slice(
        config_.stripe_size, file->pending.size() - config_.stripe_size);
    GaugeAdd(DirtyGauge(file->node),
             -static_cast<std::int64_t>(config_.stripe_size));
    sim::VoidPromise accepted(sim_);
    auto accepted_future = accepted.GetFuture();
    SubmitStripe(file, file->next_stripe++, std::move(stripe),
                 std::move(accepted), tctx);
    co_await accepted_future;
  }
  co_return file->first_error;
}

sim::Task MemFs::SubmitStripe(OpenFile* file, std::uint32_t index, Bytes data,
                              sim::VoidPromise accepted,
                              trace::TraceContext trace) {
  const std::string key(file->stripe_keys.Render(index));
  if (config_.io_threads == 0) {
    // No buffering (Fig. 3b baseline): the write call itself carries the
    // transfer.
    trace::ScopedSpan span(trace, "stripe.put", "striper");
    trace::Annotate(span.context(), "key", key);
    ++stats_.stripe_sets;
    Status status = co_await replicas_.ReplicatedSet(
        file->node, key, std::move(data), span.context(), file->epoch);
    if (!status.ok() && file->first_error.ok()) file->first_error = status;
    accepted.Set(sim::Done{});
    co_return;
  }
  // Backpressure permit: FlushStripe's completion path releases it once the
  // stripe lands on the servers, bounding buffered bytes per handle.
  {
    trace::ScopedSpan wait(trace, "buffer.wait", "queue");
    // lint: allow(acquire-release) released by the flush completion, not here
    co_await file->tokens->Acquire();  // buffer-capacity backpressure
  }
  file->inflight->Add();
  FlushStripe(file, key, std::move(data), trace);
  accepted.Set(sim::Done{});
}

sim::Task MemFs::FlushStripe(OpenFile* file, std::string key, Bytes data,
                             trace::TraceContext trace) {
  // The stripe span outlives its parent vfs.write span by design: buffered
  // stripes drain asynchronously and the write call returns on admission.
  trace::ScopedSpan span(trace, "stripe.put", "striper");
  trace::Annotate(span.context(), "key", key);
  auto& pool = write_pool_.at(file->node);
  {
    trace::ScopedSpan wait(span.context(), "write_pool.wait", "queue");
    co_await pool.Acquire();
  }
  ++stats_.stripe_sets;
  Status status =
      co_await replicas_.ReplicatedSet(file->node, std::move(key),
                                       std::move(data), span.context(),
                                       file->epoch);
  pool.Release();
  if (!status.ok() && file->first_error.ok()) file->first_error = status;
  file->tokens->Release();
  file->inflight->Done();
}

sim::Future<Status> MemFs::Flush(VfsContext ctx, FileHandle handle) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.flush", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.flush", tctx, ctx.node);
  co_await EnterFuse(fuse_, ctx, tctx);
  auto it = handles_.find(handle);
  if (it == handles_.end()) co_return status::BadHandle();
  OpenFile* file = it->second.get();
  if (!file->writing) {
    co_return Status::Ok();  // POSIX: fsync on a read fd is a no-op here
  }
  // Wait until the write buffer has been emptied (§3.2.2). The partial tail
  // stays buffered: it is not a whole stripe yet, and shipping it early
  // would break the fixed-stripe arithmetic readers rely on; only close()
  // may emit the short final stripe.
  co_await file->inflight->Wait();
  co_return file->first_error;
}

sim::Future<Status> MemFs::Close(VfsContext ctx, FileHandle handle) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.close", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.close", tctx, ctx.node);
  co_await EnterFuse(fuse_, ctx, tctx);
  auto it = handles_.find(handle);
  if (it == handles_.end()) co_return status::BadHandle();
  OpenFile* file = it->second.get();
  Status result;
  if (file->writing) {
    if (!file->pending.empty()) {
      Bytes tail = std::move(file->pending);
      file->pending = Bytes();
      GaugeAdd(DirtyGauge(file->node),
               -static_cast<std::int64_t>(tail.size()));
      sim::VoidPromise accepted(sim_);
      auto accepted_future = accepted.GetFuture();
      SubmitStripe(file, file->next_stripe++, std::move(tail),
                     std::move(accepted), tctx);
      co_await accepted_future;
    }
    // close() returns only after the write buffer has drained (§3.2.2).
    co_await file->inflight->Wait();
    result = file->first_error;
    if (result.ok()) {
      // Seal: replace the unsealed record with the final size (§3.2.4),
      // on every replica.
      if (meta_client_ != nullptr) {
        result = co_await meta_client_->SealFile(ctx.node, file->ino,
                                                 file->written, file->epoch,
                                                 tctx);
      } else {
        result = co_await replicas_.ReplicatedSet(
            ctx.node, file->path,
            meta::EncodeFileRecord({.size = file->written,
                                    .sealed = true,
                                    .epoch = file->epoch}),
            tctx);
      }
    }
  }
  handles_.erase(handle);
  GaugeAdd(OpenFilesGauge(ctx.node), -1);
  co_return std::move(result);
}

// ---------------------------------------------------------------------------
// Open / read path

sim::Future<Result<FileHandle>> MemFs::Open(VfsContext ctx, std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.open", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.open", tctx, ctx.node);
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  Result<meta::Attr> attr = meta::Attr{};
  if (meta_client_ != nullptr) {
    attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
  } else {
    Result<Bytes> record =
        co_await replicas_.FailoverGet(ctx.node, path, tctx);
    attr = PathAttr(record, path, nullptr);
  }
  if (!attr.ok()) co_return attr.status();
  if (attr->rec.kind == meta::InodeKind::kDirectory) {
    co_return status::IsDirectory(path);
  }
  if (attr->rec.epoch > replicas_.current_epoch()) {
    co_return status::Internal("file from unknown ring epoch: " + path);
  }
  if (!attr->rec.sealed) {
    co_return status::Permission("file still open for writing: " + path);
  }
  co_return InstallHandle(std::move(path), attr->ino, ctx.node,
                          /*writing=*/false, attr->rec.epoch, attr->rec.size);
}

sim::Future<Result<Bytes>> MemFs::Read(VfsContext ctx, FileHandle handle,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.read", "vfs");
  const trace::TraceContext& tctx = op_span.context();
  const OpLatency latency(sim_, config_.metrics, "vfs.read", tctx, ctx.node);
  trace::Annotate(tctx, "offset", std::to_string(offset));
  trace::Annotate(tctx, "length", std::to_string(length));
  co_await EnterFuse(fuse_, ctx, tctx);
  auto found = FindHandle(handle, /*writing=*/false);
  if (!found.ok()) co_return found.status();
  OpenFile* file = *found;
  const auto spans = striper_.Spans(offset, length, file->size);

  // Start every needed stripe fetch first (parallel streams from multiple
  // servers — the striping bandwidth win), then trigger the sequential
  // prefetcher, then assemble.
  std::vector<sim::Future<Result<Bytes>>> futures;
  futures.reserve(spans.size());
  for (const auto& span : spans) {
    futures.push_back(
        EnsureStripe(file, span.stripe, /*prefetch=*/false, tctx));
  }

  if (config_.prefetch_depth > 0 && !spans.empty() &&
      offset == file->sequential_end) {
    const std::uint32_t stripe_count = striper_.StripeCount(file->size);
    const std::uint32_t last = spans.back().stripe;
    // Never prefetch beyond what the cache can hold alongside the stripe
    // being read — a lookahead window wider than the cache evicts its own
    // entries (and the one in use) before they are consumed.
    const auto cache_stripes = std::max<std::uint64_t>(
        config_.read_cache_bytes / config_.stripe_size, 1);
    const auto depth = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.prefetch_depth, cache_stripes > 1 ? cache_stripes - 1 : 0));
    for (std::uint32_t ahead = 1; ahead <= depth; ++ahead) {
      const std::uint32_t idx = last + ahead;
      if (idx >= stripe_count) break;
      // Prefetched stripes park in the cache; nobody awaits them here.
      (void)EnsureStripe(file, idx, /*prefetch=*/true, tctx);
    }
  }

  Bytes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Result<Bytes> stripe = co_await futures[i];
    if (!stripe.ok()) {
      // Drop the failed fetch from the cache so a later read retries it
      // instead of replaying the pinned failure after the server recovers.
      file->cache.erase(spans[i].stripe);
      auto& order = file->cache_order;
      order.erase(std::remove(order.begin(), order.end(), spans[i].stripe),
                  order.end());
      // UNAVAILABLE_PERMANENT passes through untranslated: a drained server
      // took the only copy with it, and the caller must not retry.
      const ErrorCode code = stripe.status().code();
      if (IsRetryable(code) || code == ErrorCode::kUnavailablePermanent) {
        co_return stripe.status();
      }
      co_return status::Internal("missing stripe " +
                                 std::to_string(spans[i].stripe) + " of " +
                                 file->path);
    }
    out.Append(
        stripe.value().Slice(spans[i].offset_in_stripe, spans[i].length));
  }
  file->sequential_end = offset + out.size();
  stats_.bytes_read += out.size();
  co_return std::move(out);
}

sim::Future<Result<Bytes>> MemFs::EnsureStripe(OpenFile* file,
                                               std::uint32_t index,
                                               bool prefetch,
                                               trace::TraceContext trace) {
  auto it = file->cache.find(index);
  if (it != file->cache.end()) {
    if (!prefetch) {
      trace::Event(trace, "stripe_cache_hit");
      ++stats_.cache_hits;
    }
    return it->second;
  }
  if (!prefetch) {
    ++stats_.cache_misses;
  } else {
    trace::Event(trace, "prefetch_issued");
    ++stats_.prefetch_issued;
  }

  auto future = FetchStripe(file->node, file->epoch,
                            std::string(file->stripe_keys.Render(index)),
                            trace);
  file->cache.emplace(index, future);
  file->cache_order.push_back(index);

  // FIFO eviction once the 8 MB per-file cache is full. Readers that already
  // hold the future keep the shared state alive; eviction only forgets the
  // cache entry.
  const auto capacity = std::max<std::uint64_t>(
      config_.read_cache_bytes / config_.stripe_size, 1);
  auto& order = file->cache_order;
  while (order.size() > capacity) {
    file->cache.erase(order.front());
    order.erase(order.begin());
  }
  return future;
}

sim::Future<Result<Bytes>> MemFs::FetchStripe(net::NodeId node,
                                              std::uint32_t epoch,
                                              std::string key,
                                              trace::TraceContext trace) {
  // A prefetched stripe's span outlives the read that issued it; it still
  // parents correctly because contexts are values, not stack state.
  trace::ScopedSpan span(trace, "stripe.get", "striper");
  trace::Annotate(span.context(), "key", key);
  auto& pool = read_pool_.at(node);
  {
    trace::ScopedSpan wait(span.context(), "read_pool.wait", "queue");
    co_await pool.Acquire();
  }
  ++stats_.stripe_gets;
  Result<Bytes> result =
      co_await replicas_.FailoverGet(node, std::move(key), span.context(),
                                     epoch);
  pool.Release();
  co_return std::move(result);
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Future<Status> MemFs::Mkdir(VfsContext ctx, std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.mkdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  if (meta_client_ != nullptr) {
    co_return co_await meta_client_->Mkdir(ctx.node, std::move(path), tctx);
  }
  // Every replica gets the directory record, so each can take the appends
  // (the header is a constant, harmless on a mid-handoff shadow home).
  Status added = co_await replicas_.MetaAdd(ctx.node, path,
                                            meta::DirRecordHeader(), tctx);
  if (!added.ok()) co_return added;
  const std::string parent = path::Parent(path);
  Status linked = co_await replicas_.ReplicatedAppend(
      ctx.node, parent, meta::DirEvent(path::Basename(path), false), tctx);
  if (!linked.ok()) {
    // lint: allow(ignored-status) best-effort rollback of an inert record
    co_await replicas_.ReplicatedDelete(ctx.node, path, tctx);
    co_return status::LookupError(linked, "parent directory: " + parent);
  }
  co_return Status::Ok();
}

sim::Future<Result<std::vector<FileInfo>>> MemFs::ReadDir(VfsContext ctx,
                                                          std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.readdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  std::vector<std::string> names;  // append_log: the record's folded log
  Result<meta::Attr> attr = meta::Attr{};
  if (meta_client_ != nullptr) {
    attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
  } else {
    Result<Bytes> record =
        co_await replicas_.FailoverGet(ctx.node, path, tctx);
    attr = PathAttr(record, path, &names);
  }
  if (!attr.ok()) co_return attr.status();
  if (attr->rec.kind != meta::InodeKind::kDirectory) {
    co_return status::NotDirectory(path);
  }
  if (meta_client_ != nullptr) {
    // Page through the token ranges; each iteration reads bounded blobs, so
    // no single RPC carries the whole directory even here.
    std::uint32_t shard = 0;
    std::uint64_t offset = 0;
    while (true) {
      auto page = co_await meta_client_->ReadDirPage(
          ctx.node, attr->ino, shard, offset, meta::kReaddirPage, tctx);
      if (!page.ok()) co_return page.status();
      names.insert(names.end(), std::make_move_iterator(page->names.begin()),
                   std::make_move_iterator(page->names.end()));
      if (!page->more) break;
      shard = page->next_shard;
      offset = page->next_offset;
    }
    // Pages arrive in (shard, name) order; the listing is sorted by name,
    // the order of the append-log arm's folded log and of AMFS.
    std::sort(names.begin(), names.end());
  }
  co_return InfosOf(std::move(names));
}

sim::Future<Result<FileInfo>> MemFs::Stat(VfsContext ctx, std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.stat", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  Result<meta::Attr> attr = meta::Attr{};
  if (meta_client_ != nullptr) {
    attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
  } else {
    Result<Bytes> record =
        co_await replicas_.FailoverGet(ctx.node, path, tctx);
    attr = PathAttr(record, path, nullptr);
  }
  if (!attr.ok()) co_return attr.status();
  FileInfo info;
  info.name = path::Basename(path);
  if (attr->rec.kind == meta::InodeKind::kDirectory) {
    info.is_directory = true;
  } else {
    info.size = attr->rec.size;
    info.sealed = attr->rec.sealed;
  }
  co_return std::move(info);
}

sim::Future<Status> MemFs::Rmdir(VfsContext ctx, std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.rmdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  if (meta_client_ != nullptr) {
    co_return co_await meta_client_->Rmdir(ctx.node, std::move(path), tctx);
  }
  std::vector<std::string> names;
  Result<Bytes> record = co_await replicas_.FailoverGet(ctx.node, path, tctx);
  Result<meta::Attr> attr = PathAttr(record, path, &names);
  if (!attr.ok()) co_return attr.status();
  if (attr->rec.kind != meta::InodeKind::kDirectory) {
    co_return status::NotDirectory(path);
  }
  if (!names.empty()) co_return status::NotEmpty(path);
  // Tombstone in the parent, then drop the directory record. A failed
  // tombstone aborts the removal while the directory is still fully intact;
  // silently continuing would leave a phantom entry in the parent's log.
  const std::string parent = path::Parent(path);
  Status tombstoned = co_await replicas_.ReplicatedAppend(
      ctx.node, parent, meta::DirEvent(path::Basename(path), true), tctx);
  if (!tombstoned.ok()) co_return std::move(tombstoned);
  Status dropped = co_await replicas_.ReplicatedDelete(ctx.node, path, tctx);
  co_return std::move(dropped);
}

sim::Future<Status> MemFs::Unlink(VfsContext ctx, std::string path) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.unlink", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  meta::Attr dead;  // the file whose last name went
  if (meta_client_ != nullptr) {
    auto outcome = co_await meta_client_->Unlink(ctx.node, path, tctx);
    if (!outcome.ok()) co_return outcome.status();
    if (!outcome->removed_inode) co_return Status::Ok();  // other links live
    dead = {outcome->ino, outcome->rec};
  } else {
    Result<Bytes> record =
        co_await replicas_.FailoverGet(ctx.node, path, tctx);
    Result<meta::Attr> attr = PathAttr(record, path, nullptr);
    if (!attr.ok()) co_return attr.status();
    if (attr->rec.kind == meta::InodeKind::kDirectory) {
      co_return status::IsDirectory(path);
    }
    // Tombstone in the parent log (the paper's protocol), then drop the
    // record. Both steps abort on failure: a failed tombstone leaves the
    // file untouched, and a failed record delete must not reclaim stripes
    // under a record that is still openable.
    const std::string parent = path::Parent(path);
    Status tombstoned = co_await replicas_.ReplicatedAppend(
        ctx.node, parent, meta::DirEvent(path::Basename(path), true), tctx);
    if (!tombstoned.ok()) co_return std::move(tombstoned);
    Status dropped =
        co_await replicas_.ReplicatedDelete(ctx.node, path, tctx);
    if (!dropped.ok()) co_return std::move(dropped);
    dead = *attr;
  }
  // Reclaim every replica of every stripe under the epoch the record names.
  // A sharded file's stripes key on its ino, which no rename ever moved.
  std::string ident = dead.ino != 0 ? meta::StripeIdent(dead.ino) : path;
  co_await ReclaimStripes(ctx.node, std::move(ident), dead.rec.epoch,
                          dead.rec.size, tctx);
  co_return Status::Ok();
}

sim::VoidFuture MemFs::ReclaimStripes(net::NodeId node, std::string ident,
                                      std::uint32_t epoch, std::uint64_t size,
                                      trace::TraceContext trace) {
  // A record naming an epoch this mount never opened falls back to epoch 0.
  if (epoch > replicas_.current_epoch()) epoch = 0;
  const std::uint32_t stripes = striper_.StripeCount(size);
  sim::WaitGroup wg(sim_);
  StripeKeyBuf keys(ident);
  for (std::uint32_t i = 0; i < stripes; ++i) {
    wg.Add();
    auto deletion = replicas_.ReplicatedDelete(
        node, std::string(keys.Render(i)), trace, epoch);
    [](sim::Future<Status> f, sim::WaitGroup& group) -> sim::Task {
      co_await f;
      group.Done();
    }(std::move(deletion), wg);
  }
  co_await wg.Wait();
  co_return sim::Done{};
}

// ---------------------------------------------------------------------------
// Paged enumeration, rename, hard links

sim::Future<Result<DirPage>> MemFs::ReadDirPage(VfsContext ctx,
                                                std::string path,
                                                DirCursor cursor,
                                                std::uint32_t limit) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.readdir_page", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  co_await EnterFuse(fuse_, ctx, tctx);
  const std::uint32_t page_limit = limit > 0 ? limit : meta::kReaddirPage;
  // An append_log directory is one record, so its cursors have one shard.
  if (meta_client_ == nullptr && cursor.shard > 0) {
    co_return status::InvalidArgument("append_log cursors have one shard");
  }
  std::vector<std::string> names;  // append_log: the record's folded log
  Result<meta::Attr> attr = meta::Attr{};
  if (meta_client_ != nullptr) {
    attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
  } else {
    Result<Bytes> record =
        co_await replicas_.FailoverGet(ctx.node, path, tctx);
    attr = PathAttr(record, path, &names);
  }
  if (!attr.ok()) co_return attr.status();
  if (attr->rec.kind != meta::InodeKind::kDirectory) {
    co_return status::NotDirectory(path);
  }
  DirPage page;
  if (meta_client_ != nullptr) {
    auto result = co_await meta_client_->ReadDirPage(
        ctx.node, attr->ino, cursor.shard, cursor.offset, page_limit, tctx);
    if (!result.ok()) co_return result.status();
    names = std::move(result->names);
    page.next = {result->next_shard, result->next_offset};
    page.more = result->more;
  } else {
    // The page is a slice of the sorted folded log. The whole log still
    // crossed the wire — the limitation the sharded mode removes.
    const std::uint64_t begin =
        std::min<std::uint64_t>(cursor.offset, names.size());
    const std::uint64_t end =
        begin + std::min<std::uint64_t>(page_limit, names.size() - begin);
    page.more = end < names.size();
    page.next = page.more ? DirCursor{0, end} : DirCursor{1, 0};
    names.erase(names.begin() + static_cast<std::ptrdiff_t>(end),
                names.end());
    names.erase(names.begin(),
                names.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  page.entries = InfosOf(std::move(names));
  co_return std::move(page);
}

sim::Future<Status> MemFs::Rename(VfsContext ctx, std::string from,
                                  std::string to) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.rename", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "from", from);
  trace::Annotate(tctx, "to", to);
  co_await EnterFuse(fuse_, ctx, tctx);
  if (!path::IsNormalized(from) || !path::IsNormalized(to) || from == "/" ||
      to == "/" || from == to) {
    co_return status::InvalidArgument("bad rename paths");
  }
  if (to.size() > from.size() && to.compare(0, from.size(), from) == 0 &&
      to[from.size()] == '/') {
    co_return status::InvalidArgument("cannot move a directory under itself");
  }
  if (meta_client_ == nullptr) {
    co_return status::Permission("rename requires sharded metadata");
  }
  co_return co_await meta_client_->Rename(ctx.node, std::move(from),
                                          std::move(to), tctx);
}

sim::Future<Status> MemFs::Link(VfsContext ctx, std::string existing,
                                std::string link) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.link", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "existing", existing);
  trace::Annotate(tctx, "link", link);
  co_await EnterFuse(fuse_, ctx, tctx);
  if (!path::IsNormalized(existing) || !path::IsNormalized(link) ||
      existing == "/" || link == "/" || existing == link) {
    co_return status::InvalidArgument("bad link paths");
  }
  if (meta_client_ == nullptr) {
    co_return status::Permission("hard links require sharded metadata");
  }
  co_return co_await meta_client_->Link(ctx.node, std::move(existing),
                                        std::move(link), tctx);
}

}  // namespace memfs::fs
