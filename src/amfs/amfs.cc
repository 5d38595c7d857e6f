#include "amfs/amfs.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "hash/hash.h"

namespace memfs::amfs {

using fs::FileHandle;
using fs::FileInfo;
using fs::VfsContext;

Amfs::Amfs(sim::Simulation& sim, net::Network& network, AmfsConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      fuse_(sim, network.config().nodes, config.fuse),
      meta_workers_(sim, network.config().nodes, config.metadata_workers,
                    "amfs.meta_workers"),
      dir_locks_(sim, network.config().nodes, 1, "amfs.dir_lock") {
  const std::uint32_t nodes = network.config().nodes;
  stores_.reserve(nodes);
  kv::KvServerConfig store_config;
  store_config.memory_limit = config_.node_memory_limit;
  // AMFS stores whole files, not stripes; no per-object ceiling below the
  // node memory itself.
  store_config.max_object_size = config_.node_memory_limit;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    stores_.push_back(std::make_unique<kv::KvServer>(store_config));
  }
  metadata_.resize(nodes);

  MetaRecord root;
  root.is_directory = true;
  metadata_[MetaServerFor("/")].emplace("/", std::move(root));
}

net::NodeId Amfs::MetaServerFor(std::string_view path) const {
  const std::uint32_t nodes = network_.config().nodes;
  if (!config_.skewed_metadata) {
    return static_cast<net::NodeId>(hash::Fnv1a64(path) % nodes);
  }
  // Additive byte-sum placement: workload file names share long common
  // prefixes and differ in a few digit positions, so nearby names collapse
  // onto few nodes — the non-uniform distribution reported for AMFS.
  std::uint64_t sum = 0;
  for (unsigned char c : path) sum += c;
  return static_cast<net::NodeId>(sum % nodes);
}

Result<Amfs::MetaRecord*> Amfs::FindMeta(const std::string& path) {
  auto& shard = metadata_[MetaServerFor(path)];
  auto it = shard.find(path);
  if (it == shard.end()) return status::NotFound(path);
  return &it->second;
}

net::NodeId Amfs::OwnerHint(const std::string& path) const {
  const auto& shard = metadata_[MetaServerFor(path)];
  auto it = shard.find(path);
  if (it == shard.end()) return network_.config().nodes;
  return it->second.owner;
}

bool Amfs::HasReplica(net::NodeId node, const std::string& path) const {
  return stores_[node]->Exists(path);
}

std::uint64_t Amfs::node_memory_used(net::NodeId node) const {
  return stores_[node]->memory_used();
}

std::uint64_t Amfs::total_memory_used() const {
  std::uint64_t total = 0;
  for (const auto& store : stores_) total += store->memory_used();
  return total;
}

// ---------------------------------------------------------------------------
// Metadata protocol

sim::Task Amfs::RunMetaService(net::NodeId home, sim::VoidPromise done) {
  auto& workers = meta_workers_.at(home);
  co_await workers.Acquire();
  co_await sim_.Delay(config_.metadata_base);
  workers.Release();
  done.Set(sim::Done{});
}

sim::VoidFuture Amfs::MetaService(net::NodeId home) {
  sim::VoidPromise done(sim_);
  auto future = done.GetFuture();
  RunMetaService(home, std::move(done));
  return future;
}

sim::Task Amfs::RunDirUpdateService(net::NodeId home, sim::VoidPromise done) {
  auto& lock = dir_locks_.at(home);
  co_await lock.Acquire();
  co_await sim_.Delay(config_.metadata_dir_update);
  lock.Release();
  done.Set(sim::Done{});
}

sim::VoidFuture Amfs::DirUpdateService(net::NodeId home) {
  sim::VoidPromise done(sim_);
  auto future = done.GetFuture();
  RunDirUpdateService(home, std::move(done));
  return future;
}

sim::Task Amfs::QueryMeta(VfsContext ctx, std::string path,
                          sim::Promise<Result<MetaRecord>> done) {
  // A node answers from its own tables when it stores the file or homes the
  // record ("all queries are local" for locality-scheduled opens).
  const net::NodeId home = MetaServerFor(path);
  const bool local_answer =
      home == ctx.node || stores_[ctx.node]->Exists(path);
  if (!local_answer) {
    co_await network_.Transfer(ctx.node, home, 64);
    co_await MetaService(home);
  } else {
    co_await sim_.Delay(config_.metadata_local);
  }
  auto& shard = metadata_[home];
  auto it = shard.find(path);
  Result<MetaRecord> result =
      it == shard.end() ? Result<MetaRecord>(status::NotFound(path))
                        : Result<MetaRecord>(it->second);
  if (!local_answer) {
    co_await network_.Transfer(home, ctx.node, 64);
  }
  done.Set(std::move(result));
}

// ---------------------------------------------------------------------------
// Create / write path (local-only writes)

sim::Future<Result<FileHandle>> Amfs::Create(VfsContext ctx,
                                             std::string path) {
  sim::Promise<Result<FileHandle>> done(sim_);
  auto future = done.GetFuture();
  DoCreate(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task Amfs::DoCreate(VfsContext ctx, std::string path,
                         sim::Promise<Result<FileHandle>> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!fs::path::IsNormalized(path) || path == "/") {
    done.Set(status::InvalidArgument("bad path"));
    co_return;
  }
  // Register the record at its (skewed) home node.
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  if (shard.contains(path)) {
    if (home != ctx.node) co_await network_.Transfer(home, ctx.node, 64);
    done.Set(status::Exists(path));
    co_return;
  }
  MetaRecord record;
  record.owner = ctx.node;
  shard.emplace(path, record);
  if (home != ctx.node) co_await network_.Transfer(home, ctx.node, 64);

  // Link into the parent directory record.
  const std::string parent = fs::path::Parent(path);
  const net::NodeId parent_home = MetaServerFor(parent);
  if (parent_home != ctx.node) {
    co_await network_.Transfer(ctx.node, parent_home, 128);
  }
  co_await DirUpdateService(parent_home);
  auto& parent_shard = metadata_[parent_home];
  auto parent_it = parent_shard.find(parent);
  if (parent_it == parent_shard.end() || !parent_it->second.is_directory) {
    metadata_[home].erase(path);
    done.Set(status::NotFound("parent directory: " + parent));
    co_return;
  }
  parent_it->second.entries.push_back(fs::path::Basename(path));
  if (parent_home != ctx.node) {
    co_await network_.Transfer(parent_home, ctx.node, 64);
  }

  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->node = ctx.node;
  file->writing = true;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  done.Set(handle);
}

sim::Future<Status> Amfs::Write(VfsContext ctx, FileHandle handle,
                                Bytes data) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoWrite(ctx, handle, std::move(data), std::move(done));
  return future;
}

sim::Task Amfs::DoWrite(VfsContext ctx, FileHandle handle, Bytes data,
                        sim::Promise<Status> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end() || !it->second->writing) {
    done.Set(status::BadHandle());
    co_return;
  }
  OpenFile* file = it->second.get();
  // Local write path: FUSE + in-memory file system copy; no network.
  co_await sim_.Delay(config_.op_base +
                      static_cast<sim::SimTime>(
                          config_.write_ns_per_byte *
                          static_cast<double>(data.size())));
  file->buffer.Append(data);
  done.Set(Status::Ok());
}

sim::Future<Status> Amfs::Flush(VfsContext ctx, FileHandle handle) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  // AMFS buffers the whole file in the writer's memory until close; flush
  // has nothing to push but still crosses the FUSE boundary.
  [](Amfs* self, VfsContext context, FileHandle h,
     sim::Promise<Status> promise) -> sim::Task {
    co_await self->fuse_.Enter(context.node, context.process);
    promise.Set(self->handles_.contains(h) ? Status::Ok()
                                           : status::BadHandle());
  }(this, ctx, handle, std::move(done));
  return future;
}

sim::Future<Status> Amfs::Close(VfsContext ctx, FileHandle handle) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoClose(ctx, handle, std::move(done));
  return future;
}

sim::Task Amfs::DoClose(VfsContext ctx, FileHandle handle,
                        sim::Promise<Status> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    done.Set(status::BadHandle());
    co_return;
  }
  OpenFile* file = it->second.get();
  Status result;
  if (file->writing) {
    const std::uint64_t size = file->buffer.size();
    // The whole file lands in the writer's own memory — the local-only write
    // policy whose imbalance Table 3 measures.
    result = stores_[file->node]->Set(file->path, std::move(file->buffer));
    if (!result.ok()) {
      // Capacity failure: roll the namespace back so the path is reusable
      // (e.g. by a retry on a different node).
      const net::NodeId home = MetaServerFor(file->path);
      metadata_[home].erase(file->path);
      const std::string parent = fs::path::Parent(file->path);
      auto& parent_shard = metadata_[MetaServerFor(parent)];
      auto parent_it = parent_shard.find(parent);
      if (parent_it != parent_shard.end()) {
        auto& entries = parent_it->second.entries;
        entries.erase(std::remove(entries.begin(), entries.end(),
                                  fs::path::Basename(file->path)),
                      entries.end());
      }
    }
    if (result.ok()) {
      // Seal at the metadata home.
      const net::NodeId home = MetaServerFor(file->path);
      if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
      co_await MetaService(home);
      auto& shard = metadata_[home];
      auto meta_it = shard.find(file->path);
      if (meta_it != shard.end()) {
        meta_it->second.size = size;
        meta_it->second.sealed = true;
      }
      if (home != ctx.node) co_await network_.Transfer(home, ctx.node, 64);
    }
  }
  handles_.erase(handle);
  done.Set(std::move(result));
}

// ---------------------------------------------------------------------------
// Open / read path (replication-on-read)

sim::Future<Result<FileHandle>> Amfs::Open(VfsContext ctx, std::string path) {
  sim::Promise<Result<FileHandle>> done(sim_);
  auto future = done.GetFuture();
  DoOpen(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task Amfs::DoOpen(VfsContext ctx, std::string path,
                       sim::Promise<Result<FileHandle>> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  sim::Promise<Result<MetaRecord>> meta_promise(sim_);
  auto meta_future = meta_promise.GetFuture();
  QueryMeta(ctx, path, std::move(meta_promise));
  Result<MetaRecord> meta = co_await meta_future;
  if (!meta.ok()) {
    done.Set(meta.status());
    co_return;
  }
  if (meta->is_directory) {
    done.Set(status::IsDirectory(path));
    co_return;
  }
  if (!meta->sealed) {
    done.Set(status::Permission("file still open for writing: " + path));
    co_return;
  }

  if (!stores_[ctx.node]->Exists(path)) {
    // Locality was not achieved: fetch from the owner and keep a replica —
    // the expensive path of Table 1 and the memory blow-up of Fig. 9.
    sim::Promise<Status> fetch_promise(sim_);
    auto fetch_future = fetch_promise.GetFuture();
    FetchAndReplicate(meta->owner, ctx.node, path, std::move(fetch_promise));
    Status fetched = co_await fetch_future;
    if (!fetched.ok()) {
      done.Set(std::move(fetched));
      co_return;
    }
  }

  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->node = ctx.node;
  file->writing = false;
  file->size = meta->size;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  done.Set(handle);
}

sim::Task Amfs::FetchAndReplicate(net::NodeId from, net::NodeId to,
                                  std::string path,
                                  sim::Promise<Status> done) {
  auto value = stores_[from]->Get(path);
  if (!value.ok()) {
    done.Set(status::Internal("owner lost " + path));
    co_return;
  }
  // Sequential chunked protocol: one request/response round trip per chunk.
  // This is what keeps AMFS remote reads far below line rate.
  const std::uint64_t size = value->size();
  std::uint64_t offset = 0;
  while (offset < size) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.fetch_chunk_bytes, size - offset);
    co_await network_.Transfer(to, from, 64);      // chunk request
    co_await network_.Transfer(from, to, chunk);   // chunk payload
    offset += chunk;
  }
  Status stored = stores_[to]->Set(path, std::move(value.value()));
  done.Set(std::move(stored));
}

sim::Future<Result<Bytes>> Amfs::Read(VfsContext ctx, FileHandle handle,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  sim::Promise<Result<Bytes>> done(sim_);
  auto future = done.GetFuture();
  DoRead(ctx, handle, offset, length, std::move(done));
  return future;
}

sim::Task Amfs::DoRead(VfsContext ctx, FileHandle handle, std::uint64_t offset,
                       std::uint64_t length,
                       sim::Promise<Result<Bytes>> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end() || it->second->writing) {
    done.Set(status::BadHandle());
    co_return;
  }
  OpenFile* file = it->second.get();
  auto value = stores_[file->node]->Get(file->path);
  if (!value.ok()) {
    done.Set(status::Internal("replica missing: " + file->path));
    co_return;
  }
  Bytes out = value->Slice(offset, length);
  co_await sim_.Delay(config_.op_base +
                      static_cast<sim::SimTime>(
                          config_.read_ns_per_byte *
                          static_cast<double>(out.size())));
  done.Set(std::move(out));
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Future<Status> Amfs::Mkdir(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoMkdir(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task Amfs::DoMkdir(VfsContext ctx, std::string path,
                        sim::Promise<Status> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!fs::path::IsNormalized(path) || path == "/") {
    done.Set(status::InvalidArgument("bad path"));
    co_return;
  }
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  if (shard.contains(path)) {
    done.Set(status::Exists(path));
    co_return;
  }
  MetaRecord record;
  record.owner = ctx.node;
  record.is_directory = true;
  shard.emplace(path, std::move(record));

  const std::string parent = fs::path::Parent(path);
  const net::NodeId parent_home = MetaServerFor(parent);
  if (parent_home != ctx.node) {
    co_await network_.Transfer(ctx.node, parent_home, 128);
  }
  co_await DirUpdateService(parent_home);
  auto& parent_shard = metadata_[parent_home];
  auto parent_it = parent_shard.find(parent);
  if (parent_it == parent_shard.end() || !parent_it->second.is_directory) {
    metadata_[home].erase(path);
    done.Set(status::NotFound("parent directory: " + parent));
    co_return;
  }
  parent_it->second.entries.push_back(fs::path::Basename(path));
  done.Set(Status::Ok());
}

sim::Future<Result<std::vector<FileInfo>>> Amfs::ReadDir(VfsContext ctx,
                                                         std::string path) {
  sim::Promise<Result<std::vector<FileInfo>>> done(sim_);
  auto future = done.GetFuture();
  // Paged readback: each round trip carries one sorted page, so no single
  // response scales with the directory size (the fig06 apples-to-apples fix).
  [](Amfs* self, VfsContext context, std::string p,
     sim::Promise<Result<std::vector<FileInfo>>> promise) -> sim::Task {
    std::vector<FileInfo> infos;
    fs::DirCursor cursor;
    while (true) {
      auto page = co_await self->ReadDirPage(context, p, cursor, 0);
      if (!page.ok()) {
        promise.Set(page.status());
        co_return;
      }
      for (auto& info : page->entries) infos.push_back(std::move(info));
      if (!page->more) break;
      cursor = page->next;
    }
    promise.Set(std::move(infos));
  }(this, ctx, std::move(path), std::move(done));
  return future;
}

sim::Future<Result<fs::DirPage>> Amfs::ReadDirPage(VfsContext ctx,
                                                   std::string path,
                                                   fs::DirCursor cursor,
                                                   std::uint32_t limit) {
  sim::Promise<Result<fs::DirPage>> done(sim_);
  auto future = done.GetFuture();
  DoReadDirPage(ctx, std::move(path), cursor, limit, std::move(done));
  return future;
}

sim::Task Amfs::DoReadDirPage(VfsContext ctx, std::string path,
                              fs::DirCursor cursor, std::uint32_t limit,
                              sim::Promise<Result<fs::DirPage>> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (cursor.shard > 1) {
    done.Set(status::InvalidArgument("AMFS cursors have one shard"));
    co_return;
  }
  const std::uint32_t page_limit = limit > 0 ? limit : config_.readdir_page;
  const net::NodeId home = MetaServerFor(path);
  const bool local_answer =
      home == ctx.node || stores_[ctx.node]->Exists(path);
  if (!local_answer) {
    co_await network_.Transfer(ctx.node, home, 64);  // page request
    co_await MetaService(home);
  } else {
    co_await sim_.Delay(config_.metadata_local);
  }
  auto& shard = metadata_[home];
  auto it = shard.find(path);
  if (it == shard.end() || !it->second.is_directory) {
    const Status failure = it == shard.end()
                               ? status::NotFound(path)
                               : status::NotDirectory(path);
    if (!local_answer) co_await network_.Transfer(home, ctx.node, 64);
    done.Set(failure);
    co_return;
  }
  std::vector<std::string> names = it->second.entries;
  std::sort(names.begin(), names.end());
  fs::DirPage page;
  std::uint64_t offset = cursor.shard == 1 ? names.size() : cursor.offset;
  std::uint64_t wire_bytes = 16;  // page framing
  while (offset < names.size() && page.entries.size() < page_limit) {
    wire_bytes += names[offset].size() + 16;
    FileInfo info;
    info.name = std::move(names[offset]);
    page.entries.push_back(std::move(info));
    ++offset;
  }
  page.more = offset < names.size();
  page.next.shard = page.more ? 0 : 1;
  page.next.offset = page.more ? offset : 0;
  if (!local_answer) {
    // Only the page crosses the wire — the response no longer carries the
    // whole listing.
    co_await network_.Transfer(home, ctx.node, wire_bytes);
  }
  done.Set(std::move(page));
}

sim::Future<Status> Amfs::Rename(VfsContext ctx, std::string from,
                                 std::string to) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoRename(ctx, std::move(from), std::move(to), std::move(done));
  return future;
}

sim::Task Amfs::DoRename(VfsContext ctx, std::string from, std::string to,
                         sim::Promise<Status> done) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!fs::path::IsNormalized(from) || !fs::path::IsNormalized(to) ||
      from == "/" || to == "/" || from == to) {
    done.Set(status::InvalidArgument("bad rename paths"));
    co_return;
  }
  const net::NodeId from_home = MetaServerFor(from);
  if (from_home != ctx.node) {
    co_await network_.Transfer(ctx.node, from_home, 128);
  }
  co_await MetaService(from_home);
  {
    auto& shard = metadata_[from_home];
    auto it = shard.find(from);
    if (it == shard.end()) {
      done.Set(status::NotFound(from));
      co_return;
    }
    if (it->second.is_directory) {
      done.Set(status::Permission("directory rename not supported by AMFS"));
      co_return;
    }
    if (!it->second.sealed) {
      done.Set(status::Permission("file still open for writing: " + from));
      co_return;
    }
  }
  const net::NodeId to_home = MetaServerFor(to);
  if (to_home != ctx.node) {
    co_await network_.Transfer(ctx.node, to_home, 128);
  }
  co_await MetaService(to_home);
  if (metadata_[to_home].contains(to)) {
    done.Set(status::Exists(to));
    co_return;
  }
  const std::string to_parent = fs::path::Parent(to);
  auto parent_meta = FindMeta(to_parent);
  if (!parent_meta.ok() || !(*parent_meta)->is_directory) {
    done.Set(status::NotFound("parent directory: " + to_parent));
    co_return;
  }
  // Commit: move the record between homes (re-found — the shard may have
  // changed across the service waits), then re-key every stored copy
  // locally. AMFS records are path-keyed, so a rename must move bytes.
  {
    auto& shard = metadata_[from_home];
    auto it = shard.find(from);
    if (it == shard.end()) {
      done.Set(status::NotFound(from));
      co_return;
    }
    MetaRecord moved = std::move(it->second);
    shard.erase(it);
    metadata_[to_home].emplace(to, std::move(moved));
  }
  for (auto& store : stores_) {
    if (!store->Exists(from)) continue;
    auto value = store->Get(from);
    if (!value.ok()) continue;
    // the existence check above makes these local re-key steps infallible
    (void)store->Delete(from);
    // re-keying frees before storing, so capacity cannot fail
    (void)store->Set(to, std::move(value.value()));
  }
  // Parent listings: tombstone the old name, add the new one.
  const std::string from_parent = fs::path::Parent(from);
  co_await DirUpdateService(MetaServerFor(from_parent));
  {
    auto& parent_shard = metadata_[MetaServerFor(from_parent)];
    auto parent_it = parent_shard.find(from_parent);
    if (parent_it != parent_shard.end()) {
      auto& entries = parent_it->second.entries;
      entries.erase(std::remove(entries.begin(), entries.end(),
                                fs::path::Basename(from)),
                    entries.end());
    }
  }
  co_await DirUpdateService(MetaServerFor(to_parent));
  {
    auto& parent_shard = metadata_[MetaServerFor(to_parent)];
    auto parent_it = parent_shard.find(to_parent);
    if (parent_it != parent_shard.end()) {
      parent_it->second.entries.push_back(fs::path::Basename(to));
    }
  }
  done.Set(Status::Ok());
}

sim::Future<Status> Amfs::Link(VfsContext ctx, std::string existing,
                               std::string link) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  (void)existing;
  (void)link;
  [](Amfs* self, VfsContext context, sim::Promise<Status> promise)
      -> sim::Task {
    co_await self->fuse_.Enter(context.node, context.process);
    promise.Set(status::Permission("hard links not supported by AMFS"));
  }(this, ctx, std::move(done));
  return future;
}

sim::Future<Result<FileInfo>> Amfs::Stat(VfsContext ctx, std::string path) {
  sim::Promise<Result<FileInfo>> done(sim_);
  auto future = done.GetFuture();
  [](Amfs* self, VfsContext context, std::string p,
     sim::Promise<Result<FileInfo>> promise) -> sim::Task {
    co_await self->fuse_.Enter(context.node, context.process);
    sim::Promise<Result<MetaRecord>> meta_promise(self->sim_);
    auto meta_future = meta_promise.GetFuture();
    self->QueryMeta(context, p, std::move(meta_promise));
    Result<MetaRecord> meta = co_await meta_future;
    if (!meta.ok()) {
      promise.Set(meta.status());
      co_return;
    }
    FileInfo info;
    info.name = fs::path::Basename(p);
    info.size = meta->size;
    info.is_directory = meta->is_directory;
    info.sealed = meta->sealed;
    promise.Set(std::move(info));
  }(this, ctx, std::move(path), std::move(done));
  return future;
}

sim::Future<Status> Amfs::Unlink(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  [](Amfs* self, VfsContext context, std::string p,
     sim::Promise<Status> promise) -> sim::Task {
    co_await self->fuse_.Enter(context.node, context.process);
    const net::NodeId home = self->MetaServerFor(p);
    if (home != context.node) {
      co_await self->network_.Transfer(context.node, home, 128);
    }
    co_await self->MetaService(home);
    auto& shard = self->metadata_[home];
    auto it = shard.find(p);
    if (it == shard.end()) {
      promise.Set(status::NotFound(p));
      co_return;
    }
    if (it->second.is_directory) {
      promise.Set(status::IsDirectory(p));
      co_return;
    }
    shard.erase(it);
    // Reclaim the original and every replica.
    for (auto& store : self->stores_) {
      if (store->Exists(p)) (void)store->Delete(p);
    }
    // Tombstone in the parent listing.
    const std::string parent = fs::path::Parent(p);
    auto& parent_shard = self->metadata_[self->MetaServerFor(parent)];
    auto parent_it = parent_shard.find(parent);
    if (parent_it != parent_shard.end()) {
      auto& entries = parent_it->second.entries;
      entries.erase(
          std::remove(entries.begin(), entries.end(), fs::path::Basename(p)),
          entries.end());
    }
    promise.Set(Status::Ok());
  }(this, ctx, std::move(path), std::move(done));
  return future;
}

sim::Future<Status> Amfs::Rmdir(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  [](Amfs* self, VfsContext context, std::string p,
     sim::Promise<Status> promise) -> sim::Task {
    co_await self->fuse_.Enter(context.node, context.process);
    if (!fs::path::IsNormalized(p) || p == "/") {
      promise.Set(status::InvalidArgument("bad path"));
      co_return;
    }
    const net::NodeId home = self->MetaServerFor(p);
    if (home != context.node) {
      co_await self->network_.Transfer(context.node, home, 128);
    }
    co_await self->MetaService(home);
    auto& shard = self->metadata_[home];
    auto it = shard.find(p);
    if (it == shard.end()) {
      promise.Set(status::NotFound(p));
      co_return;
    }
    if (!it->second.is_directory) {
      promise.Set(status::NotDirectory(p));
      co_return;
    }
    if (!it->second.entries.empty()) {
      promise.Set(status::NotEmpty(p));
      co_return;
    }
    shard.erase(it);
    const std::string parent = fs::path::Parent(p);
    const net::NodeId parent_home = self->MetaServerFor(parent);
    co_await self->DirUpdateService(parent_home);
    auto& parent_shard = self->metadata_[parent_home];
    auto parent_it = parent_shard.find(parent);
    if (parent_it != parent_shard.end()) {
      auto& entries = parent_it->second.entries;
      entries.erase(
          std::remove(entries.begin(), entries.end(), fs::path::Basename(p)),
          entries.end());
    }
    promise.Set(Status::Ok());
  }(this, ctx, std::move(path), std::move(done));
  return future;
}

// ---------------------------------------------------------------------------
// Software multicast (AMFS Shell collective)

sim::Future<Status> Amfs::Multicast(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoMulticast(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task Amfs::DoMulticast(VfsContext ctx, std::string path,
                            sim::Promise<Status> done) {
  auto meta = FindMeta(path);
  if (!meta.ok()) {
    done.Set(meta.status());
    co_return;
  }
  (void)ctx;
  const std::uint32_t nodes = network_.config().nodes;

  // Binomial tree: in each round every holder feeds one non-holder, so the
  // replica count doubles per round (ceil(log2 N) rounds).
  std::vector<net::NodeId> holders;
  std::vector<net::NodeId> pending;
  for (net::NodeId n = 0; n < nodes; ++n) {
    if (stores_[n]->Exists(path)) {
      holders.push_back(n);
    } else {
      pending.push_back(n);
    }
  }
  if (holders.empty()) {
    done.Set(status::Internal("multicast source lost " + path));
    co_return;
  }

  Status first_error;
  while (!pending.empty()) {
    const std::size_t sends = std::min(holders.size(), pending.size());
    sim::WaitGroup round(sim_);
    std::vector<sim::Future<Status>> results;
    results.reserve(sends);
    for (std::size_t i = 0; i < sends; ++i) {
      sim::Promise<Status> sent(sim_);
      results.push_back(sent.GetFuture());
      round.Add();
      FetchAndReplicate(holders[i], pending[i], path, std::move(sent));
      [](sim::Future<Status> f, sim::WaitGroup& group) -> sim::Task {
        co_await f;
        group.Done();
      }(results.back(), round);
    }
    co_await round.Wait();
    for (std::size_t i = 0; i < sends; ++i) {
      const Status status = results[i].value();
      if (!status.ok() && first_error.ok()) first_error = status;
      holders.push_back(pending[i]);
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(sends));
  }
  done.Set(std::move(first_error));
}

}  // namespace memfs::amfs
