#include "amfs/amfs.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/path.h"

namespace memfs::amfs {

using fs::FileHandle;
using fs::FileInfo;
using fs::VfsContext;

namespace {

// Entries per ReadDirPage response. Listings are served in sorted pages
// whose response transfer is proportional to the page's serialized size —
// not to the whole directory — so readdir cost no longer scales with
// directory size per RPC.
constexpr std::uint32_t kReaddirPage = 256;

}  // namespace

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
  // Non-uniform metadata placement, an additive byte-sum hash; matches the
  // cited observation that AMFS metadata distribution is skewed. Workload
  // file names share long common prefixes and differ in a few digit
  // positions, so nearby names collapse onto few nodes.
  std::uint64_t sum = 0;
  for (unsigned char c : path) sum += c;
  return static_cast<net::NodeId>(sum % network_.config().nodes);
}

Result<Amfs::MetaRecord*> Amfs::FindMeta(const std::string& path) {
  auto& shard = metadata_[MetaServerFor(path)];
  auto it = shard.find(path);
  if (it == shard.end()) return status::NotFound(path);
  return &it->second;
}

net::NodeId Amfs::OwnerHint(std::string_view path) const {
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

sim::VoidFuture Amfs::MetaService(net::NodeId home) {
  auto& workers = meta_workers_.at(home);
  co_await workers.Acquire();
  co_await sim_.Delay(config_.metadata_base);
  workers.Release();
  co_return sim::Done{};
}

sim::VoidFuture Amfs::DirUpdateService(net::NodeId home) {
  auto& lock = dir_locks_.at(home);
  co_await lock.Acquire();
  co_await sim_.Delay(config_.metadata_dir_update);
  lock.Release();
  co_return sim::Done{};
}

sim::Future<Result<Amfs::MetaRecord>> Amfs::QueryMeta(VfsContext ctx,
                                                      std::string path) {
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
  co_return std::move(result);
}

// ---------------------------------------------------------------------------
// Create / write path (local-only writes)

sim::Future<Result<FileHandle>> Amfs::Create(VfsContext ctx,
                                             std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  // Register the record at its (skewed) home node.
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  if (shard.contains(path)) {
    if (home != ctx.node) co_await network_.Transfer(home, ctx.node, 64);
    co_return status::Exists(path);
  }
  MetaRecord record;
  record.owner = ctx.node;
  shard.emplace(path, record);
  if (home != ctx.node) co_await network_.Transfer(home, ctx.node, 64);

  // Link into the parent directory record.
  const std::string parent = path::Parent(path);
  const net::NodeId parent_home = MetaServerFor(parent);
  if (parent_home != ctx.node) {
    co_await network_.Transfer(ctx.node, parent_home, 128);
  }
  co_await DirUpdateService(parent_home);
  auto& parent_shard = metadata_[parent_home];
  auto parent_it = parent_shard.find(parent);
  if (parent_it == parent_shard.end() || !parent_it->second.is_directory) {
    metadata_[home].erase(path);
    co_return status::NotFound("parent directory: " + parent);
  }
  parent_it->second.entries.push_back(path::Basename(path));
  if (parent_home != ctx.node) {
    co_await network_.Transfer(parent_home, ctx.node, 64);
  }

  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->node = ctx.node;
  file->writing = true;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  co_return handle;
}

sim::Future<Status> Amfs::Write(VfsContext ctx, FileHandle handle,
                                Bytes data) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end() || !it->second->writing) {
    co_return status::BadHandle();
  }
  OpenFile* file = it->second.get();
  // Local write path: FUSE + in-memory file system copy; no network.
  co_await sim_.Delay(config_.op_base +
                      static_cast<sim::SimTime>(
                          config_.write_ns_per_byte *
                          static_cast<double>(data.size())));
  file->buffer.Append(data);
  co_return Status::Ok();
}

sim::Future<Status> Amfs::Flush(VfsContext ctx, FileHandle handle) {
  // AMFS buffers the whole file in the writer's memory until close; flush
  // has nothing to push but still crosses the FUSE boundary.
  co_await fuse_.Enter(ctx.node, ctx.process);
  co_return handles_.contains(handle) ? Status::Ok() : status::BadHandle();
}

sim::Future<Status> Amfs::Close(VfsContext ctx, FileHandle handle) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end()) co_return status::BadHandle();
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
      const std::string parent = path::Parent(file->path);
      auto& parent_shard = metadata_[MetaServerFor(parent)];
      auto parent_it = parent_shard.find(parent);
      if (parent_it != parent_shard.end()) {
        auto& entries = parent_it->second.entries;
        entries.erase(std::remove(entries.begin(), entries.end(),
                                  path::Basename(file->path)),
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
  co_return std::move(result);
}

// ---------------------------------------------------------------------------
// Open / read path (replication-on-read)

sim::Future<Result<FileHandle>> Amfs::Open(VfsContext ctx, std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  Result<MetaRecord> meta = co_await QueryMeta(ctx, path);
  if (!meta.ok()) co_return meta.status();
  if (meta->is_directory) co_return status::IsDirectory(path);
  if (!meta->sealed) {
    co_return status::Permission("file still open for writing: " + path);
  }

  if (!stores_[ctx.node]->Exists(path)) {
    // Locality was not achieved: fetch from the owner and keep a replica —
    // the expensive path of Table 1 and the memory blow-up of Fig. 9.
    Status fetched = co_await FetchAndReplicate(meta->owner, ctx.node, path);
    if (!fetched.ok()) co_return std::move(fetched);
  }

  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->node = ctx.node;
  file->writing = false;
  file->size = meta->size;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  co_return handle;
}

sim::Future<Status> Amfs::FetchAndReplicate(net::NodeId from,
                                            net::NodeId to,
                                            std::string path) {
  auto value = stores_[from]->Get(path);
  if (!value.ok()) co_return status::Internal("owner lost " + path);
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
  co_return std::move(stored);
}

sim::Future<Result<Bytes>> Amfs::Read(VfsContext ctx, FileHandle handle,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  auto it = handles_.find(handle);
  if (it == handles_.end() || it->second->writing) {
    co_return status::BadHandle();
  }
  OpenFile* file = it->second.get();
  auto value = stores_[file->node]->Get(file->path);
  if (!value.ok()) co_return status::Internal("replica missing: " + file->path);
  Bytes out = value->Slice(offset, length);
  co_await sim_.Delay(config_.op_base +
                      static_cast<sim::SimTime>(
                          config_.read_ns_per_byte *
                          static_cast<double>(out.size())));
  co_return std::move(out);
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Future<Status> Amfs::Mkdir(VfsContext ctx, std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  if (shard.contains(path)) co_return status::Exists(path);
  MetaRecord record;
  record.owner = ctx.node;
  record.is_directory = true;
  shard.emplace(path, std::move(record));

  const std::string parent = path::Parent(path);
  const net::NodeId parent_home = MetaServerFor(parent);
  if (parent_home != ctx.node) {
    co_await network_.Transfer(ctx.node, parent_home, 128);
  }
  co_await DirUpdateService(parent_home);
  auto& parent_shard = metadata_[parent_home];
  auto parent_it = parent_shard.find(parent);
  if (parent_it == parent_shard.end() || !parent_it->second.is_directory) {
    metadata_[home].erase(path);
    co_return status::NotFound("parent directory: " + parent);
  }
  parent_it->second.entries.push_back(path::Basename(path));
  co_return Status::Ok();
}

sim::Future<Result<std::vector<FileInfo>>> Amfs::ReadDir(VfsContext ctx,
                                                         std::string path) {
  // Paged readback: each round trip carries one sorted page, so no single
  // response scales with the directory size (the fig06 apples-to-apples fix).
  std::vector<FileInfo> infos;
  fs::DirCursor cursor;
  while (true) {
    auto page = co_await ReadDirPage(ctx, path, cursor, 0);
    if (!page.ok()) co_return page.status();
    for (auto& info : page->entries) infos.push_back(std::move(info));
    if (!page->more) break;
    cursor = page->next;
  }
  co_return std::move(infos);
}

sim::Future<Result<fs::DirPage>> Amfs::ReadDirPage(VfsContext ctx,
                                                   std::string path,
                                                   fs::DirCursor cursor,
                                                   std::uint32_t limit) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (cursor.shard > 1) {
    co_return status::InvalidArgument("AMFS cursors have one shard");
  }
  const std::uint32_t page_limit = limit > 0 ? limit : kReaddirPage;
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
    co_return failure;
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
  co_return std::move(page);
}

sim::Future<Status> Amfs::Rename(VfsContext ctx, std::string from,
                                 std::string to) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!path::IsNormalized(from) || !path::IsNormalized(to) ||
      from == "/" || to == "/" || from == to) {
    co_return status::InvalidArgument("bad rename paths");
  }
  const net::NodeId from_home = MetaServerFor(from);
  if (from_home != ctx.node) {
    co_await network_.Transfer(ctx.node, from_home, 128);
  }
  co_await MetaService(from_home);
  {
    auto& shard = metadata_[from_home];
    auto it = shard.find(from);
    if (it == shard.end()) co_return status::NotFound(from);
    if (it->second.is_directory) {
      co_return status::Permission("directory rename not supported by AMFS");
    }
    if (!it->second.sealed) {
      co_return status::Permission("file still open for writing: " + from);
    }
  }
  const net::NodeId to_home = MetaServerFor(to);
  if (to_home != ctx.node) {
    co_await network_.Transfer(ctx.node, to_home, 128);
  }
  co_await MetaService(to_home);
  if (metadata_[to_home].contains(to)) co_return status::Exists(to);
  const std::string to_parent = path::Parent(to);
  auto parent_meta = FindMeta(to_parent);
  if (!parent_meta.ok() || !(*parent_meta)->is_directory) {
    co_return status::NotFound("parent directory: " + to_parent);
  }
  // Commit: move the record between homes (re-found — the shard may have
  // changed across the service waits), then re-key every stored copy
  // locally. AMFS records are path-keyed, so a rename must move bytes.
  {
    auto& shard = metadata_[from_home];
    auto it = shard.find(from);
    if (it == shard.end()) co_return status::NotFound(from);
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
  const std::string from_parent = path::Parent(from);
  co_await DirUpdateService(MetaServerFor(from_parent));
  {
    auto& parent_shard = metadata_[MetaServerFor(from_parent)];
    auto parent_it = parent_shard.find(from_parent);
    if (parent_it != parent_shard.end()) {
      auto& entries = parent_it->second.entries;
      entries.erase(std::remove(entries.begin(), entries.end(),
                                path::Basename(from)),
                    entries.end());
    }
  }
  co_await DirUpdateService(MetaServerFor(to_parent));
  {
    auto& parent_shard = metadata_[MetaServerFor(to_parent)];
    auto parent_it = parent_shard.find(to_parent);
    if (parent_it != parent_shard.end()) {
      parent_it->second.entries.push_back(path::Basename(to));
    }
  }
  co_return Status::Ok();
}

sim::Future<Status> Amfs::Link(VfsContext ctx, std::string /*existing*/,
                               std::string /*link*/) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  co_return status::Permission("hard links not supported by AMFS");
}

sim::Future<Result<FileInfo>> Amfs::Stat(VfsContext ctx, std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  Result<MetaRecord> meta = co_await QueryMeta(ctx, path);
  if (!meta.ok()) co_return meta.status();
  FileInfo info;
  info.name = path::Basename(path);
  info.size = meta->size;
  info.is_directory = meta->is_directory;
  info.sealed = meta->sealed;
  co_return std::move(info);
}

sim::Future<Status> Amfs::Unlink(VfsContext ctx, std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  auto it = shard.find(path);
  if (it == shard.end()) co_return status::NotFound(path);
  if (it->second.is_directory) co_return status::IsDirectory(path);
  shard.erase(it);
  // Reclaim the original and every replica.
  for (auto& store : stores_) {
    if (store->Exists(path)) (void)store->Delete(path);
  }
  // Tombstone in the parent listing.
  const std::string parent = path::Parent(path);
  auto& parent_shard = metadata_[MetaServerFor(parent)];
  auto parent_it = parent_shard.find(parent);
  if (parent_it != parent_shard.end()) {
    auto& entries = parent_it->second.entries;
    entries.erase(
        std::remove(entries.begin(), entries.end(), path::Basename(path)),
        entries.end());
  }
  co_return Status::Ok();
}

sim::Future<Status> Amfs::Rmdir(VfsContext ctx, std::string path) {
  co_await fuse_.Enter(ctx.node, ctx.process);
  if (!path::IsNormalized(path) || path == "/") {
    co_return status::InvalidArgument("bad path");
  }
  const net::NodeId home = MetaServerFor(path);
  if (home != ctx.node) co_await network_.Transfer(ctx.node, home, 128);
  co_await MetaService(home);
  auto& shard = metadata_[home];
  auto it = shard.find(path);
  if (it == shard.end()) co_return status::NotFound(path);
  if (!it->second.is_directory) co_return status::NotDirectory(path);
  if (!it->second.entries.empty()) co_return status::NotEmpty(path);
  shard.erase(it);
  const std::string parent = path::Parent(path);
  const net::NodeId parent_home = MetaServerFor(parent);
  co_await DirUpdateService(parent_home);
  auto& parent_shard = metadata_[parent_home];
  auto parent_it = parent_shard.find(parent);
  if (parent_it != parent_shard.end()) {
    auto& entries = parent_it->second.entries;
    entries.erase(
        std::remove(entries.begin(), entries.end(), path::Basename(path)),
        entries.end());
  }
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Software multicast (AMFS Shell collective)

sim::Future<Status> Amfs::Multicast(VfsContext ctx, std::string path) {
  auto meta = FindMeta(path);
  if (!meta.ok()) co_return meta.status();
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
    co_return status::Internal("multicast source lost " + path);
  }

  Status first_error;
  while (!pending.empty()) {
    const std::size_t sends = std::min(holders.size(), pending.size());
    sim::WaitGroup round(sim_);
    std::vector<sim::Future<Status>> results;
    results.reserve(sends);
    for (std::size_t i = 0; i < sends; ++i) {
      round.Add();
      results.push_back(FetchAndReplicate(holders[i], pending[i], path));
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
  co_return std::move(first_error);
}

}  // namespace memfs::amfs
