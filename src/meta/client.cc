#include "meta/client.h"

#include <cassert>
#include <utility>

#include "common/path.h"

namespace memfs::meta {

namespace {

// The components of a normalized absolute path (validated at the VFS
// boundary).
std::vector<std::string> Components(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t pos = 1;  // skip the leading '/'
  while (pos < path.size()) {
    auto end = path.find('/', pos);
    if (end == std::string::npos) end = path.size();
    parts.push_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return parts;
}

}  // namespace

Client::Client(io::ReplicatedStore& store, MetaConfig config,
               MetricsRegistry* metrics)
    : store_(store), config_(config), metrics_(metrics) {
  if (metrics_ != nullptr) {
    shard_gauges_.reserve(config_.dir_shards);
    for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
      shard_gauges_.push_back(
          &metrics_->Gauge(InstanceGaugeName("meta.dentries", s)));
    }
  }
  InodeRecord root;
  root.kind = InodeKind::kDirectory;
  root.sealed = true;
  store_.SeedKey(InodeKey(kRootIno), EncodeInode(root));
}

void Client::BulkLoadDirectory(const std::string& dir,
                               const std::string& prefix,
                               std::uint64_t count) {
  assert(dir.size() > 1 && path::Parent(dir) == "/");
  // The directory itself: inode, dentry under the root, root index event.
  const Ino dir_ino = next_ino_++;
  InodeRecord dir_rec;
  dir_rec.kind = InodeKind::kDirectory;
  dir_rec.sealed = true;
  store_.SeedKey(InodeKey(dir_ino), EncodeInode(dir_rec));
  const std::string dir_name = path::Basename(dir);
  store_.SeedKey(DentryKey(kRootIno, dir_name),
                 EncodeDentry({dir_ino, InodeKind::kDirectory}));
  const std::uint32_t root_shard =
      ShardOfName(kRootIno, dir_name, config_.dir_shards);
  store_.SeedAppendKey(IndexKey(kRootIno, root_shard), IndexHeader(),
                       DirEvent(dir_name, false));
  GaugeAdd(ShardGauge(root_shard), 1);

  // The children: sealed zero-length files; index events accumulate per
  // token range and land as one blob each.
  std::vector<Bytes> blobs(config_.dir_shards, IndexHeader());
  std::vector<std::int64_t> counts(config_.dir_shards, 0);
  InodeRecord file_rec;
  file_rec.sealed = true;
  file_rec.epoch = store_.current_epoch();
  const Bytes encoded_file = EncodeInode(file_rec);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = prefix + std::to_string(i);
    const Ino ino = next_ino_++;
    store_.SeedKey(InodeKey(ino), encoded_file);
    store_.SeedKey(DentryKey(dir_ino, name),
                   EncodeDentry({ino, InodeKind::kFile}));
    const std::uint32_t shard = ShardOfName(dir_ino, name, config_.dir_shards);
    blobs[shard].Append(DirEvent(name, false));
    ++counts[shard];
  }
  for (std::uint32_t shard = 0; shard < config_.dir_shards; ++shard) {
    if (counts[shard] == 0) continue;
    store_.SeedKey(IndexKey(dir_ino, shard), blobs[shard]);
    GaugeAdd(ShardGauge(shard), counts[shard]);
  }
}

// ---------------------------------------------------------------------------
// Dentry point reads and path resolution

sim::Future<Result<Dentry>> Client::Lookup(net::NodeId node, Ino parent,
                                           std::string name,
                                           trace::TraceContext trace) {
  ++stats_.lookups;
  Result<Bytes> got =
      co_await store_.FailoverGet(node, DentryKey(parent, name), trace);
  if (!got.ok()) co_return got.status();
  co_return DecodeDentry(got.value());
}

sim::Future<Result<Ino>> Client::ResolveDir(net::NodeId node,
                                            std::string path,
                                            trace::TraceContext trace) {
  Ino cur = kRootIno;
  for (std::string& comp : Components(path)) {
    auto dentry = co_await Lookup(node, cur, std::move(comp), trace);
    if (!dentry.ok()) co_return status::LookupError(dentry.status(), path);
    if (dentry->kind != InodeKind::kDirectory) {
      co_return status::NotDirectory(path);
    }
    cur = dentry->ino;
  }
  co_return cur;
}

sim::Future<Result<Attr>> Client::Resolve(net::NodeId node, std::string path,
                                          trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.resolve", "meta");
  const trace::TraceContext tctx = span.context();
  Ino ino = kRootIno;
  if (path != "/") {
    auto parent = co_await ResolveDir(node, path::Parent(path), tctx);
    if (!parent.ok()) co_return parent.status();
    auto dentry = co_await Lookup(node, *parent, path::Basename(path), tctx);
    if (!dentry.ok()) co_return status::LookupError(dentry.status(), path);
    ino = dentry->ino;
  }
  Result<Bytes> got = co_await store_.FailoverGet(node, InodeKey(ino), tctx);
  if (!got.ok()) {
    // A vanished inode behind a live dentry is either the benign unlink race
    // (dentry read before its removal committed) or an availability error.
    co_return status::LookupError(got.status(), path);
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) co_return rec.status();
  Attr attr;
  attr.ino = ino;
  attr.rec = *rec;
  co_return std::move(attr);
}

// ---------------------------------------------------------------------------
// Directory index maintenance

sim::Future<Status> Client::AppendIndex(net::NodeId node, Ino dir,
                                        std::string name, bool deleted,
                                        trace::TraceContext trace) {
  const std::uint32_t shard = ShardOfName(dir, name, config_.dir_shards);
  return store_.AppendOrCreate(node, IndexKey(dir, shard), IndexHeader(),
                               DirEvent(name, deleted), trace);
}

// ---------------------------------------------------------------------------
// Create / seal / mkdir

sim::Future<Result<Attr>> Client::CreateFile(net::NodeId node,
                                             std::string path,
                                             std::uint32_t epoch,
                                             trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.create", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string parent_path = path::Parent(path);
  const std::string name = path::Basename(path);
  auto parent = co_await ResolveDir(node, parent_path, tctx);
  if (!parent.ok()) {
    co_return status::LookupError(parent.status(),
                                  "parent directory: " + parent_path);
  }
  const Ino ino = next_ino_++;
  InodeRecord rec;
  rec.epoch = epoch;
  Status stored = co_await store_.ReplicatedSet(node, InodeKey(ino),
                                                EncodeInode(rec), tctx);
  if (!stored.ok()) co_return stored;
  // The dentry ADD arbitrates concurrent double-create (write-once implies a
  // single writer); the inode is installed first so a dentry never points at
  // nothing.
  Dentry dentry{ino, InodeKind::kFile};
  Status added = co_await store_.MetaAdd(node, DentryKey(*parent, name),
                                         EncodeDentry(dentry), tctx);
  if (!added.ok()) {
    // best-effort rollback of an unreferenced inode
    (void)co_await store_.ReplicatedDelete(node, InodeKey(ino), tctx);
    co_return added.code() == ErrorCode::kExists ? status::Exists(path)
                                                 : added;
  }
  ++stats_.dentry_adds;
  Status indexed = co_await AppendIndex(node, *parent, name, false, tctx);
  if (!indexed.ok()) {
    // best-effort rollback of the torn create
    (void)co_await store_.ReplicatedDelete(node, DentryKey(*parent, name),
                                           tctx);
    // best-effort rollback of the torn create
    (void)co_await store_.ReplicatedDelete(node, InodeKey(ino), tctx);
    co_return indexed;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards)), 1);
  Attr attr;
  attr.ino = ino;
  attr.rec = rec;
  co_return std::move(attr);
}

sim::Future<Status> Client::SealFile(net::NodeId node, Ino ino,
                                     std::uint64_t size, std::uint32_t epoch,
                                     trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.seal", "meta");
  const trace::TraceContext tctx = span.context();
  Result<Bytes> got = co_await store_.FailoverGet(node, InodeKey(ino), tctx);
  if (!got.ok()) co_return got.status();
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) co_return rec.status();
  rec->size = size;
  rec->sealed = true;
  rec->epoch = epoch;
  co_return co_await store_.ReplicatedSet(node, InodeKey(ino),
                                          EncodeInode(*rec), tctx);
}

sim::Future<Status> Client::Mkdir(net::NodeId node, std::string path,
                                  trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.mkdir", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string parent_path = path::Parent(path);
  const std::string name = path::Basename(path);
  auto parent = co_await ResolveDir(node, parent_path, tctx);
  if (!parent.ok()) {
    co_return status::LookupError(parent.status(),
                                  "parent directory: " + parent_path);
  }
  const Ino ino = next_ino_++;
  InodeRecord rec;
  rec.kind = InodeKind::kDirectory;
  rec.sealed = true;
  Status stored = co_await store_.ReplicatedSet(node, InodeKey(ino),
                                                EncodeInode(rec), tctx);
  if (!stored.ok()) co_return stored;
  Dentry dentry{ino, InodeKind::kDirectory};
  Status added = co_await store_.MetaAdd(node, DentryKey(*parent, name),
                                         EncodeDentry(dentry), tctx);
  if (!added.ok()) {
    // best-effort rollback of an unreferenced inode
    (void)co_await store_.ReplicatedDelete(node, InodeKey(ino), tctx);
    co_return added.code() == ErrorCode::kExists ? status::Exists(path)
                                                 : added;
  }
  ++stats_.dentry_adds;
  Status indexed = co_await AppendIndex(node, *parent, name, false, tctx);
  if (!indexed.ok()) {
    // best-effort rollback of the torn mkdir
    (void)co_await store_.ReplicatedDelete(node, DentryKey(*parent, name),
                                           tctx);
    // best-effort rollback of the torn mkdir
    (void)co_await store_.ReplicatedDelete(node, InodeKey(ino), tctx);
    co_return indexed;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards)), 1);
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Paged enumeration

sim::Future<Result<DirPageResult>> Client::ReadDirPage(
    net::NodeId node, Ino dir, std::uint32_t shard, std::uint64_t offset,
    std::uint32_t limit, trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.readdir_page", "meta");
  const trace::TraceContext tctx = span.context();
  DirPageResult page;
  const std::uint32_t shards = config_.dir_shards;
  std::uint32_t s = shard;
  std::uint64_t off = offset;
  while (s < shards && page.names.size() < limit) {
    Result<Bytes> blob = co_await store_.FailoverGet(node, IndexKey(dir, s),
                                                     tctx);
    std::vector<std::string> live;
    if (blob.ok()) {
      auto folded = FoldIndex(blob.value());
      if (!folded.ok()) co_return folded.status();
      live = std::move(*folded);
    } else if (blob.status().code() != ErrorCode::kNotFound) {
      co_return blob.status();
    }
    while (off < live.size() && page.names.size() < limit) {
      page.names.push_back(std::move(live[off]));
      ++off;
    }
    if (off >= live.size()) {
      ++s;
      off = 0;
    }
  }
  page.next_shard = s;
  page.next_offset = off;
  // Ranges may be exhausted exactly at the limit; the (possibly empty) next
  // page settles it without having peeked ahead.
  page.more = s < shards;
  ++stats_.readdir_pages;
  co_return std::move(page);
}

// ---------------------------------------------------------------------------
// Unlink / rmdir

sim::Future<Result<UnlinkOutcome>> Client::Unlink(net::NodeId node,
                                                  std::string path,
                                                  trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.unlink", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string name = path::Basename(path);
  auto parent = co_await ResolveDir(node, path::Parent(path), tctx);
  if (!parent.ok()) co_return parent.status();
  auto dentry = co_await Lookup(node, *parent, name, tctx);
  if (!dentry.ok()) co_return status::LookupError(dentry.status(), path);
  if (dentry->kind == InodeKind::kDirectory) {
    co_return status::IsDirectory(path);
  }
  // Dentry first: the inode (and with it the data) outlives every reference
  // to it.
  Status removed =
      co_await store_.ReplicatedDelete(node, DentryKey(*parent, name), tctx);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    co_return removed;
  }
  ++stats_.dentry_removes;
  Status indexed = co_await AppendIndex(node, *parent, name, true, tctx);
  if (!indexed.ok()) co_return indexed;
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards)), -1);
  UnlinkOutcome outcome;
  Result<Bytes> got =
      co_await store_.FailoverGet(node, InodeKey(dentry->ino), tctx);
  if (!got.ok()) {
    // NOT_FOUND: already reclaimed (replayed unlink); nothing left to free.
    if (got.status().code() == ErrorCode::kNotFound) co_return outcome;
    co_return got.status();
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) co_return rec.status();
  if (rec->nlink > 1) {
    --rec->nlink;
    Status stored = co_await store_.ReplicatedSet(node, InodeKey(dentry->ino),
                                                  EncodeInode(*rec), tctx);
    if (!stored.ok()) co_return stored;
    co_return std::move(outcome);
  }
  Status dropped = co_await store_.ReplicatedDelete(node, InodeKey(dentry->ino),
                                                    tctx);
  if (!dropped.ok() && dropped.code() != ErrorCode::kNotFound) {
    co_return dropped;
  }
  outcome.removed_inode = true;
  outcome.ino = dentry->ino;
  outcome.rec = *rec;
  co_return std::move(outcome);
}

sim::Future<Status> Client::Rmdir(net::NodeId node, std::string path,
                                  trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.rmdir", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string name = path::Basename(path);
  auto parent = co_await ResolveDir(node, path::Parent(path), tctx);
  if (!parent.ok()) co_return parent.status();
  auto dentry = co_await Lookup(node, *parent, name, tctx);
  if (!dentry.ok()) co_return status::LookupError(dentry.status(), path);
  if (dentry->kind != InodeKind::kDirectory) {
    co_return status::NotDirectory(path);
  }
  // Emptiness: every token range must be empty (absent blobs count).
  for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
    Result<Bytes> blob =
        co_await store_.FailoverGet(node, IndexKey(dentry->ino, s), tctx);
    if (!blob.ok()) {
      if (blob.status().code() == ErrorCode::kNotFound) continue;
      co_return blob.status();
    }
    auto folded = FoldIndex(blob.value());
    if (!folded.ok()) co_return folded.status();
    if (!folded->empty()) co_return status::NotEmpty(path);
  }
  Status removed =
      co_await store_.ReplicatedDelete(node, DentryKey(*parent, name), tctx);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    co_return removed;
  }
  ++stats_.dentry_removes;
  Status indexed = co_await AppendIndex(node, *parent, name, true, tctx);
  if (!indexed.ok()) co_return indexed;
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards)), -1);
  // Reclaim the (empty) index blobs and the inode.
  for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
    // absent blobs and unreachable replicas of an empty index are both fine
    // to leave behind
    (void)co_await store_.ReplicatedDelete(node, IndexKey(dentry->ino, s),
                                           tctx);
  }
  Status dropped = co_await store_.ReplicatedDelete(node, InodeKey(dentry->ino),
                                                    tctx);
  co_return dropped.code() == ErrorCode::kNotFound ? Status::Ok()
                                                   : std::move(dropped);
}

// ---------------------------------------------------------------------------
// Rename (crash-safe two-dentry commit) and hard links

sim::Future<Status> Client::CompleteRename(net::NodeId node, Ino ino,
                                           trace::TraceContext trace) {
  auto it = pending_.find(ino);
  if (it == pending_.end()) co_return Status::Ok();
  const RenameIntent intent = it->second.intent;
  // 1. Destination dentry. EXISTS is normally our own replay; a foreign
  // winner (raced the name after the intent was journaled) aborts the
  // rename.
  Status added = co_await store_.MetaAdd(
      node, DentryKey(intent.dst_parent, intent.dst_name),
      EncodeDentry({intent.ino, intent.kind}), trace);
  if (added.code() == ErrorCode::kExists) {
    Result<Bytes> current = co_await store_.FailoverGet(
        node, DentryKey(intent.dst_parent, intent.dst_name), trace);
    if (current.ok()) {
      auto dentry = DecodeDentry(current.value());
      if (dentry.ok() && dentry->ino == intent.ino) added = Status::Ok();
    }
    if (!added.ok()) {
      // aborting: the journal entry is inert once the pending record is gone
      (void)co_await store_.ReplicatedDelete(node, IntentKey(intent.ino),
                                             trace);
      pending_.erase(intent.ino);
      co_return status::Exists(intent.dst_name);
    }
  }
  if (!added.ok()) {
    co_return added;  // availability: the intent stays pending
  }
  // 2./3. Index both directories. The fold dedups "+name" and re-applies
  // tombstones, so replays after a partial crash are harmless.
  Status indexed = co_await AppendIndex(node, intent.dst_parent,
                                        intent.dst_name, false, trace);
  if (!indexed.ok()) co_return indexed;
  indexed = co_await AppendIndex(node, intent.src_parent, intent.src_name,
                                 true, trace);
  if (!indexed.ok()) co_return indexed;
  auto counted_it = pending_.find(ino);
  if (counted_it != pending_.end() && !counted_it->second.counted) {
    GaugeAdd(ShardGauge(ShardOfName(intent.dst_parent, intent.dst_name,
                                    config_.dir_shards)),
             1);
    GaugeAdd(ShardGauge(ShardOfName(intent.src_parent, intent.src_name,
                                    config_.dir_shards)),
             -1);
    counted_it->second.counted = true;
  }
  // 4. Source dentry out (absent on a replay).
  Status removed = co_await store_.ReplicatedDelete(
      node, DentryKey(intent.src_parent, intent.src_name), trace);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    co_return removed;
  }
  // 5. Retire the journal entry.
  Status retired = co_await store_.ReplicatedDelete(node, IntentKey(intent.ino),
                                                    trace);
  if (!retired.ok() && retired.code() != ErrorCode::kNotFound) {
    co_return retired;
  }
  pending_.erase(intent.ino);
  co_return Status::Ok();
}

sim::Future<Status> Client::Rename(net::NodeId node, std::string from,
                                   std::string to,
                                   trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.rename", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string from_name = path::Basename(from);
  const std::string to_name = path::Basename(to);
  auto src_parent = co_await ResolveDir(node, path::Parent(from), tctx);
  if (!src_parent.ok()) co_return src_parent.status();
  auto dst_parent = co_await ResolveDir(node, path::Parent(to), tctx);
  if (!dst_parent.ok()) {
    co_return status::LookupError(dst_parent.status(),
                                  "parent directory: " + path::Parent(to));
  }
  auto dentry = co_await Lookup(node, *src_parent, from_name, tctx);
  if (!dentry.ok()) co_return status::LookupError(dentry.status(), from);
  auto existing = co_await Lookup(node, *dst_parent, to_name, tctx);
  if (existing.ok()) co_return status::Exists(to);
  if (existing.status().code() != ErrorCode::kNotFound) {
    co_return existing.status();
  }
  RenameIntent intent;
  intent.ino = dentry->ino;
  intent.kind = dentry->kind;
  intent.src_parent = *src_parent;
  intent.dst_parent = *dst_parent;
  intent.src_name = from_name;
  intent.dst_name = to_name;
  // Journal first: from here the rename either rolls forward to completion
  // (possibly via RecoverPending after a crash) or is explicitly aborted.
  Status journaled = co_await store_.ReplicatedSet(node, IntentKey(intent.ino),
                                                   EncodeIntent(intent), tctx);
  if (!journaled.ok()) co_return journaled;
  PendingIntent pending;
  pending.intent = intent;
  pending_[intent.ino] = std::move(pending);
  Status committed = co_await CompleteRename(node, intent.ino, tctx);
  if (committed.ok()) ++stats_.renames;
  co_return std::move(committed);
}

sim::Future<Status> Client::Link(net::NodeId node, std::string existing,
                                 std::string link, trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.link", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string src_name = path::Basename(existing);
  const std::string link_name = path::Basename(link);
  auto src_parent = co_await ResolveDir(node, path::Parent(existing), tctx);
  if (!src_parent.ok()) co_return src_parent.status();
  auto dentry = co_await Lookup(node, *src_parent, src_name, tctx);
  if (!dentry.ok()) co_return status::LookupError(dentry.status(), existing);
  if (dentry->kind == InodeKind::kDirectory) {
    co_return status::IsDirectory(existing);
  }
  auto link_parent = co_await ResolveDir(node, path::Parent(link), tctx);
  if (!link_parent.ok()) {
    co_return status::LookupError(link_parent.status(),
                                  "parent directory: " + path::Parent(link));
  }
  Result<Bytes> got =
      co_await store_.FailoverGet(node, InodeKey(dentry->ino), tctx);
  if (!got.ok()) co_return status::LookupError(got.status(), existing);
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) co_return rec.status();
  if (!rec->sealed) {
    co_return status::Permission("link target still open for writing: " +
                                 existing);
  }
  // nlink up before the dentry lands: a torn link can overstate the count
  // (inode leaks at worst) but never understate it (which would reclaim data
  // a live dentry still references).
  ++rec->nlink;
  Status stored = co_await store_.ReplicatedSet(node, InodeKey(dentry->ino),
                                                EncodeInode(*rec), tctx);
  if (!stored.ok()) co_return stored;
  Status added = co_await store_.MetaAdd(node,
                                         DentryKey(*link_parent, link_name),
                                         EncodeDentry(*dentry), tctx);
  if (!added.ok()) {
    --rec->nlink;
    // best-effort unwind; an overstated nlink leaks, never dangles
    (void)co_await store_.ReplicatedSet(node, InodeKey(dentry->ino),
                                        EncodeInode(*rec), tctx);
    co_return added.code() == ErrorCode::kExists ? status::Exists(link)
                                                 : added;
  }
  ++stats_.dentry_adds;
  Status indexed =
      co_await AppendIndex(node, *link_parent, link_name, false, tctx);
  if (!indexed.ok()) co_return indexed;
  GaugeAdd(
      ShardGauge(ShardOfName(*link_parent, link_name, config_.dir_shards)), 1);
  ++stats_.links;
  co_return Status::Ok();
}

sim::Future<Result<std::uint32_t>> Client::RecoverPending(
    net::NodeId node, trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.recover", "meta");
  const trace::TraceContext tctx = span.context();
  std::vector<Ino> inos;
  inos.reserve(pending_.size());
  for (const auto& [ino, pending] : pending_) {
    (void)pending;
    inos.push_back(ino);
  }
  std::uint32_t completed = 0;
  for (Ino ino : inos) {
    if (pending_.find(ino) == pending_.end()) continue;
    // a still-unreachable intent simply stays pending for the next recovery
    // pass
    (void)co_await CompleteRename(node, ino, tctx);
    if (pending_.find(ino) == pending_.end()) {
      ++completed;
      ++stats_.recovered_renames;
    }
  }
  co_return completed;
}

}  // namespace memfs::meta
