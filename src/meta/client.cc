#include "meta/client.h"

#include <utility>

namespace memfs::meta {

namespace {

// Local path helpers (src/meta cannot depend on src/memfs): callers pass
// normalized absolute paths, validated at the VFS boundary.
std::string ParentOf(const std::string& p) {
  const auto slash = p.rfind('/');
  if (slash == 0) return "/";
  return p.substr(0, slash);
}

std::string NameOf(const std::string& p) {
  return p.substr(p.rfind('/') + 1);
}

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

Status MapLookupError(const Status& status, const std::string& path) {
  return status.code() == ErrorCode::kNotFound ? status::NotFound(path)
                                               : status;
}

}  // namespace

Client::Client(sim::Simulation& sim, Store& store, MetaConfig config,
               MetricsRegistry* metrics)
    : sim_(sim), store_(store), config_(config), metrics_(metrics) {
  if (metrics_ != nullptr) {
    shard_gauges_.reserve(config_.dir_shards);
    for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
      shard_gauges_.push_back(
          &metrics_->Gauge(InstanceGaugeName("meta.dentries", s)));
    }
  }
}

void Client::RecordSeededDentries(std::uint32_t shard, std::int64_t count) {
  GaugeAdd(ShardGauge(shard), count);
}

// ---------------------------------------------------------------------------
// Dentry point reads and path resolution

sim::Task Client::RunLookup(net::NodeId node, Ino parent, std::string name,
                            sim::Promise<Result<Dentry>> done,
                            trace::TraceContext trace) {
  ++stats_.lookups;
  Result<Bytes> got =
      co_await store_.Get(node, DentryKey(parent, name), trace);
  if (!got.ok()) {
    done.Set(got.status());
    co_return;
  }
  done.Set(DecodeDentry(got.value()));
}

sim::Future<Result<Dentry>> Client::Lookup(net::NodeId node, Ino parent,
                                           std::string name,
                                           trace::TraceContext trace) {
  sim::Promise<Result<Dentry>> done(sim_);
  auto future = done.GetFuture();
  RunLookup(node, parent, std::move(name), std::move(done), trace);
  return future;
}

sim::Task Client::RunResolveDir(net::NodeId node, std::string path,
                                sim::Promise<Result<Ino>> done,
                                trace::TraceContext trace) {
  Ino cur = kRootIno;
  for (std::string& comp : Components(path)) {
    auto dentry = co_await Lookup(node, cur, std::move(comp), trace);
    if (!dentry.ok()) {
      done.Set(MapLookupError(dentry.status(), path));
      co_return;
    }
    if (dentry->kind != InodeKind::kDirectory) {
      done.Set(status::NotDirectory(path));
      co_return;
    }
    cur = dentry->ino;
  }
  done.Set(cur);
}

sim::Future<Result<Ino>> Client::ResolveDir(net::NodeId node,
                                            std::string path,
                                            trace::TraceContext trace) {
  sim::Promise<Result<Ino>> done(sim_);
  auto future = done.GetFuture();
  RunResolveDir(node, std::move(path), std::move(done), trace);
  return future;
}

sim::Task Client::RunResolve(net::NodeId node, std::string path,
                             sim::Promise<Result<Attr>> done,
                             trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.resolve", "meta");
  const trace::TraceContext tctx = span.context();
  Ino ino = kRootIno;
  if (path != "/") {
    auto parent = co_await ResolveDir(node, ParentOf(path), tctx);
    if (!parent.ok()) {
      done.Set(parent.status());
      co_return;
    }
    auto dentry = co_await Lookup(node, *parent, NameOf(path), tctx);
    if (!dentry.ok()) {
      done.Set(MapLookupError(dentry.status(), path));
      co_return;
    }
    ino = dentry->ino;
  }
  Result<Bytes> got = co_await store_.Get(node, InodeKey(ino), tctx);
  if (!got.ok()) {
    // A vanished inode behind a live dentry is either the benign unlink race
    // (dentry read before its removal committed) or an availability error.
    done.Set(MapLookupError(got.status(), path));
    co_return;
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) {
    done.Set(rec.status());
    co_return;
  }
  Attr attr;
  attr.ino = ino;
  attr.rec = *rec;
  done.Set(std::move(attr));
}

sim::Future<Result<Attr>> Client::Resolve(net::NodeId node, std::string path,
                                          trace::TraceContext trace) {
  sim::Promise<Result<Attr>> done(sim_);
  auto future = done.GetFuture();
  RunResolve(node, std::move(path), std::move(done), trace);
  return future;
}

// ---------------------------------------------------------------------------
// Directory index maintenance

sim::Task Client::RunAppendIndex(net::NodeId node, Ino dir, std::string name,
                                 bool deleted, sim::Promise<Status> done,
                                 trace::TraceContext trace) {
  const std::uint32_t shard =
      ShardOfName(dir, name, config_.dir_shards, config_.hash_kind);
  const std::string key = IndexKey(dir, shard);
  Status appended =
      co_await store_.Append(node, key, IndexEvent(name, deleted), trace);
  if (appended.code() == ErrorCode::kNotFound) {
    // First event in this token range: install the blob with the event
    // folded in. Losing the ADD race to a sibling just means the blob now
    // exists — append like everyone else.
    Bytes blob = IndexHeader();
    blob.Append(IndexEvent(name, deleted));
    Status added = co_await store_.Add(node, key, std::move(blob), trace);
    if (added.ok()) {
      done.Set(Status::Ok());
      co_return;
    }
    if (added.code() == ErrorCode::kExists) {
      appended =
          co_await store_.Append(node, key, IndexEvent(name, deleted), trace);
    } else {
      appended = added;
    }
  }
  done.Set(std::move(appended));
}

sim::Future<Status> Client::AppendIndex(net::NodeId node, Ino dir,
                                        std::string name, bool deleted,
                                        trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunAppendIndex(node, dir, std::move(name), deleted, std::move(done), trace);
  return future;
}

// ---------------------------------------------------------------------------
// Create / seal / mkdir

sim::Task Client::RunCreateFile(net::NodeId node, std::string path,
                                std::uint32_t epoch,
                                sim::Promise<Result<Attr>> done,
                                trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.create", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string parent_path = ParentOf(path);
  const std::string name = NameOf(path);
  auto parent = co_await ResolveDir(node, parent_path, tctx);
  if (!parent.ok()) {
    done.Set(parent.status().code() == ErrorCode::kNotFound
                 ? status::NotFound("parent directory: " + parent_path)
                 : parent.status());
    co_return;
  }
  const Ino ino = next_ino_++;
  InodeRecord rec;
  rec.epoch = epoch;
  Status stored =
      co_await store_.Set(node, InodeKey(ino), EncodeInode(rec), tctx);
  if (!stored.ok()) {
    done.Set(stored);
    co_return;
  }
  // The dentry ADD arbitrates concurrent double-create (write-once implies a
  // single writer); the inode is installed first so a dentry never points at
  // nothing.
  Dentry dentry{ino, InodeKind::kFile};
  Status added = co_await store_.Add(node, DentryKey(*parent, name),
                                     EncodeDentry(dentry), tctx);
  if (!added.ok()) {
    // best-effort rollback of an unreferenced inode
    (void)co_await store_.Delete(node, InodeKey(ino), tctx);
    done.Set(added.code() == ErrorCode::kExists ? status::Exists(path)
                                                : added);
    co_return;
  }
  ++stats_.dentry_adds;
  Status indexed = co_await AppendIndex(node, *parent, name, false, tctx);
  if (!indexed.ok()) {
    // best-effort rollback of the torn create
    (void)co_await store_.Delete(node, DentryKey(*parent, name), tctx);
    // best-effort rollback of the torn create
    (void)co_await store_.Delete(node, InodeKey(ino), tctx);
    done.Set(indexed);
    co_return;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards,
                                  config_.hash_kind)),
           1);
  Attr attr;
  attr.ino = ino;
  attr.rec = rec;
  done.Set(std::move(attr));
}

sim::Future<Result<Attr>> Client::CreateFile(net::NodeId node,
                                             std::string path,
                                             std::uint32_t epoch,
                                             trace::TraceContext trace) {
  sim::Promise<Result<Attr>> done(sim_);
  auto future = done.GetFuture();
  RunCreateFile(node, std::move(path), epoch, std::move(done), trace);
  return future;
}

sim::Task Client::RunSealFile(net::NodeId node, Ino ino, std::uint64_t size,
                              std::uint32_t epoch, sim::Promise<Status> done,
                              trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.seal", "meta");
  const trace::TraceContext tctx = span.context();
  Result<Bytes> got = co_await store_.Get(node, InodeKey(ino), tctx);
  if (!got.ok()) {
    done.Set(got.status());
    co_return;
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) {
    done.Set(rec.status());
    co_return;
  }
  rec->size = size;
  rec->sealed = true;
  rec->epoch = epoch;
  done.Set(
      co_await store_.Set(node, InodeKey(ino), EncodeInode(*rec), tctx));
}

sim::Future<Status> Client::SealFile(net::NodeId node, Ino ino,
                                     std::uint64_t size, std::uint32_t epoch,
                                     trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunSealFile(node, ino, size, epoch, std::move(done), trace);
  return future;
}

sim::Task Client::RunMkdir(net::NodeId node, std::string path,
                           sim::Promise<Status> done,
                           trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.mkdir", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string parent_path = ParentOf(path);
  const std::string name = NameOf(path);
  auto parent = co_await ResolveDir(node, parent_path, tctx);
  if (!parent.ok()) {
    done.Set(parent.status().code() == ErrorCode::kNotFound
                 ? status::NotFound("parent directory: " + parent_path)
                 : parent.status());
    co_return;
  }
  const Ino ino = next_ino_++;
  InodeRecord rec;
  rec.kind = InodeKind::kDirectory;
  rec.sealed = true;
  Status stored =
      co_await store_.Set(node, InodeKey(ino), EncodeInode(rec), tctx);
  if (!stored.ok()) {
    done.Set(stored);
    co_return;
  }
  Dentry dentry{ino, InodeKind::kDirectory};
  Status added = co_await store_.Add(node, DentryKey(*parent, name),
                                     EncodeDentry(dentry), tctx);
  if (!added.ok()) {
    // best-effort rollback of an unreferenced inode
    (void)co_await store_.Delete(node, InodeKey(ino), tctx);
    done.Set(added.code() == ErrorCode::kExists ? status::Exists(path)
                                                : added);
    co_return;
  }
  ++stats_.dentry_adds;
  Status indexed = co_await AppendIndex(node, *parent, name, false, tctx);
  if (!indexed.ok()) {
    // best-effort rollback of the torn mkdir
    (void)co_await store_.Delete(node, DentryKey(*parent, name), tctx);
    // best-effort rollback of the torn mkdir
    (void)co_await store_.Delete(node, InodeKey(ino), tctx);
    done.Set(indexed);
    co_return;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards,
                                  config_.hash_kind)),
           1);
  done.Set(Status::Ok());
}

sim::Future<Status> Client::Mkdir(net::NodeId node, std::string path,
                                  trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunMkdir(node, std::move(path), std::move(done), trace);
  return future;
}

// ---------------------------------------------------------------------------
// Paged enumeration

sim::Task Client::RunReadDirPage(net::NodeId node, Ino dir,
                                 std::uint32_t shard, std::uint64_t offset,
                                 std::uint32_t limit,
                                 sim::Promise<Result<DirPageResult>> done,
                                 trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.readdir_page", "meta");
  const trace::TraceContext tctx = span.context();
  DirPageResult page;
  const std::uint32_t shards = config_.dir_shards;
  std::uint32_t s = shard;
  std::uint64_t off = offset;
  while (s < shards && page.names.size() < limit) {
    Result<Bytes> blob = co_await store_.Get(node, IndexKey(dir, s), tctx);
    std::vector<std::string> live;
    if (blob.ok()) {
      auto folded = FoldIndex(blob.value());
      if (!folded.ok()) {
        done.Set(folded.status());
        co_return;
      }
      live = std::move(*folded);
    } else if (blob.status().code() != ErrorCode::kNotFound) {
      done.Set(blob.status());
      co_return;
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
  done.Set(std::move(page));
}

sim::Future<Result<DirPageResult>> Client::ReadDirPage(
    net::NodeId node, Ino dir, std::uint32_t shard, std::uint64_t offset,
    std::uint32_t limit, trace::TraceContext trace) {
  sim::Promise<Result<DirPageResult>> done(sim_);
  auto future = done.GetFuture();
  RunReadDirPage(node, dir, shard, offset, limit, std::move(done), trace);
  return future;
}

// ---------------------------------------------------------------------------
// Unlink / rmdir

sim::Task Client::RunUnlink(net::NodeId node, std::string path,
                            sim::Promise<Result<UnlinkOutcome>> done,
                            trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.unlink", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string name = NameOf(path);
  auto parent = co_await ResolveDir(node, ParentOf(path), tctx);
  if (!parent.ok()) {
    done.Set(parent.status());
    co_return;
  }
  auto dentry = co_await Lookup(node, *parent, name, tctx);
  if (!dentry.ok()) {
    done.Set(MapLookupError(dentry.status(), path));
    co_return;
  }
  if (dentry->kind == InodeKind::kDirectory) {
    done.Set(status::IsDirectory(path));
    co_return;
  }
  // Dentry first: the inode (and with it the data) outlives every reference
  // to it.
  Status removed =
      co_await store_.Delete(node, DentryKey(*parent, name), tctx);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    done.Set(removed);
    co_return;
  }
  ++stats_.dentry_removes;
  Status indexed = co_await AppendIndex(node, *parent, name, true, tctx);
  if (!indexed.ok()) {
    done.Set(indexed);
    co_return;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards,
                                  config_.hash_kind)),
           -1);
  UnlinkOutcome outcome;
  Result<Bytes> got =
      co_await store_.Get(node, InodeKey(dentry->ino), tctx);
  if (!got.ok()) {
    if (got.status().code() == ErrorCode::kNotFound) {
      // Already reclaimed (replayed unlink); nothing left to free.
      done.Set(std::move(outcome));
    } else {
      done.Set(got.status());
    }
    co_return;
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) {
    done.Set(rec.status());
    co_return;
  }
  if (rec->nlink > 1) {
    --rec->nlink;
    Status stored = co_await store_.Set(node, InodeKey(dentry->ino),
                                        EncodeInode(*rec), tctx);
    if (!stored.ok()) {
      done.Set(stored);
      co_return;
    }
    done.Set(std::move(outcome));
    co_return;
  }
  Status dropped = co_await store_.Delete(node, InodeKey(dentry->ino), tctx);
  if (!dropped.ok() && dropped.code() != ErrorCode::kNotFound) {
    done.Set(dropped);
    co_return;
  }
  outcome.removed_inode = true;
  outcome.ino = dentry->ino;
  outcome.rec = *rec;
  done.Set(std::move(outcome));
}

sim::Future<Result<UnlinkOutcome>> Client::Unlink(net::NodeId node,
                                                  std::string path,
                                                  trace::TraceContext trace) {
  sim::Promise<Result<UnlinkOutcome>> done(sim_);
  auto future = done.GetFuture();
  RunUnlink(node, std::move(path), std::move(done), trace);
  return future;
}

sim::Task Client::RunRmdir(net::NodeId node, std::string path,
                           sim::Promise<Status> done,
                           trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.rmdir", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string name = NameOf(path);
  auto parent = co_await ResolveDir(node, ParentOf(path), tctx);
  if (!parent.ok()) {
    done.Set(parent.status());
    co_return;
  }
  auto dentry = co_await Lookup(node, *parent, name, tctx);
  if (!dentry.ok()) {
    done.Set(MapLookupError(dentry.status(), path));
    co_return;
  }
  if (dentry->kind != InodeKind::kDirectory) {
    done.Set(status::NotDirectory(path));
    co_return;
  }
  // Emptiness: every token range must be empty (absent blobs count).
  for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
    Result<Bytes> blob =
        co_await store_.Get(node, IndexKey(dentry->ino, s), tctx);
    if (!blob.ok()) {
      if (blob.status().code() == ErrorCode::kNotFound) continue;
      done.Set(blob.status());
      co_return;
    }
    auto folded = FoldIndex(blob.value());
    if (!folded.ok()) {
      done.Set(folded.status());
      co_return;
    }
    if (!folded->empty()) {
      done.Set(status::NotEmpty(path));
      co_return;
    }
  }
  Status removed =
      co_await store_.Delete(node, DentryKey(*parent, name), tctx);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    done.Set(removed);
    co_return;
  }
  ++stats_.dentry_removes;
  Status indexed = co_await AppendIndex(node, *parent, name, true, tctx);
  if (!indexed.ok()) {
    done.Set(indexed);
    co_return;
  }
  GaugeAdd(ShardGauge(ShardOfName(*parent, name, config_.dir_shards,
                                  config_.hash_kind)),
           -1);
  // Reclaim the (empty) index blobs and the inode.
  for (std::uint32_t s = 0; s < config_.dir_shards; ++s) {
    // absent blobs and unreachable replicas of an empty index are both fine
    // to leave behind
    (void)co_await store_.Delete(node, IndexKey(dentry->ino, s), tctx);
  }
  Status dropped = co_await store_.Delete(node, InodeKey(dentry->ino), tctx);
  done.Set(dropped.code() == ErrorCode::kNotFound ? Status::Ok()
                                                  : std::move(dropped));
}

sim::Future<Status> Client::Rmdir(net::NodeId node, std::string path,
                                  trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunRmdir(node, std::move(path), std::move(done), trace);
  return future;
}

// ---------------------------------------------------------------------------
// Rename (crash-safe two-dentry commit) and hard links

sim::Task Client::RunCompleteRename(net::NodeId node, Ino ino,
                                    sim::Promise<Status> done,
                                    trace::TraceContext trace) {
  auto it = pending_.find(ino);
  if (it == pending_.end()) {
    done.Set(Status::Ok());
    co_return;
  }
  const RenameIntent intent = it->second.intent;
  // 1. Destination dentry. EXISTS is normally our own replay; a foreign
  // winner (raced the name after the intent was journaled) aborts the
  // rename.
  Status added = co_await store_.Add(
      node, DentryKey(intent.dst_parent, intent.dst_name),
      EncodeDentry({intent.ino, intent.kind}), trace);
  if (added.code() == ErrorCode::kExists) {
    Result<Bytes> current = co_await store_.Get(
        node, DentryKey(intent.dst_parent, intent.dst_name), trace);
    if (current.ok()) {
      auto dentry = DecodeDentry(current.value());
      if (dentry.ok() && dentry->ino == intent.ino) added = Status::Ok();
    }
    if (!added.ok()) {
      // aborting: the journal entry is inert once the pending record is gone
      (void)co_await store_.Delete(node, IntentKey(intent.ino), trace);
      pending_.erase(intent.ino);
      done.Set(status::Exists(intent.dst_name));
      co_return;
    }
  }
  if (!added.ok()) {
    done.Set(added);  // availability: the intent stays pending
    co_return;
  }
  // 2./3. Index both directories. The fold dedups "+name" and re-applies
  // tombstones, so replays after a partial crash are harmless.
  Status indexed = co_await AppendIndex(node, intent.dst_parent,
                                        intent.dst_name, false, trace);
  if (!indexed.ok()) {
    done.Set(indexed);
    co_return;
  }
  indexed = co_await AppendIndex(node, intent.src_parent, intent.src_name,
                                 true, trace);
  if (!indexed.ok()) {
    done.Set(indexed);
    co_return;
  }
  auto counted_it = pending_.find(ino);
  if (counted_it != pending_.end() && !counted_it->second.counted) {
    GaugeAdd(ShardGauge(ShardOfName(intent.dst_parent, intent.dst_name,
                                    config_.dir_shards, config_.hash_kind)),
             1);
    GaugeAdd(ShardGauge(ShardOfName(intent.src_parent, intent.src_name,
                                    config_.dir_shards, config_.hash_kind)),
             -1);
    counted_it->second.counted = true;
  }
  // 4. Source dentry out (absent on a replay).
  Status removed = co_await store_.Delete(
      node, DentryKey(intent.src_parent, intent.src_name), trace);
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
    done.Set(removed);
    co_return;
  }
  // 5. Retire the journal entry.
  Status retired = co_await store_.Delete(node, IntentKey(intent.ino), trace);
  if (!retired.ok() && retired.code() != ErrorCode::kNotFound) {
    done.Set(retired);
    co_return;
  }
  pending_.erase(intent.ino);
  done.Set(Status::Ok());
}

sim::Future<Status> Client::CompleteRename(net::NodeId node, Ino ino,
                                           trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunCompleteRename(node, ino, std::move(done), trace);
  return future;
}

sim::Task Client::RunRename(net::NodeId node, std::string from,
                            std::string to, sim::Promise<Status> done,
                            trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.rename", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string from_name = NameOf(from);
  const std::string to_name = NameOf(to);
  auto src_parent = co_await ResolveDir(node, ParentOf(from), tctx);
  if (!src_parent.ok()) {
    done.Set(src_parent.status());
    co_return;
  }
  auto dst_parent = co_await ResolveDir(node, ParentOf(to), tctx);
  if (!dst_parent.ok()) {
    done.Set(dst_parent.status().code() == ErrorCode::kNotFound
                 ? status::NotFound("parent directory: " + ParentOf(to))
                 : dst_parent.status());
    co_return;
  }
  auto dentry = co_await Lookup(node, *src_parent, from_name, tctx);
  if (!dentry.ok()) {
    done.Set(MapLookupError(dentry.status(), from));
    co_return;
  }
  auto existing = co_await Lookup(node, *dst_parent, to_name, tctx);
  if (existing.ok()) {
    done.Set(status::Exists(to));
    co_return;
  }
  if (existing.status().code() != ErrorCode::kNotFound) {
    done.Set(existing.status());
    co_return;
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
  Status journaled = co_await store_.Set(node, IntentKey(intent.ino),
                                         EncodeIntent(intent), tctx);
  if (!journaled.ok()) {
    done.Set(journaled);
    co_return;
  }
  PendingIntent pending;
  pending.intent = intent;
  pending_[intent.ino] = std::move(pending);
  Status committed = co_await CompleteRename(node, intent.ino, tctx);
  if (committed.ok()) ++stats_.renames;
  done.Set(std::move(committed));
}

sim::Future<Status> Client::Rename(net::NodeId node, std::string from,
                                   std::string to,
                                   trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunRename(node, std::move(from), std::move(to), std::move(done), trace);
  return future;
}

sim::Task Client::RunLink(net::NodeId node, std::string existing,
                          std::string link, sim::Promise<Status> done,
                          trace::TraceContext trace) {
  trace::ScopedSpan span(trace, "meta.link", "meta");
  const trace::TraceContext tctx = span.context();
  const std::string src_name = NameOf(existing);
  const std::string link_name = NameOf(link);
  auto src_parent = co_await ResolveDir(node, ParentOf(existing), tctx);
  if (!src_parent.ok()) {
    done.Set(src_parent.status());
    co_return;
  }
  auto dentry = co_await Lookup(node, *src_parent, src_name, tctx);
  if (!dentry.ok()) {
    done.Set(MapLookupError(dentry.status(), existing));
    co_return;
  }
  if (dentry->kind == InodeKind::kDirectory) {
    done.Set(status::IsDirectory(existing));
    co_return;
  }
  auto link_parent = co_await ResolveDir(node, ParentOf(link), tctx);
  if (!link_parent.ok()) {
    done.Set(link_parent.status().code() == ErrorCode::kNotFound
                 ? status::NotFound("parent directory: " + ParentOf(link))
                 : link_parent.status());
    co_return;
  }
  Result<Bytes> got =
      co_await store_.Get(node, InodeKey(dentry->ino), tctx);
  if (!got.ok()) {
    done.Set(MapLookupError(got.status(), existing));
    co_return;
  }
  auto rec = DecodeInode(got.value());
  if (!rec.ok()) {
    done.Set(rec.status());
    co_return;
  }
  if (!rec->sealed) {
    done.Set(
        status::Permission("link target still open for writing: " + existing));
    co_return;
  }
  // nlink up before the dentry lands: a torn link can overstate the count
  // (inode leaks at worst) but never understate it (which would reclaim data
  // a live dentry still references).
  ++rec->nlink;
  Status stored = co_await store_.Set(node, InodeKey(dentry->ino),
                                      EncodeInode(*rec), tctx);
  if (!stored.ok()) {
    done.Set(stored);
    co_return;
  }
  Status added = co_await store_.Add(node, DentryKey(*link_parent, link_name),
                                     EncodeDentry(*dentry), tctx);
  if (!added.ok()) {
    --rec->nlink;
    // best-effort unwind; an overstated nlink leaks, never dangles
    (void)co_await store_.Set(node, InodeKey(dentry->ino), EncodeInode(*rec),
                              tctx);
    done.Set(added.code() == ErrorCode::kExists ? status::Exists(link)
                                                : added);
    co_return;
  }
  ++stats_.dentry_adds;
  Status indexed =
      co_await AppendIndex(node, *link_parent, link_name, false, tctx);
  if (!indexed.ok()) {
    done.Set(indexed);
    co_return;
  }
  GaugeAdd(ShardGauge(ShardOfName(*link_parent, link_name, config_.dir_shards,
                                  config_.hash_kind)),
           1);
  ++stats_.links;
  done.Set(Status::Ok());
}

sim::Future<Status> Client::Link(net::NodeId node, std::string existing,
                                 std::string link, trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunLink(node, std::move(existing), std::move(link), std::move(done), trace);
  return future;
}

sim::Task Client::RunRecoverPending(net::NodeId node,
                                    sim::Promise<Result<std::uint32_t>> done,
                                    trace::TraceContext trace) {
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
  done.Set(completed);
}

sim::Future<Result<std::uint32_t>> Client::RecoverPending(
    net::NodeId node, trace::TraceContext trace) {
  sim::Promise<Result<std::uint32_t>> done(sim_);
  auto future = done.GetFuture();
  RunRecoverPending(node, std::move(done), trace);
  return future;
}

}  // namespace memfs::meta
