#include "kvstore/kv_server.h"

#include <algorithm>
#include <utility>

namespace memfs::kv {

const char* BatchKindName(BatchKind kind) {
  switch (kind) {
    case BatchKind::kSet: return "set";
    case BatchKind::kAdd: return "add";
    case BatchKind::kGet: return "get";
    case BatchKind::kAppend: return "append";
    case BatchKind::kDelete: return "delete";
  }
  return "unknown";
}

KvServer::KvServer(KvServerConfig config) : config_(config) {}

Status KvServer::CheckedInsert(std::string_view key, Bytes&& value,
                               bool overwrite) {
  if (value.StoredSize() > config_.max_object_size) {
    return status::TooLarge("object exceeds per-item limit");
  }
  auto it = store_.find(key);
  std::uint64_t replaced = 0;
  if (it != store_.end()) {
    if (!overwrite) return status::Exists();
    replaced = it->second.StoredSize();
  }
  const std::uint64_t incoming = value.StoredSize();
  if (memory_used_ - replaced + incoming > config_.memory_limit) {
    return status::NoSpace("server memory exhausted");
  }
  memory_used_ = memory_used_ - replaced + incoming;
  stats_.bytes_written += incoming;
  if (it != store_.end()) {
    it->second = std::move(value);
  } else {
    store_.emplace(std::string(key), std::move(value));
  }
  return Status::Ok();
}

Status KvServer::Set(std::string_view key, Bytes value) {
  ++stats_.sets;
  return CheckedInsert(key, std::move(value), /*overwrite=*/true);
}

Status KvServer::Add(std::string_view key, Bytes value) {
  ++stats_.adds;
  return CheckedInsert(key, std::move(value), /*overwrite=*/false);
}

Result<Bytes> KvServer::Get(std::string_view key) {
  ++stats_.gets;
  auto it = store_.find(key);
  if (it == store_.end()) {
    ++stats_.misses;
    return status::NotFound();
  }
  ++stats_.hits;
  stats_.bytes_read += it->second.StoredSize();
  return it->second;
}

Status KvServer::Append(std::string_view key, const Bytes& suffix) {
  ++stats_.appends;
  auto it = store_.find(key);
  if (it == store_.end()) return status::NotFound();
  const std::uint64_t grown = suffix.StoredSize();
  if (it->second.StoredSize() + grown > config_.max_object_size) {
    return status::TooLarge();
  }
  if (memory_used_ + grown > config_.memory_limit) {
    return status::NoSpace();
  }
  it->second.Append(suffix);
  memory_used_ += grown;
  stats_.bytes_written += grown;
  return Status::Ok();
}

Status KvServer::Delete(std::string_view key) {
  ++stats_.deletes;
  auto it = store_.find(key);
  if (it == store_.end()) return status::NotFound();
  memory_used_ -= it->second.StoredSize();
  store_.erase(it);
  return Status::Ok();
}

BatchItemResult KvServer::ApplyBatchItem(BatchKind kind, BatchItem& item) {
  BatchItemResult out;
  switch (kind) {
    case BatchKind::kSet:
      out.status = Set(item.key, std::move(item.value));
      break;
    case BatchKind::kAdd:
      out.status = Add(item.key, std::move(item.value));
      break;
    case BatchKind::kGet: {
      Result<Bytes> got = Get(item.key);
      out.status = got.status();
      if (got.ok()) out.value = std::move(got).value();
      break;
    }
    case BatchKind::kAppend:
      out.status = Append(item.key, item.value);
      break;
    case BatchKind::kDelete:
      out.status = Delete(item.key);
      break;
  }
  return out;
}

namespace {
std::vector<BatchItemResult> ApplyBatch(KvServer& server, BatchKind kind,
                                        std::vector<BatchItem>& items) {
  std::vector<BatchItemResult> results;
  results.reserve(items.size());
  for (BatchItem& item : items) {
    results.push_back(server.ApplyBatchItem(kind, item));
  }
  return results;
}
}  // namespace

std::vector<BatchItemResult> KvServer::MultiSet(std::vector<BatchItem> items) {
  return ApplyBatch(*this, BatchKind::kSet, items);
}

std::vector<BatchItemResult> KvServer::MultiGet(std::vector<BatchItem> items) {
  return ApplyBatch(*this, BatchKind::kGet, items);
}

std::vector<BatchItemResult> KvServer::MultiDelete(
    std::vector<BatchItem> items) {
  return ApplyBatch(*this, BatchKind::kDelete, items);
}

bool KvServer::Exists(std::string_view key) const {
  return store_.contains(key);
}

std::vector<std::string> KvServer::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(store_.size());
  // hash-map iteration feeds a sort below, so the returned enumeration is
  // order-independent.
  for (const auto& [key, value] : store_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t KvServer::ValueSize(std::string_view key) const {
  auto it = store_.find(key);
  return it == store_.end() ? 0 : it->second.StoredSize();
}

void KvServer::Clear() {
  store_.clear();
  memory_used_ = 0;
}

}  // namespace memfs::kv
