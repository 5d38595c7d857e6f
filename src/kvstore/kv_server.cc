#include "kvstore/kv_server.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
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

ObjectTable::Iterator::Iterator(const ObjectTable* table, std::size_t bucket,
                                const Object* object)
    : table_(table), bucket_(bucket), object_(object) {
  while (object_ == nullptr && bucket_ < table_->buckets_.size()) {
    object_ = table_->buckets_[bucket_];
    if (object_ == nullptr) ++bucket_;
  }
}

ObjectTable::Iterator& ObjectTable::Iterator::operator++() {
  object_ = object_->next;
  if (object_ == nullptr) *this = Iterator(table_, bucket_ + 1, nullptr);
  return *this;
}

std::uint32_t ObjectTable::Hash(std::string_view key) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
}

ObjectTable::Object* ObjectTable::Find(std::string_view key) const {
  if (size_ == 0) return nullptr;
  const std::uint32_t hash = Hash(key);
  for (Object* object = buckets_[hash & (buckets_.size() - 1)];
       object != nullptr; object = object->next) {
    if (object->hash == hash && object->key() == key) return object;
  }
  return nullptr;
}

void ObjectTable::Insert(std::string_view key, Bytes value) {
  if (size_ + 1 > buckets_.size()) Grow();
  const std::uint32_t hash = Hash(key);
  assert(key.size() <= std::numeric_limits<std::uint32_t>::max());
  void* block = ::operator new(sizeof(Object) + key.size());
  auto* object = new (block) Object{nullptr, std::move(value), hash,
                                    static_cast<std::uint32_t>(key.size())};
  if (!key.empty()) {
    std::memcpy(reinterpret_cast<char*>(object + 1), key.data(), key.size());
  }
  Object** head = Bucket(hash);
  object->next = *head;
  *head = object;
  ++size_;
}

void ObjectTable::Erase(Object* object) {
  Object** link = Bucket(object->hash);
  while (*link != object) link = &(*link)->next;
  *link = object->next;
  object->~Object();
  ::operator delete(object);
  --size_;
}

void ObjectTable::Clear() {
  for (Object*& head : buckets_) {
    while (head != nullptr) {
      Object* next = head->next;
      head->~Object();
      ::operator delete(head);
      head = next;
    }
  }
  size_ = 0;
}

void ObjectTable::Grow() {
  const std::size_t grown = std::max<std::size_t>(8, buckets_.size() * 2);
  const std::vector<Object*> old =
      std::exchange(buckets_, std::vector<Object*>(grown, nullptr));
  for (Object* head : old) {
    while (head != nullptr) {
      Object* next = head->next;
      Object** slot = Bucket(head->hash);
      head->next = *slot;
      *slot = head;
      head = next;
    }
  }
}

KvServer::KvServer(KvServerConfig config) : config_(config) {}

Status KvServer::CheckedInsert(std::string_view key, Bytes&& value,
                               bool overwrite) {
  if (value.StoredSize() > config_.max_object_size) {
    return status::TooLarge("object exceeds per-item limit");
  }
  ObjectTable::Object* existing = store_.Find(key);
  std::uint64_t replaced = 0;
  if (existing != nullptr) {
    if (!overwrite) return status::Exists();
    replaced = existing->value.StoredSize();
  }
  const std::uint64_t incoming = value.StoredSize();
  if (memory_used_ - replaced + incoming > config_.memory_limit) {
    return status::NoSpace("server memory exhausted");
  }
  memory_used_ = memory_used_ - replaced + incoming;
  stats_.bytes_written += incoming;
  if (existing != nullptr) {
    existing->value = std::move(value);
  } else {
    store_.Insert(key, std::move(value));
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
  const ObjectTable::Object* object = store_.Find(key);
  if (object == nullptr) {
    ++stats_.misses;
    return status::NotFound();
  }
  ++stats_.hits;
  stats_.bytes_read += object->value.StoredSize();
  return object->value;
}

Status KvServer::Append(std::string_view key, const Bytes& suffix) {
  ++stats_.appends;
  ObjectTable::Object* object = store_.Find(key);
  if (object == nullptr) return status::NotFound();
  const std::uint64_t grown = suffix.StoredSize();
  if (object->value.StoredSize() + grown > config_.max_object_size) {
    return status::TooLarge();
  }
  if (memory_used_ + grown > config_.memory_limit) {
    return status::NoSpace();
  }
  object->value.Append(suffix);
  memory_used_ += grown;
  stats_.bytes_written += grown;
  return Status::Ok();
}

Status KvServer::Delete(std::string_view key) {
  ++stats_.deletes;
  ObjectTable::Object* object = store_.Find(key);
  if (object == nullptr) return status::NotFound();
  memory_used_ -= object->value.StoredSize();
  store_.Erase(object);
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
  return store_.Find(key) != nullptr;
}

std::vector<std::string> KvServer::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(store_.size());
  // hash-order iteration feeds a sort below, so the returned enumeration is
  // order-independent.
  for (const ObjectTable::Object& object : store_) {
    keys.emplace_back(object.key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t KvServer::ValueSize(std::string_view key) const {
  const ObjectTable::Object* object = store_.Find(key);
  return object == nullptr ? 0 : object->value.StoredSize();
}

void KvServer::Clear() {
  store_.Clear();
  memory_used_ = 0;
}

}  // namespace memfs::kv
