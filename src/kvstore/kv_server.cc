#include "kvstore/kv_server.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <utility>

#include "sim/pool_alloc.h"  // MEMFS_POOL_ALLOC_BYPASS

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

namespace {
// Under ASan/TSan every block is a heap block of its own, so a use after
// Erase or Clear stays visible to the sanitizer.
#ifdef MEMFS_POOL_ALLOC_BYPASS
constexpr bool kSlab = false;
#else
constexpr bool kSlab = true;
#endif

bool InSlab(std::size_t bytes) {
  return kSlab && bytes <= ObjectTable::kMaxSlabBlock;
}
}  // namespace

std::string_view ObjectTable::Object::rest() const {
  const char* bytes = reinterpret_cast<const char*>(this + 1);
  if (rest_size != kLongRest) return {bytes, rest_size};
  std::uint32_t size;
  std::memcpy(&size, bytes, sizeof(size));
  return {bytes + sizeof(size), size};
}

std::uint32_t ObjectTable::Hash(std::string_view key) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
}

std::size_t ObjectTable::BlockBytes(std::size_t rest_size) {
  const std::size_t bytes = sizeof(Object) + rest_size +
                            (rest_size >= kLongRest ? sizeof(std::uint32_t) : 0);
  return (bytes + alignof(Object) - 1) & ~(alignof(Object) - 1);
}

bool ObjectTable::KeyEquals(const Object& object, std::string_view key) const {
  const std::string_view prefix = prefixes_[object.prefix].text;
  const std::string_view rest = object.rest();
  return prefix.size() + rest.size() == key.size() &&
         key.starts_with(prefix) && key.ends_with(rest);
}

std::string ObjectTable::Key(const Object& object) const {
  std::string key(prefixes_[object.prefix].text);
  key.append(object.rest());
  return key;
}

ObjectTable::Object* ObjectTable::Find(std::string_view key) const {
  if (size_ == 0) return nullptr;
  const std::uint32_t hash = Hash(key);
  for (Object* object = buckets_[hash & (buckets_.size() - 1)];
       object != nullptr; object = object->next) {
    if (object->hash == hash && KeyEquals(*object, key)) return object;
  }
  return nullptr;
}

std::uint32_t ObjectTable::AcquirePrefix(std::string_view key) {
  if (prefixes_.empty()) prefixes_.emplace_back();  // id 0: the empty prefix
  const std::size_t slash = key.rfind('/');
  if (slash == std::string_view::npos) return 0;
  const std::string_view text = key.substr(0, slash + 1);
  auto it = prefix_ids_.find(text);
  if (it == prefix_ids_.end()) {
    std::uint32_t id;
    if (!free_prefix_ids_.empty()) {
      id = free_prefix_ids_.back();
      free_prefix_ids_.pop_back();
    } else if (prefixes_.size() < kMaxPrefixes) {
      id = static_cast<std::uint32_t>(prefixes_.size());
      prefixes_.emplace_back();
    } else {
      return 0;  // every id is taken: the key is all rest
    }
    it = prefix_ids_.emplace(text, id).first;
    prefixes_[id].text = it->first;
  }
  ++prefixes_[it->second].objects;
  return it->second;
}

void ObjectTable::ReleasePrefix(std::uint32_t id) {
  if (id == 0 || --prefixes_[id].objects > 0) return;
  prefix_ids_.erase(prefix_ids_.find(prefixes_[id].text));
  prefixes_[id].text = {};
  free_prefix_ids_.push_back(id);
}

void* ObjectTable::AllocateBlock(std::size_t bytes) {
  if (!InSlab(bytes)) return ::operator new(bytes);
  const std::size_t size_class = bytes / alignof(Object);
  if (size_class < free_blocks_.size() && free_blocks_[size_class] != nullptr) {
    void* block = free_blocks_[size_class];
    free_blocks_[size_class] = *static_cast<void**>(block);
    return block;
  }
  if (bytes > chunk_left_) {
    // The old chunk's tail becomes a free block of its own size.
    if (chunk_left_ >= sizeof(Object)) FreeBlock(chunk_next_, chunk_left_);
    void* chunk = ::operator new(kChunkBytes);
    *static_cast<void**>(chunk) = std::exchange(chunks_, chunk);
    chunk_next_ = static_cast<char*>(chunk) + sizeof(void*);
    chunk_left_ = kChunkBytes - sizeof(void*);
  }
  void* block = chunk_next_;
  chunk_next_ += bytes;
  chunk_left_ -= bytes;
  return block;
}

void ObjectTable::FreeBlock(void* block, std::size_t bytes) {
  if (!InSlab(bytes)) {
    ::operator delete(block, bytes);
    return;
  }
  if (free_blocks_.empty()) {
    free_blocks_.resize(kMaxSlabBlock / alignof(Object) + 1, nullptr);
  }
  const std::size_t size_class = bytes / alignof(Object);
  *static_cast<void**>(block) = free_blocks_[size_class];
  free_blocks_[size_class] = block;
}

void ObjectTable::Insert(std::string_view key, Bytes value) {
  if (size_ + 1 > buckets_.size()) Grow();
  const std::uint32_t hash = Hash(key);
  assert(key.size() <= std::numeric_limits<std::uint32_t>::max());
  const std::uint32_t prefix = AcquirePrefix(key);
  const std::string_view rest = key.substr(prefixes_[prefix].text.size());
  const bool long_rest = rest.size() >= kLongRest;
  char* block = static_cast<char*>(AllocateBlock(BlockBytes(rest.size())));
  auto* object = new (block) Object{
      nullptr, std::move(value), hash, prefix,
      long_rest ? kLongRest : static_cast<std::uint32_t>(rest.size())};
  char* bytes = block + sizeof(Object);
  if (long_rest) {
    const auto size = static_cast<std::uint32_t>(rest.size());
    std::memcpy(bytes, &size, sizeof(size));
    bytes += sizeof(size);
  }
  if (!rest.empty()) std::memcpy(bytes, rest.data(), rest.size());
  Object** head = Bucket(hash);
  object->next = *head;
  *head = object;
  ++size_;
}

void ObjectTable::Erase(Object* object) {
  Object** link = Bucket(object->hash);
  while (*link != object) link = &(*link)->next;
  *link = object->next;
  const std::size_t bytes = BlockBytes(object->rest().size());
  ReleasePrefix(object->prefix);
  object->~Object();
  FreeBlock(object, bytes);
  --size_;
}

void ObjectTable::Clear() {
  for (Object* head : buckets_) {
    while (head != nullptr) {
      Object* next = head->next;
      const std::size_t bytes = BlockBytes(head->rest().size());
      head->~Object();
      // Blocks carved from a chunk go with it below.
      if (!InSlab(bytes)) ::operator delete(head, bytes);
      head = next;
    }
  }
  while (chunks_ != nullptr) {
    void* chunk = std::exchange(chunks_, *static_cast<void**>(chunks_));
    ::operator delete(chunk, kChunkBytes);
  }
  chunk_next_ = nullptr;
  chunk_left_ = 0;
  free_blocks_ = {};
  buckets_ = {};
  prefix_ids_ = {};
  prefixes_ = {};
  free_prefix_ids_ = {};
  size_ = 0;
}

std::size_t ObjectTable::chunk_count() const {
  std::size_t count = 0;
  for (void* chunk = chunks_; chunk != nullptr;
       chunk = *static_cast<void**>(chunk)) {
    ++count;
  }
  return count;
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
    keys.push_back(store_.Key(object));
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
