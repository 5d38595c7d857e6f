// In-memory key-value server: the Memcached stand-in (§3.1.1).
//
// KvServer is a pure state machine — no clock, no network — so unit tests
// and CPU microbenches drive it directly. The simulated cluster binding
// (request/response transfers, bounded worker concurrency, per-op service
// times) lives in kv_cluster.h. Matching Memcached semantics:
//
//  * SET overwrites, ADD fails on an existing key, APPEND is atomic and
//    fails on a missing key, DELETE removes.
//  * Objects are rejected above a per-object size limit (Memcached's item
//    limit; 128 MB in the deployment the paper describes).
//  * Servers do not talk to each other; data distribution and balancing are
//    entirely the client's job, which is exactly the property MemFS builds
//    on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/string_hash.h"
#include "common/units.h"

namespace memfs::kv {

// Batch RPC vocabulary (libmemcached-style multi commands, §3.2.2). A batch
// carries one kind for all of its items; per-item verdicts come back in a
// parallel result vector so the client can retry only the failed keys.
enum class BatchKind : std::uint8_t { kSet, kAdd, kGet, kAppend, kDelete };

const char* BatchKindName(BatchKind kind);

struct BatchItem {
  std::string key;
  Bytes value;  // empty for GET / DELETE
};

struct BatchItemResult {
  Status status;
  Bytes value;  // filled for GET hits only
};

struct KvServerConfig {
  // Storage budget. The paper reserves all node memory minus 4 GB for the
  // runtime file system; benches set this per experiment.
  std::uint64_t memory_limit = units::GiB(20);
  // Per-object ceiling (Memcached item size limit).
  std::uint64_t max_object_size = units::MiB(128);
};

struct KvServerStats {
  std::uint64_t sets = 0;
  std::uint64_t adds = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t appends = 0;
  std::uint64_t deletes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

// The server's object store: a chained hash table over a power-of-two bucket
// array kept at load factor <= 1. An object is one block: the chain link,
// the value, the low half of the key hash, the id of the key's prefix and the
// length of the rest of the key, then the rest's bytes. A key's prefix is
// everything up to and including its last '/' (its directory, for a stripe
// or metadata key), kept once per table and shared by every object under it.
// Blocks are 8-byte aligned and carved from chunks of kChunkBytes that the
// table owns; an erased block goes on a free list of its exact size.
// Iteration visits objects in hash order, which is not a stable order:
// callers that need one sort (KvServer::Keys()).
class ObjectTable {
 public:
  struct Object {
    Object* next;
    Bytes value;
    // The low 32 bits of the key's hash: enough to pick the bucket (the
    // table never has more than 2^32 buckets) and to skip most key compares.
    std::uint32_t hash;
    // Prefix 0 is the empty one. A rest of kLongRest bytes or more keeps
    // kLongRest here and its true length in four bytes ahead of its bytes.
    std::uint32_t prefix : 20;
    std::uint32_t rest_size : 12;

    // The key after its prefix; its bytes follow the object in its block.
    std::string_view rest() const;
  };
  static_assert(sizeof(Object) == 48, "object header is six words");

  static constexpr std::uint32_t kLongRest = (1u << 12) - 1;
  static constexpr std::uint32_t kMaxPrefixes = 1u << 20;
  // Small chunks: every server holds one part-filled chunk, and a run has up
  // to 1024 servers (32 KiB chunks raised montage's and blast's peak RSS by
  // 6-7%).
  static constexpr std::size_t kChunkBytes = 4096;
  // Larger blocks (keys of hundreds of bytes) get a heap block of their own,
  // so a chunk's unused tail stays under a quarter of it.
  static constexpr std::size_t kMaxSlabBlock = kChunkBytes / 4;

  class Iterator {
   public:
    const Object& operator*() const { return *object_; }
    Iterator& operator++();
    bool operator==(const Iterator& other) const {
      return object_ == other.object_;
    }

   private:
    friend class ObjectTable;
    Iterator(const ObjectTable* table, std::size_t bucket,
             const Object* object);

    const ObjectTable* table_;
    std::size_t bucket_;
    const Object* object_;
  };

  ObjectTable() = default;
  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;
  ~ObjectTable() { Clear(); }

  Object* Find(std::string_view key) const;
  // Precondition: `key` is absent.
  void Insert(std::string_view key, Bytes value);
  void Erase(Object* object);
  // Drops every object and frees the chunks, the prefixes and the buckets.
  void Clear();

  // The object's whole key: its prefix followed by its rest.
  std::string Key(const Object& object) const;

  std::size_t size() const { return size_; }
  // Chunks the table holds (none when blocks bypass the slab).
  std::size_t chunk_count() const;
  Iterator begin() const { return Iterator(this, 0, nullptr); }
  Iterator end() const { return Iterator(this, buckets_.size(), nullptr); }

 private:
  struct Prefix {
    std::string_view text;  // the key of its prefix_ids_ entry
    std::uint32_t objects = 0;
  };

  static std::uint32_t Hash(std::string_view key);
  static std::size_t BlockBytes(std::size_t rest_size);
  Object** Bucket(std::uint32_t hash) {
    return &buckets_[hash & (buckets_.size() - 1)];
  }
  bool KeyEquals(const Object& object, std::string_view key) const;
  std::uint32_t AcquirePrefix(std::string_view key);
  void ReleasePrefix(std::uint32_t id);
  void* AllocateBlock(std::size_t bytes);
  void FreeBlock(void* block, std::size_t bytes);
  void Grow();

  std::vector<Object*> buckets_;  // empty until the first insert
  std::size_t size_ = 0;
  // Indexed by prefix id; id 0, the empty prefix, exists once anything was
  // inserted. Ids of prefixes whose last object went are reused.
  std::vector<Prefix> prefixes_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      prefix_ids_;
  std::vector<std::uint32_t> free_prefix_ids_;
  // The slab: the newest chunk (each chunk's first word points to the one
  // before it), the unused end of the newest chunk, and one free list per
  // block size in 8-byte steps, linked through each block's first word.
  void* chunks_ = nullptr;
  char* chunk_next_ = nullptr;
  std::size_t chunk_left_ = 0;
  std::vector<void*> free_blocks_;
};

class KvServer {
 public:
  explicit KvServer(KvServerConfig config = {});

  // Unconditional store (overwrite allowed).
  [[nodiscard]] Status Set(std::string_view key, Bytes value);

  // Store only if absent (Memcached ADD) — the primitive behind MemFS's
  // create-exclusive metadata keys.
  [[nodiscard]] Status Add(std::string_view key, Bytes value);

  [[nodiscard]] Result<Bytes> Get(std::string_view key);

  // Atomic append to an existing value (Memcached APPEND). Used by the
  // directory metadata protocol; fails with NotFound on a missing key.
  [[nodiscard]] Status Append(std::string_view key, const Bytes& suffix);

  [[nodiscard]] Status Delete(std::string_view key);

  // Batch commands (MULTI_SET / MULTI_GET / MULTI_DELETE, plus the ADD and
  // APPEND flavors the metadata protocol batches through the same path).
  // Each item is applied independently in order; a failed item does not
  // abort the rest. Results align index-for-index with the input.
  [[nodiscard]] std::vector<BatchItemResult> MultiSet(
      std::vector<BatchItem> items);
  [[nodiscard]] std::vector<BatchItemResult> MultiGet(
      std::vector<BatchItem> items);
  [[nodiscard]] std::vector<BatchItemResult> MultiDelete(
      std::vector<BatchItem> items);

  // Applies a single batch item of the given kind; the generic dispatcher
  // behind the Multi* commands and the simulated cluster's per-item loop.
  [[nodiscard]] BatchItemResult ApplyBatchItem(BatchKind kind,
                                               BatchItem& item);

  bool Exists(std::string_view key) const;

  // Snapshot of all stored keys, sorted (a deterministic enumeration for the
  // rebalancing migrator's sweeps; Memcached exposes the same ability via
  // the cachedump/lru_crawler interface).
  [[nodiscard]] std::vector<std::string> Keys() const;

  // Stored size of `key`'s value, or 0 when absent — control-plane peek used
  // by drain planning; does not count as a GET in stats.
  std::uint64_t ValueSize(std::string_view key) const;

  std::uint64_t memory_used() const { return memory_used_; }
  std::uint64_t memory_limit() const { return config_.memory_limit; }
  std::size_t object_count() const { return store_.size(); }
  const KvServerStats& stats() const { return stats_; }
  const KvServerConfig& config() const { return config_; }

  // Drops all objects (end-of-application teardown of the runtime FS).
  void Clear();

 private:
  [[nodiscard]] Status CheckedInsert(std::string_view key, Bytes&& value, bool overwrite);

  KvServerConfig config_;
  ObjectTable store_;
  std::uint64_t memory_used_ = 0;
  KvServerStats stats_;
};

}  // namespace memfs::kv
