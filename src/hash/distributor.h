// Client-side data distribution: maps an object key to a storage server.
//
// This is the reproduction of Libmemcached's server-selection layer (§3.1.2).
// MemFS uses the modulo scheme for a fixed server set (balanced by
// construction); the consistent-hashing (ketama) scheme is provided for the
// elastic scenario the paper defers to future work, and its
// minimal-remapping property is exercised by the tests and an ablation bench.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hash/hash.h"

namespace memfs::hash {

class Distributor {
 public:
  virtual ~Distributor() = default;

  // Index of the storage server responsible for `key`, in [0, server_count).
  virtual std::uint32_t ServerFor(std::string_view key) const = 0;

  virtual std::uint32_t server_count() const = 0;
  virtual std::string_view name() const = 0;
};

// hash(key) mod N — Libmemcached's "modula" scheme, the one MemFS uses.
class ModuloDistributor final : public Distributor {
 public:
  ModuloDistributor(std::uint32_t servers, HashKind kind = HashKind::kFnv1a64);

  std::uint32_t ServerFor(std::string_view key) const override;
  std::uint32_t server_count() const override { return servers_; }
  std::string_view name() const override { return "modulo"; }

 private:
  std::uint32_t servers_;
  HashKind kind_;
};

// Consistent-hashing ring over an explicit member set (elastic membership
// extension). Each member id seeds the same vnode labels as the classic
// KetamaDistributor — vnode positions depend only on the member's identity,
// never on who else is on the ring — which is exactly the minimal-movement
// property: adding or removing one member remaps ~1/N of the keys and leaves
// every other placement untouched. KetamaDistributor delegates to a ring
// over {0..N-1}, so the two agree bit-for-bit on a full server set.
class KetamaRing {
 public:
  explicit KetamaRing(std::vector<std::uint32_t> members,
                      std::uint32_t vnodes_per_server = 160,
                      HashKind kind = HashKind::kFnv1a64);

  // Member owning `key` (the first vnode clockwise from the key's point).
  std::uint32_t ServerFor(std::string_view key) const;

  // Rank of the owner within the sorted member list; replica chains walk the
  // member list from this rank so that a ring over {0..N-1} reproduces the
  // legacy "(owner + r) % N" placement exactly.
  std::uint32_t OwnerRank(std::string_view key) const;

  // The `replicas` members holding copies of `key`: members[(rank + r) % M].
  std::vector<std::uint32_t> ReplicaChain(std::string_view key,
                                          std::uint32_t replicas) const;

  const std::vector<std::uint32_t>& members() const { return members_; }
  std::uint32_t member_count() const {
    return static_cast<std::uint32_t>(members_.size());
  }
  std::uint32_t vnodes_per_server() const { return vnodes_; }

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t server;
  };

  std::vector<std::uint32_t> members_;  // sorted, unique
  std::uint32_t vnodes_;
  HashKind kind_;
  std::vector<Point> ring_;  // sorted by position
};

// Consistent hashing on a 64-bit ring with virtual nodes (ketama-style).
// Adding or removing one server remaps ~1/N of the keys instead of nearly
// all of them.
class KetamaDistributor final : public Distributor {
 public:
  KetamaDistributor(std::uint32_t servers, std::uint32_t vnodes_per_server,
                    HashKind kind = HashKind::kFnv1a64);

  std::uint32_t ServerFor(std::string_view key) const override;
  std::uint32_t server_count() const override { return ring_.member_count(); }
  std::string_view name() const override { return "ketama"; }

  std::uint32_t vnodes_per_server() const { return ring_.vnodes_per_server(); }

 private:
  KetamaRing ring_;  // over members {0..servers-1}
};

std::unique_ptr<Distributor> MakeModulo(std::uint32_t servers,
                                        HashKind kind = HashKind::kFnv1a64);
std::unique_ptr<Distributor> MakeKetama(std::uint32_t servers,
                                        std::uint32_t vnodes_per_server = 160,
                                        HashKind kind = HashKind::kFnv1a64);

}  // namespace memfs::hash
