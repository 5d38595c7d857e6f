#include "hash/distributor.h"

#include <algorithm>
#include <cassert>

namespace memfs::hash {

ModuloDistributor::ModuloDistributor(std::uint32_t servers, HashKind kind)
    : servers_(servers), kind_(kind) {
  assert(servers > 0);
}

std::uint32_t ModuloDistributor::ServerFor(std::string_view key) const {
  return static_cast<std::uint32_t>(HashKey(kind_, key) % servers_);
}

namespace {

std::vector<std::uint32_t> Iota(std::uint32_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

}  // namespace

KetamaRing::KetamaRing(std::vector<std::uint32_t> members,
                       std::uint32_t vnodes_per_server, HashKind kind)
    : members_(std::move(members)), vnodes_(vnodes_per_server), kind_(kind) {
  assert(!members_.empty() && vnodes_per_server > 0);
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
  ring_.reserve(static_cast<std::size_t>(members_.size()) * vnodes_);
  std::string label;
  for (std::uint32_t s : members_) {
    for (std::uint32_t v = 0; v < vnodes_; ++v) {
      // Real ketama hashes "host:port-vnode" with MD5 to scatter the ring
      // points; Murmur3 plays that role here regardless of the key hash, so
      // ring dispersion does not degrade with weaker key hashes. The label
      // depends only on the member id: a member's vnodes sit at the same
      // positions whatever the rest of the ring looks like, which is what
      // makes join/leave movement minimal.
      label = "server-" + std::to_string(s) + "-vnode-" + std::to_string(v);
      ring_.push_back(Point{Murmur3_64(label, 0x6b746d61 /* 'ktma' */), s});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.position != b.position) return a.position < b.position;
    return a.server < b.server;  // deterministic tie-break
  });
}

KetamaDistributor::KetamaDistributor(std::uint32_t servers,
                                     std::uint32_t vnodes_per_server,
                                     HashKind kind)
    : ring_(Iota(servers), vnodes_per_server, kind) {
  assert(servers > 0 && vnodes_per_server > 0);
}

namespace {

// Final avalanche so every key hash covers the full 64-bit ring; without it
// a 32-bit hash (CRC32C) would collapse onto one arc of the ring and map
// everything to a single server.
std::uint64_t SpreadToRing(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t KetamaRing::ServerFor(std::string_view key) const {
  const std::uint64_t h = SpreadToRing(HashKey(kind_, key));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t value) { return p.position < value; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->server;
}

std::uint32_t KetamaRing::OwnerRank(std::string_view key) const {
  const std::uint32_t owner = ServerFor(key);
  const auto it = std::lower_bound(members_.begin(), members_.end(), owner);
  assert(it != members_.end() && *it == owner);
  return static_cast<std::uint32_t>(it - members_.begin());
}

std::vector<std::uint32_t> KetamaRing::ReplicaChain(
    std::string_view key, std::uint32_t replicas) const {
  const auto m = static_cast<std::uint32_t>(members_.size());
  const std::uint32_t count = std::min(std::max(replicas, 1u), m);
  const std::uint32_t rank = OwnerRank(key);
  std::vector<std::uint32_t> chain;
  chain.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    chain.push_back(members_[(rank + r) % m]);
  }
  return chain;
}

std::uint32_t KetamaDistributor::ServerFor(std::string_view key) const {
  return ring_.ServerFor(key);
}

std::unique_ptr<Distributor> MakeModulo(std::uint32_t servers, HashKind kind) {
  return std::make_unique<ModuloDistributor>(servers, kind);
}

std::unique_ptr<Distributor> MakeKetama(std::uint32_t servers,
                                        std::uint32_t vnodes_per_server,
                                        HashKind kind) {
  return std::make_unique<KetamaDistributor>(servers, vnodes_per_server, kind);
}

}  // namespace memfs::hash
