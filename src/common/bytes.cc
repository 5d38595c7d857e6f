#include "common/bytes.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace memfs {
namespace {

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The fingerprint is a positional checksum: F = sum over output positions p
// of (p+1) * value(p) mod 2^64, where value(p) is (byte+1) for real content
// and a per-seed linear sequence A*k+B for synthetic content at source index
// k. It is split-invariant (any decomposition of the same assembly yields the
// same sum) and position-sensitive (reordering or misplacing ranges changes
// the weights), which is exactly what the file-system read-back checks need.

std::uint64_t PatternA(std::uint64_t seed) { return SplitMix(seed) | 1; }
std::uint64_t PatternB(std::uint64_t seed) {
  return SplitMix(seed ^ 0x5bf03635aca1fd4full);
}

// Sum of j for j in [0, n) and of j^2 for j in [0, n), mod 2^64. Payload
// sizes are bounded well below 2^41 so the 128-bit intermediates are exact.
std::uint64_t SumJ(std::uint64_t n) {
  if (n == 0) return 0;
  __uint128_t prod = static_cast<__uint128_t>(n) * (n - 1) / 2;
  return static_cast<std::uint64_t>(prod);
}

std::uint64_t SumJ2(std::uint64_t n) {
  if (n == 0) return 0;
  assert(n < (1ull << 41) && "payload too large for exact checksum algebra");
  __uint128_t prod = static_cast<__uint128_t>(n - 1) * n;
  prod = prod * (2 * n - 1) / 6;
  return static_cast<std::uint64_t>(prod);
}

// Closed-form fingerprint contribution of placing the synthetic source range
// [src, src+len) (content value A*k+B at source index k) at output offset
// `out`:  sum_{j=0}^{len-1} (out+j+1) * (A*(src+j) + B).
std::uint64_t SyntheticContribution(std::uint64_t seed, std::uint64_t src,
                                    std::uint64_t out, std::uint64_t len) {
  const std::uint64_t a = PatternA(seed);
  const std::uint64_t b = PatternB(seed);
  const std::uint64_t s1 = SumJ(len);
  const std::uint64_t s2 = SumJ2(len);
  const std::uint64_t t1 = out + 1;
  // A * [len*(t+1)*s + (t+1+s)*S1 + S2] + B * [len*(t+1) + S1]
  std::uint64_t term = len * t1 * src + (t1 + src) * s1 + s2;
  return a * term + b * (len * t1 + s1);
}

// Contribution of real bytes `data[0..len)` placed at output offset `out`.
std::uint64_t RealContribution(const std::uint8_t* data, std::uint64_t len,
                               std::uint64_t out) {
  std::uint64_t sum = 0;
  for (std::uint64_t j = 0; j < len; ++j) {
    sum += (out + j + 1) * (static_cast<std::uint64_t>(data[j]) + 1);
  }
  return sum;
}

std::uint8_t PatternByte(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t word = SplitMix(seed ^ (index >> 3));
  return static_cast<std::uint8_t>(word >> (8 * (index & 7)));
}

std::uint8_t* Allocate(std::size_t capacity) {
  if (capacity == 0) return nullptr;
  return static_cast<std::uint8_t*>(::operator new(capacity));
}

}  // namespace

Bytes::Bytes(const Bytes& other) : storage_{} {
  if (!other.real_) {
    size_ = other.size_;
    fingerprint_ = other.fingerprint_;
    storage_ = other.storage_;
    real_ = false;
    sliceable_synthetic_ = other.sliceable_synthetic_;
    return;
  }
  std::uint8_t* data = InitReal(other.size_);
  if (size_ != 0) std::memcpy(data, other.real_data(), size_);
  fingerprint_ = other.fingerprint_;
}

Bytes::Bytes(Bytes&& other) noexcept : storage_{} { StealFrom(other); }

Bytes& Bytes::operator=(const Bytes& other) {
  if (this == &other) return *this;
  if (real_ && other.real_ && real_capacity() >= other.size_) {
    // Reuse the buffer we already own, as a vector's copy-assign would.
    if (other.size_ != 0) {
      std::memcpy(real_data(), other.real_data(), other.size_);
    }
    size_ = other.size_;
    fingerprint_ = other.fingerprint_;
    return *this;
  }
  Bytes copy(other);
  Release();
  StealFrom(copy);
  return *this;
}

Bytes& Bytes::operator=(Bytes&& other) noexcept {
  if (this == &other) return *this;
  Release();
  StealFrom(other);
  return *this;
}

std::uint8_t* Bytes::InitReal(std::size_t size) {
  assert(size <= kMaxSize);
  real_ = true;
  sliceable_synthetic_ = false;
  size_ = size;
  fingerprint_ = 0;
  heap_ = size > kInlineBytes;
  if (heap_) storage_.heap = {Allocate(size), size};
  return real_data();
}

void Bytes::Release() noexcept {
  if (real_ && heap_) ::operator delete(storage_.heap.data);
  heap_ = false;
}

void Bytes::Reserve(std::size_t capacity) {
  std::uint8_t* grown = Allocate(capacity);
  if (size_ != 0) std::memcpy(grown, real_data(), size_);
  Release();
  heap_ = true;
  storage_.heap = {grown, capacity};
}

// Precondition: this holds no heap buffer (constructed or Release()d).
void Bytes::StealFrom(Bytes& other) noexcept {
  size_ = other.size_;
  fingerprint_ = other.fingerprint_;
  storage_ = other.storage_;
  real_ = other.real_;
  heap_ = other.heap_;
  sliceable_synthetic_ = other.sliceable_synthetic_;
  other.size_ = 0;
  other.fingerprint_ = 0;
  other.real_ = true;
  other.heap_ = false;
  other.sliceable_synthetic_ = false;
}

Bytes Bytes::Copy(std::string_view data) {
  Bytes out;
  std::uint8_t* dst = out.InitReal(data.size());
  if (!data.empty()) std::memcpy(dst, data.data(), data.size());
  out.fingerprint_ = RealContribution(dst, data.size(), 0);
  return out;
}

Bytes Bytes::Pattern(std::size_t size, std::uint64_t seed) {
  Bytes out;
  std::uint8_t* dst = out.InitReal(size);
  for (std::size_t i = 0; i < size; ++i) dst[i] = PatternByte(seed, i);
  out.fingerprint_ = RealContribution(dst, size, 0);
  return out;
}

Bytes Bytes::Synthetic(std::size_t size, std::uint64_t seed) {
  assert(size <= kMaxSize);
  Bytes out;
  out.real_ = false;
  out.size_ = size;
  out.storage_.source = {seed, 0};
  out.sliceable_synthetic_ = true;
  out.fingerprint_ = SyntheticContribution(seed, 0, 0, size);
  return out;
}

std::string_view Bytes::view() const {
  assert(real_ && "view() on a synthetic payload");
  return {reinterpret_cast<const char*>(real_data()), size_};
}

Bytes Bytes::Slice(std::size_t offset, std::size_t length) const {
  if (offset >= size_) return Bytes();
  const std::size_t len = std::min(length, size_ - offset);
  Bytes out;
  if (real_) {
    std::uint8_t* dst = out.InitReal(len);
    if (len != 0) std::memcpy(dst, real_data() + offset, len);
    out.fingerprint_ = RealContribution(dst, len, 0);
    return out;
  }
  out.real_ = false;
  out.size_ = len;
  if (sliceable_synthetic_) {
    const Generator& source = storage_.source;
    out.storage_.source = {source.seed, source.offset + offset};
    out.sliceable_synthetic_ = true;
    out.fingerprint_ =
        SyntheticContribution(source.seed, source.offset + offset, 0, len);
  } else {
    // A synthetic payload assembled from heterogeneous pieces has no
    // closed-form sub-range content; the slice is still deterministic but is
    // only equal to another slice taken the same way from an equal parent.
    out.storage_.source = {0, 0};
    out.fingerprint_ =
        SplitMix(fingerprint_ ^ SplitMix(offset) ^ SplitMix(len * 0x9e37ull));
  }
  return out;
}

void Bytes::Append(const Bytes& other) {
  if (other.empty()) return;
  const std::uint64_t out_offset = size_;
  const std::size_t added = other.size_;
  assert(added <= kMaxSize - size_);
  if (real_ && other.real_) {
    fingerprint_ += RealContribution(other.real_data(), added, out_offset);
    const std::size_t want = size_ + added;
    if (want > real_capacity()) {
      Reserve(std::max({want, real_capacity() * 2,
                        static_cast<std::size_t>(64)}));
    }
    // Read `other` only now: on a self-append it is this payload, whose
    // content may just have moved into the grown buffer.
    std::memcpy(real_data() + size_, other.real_data(), added);
    size_ += added;
    return;
  }
  // Mixed or synthetic append: the result is synthetic. Track source
  // contiguity so that slices of a stream written in order stay verifiable.
  const Generator& theirs = other.storage_.source;
  std::uint64_t contribution;
  if (other.real_) {
    contribution = RealContribution(other.real_data(), added, out_offset);
  } else if (other.sliceable_synthetic_) {
    contribution =
        SyntheticContribution(theirs.seed, theirs.offset, out_offset, added);
  } else {
    // No closed form for the appended content; fold its fingerprint in a
    // position-dependent way.
    contribution = SplitMix(other.fingerprint_ ^ SplitMix(out_offset));
  }

  const bool continues_pattern =
      !real_ && !other.real_ && sliceable_synthetic_ &&
      other.sliceable_synthetic_ && theirs.seed == storage_.source.seed &&
      theirs.offset == storage_.source.offset + size_;
  const bool starts_pattern = empty() && !other.real_ &&
                              other.sliceable_synthetic_;

  if (real_) {
    Release();
    real_ = false;
    storage_.source = {0, 0};
  }
  if (starts_pattern) {
    storage_.source = theirs;
    sliceable_synthetic_ = true;
  } else if (!continues_pattern) {
    sliceable_synthetic_ = false;
  }
  fingerprint_ += contribution;
  size_ += added;
}

}  // namespace memfs
