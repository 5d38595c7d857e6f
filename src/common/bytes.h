// Payload representation for stored objects.
//
// The simulator runs workflows that generate hundreds of gigabytes of
// intermediate data (Montage 16x16 produces ~450 GB in the paper). Storing
// those bytes for real would be impossible, and unnecessary: the experiments
// only depend on sizes and on end-to-end content integrity. `Bytes` therefore
// has two forms sharing one interface:
//
//  * real     — owns a byte buffer; used by unit tests, the examples, and any
//               workload small enough to materialize.
//  * synthetic — carries only (size, fingerprint); slicing and concatenation
//               update the fingerprint deterministically, so a read-back
//               mismatch is still detectable without holding the data.
//
// Both forms support Slice/Append so the striping and buffering code paths in
// the file-system clients are identical regardless of payload form.
//
// A `Bytes` rides in every stored object, batch item, result and coroutine
// frame, so it is kept to 32 bytes (four words): the size and the three
// form flags share one word (a 61-bit size), and the real heap buffer
// (pointer + capacity), up to 16 bytes of inline real content, and the
// synthetic generator (seed + offset) share one union. A moved-from payload
// is `Bytes()`: real, empty, fingerprint 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace memfs {

class Bytes {
 public:
  Bytes() noexcept : storage_{} {}
  Bytes(const Bytes& other);
  Bytes(Bytes&& other) noexcept;
  Bytes& operator=(const Bytes& other);
  Bytes& operator=(Bytes&& other) noexcept;
  ~Bytes() { Release(); }

  // Real payloads.
  static Bytes Copy(std::string_view data);
  // Deterministic pseudo-random content of `size` bytes derived from `seed`.
  static Bytes Pattern(std::size_t size, std::uint64_t seed);

  // Synthetic payload: size-only with the fingerprint the equivalent
  // Pattern() payload would have, so synthetic and real runs agree.
  static Bytes Synthetic(std::size_t size, std::uint64_t seed);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_real() const { return real_; }

  // 64-bit positional content checksum: invariant under re-splitting the
  // same assembly, sensitive to reordered or misplaced ranges. Real and
  // synthetic payloads use different content domains, so fingerprints are
  // comparable within one family (which is how the file systems use them).
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Read-only view of real content. Precondition: is_real().
  std::string_view view() const;

  // Sub-range [offset, offset+length); clamps to the payload end.
  Bytes Slice(std::size_t offset, std::size_t length) const;

  // Concatenation (used by the directory-append metadata protocol and the
  // write buffer). Appending a synthetic payload to a real one degrades the
  // result to synthetic. Real appends grow the buffer geometrically, so a
  // stream assembled from many small appends stays amortized O(n).
  void Append(const Bytes& other);

  // Two payloads are content-equal when sizes and fingerprints agree (exact
  // for real payloads, collision-resistant check for synthetic ones).
  bool ContentEquals(const Bytes& other) const {
    return size_ == other.size_ && fingerprint_ == other.fingerprint_;
  }

  // The logical memory footprint this payload represents on a server,
  // regardless of physical form.
  std::size_t StoredSize() const { return size_; }

 private:
  // A real payload created with at most this many bytes (most metadata
  // records) keeps them inline in the union and allocates nothing; longer
  // or grown content lives in a heap buffer.
  static constexpr std::size_t kInlineBytes = 16;
  // The size shares a word with the form flags, so it has 61 bits.
  static constexpr std::uint64_t kMaxSize = (std::uint64_t{1} << 61) - 1;

  // A real payload's heap buffer: content is data[0, size_).
  struct Buffer {
    std::uint8_t* data;
    std::size_t capacity;
  };
  // A synthetic payload's generator: when sliceable_synthetic_, content at
  // position p is source index offset + p, so slices stay verifiable.
  struct Generator {
    std::uint64_t seed;
    std::uint64_t offset;
  };
  union Storage {
    Buffer heap;                       // real_ && heap_
    std::uint8_t local[kInlineBytes];  // real_ && !heap_
    Generator source;                  // !real_
  };

  std::uint8_t* real_data() {
    return heap_ ? storage_.heap.data : storage_.local;
  }
  const std::uint8_t* real_data() const {
    return heap_ ? storage_.heap.data : storage_.local;
  }
  std::size_t real_capacity() const {
    return heap_ ? storage_.heap.capacity : kInlineBytes;
  }
  // Turns this (holding no heap buffer) into a real payload of `size`
  // uninitialized bytes with fingerprint 0; returns where they go.
  std::uint8_t* InitReal(std::size_t size);
  // Frees the heap buffer, if any, and marks the storage inline; the
  // caller then sets the rest of the state.
  void Release() noexcept;
  // Moves real content into a heap buffer of `capacity` bytes.
  void Reserve(std::size_t capacity);
  // Takes other's state and leaves it as Bytes().
  void StealFrom(Bytes& other) noexcept;

  // One word: the size and the three form flags.
  std::uint64_t size_ : 61 = 0;
  std::uint64_t real_ : 1 = 1;
  std::uint64_t heap_ : 1 = 0;
  std::uint64_t sliceable_synthetic_ : 1 = 0;
  std::uint64_t fingerprint_ = 0;
  Storage storage_;
};

static_assert(sizeof(Bytes) == 32, "Bytes is stored once per kv object");

}  // namespace memfs
