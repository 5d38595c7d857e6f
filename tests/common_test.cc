// Unit tests for src/common: payloads, stats, RNG, status, paths, table
// output.
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/path.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace memfs {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = status::NotFound("missing file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ToString(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = status::NoSpace("full");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNoSpace);
}

// --- Units ---

TEST(UnitsTest, ByteHelpers) {
  EXPECT_EQ(units::KiB(512), 512ull * 1024);
  EXPECT_EQ(units::MiB(8), 8ull << 20);
  EXPECT_EQ(units::GB(1), 1000000000ull);
}

TEST(UnitsTest, TransferNanos) {
  // 1 GB at 1 GB/s = 1 second.
  EXPECT_EQ(units::TransferNanos(units::GB(1), units::GB(1)),
            units::Seconds(1));
  // Nonzero transfers never take zero time.
  EXPECT_GE(units::TransferNanos(1, units::GB(100)), 1u);
  EXPECT_EQ(units::TransferNanos(0, units::GB(1)), 0u);
}

TEST(UnitsTest, BandwidthReporting) {
  EXPECT_DOUBLE_EQ(units::MBps(units::MB(500), units::Seconds(1)), 500.0);
  EXPECT_DOUBLE_EQ(units::MBps(units::MB(500), units::Millis(500)), 1000.0);
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BelowCoversRangeRoughlyUniformly) {
  Rng rng(11);
  int buckets[8] = {0};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.Below(8)];
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 8 * 0.9);
    EXPECT_LT(b, kDraws / 8 * 1.1);
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(5);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.Next() == child.Next();
  EXPECT_LT(same, 2);
}

// --- Bytes: real payloads ---

TEST(BytesTest, CopyRoundTrips) {
  Bytes b = Bytes::Copy("hello world");
  EXPECT_TRUE(b.is_real());
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(b.view(), "hello world");
}

TEST(BytesTest, EmptyPayloadsAreContentEqual) {
  EXPECT_TRUE(Bytes().ContentEquals(Bytes::Copy("")));
}

TEST(BytesTest, EqualContentEqualFingerprint) {
  EXPECT_TRUE(Bytes::Copy("abcdef").ContentEquals(Bytes::Copy("abcdef")));
  EXPECT_FALSE(Bytes::Copy("abcdef").ContentEquals(Bytes::Copy("abcdeg")));
}

TEST(BytesTest, FingerprintIsPositionSensitive) {
  // Same multiset of bytes, different order.
  EXPECT_FALSE(Bytes::Copy("ab").ContentEquals(Bytes::Copy("ba")));
}

TEST(BytesTest, RealSliceMatchesStringSlice) {
  Bytes b = Bytes::Copy("0123456789");
  Bytes s = b.Slice(3, 4);
  EXPECT_EQ(s.view(), "3456");
  EXPECT_TRUE(s.ContentEquals(Bytes::Copy("3456")));
}

TEST(BytesTest, SliceClampsAtEnd) {
  Bytes b = Bytes::Copy("0123456789");
  EXPECT_EQ(b.Slice(8, 100).size(), 2u);
  EXPECT_TRUE(b.Slice(20, 5).empty());
}

TEST(BytesTest, AppendEqualsConcatenation) {
  Bytes left = Bytes::Copy("foo");
  left.Append(Bytes::Copy("bar"));
  EXPECT_TRUE(left.ContentEquals(Bytes::Copy("foobar")));
  EXPECT_EQ(left.view(), "foobar");
}

TEST(BytesTest, SplitInvarianceReal) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Bytes whole = Bytes::Copy(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Bytes rebuilt = whole.Slice(0, cut);
    rebuilt.Append(whole.Slice(cut, data.size() - cut));
    EXPECT_TRUE(rebuilt.ContentEquals(whole)) << "cut at " << cut;
  }
}

TEST(BytesTest, PatternIsDeterministic) {
  Bytes a = Bytes::Pattern(1000, 42);
  Bytes b = Bytes::Pattern(1000, 42);
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_EQ(a.view(), b.view());
  EXPECT_FALSE(a.ContentEquals(Bytes::Pattern(1000, 43)));
}

// --- Bytes: synthetic payloads ---

TEST(BytesTest, SyntheticCarriesSizeWithoutStorage) {
  Bytes s = Bytes::Synthetic(units::GiB(100), 7);
  EXPECT_FALSE(s.is_real());
  EXPECT_EQ(s.size(), units::GiB(100));
  EXPECT_EQ(s.StoredSize(), units::GiB(100));
}

TEST(BytesTest, SyntheticDeterministic) {
  EXPECT_TRUE(Bytes::Synthetic(12345, 9).ContentEquals(
      Bytes::Synthetic(12345, 9)));
  EXPECT_FALSE(Bytes::Synthetic(12345, 9).ContentEquals(
      Bytes::Synthetic(12345, 10)));
  EXPECT_FALSE(Bytes::Synthetic(12345, 9).ContentEquals(
      Bytes::Synthetic(12346, 9)));
}

TEST(BytesTest, SyntheticSplitInvariance) {
  const std::uint64_t seed = 77;
  Bytes whole = Bytes::Synthetic(1 << 20, seed);
  for (std::size_t cut : {0ul, 1ul, 4096ul, 524288ul, (1ul << 20)}) {
    Bytes rebuilt = whole.Slice(0, cut);
    rebuilt.Append(whole.Slice(cut, (1ul << 20) - cut));
    EXPECT_TRUE(rebuilt.ContentEquals(whole)) << "cut at " << cut;
  }
}

TEST(BytesTest, SyntheticManyPieceReassembly) {
  const std::uint64_t seed = 123;
  const std::size_t total = 300000;
  Bytes whole = Bytes::Synthetic(total, seed);
  Bytes rebuilt;
  std::size_t offset = 0;
  // Uneven piece sizes, like a write buffer carving stripes.
  for (std::size_t piece = 1; offset < total; piece = piece * 3 + 7) {
    rebuilt.Append(whole.Slice(offset, piece));
    offset += piece;
  }
  EXPECT_TRUE(rebuilt.ContentEquals(whole));
}

TEST(BytesTest, SyntheticReorderDetected) {
  Bytes whole = Bytes::Synthetic(1000, 5);
  Bytes swapped = whole.Slice(500, 500);
  swapped.Append(whole.Slice(0, 500));
  EXPECT_EQ(swapped.size(), whole.size());
  EXPECT_FALSE(swapped.ContentEquals(whole));
}

TEST(BytesTest, SyntheticSliceOfSliceMatchesDirectSlice) {
  Bytes whole = Bytes::Synthetic(100000, 31);
  Bytes mid = whole.Slice(1000, 50000);
  EXPECT_TRUE(mid.Slice(200, 300).ContentEquals(whole.Slice(1200, 300)));
}

TEST(BytesTest, MixedAppendDegradesToSynthetic) {
  Bytes b = Bytes::Copy("header");
  b.Append(Bytes::Synthetic(100, 3));
  EXPECT_FALSE(b.is_real());
  EXPECT_EQ(b.size(), 106u);
  // Same construction yields the same fingerprint.
  Bytes c = Bytes::Copy("header");
  c.Append(Bytes::Synthetic(100, 3));
  EXPECT_TRUE(b.ContentEquals(c));
}

// --- Bytes: value semantics ---

// Real payloads stored inline (<= 16 bytes) and on the heap, and a
// synthetic one whose slices are still verifiable.
std::vector<Bytes> ValueSemanticsSamples() {
  return {Bytes::Copy("inline payload"),
          Bytes::Copy("a real payload too long to be stored inline"),
          Bytes::Synthetic(4096, 11).Slice(7, 900)};
}

TEST(BytesTest, CopyPreservesContentAndForm) {
  for (const Bytes& original : ValueSemanticsSamples()) {
    Bytes copy(original);
    EXPECT_TRUE(copy.ContentEquals(original));
    EXPECT_EQ(copy.is_real(), original.is_real());
    if (original.is_real()) {
      EXPECT_EQ(copy.view(), original.view());
    }
    EXPECT_TRUE(copy.Slice(3, 5).ContentEquals(original.Slice(3, 5)));

    Bytes assigned = Bytes::Synthetic(10, 1);
    assigned = original;
    EXPECT_TRUE(assigned.ContentEquals(original));
    EXPECT_EQ(assigned.is_real(), original.is_real());
    Bytes into_real = Bytes::Copy(std::string(100, 'x'));
    into_real = original;
    EXPECT_TRUE(into_real.ContentEquals(original));
    if (original.is_real()) {
      EXPECT_EQ(into_real.view(), original.view());
    }
  }
}

TEST(BytesTest, MovedFromIsEmptyReal) {
  for (const Bytes& original : ValueSemanticsSamples()) {
    Bytes source(original);
    Bytes moved(std::move(source));
    EXPECT_TRUE(moved.ContentEquals(original));
    EXPECT_TRUE(source.is_real());
    EXPECT_EQ(source.size(), 0u);
    EXPECT_EQ(source.fingerprint(), 0u);
    EXPECT_EQ(source.view(), "");
    EXPECT_FALSE(source.ContentEquals(moved));
    EXPECT_TRUE(source.ContentEquals(Bytes()));

    Bytes target = Bytes::Copy("overwritten");
    target = std::move(moved);
    EXPECT_TRUE(target.ContentEquals(original));
    EXPECT_TRUE(moved.ContentEquals(Bytes()));
    EXPECT_TRUE(moved.is_real());
    // A moved-from payload is usable again.
    moved.Append(Bytes::Copy("again"));
    EXPECT_EQ(moved.view(), "again");
  }
}

TEST(BytesTest, SelfAssignmentKeepsContent) {
  for (const Bytes& original : ValueSemanticsSamples()) {
    Bytes b(original);
    Bytes& alias = b;
    b = alias;
    EXPECT_TRUE(b.ContentEquals(original));
    b = std::move(alias);
    EXPECT_TRUE(b.ContentEquals(original));
    EXPECT_EQ(b.is_real(), original.is_real());
  }
}

TEST(BytesTest, SelfAppendDoublesContent) {
  // From inline storage, across the move to the heap, and through appends
  // that fit the heap buffer's spare capacity.
  Bytes real = Bytes::Copy("abc");
  std::string expected = "abc";
  while (expected.size() < 1000) {
    real.Append(real);
    expected += expected;
    ASSERT_EQ(real.view(), expected);
    ASSERT_TRUE(real.ContentEquals(Bytes::Copy(expected)));
  }

  Bytes synthetic = Bytes::Synthetic(100, 4);
  Bytes doubled = synthetic;
  doubled.Append(Bytes::Synthetic(100, 4));
  synthetic.Append(synthetic);
  EXPECT_EQ(synthetic.size(), 200u);
  EXPECT_TRUE(synthetic.ContentEquals(doubled));
}

TEST(BytesTest, ManySmallRealAppendsEqualOneCopy) {
  std::string whole;
  Bytes built;
  for (int i = 0; i < 10000; ++i) {
    const char c = static_cast<char>('a' + (i * 7) % 26);
    whole.push_back(c);
    built.Append(Bytes::Copy(std::string_view(&c, 1)));
  }
  const Bytes copy = Bytes::Copy(whole);
  EXPECT_TRUE(built.is_real());
  EXPECT_EQ(built.view(), whole);
  EXPECT_EQ(built.fingerprint(), copy.fingerprint());
  EXPECT_TRUE(built.ContentEquals(copy));
}

TEST(BytesTest, RealDegradedToSyntheticKeepsSlicesVerifiable) {
  const Bytes pattern = Bytes::Synthetic(5000, 21);
  // An empty real payload takes on the generator of what is appended.
  Bytes stream;
  stream.Append(pattern.Slice(0, 1000));
  stream.Append(pattern.Slice(1000, 4000));
  EXPECT_FALSE(stream.is_real());
  EXPECT_TRUE(stream.ContentEquals(pattern));
  EXPECT_TRUE(stream.Slice(1234, 777).ContentEquals(pattern.Slice(1234, 777)));

  // A non-empty real payload degrades: its slices are deterministic and
  // equal to the same slices of an equal assembly.
  Bytes mixed = Bytes::Copy("header");
  mixed.Append(pattern);
  Bytes twin = Bytes::Copy("header");
  twin.Append(pattern);
  EXPECT_FALSE(mixed.is_real());
  EXPECT_EQ(mixed.size(), 5006u);
  EXPECT_TRUE(mixed.Slice(3, 500).ContentEquals(twin.Slice(3, 500)));
  EXPECT_FALSE(mixed.Slice(3, 500).ContentEquals(twin.Slice(4, 500)));
  EXPECT_TRUE(Bytes(mixed).ContentEquals(twin));
}

// --- Bytes: the packed size-and-flags word ---

TEST(BytesTest, IsFourWords) {
  // The size shares a word with the three form flags.
  EXPECT_EQ(sizeof(Bytes), 32u);
}

TEST(BytesTest, SyntheticBeyond4GiBKeepsSizeAndFingerprint) {
  // Sizes and offsets past 2^32 survive every operation intact; the
  // fingerprints were pinned while the size had a word of its own.
  const std::uint64_t size = (std::uint64_t{5} << 30) + 3;
  const Bytes big = Bytes::Synthetic(size, 42);
  EXPECT_EQ(big.size(), size);
  EXPECT_EQ(big.fingerprint(), 2823546731965981438ull);

  const std::uint64_t offset = (std::uint64_t{1} << 32) + 17;
  const Bytes tail = big.Slice(offset, size);
  EXPECT_EQ(tail.size(), size - offset);
  EXPECT_EQ(tail.fingerprint(), 6552298816863676292ull);
  EXPECT_TRUE(
      tail.Slice(100, 1000).ContentEquals(big.Slice(offset + 100, 1000)));

  Bytes rebuilt = big.Slice(0, offset);
  rebuilt.Append(tail);
  EXPECT_EQ(rebuilt.size(), size);
  EXPECT_EQ(rebuilt.fingerprint(), big.fingerprint());
  EXPECT_FALSE(rebuilt.is_real());

  Bytes doubled = big;
  doubled.Append(big);
  EXPECT_EQ(doubled.size(), 2 * size);
  EXPECT_EQ(doubled.fingerprint(), 5663186370251206330ull);

  Bytes copy(big);
  EXPECT_EQ(copy.size(), size);
  EXPECT_EQ(copy.fingerprint(), big.fingerprint());
  Bytes moved(std::move(copy));
  EXPECT_EQ(moved.size(), size);
  EXPECT_EQ(moved.fingerprint(), big.fingerprint());
  EXPECT_TRUE(moved.Slice(offset, 64).ContentEquals(big.Slice(offset, 64)));
}

TEST(BytesTest, FlagsSurviveFormTransitions) {
  // Inline to heap: appending past 16 bytes moves real content to the heap.
  Bytes real = Bytes::Copy("0123456789");
  real.Append(Bytes::Copy("abcdefghij"));
  EXPECT_TRUE(real.is_real());
  EXPECT_EQ(real.size(), 20u);
  EXPECT_EQ(real.view(), "0123456789abcdefghij");
  EXPECT_EQ(real.fingerprint(),
            Bytes::Copy("0123456789abcdefghij").fingerprint());
  EXPECT_EQ(real.Slice(8, 4).view(), "89ab");

  // Real to synthetic: a mixed append degrades the payload, and its slices
  // are no longer the generator's slices.
  const Bytes pattern = Bytes::Synthetic(1000, 9);
  Bytes mixed = real;
  mixed.Append(pattern);
  EXPECT_FALSE(mixed.is_real());
  EXPECT_EQ(mixed.size(), 1020u);
  EXPECT_FALSE(mixed.Slice(20, 100).ContentEquals(pattern.Slice(0, 100)));
  Bytes mixed_copy(mixed);
  EXPECT_FALSE(mixed_copy.is_real());
  EXPECT_TRUE(mixed_copy.Slice(5, 50).ContentEquals(mixed.Slice(5, 50)));

  // A slice of a generator stays sliceable through copy and move.
  Bytes slice = pattern.Slice(100, 500);
  Bytes moved(std::move(slice));
  EXPECT_FALSE(moved.is_real());
  EXPECT_TRUE(moved.Slice(10, 20).ContentEquals(pattern.Slice(110, 20)));
  Bytes assigned = Bytes::Copy("x");
  assigned = moved;
  EXPECT_TRUE(assigned.Slice(10, 20).ContentEquals(pattern.Slice(110, 20)));

  // Move: the moved-from payload is Bytes(), whatever form it had, and
  // takes inline content again.
  for (Bytes* from : {&real, &mixed, &moved, &slice}) {
    Bytes taken(std::move(*from));
    EXPECT_TRUE(from->is_real());
    EXPECT_EQ(from->size(), 0u);
    EXPECT_EQ(from->fingerprint(), 0u);
    from->Append(Bytes::Copy("short"));
    EXPECT_EQ(from->view(), "short");
  }
}

// --- RunningStats / Samples ---

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(StatsTest, CvOfUniformDataIsZero) {
  RunningStats s;
  for (int i = 0; i < 10; ++i) s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(StatsTest, SampleQuantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 1e-9);
}

// --- Path helpers ---

TEST(PathTest, ParentAndBasename) {
  EXPECT_EQ(path::Parent("/a/b/c"), "/a/b");
  EXPECT_EQ(path::Parent("/a"), "/");
  EXPECT_EQ(path::Basename("/a/b/c"), "c");
  EXPECT_EQ(path::Basename("/a"), "a");
}

TEST(PathTest, Normalization) {
  EXPECT_TRUE(path::IsNormalized("/"));
  EXPECT_TRUE(path::IsNormalized("/a/b.txt"));
  EXPECT_FALSE(path::IsNormalized(""));
  EXPECT_FALSE(path::IsNormalized("a/b"));
  EXPECT_FALSE(path::IsNormalized("/a/"));
  EXPECT_FALSE(path::IsNormalized("/a//b"));
  EXPECT_FALSE(path::IsNormalized("/a/../b"));
  EXPECT_FALSE(path::IsNormalized("/a/./b"));
}

// --- Table ---

TEST(TableTest, TextOutputIsAligned) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  std::ostringstream os;
  t.PrintText(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(1234), "1234");
}

}  // namespace
}  // namespace memfs
