#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/json_writer.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace confmask {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitWs) {
  std::vector<std::string_view> tokens;
  split_ws("  ip   address 10.0.0.1 ", tokens);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "ip");
  EXPECT_EQ(tokens[2], "10.0.0.1");
  split_ws("   ", tokens);  // a reused buffer is cleared first
  EXPECT_TRUE(tokens.empty());
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a\n\nb", '\n');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, CountConfigLines) {
  EXPECT_EQ(count_config_lines("hostname r1\n!\ninterface E0\n ip x\n!\n"),
            3u);
  EXPECT_EQ(count_config_lines(""), 0u);
  EXPECT_EQ(count_config_lines("!\n!\n"), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(PrefixAllocator, SkipsReservedPrefixes) {
  PrefixAllocator alloc(*Ipv4Prefix::parse("172.20.0.0/24"),
                        *Ipv4Prefix::parse("100.96.0.0/16"));
  alloc.reserve(*Ipv4Prefix::parse("172.20.0.0/30"));
  const auto link = alloc.allocate_link();
  EXPECT_FALSE(Ipv4Prefix::parse("172.20.0.0/30")->overlaps(link));
  EXPECT_EQ(link.length(), 31);
}

TEST(PrefixAllocator, AllocationsAreDisjoint) {
  PrefixAllocator alloc;
  std::vector<Ipv4Prefix> all;
  for (int i = 0; i < 50; ++i) all.push_back(alloc.allocate_link());
  for (int i = 0; i < 50; ++i) all.push_back(alloc.allocate_host_lan());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].overlaps(all[j]))
          << all[i].str() << " vs " << all[j].str();
    }
  }
}

TEST(PrefixAllocator, AllocatesFromZeroLengthPool) {
  // Regression: capacity was computed as `1u << (32 - pool.length())`,
  // which for a /0 pool shifts a 32-bit value by 32 — undefined behavior
  // that in practice yielded capacity 1 and spurious exhaustion.
  PrefixAllocator alloc(*Ipv4Prefix::parse("0.0.0.0/0"),
                        *Ipv4Prefix::parse("128.0.0.0/1"));
  const auto link1 = alloc.allocate_link();
  const auto link2 = alloc.allocate_link();
  EXPECT_EQ(link1.length(), 31);
  EXPECT_EQ(link2.length(), 31);
  EXPECT_FALSE(link1.overlaps(link2));
  const auto lan1 = alloc.allocate_host_lan();
  const auto lan2 = alloc.allocate_host_lan();
  EXPECT_EQ(lan1.length(), 24);
  EXPECT_TRUE(Ipv4Prefix::parse("128.0.0.0/1")->contains(lan1));
  EXPECT_FALSE(lan1.overlaps(lan2));
  EXPECT_FALSE(lan1.overlaps(link1));
}

TEST(PrefixAllocator, ThrowsWhenPoolExhausted) {
  PrefixAllocator alloc(*Ipv4Prefix::parse("172.20.0.0/30"),
                        *Ipv4Prefix::parse("100.96.0.0/22"));
  (void)alloc.allocate_link();
  (void)alloc.allocate_link();
  EXPECT_THROW((void)alloc.allocate_link(), std::runtime_error);
}

// The linear definition the indexed in_use must match: overlap with any
// occupied prefix.
bool overlaps_any(const std::vector<Ipv4Prefix>& occupied,
                  const Ipv4Prefix& candidate) {
  return std::any_of(occupied.begin(), occupied.end(),
                     [&](const Ipv4Prefix& p) { return p.overlaps(candidate); });
}

// A prefix of `length` whose network is `bits` masked to it.
Ipv4Prefix masked(std::uint32_t bits, int length) {
  return Ipv4Prefix{Ipv4Address{bits}, length};
}

TEST(PrefixAllocator, IndexedInUseMatchesLinearDefinition) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    PrefixAllocator alloc(*Ipv4Prefix::parse("172.20.0.0/22"),
                          *Ipv4Prefix::parse("100.96.0.0/16"));
    std::vector<Ipv4Prefix> occupied;
    const auto reserve = [&](const Ipv4Prefix& prefix) {
      alloc.reserve(prefix);
      occupied.push_back(prefix);
    };
    // Classful /8 blocks, host-pool /24s with a nested /20 around some,
    // link-pool /31s and /32s, and (rarely) the whole space.
    reserve(*Ipv4Prefix::parse("10.0.0.0/8"));
    for (int i = 0; i < 6; ++i) {
      const auto third = static_cast<std::uint32_t>(rng.below(64));
      reserve(masked(0x64600000u | third << 8, 24));
      if (rng.chance(0.3)) reserve(masked(0x64600000u | third << 8, 20));
      const auto low = static_cast<std::uint32_t>(rng.below(1024));
      reserve(masked(0xAC140000u | low, rng.chance(0.5) ? 31 : 32));
    }
    if (seed % 13 == 0) reserve(*Ipv4Prefix::parse("0.0.0.0/0"));

    const int lengths[] = {0, 1, 8, 12, 16, 20, 22, 24, 30, 31, 32};
    for (int q = 0; q < 400; ++q) {
      // Half the probes sit next to an occupied prefix, half anywhere.
      std::uint32_t bits = static_cast<std::uint32_t>(rng.below(1ull << 32));
      if (rng.chance(0.5)) {
        const Ipv4Prefix& near = occupied[rng.below(occupied.size())];
        bits = near.network().bits() +
               static_cast<std::uint32_t>(rng.below(512)) - 256u;
      }
      const Ipv4Prefix candidate =
          masked(bits, lengths[rng.below(std::size(lengths))]);
      ASSERT_EQ(alloc.in_use(candidate), overlaps_any(occupied, candidate))
          << "seed " << seed << " candidate " << candidate.str();
    }

    // Allocation order: the first free block after the cursor, by the
    // linear definition.
    struct Pool {
      Ipv4Prefix prefix;
      int length;
      std::uint64_t cursor = 0;
    };
    Pool pools[] = {{alloc.link_pool(), 31}, {alloc.host_pool(), 24}};
    const auto expected_next = [&](Pool& pool) -> std::optional<Ipv4Prefix> {
      const std::uint64_t step = std::uint64_t{1} << (32 - pool.length);
      const std::uint64_t capacity = std::uint64_t{1}
                                     << (32 - pool.prefix.length());
      while (pool.cursor < capacity) {
        const Ipv4Prefix block{
            Ipv4Address{pool.prefix.network().bits() +
                        static_cast<std::uint32_t>(pool.cursor)},
            pool.length};
        pool.cursor += step;
        if (!overlaps_any(occupied, block)) return block;
      }
      return std::nullopt;
    };
    for (int i = 0; i < 80; ++i) {
      const bool link = rng.chance(0.5);
      const auto expected = expected_next(pools[link ? 0 : 1]);
      if (!expected) {
        EXPECT_THROW((void)(link ? alloc.allocate_link()
                                 : alloc.allocate_host_lan()),
                     PrefixPoolExhausted);
        continue;
      }
      const Ipv4Prefix got =
          link ? alloc.allocate_link() : alloc.allocate_host_lan();
      ASSERT_EQ(got, *expected) << "seed " << seed << " allocation " << i;
      occupied.push_back(got);
    }
  }
}

using Layout = JsonWriter::Layout;

TEST(JsonWriter, InlineNestingEmptyContainersAndNull) {
  JsonWriter out;
  out.string("name", "x")
      .array("items")
      .object()
      .number("a", -1)
      .end()
      .array()
      .number_u64(2)
      .number_u64(std::numeric_limits<std::uint64_t>::max())
      .end()
      .string("s")
      .end()
      .object("empty")
      .end()
      .array("none")
      .end()
      .null("gone")
      .boolean("yes", true);
  EXPECT_EQ(out.str(),
            "{\"name\": \"x\", \"items\": [{\"a\": -1}, "
            "[2, 18446744073709551615], \"s\"], \"empty\": {}, "
            "\"none\": [], \"gone\": null, \"yes\": true}");
  EXPECT_EQ(JsonWriter{}.str(), "{}");
}

TEST(JsonWriter, LinesLayoutIndentsTwoSpacesPerLevel) {
  JsonWriter out(Layout::kLines);
  out.number("a", 1)
      .array("rows", Layout::kLines)
      .object()
      .string("k", "v")
      .end()
      .object(Layout::kLines)
      .boolean("deep", false)
      .array("none", Layout::kLines)
      .end()
      .end()
      .end()
      .array("empty", Layout::kLines)
      .end()
      .object("inline")
      .number("b", 2)
      .end();
  EXPECT_EQ(std::move(out).str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"rows\": [\n"
            "    {\"k\": \"v\"},\n"
            "    {\n"
            "      \"deep\": false,\n"
            "      \"none\": []\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"inline\": {\"b\": 2}\n"
            "}\n");
  // A document ends with a newline even when it is empty.
  EXPECT_EQ(JsonWriter(Layout::kLines).str(), "{}\n");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  EXPECT_EQ(JsonWriter{}
                .string("a\"b\n", std::string("c\\d\x01\t", 5))
                .array("k\x1f")
                .string("\r")
                .str(),
            "{\"a\\\"b\\n\": \"c\\\\d\\u0001\\t\", "
            "\"k\\u001f\": [\"\\r\"]}");
}

TEST(JsonWriter, WireAndBenchDoubleForms) {
  const std::string line =
      JsonWriter{}.real("wire", 0.1).fixed("bench", 0.1).real("big", 1e300)
          .fixed("ms", 1234.5678901).str();
  EXPECT_EQ(line,
            "{\"wire\": 0.10000000000000001, \"bench\": 0.100000, "
            "\"big\": 1.0000000000000001e+300, \"ms\": 1234.567890}");
  // %.17g round-trips: the wire text parses back to the same double.
  EXPECT_EQ(std::strtod("0.10000000000000001", nullptr), 0.1);
  EXPECT_EQ(std::strtod("1.0000000000000001e+300", nullptr), 1e300);
}

TEST(JsonWriter, BothStrOverloadsReturnTheSameBytes) {
  JsonWriter out(Layout::kLines);
  out.string("configs", std::string(1000, 'x'))
      .array("open", Layout::kLines)
      .number_u64(1);
  const std::string copied = out.str();
  EXPECT_EQ(copied, "{\n  \"configs\": \"" + std::string(1000, 'x') +
                        "\",\n  \"open\": [\n    1\n  ]\n}\n");
  EXPECT_EQ(out.str(), copied);  // the writer is unchanged by a copy
  EXPECT_EQ(std::move(out).str(), copied);
}

}  // namespace
}  // namespace confmask
