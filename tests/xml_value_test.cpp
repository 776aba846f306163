#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "examples/example_env.h"
#include "xml/item.h"
#include "xml/value.h"

// Live-byte counting: every scalar new records its size in a header in
// front of the block, and every delete takes it back off, so the count is
// what the process holds at any moment.
namespace {
std::atomic<int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = 16;  // keeps malloc's 16-byte alignment
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                            const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (...) {
    return nullptr;
  }
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  operator delete(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace aldsp::xml {
namespace {

static_assert(sizeof(AtomicValue) == 16);
static_assert(sizeof(Cell) == 24);
static_assert(sizeof(Item) == 24);

TEST(AtomicValueTest, LexicalForms) {
  EXPECT_EQ(AtomicValue::String("abc").Lexical(), "abc");
  EXPECT_EQ(AtomicValue::Integer(-42).Lexical(), "-42");
  EXPECT_EQ(AtomicValue::Boolean(true).Lexical(), "true");
  EXPECT_EQ(AtomicValue::Boolean(false).Lexical(), "false");
  EXPECT_EQ(AtomicValue::Double(2.5).Lexical(), "2.5");
  EXPECT_EQ(AtomicValue::Double(3.0).Lexical(), "3.0");
}

TEST(AtomicValueTest, DateTimeRoundTrip) {
  // 2006-09-12 is the VLDB'06 conference date.
  auto parsed = ParseDateTime("2006-09-12T00:00:00");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FormatDateTime(parsed.value()), "2006-09-12T00:00:00Z");
  EXPECT_EQ(FormatDateTime(0), "1970-01-01T00:00:00Z");
  auto epoch = ParseDateTime("1970-01-01T00:00:00Z");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 0);
}

TEST(AtomicValueTest, DateTimeLeapYear) {
  auto parsed = ParseDateTime("2004-02-29T12:00:00");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FormatDateTime(parsed.value()), "2004-02-29T12:00:00Z");
  EXPECT_FALSE(ParseDateTime("2005-02-29T12:00:00").ok());
}

TEST(AtomicValueTest, DateTimeRoundTripSweep) {
  for (int64_t t = -100000000; t <= 2000000000; t += 123456789) {
    auto parsed = ParseDateTime(FormatDateTime(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
}

TEST(AtomicValueTest, NumericComparisonPromotes) {
  auto c = AtomicValue::Integer(3).Compare(AtomicValue::Double(3.5));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c.value(), 0);
  EXPECT_TRUE(AtomicValue::Integer(2).Equals(AtomicValue::Decimal(2.0)));
}

TEST(AtomicValueTest, IncomparableTypesError) {
  auto c = AtomicValue::Integer(3).Compare(AtomicValue::String("3"));
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kRuntimeError);
}

TEST(AtomicValueTest, CastStringToInteger) {
  auto v = AtomicValue::String("123").CastTo(AtomicType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), 123);
  EXPECT_FALSE(AtomicValue::String("12x").CastTo(AtomicType::kInteger).ok());
}

TEST(AtomicValueTest, CastIntegerToDateTime) {
  // The paper's int2date example: SINCE stored as seconds since 1970.
  auto v = AtomicValue::Integer(86400).CastTo(AtomicType::kDateTime);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Lexical(), "1970-01-02T00:00:00Z");
}

TEST(AtomicValueTest, CastBooleanLexicals) {
  EXPECT_TRUE(AtomicValue::String("true").CastTo(AtomicType::kBoolean)->AsBoolean());
  EXPECT_FALSE(AtomicValue::String("0").CastTo(AtomicType::kBoolean)->AsBoolean());
  EXPECT_FALSE(AtomicValue::String("yes").CastTo(AtomicType::kBoolean).ok());
}

TEST(AtomicValueTest, UntypedComparesAsString) {
  auto c = AtomicValue::Untyped("abc").Compare(AtomicValue::String("abd"));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c.value(), 0);
}

// ----- The compact layout ----------------------------------------------

// Strings on both sides of the inline limit, with the bytes a C string
// would lose: an embedded NUL, multi-byte UTF-8, a trailing NUL.
std::vector<std::string> Strings() {
  const size_t n = AtomicValue::kInlineCapacity;
  return {"",
          "a",
          std::string(n, 'x'),
          std::string(n + 1, 'y'),
          std::string(200, 'z'),
          std::string("nul\0inside", 11),
          std::string("14 bytes\0 nul!", 15).substr(0, n),
          std::string(n + 3, '\0'),
          "caf\xc3\xa9 \xe2\x82\xac",                   // 10 bytes
          "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e\xe3\x83\x86\xe3\x82\xad",  // 15
          std::string("tail nul\0", 9)};
}

TEST(CompactValueTest, StringsKeepEveryByte) {
  for (const std::string& s : Strings()) {
    for (AtomicValue v : {AtomicValue::String(s), AtomicValue::Untyped(s)}) {
      EXPECT_EQ(v.AsString(), s);
      EXPECT_EQ(v.AsString().size(), s.size());
      EXPECT_EQ(v.Lexical(), s);
      EXPECT_TRUE(v.is_string());
      EXPECT_EQ(v.HeapBytes(),
                s.size() > AtomicValue::kInlineCapacity ? s.size() : 0u)
          << s.size();
    }
  }
  EXPECT_EQ(AtomicValue().type(), AtomicType::kUntyped);
  EXPECT_EQ(AtomicValue().AsString(), "");
  EXPECT_EQ(AtomicValue().HeapBytes(), 0u);
}

TEST(CompactValueTest, NonStringsLiveInline) {
  const AtomicValue values[] = {
      AtomicValue::Integer(INT64_MIN), AtomicValue::Integer(INT64_MAX),
      AtomicValue::Decimal(-0.5),      AtomicValue::Double(1e300),
      AtomicValue::Boolean(true),      AtomicValue::DateTime(-86400)};
  for (const AtomicValue& v : values) EXPECT_EQ(v.HeapBytes(), 0u);
  EXPECT_EQ(values[0].AsInteger(), INT64_MIN);
  EXPECT_EQ(values[1].AsInteger(), INT64_MAX);
  EXPECT_EQ(values[2].AsDouble(), -0.5);
  EXPECT_EQ(values[3].AsDouble(), 1e300);
  EXPECT_TRUE(values[4].AsBoolean());
  EXPECT_EQ(values[5].Lexical(), "1969-12-31T00:00:00Z");
}

TEST(CompactValueTest, CopyMoveAndSelfAssignment) {
  for (const std::string& s : Strings()) {
    const AtomicValue original = AtomicValue::String(s);
    AtomicValue copy(original);
    EXPECT_EQ(copy.AsString(), s);
    if (original.HeapBytes() > 0) {
      // A copy owns its own block.
      EXPECT_NE(copy.AsString().data(), original.AsString().data());
    }
    AtomicValue assigned = AtomicValue::Integer(1);
    assigned = original;
    EXPECT_EQ(assigned.type(), AtomicType::kString);
    EXPECT_EQ(assigned.AsString(), s);
    assigned = AtomicValue::String(std::string(40, 'q'));  // frees, replaces
    EXPECT_EQ(assigned.AsString(), std::string(40, 'q'));

    AtomicValue moved(std::move(copy));
    EXPECT_EQ(moved.AsString(), s);
    // The moved-from value is still a valid (empty or unchanged) string.
    EXPECT_TRUE(copy.is_string());  // NOLINT(bugprone-use-after-move)
    copy = AtomicValue::Untyped(s);
    EXPECT_EQ(copy.AsString(), s);

    AtomicValue move_assigned = AtomicValue::String("short");
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.AsString(), s);

    AtomicValue self = original;
    const AtomicValue& alias = self;
    self = alias;
    EXPECT_EQ(self.AsString(), s);
    AtomicValue& self_ref = self;
    self = std::move(self_ref);
    EXPECT_EQ(self.AsString(), s);
  }
  // A copy of a number does not turn into a string.
  AtomicValue n = AtomicValue::Double(2.5);
  AtomicValue m = AtomicValue::String(std::string(30, 'w'));
  m = n;
  EXPECT_EQ(m.type(), AtomicType::kDouble);
  EXPECT_EQ(m.AsDouble(), 2.5);
  EXPECT_EQ(m.HeapBytes(), 0u);
}

TEST(CompactValueTest, CompareAcrossTheInlineLimit) {
  const size_t n = AtomicValue::kInlineCapacity;
  const std::string inline_max(n, 'm');
  const std::string heap_min = inline_max + "m";
  auto cmp = [](const std::string& a, const std::string& b) {
    return *AtomicValue::String(a).Compare(AtomicValue::Untyped(b));
  };
  EXPECT_LT(cmp(inline_max, heap_min), 0);
  EXPECT_GT(cmp(heap_min, inline_max), 0);
  EXPECT_EQ(cmp(heap_min, heap_min), 0);
  EXPECT_GT(cmp(std::string(n, 'n'), heap_min), 0);
  // Bytes compare unsigned and a NUL does not end the string.
  EXPECT_LT(cmp(std::string("a\0b", 3), std::string("a\0c", 3)), 0);
  EXPECT_GT(cmp("\xc3\xa9", "z"), 0);
  EXPECT_GT(cmp(std::string("ab\0", 3), "ab"), 0);
  for (const std::string& a : Strings()) {
    for (const std::string& b : Strings()) {
      const int expected = a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
      EXPECT_EQ(cmp(a, b), expected) << a.size() << " vs " << b.size();
      EXPECT_EQ(AtomicValue::String(a) == AtomicValue::String(b), a == b);
    }
  }
}

TEST(CompactValueTest, CastsAndLexicalAcrossTheInlineLimit) {
  // Fifteen digits are stored out of line, fourteen inline.
  auto fifteen = AtomicValue::String("123456789012345").CastTo(AtomicType::kInteger);
  ASSERT_TRUE(fifteen.ok());
  EXPECT_EQ(fifteen->AsInteger(), 123456789012345);
  auto fourteen = AtomicValue::Untyped("12345678901234").CastTo(AtomicType::kInteger);
  ASSERT_TRUE(fourteen.ok());
  EXPECT_EQ(fourteen->AsInteger(), 12345678901234);
  auto dbl = AtomicValue::String("0.1250000000000000").CastTo(AtomicType::kDouble);
  ASSERT_TRUE(dbl.ok());
  EXPECT_EQ(dbl->AsDouble(), 0.125);
  auto dt = AtomicValue::String("2006-09-12T00:00:00Z").CastTo(AtomicType::kDateTime);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->Lexical(), "2006-09-12T00:00:00Z");
  // A NUL ends the number, as it did when the cast read a C string.
  auto nul = AtomicValue::String(std::string("12\0x", 4)).CastTo(AtomicType::kInteger);
  ASSERT_TRUE(nul.ok());
  EXPECT_EQ(nul->AsInteger(), 12);
  EXPECT_FALSE(AtomicValue::String(std::string(20, '9') + "x")
                   .CastTo(AtomicType::kInteger)
                   .ok());
  // A string cast to a string type keeps every byte either way round.
  for (const std::string& s : Strings()) {
    auto untyped = AtomicValue::String(s).CastTo(AtomicType::kUntyped);
    ASSERT_TRUE(untyped.ok());
    EXPECT_EQ(untyped->AsString(), s);
    EXPECT_EQ(untyped->CastTo(AtomicType::kString)->AsString(), s);
  }
  // Lexical forms of long and short numbers and dateTimes.
  EXPECT_EQ(AtomicValue::Integer(-1234567890123456789).Lexical(),
            "-1234567890123456789");
  EXPECT_EQ(AtomicValue::Integer(INT64_MAX).CastTo(AtomicType::kString)->AsString(),
            "9223372036854775807");
  EXPECT_EQ(AtomicValue::DateTime(0).CastTo(AtomicType::kString)->HeapBytes(),
            20u);  // "1970-01-01T00:00:00Z"
}

// ----- Bytes held --------------------------------------------------------

// The two running-example databases at 1,000 customers: CUSTOMER, ORDER
// and CREDIT_CARD rows whose strings (CIDs, names, SSN-1001, CC-1) all
// fit inline. 352,560 bytes with 16-byte values (704,560 with the
// 48-byte variant layout they replaced); the bound leaves 10%.
TEST(CompactValueTest, RunningExampleDatabasesHoldTheMeasuredBytes) {
  constexpr int64_t kMeasured = 352560;
  const int64_t before = g_live_bytes.load();
  auto customers = examples::MakeCustomerDb(1000);
  auto billing = examples::MakeBillingDb(1000);
  const int64_t held = g_live_bytes.load() - before;
  EXPECT_LE(held * 10, kMeasured * 11) << held;
  EXPECT_GT(held, 0);
}

// ----- Shared values across threads --------------------------------------

// Cached plans share their literal values across concurrent executions:
// readers copy, compare and atomize one sequence of inline and
// out-of-line values (and a leaf) at once.
TEST(CompactValueTest, ConcurrentReadersOfASharedSequence) {
  Sequence shared;
  for (const std::string& s : Strings()) shared.emplace_back(AtomicValue::String(s));
  shared.emplace_back(AtomicValue::Integer(42));
  shared.emplace_back(AtomicValue::Double(0.5));
  shared.emplace_back(XNode::TypedElement(
      "NAME", AtomicValue::String("a value longer than fourteen bytes")));
  const Sequence expected = shared;
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        Sequence copy = shared;
        Sequence atoms = Atomize(shared);
        if (!SequenceDeepEquals(copy, expected)) ++mismatches[t];
        for (size_t i = 0; i < shared.size(); ++i) {
          const AtomicValue& mine = atoms[i].atomic();
          if (!mine.Equals(shared[i].Atomize())) ++mismatches[t];
          if (i > 0 && mine.is_string() && atoms[i - 1].atomic().is_string()) {
            auto c = mine.Compare(atoms[i - 1].atomic());
            if (!c.ok()) ++mismatches[t];
          }
        }
        AtomicValue moved = atoms.front().TakeAtomic();
        if (moved.AsString() != expected.front().atomic().AsString()) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_TRUE(SequenceDeepEquals(shared, expected));
}

}  // namespace
}  // namespace aldsp::xml
