// Unit tests for src/wire: buffer primitives, values, records, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "wire/atom.h"
#include "wire/buffer.h"
#include "wire/record.h"
#include "wire/registry.h"
#include "wire/value.h"

namespace {

// The largest single heap request made while g_track_requests is set, so
// a test can bound what a decoder reserves before it fails.
bool g_track_requests = false;
std::size_t g_largest_request = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_track_requests) g_largest_request = std::max(g_largest_request, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with the
// operator new at a call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tota::wire {
namespace {

TEST(BufferTest, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159);
  w.boolean(true);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(BufferTest, ReservePreSizesWithoutChangingOutput) {
  Writer plain;
  Writer reserved;
  reserved.reserve(4096);
  for (int i = 0; i < 100; ++i) {
    plain.uvarint(static_cast<std::uint64_t>(i));
    reserved.uvarint(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(plain.bytes().size(), reserved.bytes().size());
  EXPECT_TRUE(std::equal(plain.bytes().begin(), plain.bytes().end(),
                         reserved.bytes().begin()));
}

TEST(BufferTest, ReserveIsRelativeToCurrentSize) {
  // reserve(n) guarantees room for n *more* bytes: after writing k bytes,
  // a reserve(n) writer can append n bytes without reallocating.  Only
  // behaviour is asserted (capacity is unobservable through the API):
  // interleaved reserves must leave content identical.
  Writer w;
  w.u32(7);
  w.reserve(16);
  w.u64(9);
  Reader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 9u);
  EXPECT_TRUE(r.done());
}

TEST(BufferTest, UvarintRoundTrip) {
  const std::uint64_t cases[] = {0,    1,        127,    128,
                                 300,  16383,    16384,  1u << 20,
                                 1ull << 40, std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : cases) {
    Writer w;
    w.uvarint(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.uvarint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(BufferTest, SvarintRoundTrip) {
  const std::int64_t cases[] = {0,  -1, 1,  -64, 64, -10000, 10000,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const auto v : cases) {
    Writer w;
    w.svarint(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.svarint(), v) << v;
  }
}

TEST(BufferTest, SmallSvarintIsCompact) {
  Writer w;
  w.svarint(-2);
  EXPECT_EQ(w.size(), 1u);  // zig-zag keeps small negatives small
}

TEST(BufferTest, StringAndBlobRoundTrip) {
  Writer w;
  w.string("hello tota");
  w.string("");
  const Bytes blob{1, 2, 3, 250};
  w.blob(blob);

  Reader r(w.bytes());
  EXPECT_EQ(r.string(), "hello tota");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.blob(), blob);
}

TEST(BufferTest, TruncatedInputThrows) {
  Writer w;
  w.u32(12345);
  Bytes bytes = w.take();
  bytes.pop_back();
  Reader r(bytes);
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(BufferTest, TruncatedStringThrows) {
  Writer w;
  w.uvarint(100);  // claims 100 bytes follow
  Reader r(w.bytes());
  EXPECT_THROW(r.string(), DecodeError);
}

TEST(BufferTest, OverlongVarintThrows) {
  const Bytes bytes(11, 0xFF);  // 11 continuation bytes
  Reader r(bytes);
  EXPECT_THROW(r.uvarint(), DecodeError);
}

TEST(BufferTest, InvalidBooleanThrows) {
  const Bytes bytes{2};
  Reader r(bytes);
  EXPECT_THROW(r.boolean(), DecodeError);
}

TEST(BufferTest, ExpectDoneThrowsOnTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ValueTest, TypesAreReported) {
  EXPECT_EQ(Value{}.type(), ValueType::kNull);
  EXPECT_EQ(Value{std::int64_t{4}}.type(), ValueType::kInt);
  EXPECT_EQ(Value{2.5}.type(), ValueType::kDouble);
  EXPECT_EQ(Value{true}.type(), ValueType::kBool);
  EXPECT_EQ(Value{"s"}.type(), ValueType::kString);
  EXPECT_EQ(Value{NodeId{3}}.type(), ValueType::kNodeId);
  EXPECT_EQ((Value{Vec2{1, 2}}.type()), ValueType::kVec2);
  EXPECT_EQ((Value{std::vector<std::uint8_t>{1}}.type()), ValueType::kBlob);
}

TEST(ValueTest, RoundTripEveryType) {
  const Value values[] = {Value{},
                          Value{std::int64_t{-42}},
                          Value{6.28},
                          Value{false},
                          Value{"context"},
                          Value{NodeId{99}},
                          Value{Vec2{-1.5, 2.5}},
                          Value{std::vector<std::uint8_t>{9, 8, 7}}};
  for (const auto& v : values) {
    Writer w;
    v.encode(w);
    Reader r(w.bytes());
    const Value decoded = Value::decode(r);
    EXPECT_EQ(decoded, v) << v.str();
    EXPECT_TRUE(r.done());
  }
}

TEST(ValueTest, AsNumberCoversIntAndDouble) {
  EXPECT_DOUBLE_EQ((Value{std::int64_t{5}}.as_number()), 5.0);
  EXPECT_DOUBLE_EQ(Value{5.5}.as_number(), 5.5);
  EXPECT_THROW((void)Value{"x"}.as_number(), std::bad_variant_access);
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW((void)Value{1.0}.as_int(), std::bad_variant_access);
  EXPECT_THROW((void)Value{"s"}.as_node(), std::bad_variant_access);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  const Value a{std::int64_t{5}};
  const Value b{"abc"};
  EXPECT_TRUE(a.less(b) != b.less(a));  // antisymmetric
  EXPECT_FALSE(a.less(a));
}

TEST(ValueTest, OrderWithinType) {
  EXPECT_TRUE((Value{std::int64_t{1}} < Value{std::int64_t{2}}));
  EXPECT_TRUE((Value{"a"} < Value{"b"}));
  EXPECT_TRUE((Value{Vec2{1, 5}} < Value{Vec2{2, 0}}));
}

TEST(ValueTest, UnknownTagThrows) {
  const Bytes bytes{200};
  Reader r(bytes);
  EXPECT_THROW(Value::decode(r), DecodeError);
}

TEST(ValueTest, HashDiffersAcrossValues) {
  EXPECT_NE(Value{std::int64_t{1}}.hash(), Value{std::int64_t{2}}.hash());
  EXPECT_NE(Value{"a"}.hash(), Value{"b"}.hash());
  EXPECT_EQ(Value{"a"}.hash(), Value{"a"}.hash());
}

TEST(RecordTest, SetReplacesExisting) {
  Record r;
  r.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at("a").as_int(), 3);
}

TEST(RecordTest, FindAndHas) {
  Record r;
  r.set("x", "v");
  EXPECT_TRUE(r.has("x"));
  EXPECT_FALSE(r.has("y"));
  ASSERT_NE(r.find("x"), nullptr);
  EXPECT_EQ(r.find("x"), &r.at("x"));
  EXPECT_EQ(r.find("y"), nullptr);
  EXPECT_THROW(r.at("y"), std::out_of_range);
}

TEST(RecordTest, PreservesFieldOrder) {
  Record r;
  r.set("z", 1).set("a", 2);
  EXPECT_EQ(r.field(0).name.str(), "z");
  EXPECT_EQ(r.field(1).name.str(), "a");
}

TEST(RecordTest, RoundTrip) {
  Record r;
  r.set("name", "gradient")
      .set("source", NodeId{7})
      .set("hopcount", 3)
      .set("pos", Vec2{1, 2});
  Writer w;
  r.encode(w);
  Reader rd(w.bytes());
  const Record decoded = Record::decode(rd);
  EXPECT_EQ(decoded, r);
}

TEST(RecordTest, AbsurdFieldCountRejected) {
  Writer w;
  w.uvarint(1'000'000);
  Reader r(w.bytes());
  EXPECT_THROW(Record::decode(r), DecodeError);
}

TEST(RecordTest, HostileFieldCountReservesOnlyWhatTheBodyCanHold) {
  // 4096 fields claimed (the decoder's cap) in a 6-byte body: the count,
  // one field ("a" = 7), then nothing.
  Writer w;
  w.uvarint(4096);
  w.string("a");
  Value(7).encode(w);
  const Bytes body = w.take();
  ASSERT_EQ(body.size(), 6u);
  // Each field takes at least two bytes, so the 4 bytes after the count
  // hold at most 2 fields — that is all the decoder may reserve.
  const std::size_t bound = (body.size() - 2) / 2 * sizeof(Record::Field);
  Reader r(body);
  g_largest_request = 0;
  g_track_requests = true;
  bool threw = false;
  try {
    (void)Record::decode(r);
  } catch (const DecodeError&) {
    threw = true;
  }
  g_track_requests = false;
  EXPECT_TRUE(threw);
  EXPECT_GT(g_largest_request, 0u);
  EXPECT_LE(g_largest_request, bound);
}

TEST(RecordTest, StrMentionsFields) {
  Record r;
  r.set("k", 7);
  EXPECT_EQ(r.str(), "(k=7)");
}

TEST(RecordTest, EncodeIsByteIdenticalToTheStringKeyedFormat) {
  // Golden bytes of the format as it was before names were interned:
  // field count, then per field its name as a length-prefixed string and
  // its value.  Interning must not change a byte.
  Record r;
  r.set("name", "field")
      .set("hopcount", 3)
      .set("source", NodeId{9})
      .set("origin_pos", Vec2{1.5, -2.0})
      .set("payload", std::vector<std::uint8_t>{1, 2});
  const Bytes golden{
      0x05, 0x04, 0x6e, 0x61, 0x6d, 0x65, 0x04, 0x05, 0x66, 0x69, 0x65,
      0x6c, 0x64, 0x08, 0x68, 0x6f, 0x70, 0x63, 0x6f, 0x75, 0x6e, 0x74,
      0x01, 0x06, 0x06, 0x73, 0x6f, 0x75, 0x72, 0x63, 0x65, 0x05, 0x09,
      0x0a, 0x6f, 0x72, 0x69, 0x67, 0x69, 0x6e, 0x5f, 0x70, 0x6f, 0x73,
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x07, 0x70, 0x61, 0x79, 0x6c,
      0x6f, 0x61, 0x64, 0x07, 0x02, 0x01, 0x02};
  Writer w;
  r.encode(w);
  EXPECT_EQ(w.bytes(), golden);
  Reader rd(golden);
  EXPECT_EQ(Record::decode(rd), r);
}

TEST(AtomTest, EqualNamesShareOneAtom) {
  const Atom a("atom.test.same");
  const std::string copy = "atom.test.same";
  EXPECT_EQ(Atom(copy), a);
  EXPECT_EQ(a.str(), "atom.test.same");
  EXPECT_FALSE(Atom("atom.test.other") == a);
}

TEST(AtomTest, FindNeverInterns) {
  const std::size_t before = Atom::count();
  EXPECT_FALSE(Atom::find("atom.test.never-interned").has_value());
  EXPECT_EQ(Atom::count(), before);
  // Records look names up the same way: a miss adds nothing either.
  Record r;
  EXPECT_EQ(r.find("atom.test.never-interned"), nullptr);
  EXPECT_FALSE(r.has("atom.test.never-interned"));
  EXPECT_EQ(Atom::count(), before);
  const Atom added("atom.test.interned-now");
  EXPECT_EQ(Atom::count(), before + 1);
  EXPECT_EQ(Atom::find("atom.test.interned-now"), added);
}

TEST(AtomTest, HashIsTheNameStringHash) {
  // Record::hash mixes field-name hashes; keeping them the string hashes
  // keeps every hash the same as before interning.
  const std::string name = "atom.test.hash";
  EXPECT_EQ(Atom(name).hash(), std::hash<std::string>{}(name));
}

TEST(AtomTest, ConcurrentDecodesAgreeOnAtoms) {
  // Four threads decode records at once.  Each record carries names all
  // threads share and names only that thread uses, some of them new to
  // the table, so lookups race with insertions (run under TSan in CI).
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  const auto name = [](const std::string& scope, int i) {
    return "atom.race." + scope + "." + std::to_string(i);
  };
  std::vector<Bytes> bodies(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Writer w;
    w.uvarint(2 * kNames);
    for (int i = 0; i < kNames; ++i) {
      w.string(name("shared", i));
      Value(i).encode(w);
      w.string(name(std::to_string(t), i));
      Value(t).encode(w);
    }
    bodies[t] = w.take();
  }

  std::vector<Record> decoded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Reader r(bodies[t]);
      decoded[t] = Record::decode(r);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(decoded[t].size(), static_cast<std::size_t>(2 * kNames));
    for (int i = 0; i < kNames; ++i) {
      const Record::Field& shared = decoded[t].field(2 * i);
      const Record::Field& own = decoded[t].field(2 * i + 1);
      EXPECT_EQ(shared.name, decoded[0].field(2 * i).name);
      EXPECT_EQ(shared.name.str(), name("shared", i));
      EXPECT_EQ(own.name, Atom(name(std::to_string(t), i)));
      EXPECT_EQ(decoded[t].at(name("shared", i)).as_int(), i);
    }
  }
}

struct Animal {
  virtual ~Animal() = default;
  virtual int legs() const = 0;
};
struct Dog : Animal {
  int legs() const override { return 4; }
};
struct Bird : Animal {
  int legs() const override { return 2; }
};

TEST(RegistryTest, CreatesRegisteredTypes) {
  TypeRegistry<Animal> reg;
  reg.register_default<Dog>("dog");
  reg.register_default<Bird>("bird");
  EXPECT_TRUE(reg.knows("dog"));
  EXPECT_FALSE(reg.knows("cat"));
  EXPECT_EQ(reg.create("dog")->legs(), 4);
  EXPECT_EQ(reg.create("bird")->legs(), 2);
  EXPECT_THROW(reg.create("cat"), UnknownTypeError);
  EXPECT_EQ(reg.tags().size(), 2u);
}

TEST(RegistryTest, ReRegistrationReplaces) {
  TypeRegistry<Animal> reg;
  reg.register_default<Dog>("x");
  reg.register_default<Bird>("x");
  EXPECT_EQ(reg.create("x")->legs(), 2);
}

}  // namespace
}  // namespace tota::wire
