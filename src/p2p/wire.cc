#include "p2p/wire.h"

#include <algorithm>
#include <concepts>
#include <cstring>
#include <map>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/domain.h"

namespace hyperion {
namespace wire {

namespace {

// The wire widths message.h promises for int and size_t fields.
static_assert(sizeof(int) == 4 && sizeof(size_t) == 8);

// A visitor that accepts any field list; Described<T> asks whether T has
// one (message.h).
struct AnyFields {
  template <class... F>
  void operator()(F&&...) {}
};

template <class T>
concept Described = requires(T& m, AnyFields& v) { T::Fields(m, v); };

template <class T>
concept Container = requires(const T& c) {
  c.size();
  c.begin();
  c.end();
};

// What a std::set or std::map is read as, one element at a time.
template <class C>
struct ElementOf {
  using type = typename C::value_type;
};
template <class K, class T>
struct ElementOf<std::map<K, T>> {
  using type = std::pair<K, T>;
};

// ---- minimum encoded sizes -------------------------------------------------

// The fewest bytes any encoding of a T can take, at least 1 and never
// more than the true minimum: Reader::Count rejects an element count the
// remaining input could not hold, before anything is allocated.
template <class T>
size_t MinBytes();

struct MinSizer {
  size_t n = 0;
  template <class... F>
  void operator()(const F&...) {
    n += (MinBytes<F>() + ... + size_t{0});
  }
};

template <class T>
size_t MinBytes() {
  if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (requires { T::kMinBytes; }) {
    return T::kMinBytes;  // a message.h adaptor
  } else if constexpr (Described<T>) {
    static const size_t n = [] {
      T m{};
      MinSizer sizer;
      T::Fields(m, sizer);
      return sizer.n;
    }();
    return n;
  } else if constexpr (requires { typename T::first_type; }) {
    return MinBytes<typename T::first_type>() +
           MinBytes<typename T::second_type>();
  } else if constexpr (std::is_same_v<T, Value>) {
    return 5;  // tag + empty string
  } else if constexpr (std::is_same_v<T, Cell>) {
    return 1 + MinBytes<Value>();  // tag + constant
  } else if constexpr (std::is_same_v<T, Attribute>) {
    return 9;  // name + domain kind + domain name
  } else if constexpr (std::is_same_v<T, ValueFilter>) {
    return 1;  // pass_all
  } else {
    static_assert(Container<T> || std::is_same_v<T, Schema> ||
                  std::is_same_v<T, Mapping>);
    return 4;  // u32 count
  }
}

// ---- writing ---------------------------------------------------------------

// Where a Writer's bytes go: into a buffer that a counting pass sized,
// or nowhere (the counting pass itself, which is Message::ByteSize).
struct BufferSink {
  char* at;
  void Append(const void* bytes, size_t n) {
    std::memcpy(at, bytes, n);
    at += n;
  }
};

struct CountSink {
  size_t n = 0;
  void Append(const void*, size_t bytes) { n += bytes; }
};

template <class Sink>
class Writer {
 public:
  explicit Writer(Sink* sink) : sink_(sink) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

  template <std::integral T>
  void Put(T v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(u >> (8 * i));
    }
    sink_->Append(bytes, sizeof(T));
  }
  void Put(bool b) { Put(static_cast<uint8_t>(b)); }

  void Put(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    sink_->Append(s.data(), s.size());
  }

  template <Container C>
  void Put(const C& c) {
    Put(static_cast<uint32_t>(c.size()));
    for (const auto& e : c) Put(e);
  }

  template <class A, class B>
  void Put(const std::pair<A, B>& p) {
    Put(p.first);
    Put(p.second);
  }

  template <Described M>
  void Put(const M& m) {
    M::Fields(m, *this);
  }

  void Put(const Value& v) {
    if (v.is_string()) {
      Put(uint8_t{0});
      Put(v.AsString());
    } else {
      Put(uint8_t{1});
      Put(v.AsInt());
    }
  }

  // Domain::Kind's values are the wire's kind bytes.
  void Put(const Domain& d) {
    Put(static_cast<uint8_t>(d.kind()));
    Put(d.name());
    if (d.kind() == Domain::Kind::kEnumerated) Put(d.values());
  }

  void Put(const Attribute& a) {
    Put(a.name());
    Put(*a.domain());
  }
  void Put(const Schema& s) { Put(s.attrs()); }

  void Put(const Cell& c) {
    if (c.is_constant()) {
      Put(uint8_t{0});
      Put(c.value());
    } else {
      Put(uint8_t{1});
      Put(c.var());
      Put(c.exclusions());
    }
  }
  void Put(const Mapping& m) { Put(m.cells()); }

  // Bloom bits packed eight to a byte, low bit first.
  void Put(const ValueFilter& f) {
    Put(f.pass_all);
    if (f.pass_all) return;
    const std::vector<bool>& bits = f.bloom.bit_vector();
    Put(static_cast<uint32_t>(bits.size()));
    for (size_t i = 0; i < bits.size(); i += 8) {
      uint8_t byte = 0;
      for (size_t j = i; j < std::min(i + 8, bits.size()); ++j) {
        if (bits[j]) byte |= static_cast<uint8_t>(1u << (j - i));
      }
      Put(byte);
    }
  }

  template <class A, class B>
  void Put(const Interleaved<A, B>& f) {
    Put(static_cast<uint32_t>(f.a.size()));
    for (size_t i = 0; i < f.a.size(); ++i) {
      Put(f.a[i]);
      Put(i < f.b.size() ? f.b[i] : typename std::decay_t<B>::value_type{});
    }
  }

  template <class I, class R>
  void Put(const Parallel<I, R>& f) {
    Put(f.indices);
    Put(f.rows);
  }

  template <auto kMax, class E>
  void Put(const EnumAtMost<kMax, E>& f) {
    Put(static_cast<std::underlying_type_t<std::decay_t<E>>>(f.value));
  }

 private:
  Sink* sink_;
};

template <class Sink>
void Write(const Message& msg, Sink* sink) {
  Writer<Sink> w(sink);
  w(kWireVersion, static_cast<uint8_t>(msg.payload.index()), msg.from,
    msg.to);
  std::visit([&w](const auto& payload) { w.Put(payload); }, msg.payload);
}

// ---- reading ---------------------------------------------------------------

// Bounds-checked cursor over the input.  Every Get returns false on
// truncated or malformed input and keeps the first failure in status();
// callers stop at the first false.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  const Status& status() const { return status_; }

  template <class... F>
  bool operator()(F&&... fields) {
    return (Get(fields) && ...);
  }

  bool Fail(const char* what) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(std::string("wire: ") + what);
    }
    return false;
  }

  template <std::integral T>
  bool Get(T& v) {
    if (remaining() < sizeof(T)) return Fail("truncated input");
    std::make_unsigned_t<T> u = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<std::make_unsigned_t<T>>(
               static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    v = static_cast<T>(u);
    return true;
  }
  bool Get(bool& b) {
    uint8_t u = 0;
    if (!Get(u)) return false;
    b = u != 0;
    return true;
  }

  bool Get(std::string& s) {
    uint32_t n = 0;
    if (!Get(n)) return false;
    if (remaining() < n) return Fail("truncated input");
    s.assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  // Reads the u32 count of a sequence of `min_bytes`-or-larger elements,
  // rejecting counts the remaining input could not possibly hold.
  bool Count(size_t min_bytes, uint32_t& n) {
    if (!Get(n)) return false;
    if (uint64_t{n} * min_bytes > remaining()) {
      return Fail("declared count exceeds remaining bytes");
    }
    return true;
  }

  template <class T>
  bool Get(std::vector<T>& v) {
    uint32_t n = 0;
    if (!Count(MinBytes<T>(), n)) return false;
    v.clear();
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!Get(v.emplace_back())) return false;
    }
    return true;
  }

  // std::set and std::map; a repeated key keeps its first value.
  template <class C>
    requires requires { typename C::key_type; }
  bool Get(C& c) {
    using Elem = typename ElementOf<C>::type;
    uint32_t n = 0;
    if (!Count(MinBytes<Elem>(), n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      Elem e;
      if (!Get(e)) return false;
      c.insert(std::move(e));
    }
    return true;
  }

  template <class A, class B>
  bool Get(std::pair<A, B>& p) {
    return Get(p.first) && Get(p.second);
  }

  template <Described M>
  bool Get(M& m) {
    M::Fields(m, *this);
    return status_.ok();
  }

  bool Get(Value& v) {
    uint8_t tag = 0;
    if (!Get(tag)) return false;
    if (tag == 0) {
      std::string s;
      if (!Get(s)) return false;
      v = Value(std::move(s));
      return true;
    }
    if (tag == 1) {
      int64_t i = 0;
      if (!Get(i)) return false;
      v = Value(i);
      return true;
    }
    return Fail("unknown value tag");
  }

  bool Get(DomainPtr& d) {
    uint8_t kind = 0;
    std::string name;
    if (!Get(kind) || !Get(name)) return false;
    switch (static_cast<Domain::Kind>(kind)) {
      case Domain::Kind::kAllStrings:
        d = Domain::AllStrings(std::move(name));
        return true;
      case Domain::Kind::kAllInts:
        d = Domain::AllInts(std::move(name));
        return true;
      case Domain::Kind::kEnumerated: {
        std::vector<Value> values;
        if (!Get(values)) return false;
        if (values.empty()) return Fail("empty enumerated domain");
        for (const Value& v : values) {
          if (v.type() != values.front().type()) {
            return Fail("enumerated domain mixes value types");
          }
        }
        d = Domain::Enumerated(std::move(name), std::move(values));
        return true;
      }
    }
    return Fail("unknown domain kind");
  }

  // Not the vector Get, whose default Attribute would allocate a domain
  // only to replace it.
  bool Get(Schema& s) {
    uint32_t n = 0;
    if (!Count(MinBytes<Attribute>(), n)) return false;
    std::vector<Attribute> attrs;
    attrs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      std::string name;
      DomainPtr domain;
      if (!Get(name) || !Get(domain)) return false;
      attrs.emplace_back(std::move(name), std::move(domain));
    }
    s = Schema(std::move(attrs));
    return true;
  }

  // Not the vector Get: a Cell has no default constructor to read into.
  bool Get(Mapping& m) {
    uint32_t n = 0;
    if (!Count(MinBytes<Cell>(), n)) return false;
    std::vector<Cell> cells;
    cells.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t tag = 0;
      if (!Get(tag)) return false;
      if (tag == 0) {
        Value v;
        if (!Get(v)) return false;
        cells.push_back(Cell::Constant(std::move(v)));
      } else if (tag == 1) {
        VarId var = 0;
        std::set<Value> exclusions;
        if (!Get(var) || !Get(exclusions)) return false;
        cells.push_back(Cell::Variable(var, std::move(exclusions)));
      } else {
        return Fail("unknown cell tag");
      }
    }
    m = Mapping(std::move(cells));
    return true;
  }

  bool Get(ValueFilter& f) {
    if (!Get(f.pass_all)) return false;
    if (f.pass_all) return true;
    uint32_t nbits = 0;
    if (!Get(nbits)) return false;
    if (remaining() < (uint64_t{nbits} + 7) / 8) {
      return Fail("truncated bloom filter");
    }
    std::vector<bool> bits(nbits, false);
    for (uint32_t i = 0; i < nbits; ++i) {
      bits[i] = (static_cast<uint8_t>(data_[pos_ + i / 8]) >> (i % 8)) & 1;
    }
    pos_ += (uint64_t{nbits} + 7) / 8;
    f.bloom = BloomFilter::FromBits(std::move(bits));
    return true;
  }

  template <class A, class B>
  bool Get(Interleaved<A, B> f) {
    uint32_t n = 0;
    if (!Count(MinBytes<typename A::value_type>() +
                   MinBytes<typename B::value_type>(),
               n)) {
      return false;
    }
    f.a.reserve(n);
    f.b.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!Get(f.a.emplace_back()) || !Get(f.b.emplace_back())) return false;
    }
    return true;
  }

  template <class I, class R>
  bool Get(Parallel<I, R> f) {
    if (!Get(f.indices) || !Get(f.rows)) return false;
    if (f.indices.size() != f.rows.size()) {
      return Fail("index/row counts disagree");
    }
    return true;
  }

  template <auto kMax, class E>
  bool Get(EnumAtMost<kMax, E> f) {
    std::underlying_type_t<E> u = 0;
    if (!Get(u)) return false;
    if (u > static_cast<std::underlying_type_t<E>>(kMax)) {
      return Fail("enum value out of range");
    }
    f.value = static_cast<E>(u);
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

// Makes `payload` hold a default alternative number `tag`.
template <size_t... I>
bool EmplacePayload(uint8_t tag, decltype(Message::payload)& payload,
                    std::index_sequence<I...>) {
  return ((tag == I && (payload.emplace<I>(), true)) || ...);
}

}  // namespace

std::string EncodeMessage(const Message& msg) {
  std::string out(msg.ByteSize(), '\0');
  BufferSink sink{out.data()};
  Write(msg, &sink);
  return out;
}

Result<Message> DecodeMessage(std::string_view bytes) {
  Reader r(bytes);
  uint8_t version = 0;
  if (!r.Get(version)) return r.status();
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version " +
                                   std::to_string(version));
  }
  uint8_t tag = 0;
  Message msg;
  if (!r(tag, msg.from, msg.to)) return r.status();
  constexpr size_t kTags = std::variant_size_v<decltype(Message::payload)>;
  if (!EmplacePayload(tag, msg.payload, std::make_index_sequence<kTags>())) {
    return Status::InvalidArgument("wire: unknown payload tag " +
                                   std::to_string(tag));
  }
  if (!std::visit([&r](auto& payload) { return r.Get(payload); },
                  msg.payload)) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after payload");
  }
  return msg;
}

void AppendFrame(std::string_view payload, uint64_t origin_token,
                 std::string* out) {
  char header[kFrameHeaderBytes];
  BufferSink sink{header};
  Writer<BufferSink> w(&sink);
  w(static_cast<uint32_t>(payload.size()), origin_token);
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
}

Result<FrameView> PeekFrame(std::string_view buffer) {
  FrameView view;
  if (buffer.size() < kFrameHeaderBytes) return view;  // need more
  Reader r(buffer);
  uint32_t len = 0;
  uint64_t token = 0;
  if (!r(len, token)) return r.status();
  if (len > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("wire: frame payload of " +
                                   std::to_string(len) +
                                   " bytes exceeds the limit");
  }
  if (r.remaining() < len) return view;  // need more
  view.complete = true;
  view.origin_token = token;
  view.payload = buffer.substr(kFrameHeaderBytes, len);
  view.consumed = kFrameHeaderBytes + len;
  return view;
}

}  // namespace wire

size_t Message::ByteSize() const {
  wire::CountSink sink;
  wire::Write(*this, &sink);
  return sink.n;
}

}  // namespace hyperion
