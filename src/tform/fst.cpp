#include "tform/fst.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace updown::tform {

Fst Fst::csv() {
  // State 0: start of a field, a digit is required. State 1: inside the
  // field's digits. State 2: padding run (spaces) before a terminator. Empty
  // fields are the kError entries of state 0.
  Fst f;
  f.table_.resize(3);
  for (unsigned s = 0; s < 3; ++s)
    for (unsigned c = 0; c < 256; ++c) f.table_[s][c] = {0, kError};
  for (unsigned c = '0'; c <= '9'; ++c) {
    f.table_[0][c] = {1, kAccumulate};
    f.table_[1][c] = {1, kAccumulate};
  }
  f.table_[1][','] = {0, kEndField};
  f.table_[1]['\n'] = {0, kEndRecord};
  f.table_[1][' '] = {2, kNone};
  f.table_[2][' '] = {2, kNone};
  f.table_[2]['\n'] = {0, kEndRecord};
  f.table_[2][','] = {0, kEndField};
  return f;
}

namespace {
[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw std::runtime_error("tform: " + what + " at offset " + std::to_string(offset));
}
}  // namespace

std::size_t Fst::run(std::span<const std::uint8_t> bytes, Cursor& cur,
                     const RecordFn& on_record) const {
  constexpr Word kMax = std::numeric_limits<Word>::max();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const Transition t = table_[cur.state][bytes[i]];
    switch (t.action) {
      case kNone:
        break;
      case kAccumulate: {
        const Word d = bytes[i] - '0';
        if (cur.current > (kMax - d) / 10) fail("field overflows 64 bits", i);
        cur.current = cur.current * 10 + d;
        cur.mid_record = true;
        break;
      }
      case kEndField:
        cur.fields.push_back(cur.current);
        cur.current = 0;
        cur.mid_record = true;
        break;
      case kEndRecord:
        cur.fields.push_back(cur.current);
        cur.current = 0;
        on_record(cur.fields);
        cur.fields.clear();
        cur.mid_record = false;
        break;
      case kError:
        fail("unexpected byte " + std::to_string(bytes[i]), i);
    }
    cur.state = t.next;
  }
  return bytes.size();
}

std::vector<std::vector<Word>> Fst::parse_all(std::string_view text) const {
  std::vector<std::vector<Word>> records;
  Cursor cur;
  run({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}, cur,
      [&](const std::vector<Word>& fields) { records.push_back(fields); });
  return records;
}

}  // namespace updown::tform
