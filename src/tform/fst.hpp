// TFORM: transducer-driven record parsing (paper Section 5.2.4, after
// Nourian et al.'s deterministic finite-state transducers [28]).
//
// A table-driven DFST walks input bytes and emits parsed records through a
// callback. The UpDown implementation decodes sub-byte symbols at several
// bytes per cycle; the cost model here charges kCyclesPerByte accordingly.
// The engine is resumable (Cursor) so a parse can stop at a block boundary
// and continue in the bytes of the next block — the cross-block record
// handling the paper calls out as impossible in cloud map-reduce.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace updown::tform {

/// Simulated parse cost: TFORM decodes ~4 input bytes per lane cycle.
constexpr double kCyclesPerByte = 0.25;

inline std::uint64_t parse_cost(std::uint64_t bytes) {
  return static_cast<std::uint64_t>(bytes * kCyclesPerByte) + 1;
}

class Fst {
 public:
  enum Action : std::uint8_t {
    kNone = 0,
    kAccumulate,  ///< fold a digit into the current field
    kEndField,    ///< finish the current field
    kEndRecord,   ///< finish field + record, invoke the callback
    kError,
  };

  struct Transition {
    std::uint16_t next = 0;
    Action action = kNone;
  };

  /// Numeric CSV records: decimal fields separated by ',', records
  /// terminated by '\n'; trailing spaces (padding) are skipped. Every field
  /// needs at least one digit and must fit in a Word.
  static Fst csv();

  /// Resumable parse state.
  struct Cursor {
    std::uint16_t state = 0;
    Word current = 0;
    std::vector<Word> fields;
    bool mid_record = false;  ///< bytes consumed since the last record end
  };

  using RecordFn = std::function<void(const std::vector<Word>& fields)>;

  /// Feed `bytes` through the transducer; `on_record` fires per completed
  /// record. Returns the number of bytes consumed (always all of them).
  /// Throws std::runtime_error naming the offset into `bytes` on a byte the
  /// table rejects and on a field whose value overflows a Word. An empty
  /// field is a rejected byte: a ',' or '\n' where a field must start with a
  /// digit.
  std::size_t run(std::span<const std::uint8_t> bytes, Cursor& cur, const RecordFn& on_record) const;

  /// Convenience: parse a whole buffer from a fresh cursor.
  std::vector<std::vector<Word>> parse_all(std::string_view text) const;

 private:
  Fst() = default;
  std::vector<std::array<Transition, 256>> table_;
};

}  // namespace updown::tform
