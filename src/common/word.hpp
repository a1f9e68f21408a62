// 48-bit machine word of the reMORPH-style tile.
//
// The fabric operates on 48-bit words (the paper: "supports these operations
// on a 48 bit word").  We store a word in the low 48 bits of a uint64_t and
// provide wrapping arithmetic plus signed interpretation helpers.
#pragma once

#include <cstdint>
#include <string>

namespace cgra {

/// Number of payload bits in a fabric word.
inline constexpr int kWordBits = 48;
/// Mask selecting the 48 payload bits.
inline constexpr std::uint64_t kWordMask = (std::uint64_t{1} << kWordBits) - 1;

/// A 48-bit fabric word stored in the low bits of a uint64_t.
using Word = std::uint64_t;

/// Truncate an arbitrary 64-bit value to a 48-bit word (two's complement wrap).
constexpr Word truncate_word(std::uint64_t v) noexcept { return v & kWordMask; }

/// Interpret a 48-bit word as a signed value (sign-extend bit 47).
constexpr std::int64_t to_signed(Word w) noexcept {
  const std::uint64_t sign_bit = std::uint64_t{1} << (kWordBits - 1);
  const std::uint64_t payload = w & kWordMask;
  return (payload & sign_bit) != 0
             ? static_cast<std::int64_t>(payload | ~kWordMask)
             : static_cast<std::int64_t>(payload);
}

/// Encode a signed 64-bit value into a 48-bit word (two's complement wrap).
constexpr Word from_signed(std::int64_t v) noexcept {
  return truncate_word(static_cast<std::uint64_t>(v));
}

/// Wrapping 48-bit addition.
constexpr Word word_add(Word a, Word b) noexcept { return truncate_word(a + b); }
/// Wrapping 48-bit subtraction.
constexpr Word word_sub(Word a, Word b) noexcept { return truncate_word(a - b); }
/// Wrapping 48-bit multiplication (low 48 bits of the product).  The low
/// bits of a two's-complement product do not depend on the operands'
/// signs, so the unsigned product (which wraps, never overflows) is exact.
constexpr Word word_mul(Word a, Word b) noexcept {
  return truncate_word(a * b);
}

/// The DSP-macro accumulator step: acc + to_signed(a) * to_signed(b),
/// wrapping modulo 2^64.  Two 48-bit operands give a product of up to 94
/// bits, so this is computed in unsigned arithmetic, where wrap is defined.
constexpr std::int64_t acc_mac(std::int64_t acc, Word a, Word b) noexcept {
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(acc) +
      static_cast<std::uint64_t>(to_signed(a)) *
          static_cast<std::uint64_t>(to_signed(b)));
}

/// Hex rendering ("0x0123456789ab") used by the disassembler and dumps.
std::string word_to_hex(Word w);

}  // namespace cgra
