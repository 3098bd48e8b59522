#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

namespace cqcs {

namespace {

// Reflected Castagnoli polynomial, the one hardware CRC32C instructions
// implement — the stored checksums stay comparable if an accelerated
// implementation ever replaces these tables.
constexpr uint32_t kPoly = 0x82F63B78u;

using Table = std::array<uint32_t, 256>;

// Slicing-by-8: kTables[0] is the classic byte table; kTables[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups advance
// the checksum by a whole 8-byte word.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

/// The little-endian 32-bit word at `p`, which need not be aligned.
uint32_t LoadLe32(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  }
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace cqcs
