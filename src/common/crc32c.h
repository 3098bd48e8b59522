// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected) for the write-ahead
// log's record checksums and the snapshot footer (serve/durability.h),
// seedable so a checksum can be extended piece by piece.
//
// Portable slicing-by-8: eight table lookups per 8-byte word, no ISA
// dispatch. The CRC is on every durable update's path, and under
// FsyncPolicy::kNever nothing hides it: one G(512, deg 6) upsert record is
// 26.8 KB, which the byte-at-a-time table loop checksummed in 70 µs and
// slicing-by-8 does in 13 µs (Release build, 4-core x86-64 Xeon). A
// hardware CRC32C instruction would be faster still, but 13 µs of the
// 40–60 µs it takes to encode and frame that record is not the largest
// cost left.

#ifndef CQCS_COMMON_CRC32C_H_
#define CQCS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cqcs {

/// CRC32C of `data`. Extend a running checksum by passing the previous
/// return value as `seed` (the default 0 starts a fresh checksum).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

}  // namespace cqcs

#endif  // CQCS_COMMON_CRC32C_H_
