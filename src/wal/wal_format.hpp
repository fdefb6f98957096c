// On-disk encoding of the per-partition write-ahead log and snapshots.
//
// WAL record framing (little-endian, mirroring the proto codec's layout
// discipline — length-prefixed, checksummed, defensively decoded):
//
//   u32  payload length
//   u32  CRC-32 of the payload (common/crc32.hpp)
//   ...  payload: u8 record kind, then the kind's fields
//
// Kinds:
//   kVersion — one store::Version: the key as its *original string* (KeyIds
//              are per-process; a restarted process re-interns), value, sr,
//              ut, dependency vector, opt_origin flag. Replay re-inserts the
//              version and raises VV[sr] to ut.
//   kVv      — a full version vector (heartbeat-driven raises that no
//              version record implies). Replay merge-maxes.
//
// Snapshot file layout:
//
//   8 bytes  magic "POCCSNP1"
//   u32      body length
//   u32      CRC-32 of the body
//   body     vv, u64 version count, then each version (same field encoding
//            as a kVersion payload, sans the kind byte)
//
// Snapshots are streamed both ways through one kSnapshotChunkBytes buffer,
// so a checkpoint or a replay costs a constant amount of memory whatever the
// store's size. Writing: a sizing pass over the chains fixes the header's
// body length up front, the body goes out chunk by chunk while its CRC
// accumulates, and the caller patches the CRC into the header last.
// Reading: pass 1 checks magic, length, every field and the CRC without
// touching the key space; only an image that passes is decoded again and
// applied (pass 2), so a corrupt snapshot never reaches the store.
//
// Record scanning is prefix-exact: a torn or corrupted record ends the scan
// at the last fully valid record boundary — never a crash, never garbage
// handed to the caller (fuzzed by tests/wal_fuzz_test.cpp at every byte
// offset).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "store/partition_store.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::wal {

enum class RecordKind : std::uint8_t {
  kVersion = 1,
  kVv = 2,
};

/// One decoded WAL record. `version` is meaningful for kVersion, `vv` for
/// kVv.
struct Record {
  RecordKind kind = RecordKind::kVersion;
  store::Version version;
  VersionVector vv;
};

/// Append one framed kVersion record to `out`.
void append_version_record(std::vector<std::uint8_t>& out,
                           const store::Version& v);

/// Append one framed kVv record to `out`.
void append_vv_record(std::vector<std::uint8_t>& out, const VersionVector& vv);

struct ScanResult {
  std::uint64_t records = 0;    // valid records delivered to the callback
  std::size_t valid_bytes = 0;  // prefix length covered by those records
  bool torn = false;            // trailing bytes were not a valid record
};

/// Decode framed records from the front of [data, data+len) in order,
/// invoking `fn` for each valid one. Stops at the first record whose length
/// frame, CRC or payload does not check out; `valid_bytes` is the safe
/// truncation point.
ScanResult scan_records(const std::uint8_t* data, std::size_t len,
                        const std::function<void(const Record&)>& fn);

/// Snapshots stream to and from disk through one buffer of this size.
inline constexpr std::size_t kSnapshotChunkBytes = 256 * 1024;

/// Where the body CRC sits in the header (after magic and body length).
inline constexpr std::size_t kSnapshotCrcOffset = 12;

/// Takes the next chunk of a snapshot image; false aborts the stream.
using ChunkSink =
    std::function<bool(const std::uint8_t* data, std::size_t len)>;

/// Fills up to `len` bytes of `buf` with the next bytes of a snapshot image
/// and returns how many; 0 means end of input or a read error.
using ChunkSource =
    std::function<std::size_t(std::uint8_t* buf, std::size_t len)>;

/// Stream a consistent cut of one partition, the engine's VV plus every
/// version chain, into `sink` as one snapshot image whose header carries a
/// zero CRC placeholder. Returns the body CRC-32 for the caller to patch in
/// at kSnapshotCrcOffset, or nullopt when the sink failed or the body is
/// over the format's 4 GiB limit. Must run on the store's owner thread
/// (reads chains()).
std::optional<std::uint32_t> stream_snapshot(const store::PartitionStore& store,
                                             const VersionVector& vv,
                                             const ChunkSink& sink);

/// Replay pass 1: whether `src` yields a valid snapshot image of exactly
/// `image_len` bytes (magic, length, CRC and every field). Decodes nothing
/// into the key space.
bool validate_snapshot(const ChunkSource& src, std::uint64_t image_len);

/// Replay pass 2: decode an image validate_snapshot accepted, delivering
/// every version and then the VV. Returns the version count, or nullopt if
/// the image no longer checks out (some versions may have been delivered).
std::optional<std::uint64_t> apply_snapshot(
    const ChunkSource& src, std::uint64_t image_len,
    const std::function<void(const store::Version&)>& on_version,
    const std::function<void(const VersionVector&)>& on_vv);

}  // namespace pocc::wal
