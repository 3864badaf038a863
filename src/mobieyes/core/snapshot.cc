#include "mobieyes/core/snapshot.h"

#include <string>
#include <utility>

#include "mobieyes/net/codec.h"

namespace mobieyes::core {

void Snapshot::Append(ObjectId from, const net::Message& message) {
  if (wal.size() >= wal_limit) {
    ++wal_dropped;
    return;
  }
  wal.push_back(WalRecord{from, message});
}

void Snapshot::Install(std::vector<uint8_t> image) {
  checkpoint = std::move(image);
  wal.clear();
  wal_dropped = 0;
}

std::vector<uint8_t> Snapshot::Serialize() const {
  std::vector<uint8_t> out;
  net::ByteWriter w(&out);
  w.U32(kMagic);
  w.U16(kVersion);
  w.U16(0);  // reserved
  w.U64(static_cast<uint64_t>(checkpoint.size()));
  w.Bytes(checkpoint);
  w.U64(static_cast<uint64_t>(wal_limit));
  w.U64(wal_dropped);
  w.U32(static_cast<uint32_t>(wal.size()));
  std::vector<uint8_t> body_scratch;
  std::vector<uint8_t> encoded;
  for (const WalRecord& record : wal) {
    net::MessageCodec::EncodeInto(record.message, &body_scratch, &encoded);
    w.I64(record.from);
    w.U32(record.message.seq);
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded);
  }
  return out;
}

Result<Snapshot> Snapshot::Parse(const std::vector<uint8_t>& buffer) {
  // The short-read modes get their own statuses: a zero-length or
  // header-truncated store file (a crash while the image was being written
  // out) would otherwise surface as a misleading "bad magic number" after
  // ByteReader's zero-filled reads.
  if (buffer.empty()) {
    return Status::InvalidArgument("snapshot: empty store file");
  }
  constexpr size_t kHeaderBytes = 4 + 2 + 2 + 8;  // magic,version,rsvd,size
  if (buffer.size() < kHeaderBytes) {
    return Status::InvalidArgument(
        "snapshot: store file truncated at header (" +
        std::to_string(buffer.size()) + " bytes)");
  }
  net::ByteReader r(buffer.data(), buffer.size());
  if (r.U32() != kMagic) {
    return Status::InvalidArgument("snapshot: bad magic number");
  }
  if (r.U16() != kVersion) {
    return Status::InvalidArgument("snapshot: unsupported version");
  }
  r.U16();  // reserved

  Snapshot snapshot;
  uint64_t image_size = r.U64();
  if (!r.ok() || image_size > r.remaining()) {
    return Status::InvalidArgument("snapshot: truncated checkpoint image");
  }
  size_t image_begin = buffer.size() - r.remaining();
  snapshot.checkpoint.assign(buffer.begin() + image_begin,
                             buffer.begin() + image_begin + image_size);
  r.Skip(static_cast<size_t>(image_size));

  snapshot.wal_limit = static_cast<size_t>(r.U64());
  snapshot.wal_dropped = r.U64();
  uint32_t records = r.U32();
  if (!r.ok()) {
    return Status::InvalidArgument("snapshot: truncated WAL header");
  }
  snapshot.wal.reserve(records);
  for (uint32_t k = 0; k < records; ++k) {
    WalRecord record;
    record.from = r.I64();
    uint32_t seq = r.U32();
    uint64_t encoded_size = r.U32();
    if (!r.ok() || encoded_size > r.remaining()) {
      return Status::InvalidArgument("snapshot: truncated WAL record");
    }
    size_t begin = buffer.size() - r.remaining();
    std::vector<uint8_t> encoded(buffer.begin() + begin,
                                 buffer.begin() + begin + encoded_size);
    r.Skip(static_cast<size_t>(encoded_size));
    auto message = net::MessageCodec::Decode(encoded);
    if (!message.ok()) {
      return Status::InvalidArgument("snapshot: corrupt WAL message: " +
                                     message.status().message());
    }
    record.message = std::move(message).value();
    record.message.seq = seq;  // the envelope seq is not part of the wire body
    snapshot.wal.push_back(std::move(record));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }
  return snapshot;
}

}  // namespace mobieyes::core
