#include "ledger/block.h"

namespace mv::ledger {

Bytes BlockHeader::signing_bytes() const {
  ByteWriter w;
  w.i64(height);
  w.raw(prev_hash);
  w.raw(tx_root);
  w.raw(state_root);
  w.i64(timestamp);
  w.u64(proposer_pub.y);
  return w.take();
}

Bytes BlockHeader::encode() const {
  ByteWriter w;
  w.raw(signing_bytes());
  w.u64(proposer_sig.e);
  w.u64(proposer_sig.s);
  return w.take();
}

crypto::Digest BlockHeader::hash() const { return crypto::sha256(encode()); }

Result<BlockHeader> BlockHeader::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  BlockHeader header;
  header.height = r.i64();
  r.fixed(header.prev_hash);
  r.fixed(header.tx_root);
  r.fixed(header.state_root);
  header.timestamp = r.i64();
  header.proposer_pub.y = r.u64();
  header.proposer_sig.e = r.u64();
  header.proposer_sig.s = r.u64();
  return r.finish(header, "block.trailing_bytes", "unparsed trailing header data");
}

Bytes Block::encode() const {
  ByteWriter w;
  w.bytes(header.encode());
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const auto& tx : txs) w.bytes(tx.encode());
  return w.take();
}

Result<Block> Block::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Block block;
  block.header = r.take(BlockHeader::decode(r.nested()));
  // Every encoded tx costs at least its 4-byte length prefix.
  const std::size_t count = r.count(SIZE_MAX, 4, "block.bad_tx_count");
  block.txs.reserve(count);
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    block.txs.push_back(r.take(Transaction::decode(r.nested())));
  }
  return r.finish(std::move(block), "block.trailing_bytes", "unparsed trailing data");
}

crypto::Digest Block::compute_tx_root(const std::vector<Transaction>& txs) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.digest());
  return crypto::MerkleTree(std::move(leaves)).root();
}

crypto::MerkleTree Block::tx_tree() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.digest());
  return crypto::MerkleTree(std::move(leaves));
}

}  // namespace mv::ledger
