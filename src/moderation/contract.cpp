#include "moderation/contract.h"

namespace mv::moderation {

namespace {

std::string report_key(std::uint64_t id) {
  return "report/" + std::to_string(id);
}

Bytes enc_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

/// Stored record: reporter || offender || kind || filed_height || status.
/// (The free-form detail string is hashed into the record key space only via
/// the transaction itself; the store keeps the adjudicable facts.)
Bytes encode_record(const ModerationContract::ReportView& v) {
  ByteWriter w;
  w.u64(v.reporter.value);
  w.u64(v.offender.value);
  w.u8(v.kind);
  w.i64(v.filed_height);
  w.u8(static_cast<std::uint8_t>(v.status));
  return w.take();
}

std::optional<ModerationContract::ReportView> decode_record(const Bytes& bytes) {
  ByteReader r(bytes);
  ModerationContract::ReportView v;
  v.reporter.value = r.u64();
  v.offender.value = r.u64();
  v.kind = r.u8();
  v.filed_height = r.i64();
  const std::uint8_t status = r.u8();
  if (!r.ok() || status > 2) return std::nullopt;
  v.status = static_cast<ReportStatus>(status);
  return v;
}

}  // namespace

Status ModerationContract::call(ledger::CallContext& ctx,
                                const std::string& method,
                                const Bytes& args) const {
  if (method == "report") return do_report(ctx, args);
  if (method == "resolve") return do_resolve(ctx, args);
  return Status::fail(errc::kModUnknownMethod, method);
}

Status ModerationContract::do_report(ledger::CallContext& ctx,
                                     const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t offender = r.u64();
  const std::uint8_t kind = r.u8();
  (void)r.nested();  // detail: checked for framing, not stored
  if (!r.ok() || offender == 0 || kind > config_.max_kind) {
    return Status::fail(errc::kModBadArgs,
                        "report(offender: address, kind: u8, detail: str)");
  }
  if (offender == ctx.caller().value) {
    return Status::fail(errc::kModSelfReport, "cannot report yourself");
  }
  const std::uint64_t id = leading_u64(ctx.get("next_id"));
  ctx.put("next_id", enc_u64(id + 1));
  ReportView v;
  v.reporter = ctx.caller();
  v.offender = crypto::Address{offender};
  v.kind = kind;
  v.filed_height = ctx.height();
  v.status = ReportStatus::kOpen;
  ctx.put(report_key(id), encode_record(v));
  ctx.put("open_count", enc_u64(leading_u64(ctx.get("open_count")) + 1));
  return {};
}

Status ModerationContract::do_resolve(ledger::CallContext& ctx,
                                      const Bytes& args) const {
  if (ctx.caller() != config_.moderator) {
    return Status::fail(errc::kModNotModerator,
                        "resolve is restricted to the moderator identity");
  }
  ByteReader r(args);
  const std::uint64_t id = r.u64();
  const std::uint8_t uphold = r.u8();
  if (!r.ok() || uphold > 1) {
    return Status::fail(errc::kModBadArgs, "resolve(id: u64, uphold: 0|1)");
  }
  const Bytes* record = ctx.get(report_key(id));
  if (record == nullptr) {
    return Status::fail(errc::kModNoSuchReport, "unknown report");
  }
  auto view = decode_record(*record);
  if (!view.has_value() || view->status != ReportStatus::kOpen) {
    return Status::fail(errc::kModAlreadyResolved, "report closed");
  }
  view->status = uphold != 0 ? ReportStatus::kUpheld : ReportStatus::kDismissed;
  ctx.put(report_key(id), encode_record(*view));
  ctx.put("open_count", enc_u64(leading_u64(ctx.get("open_count")) - 1));
  if (uphold != 0) {
    ctx.put("upheld_count", enc_u64(leading_u64(ctx.get("upheld_count")) + 1));
  }
  return {};
}

std::uint64_t ModerationContract::report_count(const ledger::LedgerState& state,
                                               const std::string& contract) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find("next_id");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

std::uint64_t ModerationContract::open_count(const ledger::LedgerState& state,
                                             const std::string& contract) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find("open_count");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

std::uint64_t ModerationContract::upheld_count(const ledger::LedgerState& state,
                                               const std::string& contract) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find("upheld_count");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

Result<ModerationContract::ReportView> ModerationContract::report(
    const ledger::LedgerState& state, const std::string& contract,
    std::uint64_t id) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return make_error(errc::kModNoSuchReport, "no contract state");
  const auto it = store->find(report_key(id));
  if (it == store->end()) return make_error(errc::kModNoSuchReport, "unknown report");
  auto view = decode_record(it->second);
  if (!view.has_value()) return make_error(errc::kModBadArgs, "corrupt record");
  return *view;
}

Bytes ModerationContract::encode_report(crypto::Address offender,
                                        std::uint8_t kind,
                                        const std::string& detail) {
  ByteWriter w;
  w.u64(offender.value);
  w.u8(kind);
  w.str(detail);
  return w.take();
}

Bytes ModerationContract::encode_resolve(std::uint64_t id, bool uphold) {
  ByteWriter w;
  w.u64(id);
  w.u8(uphold ? 1 : 0);
  return w.take();
}

}  // namespace mv::moderation
