#include "src/service/messages.h"

#include <type_traits>

#include "src/common/wire.h"

namespace dpack {

namespace {

constexpr char kServiceMagic[4] = {'D', 'S', 'V', 'C'};

// Tags 1-8 belonged to the retired daemon-worker protocol; they decode as unknown types.
enum class MsgType : uint8_t {
  kShutdown = 9,
  kSubmit = 10,
  kSubmitReply = 11,
  kRunCycle = 12,
  kCycleReply = 13,
};

MsgType TypeOf(const ShutdownMsg&) { return MsgType::kShutdown; }
MsgType TypeOf(const SubmitMsg&) { return MsgType::kSubmit; }
MsgType TypeOf(const SubmitReplyMsg&) { return MsgType::kSubmitReply; }
MsgType TypeOf(const RunCycleMsg&) { return MsgType::kRunCycle; }
MsgType TypeOf(const CycleReplyMsg&) { return MsgType::kCycleReply; }

// Each body's one field list, walked by BinaryWriter (encode, const M) and BinaryReader
// (decode). A Submit entry's wire order differs from the snapshot's pending-task order.
template <class Io, class E>
bool EntryFields(Io& io, E& e) {
  return io.Field(e.id, "submit.id") && io.Field(e.weight, "submit.weight") &&
         io.Field(e.arrival_time, "submit.arrival_time") &&
         io.Field(e.timeout, "submit.timeout") &&
         io.Field(e.num_recent_blocks, "submit.num_recent_blocks") &&
         io.Field(e.demand, "submit.demand") && io.Field(e.blocks, "submit.blocks");
}

template <class Io, class M>
bool BodyFields(Io& io, M& m) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, ShutdownMsg>) {
    return true;
  } else if constexpr (std::is_same_v<T, SubmitMsg>) {
    return io.Field(m.seq, "submit.seq") && io.Field(m.now, "submit.now") &&
           io.Records(m.entries, 8 * 7, "submit.entries",
                      [&](auto& e) { return EntryFields(io, e); });
  } else if constexpr (std::is_same_v<T, SubmitReplyMsg>) {
    return io.Field(m.seq, "submit_reply.seq") && io.Field(m.accepted, "submit_reply.accepted") &&
           io.Field(m.rejected, "submit_reply.rejected");
  } else if constexpr (std::is_same_v<T, RunCycleMsg>) {
    return io.Field(m.seq, "run_cycle.seq") && io.Field(m.now, "run_cycle.now");
  } else {
    static_assert(std::is_same_v<T, CycleReplyMsg>);
    return io.Field(m.seq, "cycle_reply.seq") && io.Field(m.cycle, "cycle_reply.cycle") &&
           io.Field(m.granted, "cycle_reply.granted");
  }
}

template <typename Msg>
bool DecodeInto(BinaryReader& r, ServiceMessage* out) {
  Msg m;
  if (!BodyFields(r, m)) {
    return false;
  }
  *out = std::move(m);
  return true;
}

}  // namespace

std::string EncodeMessage(const ServiceMessage& message) {
  BinaryWriter w;
  w.Bytes(std::string_view(kServiceMagic, sizeof(kServiceMagic)));
  w.U32(kServiceWireVersion);
  std::visit(
      [&w](const auto& m) {
        w.U8(static_cast<uint8_t>(TypeOf(m)));
        BodyFields(w, m);
      },
      message);
  return std::move(w.data());
}

bool DecodeMessage(std::string_view bytes, ServiceMessage* out, std::string* error) {
  BinaryReader r(bytes);
  auto fail = [&](const std::string& message) {
    *error = message;
    return false;
  };
  std::string_view magic;
  if (!r.BytesView(sizeof(kServiceMagic), &magic, "message magic")) {
    return fail(r.error());
  }
  if (magic != std::string_view(kServiceMagic, sizeof(kServiceMagic))) {
    return fail("not a service message (bad magic)");
  }
  uint32_t version = 0;
  if (!r.U32(&version, "message version")) {
    return fail(r.error());
  }
  if (version != kServiceWireVersion) {
    return fail("unsupported service message version " + std::to_string(version));
  }
  uint8_t type = 0;
  if (!r.U8(&type, "message type")) {
    return fail(r.error());
  }
  bool ok = false;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kShutdown:
      ok = DecodeInto<ShutdownMsg>(r, out);
      break;
    case MsgType::kSubmit:
      ok = DecodeInto<SubmitMsg>(r, out);
      break;
    case MsgType::kSubmitReply:
      ok = DecodeInto<SubmitReplyMsg>(r, out);
      break;
    case MsgType::kRunCycle:
      ok = DecodeInto<RunCycleMsg>(r, out);
      break;
    case MsgType::kCycleReply:
      ok = DecodeInto<CycleReplyMsg>(r, out);
      break;
    default:
      return fail("unknown service message type " + std::to_string(type));
  }
  if (!ok) {
    return fail(r.error());
  }
  if (r.remaining() > 0) {
    return fail("trailing bytes after service message");
  }
  return true;
}

}  // namespace dpack
