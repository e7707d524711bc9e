#include "src/service/messages.h"

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

void EncodeBody(BinaryWriter&, const ShutdownMsg&) {}

void EncodeBody(BinaryWriter& w, const SubmitMsg& m) {
  w.U64(m.seq);
  w.F64(m.now);
  w.U64(m.entries.size());
  for (const auto& e : m.entries) {
    w.I64(e.id);
    w.F64(e.weight);
    w.F64(e.arrival_time);
    w.F64(e.timeout);
    w.U64(e.num_recent_blocks);
    w.F64Vec(e.demand);
    w.I64Vec(e.blocks);
  }
}

void EncodeBody(BinaryWriter& w, const SubmitReplyMsg& m) {
  w.U64(m.seq);
  w.U64(m.accepted);
  w.U64(m.rejected);
}

void EncodeBody(BinaryWriter& w, const RunCycleMsg& m) {
  w.U64(m.seq);
  w.F64(m.now);
}

void EncodeBody(BinaryWriter& w, const CycleReplyMsg& m) {
  w.U64(m.seq);
  w.U64(m.cycle);
  w.I64Vec(m.granted);
}

MsgType TypeOf(const ShutdownMsg&) { return MsgType::kShutdown; }
MsgType TypeOf(const SubmitMsg&) { return MsgType::kSubmit; }
MsgType TypeOf(const SubmitReplyMsg&) { return MsgType::kSubmitReply; }
MsgType TypeOf(const RunCycleMsg&) { return MsgType::kRunCycle; }
MsgType TypeOf(const CycleReplyMsg&) { return MsgType::kCycleReply; }

bool DecodeBody(BinaryReader&, ShutdownMsg*) { return true; }

bool DecodeBody(BinaryReader& r, SubmitMsg* m) {
  if (!r.U64(&m->seq, "submit.seq") || !r.F64(&m->now, "submit.now")) {
    return false;
  }
  uint64_t count = 0;
  if (!r.Count(&count, 8 * 7, "submit.entries")) {
    return false;
  }
  m->entries.resize(static_cast<size_t>(count));
  for (auto& e : m->entries) {
    if (!r.I64(&e.id, "submit.id") || !r.F64(&e.weight, "submit.weight") ||
        !r.F64(&e.arrival_time, "submit.arrival_time") ||
        !r.F64(&e.timeout, "submit.timeout") ||
        !r.U64(&e.num_recent_blocks, "submit.num_recent_blocks") ||
        !r.F64Vec(&e.demand, "submit.demand") || !r.I64Vec(&e.blocks, "submit.blocks")) {
      return false;
    }
  }
  return true;
}

bool DecodeBody(BinaryReader& r, SubmitReplyMsg* m) {
  return r.U64(&m->seq, "submit_reply.seq") && r.U64(&m->accepted, "submit_reply.accepted") &&
         r.U64(&m->rejected, "submit_reply.rejected");
}

bool DecodeBody(BinaryReader& r, RunCycleMsg* m) {
  return r.U64(&m->seq, "run_cycle.seq") && r.F64(&m->now, "run_cycle.now");
}

bool DecodeBody(BinaryReader& r, CycleReplyMsg* m) {
  return r.U64(&m->seq, "cycle_reply.seq") && r.U64(&m->cycle, "cycle_reply.cycle") &&
         r.I64Vec(&m->granted, "cycle_reply.granted");
}

template <typename Msg>
bool DecodeInto(BinaryReader& r, ServiceMessage* out) {
  Msg m;
  if (!DecodeBody(r, &m)) {
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
        EncodeBody(w, m);
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
