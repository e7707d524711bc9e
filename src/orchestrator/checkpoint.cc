#include "src/orchestrator/checkpoint.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/wire.h"

namespace dpack {

namespace {

// BinaryWriter/BinaryReader/Fnv1a64/double-bit helpers live in src/common/wire.h now —
// the same encode discipline backs the service message framing (src/service/messages.h).

constexpr char kBinaryMagic[8] = {'D', 'P', 'C', 'K', 'S', 'N', 'A', 'P'};
constexpr char kJsonFormatTag[] = "dpack-snapshot";

// --- Minimal strict JSON model -------------------------------------------------------------
//
// The snapshot's JSON encoding only needs objects, arrays, unsigned/negative integers,
// booleans, and plain strings (doubles travel as 64-bit patterns in decimal), so the parser
// covers exactly that subset: no floats, no null, no escapes — anything else is rejected.

struct JsonValue {
  enum class Kind { kObject, kArray, kNumber, kBool, kString };
  Kind kind = Kind::kNumber;
  bool negative = false;
  uint64_t magnitude = 0;
  bool boolean = false;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after the top-level value");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 24;

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      std::ostringstream os;
      os << "JSON parse error at byte " << pos_ << ": " << message;
      error_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out, depth);
    }
    if (c == '[') {
      return ParseArray(out, depth);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->text);
    }
    if (c == 't' || c == 'f') {
      return ParseBool(out);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber(out);
    }
    return Fail("unexpected character");
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        return Fail("unsupported character in string");
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseBool(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return Fail("expected 'true' or 'false'");
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::Kind::kNumber;
    if (text_[pos_] == '-') {
      out->negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("expected digits");
    }
    uint64_t magnitude = 0;
    size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      uint64_t digit = static_cast<uint64_t>(text_[pos_] - '0');
      if (magnitude > (UINT64_MAX - digit) / 10) {
        return Fail("integer overflow");
      }
      magnitude = magnitude * 10 + digit;
      ++pos_;
      ++digits;
    }
    if (digits > 1 && text_[pos_ - digits] == '0') {
      return Fail("leading zero");
    }
    out->magnitude = magnitude;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

// --- JSON field extraction (strict: every key required, no unknown keys) -------------------

const JsonValue* FindMember(const JsonValue& obj, std::string_view key) {
  for (const auto& [name, value] : obj.members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

bool ExpectObject(const JsonValue& v, const char* what, std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = std::string(what) + ": expected an object";
    return false;
  }
  return true;
}

// Rejects duplicate and unknown keys; missing keys are caught by the Get* lookups.
bool CheckOnlyKeys(const JsonValue& obj, std::initializer_list<std::string_view> keys,
                   const char* what, std::string* error) {
  for (size_t i = 0; i < obj.members.size(); ++i) {
    const std::string& name = obj.members[i].first;
    bool known = false;
    for (std::string_view key : keys) {
      if (name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      *error = std::string(what) + ": unknown key \"" + name + "\"";
      return false;
    }
    for (size_t j = i + 1; j < obj.members.size(); ++j) {
      if (obj.members[j].first == name) {
        *error = std::string(what) + ": duplicate key \"" + name + "\"";
        return false;
      }
    }
  }
  return true;
}

bool GetU64(const JsonValue& obj, const char* key, uint64_t* out, std::string* error) {
  const JsonValue* v = FindMember(obj, key);
  if (v == nullptr) {
    *error = std::string("missing key \"") + key + "\"";
    return false;
  }
  if (v->kind != JsonValue::Kind::kNumber || v->negative) {
    *error = std::string("key \"") + key + "\": expected an unsigned integer";
    return false;
  }
  *out = v->magnitude;
  return true;
}

bool GetI64(const JsonValue& obj, const char* key, int64_t* out, std::string* error) {
  const JsonValue* v = FindMember(obj, key);
  if (v == nullptr) {
    *error = std::string("missing key \"") + key + "\"";
    return false;
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    *error = std::string("key \"") + key + "\": expected an integer";
    return false;
  }
  if (v->negative) {
    if (v->magnitude > 9223372036854775808ULL) {
      *error = std::string("key \"") + key + "\": integer out of range";
      return false;
    }
    *out = v->magnitude == 9223372036854775808ULL
               ? INT64_MIN
               : -static_cast<int64_t>(v->magnitude);
  } else {
    if (v->magnitude > static_cast<uint64_t>(INT64_MAX)) {
      *error = std::string("key \"") + key + "\": integer out of range";
      return false;
    }
    *out = static_cast<int64_t>(v->magnitude);
  }
  return true;
}

// Doubles are stored as their IEEE-754 bit pattern in an unsigned decimal.
bool GetF64(const JsonValue& obj, const char* key, double* out, std::string* error) {
  uint64_t bits;
  if (!GetU64(obj, key, &bits, error)) {
    return false;
  }
  *out = DoubleOfBits(bits);
  return true;
}

bool GetBool(const JsonValue& obj, const char* key, bool* out, std::string* error) {
  const JsonValue* v = FindMember(obj, key);
  if (v == nullptr) {
    *error = std::string("missing key \"") + key + "\"";
    return false;
  }
  if (v->kind != JsonValue::Kind::kBool) {
    *error = std::string("key \"") + key + "\": expected a boolean";
    return false;
  }
  *out = v->boolean;
  return true;
}

bool GetArray(const JsonValue& obj, const char* key, const JsonValue** out,
              std::string* error) {
  const JsonValue* v = FindMember(obj, key);
  if (v == nullptr) {
    *error = std::string("missing key \"") + key + "\"";
    return false;
  }
  if (v->kind != JsonValue::Kind::kArray) {
    *error = std::string("key \"") + key + "\": expected an array";
    return false;
  }
  *out = v;
  return true;
}

bool GetF64Array(const JsonValue& obj, const char* key, std::vector<double>* out,
                 std::string* error) {
  const JsonValue* array;
  if (!GetArray(obj, key, &array, error)) {
    return false;
  }
  out->clear();
  out->reserve(array->items.size());
  for (const JsonValue& item : array->items) {
    if (item.kind != JsonValue::Kind::kNumber || item.negative) {
      *error = std::string("key \"") + key + "\": expected unsigned bit patterns";
      return false;
    }
    out->push_back(DoubleOfBits(item.magnitude));
  }
  return true;
}

bool GetI64Array(const JsonValue& obj, const char* key, std::vector<int64_t>* out,
                 std::string* error) {
  const JsonValue* array;
  if (!GetArray(obj, key, &array, error)) {
    return false;
  }
  out->clear();
  out->reserve(array->items.size());
  for (const JsonValue& item : array->items) {
    if (item.kind != JsonValue::Kind::kNumber ||
        (!item.negative && item.magnitude > static_cast<uint64_t>(INT64_MAX)) ||
        (item.negative && item.magnitude > 9223372036854775808ULL)) {
      *error = std::string("key \"") + key + "\": expected integers";
      return false;
    }
    int64_t value = item.negative ? (item.magnitude == 9223372036854775808ULL
                                         ? INT64_MIN
                                         : -static_cast<int64_t>(item.magnitude))
                                  : static_cast<int64_t>(item.magnitude);
    out->push_back(value);
  }
  return true;
}

// --- JSON writer ---------------------------------------------------------------------------

void AppendF64(std::string& out, double v) { out += std::to_string(BitsOfDouble(v)); }

void AppendF64Array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendF64(out, values[i]);
  }
  out += ']';
}

void AppendI64Array(std::string& out, const std::vector<int64_t>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  out += ']';
}

bool NotNan(double v) { return !std::isnan(v); }
bool FiniteValue(double v) { return std::isfinite(v); }

}  // namespace

// --- Capture -------------------------------------------------------------------------------

ClusterSnapshot CaptureSnapshot(const BlockManager& blocks, std::span<const Task> pending,
                                const AllocationMetrics& metrics, const SnapshotMeta& meta) {
  DPACK_CHECK(meta.num_shards >= 1);
  ClusterSnapshot snapshot;
  snapshot.meta = meta;
  snapshot.grid_orders = blocks.grid()->orders();
  snapshot.eps_g = blocks.eps_g();
  snapshot.delta_g = blocks.delta_g();
  snapshot.manager_epoch = blocks.epoch();

  snapshot.blocks.reserve(blocks.block_count());
  snapshot.shard_clocks.assign(static_cast<size_t>(meta.num_shards), SnapshotShardClock{});
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    SnapshotBlockState state;
    state.id = block.id();
    state.arrival_time = block.arrival_time();
    state.unlocked_fraction = block.unlocked_fraction();
    state.version = block.version();
    BlockPlacement placement = blocks.placement_of(static_cast<BlockId>(j));
    state.retired = placement.retired;
    state.slot = placement.slot;
    state.capacity = block.capacity().epsilons();
    state.consumed = block.consumed().epsilons();
    snapshot.blocks.push_back(std::move(state));
    // Derived per-shard clocks under the round-robin partition: what a freshly Sync()ed
    // ShardedBlockManager over this manager would report.
    SnapshotShardClock& clock = snapshot.shard_clocks[j % snapshot.shard_clocks.size()];
    clock.epoch += 1;
    clock.version += block.version();
  }

  snapshot.pending.reserve(pending.size());
  for (const Task& task : pending) {
    SnapshotTaskState state;
    state.id = task.id;
    state.weight = task.weight;
    state.arrival_time = task.arrival_time;
    state.timeout = task.timeout;
    state.demand = task.demand.epsilons();
    state.blocks = task.blocks;
    state.num_recent_blocks = task.num_recent_blocks;
    snapshot.pending.push_back(std::move(state));
  }

  SnapshotMetricsState& m = snapshot.metrics;
  m.submitted = metrics.submitted();
  m.allocated = metrics.allocated();
  m.evicted = metrics.evicted();
  m.submitted_weight = metrics.submitted_weight();
  m.allocated_weight = metrics.allocated_weight();
  m.submitted_fair_share = metrics.submitted_fair_share();
  m.allocated_fair_share = metrics.allocated_fair_share();
  m.delay_samples = metrics.delays().samples();
  m.cycle_runtime = metrics.cycle_runtime_seconds().state();
  return snapshot;
}

// --- Validation ----------------------------------------------------------------------------

std::string ValidateSnapshot(const ClusterSnapshot& snapshot) {
  const SnapshotMeta& meta = snapshot.meta;
  if (!FiniteValue(meta.period) || meta.period <= 0.0) {
    return "meta.period must be positive and finite";
  }
  if (meta.unlock_steps < 1) {
    return "meta.unlock_steps must be >= 1";
  }
  if (meta.fair_share_n < 0) {
    return "meta.fair_share_n must be >= 0";
  }
  if (meta.num_shards < 1) {
    return "meta.num_shards must be >= 1";
  }
  if (!FiniteValue(meta.checkpoint_time) || !FiniteValue(meta.next_cycle_time) ||
      meta.next_cycle_time < meta.checkpoint_time) {
    return "meta checkpoint/next-cycle times inconsistent";
  }
  if (snapshot.grid_orders.empty()) {
    return "grid_orders must be non-empty";
  }
  for (size_t i = 0; i < snapshot.grid_orders.size(); ++i) {
    double order = snapshot.grid_orders[i];
    if (!FiniteValue(order) || order <= 1.0 ||
        (i > 0 && order <= snapshot.grid_orders[i - 1])) {
      return "grid_orders must be finite, > 1, and strictly increasing";
    }
  }
  if (!FiniteValue(snapshot.eps_g) || !FiniteValue(snapshot.delta_g) || snapshot.eps_g <= 0.0 ||
      snapshot.delta_g <= 0.0 || snapshot.delta_g >= 1.0) {
    return "global guarantee (eps_g, delta_g) out of range";
  }
  if (snapshot.manager_epoch != snapshot.blocks.size()) {
    return "manager_epoch must equal the block count";
  }

  size_t orders = snapshot.grid_orders.size();
  std::vector<bool> hot_slot_seen;
  std::vector<bool> retired_slot_seen;
  size_t hot_total = 0;
  size_t retired_total = 0;
  for (const SnapshotBlockState& block : snapshot.blocks) {
    (block.retired ? retired_total : hot_total) += 1;
  }
  hot_slot_seen.assign(hot_total, false);
  retired_slot_seen.assign(retired_total, false);
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    const SnapshotBlockState& block = snapshot.blocks[j];
    if (block.id != static_cast<BlockId>(j)) {
      return "block ids must be dense and ordered";
    }
    if (!FiniteValue(block.arrival_time) || block.arrival_time < 0.0) {
      return "block arrival_time out of range";
    }
    if (!FiniteValue(block.unlocked_fraction) || block.unlocked_fraction < 0.0 ||
        block.unlocked_fraction > 1.0) {
      return "block unlocked_fraction out of [0, 1]";
    }
    if (block.capacity.size() != orders || block.consumed.size() != orders) {
      return "block curve sizes must match the grid";
    }
    for (size_t a = 0; a < orders; ++a) {
      if (!NotNan(block.capacity[a]) || block.capacity[a] < 0.0 ||
          !NotNan(block.consumed[a]) || block.consumed[a] < 0.0) {
        return "block curves must be non-negative and not NaN";
      }
    }
    // Each tier's slots must form a dense permutation (the slab layout Restore rebuilds).
    std::vector<bool>& seen = block.retired ? retired_slot_seen : hot_slot_seen;
    if (block.slot >= seen.size()) {
      return "block slot out of range for its tier";
    }
    if (seen[static_cast<size_t>(block.slot)]) {
      return "duplicate block slot within a tier";
    }
    seen[static_cast<size_t>(block.slot)] = true;
    if (block.retired) {
      // Retirement requires provable immutability: the full budget unlocked and every
      // usable order consumed to within the admission slack (PrivacyBlock::Exhausted).
      if (block.unlocked_fraction != 1.0) {
        return "retired block must be fully unlocked";
      }
      for (size_t a = 0; a < orders; ++a) {
        double cap = block.capacity[a];
        if (cap <= 0.0) {
          continue;
        }
        if (block.consumed[a] + 1e-9 * (1.0 + cap) < cap) {
          return "retired block must be exhausted";
        }
      }
    }
  }

  if (snapshot.shard_clocks.size() != static_cast<size_t>(meta.num_shards)) {
    return "shard_clocks must have num_shards entries";
  }
  std::vector<SnapshotShardClock> derived(snapshot.shard_clocks.size());
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    derived[j % derived.size()].epoch += 1;
    derived[j % derived.size()].version += snapshot.blocks[j].version;
  }
  for (size_t s = 0; s < derived.size(); ++s) {
    if (derived[s].epoch != snapshot.shard_clocks[s].epoch ||
        derived[s].version != snapshot.shard_clocks[s].version) {
      return "shard clocks inconsistent with block states";
    }
  }

  for (const SnapshotTaskState& task : snapshot.pending) {
    if (!FiniteValue(task.weight) || task.weight <= 0.0) {
      return "pending task weight out of range";
    }
    if (!FiniteValue(task.arrival_time) || task.arrival_time < 0.0 ||
        task.arrival_time > meta.checkpoint_time) {
      return "pending task arrival_time out of range";
    }
    if (std::isnan(task.timeout) || task.timeout < 0.0) {
      return "pending task timeout out of range";
    }
    if (task.demand.size() != orders) {
      return "pending task demand size must match the grid";
    }
    for (double eps : task.demand) {
      if (!NotNan(eps) || eps < 0.0) {
        return "pending task demand must be non-negative and not NaN";
      }
    }
    for (BlockId id : task.blocks) {
      if (id < 0 || static_cast<size_t>(id) >= snapshot.blocks.size()) {
        return "pending task references an unknown block";
      }
    }
  }

  const SnapshotMetricsState& m = snapshot.metrics;
  if (m.allocated > m.submitted || m.evicted > m.submitted - m.allocated) {
    return "metrics counts inconsistent";
  }
  if (m.submitted - m.allocated - m.evicted != snapshot.pending.size()) {
    return "metrics counts inconsistent with the pending queue";
  }
  if (m.submitted_fair_share > m.submitted || m.allocated_fair_share > m.allocated) {
    return "metrics fair-share counts inconsistent";
  }
  if (!FiniteValue(m.submitted_weight) || !FiniteValue(m.allocated_weight) ||
      m.submitted_weight < 0.0 || m.allocated_weight < 0.0) {
    return "metrics weights out of range";
  }
  if (m.delay_samples.size() != m.allocated) {
    return "metrics delay sample count must equal allocated";
  }
  for (double delay : m.delay_samples) {
    if (!FiniteValue(delay) || delay < 0.0) {
      return "metrics delay sample out of range";
    }
  }
  const RunningStat::State& rt = m.cycle_runtime;
  if (std::isnan(rt.mean) || std::isnan(rt.m2) || std::isnan(rt.min) || std::isnan(rt.max) ||
      std::isnan(rt.sum) || rt.m2 < 0.0 || (rt.count > 0 && rt.min > rt.max)) {
    return "metrics cycle-runtime accumulator inconsistent";
  }
  return "";
}

// --- Binary codec --------------------------------------------------------------------------

namespace {

// The canonical payload bytes both wire formats hash: the binary codec frames them
// directly; the JSON codec re-derives them from the parsed fields to verify its own
// checksum, so field tampering in either encoding is caught even though JSON carries no
// raw byte stream.
std::string EncodePayload(const ClusterSnapshot& snapshot) {
  BinaryWriter payload;
  const SnapshotMeta& meta = snapshot.meta;
  payload.U64(meta.cycles_completed);
  payload.F64(meta.checkpoint_time);
  payload.F64(meta.next_cycle_time);
  payload.F64(meta.period);
  payload.I64(meta.unlock_steps);
  payload.I64(meta.fair_share_n);
  payload.U64(meta.num_shards);

  payload.F64Vec(snapshot.grid_orders);
  payload.F64(snapshot.eps_g);
  payload.F64(snapshot.delta_g);
  payload.U64(snapshot.manager_epoch);

  payload.U64(snapshot.blocks.size());
  for (const SnapshotBlockState& block : snapshot.blocks) {
    payload.I64(block.id);
    payload.F64(block.arrival_time);
    payload.F64(block.unlocked_fraction);
    payload.U64(block.version);
    payload.U8(block.retired ? 1 : 0);
    payload.U64(block.slot);
    payload.F64Vec(block.capacity);
    payload.F64Vec(block.consumed);
  }

  payload.U64(snapshot.shard_clocks.size());
  for (const SnapshotShardClock& clock : snapshot.shard_clocks) {
    payload.U64(clock.epoch);
    payload.U64(clock.version);
  }

  payload.U64(snapshot.pending.size());
  for (const SnapshotTaskState& task : snapshot.pending) {
    payload.I64(task.id);
    payload.F64(task.weight);
    payload.F64(task.arrival_time);
    payload.F64(task.timeout);
    payload.F64Vec(task.demand);
    payload.I64Vec(task.blocks);
    payload.U64(task.num_recent_blocks);
  }

  const SnapshotMetricsState& m = snapshot.metrics;
  payload.U64(m.submitted);
  payload.U64(m.allocated);
  payload.U64(m.evicted);
  payload.F64(m.submitted_weight);
  payload.F64(m.allocated_weight);
  payload.U64(m.submitted_fair_share);
  payload.U64(m.allocated_fair_share);
  payload.F64Vec(m.delay_samples);
  payload.U64(m.cycle_runtime.count);
  payload.F64(m.cycle_runtime.mean);
  payload.F64(m.cycle_runtime.m2);
  payload.F64(m.cycle_runtime.min);
  payload.F64(m.cycle_runtime.max);
  payload.F64(m.cycle_runtime.sum);
  return std::move(payload.data());
}

}  // namespace

std::string EncodeSnapshotBinary(const ClusterSnapshot& snapshot) {
  std::string payload = EncodePayload(snapshot);
  BinaryWriter out;
  out.data().append(kBinaryMagic, sizeof(kBinaryMagic));
  out.U32(kSnapshotFormatVersion);
  out.U64(payload.size());
  out.data() += payload;
  out.U64(Fnv1a64(payload));
  return std::move(out.data());
}

SnapshotParseResult DecodeSnapshotBinary(std::string_view bytes) {
  SnapshotParseResult result;
  constexpr size_t kHeaderBytes = sizeof(kBinaryMagic) + 4 + 8;
  if (bytes.size() < kHeaderBytes + 8) {
    result.error = "snapshot too short for header";
    return result;
  }
  if (std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    result.error = "bad snapshot magic";
    return result;
  }
  BinaryReader header(bytes.substr(sizeof(kBinaryMagic)));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  if (!header.U32(&version, "format version") || !header.U64(&payload_size, "payload size")) {
    result.error = header.error();
    return result;
  }
  if (version != kSnapshotFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot format version " << version << " (expected "
       << kSnapshotFormatVersion << ")";
    result.error = os.str();
    return result;
  }
  if (payload_size != bytes.size() - kHeaderBytes - 8) {
    result.error = "payload size does not match the input length";
    return result;
  }
  std::string_view payload = bytes.substr(kHeaderBytes, static_cast<size_t>(payload_size));
  BinaryReader checksum_reader(bytes.substr(kHeaderBytes + static_cast<size_t>(payload_size)));
  uint64_t stored_checksum = 0;
  if (!checksum_reader.U64(&stored_checksum, "checksum")) {
    result.error = checksum_reader.error();
    return result;
  }
  if (Fnv1a64(payload) != stored_checksum) {
    result.error = "snapshot checksum mismatch (corrupted payload)";
    return result;
  }

  BinaryReader r(payload);
  ClusterSnapshot& s = result.snapshot;
  bool ok = r.U64(&s.meta.cycles_completed, "meta.cycles_completed") &&
            r.F64(&s.meta.checkpoint_time, "meta.checkpoint_time") &&
            r.F64(&s.meta.next_cycle_time, "meta.next_cycle_time") &&
            r.F64(&s.meta.period, "meta.period") &&
            r.I64(&s.meta.unlock_steps, "meta.unlock_steps") &&
            r.I64(&s.meta.fair_share_n, "meta.fair_share_n") &&
            r.U64(&s.meta.num_shards, "meta.num_shards") &&
            r.F64Vec(&s.grid_orders, "grid_orders") && r.F64(&s.eps_g, "eps_g") &&
            r.F64(&s.delta_g, "delta_g") && r.U64(&s.manager_epoch, "manager_epoch");

  uint64_t count = 0;
  if (ok && (ok = r.Count(&count, 8 * 6 + 9, "block count"))) {
    s.blocks.resize(static_cast<size_t>(count));
    for (SnapshotBlockState& block : s.blocks) {
      uint8_t retired = 0;
      ok = r.I64(&block.id, "block.id") && r.F64(&block.arrival_time, "block.arrival_time") &&
           r.F64(&block.unlocked_fraction, "block.unlocked_fraction") &&
           r.U64(&block.version, "block.version") && r.U8(&retired, "block.retired") &&
           r.U64(&block.slot, "block.slot") && r.F64Vec(&block.capacity, "block.capacity") &&
           r.F64Vec(&block.consumed, "block.consumed");
      if (!ok) {
        break;
      }
      if (retired > 1) {
        result.error = "block.retired must be 0 or 1";
        return result;
      }
      block.retired = retired == 1;
    }
  }
  if (ok && (ok = r.Count(&count, 8 * 2, "shard clock count"))) {
    s.shard_clocks.resize(static_cast<size_t>(count));
    for (SnapshotShardClock& clock : s.shard_clocks) {
      ok = r.U64(&clock.epoch, "shard.epoch") && r.U64(&clock.version, "shard.version");
      if (!ok) {
        break;
      }
    }
  }
  if (ok && (ok = r.Count(&count, 8 * 7, "pending task count"))) {
    s.pending.resize(static_cast<size_t>(count));
    for (SnapshotTaskState& task : s.pending) {
      ok = r.I64(&task.id, "task.id") && r.F64(&task.weight, "task.weight") &&
           r.F64(&task.arrival_time, "task.arrival_time") &&
           r.F64(&task.timeout, "task.timeout") && r.F64Vec(&task.demand, "task.demand") &&
           r.I64Vec(&task.blocks, "task.blocks") &&
           r.U64(&task.num_recent_blocks, "task.num_recent_blocks");
      if (!ok) {
        break;
      }
    }
  }
  if (ok) {
    SnapshotMetricsState& m = s.metrics;
    ok = r.U64(&m.submitted, "metrics.submitted") && r.U64(&m.allocated, "metrics.allocated") &&
         r.U64(&m.evicted, "metrics.evicted") &&
         r.F64(&m.submitted_weight, "metrics.submitted_weight") &&
         r.F64(&m.allocated_weight, "metrics.allocated_weight") &&
         r.U64(&m.submitted_fair_share, "metrics.submitted_fair_share") &&
         r.U64(&m.allocated_fair_share, "metrics.allocated_fair_share") &&
         r.F64Vec(&m.delay_samples, "metrics.delay_samples") &&
         r.U64(&m.cycle_runtime.count, "metrics.cycle_runtime.count") &&
         r.F64(&m.cycle_runtime.mean, "metrics.cycle_runtime.mean") &&
         r.F64(&m.cycle_runtime.m2, "metrics.cycle_runtime.m2") &&
         r.F64(&m.cycle_runtime.min, "metrics.cycle_runtime.min") &&
         r.F64(&m.cycle_runtime.max, "metrics.cycle_runtime.max") &&
         r.F64(&m.cycle_runtime.sum, "metrics.cycle_runtime.sum");
  }
  if (!ok) {
    result.error = r.error().empty() ? "malformed snapshot payload" : r.error();
    return result;
  }
  if (r.remaining() != 0) {
    result.error = "trailing bytes after the snapshot payload";
    return result;
  }
  std::string validation = ValidateSnapshot(s);
  if (!validation.empty()) {
    result.error = "snapshot failed validation: " + validation;
    return result;
  }
  result.ok = true;
  return result;
}

// --- JSON codec ----------------------------------------------------------------------------

std::string EncodeSnapshotJson(const ClusterSnapshot& snapshot) {
  const SnapshotMeta& meta = snapshot.meta;
  std::string out;
  out.reserve(1024 + 64 * (snapshot.blocks.size() + snapshot.pending.size()));
  out += "{\"format\":\"";
  out += kJsonFormatTag;
  out += "\",\"version\":";
  out += std::to_string(kSnapshotFormatVersion);
  out += ",\"meta\":{\"cycles_completed\":";
  out += std::to_string(meta.cycles_completed);
  out += ",\"checkpoint_time\":";
  AppendF64(out, meta.checkpoint_time);
  out += ",\"next_cycle_time\":";
  AppendF64(out, meta.next_cycle_time);
  out += ",\"period\":";
  AppendF64(out, meta.period);
  out += ",\"unlock_steps\":";
  out += std::to_string(meta.unlock_steps);
  out += ",\"fair_share_n\":";
  out += std::to_string(meta.fair_share_n);
  out += ",\"num_shards\":";
  out += std::to_string(meta.num_shards);
  out += "},\"grid_orders\":";
  AppendF64Array(out, snapshot.grid_orders);
  out += ",\"eps_g\":";
  AppendF64(out, snapshot.eps_g);
  out += ",\"delta_g\":";
  AppendF64(out, snapshot.delta_g);
  out += ",\"manager_epoch\":";
  out += std::to_string(snapshot.manager_epoch);
  out += ",\"blocks\":[";
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    const SnapshotBlockState& block = snapshot.blocks[j];
    if (j > 0) {
      out += ',';
    }
    out += "{\"id\":";
    out += std::to_string(block.id);
    out += ",\"arrival_time\":";
    AppendF64(out, block.arrival_time);
    out += ",\"unlocked_fraction\":";
    AppendF64(out, block.unlocked_fraction);
    out += ",\"version\":";
    out += std::to_string(block.version);
    out += ",\"retired\":";
    out += block.retired ? "true" : "false";
    out += ",\"slot\":";
    out += std::to_string(block.slot);
    out += ",\"capacity\":";
    AppendF64Array(out, block.capacity);
    out += ",\"consumed\":";
    AppendF64Array(out, block.consumed);
    out += '}';
  }
  out += "],\"shard_clocks\":[";
  for (size_t s = 0; s < snapshot.shard_clocks.size(); ++s) {
    if (s > 0) {
      out += ',';
    }
    out += "{\"epoch\":";
    out += std::to_string(snapshot.shard_clocks[s].epoch);
    out += ",\"version\":";
    out += std::to_string(snapshot.shard_clocks[s].version);
    out += '}';
  }
  out += "],\"pending\":[";
  for (size_t i = 0; i < snapshot.pending.size(); ++i) {
    const SnapshotTaskState& task = snapshot.pending[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"id\":";
    out += std::to_string(task.id);
    out += ",\"weight\":";
    AppendF64(out, task.weight);
    out += ",\"arrival_time\":";
    AppendF64(out, task.arrival_time);
    out += ",\"timeout\":";
    AppendF64(out, task.timeout);
    out += ",\"demand\":";
    AppendF64Array(out, task.demand);
    out += ",\"blocks\":";
    AppendI64Array(out, task.blocks);
    out += ",\"num_recent_blocks\":";
    out += std::to_string(task.num_recent_blocks);
    out += '}';
  }
  const SnapshotMetricsState& m = snapshot.metrics;
  out += "],\"metrics\":{\"submitted\":";
  out += std::to_string(m.submitted);
  out += ",\"allocated\":";
  out += std::to_string(m.allocated);
  out += ",\"evicted\":";
  out += std::to_string(m.evicted);
  out += ",\"submitted_weight\":";
  AppendF64(out, m.submitted_weight);
  out += ",\"allocated_weight\":";
  AppendF64(out, m.allocated_weight);
  out += ",\"submitted_fair_share\":";
  out += std::to_string(m.submitted_fair_share);
  out += ",\"allocated_fair_share\":";
  out += std::to_string(m.allocated_fair_share);
  out += ",\"delay_samples\":";
  AppendF64Array(out, m.delay_samples);
  out += ",\"cycle_runtime\":{\"count\":";
  out += std::to_string(m.cycle_runtime.count);
  out += ",\"mean\":";
  AppendF64(out, m.cycle_runtime.mean);
  out += ",\"m2\":";
  AppendF64(out, m.cycle_runtime.m2);
  out += ",\"min\":";
  AppendF64(out, m.cycle_runtime.min);
  out += ",\"max\":";
  AppendF64(out, m.cycle_runtime.max);
  out += ",\"sum\":";
  AppendF64(out, m.cycle_runtime.sum);
  out += "}},\"checksum\":";
  out += std::to_string(Fnv1a64(EncodePayload(snapshot)));
  out += '}';
  return out;
}

SnapshotParseResult DecodeSnapshotJson(std::string_view text) {
  SnapshotParseResult result;
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) {
    result.error = parser.error();
    return result;
  }
  std::string& error = result.error;
  if (!ExpectObject(root, "snapshot", &error) ||
      !CheckOnlyKeys(root,
                     {"format", "version", "meta", "grid_orders", "eps_g", "delta_g",
                      "manager_epoch", "blocks", "shard_clocks", "pending", "metrics",
                      "checksum"},
                     "snapshot", &error)) {
    return result;
  }

  const JsonValue* format = FindMember(root, "format");
  if (format == nullptr || format->kind != JsonValue::Kind::kString ||
      format->text != kJsonFormatTag) {
    error = "missing or wrong \"format\" tag";
    return result;
  }
  uint64_t version = 0;
  if (!GetU64(root, "version", &version, &error)) {
    return result;
  }
  if (version != kSnapshotFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot format version " << version << " (expected "
       << kSnapshotFormatVersion << ")";
    error = os.str();
    return result;
  }

  ClusterSnapshot& s = result.snapshot;
  const JsonValue* meta = FindMember(root, "meta");
  if (meta == nullptr || !ExpectObject(*meta, "meta", &error) ||
      !CheckOnlyKeys(*meta,
                     {"cycles_completed", "checkpoint_time", "next_cycle_time", "period",
                      "unlock_steps", "fair_share_n", "num_shards"},
                     "meta", &error) ||
      !GetU64(*meta, "cycles_completed", &s.meta.cycles_completed, &error) ||
      !GetF64(*meta, "checkpoint_time", &s.meta.checkpoint_time, &error) ||
      !GetF64(*meta, "next_cycle_time", &s.meta.next_cycle_time, &error) ||
      !GetF64(*meta, "period", &s.meta.period, &error) ||
      !GetI64(*meta, "unlock_steps", &s.meta.unlock_steps, &error) ||
      !GetI64(*meta, "fair_share_n", &s.meta.fair_share_n, &error) ||
      !GetU64(*meta, "num_shards", &s.meta.num_shards, &error)) {
    return result;
  }

  if (!GetF64Array(root, "grid_orders", &s.grid_orders, &error) ||
      !GetF64(root, "eps_g", &s.eps_g, &error) ||
      !GetF64(root, "delta_g", &s.delta_g, &error) ||
      !GetU64(root, "manager_epoch", &s.manager_epoch, &error)) {
    return result;
  }

  const JsonValue* blocks;
  if (!GetArray(root, "blocks", &blocks, &error)) {
    return result;
  }
  s.blocks.resize(blocks->items.size());
  for (size_t j = 0; j < blocks->items.size(); ++j) {
    const JsonValue& item = blocks->items[j];
    SnapshotBlockState& block = s.blocks[j];
    if (!ExpectObject(item, "block", &error) ||
        !CheckOnlyKeys(item,
                       {"id", "arrival_time", "unlocked_fraction", "version", "retired",
                        "slot", "capacity", "consumed"},
                       "block", &error) ||
        !GetI64(item, "id", &block.id, &error) ||
        !GetF64(item, "arrival_time", &block.arrival_time, &error) ||
        !GetF64(item, "unlocked_fraction", &block.unlocked_fraction, &error) ||
        !GetU64(item, "version", &block.version, &error) ||
        !GetBool(item, "retired", &block.retired, &error) ||
        !GetU64(item, "slot", &block.slot, &error) ||
        !GetF64Array(item, "capacity", &block.capacity, &error) ||
        !GetF64Array(item, "consumed", &block.consumed, &error)) {
      return result;
    }
  }

  const JsonValue* clocks;
  if (!GetArray(root, "shard_clocks", &clocks, &error)) {
    return result;
  }
  s.shard_clocks.resize(clocks->items.size());
  for (size_t c = 0; c < clocks->items.size(); ++c) {
    const JsonValue& item = clocks->items[c];
    if (!ExpectObject(item, "shard clock", &error) ||
        !CheckOnlyKeys(item, {"epoch", "version"}, "shard clock", &error) ||
        !GetU64(item, "epoch", &s.shard_clocks[c].epoch, &error) ||
        !GetU64(item, "version", &s.shard_clocks[c].version, &error)) {
      return result;
    }
  }

  const JsonValue* pending;
  if (!GetArray(root, "pending", &pending, &error)) {
    return result;
  }
  s.pending.resize(pending->items.size());
  for (size_t i = 0; i < pending->items.size(); ++i) {
    const JsonValue& item = pending->items[i];
    SnapshotTaskState& task = s.pending[i];
    if (!ExpectObject(item, "pending task", &error) ||
        !CheckOnlyKeys(item,
                       {"id", "weight", "arrival_time", "timeout", "demand", "blocks",
                        "num_recent_blocks"},
                       "pending task", &error) ||
        !GetI64(item, "id", &task.id, &error) ||
        !GetF64(item, "weight", &task.weight, &error) ||
        !GetF64(item, "arrival_time", &task.arrival_time, &error) ||
        !GetF64(item, "timeout", &task.timeout, &error) ||
        !GetF64Array(item, "demand", &task.demand, &error) ||
        !GetI64Array(item, "blocks", &task.blocks, &error) ||
        !GetU64(item, "num_recent_blocks", &task.num_recent_blocks, &error)) {
      return result;
    }
  }

  const JsonValue* metrics = FindMember(root, "metrics");
  SnapshotMetricsState& m = s.metrics;
  if (metrics == nullptr || !ExpectObject(*metrics, "metrics", &error) ||
      !CheckOnlyKeys(*metrics,
                     {"submitted", "allocated", "evicted", "submitted_weight",
                      "allocated_weight", "submitted_fair_share", "allocated_fair_share",
                      "delay_samples", "cycle_runtime"},
                     "metrics", &error) ||
      !GetU64(*metrics, "submitted", &m.submitted, &error) ||
      !GetU64(*metrics, "allocated", &m.allocated, &error) ||
      !GetU64(*metrics, "evicted", &m.evicted, &error) ||
      !GetF64(*metrics, "submitted_weight", &m.submitted_weight, &error) ||
      !GetF64(*metrics, "allocated_weight", &m.allocated_weight, &error) ||
      !GetU64(*metrics, "submitted_fair_share", &m.submitted_fair_share, &error) ||
      !GetU64(*metrics, "allocated_fair_share", &m.allocated_fair_share, &error) ||
      !GetF64Array(*metrics, "delay_samples", &m.delay_samples, &error)) {
    return result;
  }
  const JsonValue* runtime = FindMember(*metrics, "cycle_runtime");
  uint64_t runtime_count = 0;
  if (runtime == nullptr || !ExpectObject(*runtime, "cycle_runtime", &error) ||
      !CheckOnlyKeys(*runtime, {"count", "mean", "m2", "min", "max", "sum"}, "cycle_runtime",
                     &error) ||
      !GetU64(*runtime, "count", &runtime_count, &error) ||
      !GetF64(*runtime, "mean", &m.cycle_runtime.mean, &error) ||
      !GetF64(*runtime, "m2", &m.cycle_runtime.m2, &error) ||
      !GetF64(*runtime, "min", &m.cycle_runtime.min, &error) ||
      !GetF64(*runtime, "max", &m.cycle_runtime.max, &error) ||
      !GetF64(*runtime, "sum", &m.cycle_runtime.sum, &error)) {
    return result;
  }
  m.cycle_runtime.count = static_cast<size_t>(runtime_count);

  uint64_t checksum = 0;
  if (!GetU64(root, "checksum", &checksum, &error)) {
    return result;
  }
  if (checksum != Fnv1a64(EncodePayload(s))) {
    error = "snapshot checksum mismatch (corrupted or edited fields)";
    return result;
  }

  std::string validation = ValidateSnapshot(s);
  if (!validation.empty()) {
    error = "snapshot failed validation: " + validation;
    return result;
  }
  result.ok = true;
  return result;
}

SnapshotParseResult DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() >= sizeof(kBinaryMagic) &&
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) == 0) {
    return DecodeSnapshotBinary(bytes);
  }
  size_t first = bytes.find_first_not_of(" \t\r\n");
  if (first != std::string_view::npos && bytes[first] == '{') {
    return DecodeSnapshotJson(bytes);
  }
  SnapshotParseResult result;
  result.error = "unrecognized snapshot encoding (neither binary magic nor JSON object)";
  return result;
}

// --- Restore -------------------------------------------------------------------------------

namespace {

AlphaGridPtr GridForSnapshot(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  if (grid == nullptr) {
    return AlphaGrid::Create(snapshot.grid_orders);
  }
  DPACK_CHECK_MSG(grid->orders() == snapshot.grid_orders,
                  "restore grid does not match the snapshot's orders");
  return grid;
}

}  // namespace

BlockManager RestoreBlockManager(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "RestoreBlockManager on an invalid snapshot: "
                                          << validation);
  grid = GridForSnapshot(snapshot, std::move(grid));
  std::vector<PrivacyBlock> blocks;
  blocks.reserve(snapshot.blocks.size());
  std::vector<BlockPlacement> placements;
  placements.reserve(snapshot.blocks.size());
  for (const SnapshotBlockState& state : snapshot.blocks) {
    blocks.push_back(PrivacyBlock::Restore(state.id, RdpCurve(grid, state.capacity),
                                           state.arrival_time, state.unlocked_fraction,
                                           RdpCurve(grid, state.consumed), state.version));
    placements.push_back({state.retired, state.slot});
  }
  return BlockManager::Restore(std::move(grid), snapshot.eps_g, snapshot.delta_g,
                               snapshot.manager_epoch, std::move(blocks),
                               std::move(placements));
}

std::vector<Task> RestorePendingTasks(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "RestorePendingTasks on an invalid snapshot: "
                                          << validation);
  grid = GridForSnapshot(snapshot, std::move(grid));
  std::vector<Task> pending;
  pending.reserve(snapshot.pending.size());
  for (const SnapshotTaskState& state : snapshot.pending) {
    Task task(state.id, state.weight, RdpCurve(grid, state.demand));
    task.arrival_time = state.arrival_time;
    task.timeout = state.timeout;
    task.blocks = state.blocks;
    task.num_recent_blocks = static_cast<size_t>(state.num_recent_blocks);
    pending.push_back(std::move(task));
  }
  return pending;
}

AllocationMetrics RestoreMetrics(const SnapshotMetricsState& state) {
  return AllocationMetrics::Restore(
      static_cast<size_t>(state.submitted), static_cast<size_t>(state.allocated),
      static_cast<size_t>(state.evicted), state.submitted_weight, state.allocated_weight,
      static_cast<size_t>(state.submitted_fair_share),
      static_cast<size_t>(state.allocated_fair_share), state.delay_samples,
      state.cycle_runtime);
}

}  // namespace dpack
