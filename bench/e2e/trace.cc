// In-memory spans of the traced run, written as a Chrome trace (chrome://tracing, Perfetto).

#include <cstdio>
#include <map>

#include "bench/e2e/e2e.h"

namespace dpack::e2e {

int32_t Tracer::Add(const char* name, double key, int32_t parent, Clock::time_point start,
                    Clock::time_point end) {
  spans_.push_back(
      {name, key, parent, MicrosBetween(origin_, start), MicrosBetween(origin_, end), -1.0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::SetEnd(int32_t span, Clock::time_point end) {
  spans_[static_cast<size_t>(span)].end_us = MicrosBetween(origin_, end);
}

void Tracer::SetBatchMicros(int32_t span, double micros) {
  spans_[static_cast<size_t>(span)].batch_us = micros;
}

std::vector<std::pair<std::string, double>> Tracer::SelfSeconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double self = span.end_us - span.start_us - covered[i];
    if (span.batch_us >= 0.0) {
      self -= span.batch_us;
      self_us["core.scheduler"] += span.batch_us;
    }
    self_us[span.name] += self;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, micros] : self_us) {
    out.emplace_back(name, micros * 1e-6);
  }
  return out;
}

bool Tracer::WriteChrome(const std::string& path, const std::string& process_name,
                         const std::vector<std::pair<std::string, double>>& other) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"key\":%.17g,\"parent\":%d",
                 span.name, span.start_us, span.end_us - span.start_us, i, span.key,
                 span.parent);
    if (span.batch_us >= 0.0) {
      std::fprintf(out, ",\"batch_us\":%.3f", span.batch_us);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n],\"otherData\":{");
  for (size_t i = 0; i < other.size(); ++i) {
    std::fprintf(out, "%s\"%s\":%.17g", i == 0 ? "" : ",", other[i].first.c_str(),
                 other[i].second);
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace dpack::e2e
