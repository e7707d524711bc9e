#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>

namespace dpack::bench {

Scale ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      return Scale::kQuick;
    }
    if (std::strcmp(argv[i], "--full") == 0) {
      return Scale::kFull;
    }
  }
  return Scale::kDefault;
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

double ScaleFactor(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return 0.25;
    case Scale::kDefault:
      return 1.0;
    case Scale::kFull:
      return 4.0;
  }
  return 1.0;
}

const CurvePool& SharedPool() {
  static const CurvePool* pool = new CurvePool(
      AlphaGrid::Default(), BlockCapacityCurve(AlphaGrid::Default(), kEpsG, kDeltaG));
  return *pool;
}

bool WriteBenchCountersJson(const std::string& path,
                            const std::vector<BenchJsonEntry>& entries) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  for (size_t e = 0; e < entries.size(); ++e) {
    std::fprintf(out, "    {\"name\": \"%s\"", entries[e].name.c_str());
    for (const auto& [key, value] : entries[e].fields) {
      std::fprintf(out, ", \"%s\": %.4f", key.c_str(), value);
    }
    std::fprintf(out, "}%s\n", e + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote engine counters to %s\n", path.c_str());
  return true;
}

void Banner(const std::string& experiment, const std::string& paper_reference) {
  std::printf("\n================================================================\n");
  std::printf("%s  (%s)\n", experiment.c_str(), paper_reference.c_str());
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace dpack::bench
