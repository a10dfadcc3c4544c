// Shared helpers for the reproduction benches: consistent headers and
// table formatting so each binary's output reads like the paper's
// corresponding table/figure, plus a machine-readable JSON emitter so
// benches can append structured rows to BENCH_perf.json and future PRs
// have a performance trajectory to not regress.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"

namespace slingshot::bench {

inline void print_banner(const char* experiment_id, const char* title) {
  // Benches print structured tables; component logs (including the
  // floods some ablations intentionally provoke) stay out of the way.
  Logger::instance().set_level(LogLevel::kError);
  std::printf("\n=============================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("=============================================================\n");
}

inline void print_note(const char* note) { std::printf("note: %s\n", note); }

// Prints a row of right-aligned columns.
inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// ---------------------------------------------------------------------
// Structured bench output. A JsonRow is one flat object of string /
// number fields; append_bench_json() keeps the target file a valid JSON
// array across appends, so any bench binary can contribute rows to the
// same BENCH_perf.json.
class JsonRow {
 public:
  explicit JsonRow(const std::string& bench) { str("bench", bench); }

  JsonRow& str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        escaped.push_back('\\');
      }
      escaped.push_back(c);
    }
    return raw(key, "\"" + escaped + "\"");
  }
  JsonRow& num(const std::string& key, double value) {
    // Empty stats collectors report NaN (see common/stats.h); bare `nan`
    // is not valid JSON, so emit null.
    if (std::isnan(value)) {
      return raw(key, "null");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return raw(key, buf);
  }
  JsonRow& integer(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonRow& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  JsonRow& raw(const std::string& key, const std::string& json_value) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + key + "\": " + json_value;
    return *this;
  }
  std::string body_;
};

// Appends `row` to the JSON array in `path`, creating the file if
// needed. The new array is written to a per-process temp file and
// renamed into place, so a reader never sees a half-written file.
// Appends to one path are still read-modify-write: give concurrent
// writers (e.g. ctest -j smokes) their own files. Returns false (and
// prints a warning) on I/O failure.
inline bool append_bench_json(const std::string& path, const JsonRow& row) {
  std::string existing;
  {
    std::ifstream in{path};
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  // Strip trailing whitespace and the closing bracket of the array.
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' ' ||
          existing.back() == ']')) {
    existing.pop_back();
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", tmp.c_str());
      return false;
    }
    if (existing.empty() || existing == "[") {
      out << "[\n  " << row.render() << "\n]\n";
    } else {
      out << existing << ",\n  " << row.render() << "\n]\n";
    }
    if (!out.flush()) {
      std::fprintf(stderr, "bench: cannot write %s\n", tmp.c_str());
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "bench: cannot rename %s to %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace slingshot::bench
