// Schema validator for the bench output files (BENCH_*.json).
//
// Every bench appends rows through bench_util.h's append_bench_json();
// the contract downstream tooling relies on is:
//   * the file is one valid JSON array,
//   * every element is a FLAT object (no nested arrays/objects),
//   * every row carries a "bench" string key naming its producer,
//   * every perf_e2e* row names its build (compiler, build_type,
//     cxx_flags, hardware_threads),
//   * every number is finite (the emitter turns NaN into null; a bare
//     `nan`/`inf` token would break any standards-compliant reader).
//
// Usage: validate_bench_json [path ...]
// A directory argument is scanned for BENCH_*.json; a file argument is
// validated directly. With no arguments the current directory is
// scanned. Before touching any real file the validator round-trips a
// self-test row through append_bench_json so emitter and validator can
// never drift apart silently. Exits nonzero on the first schema
// violation — registered as a ctest target ordered after the bench
// smokes, so CI validates exactly what the smokes just wrote.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

// Minimal recursive-descent checker for the bench-row subset of JSON.
// It validates structure; it does not build a document.
class Checker {
 public:
  explicit Checker(const std::string& text) : text_(text) {}

  // Returns an empty string on success, else a description of the first
  // violation (with byte offset).
  std::string check() {
    skip_ws();
    if (!consume('[')) {
      return err("expected top-level array");
    }
    skip_ws();
    if (consume(']')) {
      return finish();
    }
    while (true) {
      std::string e = check_row();
      if (!e.empty()) {
        return e;
      }
      skip_ws();
      if (consume(']')) {
        return finish();
      }
      if (!consume(',')) {
        return err("expected ',' or ']' after row");
      }
      skip_ws();
    }
  }

  [[nodiscard]] int rows() const { return rows_; }

 private:
  std::string finish() {
    skip_ws();
    if (pos_ != text_.size()) {
      return err("trailing content after array");
    }
    return {};
  }

  std::string check_row() {
    if (!consume('{')) {
      return err("expected row object");
    }
    ++rows_;
    bool saw_bench = false;
    std::string bench;
    unsigned build_keys = 0;  // bit set of the build annotations present
    skip_ws();
    if (consume('}')) {
      return err("empty row object");
    }
    while (true) {
      std::string key;
      std::string e = check_string(&key);
      if (!e.empty()) {
        return e;
      }
      skip_ws();
      if (!consume(':')) {
        return err("expected ':' after key");
      }
      skip_ws();
      const bool is_string = peek() == '"';
      const std::size_t value_start = pos_;
      e = check_value();
      if (!e.empty()) {
        return e;
      }
      if (key == "bench") {
        if (!is_string) {
          return err("\"bench\" must be a string");
        }
        saw_bench = true;
        bench = text_.substr(value_start + 1, pos_ - value_start - 2);
      }
      if (key == "compiler" || key == "build_type" || key == "cxx_flags") {
        // Build annotations (perf_e2e): strings naming the build.
        if (!is_string) {
          return err("\"" + key + "\" must be a string");
        }
        build_keys |= key == "compiler" ? 1U : key == "build_type" ? 2U : 4U;
      }
      if (key == "hardware_threads") {
        // Host annotation (perf_e2e): a non-negative integer (0 when the
        // standard library cannot tell).
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        if (raw.empty() ||
            raw.find_first_not_of("0123456789") != std::string::npos) {
          return err("\"hardware_threads\" must be a non-negative integer, "
                     "got '" + raw + "'");
        }
        build_keys |= 8U;
      }
      if (key == "shards" || key == "ues") {
        // Shard-count / UE-population annotations (perf_e2e --shards,
        // abl_ue_sweep): optional, but when present they must be
        // positive integers — downstream sweep tooling groups rows by
        // them.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        const bool is_digits =
            !raw.empty() &&
            raw.find_first_not_of("0123456789") == std::string::npos;
        if (!is_digits || std::atoll(raw.c_str()) < 1) {
          return err("\"" + key + "\" must be a positive integer, got '" +
                     raw + "'");
        }
      }
      if (key == "failover_dropped_ttis") {
        // Failover-gap measurements (abl_scale_sweep, abl_ue_sweep): a
        // non-negative integer TTI count.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        const bool is_digits =
            !raw.empty() &&
            raw.find_first_not_of("0123456789") == std::string::npos;
        if (!is_digits) {
          return err(
              "\"failover_dropped_ttis\" must be a non-negative integer, "
              "got '" +
              raw + "'");
        }
      }
      if (key == "detection_ms" || key == "outage_ms") {
        // Wall-clock failover measurements (perf_realtime): must be
        // non-negative finite numbers — a negative value means the run
        // never executed its fault plan and the row is meaningless.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        if (is_string || raw.empty() || raw[0] == '-' || raw == "null") {
          return err("\"" + key + "\" must be a non-negative number, got '" +
                     raw + "'");
        }
      }
      if (key == "mode") {
        // Deployment-mode annotation (perf_realtime): a string.
        if (!is_string) {
          return err("\"mode\" must be a string");
        }
      }
      if (key == "samples_per_s" || key == "events_per_s") {
        // Throughput rates (bench_kernels --json BFP rows, perf_e2e):
        // a zero or negative rate means the timed region never ran, and
        // null means the measurement was NaN — all meaningless rows.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        char* end = nullptr;
        const double v = std::strtod(raw.c_str(), &end);
        if (is_string || raw.empty() || raw == "null" ||
            end != raw.c_str() + raw.size() || !(v > 0.0)) {
          return err("\"" + key + "\" must be a positive number, got '" +
                     raw + "'");
        }
      }
      if (key == "mantissa_bits") {
        // BFP mantissa width annotation: the codec only accepts widths
        // in [2, 16] (fronthaul/bfp.h), so a row outside that range
        // describes a run that cannot have happened.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        const bool is_digits =
            !raw.empty() &&
            raw.find_first_not_of("0123456789") == std::string::npos;
        if (!is_digits || std::atoll(raw.c_str()) < 2 ||
            std::atoll(raw.c_str()) > 16) {
          return err("\"mantissa_bits\" must be an integer in [2, 16], "
                     "got '" + raw + "'");
        }
      }
      if (key == "isa") {
        // Per-ISA kernel rows (bench_kernels --json): must name one of
        // the compiled-in dispatch levels (phy/simd.h).
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        if (!is_string || (raw != "\"scalar\"" && raw != "\"sse2\"" &&
                           raw != "\"avx2\"")) {
          return err("\"isa\" must be one of \"scalar\"/\"sse2\"/\"avx2\", "
                     "got '" + raw + "'");
        }
      }
      if (key == "false_positive_rate") {
        // Detector FP rate (abl_fronthaul): detections per opportunity,
        // so a valid row carries a finite number in [0, 1].
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        char* end = nullptr;
        const double v = std::strtod(raw.c_str(), &end);
        if (is_string || raw.empty() || raw == "null" ||
            end != raw.c_str() + raw.size() || !(v >= 0.0) || !(v <= 1.0)) {
          return err("\"false_positive_rate\" must be a number in [0, 1], "
                     "got '" + raw + "'");
        }
      }
      if (key == "outage_ttis" || key == "frer_duplicates_eliminated") {
        // Fabric head-to-head counters (abl_fronthaul): non-negative
        // integer TTI / frame counts.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        const bool is_digits =
            !raw.empty() &&
            raw.find_first_not_of("0123456789") == std::string::npos;
        if (!is_digits) {
          return err("\"" + key + "\" must be a non-negative integer, got '" +
                     raw + "'");
        }
      }
      if (key == "bandwidth_overhead") {
        // FRER bandwidth premium (abl_fronthaul): a non-negative finite
        // number (bytes ratio vs. the failover baseline).
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        char* end = nullptr;
        const double v = std::strtod(raw.c_str(), &end);
        if (is_string || raw.empty() || raw == "null" ||
            end != raw.c_str() + raw.size() || !(v >= 0.0)) {
          return err("\"bandwidth_overhead\" must be a non-negative number, "
                     "got '" + raw + "'");
        }
      }
      if (key == "bytes_per_ue") {
        // SoA footprint (abl_ue_sweep): a non-negative finite number.
        const std::string raw = text_.substr(value_start, pos_ - value_start);
        if (!raw.empty() && raw[0] == '-') {
          return err("\"bytes_per_ue\" must be non-negative, got '" + raw +
                     "'");
        }
      }
      skip_ws();
      if (consume('}')) {
        break;
      }
      if (!consume(',')) {
        return err("expected ',' or '}' in row");
      }
      skip_ws();
    }
    if (!saw_bench) {
      return err("row missing required \"bench\" key");
    }
    if (bench.starts_with("perf_e2e") && build_keys != 15U) {
      // Every perf_e2e row names the build it came from.
      return err("\"" + bench +
                 "\" row must carry compiler, build_type, cxx_flags and "
                 "hardware_threads");
    }
    return {};
  }

  std::string check_value() {
    const char c = peek();
    if (c == '"') {
      return check_string(nullptr);
    }
    if (c == '{' || c == '[') {
      return err("nested containers not allowed — rows must be flat");
    }
    if (literal("true") || literal("false") || literal("null")) {
      return {};
    }
    return check_number();
  }

  std::string check_string(std::string* out) {
    if (!consume('"')) {
      return err("expected string");
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return {};
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'n' &&
            esc != 't' && esc != 'r' && esc != 'b' && esc != 'f' &&
            esc != 'u') {
          return err("invalid escape in string");
        }
        if (out != nullptr) {
          out->push_back(esc);
        }
        continue;
      }
      if (out != nullptr) {
        out->push_back(c);
      }
    }
    return err("unterminated string");
  }

  std::string check_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return err("expected a JSON value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return err("malformed number '" + token + "'");
    }
    if (!std::isfinite(v)) {
      return err("non-finite number '" + token + "'");
    }
    return {};
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  std::string err(const std::string& what) const {
    return what + " (at byte " + std::to_string(pos_) + ")";
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int rows_ = 0;
};

// Returns true if the file validates; prints a verdict line either way.
bool validate_file(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) {
    std::printf("  %-40s UNREADABLE\n", path.string().c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  Checker checker{text};
  const std::string error = checker.check();
  if (!error.empty()) {
    std::printf("  %-40s INVALID: %s\n", path.string().c_str(),
                error.c_str());
    return false;
  }
  std::printf("  %-40s ok (%d rows)\n", path.string().c_str(),
              checker.rows());
  return true;
}

// Round-trip a synthetic row (including the characters the emitter must
// escape and the NaN-to-null rule) through append_bench_json, then
// validate it. Guards against emitter/validator drift.
bool self_test() {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "BENCH_selftest.json";
  std::error_code ec;
  fs::remove(path, ec);
  using slingshot::bench::JsonRow;
  JsonRow row{"validator_selftest"};
  row.str("tricky", "quote\" backslash\\ done")
      .num("finite", 1.25)
      .num("was_nan", std::nan(""))
      .integer("count", -3)
      .integer("shards", 4)
      .integer("ues", 100000)
      .integer("failover_dropped_ttis", 2)
      .num("bytes_per_ue", 42.0)
      .num("false_positive_rate", 0.25)
      .integer("outage_ttis", 0)
      .integer("frer_duplicates_eliminated", 1234)
      .num("bandwidth_overhead", 1.87)
      .num("detection_ms", 2.504)
      .num("outage_ms", 0.0)
      .str("mode", "fork")
      .num("samples_per_s", 1.25e9)
      .num("events_per_s", 1.7e6)
      .integer("mantissa_bits", 9)
      .str("isa", "avx2")
      .boolean("flag", true);
  bool ok = slingshot::bench::append_bench_json(path.string(), row);
  // Append a second row to exercise the array-reopening path too, and a
  // perf_e2e row carrying its build annotations.
  ok = ok && slingshot::bench::append_bench_json(path.string(),
                                                 JsonRow{"validator_selftest"});
  JsonRow perf_row{"perf_e2e_shards"};
  perf_row.str("compiler", "GNU 12.2.0")
      .str("build_type", "Release")
      .str("cxx_flags", "-O3 -DNDEBUG")
      .integer("hardware_threads", 4);
  ok = ok && slingshot::bench::append_bench_json(path.string(), perf_row);
  ok = ok && validate_file(path);
  fs::remove(path, ec);

  // Negative checks: the keyed row rules must actually reject bad rows.
  for (const char* bad : {
           "[\n  {\"bench\": \"x\", \"shards\": 0}\n]\n",
           "[\n  {\"bench\": \"x\", \"shards\": -2}\n]\n",
           "[\n  {\"bench\": \"x\", \"shards\": 2.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"shards\": \"4\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"ues\": 0}\n]\n",
           "[\n  {\"bench\": \"x\", \"ues\": -100}\n]\n",
           "[\n  {\"bench\": \"x\", \"ues\": 1e3}\n]\n",
           "[\n  {\"bench\": \"x\", \"failover_dropped_ttis\": -1}\n]\n",
           "[\n  {\"bench\": \"x\", \"failover_dropped_ttis\": 1.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"bytes_per_ue\": -42.0}\n]\n",
           "[\n  {\"bench\": \"x\", \"detection_ms\": -1}\n]\n",
           "[\n  {\"bench\": \"x\", \"detection_ms\": null}\n]\n",
           "[\n  {\"bench\": \"x\", \"outage_ms\": -0.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"outage_ms\": \"3.1\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"mode\": 2}\n]\n",
           "[\n  {\"bench\": \"x\", \"samples_per_s\": 0}\n]\n",
           "[\n  {\"bench\": \"x\", \"samples_per_s\": -1e6}\n]\n",
           "[\n  {\"bench\": \"x\", \"samples_per_s\": null}\n]\n",
           "[\n  {\"bench\": \"x\", \"samples_per_s\": \"1e6\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"events_per_s\": 0.0}\n]\n",
           "[\n  {\"bench\": \"x\", \"events_per_s\": -3}\n]\n",
           "[\n  {\"bench\": \"x\", \"mantissa_bits\": 1}\n]\n",
           "[\n  {\"bench\": \"x\", \"mantissa_bits\": 17}\n]\n",
           "[\n  {\"bench\": \"x\", \"mantissa_bits\": 8.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"mantissa_bits\": -9}\n]\n",
           "[\n  {\"bench\": \"x\", \"isa\": \"mmx\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"isa\": 2}\n]\n",
           "[\n  {\"bench\": \"x\", \"false_positive_rate\": -0.1}\n]\n",
           "[\n  {\"bench\": \"x\", \"false_positive_rate\": 1.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"false_positive_rate\": null}\n]\n",
           "[\n  {\"bench\": \"x\", \"false_positive_rate\": \"0.1\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"outage_ttis\": -1}\n]\n",
           "[\n  {\"bench\": \"x\", \"outage_ttis\": 2.5}\n]\n",
           "[\n  {\"bench\": \"x\", \"frer_duplicates_eliminated\": -7}\n]\n",
           "[\n  {\"bench\": \"x\", \"frer_duplicates_eliminated\": "
           "\"12\"}\n]\n",
           "[\n  {\"bench\": \"x\", \"bandwidth_overhead\": -2.0}\n]\n",
           "[\n  {\"bench\": \"x\", \"bandwidth_overhead\": null}\n]\n",
           "[\n  {\"bench\": \"perf_e2e\", \"build_type\": \"Release\", "
           "\"cxx_flags\": \"-O3\", \"hardware_threads\": 4}\n]\n",
           "[\n  {\"bench\": \"perf_e2e_obs\", \"compiler\": \"GNU\", "
           "\"build_type\": \"Release\", \"cxx_flags\": \"-O3\"}\n]\n",
           "[\n  {\"bench\": \"perf_e2e_shards\", \"compiler\": 12, "
           "\"build_type\": \"Release\", \"cxx_flags\": \"-O3\", "
           "\"hardware_threads\": 4}\n]\n",
           "[\n  {\"bench\": \"x\", \"hardware_threads\": -1}\n]\n",
           "[\n  {\"bench\": \"x\", \"hardware_threads\": \"4\"}\n]\n",
       }) {
    const std::string text{bad};
    Checker checker{text};
    if (checker.check().empty()) {
      std::printf("  bad keyed row was accepted: %s", bad);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::printf("validate_bench_json: emitter/validator self-test\n");
  if (!self_test()) {
    std::printf("SELF-TEST FAILED — emitter and validator disagree\n");
    return 1;
  }

  std::vector<fs::path> files;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    roots.emplace_back(argv[i]);
  }
  if (roots.empty()) {
    roots.emplace_back(".");
  }
  for (const auto& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::directory_iterator(root)) {
        const std::string name = entry.path().filename().string();
        if (entry.is_regular_file() && name.starts_with("BENCH_") &&
            name.ends_with(".json")) {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(root);
    }
  }

  std::printf("validating %zu bench file(s)\n", files.size());
  bool all_ok = true;
  for (const auto& f : files) {
    all_ok = validate_file(f) && all_ok;
  }
  if (files.empty()) {
    std::printf("  (no BENCH_*.json files found — nothing to validate)\n");
  }
  std::printf("result: %s\n", all_ok ? "all files valid" : "SCHEMA VIOLATIONS");
  return all_ok ? 0 : 1;
}
