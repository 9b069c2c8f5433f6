// luqr_top — live terminal dashboard over the JSON metrics snapshots that
// luqr_serve --metrics-json (or any obs::SnapshotWriter user) keeps
// rewriting. The writer replaces the file atomically (tmp + rename), so
// this reader never sees a torn snapshot — it just re-reads and re-renders
// on a period, top(1)-style.
//
//   luqr_top [--file F] [--period MS] [--once]
//
//   --file F      snapshot file to watch (default metrics.json)
//   --period MS   refresh period (default 500)
//   --once        render one frame without clearing the screen and exit
//                 (also what CI uses to assert on dashboard content)
//
// Panels: per-kernel-class profile (calls/time/model GFLOP/s), engine
// gauges per engine label (busy fraction, live tasks, ready lanes, steal
// and completion rates), serve job counters with per-phase latency
// histograms, and cache traffic. Each service publishes its own series
// (label `service`): the serve panels sum counters and merge histogram
// buckets across services, and show the worst health. Counter rates are
// derived by diffing consecutive frames.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

// --------------------------------------------------------------------------
// Minimal JSON reader, sized for the machine-generated snapshot format
// (objects, arrays, strings with backslash escapes, numbers). Parse errors
// surface as a null value; the dashboard then just reports a bad frame
// instead of crashing mid-run.
// --------------------------------------------------------------------------

struct JValue {
  enum class Kind { Null, Number, String, Array, Object };
  Kind kind = Kind::Null;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* find(const char* key) const {
    for (const auto& kv : obj)
      if (kv.first == key) return &kv.second;
    return nullptr;
  }
  double number(const char* key, double fallback = 0.0) const {
    const JValue* v = find(key);
    return v != nullptr && v->kind == Kind::Number ? v->num : fallback;
  }
  std::string string_of(const char* key) const {
    const JValue* v = find(key);
    return v != nullptr && v->kind == Kind::String ? v->str : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JValue& out) { return value(out) && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool string_body(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':  // snapshot writer only emits \u00xx for control chars
            if (pos_ + 4 > s_.size()) return false;
            c = static_cast<char>(
                std::strtol(s_.substr(pos_ + 2, 2).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc; break;
        }
      }
      out += c;
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool value(JValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JValue::Kind::Object;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        std::string key;
        skip_ws();
        if (!string_body(key) || !consume(':')) return false;
        JValue v;
        if (!value(v)) return false;
        out.obj.emplace_back(std::move(key), std::move(v));
        if (consume(',')) continue;
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JValue::Kind::Array;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JValue v;
        if (!value(v)) return false;
        out.arr.push_back(std::move(v));
        if (consume(',')) continue;
        return consume(']');
      }
    }
    if (c == '"') {
      out.kind = JValue::Kind::String;
      return string_body(out.str);
    }
    // Number (the writer never emits true/false/null).
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return false;
    out.kind = JValue::Kind::Number;
    out.num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------
// Snapshot model
// --------------------------------------------------------------------------

using LabelMap = std::map<std::string, std::string>;

struct Sample {
  LabelMap labels;
  double value = 0.0;
};

// One exported histogram series; mean and quantiles are filled by merge().
struct HistSample {
  LabelMap labels;
  double count = 0, sum = 0, max = 0, mean = 0, p50 = 0, p90 = 0, p99 = 0;
  std::vector<std::pair<double, double>> buckets;  // (upper edge, raw count)
};

// One histogram family merged across its label sets: bucket counts add,
// and the quantiles are read off the merged buckets the way the registry
// reads its own (the containing bucket's upper edge, clamped to the max) —
// per-series quantiles cannot be combined.
HistSample merge(const std::vector<HistSample>& series) {
  HistSample m;
  std::map<double, double> buckets;
  for (const HistSample& h : series) {
    m.count += h.count;
    m.sum += h.sum;
    m.max = std::max(m.max, h.max);
    for (const auto& b : h.buckets) buckets[b.first] += b.second;
  }
  m.mean = m.count > 0 ? m.sum / m.count : 0.0;
  const auto quantile = [&](double q) {
    if (m.count <= 0) return 0.0;
    const double target = std::floor(q * (m.count - 1)) + 1;
    double seen = 0;
    for (const auto& b : buckets) {
      seen += b.second;
      if (seen >= target) return std::min(b.first, m.max);
    }
    return m.max;
  };
  m.p50 = quantile(0.50);
  m.p90 = quantile(0.90);
  m.p99 = quantile(0.99);
  return m;
}

struct Frame {
  double ts_us = 0;
  std::map<std::string, std::vector<Sample>> counters;
  std::map<std::string, std::vector<Sample>> gauges;
  std::map<std::string, std::vector<HistSample>> histograms;

  double counter(const std::string& name) const {
    double total = 0;
    auto it = counters.find(name);
    if (it != counters.end())
      for (const Sample& s : it->second) total += s.value;
    return total;
  }
  /// Summed across label sets (e.g. every cache's bytes).
  double gauge(const std::string& name) const {
    double total = 0;
    auto it = gauges.find(name);
    if (it != gauges.end())
      for (const Sample& s : it->second) total += s.value;
    return total;
  }
  double gauge_max(const std::string& name) const {
    double worst = 0;
    auto it = gauges.find(name);
    if (it != gauges.end())
      for (const Sample& s : it->second) worst = std::max(worst, s.value);
    return worst;
  }
};

LabelMap parse_labels(const JValue& entry) {
  LabelMap out;
  const JValue* labels = entry.find("labels");
  if (labels != nullptr)
    for (const auto& kv : labels->obj)
      if (kv.second.kind == JValue::Kind::String) out[kv.first] = kv.second.str;
  return out;
}

bool load_frame(const std::string& path, Frame& out, std::string& error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  JValue root;
  if (!JsonParser(text).parse(root) || root.kind != JValue::Kind::Object) {
    error = "unparseable snapshot (" + std::to_string(text.size()) + " bytes)";
    return false;
  }
  out = Frame{};
  out.ts_us = root.number("ts_us");
  const JValue* counters = root.find("counters");
  if (counters != nullptr)
    for (const JValue& c : counters->arr)
      out.counters[c.string_of("name")].push_back(
          Sample{parse_labels(c), c.number("value")});
  const JValue* gauges = root.find("gauges");
  if (gauges != nullptr)
    for (const JValue& g : gauges->arr)
      out.gauges[g.string_of("name")].push_back(
          Sample{parse_labels(g), g.number("value")});
  const JValue* hists = root.find("histograms");
  if (hists != nullptr)
    for (const JValue& h : hists->arr) {
      HistSample hs;
      hs.labels = parse_labels(h);
      hs.count = h.number("count");
      hs.sum = h.number("sum");
      hs.max = h.number("max");
      const JValue* buckets = h.find("buckets");
      if (buckets != nullptr)
        for (const JValue& b : buckets->arr)
          if (b.arr.size() == 2)
            hs.buckets.emplace_back(b.arr[0].num, b.arr[1].num);
      out.histograms[h.string_of("name")].push_back(std::move(hs));
    }
  return true;
}

// --------------------------------------------------------------------------
// Rendering
// --------------------------------------------------------------------------

std::string fmt_count(double v) {
  char buf[32];
  if (v >= 1e9) std::snprintf(buf, sizeof(buf), "%.2fG", v * 1e-9);
  else if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v * 1e-6);
  else if (v >= 1e4) std::snprintf(buf, sizeof(buf), "%.1fk", v * 1e-3);
  else std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string fmt_us(double us) {
  char buf[32];
  if (us >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fs", us * 1e-6);
  else if (us >= 1e3) std::snprintf(buf, sizeof(buf), "%.1fms", us * 1e-3);
  else std::snprintf(buf, sizeof(buf), "%.0fus", us);
  return buf;
}

void render(const Frame& f, const Frame* prev, const std::string& path) {
  // Rates from the previous frame's counters (0 on the first frame).
  const double dt =
      prev != nullptr && f.ts_us > prev->ts_us ? (f.ts_us - prev->ts_us) * 1e-6
                                               : 0.0;
  const auto rate = [&](const std::string& name) {
    return dt > 0 ? (f.counter(name) - prev->counter(name)) / dt : 0.0;
  };

  std::printf("luqr_top — %s\n", path.c_str());

  // -- kernels ------------------------------------------------------------
  auto kit = f.counters.find("luqr_kernel_time_us_total");
  if (kit != f.counters.end()) {
    struct Row {
      std::string cls;
      double time_us = 0, calls = 0, flops = 0;
    };
    std::map<std::string, Row> rows;
    for (const Sample& s : kit->second) {
      auto l = s.labels.find("class");
      if (l == s.labels.end()) continue;
      rows[l->second].cls = l->second;
      rows[l->second].time_us = s.value;
    }
    const auto fill = [&](const char* name, double Row::*field) {
      auto it = f.counters.find(name);
      if (it == f.counters.end()) return;
      for (const Sample& s : it->second) {
        auto l = s.labels.find("class");
        if (l != s.labels.end()) rows[l->second].*field = s.value;
      }
    };
    fill("luqr_kernel_calls_total", &Row::calls);
    fill("luqr_kernel_flops_total", &Row::flops);
    std::vector<Row> sorted;
    double total_us = 0;
    for (auto& kv : rows) {
      total_us += kv.second.time_us;
      if (kv.second.calls > 0) sorted.push_back(kv.second);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Row& a, const Row& b) { return a.time_us > b.time_us; });
    std::printf("\nkernels (total %s busy)\n", fmt_us(total_us).c_str());
    std::printf("  %-8s %10s %10s %7s %9s\n", "class", "calls", "time",
                "share", "gflop/s");
    for (const Row& r : sorted) {
      const double secs = r.time_us * 1e-6;
      std::printf("  %-8s %10s %10s %6.1f%% %9.2f\n", r.cls.c_str(),
                  fmt_count(r.calls).c_str(), fmt_us(r.time_us).c_str(),
                  total_us > 0 ? 100.0 * r.time_us / total_us : 0.0,
                  secs > 0 ? r.flops * 1e-9 / secs : 0.0);
    }
  }

  // -- engines ------------------------------------------------------------
  auto git = f.gauges.find("luqr_engine_workers");
  if (git != f.gauges.end()) {
    std::printf("\nengines\n");
    for (const Sample& s : git->second) {
      auto l = s.labels.find("engine");
      const std::string eng = l != s.labels.end() ? l->second : "default";
      const auto gauge_of = [&](const char* name) {
        auto it = f.gauges.find(name);
        if (it == f.gauges.end()) return 0.0;
        for (const Sample& g : it->second) {
          auto gl = g.labels.find("engine");
          if (gl != g.labels.end() && gl->second == eng) return g.value;
        }
        return 0.0;
      };
      std::printf("  [%s] %g workers, %.0f%% busy, %g live tasks, "
                  "%.0f steals/s, %.0f tasks/s, %s workspace\n",
                  eng.c_str(), s.value, 100.0 * gauge_of("luqr_engine_busy_fraction"),
                  gauge_of("luqr_engine_live_tasks"),
                  gauge_of("luqr_engine_steals_per_s"),
                  gauge_of("luqr_engine_tasks_per_s"),
                  fmt_count(gauge_of("luqr_engine_workspace_bytes")).c_str());
      auto rit = f.gauges.find("luqr_engine_ready_tasks");
      if (rit != f.gauges.end()) {
        std::printf("        ready lanes:");
        for (const Sample& g : rit->second) {
          auto gl = g.labels.find("engine");
          auto lane = g.labels.find("lane");
          if (gl != g.labels.end() && gl->second == eng && lane != g.labels.end())
            std::printf(" %s:%g", lane->second.c_str(), g.value);
        }
        std::printf("\n");
      }
    }
  }

  // -- serve --------------------------------------------------------------
  if (f.counters.count("luqr_serve_jobs_submitted_total") != 0) {
    std::printf("\nserve\n");
    std::printf("  jobs     submitted=%s completed=%s failed=%s cancelled=%s "
                "rejected=%s",
                fmt_count(f.counter("luqr_serve_jobs_submitted_total")).c_str(),
                fmt_count(f.counter("luqr_serve_jobs_completed_total")).c_str(),
                fmt_count(f.counter("luqr_serve_jobs_failed_total")).c_str(),
                fmt_count(f.counter("luqr_serve_jobs_cancelled_total")).c_str(),
                fmt_count(f.counter("luqr_serve_jobs_rejected_total")).c_str());
    if (dt > 0)
      std::printf("   (%.0f jobs/s)", rate("luqr_serve_jobs_completed_total"));
    std::printf("\n");
    static const struct {
      const char* metric;
      const char* title;
    } kPhases[] = {
        {"luqr_serve_job_latency_us", "latency"},
        {"luqr_serve_job_queue_us", "queue"},
        {"luqr_serve_job_factor_us", "factor"},
        {"luqr_serve_job_solve_us", "solve"},
        {"luqr_serve_job_refine_us", "refine"},
        {"luqr_serve_job_exec_us", "exec"},
    };
    for (const auto& ph : kPhases) {
      auto it = f.histograms.find(ph.metric);
      if (it == f.histograms.end() || it->second.empty()) continue;
      const HistSample h = merge(it->second);
      std::printf("  %-8s p50=%s p90=%s p99=%s max=%s mean=%s (n=%s)\n",
                  ph.title, fmt_us(h.p50).c_str(), fmt_us(h.p90).c_str(),
                  fmt_us(h.p99).c_str(), fmt_us(h.max).c_str(),
                  fmt_us(h.mean).c_str(), fmt_count(h.count).c_str());
    }
  }

  // -- resilience ---------------------------------------------------------
  if (f.counters.count("luqr_serve_shed_total") != 0 ||
      f.gauges.count("luqr_serve_health") != 0) {
    const double health = f.gauge_max("luqr_serve_health");
    const char* health_name = health >= 2.0   ? "DRAINING"
                              : health >= 1.0 ? "DEGRADED"
                                              : "healthy";
    std::printf("\nresilience\n");
    std::printf("  health=%s  shed=%s retries=%s watchdog_trips=%s "
                "faults_injected=%s memory_pressure=%s",
                health_name,
                fmt_count(f.counter("luqr_serve_shed_total")).c_str(),
                fmt_count(f.counter("luqr_serve_retries_total")).c_str(),
                fmt_count(f.counter("luqr_serve_watchdog_trips_total")).c_str(),
                fmt_count(f.counter("luqr_serve_faults_injected_total")).c_str(),
                fmt_count(f.counter("luqr_serve_memory_pressure_total")).c_str());
    if (dt > 0)
      std::printf("   (%.1f sheds/s, %.1f retries/s)",
                  rate("luqr_serve_shed_total"),
                  rate("luqr_serve_retries_total"));
    std::printf("\n");
  }

  // -- cache --------------------------------------------------------------
  if (f.counters.count("luqr_cache_hits_total") != 0 ||
      f.counters.count("luqr_cache_misses_total") != 0) {
    const double hits = f.counter("luqr_cache_hits_total");
    const double misses = f.counter("luqr_cache_misses_total");
    std::printf("\ncache\n");
    std::printf("  hits=%s misses=%s (%.1f%% hit rate), %s entries, %s bytes, "
                "%s evictions\n",
                fmt_count(hits).c_str(), fmt_count(misses).c_str(),
                hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0,
                fmt_count(f.gauge("luqr_cache_entries")).c_str(),
                fmt_count(f.gauge("luqr_cache_bytes")).c_str(),
                fmt_count(f.counter("luqr_cache_evictions_total")).c_str());
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--file F] [--period MS] [--once]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "metrics.json";
  int period_ms = 500;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--file") path = need_value();
    else if (arg == "--period") period_ms = std::atoi(need_value());
    else if (arg == "--once") once = true;
    else usage(argv[0]);
  }
  if (period_ms < 50) period_ms = 50;

  Frame frame, prev;
  bool have_prev = false;
  for (;;) {
    std::string error;
    const bool ok = load_frame(path, frame, error);
    if (once) {
      if (!ok) {
        std::fprintf(stderr, "luqr_top: %s\n", error.c_str());
        return 1;
      }
      render(frame, nullptr, path);
      return 0;
    }
    std::printf("\x1b[H\x1b[2J");  // home + clear: top(1)-style refresh
    if (ok) {
      render(frame, have_prev ? &prev : nullptr, path);
      prev = frame;
      have_prev = true;
    } else {
      std::printf("luqr_top — waiting for %s (%s)\n", path.c_str(),
                  error.c_str());
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
  }
}
