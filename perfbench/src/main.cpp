// perfbench: the tilq benchmark of record. See README.md in this directory
// for the workloads, the metrics and why each was chosen.
//
//   perfbench --workload warm_kernel|cold_oneshot|engine_open --seed N
//             --seconds S --trace 0|1 [--p90-limit-ms L] [--trace-file F]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics, measured with the
// library's counters and tracing off; with --trace 1 they are the per-layer
// metrics of a separate traced run. run.py checks them against the names
// and units BENCHMARK.json declares. The exit code is non-zero when any
// output differs from its reference or any query fails.
#include <sys/resource.h>

#include <omp.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "stats.hpp"

extern char** environ;

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%" PRIu64 "}}",
                  i == 0 ? "" : ",\n", s.name, s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3, i, s.parent, s.request);
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Matrix make_input(const std::string& name, double scale, std::uint64_t seed) {
  Matrix g = tilq::make_collection_graph(name, scale, seed);
  tilq::Xoshiro256 rng(derive_seed(seed, 0x76616c756573ULL));  // "values"
  std::vector<double> values(static_cast<std::size_t>(g.nnz()));
  for (double& v : values) {
    v = 0.5 + rng.uniform();
  }
  const auto rp = g.row_ptr();
  const auto ci = g.col_idx();
  return Matrix(g.rows(), g.cols(), {rp.begin(), rp.end()},
                {ci.begin(), ci.end()}, std::move(values));
}

bool same_bits(const Matrix& x, const Matrix& y) {
  const auto bytes_equal = [](auto p, auto q) {
    return p.size() == q.size() &&
           (p.empty() || std::memcmp(p.data(), q.data(), p.size_bytes()) == 0);
  };
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         bytes_equal(x.row_ptr(), y.row_ptr()) &&
         bytes_equal(x.col_idx(), y.col_idx()) &&
         bytes_equal(x.values(), y.values());
}

double csr_bytes(const Matrix& m) {
  return static_cast<double>(m.row_ptr().size_bytes() +
                             m.col_idx().size_bytes() +
                             m.values().size_bytes());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  tilq::SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return mix.next();
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : percentile(values, 0.5);
}

void add_counter_metrics(Result& r, const tilq::MetricCounters& d,
                         double queries, double static_bytes) {
  const auto per = [&](std::uint64_t v) {
    return static_cast<double>(v) / queries;
  };
  const double inserts = static_cast<double>(d.accum_inserts);
  const double rejects = static_cast<double>(d.accum_rejects);
  r.add("accum.inserts", per(d.accum_inserts), "count");
  r.add("accum.rejects", per(d.accum_rejects), "count");
  r.add("accum.useful_ratio",
        inserts + rejects > 0 ? inserts / (inserts + rejects) : 0.0, "ratio");
  r.add("accum.hash_probes", per(d.hash_probes), "count");
  r.add("accum.probes_per_insert",
        inserts > 0 ? static_cast<double>(d.hash_probes) / inserts : 0.0,
        "ratio");
  r.add("accum.degrades", per(d.accum_degrades), "count");
  r.add("kernel.flops", per(d.flops), "count");
  r.add("kernel.binary_search_steps", per(d.binary_search_steps), "count");
  // Per busy thread: busy_ns sums the compute loops of every thread.
  const double busy_ns = static_cast<double>(d.busy_ns);
  r.add("kernel.mflop_per_s",
        busy_ns > 0 ? static_cast<double>(d.flops) * 1e3 / busy_ns : 0.0,
        "Mflop/s");
  const double entry_bytes = sizeof(std::int64_t) + sizeof(double);
  r.add("kernel.computed_bytes",
        (static_bytes + static_cast<double>(d.flops) * entry_bytes) / queries,
        "bytes");
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "warm_kernel|cold_oneshot|engine_open --seed N --seconds S "
               "--trace 0|1 [--p90-limit-ms L] [--trace-file F]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage(("bad argument " + key).c_str());
    }
    args[key] = argv[++i];
  }
  const auto take = [&](const char* key) -> std::string {
    const auto it = args.find(key);
    if (it == args.end()) {
      usage((std::string("missing ") + key).c_str());
    }
    std::string v = it->second;
    args.erase(it);
    return v;
  };
  try {
    o.workload = take("--workload");
    o.seed = std::stoull(take("--seed"));
    o.seconds = std::stod(take("--seconds"));
    o.trace = std::stoi(take("--trace")) != 0;
    if (args.count("--p90-limit-ms") != 0) {
      o.p90_limit_ms = std::stod(take("--p90-limit-ms"));
    }
    if (args.count("--trace-file") != 0) {
      o.trace_path = take("--trace-file");
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (!args.empty()) {
    usage(("unknown option " + args.begin()->first).c_str());
  }
  if (!(o.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  o.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (o.threads < 2) {
    usage("needs at least 2 hardware threads");
  }
  return o;
}

/// The timed runs must not see any library switch: counters, tracing,
/// telemetry, tuning and fault injection all come from TILQ_* variables.
void refuse_tilq_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TILQ_", 5) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset every "
                   "TILQ_* variable\n",
                   *e);
      std::exit(2);
    }
  }
}

void print_environment(const Options& o) {
  const auto env_or = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? v : "(unset)";
  };
  std::printf("# environment: nproc=%d omp_max_threads=%d build=%s "
              "TILQ_METRICS_ENABLED=%d TILQ_HARDENED=%d\n",
              o.threads, omp_get_max_threads(), PERFBENCH_BUILD_TYPE,
              TILQ_METRICS_ENABLED, TILQ_HARDENED);
  std::string omp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) == 0) {
      omp += std::string(" ") + *e;
    }
  }
  std::printf("# environment: OMP_*:%s GOMP_SPINCOUNT=%s\n",
              omp.empty() ? " (none)" : omp.c_str(), env_or("GOMP_SPINCOUNT"));
  std::printf("# run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0);
}

/// A metric reported twice or with a non-finite value is a benchmark bug.
void check_metrics(const Result& r) {
  std::map<std::string, int> seen;
  for (const Metric& m : r.metrics) {
    if (++seen[m.name] > 1) {
      throw std::logic_error("metric reported twice: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::logic_error("non-finite value for " + m.name);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  refuse_tilq_environment();
  tilq::set_metrics_enabled(false);
  // Hardware counters are no metric of this benchmark; keeping them off
  // keeps the traced run's overhead to the software counters.
  tilq::set_perf_enabled(false);
  print_environment(options);

  Result result;
  try {
    if (options.workload == "warm_kernel") {
      result = run_warm_kernel(options);
    } else if (options.workload == "cold_oneshot") {
      result = run_cold_oneshot(options);
    } else if (options.workload == "engine_open") {
      result = run_engine_open(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  try {
    check_metrics(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const std::uint64_t failed = result.failed + result.mismatches;
  const bool correct = result.mismatches == 0 && result.attempted > 0;
  std::printf("# queries: attempted=%" PRIu64 " failed=%" PRIu64
              " mismatches=%" PRIu64 "\n",
              result.attempted, result.failed, result.mismatches);
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
