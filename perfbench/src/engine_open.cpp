// engine_open: an open loop of Poisson arrivals into one Engine.
//
// One generator thread submits every query at its due time and reaps the
// finished ones; the Engine pool has nproc - 1 workers, so the workload
// never runs more than nproc threads. Each query is timed from its due
// time to the moment the generator sees its result, so a stall that delays
// later submissions is charged to those queries. The mix is 15/16 cheap
// GAP-road queries (one repeated structure: plan-cache hits) and 1/16
// expensive circuit5M queries (the heavy tail the cost-model lanes exist
// for). Rates are fixed, not calibrated per run, so two commits are
// compared at the same offered load.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Engine = tilq::Engine<SR>;

constexpr const char* kCheapGraph = "GAP-road";
constexpr double kCheapScale = 1.0;
constexpr const char* kExpensiveGraph = "circuit5M";
constexpr double kExpensiveScale = 0.5;
constexpr double kExpensiveShare = 1.0 / 16.0;
/// Repeated structures per class, from different generator seeds: every
/// query after the first of each hits the plan cache, and the latency is
/// averaged over more than one random structure.
constexpr int kCheapStructures = 4;
constexpr int kExpensiveStructures = 2;

/// Offered rates (queries/s). The 4-vCPU host this was calibrated on
/// saturates near 1100 queries/s (the backlog starts to grow), so `lo` and
/// `hi` sit at about 27% and 55% of capacity, and the ladder brackets the
/// knee (p90 = 10 ms at about 950 queries/s) on both sides. A higher `hi`
/// made p90 swing by more than any allowed bound when the host steals CPU.
constexpr double kRateLo = 300.0;
constexpr double kRateHi = 600.0;
const std::vector<double> kLadder = {500, 650, 800, 950, 1100, 1250};

/// Share of the measured time given to the lo phase, the hi phase and the
/// whole ladder, and the segments each lo/hi phase and each rung is cut
/// into. Quantiles are the lower quartile over segments of each segment's
/// quantile (segmented_percentile), so stalls in most segments do not move
/// them.
constexpr double kLoShare = 0.25;
constexpr double kHiShare = 0.30;
constexpr double kLadderShare = 0.45;
constexpr int kPhaseSegments = 8;
constexpr int kRungSegments = 4;

constexpr int kSetupRuns = 3;

/// One repeated query structure and its reference output.
struct Input {
  Matrix g;
  Matrix reference;
  double static_bytes = 0.0;  ///< CSR bytes of the operand and the output
};

struct Query {
  const Input* input = nullptr;
  int span = -1;  ///< traced phases: the query's span, due -> result seen
  bool expensive = false;
  int segment = 0;
  std::uint64_t id = 0;
  double due_ms = 0.0;
  Engine::JobHandle handle;
};

/// One finished query: due -> result seen, its class, and the segment of
/// the phase its due time fell in.
struct Sample {
  double latency_ms = 0.0;
  bool expensive = false;
  int segment = 0;
};

enum class Pick { kAll, kCheap, kExpensive };

/// Raw samples of one phase at one offered rate.
struct Phase {
  double rate = 0.0;
  int segments = 1;
  std::vector<Sample> samples;
  std::vector<double> late_ms;     ///< submit start - due
  std::vector<double> submit_ms;   ///< Engine::submit duration
  std::vector<tilq::JobStats> jobs;  ///< traced phases only
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t mismatches = 0;
  std::size_t backlog = 0;  ///< queries in flight when the last was sent
  double elapsed_ms = 0.0;
  double static_bytes = 0.0;  ///< traced phases: summed Input::static_bytes

  [[nodiscard]] std::vector<double> latencies(Pick pick) const {
    std::vector<double> out;
    for (const Sample& x : samples) {
      if (pick == Pick::kAll || x.expensive == (pick == Pick::kExpensive)) {
        out.push_back(x.latency_ms);
      }
    }
    return out;
  }

  /// Each segment's q-quantile of the picked class.
  [[nodiscard]] std::vector<double> per_segment(double q, Pick pick) const {
    std::vector<double> latency;
    std::vector<int> segment;
    for (const Sample& x : samples) {
      if (pick == Pick::kAll || x.expensive == (pick == Pick::kExpensive)) {
        latency.push_back(x.latency_ms);
        segment.push_back(x.segment);
      }
    }
    return per_segment_percentiles(latency, segment, segments, q);
  }

  /// Lower quartile over segments of each segment's q-quantile of the
  /// picked class (segmented_percentile).
  [[nodiscard]] double segmented(double q, Pick pick) const {
    return percentile(per_segment(q, pick), 0.25);
  }
};

struct State {
  /// Peak RSS once inputs, references, engine and plans exist, before any
  /// load: the open loop's own peak follows its transient backlog, which
  /// host stalls drive, so it is no stable measure of the program.
  double setup_rss_mb = 0.0;
  std::vector<Input> cheap;
  std::vector<Input> expensive;
  tilq::Config config;
  std::unique_ptr<Engine> engine;
  double gen_ms = 0.0;
  std::vector<double> plan_build_ms;  ///< jobs that built their plan
};

tilq::Config engine_config(int workers) {
  tilq::Config c;
  c.strategy = tilq::MaskStrategy::kHybrid;
  c.coiteration_factor = 1.0;
  c.accumulator = tilq::AccumulatorKind::kHash;
  c.threads = workers;
  return c;
}

/// Runs one phase: Poisson arrivals at `rate` for `ms` milliseconds, cut
/// into `segments` equal segments, then waits for every query of the phase
/// to finish.
Phase run_phase(State& s, double rate, double ms, int segments,
                std::uint64_t seed, Tracer& tracer, bool keep_jobs) {
  Phase p;
  p.rate = rate;
  p.segments = segments;
  const double segment_ms = ms / segments;
  tilq::Xoshiro256 rng(seed);
  std::deque<Query> pending;
  std::uint64_t next_id = 0;

  const auto reap = [&] {
    bool any = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (!it->handle.done()) {
        ++it;
        continue;
      }
      const double seen = now_ms();
      const double latency = seen - it->due_ms;
      any = true;
      try {
        const Matrix out = it->handle.get();
        p.samples.push_back({latency, it->expensive, it->segment});
        ++p.completed;
        if (keep_jobs) {
          p.jobs.push_back(it->handle.stats());
          p.static_bytes += it->input->static_bytes;
          tracer.close(it->span);
        }
        if (!same_bits(out, it->input->reference)) {
          ++p.mismatches;
          std::fprintf(stderr, "perfbench: engine output differs from "
                               "reference\n");
        }
      } catch (const std::exception& e) {
        ++p.failed;
        std::fprintf(stderr, "perfbench: engine query failed: %s\n",
                     e.what());
      }
      it = pending.erase(it);
    }
    return any;
  };

  const double start = now_ms();
  double due = start;
  while (true) {
    due += -std::log(1.0 - rng.uniform()) * 1e3 / rate;
    if (due - start >= ms) {
      break;
    }
    const bool expensive = rng.uniform() < kExpensiveShare;
    const std::vector<Input>& pool = expensive ? s.expensive : s.cheap;
    const Input& input = pool[rng.uniform_below(pool.size())];
    // Wait for the due time, reaping meanwhile; sleep only when the next
    // query is far enough away that oversleeping cannot make it late.
    while (now_ms() < due) {
      if (!reap() && due - now_ms() > 0.3) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    Query q;
    q.expensive = expensive;
    q.segment = std::min(segments - 1,
                         static_cast<int>((due - start) / segment_ms));
    q.input = &input;
    q.id = ++next_id;
    q.due_ms = due;
    const Matrix& g = input.g;
    ++p.attempted;
    const double t0 = now_ms();
    p.late_ms.push_back(t0 - due);
    try {
      q.span = tracer.record("query", due, due, q.id);
      q.handle = s.engine->submit(g, g, g, s.config);
      const double t1 = now_ms();
      p.submit_ms.push_back(t1 - t0);
      tracer.record("submit", t0, t1, q.id, q.span);
      pending.push_back(std::move(q));
    } catch (const tilq::EngineSaturatedError&) {
      ++p.rejected;
      ++p.failed;
    } catch (const std::exception& e) {
      ++p.failed;
      std::fprintf(stderr, "perfbench: submit failed: %s\n", e.what());
    }
    p.backlog = pending.size();
  }
  while (!pending.empty()) {
    if (!reap()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  p.elapsed_ms = now_ms() - start;
  return p;
}

State set_up(const Options& o) {
  State s;
  const int workers = o.threads - 1;
  s.config = engine_config(workers);
  std::uint64_t stream = 0;
  const auto generate = [&](const char* graph, double scale, int count) {
    std::vector<Input> out(static_cast<std::size_t>(count));
    for (Input& in : out) {
      const double t0 = now_ms();
      in.g = make_input(graph, scale, derive_seed(o.seed, ++stream));
      s.gen_ms += now_ms() - t0;
      // The reference: the one-shot path under the same config.
      in.reference = tilq::masked_spgemm<SR>(in.g, in.g, in.g, s.config);
      in.static_bytes = csr_bytes(in.g) + csr_bytes(in.reference);
    }
    return out;
  };
  s.cheap = generate(kCheapGraph, kCheapScale, kCheapStructures);
  s.expensive =
      generate(kExpensiveGraph, kExpensiveScale, kExpensiveStructures);

  tilq::EngineOptions eo;
  eo.threads = workers;
  // Far above any backlog the fixed rates build, so nothing is rejected.
  eo.max_in_flight = 4096;
  eo.telemetry.enabled = false;
  eo.autotune.enabled = false;
  s.engine = std::make_unique<Engine>(eo);
  // The first submission of each structure builds and caches its plan.
  for (const std::vector<Input>* inputs : {&s.cheap, &s.expensive}) {
    for (const Input& in : *inputs) {
      Engine::JobHandle h = s.engine->submit(in.g, in.g, in.g, s.config);
      h.wait();
      s.plan_build_ms.push_back(h.stats().plan_ms);
    }
  }
  s.setup_rss_mb = peak_rss_mb();
  // Warm-up, discarded: short bursts at the hi rate, at least two, until
  // one burst's median is within 20% of the previous one's.
  Tracer off(false);
  double previous = 0.0;
  for (int burst = 0; burst < 8; ++burst) {
    const Phase w = run_phase(s, kRateHi, 250.0, 1,
                              derive_seed(o.seed, 100 + burst), off, false);
    if (w.failed + w.mismatches != 0) {
      throw std::runtime_error("engine warm-up query failed");
    }
    const double p50 = percentile(w.latencies(Pick::kAll), 0.5);
    if (burst >= 1 && std::abs(p50 - previous) <= 0.2 * previous) {
      break;
    }
    previous = p50;
  }
  return s;
}

void print_phase(const char* label, const Phase& p) {
  const Summary all = summarize(p.latencies(Pick::kAll));
  const Summary late = summarize(p.late_ms);
  std::printf("# %s rate=%.0f/s n=%zu p50=%.4f p90=%.4f p99=%.4f max=%.4f ms"
              " segmented p50=%.4f p90=%.4f ms late_p90=%.4f late_max=%.4f ms"
              " backlog=%zu rejected=%llu\n",
              label, p.rate, all.count, all.p50, all.p90, all.p99, all.max,
              p.segmented(0.5, Pick::kAll), p.segmented(0.9, Pick::kAll),
              late.p90, late.max, p.backlog,
              static_cast<unsigned long long>(p.rejected));
  for (const double q : {0.5, 0.9}) {
    std::printf("#   segments p%.0f:", q * 100);
    for (const double v : p.per_segment(q, Pick::kAll)) {
      std::printf(" %.3f", v);
    }
    std::printf("\n");
  }
}

void tally(Result& r, const Phase& p) {
  r.attempted += p.attempted;
  r.failed += p.failed;
  r.mismatches += p.mismatches;
}

/// The highest rate whose p90 meets `limit_ms`, from the ladder's
/// (rate, p90) points in ascending rate order. A rung that rejected
/// anything counts as infinitely slow. log p90 is made non-decreasing in
/// rate by pool-adjacent-violators (a stalled rung is averaged with its
/// neighbours instead of ending the ladder), and the crossing is
/// interpolated linearly between the two rungs that bracket the limit. A
/// growing backlog needs no separate test: every query is timed until its
/// result, drained ones included, so a runaway queue shows as p90.
double max_rate(const std::vector<double>& rates,
                const std::vector<double>& p90_ms, double limit_ms) {
  struct Block {
    double sum;
    int count;
  };
  std::vector<Block> blocks;
  for (const double p : p90_ms) {
    blocks.push_back({std::log(p), 1});
    while (blocks.size() > 1) {
      const Block& b = blocks.back();
      const Block& a = blocks[blocks.size() - 2];
      if (a.sum / a.count <= b.sum / b.count) {
        break;
      }
      const Block merged{a.sum + b.sum, a.count + b.count};
      blocks.pop_back();
      blocks.back() = merged;
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks) {
    fit.insert(fit.end(), static_cast<std::size_t>(b.count), b.sum / b.count);
  }
  const double limit = std::log(limit_ms);
  if (fit.front() > limit) {
    return rates.front() / 2;  // below the ladder: report half its foot
  }
  for (std::size_t k = 1; k < fit.size(); ++k) {
    if (fit[k] > limit) {
      const double f = (limit - fit[k - 1]) / (fit[k] - fit[k - 1]);
      return rates[k - 1] + f * (rates[k] - rates[k - 1]);
    }
  }
  return rates.back();
}

Result timed_run(const Options& o) {
  if (!(o.p90_limit_ms > 0.0)) {
    throw std::invalid_argument("engine_open needs --p90-limit-ms");
  }
  std::vector<double> setup_s;
  State s;
  double rss_mb = 0.0;
  for (int run = 0; run < kSetupRuns; ++run) {
    s = State{};
    const double t0 = now_ms();
    s = set_up(o);
    setup_s.push_back((now_ms() - t0) / 1e3);
    if (run == 0) {
      rss_mb = s.setup_rss_mb;
    }
  }
  Tracer off(false);
  const double ms = o.seconds * 1e3;
  const Phase lo = run_phase(s, kRateLo, ms * kLoShare, kPhaseSegments,
                             derive_seed(o.seed, 10), off, false);
  print_phase("lo", lo);
  const Phase hi = run_phase(s, kRateHi, ms * kHiShare, kPhaseSegments,
                             derive_seed(o.seed, 11), off, false);
  print_phase("hi", hi);

  Result r;
  tally(r, lo);
  tally(r, hi);
  const double rung_ms =
      ms * kLadderShare / static_cast<double>(kLadder.size());
  std::vector<double> rung_p90;
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    const Phase rung = run_phase(s, kLadder[k], rung_ms, kRungSegments,
                                 derive_seed(o.seed, 20 + k), off, false);
    print_phase("ladder", rung);
    tally(r, rung);
    rung_p90.push_back(rung.rejected == 0 ? rung.segmented(0.9, Pick::kAll)
                                          : HUGE_VAL);
  }
  const double max_qps = max_rate(kLadder, rung_p90, o.p90_limit_ms);
  std::printf("# max_rate_qps=%.2f (p90 limit %.3f ms)\n", max_qps,
              o.p90_limit_ms);

  // The open loop's cells: each query class at each operating point.
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (const Phase* p : {&lo, &hi}) {
    for (const Pick pick : {Pick::kCheap, Pick::kExpensive}) {
      p50s.push_back(p->segmented(0.5, pick));
      p90s.push_back(p->segmented(0.9, pick));
      std::printf("# class %s@%.0f n=%zu p50=%.4f p90=%.4f ms (segmented)\n",
                  pick == Pick::kCheap ? "cheap" : "expensive", p->rate,
                  p->latencies(pick).size(), p50s.back(), p90s.back());
    }
  }

  r.add("setup_s", percentile(setup_s, 0.5), "s");
  r.add("gmean_p50_ms", geomean(p50s), "ms");
  r.add("gmean_p90_ms", geomean(p90s), "ms");
  r.add("queries_per_s",
        static_cast<double>(lo.completed + hi.completed) /
            ((lo.elapsed_ms + hi.elapsed_ms) / 1e3),
        "1/s");
  r.add("lat_p50_ms.lo", lo.segmented(0.5, Pick::kAll), "ms");
  r.add("lat_p90_ms.lo", lo.segmented(0.9, Pick::kAll), "ms");
  r.add("lat_p50_ms.hi", hi.segmented(0.5, Pick::kAll), "ms");
  r.add("lat_p90_ms.hi", hi.segmented(0.9, Pick::kAll), "ms");
  r.add("max_rate_qps", max_qps, "1/s");
  r.add("ok_frac",
        static_cast<double>(r.attempted - r.failed - r.mismatches) /
            static_cast<double>(r.attempted),
        "fraction");
  r.add("peak_rss_mb", rss_mb, "MiB");
  return r;
}

std::vector<double> job_field(const std::vector<tilq::JobStats>& jobs,
                              double tilq::JobStats::*field) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const tilq::JobStats& j : jobs) {
    out.push_back(j.*field);
  }
  return out;
}

Result traced_run(const Options& o) {
  State s = set_up(o);
  const double ms = o.seconds * 1e3;
  Tracer off(false);
  // Untraced lo phase: the baseline for the tracing overhead.
  const Phase base = run_phase(s, kRateLo, ms / 3, kPhaseSegments,
                               derive_seed(o.seed, 10), off, false);

  Tracer tracer(true);
  tilq::set_metrics_enabled(true);
  const tilq::MetricCounters before = tilq::metrics_snapshot().total;
  const tilq::EngineStats e0 = s.engine->stats();
  const Phase lo = run_phase(s, kRateLo, ms / 3, kPhaseSegments,
                             derive_seed(o.seed, 10), tracer, true);
  const Phase hi = run_phase(s, kRateHi, ms / 3, kPhaseSegments,
                             derive_seed(o.seed, 11), tracer, true);
  s.engine->wait_idle();
  const tilq::EngineStats e1 = s.engine->stats();
  const tilq::MetricCounters delta =
      tilq::metrics_snapshot().total.minus(before);
  tilq::set_metrics_enabled(false);
  print_phase("lo(untraced)", base);
  print_phase("lo", lo);
  print_phase("hi", hi);

  // Plan layer: the fingerprint alone, on the cheap structure.
  std::vector<double> fingerprint_ms;
  tilq::Executor<SR> exec;
  const Matrix& probe = s.cheap.front().g;
  exec.plan(probe, probe, probe, s.config);
  for (int k = 0; k < 50; ++k) {
    SpanScope span(tracer, "plan.fingerprint", 0);
    const double t0 = now_ms();
    if (!exec.matches(probe, probe, probe)) {
      throw std::runtime_error("fingerprint of an unchanged structure moved");
    }
    fingerprint_ms.push_back(now_ms() - t0);
  }
  if (!o.trace_path.empty() && !tracer.write(o.trace_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 o.trace_path.c_str());
  }

  Result r;
  tally(r, base);
  tally(r, lo);
  tally(r, hi);
  std::vector<tilq::JobStats> jobs = lo.jobs;
  jobs.insert(jobs.end(), hi.jobs.begin(), hi.jobs.end());
  const double n = static_cast<double>(jobs.size());
  double hits = 0.0;
  double expensive = 0.0;
  double plan_ms = 0.0;
  double run_ms = 0.0;
  for (const tilq::JobStats& j : jobs) {
    hits += j.plan_cache_hit ? 1.0 : 0.0;
    expensive += j.expensive ? 1.0 : 0.0;
    plan_ms += j.plan_ms;
    run_ms += j.run_ms;
  }
  std::vector<double> submit = lo.submit_ms;
  submit.insert(submit.end(), hi.submit_ms.begin(), hi.submit_ms.end());
  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());
  const std::vector<double> queue = job_field(jobs, &tilq::JobStats::queue_ms);
  const std::vector<double> run = job_field(jobs, &tilq::JobStats::run_ms);
  const double tasks =
      static_cast<double>(e1.tasks_executed - e0.tasks_executed);

  r.add("gen.graph_ms", s.gen_ms, "ms");
  r.add("plan.build_ms", median_or_zero(s.plan_build_ms), "ms");
  r.add("plan.share", plan_ms / (plan_ms + run_ms), "ratio");
  r.add("plan.fingerprint_ms", median_or_zero(fingerprint_ms), "ms");
  double eq2 = 0.0;
  for (const std::vector<Input>* inputs : {&s.cheap, &s.expensive}) {
    for (const Input& in : *inputs) {
      tilq::Executor<SR> e;
      e.plan(in.g, in.g, in.g, s.config);
      eq2 += static_cast<double>(e.info().flop_total);
    }
  }
  r.add("plan.eq2_flops", eq2, "count");
  add_counter_metrics(r, delta, n, lo.static_bytes + hi.static_bytes);
  r.add("pool.acquisitions",
        static_cast<double>(e1.workspace.acquisitions -
                            e0.workspace.acquisitions) / n,
        "count");
  r.add("pool.constructions",
        static_cast<double>(e1.workspace.constructions -
                            e0.workspace.constructions) / n,
        "count");
  r.add("engine.submit_ms.p50", percentile(submit, 0.5), "ms");
  r.add("engine.submit_ms.p90", percentile(submit, 0.9), "ms");
  r.add("engine.queue_ms.p50", percentile(queue, 0.5), "ms");
  r.add("engine.queue_ms.p90", percentile(queue, 0.9), "ms");
  r.add("engine.run_ms.p50", percentile(run, 0.5), "ms");
  r.add("engine.run_ms.p90", percentile(run, 0.9), "ms");
  r.add("engine.plan_hit_ratio", hits / n, "ratio");
  r.add("engine.expensive_share", expensive / n, "ratio");
  r.add("engine.rejected",
        static_cast<double>(e1.jobs_rejected - e0.jobs_rejected), "count");
  r.add("engine.shed", static_cast<double>(e1.jobs_shed - e0.jobs_shed),
        "count");
  r.add("engine.deadline_misses",
        static_cast<double>(e1.deadline_misses - e0.deadline_misses), "count");
  r.add("engine.retries", static_cast<double>(e1.retries - e0.retries),
        "count");
  r.add("threadpool.tasks", tasks / n, "count");
  r.add("threadpool.steal_ratio",
        tasks > 0 ? static_cast<double>(e1.tasks_stolen - e0.tasks_stolen) /
                        tasks
                  : 0.0,
        "ratio");
  r.add("loadgen.late_p90_ms", percentile(late, 0.9), "ms");
  r.add("loadgen.late_max_ms", *std::max_element(late.begin(), late.end()),
        "ms");
  r.add("loadgen.backlog",
        static_cast<double>(std::max(lo.backlog, hi.backlog)), "count");
  r.add("trace.overhead_frac",
        lo.segmented(0.5, Pick::kAll) / base.segmented(0.5, Pick::kAll) - 1.0,
        "ratio");
  return r;
}

}  // namespace

Result run_engine_open(const Options& options) {
  return options.trace ? traced_run(options) : timed_run(options);
}

}  // namespace perfbench
