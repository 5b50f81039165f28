// The two closed-loop workloads: one caller, the next call sent only when
// the previous one returned.
//
//   warm_kernel  — each structure planned once in set-up; the caller then
//                  runs Executor::execute round-robin over four
//                  compute-bound cells. Measures the kernel and the
//                  accumulators; there is no plan work in the loop.
//   cold_oneshot — one-shot masked_spgemm calls over four planning-bound
//                  cells, cycling through several structures per cell
//                  (different generator seeds), so no two consecutive calls
//                  share a structure. Measures planning and allocation.
//
// Scales and configs are fixed here and documented, with their working
// sets, in README.md.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct CellSpec {
  const char* label;
  const char* graph;
  double scale;
  tilq::Config config;
};

tilq::Config make_config(tilq::MaskStrategy strategy,
                         tilq::AccumulatorKind accumulator,
                         tilq::Strategy mode, int threads) {
  tilq::Config c;
  c.strategy = strategy;
  c.accumulator = accumulator;
  c.mode = mode;
  c.coiteration_factor = 1.0;
  c.threads = threads;
  return c;
}

std::vector<CellSpec> warm_cells(int threads) {
  using tilq::AccumulatorKind;
  using tilq::MaskStrategy;
  using tilq::Strategy;
  return {
      {"com-Orkut/1d-maskfirst-hash", "com-Orkut", 1.0,
       make_config(MaskStrategy::kMaskFirst, AccumulatorKind::kHash,
                   Strategy::k1D, threads)},
      {"stokes/blocked", "stokes", 4.0,
       make_config(MaskStrategy::kMaskFirst, AccumulatorKind::kHash,
                   Strategy::kBlocked, threads)},
      {"circuit5M/hybrid-dense", "circuit5M", 4.0,
       make_config(MaskStrategy::kHybrid, AccumulatorKind::kDense,
                   Strategy::k1D, threads)},
      {"uk-2002/1d-maskfirst-hash", "uk-2002", 4.0,
       make_config(MaskStrategy::kMaskFirst, AccumulatorKind::kHash,
                   Strategy::k1D, threads)},
  };
}

std::vector<CellSpec> cold_cells(int threads) {
  using tilq::AccumulatorKind;
  using tilq::MaskStrategy;
  using tilq::Strategy;
  return {
      {"GAP-road/1d-hybrid", "GAP-road", 2.0,
       make_config(MaskStrategy::kHybrid, AccumulatorKind::kHash,
                   Strategy::k1D, threads)},
      {"GAP-road/blocked", "GAP-road", 2.0,
       make_config(MaskStrategy::kMaskFirst, AccumulatorKind::kHash,
                   Strategy::kBlocked, threads)},
      {"europe_osm/blocked-dense", "europe_osm", 1.0,
       make_config(MaskStrategy::kMaskFirst, AccumulatorKind::kDense,
                   Strategy::kBlocked, threads)},
      {"uk-2002/1d-hybrid", "uk-2002", 1.0,
       make_config(MaskStrategy::kHybrid, AccumulatorKind::kHash,
                   Strategy::k1D, threads)},
  };
}

/// cold_oneshot cycles through this many structures per cell.
constexpr int kColdStructures = 3;
/// The measured interval is cut into this many equal segments; a cell's
/// quantile is the lower quartile over segments of each segment's quantile
/// (segmented_percentile), so host stalls in most segments do not move it.
constexpr int kSegments = 8;
/// Full set-ups per timed run; setup_s is their median.
constexpr int kSetupRuns = 3;

struct Instance {
  Matrix g;
  Matrix reference;
  double static_bytes = 0.0;  ///< CSR bytes of the operand and the output
  std::unique_ptr<tilq::Executor<SR>> exec;  ///< warm_kernel only
};

struct Cell {
  CellSpec spec;
  std::vector<Instance> instances;
  std::vector<double> lat_ms;
  std::vector<int> segment;  ///< measurement segment of each lat_ms sample
  double traced_execute_ms = 0.0;  ///< traced run: summed execute spans
  double traced_compute_ms = 0.0;  ///< traced run: summed compute phases
};

struct State {
  bool warm = false;
  std::vector<Cell> cells;
  double gen_ms = 0.0;
  std::vector<double> plan_build_ms;  ///< every Executor::plan in set-up
};

/// Per-call accounting collected only by the traced run.
struct TraceAcc {
  tilq::ExecutionStats stats;
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double compute_ms = 0.0;
  double compact_ms = 0.0;
  double analyze_ms = 0.0;
  double static_bytes = 0.0;
  std::vector<double> plan_build_ms;
  std::vector<double> imbalance;
  tilq::WorkspacePoolStats pool{};
  std::uint64_t calls = 0;
};

/// One call of the workload on (cell, instance). `acc` non-null selects
/// the traced form, which records spans and library statistics; the cold
/// traced call is the one-shot path spelled out (plan, then execute, on a
/// fresh Executor), so its plan and execute halves can be timed apart.
Matrix call(State& s, Cell& cell, Instance& inst, Tracer& tracer,
            std::uint64_t request, TraceAcc* acc) {
  if (acc == nullptr) {
    return s.warm ? inst.exec->execute(inst.g, inst.g, inst.g)
                  : tilq::masked_spgemm<SR>(inst.g, inst.g, inst.g,
                                            cell.spec.config);
  }
  const SpanScope query(tracer, "query", request);
  if (s.warm) {
    const tilq::WorkspacePoolStats before = inst.exec->pool_stats();
    const int span = tracer.open("execute", request, query.index());
    Matrix out = inst.exec->execute(inst.g, inst.g, inst.g, acc->stats);
    acc->execute_ms += tracer.close(span);
    const tilq::WorkspacePoolStats after = inst.exec->pool_stats();
    acc->pool.acquisitions += after.acquisitions - before.acquisitions;
    acc->pool.constructions += after.constructions - before.constructions;
    return out;
  }
  tilq::Executor<SR> exec;
  const int plan_span = tracer.open("plan", request, query.index());
  exec.plan(inst.g, inst.g, inst.g, cell.spec.config);
  acc->plan_ms += tracer.close(plan_span);
  acc->plan_build_ms.push_back(exec.info().build_ms);
  const int exec_span = tracer.open("execute", request, query.index());
  Matrix out = exec.execute(inst.g, inst.g, inst.g, acc->stats);
  acc->execute_ms += tracer.close(exec_span);
  const tilq::WorkspacePoolStats pool = exec.pool_stats();
  acc->pool.acquisitions += pool.acquisitions;
  acc->pool.constructions += pool.constructions;
  return out;
}

void fold_stats(TraceAcc& acc, Cell& cell, const Instance& inst,
                double execute_ms) {
  cell.traced_execute_ms += execute_ms;
  cell.traced_compute_ms += acc.stats.compute_ms;
  acc.compute_ms += acc.stats.compute_ms;
  acc.compact_ms += acc.stats.compact_ms;
  acc.analyze_ms += acc.stats.analyze_ms;
  acc.imbalance.push_back(acc.stats.imbalance_ratio);
  acc.static_bytes += inst.static_bytes;
  ++acc.calls;
}

State set_up(bool warm, const Options& o) {
  State s;
  s.warm = warm;
  const std::vector<CellSpec> specs =
      warm ? warm_cells(o.threads) : cold_cells(o.threads);
  const int structures = warm ? 1 : kColdStructures;
  std::uint64_t stream = 0;
  for (const CellSpec& spec : specs) {
    Cell cell;
    cell.spec = spec;
    for (int k = 0; k < structures; ++k) {
      Instance inst;
      const double t0 = now_ms();
      inst.g =
          make_input(spec.graph, spec.scale, derive_seed(o.seed, ++stream));
      s.gen_ms += now_ms() - t0;
      // The reference: the one-shot path under the same config.
      inst.reference = tilq::masked_spgemm<SR>(inst.g, inst.g, inst.g,
                                               spec.config);
      inst.static_bytes = csr_bytes(inst.g) + csr_bytes(inst.reference);
      if (warm) {
        inst.exec = std::make_unique<tilq::Executor<SR>>();
        inst.exec->plan(inst.g, inst.g, inst.g, spec.config);
        s.plan_build_ms.push_back(inst.exec->info().build_ms);
      }
      cell.instances.push_back(std::move(inst));
    }
    s.cells.push_back(std::move(cell));
  }
  // Warm-up, discarded: rounds over every (cell, structure) until one
  // round's time is within 10% of the previous round's.
  Tracer off(false);
  double previous = 0.0;
  for (int round = 0; round < 12; ++round) {
    const double t0 = now_ms();
    for (Cell& cell : s.cells) {
      for (Instance& inst : cell.instances) {
        (void)call(s, cell, inst, off, 0, nullptr);
      }
    }
    const double t = now_ms() - t0;
    if (round >= 2 && std::abs(t - previous) <= 0.1 * previous) {
      break;
    }
    previous = t;
  }
  return s;
}

struct LoopCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  double elapsed_ms = 0.0;
};

/// The closed loop: round-robin over cells (and, for cold_oneshot, over
/// each cell's structures) for `ms` milliseconds, stopping on a round
/// boundary so every cell gets the same number of calls. Each output is
/// compared with its reference after the call's latency is recorded.
LoopCounts closed_loop(State& s, double ms, Tracer& tracer, TraceAcc* acc) {
  LoopCounts n;
  const std::size_t cells = s.cells.size();
  const std::size_t structures = s.cells.front().instances.size();
  const double start = now_ms();
  for (std::uint64_t i = 0;; ++i) {
    if (i % cells == 0 && now_ms() - start >= ms) {
      break;
    }
    Cell& cell = s.cells[i % cells];
    Instance& inst = cell.instances[(i / cells) % structures];
    ++n.attempted;
    try {
      const double t0 = now_ms();
      const double execute_before = acc != nullptr ? acc->execute_ms : 0.0;
      const Matrix out = call(s, cell, inst, tracer, i, acc);
      cell.lat_ms.push_back(now_ms() - t0);
      cell.segment.push_back(std::min(
          kSegments - 1, static_cast<int>((t0 - start) / (ms / kSegments))));
      if (acc != nullptr) {
        fold_stats(*acc, cell, inst, acc->execute_ms - execute_before);
      }
      if (!same_bits(out, inst.reference)) {
        ++n.mismatches;
        std::fprintf(stderr, "perfbench: %s output differs from reference\n",
                     cell.spec.label);
      }
    } catch (const std::exception& e) {
      ++n.failed;
      std::fprintf(stderr, "perfbench: %s call failed: %s\n", cell.spec.label,
                   e.what());
    }
  }
  n.elapsed_ms = now_ms() - start;
  return n;
}

void print_cells(const State& s) {
  for (const Cell& cell : s.cells) {
    const Summary sum = summarize(cell.lat_ms);
    const Instance& inst = cell.instances.front();
    std::printf("# cell %-26s nnz=%lld B=%.2fMiB n=%zu p50=%.4f p90=%.4f "
                "p99=%.4f max=%.4f ms",
                cell.spec.label, static_cast<long long>(inst.g.nnz()),
                csr_bytes(inst.g) / (1 << 20), sum.count, sum.p50, sum.p90,
                sum.p99, sum.max);
    for (const double q : {0.5, 0.9}) {
      std::printf(" seg_p%.0f=", q * 100);
      for (const double v :
           per_segment_percentiles(cell.lat_ms, cell.segment, kSegments, q)) {
        std::printf("%.3f,", v);
      }
    }
    if (cell.traced_execute_ms > 0.0) {
      std::printf(" compute_share=%.4f",
                  cell.traced_compute_ms / cell.traced_execute_ms);
    }
    std::printf("\n");
  }
}

std::vector<double> cell_quantiles(const State& s, double q) {
  std::vector<double> out;
  for (const Cell& cell : s.cells) {
    out.push_back(
        segmented_percentile(cell.lat_ms, cell.segment, kSegments, q));
  }
  return out;
}

Result timed_run(bool warm, const Options& o) {
  std::vector<double> setup_s;
  State s;
  for (int run = 0; run < kSetupRuns; ++run) {
    s = State{};  // release the previous set-up first: peak RSS is one set-up
    const double t0 = now_ms();
    s = set_up(warm, o);
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  Tracer off(false);
  const LoopCounts n = closed_loop(s, o.seconds * 1e3, off, nullptr);
  print_cells(s);

  // Calls per second: the upper quartile over segments of each segment's
  // rate, the counterpart of the latencies' lower quartile (the last
  // segment runs on to the end of its round).
  std::vector<double> seg_calls(kSegments, 0.0);
  for (const Cell& cell : s.cells) {
    for (const int k : cell.segment) {
      seg_calls[static_cast<std::size_t>(k)] += 1.0;
    }
  }
  const double seg_s = o.seconds / kSegments;
  std::vector<double> seg_rates;
  for (int k = 0; k < kSegments; ++k) {
    const double duration = k + 1 < kSegments
                                ? seg_s
                                : n.elapsed_ms / 1e3 - (kSegments - 1) * seg_s;
    seg_rates.push_back(seg_calls[static_cast<std::size_t>(k)] / duration);
  }
  const double qps = percentile(seg_rates, 0.75);
  const double p50 = geomean(cell_quantiles(s, 0.5));
  const double p90 = geomean(cell_quantiles(s, 0.9));

  Result r;
  r.attempted = n.attempted;
  r.failed = n.failed;
  r.mismatches = n.mismatches;
  r.add("setup_s", percentile(setup_s, 0.5), "s");
  r.add("gmean_p50_ms", p50, "ms");
  r.add("gmean_p90_ms", p90, "ms");
  r.add("queries_per_s", qps, "1/s");
  // A one-caller closed loop has a single load point: its "lo" and "hi"
  // latencies are both the per-cell latency at that point, and its highest
  // sustained rate is the rate it ran at (README.md, "Metrics").
  r.add("lat_p50_ms.lo", p50, "ms");
  r.add("lat_p90_ms.lo", p90, "ms");
  r.add("lat_p50_ms.hi", p50, "ms");
  r.add("lat_p90_ms.hi", p90, "ms");
  r.add("max_rate_qps", qps, "1/s");
  r.add("ok_frac",
        static_cast<double>(n.attempted - n.failed - n.mismatches) /
            static_cast<double>(n.attempted),
        "fraction");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

Result traced_run(bool warm, const Options& o) {
  State s = set_up(warm, o);
  Tracer off(false);
  // First half untraced: the baseline for the tracing overhead and the
  // T-thread side of the parallel efficiency.
  LoopCounts n = closed_loop(s, o.seconds * 1e3 / 2, off, nullptr);
  const std::vector<double> untraced_p50 = cell_quantiles(s, 0.5);
  for (Cell& cell : s.cells) {
    cell.lat_ms.clear();
    cell.segment.clear();
  }

  Tracer tracer(true);
  TraceAcc acc;
  tilq::set_metrics_enabled(true);
  const tilq::MetricCounters before = tilq::metrics_snapshot().total;
  const LoopCounts traced = closed_loop(s, o.seconds * 1e3 / 2, tracer, &acc);
  const tilq::MetricCounters delta =
      tilq::metrics_snapshot().total.minus(before);
  tilq::set_metrics_enabled(false);
  n.attempted += traced.attempted;
  n.failed += traced.failed;
  n.mismatches += traced.mismatches;
  print_cells(s);
  const std::vector<double> traced_p50 = cell_quantiles(s, 0.5);

  // Plan layer: the fingerprint check alone (Executor::matches), and the
  // Eq-2 work of every structure the loop visits.
  std::vector<double> fingerprint_ms;
  double eq2_flops = 0.0;
  for (Cell& cell : s.cells) {
    for (Instance& inst : cell.instances) {
      tilq::Executor<SR> exec;
      exec.plan(inst.g, inst.g, inst.g, cell.spec.config);
      eq2_flops += static_cast<double>(exec.info().flop_total);
      for (int k = 0; k < 5; ++k) {
        SpanScope span(tracer, "plan.fingerprint", 0);
        const double t0 = now_ms();
        const bool same = exec.matches(inst.g, inst.g, inst.g);
        fingerprint_ms.push_back(now_ms() - t0);
        if (!same) {
          ++n.failed;
        }
      }
    }
  }

  // Tiling layer: single-thread time of the same calls, against the
  // untraced T-thread medians.
  double serial = 0.0;
  double parallel = 0.0;
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    Cell& cell = s.cells[c];
    Instance& inst = cell.instances.front();
    tilq::Config one = cell.spec.config;
    one.threads = 1;
    tilq::Executor<SR> exec;
    exec.plan(inst.g, inst.g, inst.g, one);
    std::vector<double> t1;
    for (int k = 0; k < 3; ++k) {
      const double t0 = now_ms();
      const Matrix out = warm ? exec.execute(inst.g, inst.g, inst.g)
                              : tilq::masked_spgemm<SR>(inst.g, inst.g,
                                                        inst.g, one);
      t1.push_back(now_ms() - t0);
      if (!same_bits(out, inst.reference)) {
        ++n.mismatches;
      }
    }
    serial += percentile(t1, 0.5);
    parallel += untraced_p50[c];
  }

  if (!o.trace_path.empty() && !tracer.write(o.trace_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 o.trace_path.c_str());
  }

  const double calls = static_cast<double>(acc.calls);
  // Plan-layer time inside the loop: the plan() calls (cold_oneshot) plus
  // the structure check each execute runs before computing.
  const double plan_time = acc.plan_ms + acc.analyze_ms;
  Result r;
  r.attempted = n.attempted;
  r.failed = n.failed;
  r.mismatches = n.mismatches;
  r.add("gen.graph_ms", s.gen_ms, "ms");
  const std::vector<double>& builds =
      warm ? s.plan_build_ms : acc.plan_build_ms;
  r.add("plan.build_ms", median_or_zero(builds), "ms");
  r.add("plan.share", plan_time / (acc.plan_ms + acc.execute_ms), "ratio");
  r.add("plan.fingerprint_ms", median_or_zero(fingerprint_ms), "ms");
  r.add("plan.eq2_flops", eq2_flops, "count");
  r.add("tiling.imbalance_ratio", median_or_zero(acc.imbalance), "ratio");
  r.add("tiling.parallel_eff",
        serial / (static_cast<double>(o.threads) * parallel), "ratio");
  r.add("execute.ms", acc.execute_ms / calls, "ms");
  r.add("execute.compute_ms", acc.compute_ms / calls, "ms");
  r.add("execute.compact_ms", acc.compact_ms / calls, "ms");
  r.add("execute.compute_share", acc.compute_ms / acc.execute_ms, "ratio");
  add_counter_metrics(r, delta, calls, acc.static_bytes);
  r.add("pool.acquisitions",
        static_cast<double>(acc.pool.acquisitions) / calls, "count");
  r.add("pool.constructions",
        static_cast<double>(acc.pool.constructions) / calls, "count");
  r.add("trace.overhead_frac",
        geomean(traced_p50) / geomean(untraced_p50) - 1.0, "ratio");
  return r;
}

}  // namespace

Result run_warm_kernel(const Options& options) {
  return options.trace ? traced_run(true, options)
                       : timed_run(true, options);
}

Result run_cold_oneshot(const Options& options) {
  return options.trace ? traced_run(false, options)
                       : timed_run(false, options);
}

}  // namespace perfbench
