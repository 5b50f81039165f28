#include "support/perf.hpp"

#include "support/metrics.hpp"  // runtime gate for the one-line notice

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#if TILQ_METRICS_ENABLED && defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

#if TILQ_METRICS_ENABLED
#include <atomic>
#endif

namespace tilq {

bool perf_env_disables(const char* value) noexcept {
  if (value == nullptr) {
    return false;
  }
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return v == "0" || v == "off" || v == "false";
}

#if TILQ_METRICS_ENABLED

namespace {

/// Process-wide gate: starts from TILQ_PERF, flips to false on the first
/// failed open so no other thread retries (or warns) after that.
std::atomic<bool> g_perf_enabled{!perf_env_disables(std::getenv("TILQ_PERF"))};
std::atomic<int> g_unavailable_notices{0};

/// The single unavailable notice: printed only when the metrics runtime
/// gate is open (a plain library user never sees perf chatter), and at
/// most once per process no matter how many threads or scopes fall back.
void note_unavailable_once(const char* why) {
  if (!metrics_enabled()) {
    return;  // silent-by-default contract
  }
  int expected = 0;
  if (g_unavailable_notices.compare_exchange_strong(expected, 1)) {
    std::fprintf(stderr,
                 "tilq perf: hardware counters unavailable (%s); "
                 "records will carry \"hw\":null\n",
                 why);
  }
}

#if defined(__linux__)

long perf_event_open_syscall(perf_event_attr* attr, pid_t pid, int cpu,
                             int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// Slots of the group, in TILQ_HW_COUNTERS row order. The leader must
/// open; members are optional and skipped individually when the PMU or the
/// kernel rejects them.
enum Slot {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcMisses,
  kBranchMisses,
  kStalledCycles,
  kSlotCount,
};
static_assert(sizeof(HwCounters) == kSlotCount * sizeof(std::uint64_t),
              "one group slot per TILQ_HW_COUNTERS row");

constexpr std::uint64_t cache_config(std::uint64_t cache, std::uint64_t op,
                                     std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

/// One thread's counter group. Opened on the thread's first read, closed
/// when the thread exits (deltas consumers took remain valid — they are
/// plain values, not handles into the group).
class ThreadGroup {
 public:
  ThreadGroup() { open(); }

  ~ThreadGroup() {
    for (const int fd : fds_) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }

  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fds_[kCycles] >= 0; }

  [[nodiscard]] HwCounters read_now() noexcept {
    HwCounters out;
    if (!ok()) {
      return out;
    }
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, then
    // {value, id} per group member.
    std::uint64_t buf[3 + 2 * kSlotCount] = {};
    const ssize_t n = read(fds_[kCycles], buf, sizeof buf);
    if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) {
      return out;
    }
    const std::uint64_t nr = buf[0];
    const std::uint64_t enabled = buf[1];
    const std::uint64_t running = buf[2];
    if (running == 0) {
      return out;  // group never scheduled: report "no data", not garbage
    }
    // Multiplexing correction: scale cumulative values by enabled/running.
    const double scale =
        enabled > running
            ? static_cast<double>(enabled) / static_cast<double>(running)
            : 1.0;
#define TILQ_HW_FIELD_ADDRESS(name, help) &out.name,
    std::uint64_t* const fields[kSlotCount] = {
        TILQ_HW_COUNTERS(TILQ_HW_FIELD_ADDRESS)};
#undef TILQ_HW_FIELD_ADDRESS
    for (std::uint64_t e = 0; e < nr && e < kSlotCount; ++e) {
      const std::uint64_t value = buf[3 + 2 * e];
      const std::uint64_t id = buf[3 + 2 * e + 1];
      for (int s = 0; s < kSlotCount; ++s) {
        if (fds_[s] >= 0 && ids_[s] == id) {
          *fields[s] =
              static_cast<std::uint64_t>(static_cast<double>(value) * scale);
          break;
        }
      }
    }
    return out;
  }

 private:
  struct EventSpec {
    std::uint32_t type;
    std::uint64_t config;
  };

  void open() {
    for (int s = 0; s < kSlotCount; ++s) {
      fds_[s] = -1;
      ids_[s] = 0;
    }
    if (open_slot(kCycles, {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES}) <
        0) {
      return;  // no leader, no group
    }
    open_slot(kInstructions, {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS});
    // LLC read accesses/misses; fall back to the generic cache-reference
    // events when the LL cache-event table is not wired up (common on VMs).
    if (open_slot(kLlcLoads,
                  {PERF_TYPE_HW_CACHE,
                   cache_config(PERF_COUNT_HW_CACHE_LL,
                                PERF_COUNT_HW_CACHE_OP_READ,
                                PERF_COUNT_HW_CACHE_RESULT_ACCESS)}) < 0) {
      open_slot(kLlcLoads,
                {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES});
    }
    if (open_slot(kLlcMisses,
                  {PERF_TYPE_HW_CACHE,
                   cache_config(PERF_COUNT_HW_CACHE_LL,
                                PERF_COUNT_HW_CACHE_OP_READ,
                                PERF_COUNT_HW_CACHE_RESULT_MISS)}) < 0) {
      open_slot(kLlcMisses, {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES});
    }
    open_slot(kBranchMisses,
              {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES});
    if (open_slot(kStalledCycles,
                  {PERF_TYPE_HARDWARE,
                   PERF_COUNT_HW_STALLED_CYCLES_BACKEND}) < 0) {
      open_slot(kStalledCycles,
                {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_FRONTEND});
    }
    // Start the whole group (the leader was created disabled).
    ioctl(fds_[kCycles], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fds_[kCycles], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }

  int open_slot(int slot, EventSpec spec) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = spec.type;
    attr.config = spec.config;
    attr.disabled = slot == kCycles ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const int group_fd = slot == kCycles ? -1 : fds_[kCycles];
    const long fd = perf_event_open_syscall(&attr, /*pid=*/0, /*cpu=*/-1,
                                            group_fd, /*flags=*/0);
    if (fd < 0) {
      return -1;
    }
    fds_[slot] = static_cast<int>(fd);
    std::uint64_t id = 0;
    if (ioctl(static_cast<int>(fd), PERF_EVENT_IOC_ID, &id) == 0) {
      ids_[slot] = id;
    }
    return static_cast<int>(fd);
  }

  int fds_[kSlotCount];
  std::uint64_t ids_[kSlotCount];
};

/// The calling thread's group, or nullptr when perf is (or just became)
/// unavailable. The first failure anywhere closes the process-wide gate.
ThreadGroup* thread_group() {
  if (!g_perf_enabled.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  thread_local ThreadGroup group;
  if (!group.ok()) {
    g_perf_enabled.store(false, std::memory_order_relaxed);
    note_unavailable_once(
        "perf_event_open failed; check /proc/sys/kernel/perf_event_paranoid");
    return nullptr;
  }
  return &group;
}

#endif  // __linux__

}  // namespace

#if defined(__linux__)

bool perf_available() noexcept { return thread_group() != nullptr; }

HwCounters perf_read_thread() noexcept {
  ThreadGroup* const group = thread_group();
  return group != nullptr ? group->read_now() : HwCounters{};
}

#else  // no syscall to try off-Linux: permanently unavailable

bool perf_available() noexcept {
  if (g_perf_enabled.load(std::memory_order_relaxed)) {
    g_perf_enabled.store(false, std::memory_order_relaxed);
    note_unavailable_once("perf_event_open requires Linux");
  }
  return false;
}

HwCounters perf_read_thread() noexcept { return {}; }

#endif  // __linux__

void set_perf_enabled(bool enabled) noexcept {
  g_perf_enabled.store(enabled, std::memory_order_relaxed);
}

int perf_unavailable_notices() noexcept {
  return g_unavailable_notices.load(std::memory_order_relaxed);
}

#endif  // TILQ_METRICS_ENABLED

}  // namespace tilq
