// perfbench_run: the measuring half of the repository benchmark (run.py
// builds it, prepares the cells once, and calls it per run).
//
//   perfbench_run prepare DIR
//   perfbench_run run --workload NAME --seed N --seconds S --trace 0|1
//                     --prep DIR [--trace-dir DIR]
//
// A run pins the whole process to one CPU before any thread exists, so the
// library's pool, the serving threads and the client threads all share
// that core with the reference loop the drift correction relies on.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run prepare DIR\n"
               "       perfbench_run run --workload "
               "trusted_wire|hostile_batch|pgd_attack --seed N --seconds S "
               "--trace 0|1 --prep DIR [--trace-dir DIR]\n");
  return 2;
}

/// Soaks up the pinned CPU's idle time at SCHED_IDLE priority, which any
/// other thread preempts on wake-up. The serving workloads idle for about
/// 2% of a run between thread handoffs, and on the dev host a vCPU that
/// halted there came back at a speed that varied by up to 1.5x from run to
/// run (README.md, "Why a closed loop on one core").
class IdleSpinner {
 public:
  IdleSpinner() : thread_([this] { spin(); }) {}
  ~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  void spin() {
    sched_param param{};
    // At normal priority the spinner would compete with the benchmark.
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
      return;
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Pin the calling thread (and every thread it later creates) to the last
/// CPU it may run on. Returns the CPU, or -1 on failure.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

int run(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "prepare")
    return prepare(argv[2]);
  if (argc < 2 || std::string(argv[1]) != "run") return usage();
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::stoull(val);
    else if (key == "--seconds") args.seconds = std::stod(val);
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--prep") args.prep_dir = val;
    else if (key == "--trace-dir") args.trace_dir = val;
    else return usage();
  }
  if (args.prep_dir.empty() || args.seconds <= 0.0) return usage();

  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }
  // Library pool at one thread: see README.md on the parallel_for race.
  setenv("SNNSEC_THREADS", "1", 1);
  if (snnsec::util::ThreadPool::global().size() != 1) {
    std::fprintf(stderr, "perfbench: thread pool is not single-threaded\n");
    return 1;
  }
  const IdleSpinner spinner;
  const Prepared prep = load_prepared(args.prep_dir);
  Report report;
  report.note("workload " + args.workload + " seed " +
              std::to_string(args.seed) + " cpu " + std::to_string(cpu) +
              (args.trace ? " traced" : ""));
  if (args.workload == "trusted_wire")
    return run_trusted_wire(args, prep, report);
  if (args.workload == "hostile_batch")
    return run_hostile_batch(args, prep, report);
  if (args.workload == "pgd_attack") return run_pgd_attack(args, prep, report);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
