// pcsample: a minimal program-counter sampling profiler, loaded with
// LD_PRELOAD into any binary of this repo (or any other dynamically linked
// program):
//
//   LD_PRELOAD=build/tools/libpcsample.so PCSAMPLE_OUT=prof.txt ./micro_sim
//   python3 tools/pcsample_report.py prof.txt
//
// On load it arms ITIMER_PROF (process CPU time, user + system). Each SIGPROF
// stores the interrupted program counter into a fixed buffer: one atomic
// increment and one store, so the handler is async-signal-safe and can
// interrupt any thread anywhere, libc included. At exit the library writes
// the PCs followed by a copy of /proc/self/maps, which is all
// pcsample_report.py needs to map each PC to (object file, offset) and
// symbolize it with addr2line.
//
// Resolution: the kernel checks CPU-time timers on its scheduler tick, so
// samples arrive at the tick rate whatever interval is requested: about 250
// per wall-clock second for a single-threaded process on a 4-vCPU x86-64
// Linux host, and only about 330 per second with four busy threads (the
// rate is per process, not per thread). Profile runs of several seconds.
//
// PCSAMPLE_OUT names the output file (default: pcsample.<pid>.txt in the
// working directory). Only the process started with the library preloaded is
// sampled. The timer and the library both survive execve() (through
// LD_PRELOAD), so a program reached through an exec chain, such as a wrapper
// script that execs the real binary, is profiled as that same process. The
// first constructor to run stores its pid in PCSAMPLE_PID; a process with
// another pid, such as a shell from system() or any other child that inherits
// the environment, does not sample and does not write the profile. A fork()ed
// copy that exits without exec does not write it either. Under a wrapper
// that forks (timeout, a shell running several commands) set LD_PRELOAD
// inside it: `timeout 60 env LD_PRELOAD=... ./micro_sim`.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // > 1 h at 250 Hz
constexpr long kIntervalUs = 1000;  // requested; the kernel tick bounds the rate

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};
bool g_armed = false;
pid_t g_pid = 0;  // the sampled process

std::uintptr_t interrupted_pc(const void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int, siginfo_t*, void* uctx) {
  const int saved = errno;
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = interrupted_pc(uctx);
  errno = saved;
}

__attribute__((constructor)) void pcsample_start() {
  g_pid = getpid();
  const std::string self = std::to_string(g_pid);
  const char* owner = std::getenv("PCSAMPLE_PID");
  if (owner && self != owner) return;  // a child of the sampled process
  setenv("PCSAMPLE_PID", self.c_str(), 1);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  const itimerval it{{0, kIntervalUs}, {0, kIntervalUs}};
  g_armed = setitimer(ITIMER_PROF, &it, nullptr) == 0;
}

__attribute__((destructor)) void pcsample_stop() {
  if (!g_armed || getpid() != g_pid) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_armed = false;

  const char* env = std::getenv("PCSAMPLE_OUT");
  const std::string path =
      env && *env ? env : "pcsample." + std::to_string(getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "pcsample: cannot write %s\n", path.c_str());
    return;
  }
  const std::size_t taken = g_count.load(std::memory_order_relaxed);
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(out, "# pcsample samples %zu dropped %zu\n", kept, taken - kept);
  for (std::size_t i = 0; i < kept; ++i)
    std::fprintf(out, "%#llx\n", static_cast<unsigned long long>(g_pcs[i]));
  std::fputs("# maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) std::fwrite(buf, 1, n, out);
    std::fclose(maps);
  }
  std::fclose(out);
  std::fprintf(stderr, "pcsample: %zu samples -> %s\n", kept, path.c_str());
}

}  // namespace
