// SIGPROF sampling profiler, loaded into one process with LD_PRELOAD.
//
//   scripts/profile/profile.sh [-o OUT] [-- ] PROGRAM [ARGS...]
//
// or by hand:
//
//   gcc -O2 -shared -fPIC -o libnpsampler.so scripts/profile/sampler.c
//   NETPART_PROF_OUT=prof.txt LD_PRELOAD=$PWD/libnpsampler.so PROGRAM ...
//
// Each expiry of the process's ITIMER_PROF (CPU time of this process, any
// of its threads; nothing outside it) records the interrupted program
// counter into a fixed buffer.  At exit the sampler writes the process's
// mappings (/proc/self/maps) and every sampled PC with its count to
// NETPART_PROF_OUT ("%p" there becomes the pid, so a program that forks or
// execs children gets one file per process).  symbolize.py turns that file
// into a per-function profile.  A process that ends in _exit() or a fatal
// signal writes nothing.
//
// NETPART_PROF_HZ sets the sampling rate (default 1000); the kernel
// rounds the period up to its tick.  The sampler is never linked into a
// shipped binary: profile.sh builds it into build-profile/.
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)

static uintptr_t samples[MAX_SAMPLES];
static atomic_size_t taken;
static char out_path[4096];
static long hz = 1000;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c reads the interrupted PC on x86-64 and aarch64 only"
#endif
  const size_t i =
      atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

static void expand_path(const char* pattern) {
  size_t n = 0;
  for (const char* p = pattern; *p != '\0' && n + 24 < sizeof out_path;
       ++p) {
    if (p[0] == '%' && p[1] == 'p') {
      n += (size_t)snprintf(out_path + n, sizeof out_path - n, "%ld",
                            (long)getpid());
      ++p;
    } else {
      out_path[n++] = *p;
    }
  }
  out_path[n] = '\0';
}

__attribute__((constructor)) static void sampler_start(void) {
  const char* out = getenv("NETPART_PROF_OUT");
  if (out == NULL || *out == '\0') return;
  expand_path(out);
  const char* rate = getenv("NETPART_PROF_HZ");
  if (rate != NULL && atol(rate) > 0) hz = atol(rate);

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = hz >= 1000000 ? 1 : 1000000 / hz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

static int by_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return x < y ? -1 : x > y;
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (out_path[0] == '\0') return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  const size_t total = atomic_load(&taken);
  const size_t kept = total < MAX_SAMPLES ? total : MAX_SAMPLES;
  FILE* out = fopen(out_path, "w");
  if (out == NULL) {
    perror(out_path);
    return;
  }
  fprintf(out, "# netpart sampler v1\nhz %ld\nsamples %zu\ndropped %zu\n",
          hz, kept, total - kept);
  fputs("maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096 + 256];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fputs("pcs\n", out);
  qsort(samples, kept, sizeof samples[0], by_pc);
  for (size_t i = 0; i < kept;) {
    size_t j = i;
    while (j < kept && samples[j] == samples[i]) ++j;
    fprintf(out, "%lx %zu\n", (unsigned long)samples[i], j - i);
    i = j;
  }
  fclose(out);
}
