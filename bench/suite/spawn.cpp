// msol_spawn — runs one command as a child process and reports what it cost.
//
//   msol_spawn TIMEOUT_S PROGRAM [ARGS...]
//
// Prints one line on stdout, `wall_s cpu_s maxrss_kb exit_code timed_out`,
// where cpu_s (user + system) and maxrss_kb come from the child's wait4
// rusage and the child is SIGKILLed after TIMEOUT_S seconds (0 = never).
// The child's stdout goes to /dev/null; its stderr is inherited.
//
// Why a separate helper instead of timing the child from run.py directly:
// Linux charges a child the peak RSS of the address space it had before
// exec, and a child forked (or vforked) from the Python script starts out
// with the interpreter's ~12 MB. Forked from this small process instead,
// the child's ru_maxrss is its own peak plus this helper's ~1 MB.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_child = 0;
volatile sig_atomic_t g_timed_out = 0;

void on_alarm(int) {
  g_timed_out = 1;
  if (g_child > 0) kill(g_child, SIGKILL);
}

double seconds(const timespec& t) { return t.tv_sec + t.tv_nsec * 1e-9; }

double seconds(const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: msol_spawn TIMEOUT_S PROGRAM [ARGS...]\n");
    return 2;
  }
  char* end = nullptr;
  const double timeout = std::strtod(argv[1], &end);
  if (end == argv[1] || *end != '\0' || !(timeout >= 0.0)) {
    std::fprintf(stderr, "msol_spawn: bad timeout '%s'\n", argv[1]);
    return 2;
  }

  struct sigaction action {};
  action.sa_handler = on_alarm;  // no SA_RESTART: wait4 must see EINTR
  sigaction(SIGALRM, &action, nullptr);

  const pid_t parent = getpid();
  timespec start{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("msol_spawn: fork");
    return 1;
  }
  if (child == 0) {
    // The child must not outlive this helper if the helper is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execvp(argv[2], argv + 2);
    std::perror("msol_spawn: exec");
    _exit(127);
  }
  g_child = child;
  if (timeout > 0.0) {
    itimerval timer{};
    timer.it_value.tv_sec = static_cast<time_t>(timeout);
    timer.it_value.tv_usec =
        static_cast<suseconds_t>((timeout - static_cast<double>(
                                                timer.it_value.tv_sec)) *
                                 1e6);
    if (timer.it_value.tv_sec == 0 && timer.it_value.tv_usec == 0) {
      timer.it_value.tv_usec = 1;
    }
    setitimer(ITIMER_REAL, &timer, nullptr);
  }

  int status = 0;
  rusage usage{};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("msol_spawn: wait4");
      return 1;
    }
  }
  timespec stop{};
  clock_gettime(CLOCK_MONOTONIC, &stop);

  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status);
  std::printf("%.9f %.6f %ld %d %d\n", seconds(stop) - seconds(start),
              seconds(usage.ru_utime) + seconds(usage.ru_stime),
              usage.ru_maxrss, exit_code, static_cast<int>(g_timed_out));
  return 0;
}
