#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "obs/metrics.h"
#include "service/catalogs.h"

extern char** environ;

namespace perfbench {
namespace {

std::mutex g_children_mu;
std::set<pid_t> g_children;  // live (unreaped) children

std::string SelfExe() {
  char buf[PATH_MAX];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) Fail("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<size_t>(n));
}

void WriteAll(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void KillAllChildren() {
  std::set<pid_t> children;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    children.swap(g_children);
  }
  for (pid_t pid : children) kill(pid, SIGKILL);
  for (pid_t pid : children) waitpid(pid, nullptr, 0);
}

std::unique_ptr<StorageProc> StorageProc::Spawn(const std::string& id,
                                                const std::string& config_path,
                                                size_t entities,
                                                const std::string& log_dir) {
  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    Fail("pipe failed spawning " + id);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  const std::string exe = SelfExe();
  const std::string entities_arg = std::to_string(entities);
  const std::string log_arg = log_dir.empty() ? "-" : log_dir;
  std::vector<char*> argv = {const_cast<char*>(exe.c_str()),
                             const_cast<char*>("storage-node"),
                             const_cast<char*>(config_path.c_str()),
                             const_cast<char*>(id.c_str()),
                             const_cast<char*>(entities_arg.c_str()),
                             const_cast<char*>(log_arg.c_str()), nullptr};
  std::unique_ptr<StorageProc> proc(new StorageProc());
  proc->id_ = id;
  {
    // Registered under the lock so Fail() on another thread reaps it.
    std::lock_guard<std::mutex> lock(g_children_mu);
    if (posix_spawn(&proc->pid_, exe.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      proc->pid_ = -1;
    } else {
      g_children.insert(proc->pid_);
    }
  }
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  proc->to_child_ = in_pipe[1];
  proc->from_child_ = out_pipe[0];
  if (proc->pid_ < 0) Fail("posix_spawn failed for storage node " + id);

  std::istringstream line(proc->ReadLine(120'000));
  std::string word;
  unsigned port = 0;
  line >> word >> port >> proc->start_ns_;
  if (word != "bound" || port == 0) Fail("storage node " + id + " sent no port");
  proc->port_ = static_cast<uint16_t>(port);
  return proc;
}

StorageProc::~StorageProc() { Stop(); }

std::string StorageProc::ReadLine(int timeout_ms) {
  std::string text;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0) {
      Fail("storage node " + id_ + " (pid " + std::to_string(pid_) +
           ") did not answer within " + std::to_string(timeout_ms) + " ms");
    }
    pollfd pfd{from_child_, POLLIN, 0};
    if (poll(&pfd, 1, left) <= 0) continue;
    char c;
    ssize_t n = read(from_child_, &c, 1);
    if (n <= 0) {
      int status = 0;
      std::string how = "closed its pipe";
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        how = WIFSIGNALED(status)
                  ? "was killed by signal " + std::to_string(WTERMSIG(status))
                  : "exited with status " +
                        std::to_string(WEXITSTATUS(status));
        std::lock_guard<std::mutex> lock(g_children_mu);
        g_children.erase(pid_);
        pid_ = -1;
      }
      Fail("storage node " + id_ + " " + how);
    }
    if (c == '\n') return text;
    text.push_back(c);
  }
}

void StorageProc::Reap() {
  if (pid_ > 0) {
    waitpid(pid_, nullptr, 0);
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.erase(pid_);
  }
  pid_ = -1;
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  to_child_ = from_child_ = -1;
}

void StorageProc::Kill() {
  if (pid_ > 0) kill(pid_, SIGKILL);
  Reap();
}

void StorageProc::Stop() {
  if (to_child_ >= 0) {
    close(to_child_);
    to_child_ = -1;
  }
  if (pid_ > 0) {
    // A clean stop takes milliseconds; a wedged child is killed.
    for (int i = 0; i < 5000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        std::lock_guard<std::mutex> lock(g_children_mu);
        g_children.erase(pid_);
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  Kill();
}

StorageProc::Converged StorageProc::AwaitVersion(uint64_t sequence) {
  WriteAll(to_child_, "await " + std::to_string(sequence) + "\n");
  std::istringstream line(ReadLine(60'000));
  std::string word;
  Converged out;
  line >> word >> out.at_ns >> out.repair_fetches >> out.repair_entries;
  if (word != "converged") {
    Fail("storage node " + id_ + " never reached write sequence " +
         std::to_string(sequence));
  }
  return out;
}

// --- child side -------------------------------------------------------------

int StorageNodeMain(int argc, char** argv) {
  using namespace hyperion;  // NOLINT
  if (argc != 6) {
    std::cerr << "usage: perfbench storage-node <config> <id> <entities> "
                 "<log_dir|->\n";
    return 2;
  }
  const std::string id = argv[3];
  auto config = cluster::ClusterConfig::FromFile(argv[2]);
  if (!config.ok()) {
    std::cerr << id << ": config: " << config.status() << "\n";
    return 1;
  }
  BioConfig bio;
  bio.num_entities = std::strtoul(argv[4], nullptr, 10);
  auto catalog = BuildBioCatalog(bio);
  if (!catalog.ok()) {
    std::cerr << id << ": catalog: " << catalog.status() << "\n";
    return 1;
  }
  auto node = cluster::ClusterNode::Create(config.value(), id,
                                           std::move(*catalog.value().store));
  if (!node.ok()) {
    std::cerr << id << ": create: " << node.status() << "\n";
    return 1;
  }
  if (std::string(argv[5]) != "-") node.value()->SetWriteLogDir(argv[5]);
  if (Status s = node.value()->Bind(); !s.ok()) {
    std::cerr << id << ": bind: " << s << "\n";
    return 1;
  }
  auto port = node.value()->ListenPort();
  if (!port.ok()) return 1;
  WriteAll(1, "bound " + std::to_string(port.value()) + " " +
                  std::to_string(NowNs()) + "\n");
  if (Status s = node.value()->Start(); !s.ok()) {
    std::cerr << id << ": start: " << s << "\n";
    return 1;
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string verb;
    uint64_t want = 0;
    in >> verb >> want;
    if (verb != "await") continue;
    const auto deadline = Clock::now() + std::chrono::seconds(50);
    bool converged = false;
    while (!converged && Clock::now() < deadline) {
      converged = true;
      for (uint64_t shard : node.value()->owned_shards()) {
        if (node.value()->write_log().VersionOf(shard) < want) {
          converged = false;
        }
      }
      if (!converged) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    const int64_t at = NowNs();
    if (!converged) {
      WriteAll(1, "stuck\n");
      continue;
    }
    WriteAll(1, "converged " + std::to_string(at) + " " +
                    std::to_string(registry.GetCounter("cluster.repair.fetches")
                                       ->value()) +
                    " " +
                    std::to_string(
                        registry.GetCounter("cluster.repair.entries_applied")
                            ->value()) +
                    "\n");
  }
  node.value()->Stop();
  return 0;
}

}  // namespace perfbench
