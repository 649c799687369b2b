// Storage nodes as child processes, so a replica kill is a real SIGKILL.
//
// A child is this same binary exec'd in `storage-node` mode.  It talks
// to the parent over two pipes, one line per message:
//
//   child  -> parent   "bound <port> <steady_ns>"  listener bound; Start()
//                                                  begins at steady_ns
//   parent -> child    "await <sequence>"          wait until every owned
//                                                  shard's write-log version
//                                                  reaches <sequence>
//   child  -> parent   "converged <steady_ns> <repair_fetches> <repair_entries>"
//
// Closing the child's stdin stops it.  steady_clock is system-wide on
// Linux, so child timestamps compare directly with the parent's.

#ifndef HYPERION_PERFBENCH_PROCS_H_
#define HYPERION_PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

class StorageProc {
 public:
  // Spawns a storage node named `id` reading `config_path`, with a
  // catalog of `entities` bio entities and (when `log_dir` is not empty)
  // a persistent write log.  Returns once the child reported its port;
  // fails the run, naming the child, if it dies first.
  static std::unique_ptr<StorageProc> Spawn(const std::string& id,
                                            const std::string& config_path,
                                            size_t entities,
                                            const std::string& log_dir);
  ~StorageProc();
  StorageProc(const StorageProc&) = delete;
  StorageProc& operator=(const StorageProc&) = delete;

  const std::string& id() const { return id_; }
  uint16_t port() const { return port_; }
  // steady-clock ns at which the child called ClusterNode::Start.
  int64_t start_ns() const { return start_ns_; }

  // SIGKILL, then reap.
  void Kill();
  // Closes the child's stdin so it stops cleanly, then reaps it.
  void Stop();

  struct Converged {
    int64_t at_ns = 0;
    uint64_t repair_fetches = 0;
    uint64_t repair_entries = 0;
  };
  // Asks the child to report when its write log reaches `sequence`.
  Converged AwaitVersion(uint64_t sequence);

 private:
  StorageProc() = default;
  std::string ReadLine(int timeout_ms);
  void Reap();

  std::string id_;
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  uint16_t port_ = 0;
  int64_t start_ns_ = 0;
};

// SIGKILLs and reaps every live child; Fail() calls it.
void KillAllChildren();

// Entry point of `perfbench storage-node <config> <id> <entities> <log_dir|->`.
int StorageNodeMain(int argc, char** argv);

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_PROCS_H_
