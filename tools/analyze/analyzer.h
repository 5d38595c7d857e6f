// Static analyzer for the MemFS repository (`memfs_analyze`).
//
// The analyzer lexes and parses every registered translation unit once
// (tools/lexer.h, tools/analyze/parse.h), builds a symbol table, a
// declaration table and a cross-TU call graph resolved by callee name, and
// runs these rule families over that one parse:
//
//  lock-order          Collects Semaphore/BoundedPool `Acquire` and
//                      HandoffGate `EnterWriter`/`Lock` acquisition sites per
//                      function, propagates held-sets through the call graph,
//                      and reports cycles in the global lock-acquisition-
//                      order graph as potential deadlocks, naming the
//                      acquisition sites on every edge of the cycle.
//
//  coroutine-safety    await-held-lock:  a co_await while an exclusive
//                        HandoffGate::Lock section is open (the awaited work
//                        can depend on the locked key).
//                      held-reacquire:  acquiring a lock class already held
//                        by the same function, directly or through a call
//                        chain (self-deadlock / permit starvation).
//                      locked-return:   a return/co_return while a lock
//                        acquired by this function is still held.
//                      blocking-call:   a wall-clock blocking primitive
//                        (sleep/join/wait...) reachable from a coroutine
//                        body through the call graph.
//                      acquire-release: a function that calls
//                        .Acquire()/->Acquire() but never Release(); a
//                        cross-function protocol (the producer releases what
//                        the consumer acquired) uses the suppression comment.
//                      await-in-conditional: a co_await inside an operand
//                        of `?:`. GCC 12 double-frees the temporaries of
//                        `cond ? co_await a : f(co_await b)`; an arm choice
//                        that awaits is an if/else.
//
//  determinism         unordered-sink:  a range-for over an
//                        std::unordered_map/set, a project hash table
//                        (kv::ObjectTable), or a function returning one,
//                        whose loop body reaches an order-sensitive
//                        sink — digest/trace/monitor emission, RPC issue,
//                        event scheduling, or any co_await (suspension
//                        order is part of the event stream).
//                      pointer-order:   sorting a container of pointers with
//                        the default comparator, or iterating a map/set
//                        keyed by pointer — address order varies run to run.
//                      nondeterminism:  std::rand/srand, std::random_device,
//                        time(), gettimeofday, clock_gettime, and the
//                        std::chrono wall clocks outside src/sim/.
//
//  status              ignored-status:  a statement that calls a function
//                        declared with a Status / Result<...> / Future<...>
//                        return type and discards the result. A call matches
//                        a declaration by name and argument count (defaulted
//                        parameters are optional); a matching void overload
//                        exempts the call.
//                      status-flow:     a Status assigned to a local that is
//                        never mentioned again in the enclosing function.
//
//  header hygiene      using-namespace: `using namespace` in a header.
//                      pragma-once:     a header missing `#pragma once`.
//
//  suppression audit   allow-unknown:   a `lint: allow(...)` naming a rule
//                        this table does not contain.
//                      allow-unused:    a `lint: allow(<rule>)` that no
//                        finding of <rule> on its line or the next consumed.
//
// Suppression: a comment containing `lint: allow(<rule>)` (optionally a
// comma-separated rule list) suppresses findings of those rules on the
// comment's line and on the following line. Repository convention is to
// append a one-line justification:
//
//   // lint: allow(<rule>) best-effort read repair; failure rechecked
//   ReplicatedSet(epoch, node, key, value);
//
// The analysis is conservative and heuristic: no preprocessing, overload
// resolution by simple name (a call edge goes to every function with the
// callee's name), and linear held-set tracking inside bodies (no branch
// sensitivity). DESIGN.md documents the false-positive policy.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace memfs::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
};

// "file:line: rule: message" (suppressed findings gain a " [suppressed]"
// suffix).
std::string Format(const Finding& finding);

struct Stats {
  int files = 0;
  int functions = 0;
  int coroutines = 0;
  int call_sites = 0;   // call expressions seen in bodies
  int call_edges = 0;   // (call site, resolved target) pairs
  int lock_classes = 0; // distinct lock identities
  int lock_sites = 0;   // acquisition sites
  int unordered_loops = 0;  // range-fors over unordered containers
  std::map<std::string, int> findings;    // rule -> unsuppressed count
  std::map<std::string, int> suppressed;  // rule -> suppressed count
};

// Multi-line human-readable stats block (the CLI's --stats output).
std::string FormatStats(const Stats& stats);

class Analyzer {
 public:
  // Registers in-memory source (tests) — `path` decides the header-only
  // rules (".h" suffix) and the src/sim/ exemption for wall clocks.
  void AddSource(std::string path, std::string contents);

  // Reads one file from disk. Returns false when unreadable.
  bool AddFile(const std::string& path);

  // Recursively registers every .h/.cc file under `root` in sorted order.
  // Returns the number of files added.
  int AddTree(const std::string& root);

  // Parses everything, runs every rule, and returns findings sorted by
  // (file, line, rule). Suppressed findings are dropped unless
  // `include_suppressed`. Also fills stats().
  std::vector<Finding> Run(bool include_suppressed = false);

  // Valid after Run().
  const Stats& stats() const { return stats_; }

 private:
  struct Source {
    std::string path;
    std::string contents;
  };
  std::vector<Source> sources_;
  Stats stats_;
};

}  // namespace memfs::analyze
