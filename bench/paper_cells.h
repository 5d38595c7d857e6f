// The paper's evaluation (§4: Figs. 3-16, Tables 1-3) and the design
// ablations beyond it (the `abl_*` figures) as one declarative table, the
// runner that measures one cell of it, and the ledger every output renders
// from.
//
// A cell is one simulated configuration (CellParams). Its id is derived
// from its params, so figures that use the same configuration share the
// cell and a driver runs it once. A figure lists rows (a label, a cell and
// the paper's value where the paper gives one) and the metrics it records
// from each row. Measuring a figure fills a Ledger: one
// (figure, cell, metric) -> value record per number, each carrying the
// status of the run that produced it. paper_figures renders its text/CSV
// tables, BENCH_paper.json and EXPERIMENTS.md's generated blocks from the
// ledger; paper_claims_test asserts the paper's relations over the same
// cells.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "hash/hash.h"
#include "mtc/workflow.h"
#include "workloads/testbed.h"

namespace memfs::bench {

enum class CellKind : std::uint8_t {
  kEnvelope,      // MTC envelope phases on a fresh testbed
  kWorkflow,      // one Montage or BLAST run
  kWire,          // Fig. 16's application-vs-wire bandwidth probe
  kInventory,     // Table 2: generator volumes at full scale, no simulation
  kDistribution,  // stripe-key placement on `nodes` servers, no simulation
  kChaos,         // a write-then-verify round trip under faults or a join
  kNamespace,     // an mdtest-style namespace sweep or a bulk-loaded listing
};

// The workflows of §4.2 at the scale-downs the figures use (inventory cells
// build them at full scale), and two small Montage 6 instances for the
// ablations.
enum class Workload : std::uint8_t {
  kNone,
  kMontage6,
  kMontage12,
  kMontage16,
  kBlastDas4,      // 512 fragments
  kBlastEc2,       // 1024 fragments
  kMontage6Io,     // little CPU per task, so the fabric decides
  kMontage6Small,  // small enough for the disk-backed DiskPFS
};

// What a chaos cell does to its servers (§3.2.5's replication under faults).
enum class Faults : std::uint8_t {
  kNone,
  kScripted,    // workloads::ScriptedChaosSchedule()
  kGenerated,   // three crashes, two slowdowns and two lossy links, seed 1
  kKillServer,  // server 3 dies after an envelope write; every file is re-read
};

// §5's runtime scale-out: grow by a standby node, then drain server 2.
enum class ElasticArm : std::uint8_t {
  kNone,
  kEpochPin,  // ring epochs: no data moves, draining strands its stripes
  kMigrate,   // kv::Membership + kv::Migrator live rebalancing
};

enum class DirShape : std::uint8_t { kHot, kMany };  // 1 or 64 directories

struct CellParams {
  CellKind kind = CellKind::kEnvelope;
  workloads::FsKind fs = workloads::FsKind::kMemFs;
  workloads::Fabric fabric = workloads::Fabric::kDas4Ipoib;
  Workload workload = Workload::kNone;
  std::uint32_t nodes = 8;
  std::uint32_t procs = 1;        // processes or (workflow) cores per node
  std::uint64_t file_size = 0;    // envelope and wire cells
  std::uint32_t files = 0;        // files per process
  std::uint64_t io_block = 0;     // 0 = the runner's default
  std::uint32_t meta_files = 0;   // create/open files per process
  bool remote_read = false;       // also time shift-by-one 1-1 reads
  std::uint64_t stripe = 0;       // 0 = the MemFsConfig default
  std::optional<std::uint32_t> io_threads;      // flush pool
  std::optional<std::uint32_t> read_threads;    // read pool and prefetch depth
  std::optional<std::uint32_t> prefetch_depth;  // overrides read_threads'
  std::uint64_t read_cache_bytes = 0;  // 0 = the MemFsConfig default
  std::uint32_t replication = 1;
  bool io_batching = true;
  std::uint32_t max_batch_ops = 0;  // 0 = the IoConfig default
  bool library_mode = false;        // libmemfs linked in, no FUSE
  std::uint32_t mounts = 1;       // FUSE mountpoints per node
  bool contended_fuse = false;    // Fig. 10's contended kernel path
  bool use_ketama = false;        // consistent hashing instead of modulo
  hash::HashKind hash = hash::HashKind::kFnv1a64;
  std::uint64_t node_memory = 0;  // 0 = 20 GiB
  std::uint64_t fabric_bandwidth = 0;  // core capacity, 0 = full bisection
  workloads::NetModel net_model = workloads::NetModel::kFairShare;
  bool amfs_shell_jobs = true;    // AMFS data phases pay the Shell job cost
  // Chaos cells: `files` per node of `file_size` bytes.
  Faults faults = Faults::kNone;
  std::optional<std::uint32_t> migration_victim;  // crashes mid-join
  ElasticArm elastic = ElasticArm::kNone;
  // Namespace cells: `files` entries per node.
  meta::MetadataMode metadata = meta::MetadataMode::kAppendLog;
  DirShape dir_shape = DirShape::kHot;
  std::uint64_t bulk_entries = 0;  // > 0: page through one bulk-loaded dir
  std::uint32_t dir_shards = 0;    // 0 = the MetaConfig default

  bool operator==(const CellParams&) const = default;
};

// Stable, human-readable and unique per distinct params.
std::string CellId(const CellParams& params);

struct CellResult {
  Status status;
  std::map<std::string, double> metrics;
  std::uint64_t sim_events = 0;  // workflow and wire cells
  net::FluidNetwork::SolverStats solver;  // workflow and wire cells
};

// The cell's workflow (workflow and inventory cells).
mtc::Workflow BuildWorkload(const CellParams& params);

// Runs one cell on a fresh testbed and computes every metric its kind has.
// A workflow cell runs `workflow` when given (BuildWorkload(params) reused
// across cells), else builds its own.
CellResult RunCell(const CellParams& params,
                   const mtc::Workflow* workflow = nullptr);

struct Row {
  std::string label;
  CellParams cell;
  std::map<std::string, double> paper;  // metric -> the paper's value
};

struct Figure {
  std::string id;     // "fig04b", "table1", ...
  std::string title;
  std::vector<std::string> metrics;
  std::vector<Row> rows;
};

const std::vector<Figure>& PaperFigures();
const Row* FindRow(std::string_view figure, std::string_view label);

// One recorded value: a row's metric. A Ref with no figure is the constant 1.
struct Ref {
  std::string_view figure;
  std::string_view label;
  std::string_view metric;
};

// lhs > factor * rhs, lhs < factor * rhs, or
// |lhs - factor * rhs| <= tolerance * factor * rhs.
struct Relation {
  enum class Op : std::uint8_t { kGreater, kLess, kNear };
  Ref lhs;
  Op op;
  double factor;
  Ref rhs;
  double tolerance = 0;
};

// A headline claim of the paper, named after the PaperClaims test that
// asserts it, as relations over the table's rows.
struct Claim {
  std::string_view name;
  std::vector<Relation> relations;
};
const std::vector<Claim>& PaperClaims();

// Column header, display precision and the relative tolerance --check
// allows between a run and the ledger.
struct MetricSpec {
  std::string_view name;
  std::string_view header;
  int precision;
  double tolerance;
};
const MetricSpec& Metric(std::string_view name);

struct Record {
  std::string status = "ok";  // or the failed run's Status
  double value = 0;           // meaningless unless status == "ok"
  std::optional<double> paper;

  bool operator==(const Record&) const = default;
};
using LedgerKey = std::tuple<std::string, std::string, std::string>;
using Ledger = std::map<LedgerKey, Record>;  // (figure, cell, metric)

// Adds the figure's records for one measured row.
void AddRecords(Ledger& ledger, const Figure& figure, const Row& row,
                const CellResult& result);

void WriteLedger(std::ostream& os, const Ledger& ledger);
// Reads what WriteLedger wrote; nullopt on a malformed line.
std::optional<Ledger> LoadLedger(std::istream& is);

enum class Format : std::uint8_t { kText, kCsv, kMarkdown };
void RenderFigure(std::ostream& os, const Figure& figure, const Ledger& ledger,
                  Format format);

// Replaces the body of every `<!-- paper_figures ID -->` ...
// `<!-- /paper_figures -->` block whose figure is in the ledger. Fails on a
// block with no end marker or one that names no figure of the table.
Result<std::string> RenderMarkdownBlocks(const std::string& doc,
                                         const Ledger& ledger);

// One line per figure of the table that has no block in `doc`, or more
// than one.
std::vector<std::string> CheckMarkdownBlocks(const std::string& doc);

// One line per record of `run` that `baseline` lacks, or whose status
// differs, or whose value is outside the metric's tolerance, and one per
// record `baseline` has for a figure of `run` that `run` lacks.
std::vector<std::string> CheckLedger(const Ledger& run,
                                     const Ledger& baseline);

}  // namespace memfs::bench
