// paper_figures — the paper's whole evaluation (§4: Figs. 3-16, Tables 1-3)
// and the design ablations beyond it (abl_*) from the one cell table in
// paper_cells.h.
//
//   paper_figures [FIGURE...] [--csv] [--json=PATH] [--markdown=PATH]
//                 [--check=PATH]
//
// FIGURE selects every figure whose id starts with it ("fig04" is fig04a-c);
// none selects them all. Each distinct cell runs once, however many of the
// selected figures use it, and every figure prints as a text table (CSV
// with --csv). All outputs render from the run's ledger:
//   --json=PATH      writes the ledger, one (figure, cell, metric) per line;
//   --markdown=PATH  rewrites PATH's `<!-- paper_figures ID -->` blocks;
//   --check=PATH     writes nothing and exits 1 unless the run has exactly
//                    the ledger's records of the selected figures, each
//                    within its metric's tolerance of the ledger at PATH
//                    (and, with --markdown, the doc has one block per figure
//                    of the table and its blocks are that ledger's
//                    rendering).
// A doc block with no end marker, or naming no figure, is an error: the
// doc is left as it is and the exit status is 1.
//
// Regenerate BENCH_paper.json and EXPERIMENTS.md's tables from the repo
// root with:
//   build/bench/paper_figures --json=BENCH_paper.json --markdown=EXPERIMENTS.md
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "paper_cells.h"

using namespace memfs::bench;  // NOLINT

namespace {

int Usage() {
  std::cerr << "usage: paper_figures [FIGURE...] [--csv] [--json=PATH] "
               "[--markdown=PATH] [--check=PATH]\n";
  return 2;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  std::string json_path;
  std::string markdown_path;
  std::string check_path;
  std::vector<std::string> ids;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg.starts_with("--json=")) {
      json_path = arg.substr(7);
    } else if (arg.starts_with("--markdown=")) {
      markdown_path = arg.substr(11);
    } else if (arg.starts_with("--check=")) {
      check_path = arg.substr(8);
    } else if (arg.starts_with("--")) {
      return Usage();
    } else {
      ids.emplace_back(arg);
    }
  }
  if (!check_path.empty() && !json_path.empty()) return Usage();

  std::vector<const Figure*> selected;
  for (const Figure& figure : PaperFigures()) {
    const auto picks = [&figure](const std::string& id) {
      return figure.id.starts_with(id);
    };
    if (ids.empty() || std::any_of(ids.begin(), ids.end(), picks)) {
      selected.push_back(&figure);
    }
  }
  for (const std::string& id : ids) {
    if (std::none_of(selected.begin(), selected.end(), [&id](const Figure* f) {
          return f->id.starts_with(id);
        })) {
      std::cerr << "paper_figures: no figure " << id << "\n";
      return Usage();
    }
  }

  Ledger ledger;
  std::map<std::string, CellResult> measured;  // by cell id
  for (const Figure* figure : selected) {
    for (const Row& row : figure->rows) {
      const std::string id = CellId(row.cell);
      auto it = measured.find(id);
      if (it == measured.end()) {
        it = measured.emplace(id, RunCell(row.cell)).first;
      }
      AddRecords(ledger, *figure, row, it->second);
    }
    RenderFigure(std::cout, *figure, ledger,
                 csv ? Format::kCsv : Format::kText);
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path, std::ios::binary);
    const auto baseline = LoadLedger(in);
    if (!in.eof() || !baseline) {
      std::cerr << "check: cannot read ledger " << check_path << "\n";
      return 1;
    }
    std::vector<std::string> problems = CheckLedger(ledger, *baseline);
    if (!markdown_path.empty()) {
      const std::string doc = ReadFile(markdown_path);
      const auto rendered = RenderMarkdownBlocks(doc, *baseline);
      if (!rendered.ok()) {
        problems.push_back(markdown_path + ": " + rendered.status().message());
      } else if (doc.empty() || *rendered != doc) {
        problems.push_back(markdown_path + ": generated blocks differ from " +
                           check_path);
      }
      for (const std::string& problem : CheckMarkdownBlocks(doc)) {
        problems.push_back(markdown_path + ": " + problem);
      }
    }
    for (const std::string& problem : problems) {
      std::cerr << "check: " << problem << "\n";
    }
    std::cerr << "check: " << ledger.size() << " values against "
              << check_path << ", " << problems.size() << " problems\n";
    return problems.empty() ? 0 : 1;
  }
  // Render the doc before writing anything, so a malformed doc leaves both
  // files as they are.
  std::string doc;
  if (!markdown_path.empty()) {
    doc = ReadFile(markdown_path);
    auto rendered = RenderMarkdownBlocks(doc, ledger);
    if (!rendered.ok()) {
      std::cerr << "paper_figures: " << markdown_path << ": "
                << rendered.status().message() << "\n";
      return 1;
    }
    doc = std::move(rendered).value();
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    WriteLedger(out, ledger);
    if (!out) {
      std::cerr << "paper_figures: cannot write " << json_path << "\n";
      return 1;
    }
  }
  if (!markdown_path.empty()) {
    std::ofstream out;
    if (!doc.empty()) out.open(markdown_path, std::ios::binary);
    out << doc;
    if (!out) {
      std::cerr << "paper_figures: cannot rewrite " << markdown_path << "\n";
      return 1;
    }
  }
  return 0;
}
